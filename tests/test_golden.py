"""Every verb's report on D_12, and the topology verbs' reports on a
category that is not thin, replayed against committed corpora.

``fixtures/d12-corpus.golden`` holds, for each command line of
``calls()``, its exit code, its report and the files it writes with
``-o``; ``fixtures/swap-corpus.golden`` does the same for
``swap_calls()`` on ``fixtures/swap.cat``, whose factoring classes hold
two arrows each with labels that interleave.  The calls run through
``run_command`` in a scratch directory that holds copies of the input
fixtures, so reports name files by their bare names.  After a deliberate
change of output, rewrite the corpora with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

from __future__ import annotations

import os
import shlex
import shutil
import tempfile
from pathlib import Path

from finsite.cli import CommandRequest, _build_parser, run_command

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "d12-corpus.golden"
INPUTS = ("d12.cat", "top12.wit", "broken12.gtop", "j3-d12.gtop", "dense12.gtop")
SWAP_GOLDEN = FIXTURES / "swap-corpus.golden"
SWAP_INPUTS = ("swap.cat", "swap-broken.gtop")
KINDS = ("trivial", "discrete", "dense", "atomic")
ARROWS = {"2|12": "{1|12, 2|12}", "1|4": "{1|4}", "id_6": "{1|6, 2|6}"}  # arrow -> a sieve on its codomain
DOMAINS = {"2|12": "2", "1|4": "1", "id_6": "6"}


def calls():
    """The command lines of the corpus, in order; later ones read the
    topology files that earlier ones write."""
    cat = ["--category", "d12.cat"]
    yield ["validate", *cat, "--seed", "3"]
    yield ["make-category", "--divisor", "12", "-o", "made12.cat"]
    for k in KINDS:
        yield ["make-topology", *cat, "--kind", k, "-o", f"{k}.gtop"]
    for k in KINDS:
        yield ["check-topology", *cat, "--topology", f"{k}.gtop"]
    for i, a in enumerate(KINDS):
        for b in KINDS[i + 1 :]:
            for verb in ("meet", "join"):
                yield [verb, *cat, "--topology", f"{a}.gtop", "--topology2", f"{b}.gtop"]
    for arrow, sieve in ARROWS.items():
        yield ["pullback", *cat, "--arrow", arrow, "--sieve", sieve]
        for k in KINDS:
            top = ["--topology", f"{k}.gtop"]
            yield ["pullback", *cat, "--arrow", arrow, *top]
            yield ["check-continuous", *cat, "--arrow", arrow, *top]
            yield ["initial-topology", *cat, "--object", DOMAINS[arrow], "--arrows", arrow, *top]
    for k in KINDS:
        yield ["check-gtop", *cat, "--topology", f"{k}.gtop", "--witness", "top12.wit"]
        for product in ("dense", "atomic"):
            yield ["check-gtop", *cat, "--topology", f"{k}.gtop", "--functor-level", "--unit", "1", "--product-topology", product]
    yield ["enumerate-topologies", *cat]
    for kind in ("monoid", "group"):
        yield ["find-objects", *cat, "--kind", kind]
    yield ["check-object", *cat, "--witness", "top12.wit", "--abelian"]
    yield ["check-hom", *cat, "--source", "top12.wit", "--target", "top12.wit", "--arrow", "id_12"]
    for fixture in ("broken12.gtop", "j3-d12.gtop", "dense12.gtop"):
        yield ["check-topology", *cat, "--topology", fixture]
    for fixture in ("broken12.gtop", "dense12.gtop"):
        yield ["join", *cat, "--topology", fixture, "--topology2", "j3-d12.gtop"]
        yield ["meet", *cat, "--topology", fixture, "--topology2", "j3-d12.gtop"]
    yield ["check-gtop", *cat, "--topology", "broken12.gtop", "--functor-level", "--unit", "1", "--product-topology", "atomic"]


SWAP_ARROWS = {"t": "{p}", "a": "{ap}", "s": "{a}", "m": "{aq}", "p": "{id_A}"}  # arrow -> a sieve on its codomain


def swap_calls():
    """The topology verbs on ``swap.cat``, in order, as ``calls()`` runs
    them on D_12."""
    cat = ["--category", "swap.cat"]
    for k in KINDS:
        yield ["make-topology", *cat, "--kind", k, "-o", f"{k}.gtop"]
    for k in (*KINDS, "swap-broken"):
        yield ["check-topology", *cat, "--topology", f"{k}.gtop"]
    for i, a in enumerate(KINDS):
        for b in (*KINDS[i + 1 :], "swap-broken"):
            for verb in ("meet", "join"):
                yield [verb, *cat, "--topology", f"{a}.gtop", "--topology2", f"{b}.gtop"]
    for arrow, sieve in SWAP_ARROWS.items():
        yield ["pullback", *cat, "--arrow", arrow, "--sieve", sieve]
        for k in (*KINDS, "swap-broken"):
            yield ["pullback", *cat, "--arrow", arrow, "--topology", f"{k}.gtop"]
    yield ["enumerate-topologies", *cat]


def render(workdir, calls=calls, inputs=INPUTS) -> str:
    """The corpus text of ``calls``: each call run in ``workdir``, which
    receives copies of the fixtures ``inputs``."""
    for name in inputs:
        shutil.copy(FIXTURES / name, Path(workdir) / name)
    parser, out = _build_parser(), []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls():
            ns = parser.parse_args(argv)
            opts = {k: v for k, v in vars(ns).items() if k != "verb" and v is not None}  # as ``main`` builds them
            code, report = run_command(CommandRequest(ns.verb, opts))
            out.append(f"$ finsite {shlex.join(argv)}\n[exit {code}]\n{report}\n")
            if "-o" in argv:
                written = argv[argv.index("-o") + 1]
                out.append(f"[file {written}]\n{Path(written).read_text()}")
    finally:
        os.chdir(here)
    return "".join(out)


def test_every_report_matches_the_corpus(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text()


def test_every_report_on_a_category_that_is_not_thin_matches_its_corpus(tmp_path):
    assert render(tmp_path, swap_calls, SWAP_INPUTS) == SWAP_GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(render(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        SWAP_GOLDEN.write_text(render(scratch, swap_calls, SWAP_INPUTS))
