"""Command dispatch over the text formats.

Exit codes partition outcomes: 0 means the property holds or the artifact
was produced, 1 means the property fails (the report carries a witness),
2 means a structural or resource error.  Reports are deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from .algebra import (
    GroupObjectWitness,
    HomWitness,
    check_abelian_group_object,
    check_group_object,
    check_homomorphism,
    check_monoid_object,
    find_algebraic_objects,
)
from .continuity import initial_local_topology, is_continuous, localize, pullback_local, refuse_unclosed_covers
from .errors import (
    DEFAULT_CANDIDATE_CAP,
    DEFAULT_SIEVE_CAP,
    FinsiteError,
    ResourceError,
    StructuralError,
    _check_cap,
)
from .fincat import (
    build_divisor_poset,
    build_lcm_functor,
    build_product_category,
    relabel_category,
    validate_category,
)
from .gtopgroup import is_gtop_algebraic_object, is_gtop_functor_monoid
from .gtopology import (
    _BUILDERS,
    build_topology,
    check_axioms,
    enumerate_topologies,
    join,
    meet,
)
from .parsing import (
    ParseFailure,
    label_index,
    parse_category_file,
    parse_sieve_literal,
    parse_topology_file,
    parse_witness_file,
    serialize_category,
    serialize_topology,
    serialize_witness,
)
from .sieves import pullback_sieve, sieve_literal, sorted_sieves


@dataclass(frozen=True)
class CommandRequest:
    verb: str
    options: dict = field(default_factory=dict)


def _cap(opts, key, env, default):
    """A cap from its option, else its environment variable, else the
    default.  A cap of 0 is a real cap; a negative one is an error."""
    value, source = opts.get(key), "--" + key.replace("_", "-")
    if value is None:
        raw = os.environ.get(env)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise StructuralError(f"environment variable {env} must be an integer, got {raw!r}") from None
        source = f"environment variable {env}"
    return _check_cap(value, source)


# the verbs that read each cap flag; the others refuse it (FINSITE_CAP_* hold for all)
_CAP_VERBS = {
    "cap_sieves": ("make-topology", "check-topology", "initial-topology", "enumerate-topologies", "join"),
    "cap_candidates": ("make-category", "enumerate-topologies", "find-objects", "check-object", "check-hom", "check-gtop"),
}


def _caps(opts):
    return {
        "sieves": _cap(opts, "cap_sieves", "FINSITE_CAP_SIEVES", DEFAULT_SIEVE_CAP),
        "candidates": _cap(opts, "cap_candidates", "FINSITE_CAP_CANDIDATES", DEFAULT_CANDIDATE_CAP),
    }


def _parse(parse, path, *args, **kwargs):
    """``parse(text, *args, path, **kwargs)`` on the text of the file at
    ``path``, read as bytes and decoded as UTF-8 once; one that is not
    UTF-8 is a ``StructuralError`` naming it.  Line ends are left to the
    parser, which splits lines as ``str.splitlines`` does, so CRLF and CR
    files read as LF ones do."""
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise StructuralError(f"{path} is not UTF-8 text: {e}") from None
    return parse(text, *args, path, **kwargs)


def _load_category(opts):
    return _parse(parse_category_file, opts["category"])


def _load_topology(opts, C, key="topology"):
    return _parse(parse_topology_file, opts[key], C)


def _named(labels, label, what):
    """The object or arrow that a flag names, from a map of ``label_index``."""
    found = labels.get(label)
    if found is None:
        raise StructuralError(f"unknown {what} {label!r}")
    return found


def _refuse(opts, why, *keys):
    """Refuse a flag the verb would ignore; ``why`` names the flag that
    makes it ignored."""
    for key in keys:
        if opts.get(key) is not None:
            raise StructuralError(f"--{key.replace('_', '-')} {why}")


def _emit(opts, text):
    """Write ``text`` to the ``--output`` file as UTF-8, whatever the
    locale, or return it as the report."""
    out = opts.get("output")
    if out:
        with open(out, "wb") as f:
            f.write(text.encode("utf-8"))
        return [f"wrote {out}"]
    return [text.rstrip("\n")]


def _local_lines(C, L, label):
    lines = [f"{label} at {L.base} ({len(L.sieves)} sieves):"]
    for S in sorted_sieves(C, L.sieves):
        lines.append(f"  {sieve_literal(C, S)}")
    return lines


# -- handlers ----------------------------------------------------------


def _cmd_validate(opts, caps):
    C = _load_category(opts)
    report = validate_category(C)
    seed = opts.get("seed")  # echoed in the report; it reaches no check
    lines = [f"validate {C.name}: {report.summary()}", f"seed: {0 if seed is None else seed}"]
    return (0 if report.ok else 1), lines


def _cmd_make_category(opts, caps):
    if opts.get("divisor") is not None:
        _refuse(opts, "cannot be combined with --divisor", "product")
        C = build_divisor_poset(opts["divisor"], candidate_cap=caps["candidates"])
    elif opts.get("product") is not None:
        A, B = (_parse(parse_category_file, path) for path in opts["product"])
        P, _, _ = build_product_category(A, B, caps["candidates"])
        # parenthesized arrow ids avoid the reserved id_ prefix on mixed
        # pairs like (id_1, f)
        C = relabel_category(P, obj_fn=lambda o: f"{o[0]}*{o[1]}", arr_fn=lambda a: f"({a[0]}*{a[1]})")
    else:
        raise StructuralError("make-category needs --divisor N or --product A B")
    return 0, _emit(opts, serialize_category(C))


def _cmd_make_topology(opts, caps):
    C = _load_category(opts)
    J, report = build_topology(C, opts["kind"], sieve_cap=caps["sieves"], verify=opts.get("verify", True))
    lines = _emit(opts, serialize_topology(J))
    if report is None:
        lines.append("axioms: not checked (--no-verify)")
        return 0, lines
    lines.append(f"axioms: {report.summary(C)}")
    return (0 if report.ok else 1), lines


def _cmd_check_topology(opts, caps):
    C = _load_category(opts)
    J = _load_topology(opts, C)
    report = check_axioms(J, caps["sieves"])
    lines = [f"check-topology {J.name} on {C.name}: {report.summary(C)}"]
    return (0 if report.ok else 1), lines


def _cmd_pullback(opts, caps):
    C = _load_category(opts)
    h = _named(label_index(C).arrows, opts["arrow"], "arrow")
    if opts.get("sieve") is not None:
        _refuse(opts, "cannot be combined with --sieve", "topology")
        S = parse_sieve_literal(opts["sieve"], C, C.cod(h), "--sieve")
        P = pullback_sieve(C, h, S)
        return 0, [f"pullback of {sieve_literal(C, S)} along {C.arrow_label(h)}:", f"  {sieve_literal(C, P)}"]
    if "topology" not in opts:
        raise StructuralError("pullback needs either --topology or --sieve")
    J = _load_topology(opts, C)
    L = localize(J, C.cod(h))
    P = pullback_local(C, h, L)
    return 0, _local_lines(C, P, f"pullback of {J.name}")


def _cmd_check_continuous(opts, caps):
    C = _load_category(opts)
    J = _load_topology(opts, C)
    f = _named(label_index(C).arrows, opts["arrow"], "arrow")
    verdict = is_continuous(C, f, J)
    if verdict.ok:
        return 0, [f"{C.arrow_label(f)} is continuous under {J.name}"]
    return 1, [
        f"{C.arrow_label(f)} is NOT continuous under {J.name}",
        f"witness cover not of pullback form: {sieve_literal(C, verdict.witness)}",
    ]


def _cmd_initial_topology(opts, caps):
    C = _load_category(opts)
    J = _load_topology(opts, C)
    labels = label_index(C)
    x = _named(labels.objects, opts["object"], "object")
    family = []
    for tok in filter(None, (t.strip() for t in opts.get("arrows", "").split(","))):
        f = _named(labels.arrows, tok, "arrow")
        family.append((f, localize(J, C.cod(f))))
    L = initial_local_topology(C, x, family, sieve_cap=caps["sieves"])
    return 0, _local_lines(C, L, "initial topology")


def _cmd_enumerate(opts, caps):
    C = _load_category(opts)
    found = enumerate_topologies(C, sieve_cap=caps["sieves"], candidate_cap=caps["candidates"])
    lines = [f"{len(found)} topologies on {C.name}"]
    for J in found:
        lines.append(serialize_topology(J).rstrip("\n"))
    return 0, lines


def _load_pair(opts):
    C = _load_category(opts)
    return _load_topology(opts, C), _load_topology(opts, C, "topology2")


def _cmd_meet(opts, caps):
    return 0, _emit(opts, serialize_topology(meet(*_load_pair(opts))))


def _cmd_join(opts, caps):
    return 0, _emit(opts, serialize_topology(join(*_load_pair(opts), sieve_cap=caps["sieves"])))


def _cmd_find_objects(opts, caps):
    C = _load_category(opts)
    found = find_algebraic_objects(C, opts["kind"], candidate_cap=caps["candidates"])
    lines = [f"{len(found)} {opts['kind']} objects in {C.name}"]
    for w in found:
        lines.append(serialize_witness(C, w).rstrip("\n"))
    return 0, lines


def _witness_verdict(C, w, abelian=False):
    if abelian:
        if not isinstance(w, GroupObjectWitness):
            raise StructuralError("--abelian needs a group witness")
        return check_abelian_group_object(C, w), "abelian group object"
    if isinstance(w, GroupObjectWitness):
        return check_group_object(C, w), "group object"
    return check_monoid_object(C, w), "monoid object"


def _cmd_check_object(opts, caps):
    C = _load_category(opts)
    w = _parse(parse_witness_file, opts["witness"], C, candidate_cap=caps["candidates"])
    verdict, label = _witness_verdict(C, w, opts.get("abelian", False))
    if verdict.ok:
        return 0, [f"{w.carrier} is a {label}"]
    return 1, [f"{w.carrier} is NOT a {label}", f"failing diagram: {verdict.diagram}", f"  {verdict.detail}"]


def _cmd_check_hom(opts, caps):
    C = _load_category(opts)
    w1, w2 = (_parse(parse_witness_file, opts[k], C, candidate_cap=caps["candidates"]) for k in ("source", "target"))
    f = _named(label_index(C).arrows, opts["arrow"], "arrow")
    verdict = check_homomorphism(C, HomWitness(w1, w2, f))
    if verdict.ok:
        return 0, [f"{C.arrow_label(f)} is a homomorphism of witnesses"]
    return 1, [f"{C.arrow_label(f)} is NOT a homomorphism", f"failing diagram: {verdict.diagram}", f"  {verdict.detail}"]


def _cmd_check_gtop(opts, caps):
    C = _load_category(opts)
    J = _load_topology(opts, C)
    if opts.get("functor_level"):
        _refuse(opts, "cannot be combined with --functor-level", "witness")
        unit_tok = opts.get("unit")
        if unit_tok is None:
            raise StructuralError("--functor-level needs --unit")
        unit = _named(label_index(C).objects, unit_tok, "unit object")
        refuse_unclosed_covers(J)  # before the product is built
        P, _, _ = build_product_category(C, C, caps["candidates"])
        mul = build_lcm_functor(P, C)
        # Jp's covers are never listed, so it reads no sieve cap
        Jp, _ = build_topology(P, opts.get("product_topology", "trivial"), verify=False)
        report = is_gtop_functor_monoid(mul, unit, Jp, J)
        lines = [
            "reading: functor-level (multiplication functor on the product category)",
            f"associative: {report.associative}",
            f"unital: {report.unital}",
            f"cover-preserving: {report.cover_preserving.ok}",
        ]
        if not report.cover_preserving.ok:
            v = report.cover_preserving
            lines.append(f"  witness: object {v.obj}, cover {sieve_literal(P, v.witness)}")
        return (0 if report.ok else 1), lines
    _refuse(opts, "needs --functor-level", "unit", "product_topology")
    if "witness" not in opts:
        raise StructuralError("morphism-level check-gtop needs --witness")
    w = _parse(parse_witness_file, opts["witness"], C, candidate_cap=caps["candidates"])
    report = is_gtop_algebraic_object(C, w, J)
    lines = [
        "reading: morphism-level (continuity of the structure maps)",
        f"mu continuous: {report.mu_ok}",
    ]
    if report.mu_witness is not None:
        lines.append(f"  witness sieve: {sieve_literal(C, report.mu_witness)}")
    if report.zeta_ok is not None:
        lines.append(f"zeta continuous: {report.zeta_ok}")
        if report.zeta_witness is not None:
            lines.append(f"  witness sieve: {sieve_literal(C, report.zeta_witness)}")
    return (0 if report.ok else 1), lines


_HANDLERS = {
    "validate": _cmd_validate,
    "make-category": _cmd_make_category,
    "make-topology": _cmd_make_topology,
    "check-topology": _cmd_check_topology,
    "pullback": _cmd_pullback,
    "check-continuous": _cmd_check_continuous,
    "initial-topology": _cmd_initial_topology,
    "enumerate-topologies": _cmd_enumerate,
    "meet": _cmd_meet,
    "join": _cmd_join,
    "find-objects": _cmd_find_objects,
    "check-object": _cmd_check_object,
    "check-hom": _cmd_check_hom,
    "check-gtop": _cmd_check_gtop,
}
VERBS = tuple(_HANDLERS)


def run_command(req: CommandRequest):
    """Dispatch a request; returns ``(exit_code, report_text)``."""
    handler = _HANDLERS.get(req.verb)
    if handler is None:
        return 2, f"error: unknown verb {req.verb!r}\nusage: finsite {{{','.join(VERBS)}}}"
    try:
        _refuse(req.options, f"is not read by {req.verb}", *(k for k, verbs in _CAP_VERBS.items() if req.verb not in verbs))
        code, lines = handler(req.options, _caps(req.options))
    except ParseFailure as e:
        return 2, "\n".join(str(d) for d in e.diagnostics)
    except ResourceError as e:
        return 2, f"resource error: {e}"
    except FinsiteError as e:
        return 2, f"error: {e}"
    except OSError as e:
        return 2, f"error: {e}"
    return code, "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(prog="finsite", description="Finite sites: verify and enumerate.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, *specs):
        p = sub.add_parser(verb)
        for args, kwargs in specs:
            p.add_argument(*args, **kwargs)
        for key in (k for k, verbs in _CAP_VERBS.items() if verb in verbs):
            p.add_argument("--" + key.replace("_", "-"), type=int, dest=key)
        return p

    cat = (("--category",), {"required": True})
    top = (("--topology",), {"required": True})
    out = (("-o", "--output"), {"dest": "output"})
    add("validate", cat, (("--seed",), {"type": int, "help": "echoed on the report's seed: line; it reaches no check"}))
    add(
        "make-category",
        (("--divisor",), {"type": int}),
        (("--product",), {"nargs": 2, "metavar": ("A", "B")}),
        out,
    )
    p = add("make-topology", cat, (("--kind",), {"required": True, "choices": list(_BUILDERS)}), out)
    p.add_argument("--verify", dest="verify", action="store_true", default=True)
    p.add_argument("--no-verify", dest="verify", action="store_false")
    add("check-topology", cat, top)
    add("pullback", cat, (("--arrow",), {"required": True}), (("--topology",), {}), (("--sieve",), {}))
    add("check-continuous", cat, top, (("--arrow",), {"required": True}))
    add("initial-topology", cat, top, (("--object",), {"required": True}), (("--arrows",), {"default": ""}))
    add("enumerate-topologies", cat)
    add("meet", cat, top, (("--topology2",), {"required": True}), out)
    add("join", cat, top, (("--topology2",), {"required": True}), out)
    add("find-objects", cat, (("--kind",), {"required": True, "choices": ["monoid", "group"]}))
    p = add("check-object", cat, (("--witness",), {"required": True}))
    p.add_argument("--abelian", action="store_true")
    add("check-hom", cat, (("--source",), {"required": True}), (("--target",), {"required": True}), (("--arrow",), {"required": True}))
    p = add("check-gtop", cat, top, (("--witness",), {}))
    p.add_argument("--functor-level", dest="functor_level", action="store_true")
    p.add_argument("--unit")
    p.add_argument("--product-topology", dest="product_topology", choices=list(_BUILDERS))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    opts = {k: v for k, v in vars(ns).items() if k != "verb" and v is not None}
    code, report = run_command(CommandRequest(ns.verb, opts))
    if report:
        print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
