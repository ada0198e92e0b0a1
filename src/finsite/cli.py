"""Command dispatch over the text formats.

Exit codes partition outcomes: 0 means the property holds or the artifact
was produced, 1 means the property fails (the report carries a witness),
2 means a structural or resource error.  Reports are deterministic for
fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .algebra import (
    GroupObjectWitness,
    HomWitness,
    check_abelian_group_object,
    check_group_object,
    check_homomorphism,
    check_monoid_object,
    find_algebraic_objects,
)
from .continuity import initial_local_topology, is_continuous, localize, pullback_local
from .errors import (
    DEFAULT_CANDIDATE_CAP,
    DEFAULT_SIEVE_CAP,
    FinsiteError,
    ResourceError,
    StructuralError,
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
    build_topology,
    enumerate_topologies,
    join,
    meet,
    unclosed_cover,
)
from .parsing import (
    ParseFailure,
    parse_category_file,
    parse_topology_file,
    parse_witness_file,
    serialize_category,
    serialize_topology,
    serialize_witness,
)
from .sieves import sieve_closure, sieve_literal, sieve_sort_key

VERBS = (
    "validate",
    "make-category",
    "make-topology",
    "check-topology",
    "pullback",
    "check-continuous",
    "initial-topology",
    "enumerate-topologies",
    "meet",
    "join",
    "find-objects",
    "check-object",
    "check-hom",
    "check-gtop",
)


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
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise StructuralError(f"{source} must be a non-negative integer, got {value!r}")
    return value


def _caps(opts):
    return {
        "sieves": _cap(opts, "cap_sieves", "FINSITE_CAP_SIEVES", DEFAULT_SIEVE_CAP),
        "candidates": _cap(opts, "cap_candidates", "FINSITE_CAP_CANDIDATES", DEFAULT_CANDIDATE_CAP),
    }


def _load_category(opts):
    path = opts["category"]
    return parse_category_file(Path(path).read_text(), path)


def _load_topology(opts, C, caps, key="topology", verify=False):
    path = opts[key]
    J, report = parse_topology_file(
        Path(path).read_text(), C, path, sieve_cap=caps["sieves"], verify=verify
    )
    return J, report


def _find_arrow(C, token):
    for a in C.all_arrows():
        if str(a) == token:
            return a
    raise StructuralError(f"unknown arrow {token!r}")


def _emit(opts, text):
    out = opts.get("output")
    if out:
        Path(out).write_text(text)
        return [f"wrote {out}"]
    return [text.rstrip("\n")]


def _local_lines(C, L, label):
    lines = [f"{label} at {L.base} ({len(L.sieves)} sieves):"]
    for S in sorted(L.sieves, key=lambda s: sieve_sort_key(C, s)):
        lines.append(f"  {sieve_literal(C, S)}")
    return lines


# -- handlers ----------------------------------------------------------


def _cmd_validate(opts, caps):
    C = _load_category(opts)
    seed = opts.get("seed")
    if seed is None:
        seed = 0
    report = validate_category(C, seed=seed)
    lines = [f"validate {C.name}: {report.summary()}", f"seed: {seed}"]
    return (0 if report.ok else 1), lines


def _cmd_make_category(opts, caps):
    if opts.get("divisor"):
        C = build_divisor_poset(opts["divisor"])
    elif opts.get("product"):
        a_path, b_path = opts["product"]
        A = parse_category_file(Path(a_path).read_text(), a_path)
        B = parse_category_file(Path(b_path).read_text(), b_path)
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
    J, report = _load_topology(opts, C, caps, verify=True)
    lines = [f"check-topology {J.name} on {C.name}: {report.summary(C)}"]
    return (0 if report.ok else 1), lines


def _cmd_pullback(opts, caps):
    C = _load_category(opts)
    h = _find_arrow(C, opts["arrow"])
    if opts.get("sieve"):
        body = opts["sieve"].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise StructuralError("sieve literal must be brace-delimited")
        gens = [_find_arrow(C, t.strip()) for t in body[1:-1].split(",") if t.strip()]
        S = sieve_closure(C, C.cod(h), gens)
        from .sieves import pullback_sieve

        P = pullback_sieve(C, h, S)
        return 0, [f"pullback of {sieve_literal(C, S)} along {C.arrow_label(h)}:", f"  {sieve_literal(C, P)}"]
    if "topology" not in opts:
        raise StructuralError("pullback needs either --topology or --sieve")
    J, _ = _load_topology(opts, C, caps)
    L = localize(J, C.cod(h))
    P = pullback_local(C, h, L)
    return 0, _local_lines(C, P, f"pullback of {J.name}")


def _cmd_check_continuous(opts, caps):
    C = _load_category(opts)
    J, _ = _load_topology(opts, C, caps)
    f = _find_arrow(C, opts["arrow"])
    verdict = is_continuous(C, f, J)
    if verdict.ok:
        return 0, [f"{C.arrow_label(f)} is continuous under {J.name}"]
    return 1, [
        f"{C.arrow_label(f)} is NOT continuous under {J.name}",
        f"witness cover not of pullback form: {sieve_literal(C, verdict.witness)}",
    ]


def _cmd_initial_topology(opts, caps):
    C = _load_category(opts)
    J, _ = _load_topology(opts, C, caps)
    x = next((o for o in C.objects if str(o) == opts["object"]), None)
    if x is None:
        raise StructuralError(f"unknown object {opts['object']!r}")
    family = []
    for tok in filter(None, (t.strip() for t in opts.get("arrows", "").split(","))):
        f = _find_arrow(C, tok)
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


def _cmd_meet(opts, caps):
    C = _load_category(opts)
    J1, _ = _load_topology(opts, C, caps)
    J2, _ = _load_topology(opts, C, caps, key="topology2")
    return 0, _emit(opts, serialize_topology(meet(J1, J2)))


def _cmd_join(opts, caps):
    C = _load_category(opts)
    J1, _ = _load_topology(opts, C, caps)
    J2, _ = _load_topology(opts, C, caps, key="topology2")
    return 0, _emit(opts, serialize_topology(join(J1, J2, sieve_cap=caps["sieves"])))


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
    w = parse_witness_file(Path(opts["witness"]).read_text(), C, opts["witness"])
    verdict, label = _witness_verdict(C, w, opts.get("abelian", False))
    if verdict.ok:
        return 0, [f"{w.carrier} is a {label}"]
    return 1, [f"{w.carrier} is NOT a {label}", f"failing diagram: {verdict.diagram}", f"  {verdict.detail}"]


def _cmd_check_hom(opts, caps):
    C = _load_category(opts)
    w1 = parse_witness_file(Path(opts["source"]).read_text(), C, opts["source"])
    w2 = parse_witness_file(Path(opts["target"]).read_text(), C, opts["target"])
    f = _find_arrow(C, opts["arrow"])
    verdict = check_homomorphism(C, HomWitness(w1, w2, f))
    if verdict.ok:
        return 0, [f"{C.arrow_label(f)} is a homomorphism of witnesses"]
    return 1, [f"{C.arrow_label(f)} is NOT a homomorphism", f"failing diagram: {verdict.diagram}", f"  {verdict.detail}"]


def _cmd_check_gtop(opts, caps):
    C = _load_category(opts)
    J, _ = _load_topology(opts, C, caps)
    if opts.get("functor_level"):
        unit_tok = opts.get("unit")
        if unit_tok is None:
            raise StructuralError("--functor-level needs --unit")
        unit = next((o for o in C.objects if str(o) == unit_tok), None)
        if unit is None:
            raise StructuralError(f"unknown unit object {unit_tok!r}")
        gap = unclosed_cover(J)
        if gap is not None:
            x, S, R = gap
            raise StructuralError(
                f"--functor-level needs cover sets closed upward: at {x!r}, "
                f"{sieve_literal(C, R)} contains the cover {sieve_literal(C, S)} but is not a cover"
            )
        P, _, _ = build_product_category(C, C, caps["candidates"])
        mul = build_lcm_functor(P, C)
        Jp, _ = build_topology(P, opts.get("product_topology", "trivial"), sieve_cap=caps["sieves"], verify=False)
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
    if "witness" not in opts:
        raise StructuralError("morphism-level check-gtop needs --witness")
    w = parse_witness_file(Path(opts["witness"]).read_text(), C, opts["witness"])
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


def run_command(req: CommandRequest):
    """Dispatch a request; returns ``(exit_code, report_text)``."""
    handler = _HANDLERS.get(req.verb)
    if handler is None:
        return 2, f"error: unknown verb {req.verb!r}\nusage: finsite {{{','.join(VERBS)}}}"
    try:
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
        p.add_argument("--cap-sieves", type=int, dest="cap_sieves")
        p.add_argument("--cap-candidates", type=int, dest="cap_candidates")
        p.add_argument("--format", choices=["text"], default="text")
        return p

    cat = (("--category",), {"required": True})
    top = (("--topology",), {"required": True})
    out = (("-o", "--output"), {"dest": "output"})
    add("validate", cat, (("--seed",), {"type": int}))
    add(
        "make-category",
        (("--divisor",), {"type": int}),
        (("--product",), {"nargs": 2, "metavar": ("A", "B")}),
        out,
    )
    p = add("make-topology", cat, (("--kind",), {"required": True, "choices": ["trivial", "discrete", "dense", "atomic"]}), out)
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
    p.add_argument("--product-topology", dest="product_topology", choices=["trivial", "discrete", "dense", "atomic"])
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
