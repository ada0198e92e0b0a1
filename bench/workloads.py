"""The benchmark's three workloads.

A workload's ``setup`` writes its input files and draws its seeded
choices; ``ops`` lists the operations of one pass.  An operation is one
CLI verb run through ``finsite.cli.run_command`` (several, where single
calls are too short to time), or one public library verdict where no verb
takes the input.  Every operation builds or parses its categories afresh,
so no program cache carries over between operations or passes.

Each operation has a check that compares its output with ``reference``.
An operation named with a ``fault`` is expected to hit that resource cap
today; it is counted as failed when it does, and checked like any other
when it does not.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as R
from reference import require


class CapHit(Exception):
    """A CLI operation stopped with a resource error; ``cap`` names the cap."""

    def __init__(self, cap, message):
        super().__init__(message)
        self.cap = cap


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None  # the cap a named program fault hits today


def cli(prog, verb, **opts):
    """One CLI invocation; a resource error becomes ``CapHit``."""
    code, text = prog.cli.run_command(prog.cli.CommandRequest(verb, opts))
    if code == 2 and text.startswith("resource error:"):
        cap = next((c for c in ("candidates", "homs", "sieves") if f"{c[:-1]} cap" in text), "unknown")
        raise CapHit(cap, text)
    return code, text


def expect(result, code, first_line=None):
    got_code, text = result
    require(got_code == code, f"exit code {got_code}, expected {code}: {text[:300]!r}")
    if first_line is not None:
        require(text.splitlines()[0] == first_line, f"report {text.splitlines()[:1]!r}, expected {first_line!r}")
    return text


# -- divisor-sites ----------------------------------------------------------

# fixed generators of the rigid topologies J_A and J_B; the broken file is
# J_A without its least cover at n/2
RIGID = {360: ((2,), (3,)), 720: ((2,), (3,))}
KINDS = ("trivial", "discrete", "dense", "atomic")


@functools.cache
def _divisor_texts(n):
    """The topology files of D_n, by name; the same for every seed."""
    P = R.divisor_poset(n)
    if n in RIGID:
        A, B = RIGID[n]
        tops = {kind: P.topology(R.named_divisor_set(P, kind)) for kind in ("trivial", "discrete", "dense")}
        tops["rigidA"], tops["rigidB"] = P.topology(A), P.topology(B)
        tops["broken"] = R.broken_topology(P, tops["rigidA"], n // 2)[0]
    else:
        tops = {kind: P.topology(R.named_divisor_set(P, kind)) for kind in ("dense", "trivial")}
    return {name: P.topology_text(name, J) for name, J in tops.items()}


def _divisor_setup(prog, work, rng):
    ctx = {"work": work, "posets": {}, "files": {}, "choices": {}}
    for n in (36, 60, 360, 720):
        P = R.divisor_poset(n)
        ctx["posets"][n] = P
        path = work / f"D_{n}.cat"
        path.write_text(P.category_text())
        ctx["files"][(n, "cat")] = str(path)
        for name, text in _divisor_texts(n).items():
            path = work / f"D_{n}-{name}.gtop"
            path.write_text(text)
            ctx["files"][(n, name)] = str(path)
        (G,) = R.algebraic_objects_in_divisor_poset(n)
        path = work / f"D_{n}-group.wit"
        path.write_text(f"group {G} mul=id_{G} unit=id_{G} inv=id_{G} product={G}:id_{G}:id_{G} product3={G}:id_{G}:id_{G}\n")
        ctx["files"][(n, "group")] = str(path)
    for n in RIGID:
        P = ctx["posets"][n]
        arrows = P.arrows()
        above = {x: [y for y in P.elements if y != x and P.leq(x, y)] for x in P.elements}
        queries = {}
        for name in ("rigidA", "rigidB"):
            x = rng.choice([x for x in P.elements if len(above[x]) >= 2])
            queries[name] = {
                "continuous": rng.sample(arrows, 2),
                "initial": (x, rng.sample(above[x], 2)),
                "pullback": rng.choice(arrows),
            }
        ctx["choices"][n] = {
            "queries": queries,
            "sieves": [
                (a, b, rng.sample([d for d in P.ideal[b] if d != b], min(2, len(P.ideal[b]) - 1)))
                for a, b in (rng.choice(arrows) for _ in range(6))
            ],
            "validate_seed": rng.randrange(1, 1 << 30),
        }
    return ctx


_VIOLATION = re.compile(r"^\s*\[([\w-]+)\] at '?([^',]+)'?, sieve (\{[^}]*\})")


def _violation(line):
    """(axiom, object, sieve literal) of one line of an axiom report."""
    m = _VIOLATION.match(line)
    require(m, f"bad violation line {line!r}")
    return m.groups()


def _check_topology_file(P, path, D):
    _, cat, covers = R.parse_topology_text(Path(path).read_text())
    require(cat == P.name, f"topology file is on {cat}, not {P.name}")
    require(R.normalize(covers, P.elements) == P.as_tokens(P.topology(D)), f"{path}: covers differ from J_{sorted(D)}")


def _divisor_ops(prog, ctx):
    work, files, posets = ctx["work"], ctx["files"], ctx["posets"]
    ops = []

    def make_categories():
        outs = []
        for n in (36, 60, 360, 720):
            out = work / f"made-D_{n}.cat"
            outs.append((n, cli(prog, "make-category", divisor=n, output=str(out)), out))
        prod = work / "made-product.cat"
        outs.append(("product", cli(prog, "make-category", product=[files[(36, "cat")], files[(60, "cat")]], output=str(prod)), prod))
        return outs

    def check_categories(outs):
        for n, result, out in outs:
            expect(result, 0, f"wrote {out}")
            name, objects, arrows, table = R.parse_category_text(out.read_text())
            if n == "product":
                A, B = posets[36], posets[60]
                require(len(objects) == len(A.elements) * len(B.elements), "product objects")
                n_arrows = sum(len(A.ideal[x]) for x in A.elements) * sum(len(B.ideal[y]) for y in B.elements)
                require(len(arrows) == n_arrows - len(objects), "product arrows")
                pairs = lambda P: sum(len(P.ideal[m]) for k in P.elements for m in P.ideal[k])
                # composable pairs of the product, minus those with an identity factor
                require(len(table) == pairs(A) * pairs(B) - 2 * n_arrows + len(objects), "product compositions")
            else:
                P = posets[n]
                require(name == P.name and (sorted(objects), arrows, table) == R.expected_category(P), f"D_{n} file")

    ops.append(Op("make-category", make_categories, check_categories))

    for n in (360, 720):
        P, cat, ch = posets[n], files[(n, "cat")], ctx["choices"][n]
        A, B = RIGID[n]
        for kind in KINDS:
            out = work / f"made-D_{n}-{kind}.gtop"

            def run(kind=kind, out=out, cat=cat):
                return cli(prog, "make-topology", category=cat, kind=kind, output=str(out))

            def check(result, P=P, kind=kind, out=out):
                text = expect(result, 0, f"wrote {out}")
                require(text.splitlines()[1] == "axioms: pass", f"make-topology {kind}: {text!r}")
                _check_topology_file(P, out, R.named_divisor_set(P, kind))

            ops.append(Op(f"make-topology-{kind}-{n}", run, check))

        names = ("trivial", "discrete", "dense", "rigidA", "broken") if n == 360 else ("broken",)
        for name in names:

            def run(name=name, cat=cat, n=n):
                return cli(prog, "check-topology", category=cat, topology=files[(n, name)])

            def check(result, P=P, name=name, n=n, A=A):
                if name != "broken":
                    expect(result, 0, f"check-topology {name} on {P.name}: pass")
                    return
                x = n // 2
                _, S0, stability, forced = R.broken_topology(P, P.topology(A), x)
                text = expect(result, 1)
                lines = text.splitlines()
                want = len(stability) + int(forced)
                require(lines[0] == f"check-topology broken on {P.name}: fail ({want} violations)", f"broken: {lines[0]!r}")
                found = [_violation(l) for l in lines[1:]]
                stab = sorted(int(obj) for axiom, obj, _ in found if axiom == "stability")
                trans = [(obj, lit) for axiom, obj, lit in found if axiom == "transitivity"]
                require(stab == sorted(y for y, _ in stability), "stability violations differ")
                require(len(trans) == int(forced), "transitivity violations differ")
                for obj, lit in trans:
                    require(obj == str(x) and P.sieve_from_tokens(x, R.parse_sieve_literal(lit)) == S0, "transitivity names the wrong sieve")

            ops.append(Op(f"check-topology-{name}-{n}", run, check))

        for verb, D in (("meet", set(A) | set(B)), ("join", set(A) & set(B))):

            def run(verb=verb, cat=cat, n=n):
                return cli(prog, verb, category=cat, topology=files[(n, "rigidA")], topology2=files[(n, "rigidB")])

            def check(result, P=P, D=D, verb=verb):
                _, _, covers = R.parse_topology_text(expect(result, 0))
                require(R.normalize(covers, P.elements) == P.as_tokens(P.topology(D)), f"{verb} differs from J_{sorted(D)}")

            ops.append(Op(f"{verb}-{n}", run, check))

        for name, D in (("rigidA", A), ("rigidB", B)):
            top, q = files[(n, name)], ch["queries"][name]
            for i, (k, m) in enumerate(q["continuous"]):

                def run(cat=cat, top=top, k=k, m=m):
                    return cli(prog, "check-continuous", category=cat, topology=top, arrow=f"{k}|{m}")

                def check(result, P=P, D=D, name=name, k=k, m=m):
                    bad = R.is_continuous_poset(P, P.topology(D), k, m)
                    if not bad:
                        expect(result, 0, f"{k}|{m} is continuous under {name}")
                        return
                    text = expect(result, 1, f"{k}|{m} is NOT continuous under {name}")
                    witness = P.sieve_from_tokens(k, R.parse_sieve_literal(text.splitlines()[1].split(": ", 1)[1]))
                    require(witness in bad, "continuity witness is a pullback")

                ops.append(Op(f"check-continuous-{name}-{i}-{n}", run, check))

            x, targets = q["initial"]

            def run(cat=cat, top=top, x=x, targets=targets):
                return cli(
                    prog, "initial-topology", category=cat, topology=top,
                    object=str(x), arrows=",".join(f"{x}|{t}" for t in targets),
                )

            def check(result, P=P, D=D, x=x, targets=targets):
                base, sieves = R.parse_local_lines(expect(result, 0))
                got = {P.sieve_from_tokens(x, s) for s in sieves}
                require(base == str(x) and got == R.initial_poset(P, P.topology(D), x, targets), "initial topology differs")

            ops.append(Op(f"initial-topology-{name}-{n}", run, check))

            k, m = q["pullback"]

            def run(cat=cat, top=top, k=k, m=m):
                return cli(prog, "pullback", category=cat, arrow=f"{k}|{m}", topology=top)

            def check(result, P=P, D=D, k=k, m=m):
                base, sieves = R.parse_local_lines(expect(result, 0))
                got = {P.sieve_from_tokens(k, s) for s in sieves}
                require(base == str(k) and got == {S & P.ideal[k] for S in P.topology(D)[m]}, "pullback topology differs")

            ops.append(Op(f"pullback-topology-{name}-{n}", run, check))

        def run(cat=cat, queries=ch["sieves"]):
            return [
                cli(prog, "pullback", category=cat, arrow=f"{a}|{b}", sieve="{" + ", ".join(f"{g}|{b}" for g in gens) + "}")
                for a, b, gens in queries
            ]

        def check(results, P=P, queries=ch["sieves"]):
            for (a, b, gens), result in zip(queries, results):
                lines = expect(result, 0).splitlines()
                S = P.closure(b, gens)
                require(P.sieve_from_tokens(b, R.parse_sieve_literal(lines[0].split(" of ", 1)[1].split(" along ")[0])) == S, "pullback input sieve")
                require(P.sieve_from_tokens(a, R.parse_sieve_literal(lines[1])) == S & P.ideal[a], "pullback sieve differs")

        ops.append(Op(f"pullback-sieves-{n}", run, check))

        def run(cat=cat):
            return [cli(prog, "find-objects", category=cat, kind=kind) for kind in ("group", "monoid")]

        def check(results, P=P, n=n):
            for kind, result in zip(("group", "monoid"), results):
                carriers = R.algebraic_objects_in_divisor_poset(n)
                lines = expect(result, 0, f"{len(carriers)} {kind} objects in {P.name}").splitlines()
                require([l.split()[:2] for l in lines[1:]] == [[kind, str(G)] for G in carriers], f"{kind} objects differ")

        ops.append(Op(f"find-objects-{n}", run, check))

        def run(cat=cat, seed=ch["validate_seed"]):
            return cli(prog, "validate", category=cat, seed=seed)

        def check(result, P=P, seed=ch["validate_seed"]):
            text = expect(result, 0, f"validate {P.name}: pass ({R.validate_checks(P)} checks)")
            require(text.splitlines()[1] == f"seed: {seed}", "validate seed line")

        ops.append(Op(f"validate-{n}", run, check))

        # the group object at n has every structure map id_n, and pulling
        # back along an identity changes nothing, so it is continuous under
        # every topology
        def run(cat=cat, n=n):
            return cli(prog, "check-gtop", category=cat, topology=files[(n, "rigidA")], witness=files[(n, "group")])

        def check(result):
            lines = expect(result, 0, "reading: morphism-level (continuity of the structure maps)").splitlines()
            require(lines[1:] == ["mu continuous: True", "zeta continuous: True"], f"group object continuity: {lines!r}")

        ops.append(Op(f"check-gtop-group-{n}", run, check))

    def check_witnesses():
        return [
            (n, cli(prog, "check-object", category=files[(n, "cat")], witness=files[(n, "group")], abelian=True),
                cli(prog, "check-hom", category=files[(n, "cat")], source=files[(n, "group")],
                    target=files[(n, "group")], arrow=f"id_{n}"))
            for n in RIGID
        ]

    def check_witness_results(results):
        for n, obj, hom in results:
            expect(obj, 0, f"{n} is a abelian group object")
            expect(hom, 0, f"id_{n} is a homomorphism of witnesses")

    ops.append(Op("check-object-and-hom", check_witnesses, check_witness_results))

    for n in (36, 60):
        P = posets[n]
        for cod_kind in ("dense", "trivial"):

            def run(n=n, cod_kind=cod_kind):
                return cli(
                    prog, "check-gtop", category=files[(n, "cat")], topology=files[(n, cod_kind)],
                    functor_level=True, unit="1", product_topology="dense",
                )

            def check(result, P=P, cod_kind=cod_kind):
                bad = R.cover_preservation_failures(P, R.named_divisor_set(P, cod_kind))
                code, text = result
                lines = text.splitlines()
                require(lines[1:3] == ["associative: True", "unital: True"], f"lcm is a unital associative functor: {lines!r}")
                require(code == (1 if bad else 0) and lines[3] == f"cover-preserving: {not bad}", f"cover preservation: {text!r}")
                if bad:
                    obj = tuple(int(t) for t in re.findall(r"\d+", lines[4].split("object ", 1)[1].split(", cover")[0]))
                    require(obj in bad, f"witness object {obj} preserves covers")

            ops.append(Op(f"check-gtop-functor-{cod_kind}-{n}", run, check))
    return ops


# -- finset-groups ----------------------------------------------------------

STRUCTURES = {
    # name: (carrier size, multiplication, unit, inverse or None)
    "xor": (2, lambda a, b: a ^ b, 0, lambda a: a),
    "and": (2, lambda a, b: a & b, 1, None),
    "or": (2, lambda a, b: a | b, 0, None),
    "z3": (3, lambda a, b: (a + b) % 3, 0, lambda a: -a % 3),
}
GTOP_CASES = (
    ("xor", "trivial"), ("xor", "discrete"), ("xor", "dense"),
    ("and", "trivial"), ("or", "trivial"),
    ("z3", "trivial"), ("z3", "discrete"), ("z3", "dense"), ("z3", "atomic"),
)
ENDOMORPHISMS = ((0, 0), (0, 1), (1, 0), (1, 1))


def finset_category(prog, n):
    """{unit, g, g2, g3} on an n-element carrier, with g2 = g x g and
    g3 = g2 x g as literal pair sets."""
    g = tuple(range(n))
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return prog.fincat.build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name=f"group{n}")


def _classes(C, S, x):
    """The image classes (masks over x's carrier) a sieve holds.

    One arrow of each class is built from a source carrier large enough to
    reach it, and tested for membership.
    """
    carrier = C.carrier(x)
    sources = sorted(C.objects, key=lambda o: len(C.carrier(o)))
    held = set()
    for A in R.nonempty_masks(len(carrier)):
        image = [carrier[i] for i in range(len(carrier)) if A >> i & 1]
        src = next(o for o in sources if len(C.carrier(o)) >= len(image))
        elems = C.carrier(src)
        rep = C.function(src, x, {e: image[min(i, len(image) - 1)] for i, e in enumerate(elems)})
        if rep in S:
            held.add(A)
    return frozenset(held)


def _check_sieve_set(C, sieves, x, want):
    """The sieves, as class sets, equal ``want``; each holds exactly the
    arrows of its classes."""
    sizes = R.class_sizes(len(C.carrier(x)), [len(C.carrier(o)) for o in C.objects])
    got = set()
    for S in sieves:
        classes = _classes(C, S, x)
        size = sum(sizes[A] for A in classes)
        # past sys.maxsize no sieve can hold its arrows one by one
        require(size > sys.maxsize or len(S) == size, f"a sieve on {x} holds part of a class")
        got.add(classes)
    require(got == set(want), f"sieves on {x} differ from the reference ({len(got)} vs {len(want)})")


def _finset_ops(prog, ctx):
    ops = []
    for sname, kind in GTOP_CASES:
        n, op, unit, inv = STRUCTURES[sname]

        def run(n=n, op=op, unit=unit, inv=inv, kind=kind):
            C = finset_category(prog, n)
            elems = C.carrier("g")
            mu = C.function("g2", "g", {p: op(*p) for p in C.carrier("g2")})
            eta = C.function("unit", "g", {(): unit})
            if inv is None:
                w = prog.algebra.monoid_witness(C, "g", mu=mu, eta=eta)
                laws = prog.algebra.check_monoid_object(C, w)
            else:
                zeta = C.function("g", "g", {a: inv(a) for a in elems})
                w = prog.algebra.group_witness(C, "g", mu=mu, eta=eta, zeta=zeta)
                laws = prog.algebra.check_group_object(C, w)
            J, _ = prog.gtopology.build_topology(C, kind, verify=False)
            return C, laws, prog.gtopgroup.is_gtop_algebraic_object(C, w, J)

        def check(result, n=n, op=op, unit=unit, inv=inv, kind=kind):
            C, laws, report = result
            elems = tuple(range(n))
            want_laws = R.is_monoid(elems, op, unit) if inv is None else R.is_group(elems, op, unit, inv)
            require(bool(laws.ok) == want_laws, "monoid or group laws")
            mu = tuple(op(a, b) for a in elems for b in elems)
            zeta = None if inv is None else tuple(inv(a) for a in elems)
            PL, mu_ok, zeta_ok = R.finset_gtop(n, kind, mu, zeta)
            require(report.mu_ok == mu_ok and report.zeta_ok == zeta_ok, "continuity of the structure maps")
            _check_sieve_set(C, report.product_local.sieves, "g2", PL)

        fault = "homs" if sname == "z3" else None
        ops.append(Op(f"gtop-{sname}-{kind}", run, check, fault))

    def run_endos():
        C = finset_category(prog, 2)
        maps = [C.function("g", "g", dict(zip((0, 1), images))) for images in ENDOMORPHISMS]
        out = []
        for kind in KINDS:
            J, _ = prog.gtopology.build_topology(C, kind, verify=False)
            out.append([prog.continuity.is_continuous(C, f, J) for f in maps])
        return C, out

    def check_endos(result):
        C, verdicts = result
        oks = []
        for kind, row in zip(KINDS, verdicts):
            for f, v in zip(ENDOMORPHISMS, row):
                bad = R.finset_continuity_failures(2, kind, f)
                require(v.ok == (not bad), f"continuity of {f} under {kind}")
                if bad:
                    require(_classes(C, v.witness, "g") in bad, "continuity witness is a pullback")
                oks.append(v.ok)
        require(True in oks and False in oks, "the batch holds both verdicts")

    ops.append(Op("continuity-endomorphisms", run_endos, check_endos))

    def run_top():
        C = finset_category(prog, 2)
        return C, prog.continuity.initial_local_topology(C, "g2", [])

    def check_top(result):
        C, L = result
        require(len(L.sieves) == 167, "the top local topology at g2 holds every sieve")
        _check_sieve_set(C, L.sieves, "g2", R.finset_sieves(4))

    ops.append(Op("top-local-topology-g2", run_top, check_top))
    return ops


# -- lattice-enum -----------------------------------------------------------


@functools.cache
def _poset_shapes(n):
    """One strict order on range(n) for each isomorphism class of posets."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen, shapes = set(), []
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if any((j, i) in rel for i, j in rel):
            continue
        if any((i, k) not in rel for i, j in rel for j2, k in rel if j == j2):
            continue
        key = min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in itertools.permutations(range(n)))
        if key not in seen:
            seen.add(key)
            shapes.append(rel)
    return shapes


class Family:
    """The topologies of a category in token form, with their meet and join."""

    def __init__(self, forms, meet, join):
        self.forms = forms  # key -> token form
        self.objects = list(next(iter(forms.values())))
        self.meet, self.join = meet, join
        self.key_of = {self._freeze(f): k for k, f in forms.items()}

    @staticmethod
    def _freeze(form):
        return tuple(sorted(form.items()))

    def identify(self, form):
        key = self.key_of.get(self._freeze(form))
        require(key is not None, "a listed topology is not a topology of the reference")
        return key


def poset_family(P):
    forms = {}
    for r in range(len(P.elements) + 1):
        for D in itertools.combinations(P.elements, r):
            forms[frozenset(D)] = P.as_tokens(P.topology(D))
    return Family(forms, lambda a, b: a | b, lambda a, b: a & b)


def group_category_text(name, elements, op, unit):
    """A group as a one-object category on object o; the identity is id_o."""
    label = {g: ("id_o" if g == unit else f"g{i}") for i, g in enumerate(elements)}
    lines = [f"category {name}", "object o"]
    lines += [f"arrow {label[g]} : o -> o" for g in elements if g != unit]
    lines += [
        f"compose {label[a]} . {label[b]} = {label[op(a, b)]}"
        for a in elements for b in elements if a != unit and b != unit
    ]
    return "\n".join(lines) + "\n"


def group_family():
    """A group's only sieves on its object are empty and maximal, so its
    topologies are the trivial one and the discrete one, a chain."""
    forms = {0: {"o": frozenset()}, 1: {"o": frozenset({frozenset()})}}
    return Family(forms, min, max)


def _permutation_group(*generators):
    """(elements, multiplication, unit) of the group the permutations generate."""
    unit = tuple(range(len(generators[0])))
    op = lambda p, q: tuple(p[q[i]] for i in unit)
    elements, frontier = {unit}, [unit]
    while frontier:
        frontier = [op(g, p) for p in frontier for g in generators if op(g, p) not in elements]
        elements.update(frontier)
    return sorted(elements), op, unit


def _cycle(n):
    return tuple((i + 1) % n for i in range(n))


GROUPS = {
    **{f"Z{n}": _permutation_group(_cycle(n)) for n in range(2, 9)},
    "Klein4": _permutation_group((1, 0, 3, 2), (2, 3, 0, 1)),
    "S3": _permutation_group((1, 0, 2), _cycle(3)),
    "D4": _permutation_group(_cycle(4), (3, 2, 1, 0)),
    "A4": _permutation_group((1, 2, 0, 3), (1, 0, 3, 2)),
    "S4": _permutation_group((1, 0, 2, 3), _cycle(4)),
}


def _lattice_setup(prog, work, rng):
    ctx = {"work": work, "cases": {}}

    def add(key, text, family):
        path = work / f"{key}.cat"
        path.write_text(text)
        ctx["cases"][key] = (str(path), family)

    for n in (16, 12, 30):
        P = R.divisor_poset(n)
        add(P.name, P.category_text(), poset_family(P) if n == 16 else None)
    cospan = R.cospan_poset()
    add("cospan", cospan.category_text(), poset_family(cospan))
    for name, (elements, op, unit) in GROUPS.items():
        add(name, group_category_text(name, elements, op, unit), group_family())
    # every poset shape on three and four elements, under a seeded naming
    # and declaration order, so the inputs change with the seed while the
    # mix of shapes, and so of costs, does not
    for size in (3, 4):
        for i, rel in enumerate(_poset_shapes(size)):
            names = [f"{c}{rng.randrange(10)}" for c in rng.sample("abcdefghijklmnopqrstuvwxyz", size)]
            order = rng.sample(range(size), size)
            elements = [names[j] for j in order]
            P = R.Poset(f"P{size}_{i}", elements, lambda a, b, rel=rel, names=names: a == b or (names.index(a), names.index(b)) in rel)
            add(P.name, P.category_text(), poset_family(P))
    return ctx


def _lattice_ops(prog, ctx):
    work = ctx["work"]

    def enumerate_with_lattice(key):
        """enumerate-topologies, then meet and join of every unordered pair
        of the topologies it lists, each through its own CLI call."""
        path, _ = ctx["cases"][key]
        listing = cli(prog, "enumerate-topologies", category=path)
        blocks = R.topology_blocks(listing[1])
        files = []
        for i, block in enumerate(blocks):
            f = work / f"{key}-J{i}.gtop"
            f.write_text(block)
            files.append(str(f))
        pairs = {}
        for i, j in itertools.combinations(range(len(files)), 2):
            pairs[(i, j)] = (
                cli(prog, "meet", category=path, topology=files[i], topology2=files[j]),
                cli(prog, "join", category=path, topology=files[i], topology2=files[j]),
            )
        return listing, pairs

    def check_lattice(key, result):
        _, family = ctx["cases"][key]
        listing, pairs = result
        keys = [family.identify(R.normalize(c, family.objects)) for _, _, c in R.parse_topology_list(expect(listing, 0))]
        require(sorted(map(repr, keys)) == sorted(map(repr, family.forms)), f"{key}: the enumeration differs from the reference")
        for (i, j), (met, joined) in pairs.items():
            for verb, result, want in (("meet", met, family.meet), ("join", joined, family.join)):
                _, _, covers = R.parse_topology_text(expect(result, 0))
                got = family.identify(R.normalize(covers, family.objects))
                require(got == want(keys[i], keys[j]), f"{key}: {verb} of J{i} and J{j}")

    ops = []
    for key, (path, family) in ctx["cases"].items():
        if key in ("D_12", "D_30") or key in GROUPS:
            continue
        ops.append(Op(f"lattice-{key}", lambda key=key: enumerate_with_lattice(key), lambda r, key=key: check_lattice(key, r)))

    groups = [k for k in ctx["cases"] if k in GROUPS]
    ops.append(Op(
        "lattice-groups",
        lambda: [enumerate_with_lattice(k) for k in groups],
        lambda results: [check_lattice(k, r) for k, r in zip(groups, results)],
    ))

    for n in (12, 30):
        P = R.divisor_poset(n)

        def check(result, P=P):
            listing = R.parse_topology_list(expect(result, 0))
            family = poset_family(P)
            keys = {family.identify(R.normalize(c, P.elements)) for _, _, c in listing}
            require(len(keys) == len(listing) == 2 ** len(P.elements), f"{P.name}: enumeration differs")

        ops.append(Op(f"enumerate-{P.name}", lambda key=P.name: cli(prog, "enumerate-topologies", category=ctx["cases"][key][0]), check, "candidates"))
    return ops


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    ops: Callable
    frontier: str  # the largest-input operation with an exact verdict today


WORKLOADS = {
    "divisor-sites": Workload(_divisor_setup, _divisor_ops, "make-topology-dense-720"),
    "finset-groups": Workload(lambda prog, work, rng: {}, _finset_ops, "gtop-xor-discrete"),
    "lattice-enum": Workload(_lattice_setup, _lattice_ops, "lattice-D_16"),
}
