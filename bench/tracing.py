"""Per-layer tracing of finsite from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every finsite module that holds it (a name bound with ``from ... import``
is a separate binding, so ``continuity.pullback_sieve`` is wrapped as well
as ``sieves.pullback_sieve``), and wraps the protocol methods on both
category backends.  A wrapper records a span: its name, its parent span,
its duration, and its self time (duration minus the time of its child
spans).  Spans are aggregated in memory by (parent, name), because the
finite-set layers make millions of calls per pass, and written out when
the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

FUNCTIONS = {
    "fincat": ("binary_product",),
    "sieves": ("pullback_sieve", "sieve_closure", "is_sieve"),
    "gtopology": (
        "sieve_universe",
        "check_axioms",
        "is_dense_sieve",
        "enumerate_topologies",
        "generate_topology",
        "meet",
        "join",
        "build_topology",
    ),
    "continuity": ("pullback_local", "is_continuous_local", "initial_local_topology", "is_cover_preserving"),
    "gtopgroup": ("product_local_topology", "is_gtop_algebraic_object", "is_gtop_functor_monoid"),
    "algebra": ("find_algebraic_objects", "check_monoid_object", "check_group_object"),
    "parsing": ("parse_category_file", "parse_topology_file", "serialize_topology"),
    "cli": ("run_command",),
}
CATEGORY_CLASSES = ("FinCategory", "FinSetCategory")
METHODS = ("compose", "hom", "hom_size", "arrows_into")

# (metric name, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("fincat.compose.calls", "count"),
    ("fincat.compose.self_s", "s"),
    ("fincat.hom.calls", "count"),
    ("fincat.hom.self_s", "s"),
    ("fincat.hom.arrows_materialized", "count"),
    ("fincat.arrows_into.calls", "count"),
    ("fincat.arrows_into.self_s", "s"),
    ("fincat.hom_size.calls", "count"),
    ("fincat.binary_product.calls", "count"),
    ("fincat.binary_product.self_s", "s"),
    ("sieves.pullback_sieve.calls", "count"),
    ("sieves.pullback_sieve.self_s", "s"),
    ("sieves.pullback_sieve.members_out", "count"),
    ("sieves.sieve_closure.calls", "count"),
    ("sieves.sieve_closure.self_s", "s"),
    ("sieves.is_sieve.calls", "count"),
    ("sieves.is_sieve.self_s", "s"),
    ("gtopology.sieve_universe.calls", "count"),
    ("gtopology.sieve_universe.self_s", "s"),
    ("gtopology.sieve_universe.sieves", "count"),
    ("gtopology.is_dense_sieve.calls", "count"),
    ("gtopology.is_dense_sieve.self_s", "s"),
    ("gtopology.check_axioms.calls", "count"),
    ("gtopology.check_axioms.self_s", "s"),
    ("gtopology.enumerate_topologies.self_s", "s"),
    ("gtopology.enumerate_topologies.found", "count"),
    ("gtopology.enumerate_topologies.full_checks", "count"),
    ("gtopology.enumerate_topologies.yield", "ratio"),
    ("gtopology.generate_topology.calls", "count"),
    ("gtopology.generate_topology.self_s", "s"),
    ("gtopology.meet.self_s", "s"),
    ("gtopology.build_topology.self_s", "s"),
    ("continuity.pullback_local.self_s", "s"),
    ("continuity.is_continuous_local.self_s", "s"),
    ("continuity.initial_local_topology.self_s", "s"),
    ("continuity.is_cover_preserving.self_s", "s"),
    ("gtopgroup.product_local_topology.self_s", "s"),
    ("gtopgroup.is_gtop_algebraic_object.self_s", "s"),
    ("gtopgroup.is_gtop_functor_monoid.self_s", "s"),
    ("algebra.find_algebraic_objects.self_s", "s"),
    ("algebra.check_monoid_object.self_s", "s"),
    ("algebra.check_group_object.self_s", "s"),
    ("parsing.parse_category_file.self_s", "s"),
    ("parsing.parse_topology_file.self_s", "s"),
    ("parsing.serialize_topology.self_s", "s"),
    ("parsing.bytes_in", "B"),
    ("cli.run_command.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds]
        self.spans = {}  # (parent, name) -> [calls, total seconds, self seconds]
        self.counts = {}  # extra quantities, by metric name
        self._undo = []

    def add(self, metric, amount):
        self.counts[metric] = self.counts.get(metric, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            token = before(args) if before else None
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = perf_counter() - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                key = (parent[0] if parent is not None else None, name)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
            if after:
                after(args, result, token)
            return result

        return traced

    def _measures(self, qualified):
        """(before, after) hooks for the quantities beyond calls and time."""
        add = self.add
        if qualified == "fincat.hom":
            # a finite-set hom-set is materialized on a cache miss; a table
            # category stores its hom-sets and materializes nothing
            def before(args):
                cat, x, y = args[0], args[1], args[2]
                cache = getattr(cat, "_hom_cache", None)
                return getattr(cat, "backend", "") == "finset" and (cache is None or (x, y) not in cache)

            def after(args, result, fresh):
                if fresh:
                    add("fincat.hom.arrows_materialized", len(result))

            return before, after
        if qualified == "sieves.pullback_sieve":
            return None, lambda args, result, _: add("sieves.pullback_sieve.members_out", len(result))
        if qualified == "gtopology.sieve_universe":
            return None, lambda args, result, _: add("gtopology.sieve_universe.sieves", len(result))
        if qualified == "gtopology.enumerate_topologies":
            return None, lambda args, result, _: add("gtopology.enumerate_topologies.found", len(result))
        if qualified == "gtopology.check_axioms":
            stack = self.stack

            def after(args, result, _):
                if any(f[0] == "gtopology.enumerate_topologies" for f in stack):
                    add("gtopology.enumerate_topologies.full_checks", 1)

            return None, after
        if qualified in ("parsing.parse_category_file", "parsing.parse_topology_file"):
            return None, lambda args, result, _: add("parsing.bytes_in", len(args[0].encode()))
        return None, None

    def install(self, prog):
        """Wrap the traced functions and methods of the imported package."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "finsite" or n.startswith("finsite.")]
        for modname, names in FUNCTIONS.items():
            module = getattr(prog, modname)
            for fname in names:
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                wrapped = self.wrap(f"{modname}.{fname}", orig, *self._measures(f"{modname}.{fname}"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))
        for cls_name in CATEGORY_CLASSES:
            cls = getattr(prog.fincat, cls_name)
            for meth in METHODS:
                orig = cls.__dict__.get(meth)
                if orig is None:
                    continue
                setattr(cls, meth, self.wrap(f"fincat.{meth}", orig, *self._measures(f"fincat.{meth}")))
                self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def metrics(self, overhead_s):
        by_name = {}
        for (_, name), (calls, _, self_s) in self.spans.items():
            tot = by_name.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += self_s
        values = dict(self.counts)
        for name, (calls, self_s) in by_name.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        found = values.get("gtopology.enumerate_topologies.found", 0)
        checks = values.get("gtopology.enumerate_topologies.full_checks", 0)
        values["gtopology.enumerate_topologies.yield"] = found / checks if checks else 0.0
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def dump(self, path):
        """Write the aggregated spans, heaviest self time first."""
        rows = [
            {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
            for (parent, name), (c, t, s) in self.spans.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}, indent=1) + "\n")
