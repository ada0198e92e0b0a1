"""The public names of the package, pinned so that an API change shows up
as a change to this file, and the README's table of removed names checked
against the code."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import finsite
import finsite.sieves

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PACKAGE = [
    "DomainError", "FinCategory", "FinFunction", "FinSetCategory", "FinsiteError", "Functor",
    "GrothendieckTopology", "GroupObjectWitness", "HomWitness", "LocalTopology", "MonoidObjectWitness",
    "ProductCone", "ResourceError", "Sieve", "StructuralError", "UniversalPropertyError",
    "binary_product", "build_divisor_poset", "build_finset_category", "build_product_category",
    "build_topology", "check_abelian_group_object", "check_axioms", "check_group_object",
    "check_homomorphism", "check_monoid_object", "enumerate_topologies", "find_algebraic_objects",
    "generate_topology", "group_witness", "initial_local_topology", "is_continuous",
    "is_cover_preserving", "is_gtop_algebraic_object", "is_gtop_functor_monoid", "is_sieve", "join",
    "localize", "maximal_sieve", "meet", "monoid_witness", "product_local_topology", "pullback_local",
    "pullback_sieve", "sieve_closure", "sieve_universe", "terminal_objects", "validate_category",
    "validate_functor",
]

SIEVES = ["Sieve", "is_sieve", "maximal_sieve", "pullback_sieve", "sieve_closure", "sieve_literal", "sorted_sieves"]


def test_package_names():
    names = sorted(n for n, v in vars(finsite).items() if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PACKAGE


def test_sieves_module_names():
    defined = (n for n, v in vars(finsite.sieves).items() if getattr(v, "__module__", None) == "finsite.sieves")
    assert sorted(n for n in defined if not n.startswith("_")) == SIEVES


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def removed_names():
    section = README.read_text().split("### Removed names", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    first_cells = [row.split("|")[1] for row in rows]
    return [name for cell in first_cells for name in re.findall(r"`(finsite(?:\.\w+)+)", cell)]


def test_removed_names_do_not_resolve():
    names = removed_names()
    assert "finsite.sieves.empty_sieve" in names and "finsite.fincat.check_commutes" in names
    assert [n for n in names if resolves(n)] == []
    assert resolves("finsite.sieves.sieve_closure")


def test_traced_names_exist():
    """The benchmark's tracer skips a name it cannot find, so a renamed
    function would read 0 in its per-layer metrics instead of failing."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = [f"finsite.{m}.{n}" for m, names in tracing.FUNCTIONS.items() for n in names]
    traced += [f"finsite.fincat.{c}.{m}" for c in tracing.CATEGORY_CLASSES for m in tracing.METHODS]
    assert [name for name in traced if not resolves(name)] == []


def test_no_module_draws_at_random():
    """Every verdict comes from an exhaustive check, so no module of the
    package imports ``random``."""
    importers = []
    for path in sorted((ROOT / "src" / "finsite").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(m.split(".")[0] == "random" for m in modules):
                importers.append(path.name)
    assert importers == []
