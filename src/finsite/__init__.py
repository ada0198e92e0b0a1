"""Finite categories with Grothendieck topologies: verification and
enumeration at desk scale, plus internal monoid/group objects."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    FinsiteError,
    ResourceError,
    StructuralError,
    UniversalPropertyError,
)
from .fincat import (
    FinCategory,
    FinFunction,
    FinSetCategory,
    Functor,
    ProductCone,
    binary_product,
    build_divisor_poset,
    build_finset_category,
    build_product_category,
    terminal_objects,
    validate_category,
    validate_functor,
)
from .sieves import Sieve, is_sieve, maximal_sieve, pullback_sieve, sieve_closure
from .gtopology import (
    GrothendieckTopology,
    build_topology,
    check_axioms,
    enumerate_topologies,
    generate_topology,
    join,
    meet,
    sieve_universe,
)
from .continuity import (
    LocalTopology,
    initial_local_topology,
    is_continuous,
    is_cover_preserving,
    localize,
    pullback_local,
)
from .algebra import (
    GroupObjectWitness,
    HomWitness,
    MonoidObjectWitness,
    check_abelian_group_object,
    check_group_object,
    check_homomorphism,
    check_monoid_object,
    find_algebraic_objects,
    group_witness,
    monoid_witness,
)
from .gtopgroup import (
    is_gtop_algebraic_object,
    is_gtop_functor_monoid,
    product_local_topology,
)
