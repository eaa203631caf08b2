"""Exact demand geometry for indivisible goods.

Finite valuations over integer bundles, their convex indirect utility and
concave dual, demand and inverse-demand correspondences, normally labeled
price/demand complexes with balancing checks, potential recovery by
integration, and a duality test for Walrasian equilibrium in quasi-linear
economies.  All arithmetic is exact rational.
"""

from .complexes import (
    BalanceReport,
    Cell,
    FacetData,
    LabeledSubdivision,
    LabelingViolation,
    VertexBalance,
    canonical_form,
    check_balancing,
    check_normal_labeling,
    demand_complex,
    dualize_complex,
    price_complex,
)
from .equilibrium import (
    Allocation,
    Certificate,
    ConsumerReceipt,
    Economy,
    EquilibriumReport,
    aggregate_indirect,
    duality_test,
    economy_potential,
    max_aggregate_utility,
    min_aggregate_indirect,
    walrasian_check,
)
from .errors import (
    DegenerateInput,
    DomainError,
    EmptyCell,
    InstanceTooLarge,
    NonConservative,
    ToolkitError,
    UnknownBundle,
    UnsupportedDimension,
    ValidationError,
)
from .exactmath import (
    IVec,
    Rational,
    Vec,
    format_rational,
    is_primitive,
    lattice_length,
    primitive_direction,
    rational,
    rational_direction,
)
from .polyhedra import (
    AffinePiece,
    HPolyhedron,
    HalfSpace,
    LinearProgram,
    LPResult,
    Polygon2,
    PolygonEdge,
    convex_hull_halfspaces,
    halfplane_intersection,
    reduce,
    simplex_solve,
    upper_concave_hull,
)
from .potential import (
    CorrespondenceSample,
    Polyline,
    check_cyclic_monotonicity,
    integrate_subdivision,
    path_integral,
)
from .valuation import (
    DemandSet,
    PolyhedralFunction,
    Valuation,
    check_monotone,
    demand,
    dualize,
    essential_pieces,
    hull_support,
    indirect_utility,
    inverse_demand_region,
)

__all__ = [name for name in dir() if not name.startswith("_")]
