"""Exact demand geometry for indivisible goods.

Finite valuations over integer bundles, their convex indirect utility and
concave dual, demand and inverse-demand correspondences, normally labeled
price/demand complexes with balancing checks, potential recovery by
integration, and a duality test for Walrasian equilibrium in quasi-linear
economies.  All arithmetic is exact rational.
"""

from types import ModuleType as _ModuleType

from .complexes import (
    BalanceReport,
    Cell,
    FacetData,
    LabeledSubdivision,
    LabelingViolation,
    VertexBalance,
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
    max_aggregate_utility,
    min_aggregate_indirect,
    walrasian_check,
)
from .errors import (
    DegenerateInput,
    DomainError,
    InstanceTooLarge,
    NonConservative,
    ToolkitError,
    UnsupportedDimension,
    ValidationError,
)
from .exactmath import (
    IVec,
    Vec,
    format_rational,
    is_primitive,
    primitive_direction,
    rational,
    rational_direction,
)
from .polyhedra import (
    AffinePiece,
    HPolyhedron,
    HalfSpace,
    convex_hull_halfspaces,
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
    demand,
    dualize,
    indirect_utility,
)

# The names imported above, without the submodules those imports bind.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
