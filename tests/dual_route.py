"""The dual route to the 2-D demand complex, kept as the oracle of
``complexes.demand_complex``.

The price complex is built by the Fraction half-plane walks, one per bundle
(``walk_route.price_complex``, itself the oracle of the lift route to the
price complex), and dualized cell by cell (``dualize_complex``), so no
cell of this route comes off the lift of the bundles at their values.  The
dual is then put on the hull of every bundle, ``convex_hull_halfspaces``:
the hull of the demanded bundles alone, the dual's own domain, lists the
same rows in another order when a bundle lies in the middle of a hull
edge.  The goods, collinear and cap checks come first, so a valuation the
lift route refuses is refused here with the same error.
"""

from __future__ import annotations

from dataclasses import replace

from tropical_demand.complexes import LabeledSubdivision, dualize_complex
from tropical_demand.errors import DegenerateInput, UnsupportedDimension
from tropical_demand.exactmath import first_independent
from tropical_demand.polyhedra import check_hull_cap, convex_hull_halfspaces
from tropical_demand.valuation import Valuation
from walk_route import price_complex


def demand_complex(v: Valuation) -> LabeledSubdivision:
    if v.goods != 2:
        raise UnsupportedDimension("demand complexes are built in 2-D only")
    if len(first_independent([(*q, 1) for q in v.bundles()], 3)) == 2:
        raise DegenerateInput("bundles are affinely collinear; the dual complex is 1-D")
    check_hull_cap("demand complex", len(v.entries))
    dual = dualize_complex(price_complex(v))
    return replace(dual, domain=convex_hull_halfspaces(v.bundles()))
