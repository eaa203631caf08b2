import tropical_demand


def test_public_api_is_pinned():
    # Every export change is an edit here.  No submodule is exported.
    assert sorted(tropical_demand.__all__) == [
        "AffinePiece", "Allocation", "BalanceReport", "Cell", "Certificate", "ConsumerReceipt",
        "CorrespondenceSample", "DegenerateInput", "DemandSet", "DomainError", "Economy",
        "EquilibriumReport", "FacetData", "HPolyhedron", "HalfSpace", "IVec", "InstanceTooLarge",
        "LabeledSubdivision", "LabelingViolation", "NonConservative",
        "PolyhedralFunction", "Polyline", "ToolkitError", "UnsupportedDimension",
        "ValidationError", "Valuation", "Vec", "VertexBalance", "aggregate_indirect",
        "check_balancing", "check_cyclic_monotonicity", "check_normal_labeling",
        "convex_hull_halfspaces", "demand", "demand_complex", "duality_test", "dualize",
        "dualize_complex", "format_rational", "indirect_utility", "integrate_subdivision",
        "is_primitive", "max_aggregate_utility", "min_aggregate_indirect", "path_integral",
        "price_complex", "primitive_direction", "rational", "rational_direction",
        "upper_concave_hull", "walrasian_check",
    ]
