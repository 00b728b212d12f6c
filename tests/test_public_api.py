"""The package's public names, pinned so that adding or removing one is a visible diff."""

import carnot_extremals

PUBLIC = [
    "AbnormalCovectorError",
    "AlgebraSpec",
    "CarnotError",
    "CasimirBasis",
    "ControlBody",
    "DriftExceededError",
    "Ellipsoid",
    "ExtremalClass",
    "GroupPoint",
    "HorizonExhaustedError",
    "HorizontalTrajectory",
    "InputError",
    "IntegrationError",
    "IntegrationOptions",
    "LeafClass",
    "LpBall",
    "PeriodResult",
    "QuasiPeriodResult",
    "RunConfig",
    "SkewMatrix",
    "Trajectory",
    "TranslatedEllipsoid",
    "UnsupportedRankError",
    "ValidationReport",
    "classify_k3",
    "classify_sweep",
    "detect_period",
    "integrate_horizontal",
    "kernel_basis",
    "leaf_classify",
    "load_config",
    "parse_config",
    "quasi_periodicity_check",
]


def test_all_lists_exactly_the_public_names():
    names = carnot_extremals.__all__
    assert len(set(names)) == len(names), "a name is listed twice"
    assert sorted(names) == PUBLIC
    for name in names:
        assert hasattr(carnot_extremals, name), name
