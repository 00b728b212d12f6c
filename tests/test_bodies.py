import numpy as np
import pytest

from carnot_extremals import (
    AbnormalCovectorError,
    Ellipsoid,
    InputError,
    LpBall,
    TranslatedEllipsoid,
)

from carnot_extremals.flow import _make_rhs

from oracles import (
    FAMILIES,
    brute_force_support,
    fd_gradient,
    random_body,
    random_covector,
    random_skew,
    random_spd,
)


def test_support_euclidean_ball():
    body = Ellipsoid(np.eye(2))
    assert body.support([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)


@pytest.mark.parametrize("body", [
    Ellipsoid(np.eye(3)),
    LpBall(p=4.0),
    TranslatedEllipsoid(np.eye(3), [0.2, 0.1, -0.3]),
])
def test_support_of_zero_is_zero(body):
    assert body.support(np.zeros(3)) == 0.0


def test_support_lp_ball_frozen_value():
    # max of <v, h> over ||v||_4 = 1 at h = (1, 1, 0) is 2^(3/4); the dense
    # boundary sweep agrees with the closed form to grid accuracy.
    body = LpBall(p=4.0, radius=1.0)
    h = np.array([1.0, 1.0, 0.0])
    value = body.support(h)
    assert value == pytest.approx(2.0**0.75, abs=1e-12)
    brute = brute_force_support(body, h)
    assert brute <= value + 1e-12
    assert value - brute < 5e-4


def test_gradient_unit_ball():
    body = Ellipsoid(np.eye(2))
    np.testing.assert_allclose(body.support_gradient([3.0, 4.0]), [0.6, 0.8], atol=1e-14)


def test_gradient_anisotropic_ellipsoid():
    body = Ellipsoid(np.diag([4.0, 1.0]))
    h = np.array([1.0, 0.0])
    np.testing.assert_allclose(body.support_gradient(h), [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(fd_gradient(body, h), [2.0, 0.0], atol=1e-6)


def test_gradient_lp_symmetry_and_boundary():
    body = LpBall(p=4.0, radius=1.0)
    g = body.support_gradient([1.0, 1.0, 0.0])
    assert g[0] == pytest.approx(g[1], abs=1e-14)
    assert g[2] == 0.0
    assert np.linalg.norm(g, ord=4) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(g, fd_gradient(body, np.array([1.0, 1.0, 0.0])), atol=1e-6)


def test_gradient_rejects_zero():
    with pytest.raises(AbnormalCovectorError):
        Ellipsoid(np.eye(2)).support_gradient([0.0, 0.0])


def test_support_rejects_non_finite():
    with pytest.raises(InputError):
        Ellipsoid(np.eye(2)).support([np.nan, 1.0])
    with pytest.raises(InputError):
        LpBall(p=2.0).support_gradient([np.inf, 0.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        Ellipsoid(np.eye(3)).support([1.0, 2.0])


def test_normalize_to_level():
    ball = Ellipsoid(np.eye(2))
    np.testing.assert_allclose(ball.normalize_to_level([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(ball.normalize_to_level([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    lp = LpBall(p=4.0)
    np.testing.assert_allclose(
        lp.normalize_to_level([1.0, 1.0, 0.0]),
        np.array([1.0, 1.0, 0.0]) / 2.0**0.75, atol=1e-15,
    )
    with pytest.raises(AbnormalCovectorError):
        ball.normalize_to_level([0.0, 0.0])


class TestValidate:
    def test_unit_ball_passes(self):
        assert Ellipsoid(np.eye(3)).validate().ok

    def test_p_one_fails_strict_convexity(self):
        report = LpBall(p=1.0).validate()
        assert not report.ok
        assert any("p" in v for v in report.violations)

    def test_origin_on_boundary_fails(self):
        report = TranslatedEllipsoid(np.eye(3), [1.0, 0.0, 0.0]).validate()
        assert not report.ok
        assert any("interior" in v for v in report.violations)

    def test_asymmetric_matrix_fails(self):
        a = np.eye(2)
        a[0, 1] = 1e-6
        assert not Ellipsoid(a).validate().ok

    def test_indefinite_matrix_fails(self):
        assert not Ellipsoid(np.diag([1.0, -1.0])).validate().ok

    def test_bad_radius_fails(self):
        assert not LpBall(p=2.0, radius=0.0).validate().ok

    def test_infinite_p_fails(self):
        assert not LpBall(p=np.inf).validate().ok


def test_bodies_are_immutable():
    body = Ellipsoid(np.eye(2))
    with pytest.raises(ValueError):
        body.shape_matrix[0, 0] = 2.0


# --- invariant properties, seeded sweeps over all three families

def _bodies(rng, k=3):
    return [random_body(rng, k, family) for family in FAMILIES]


def test_positive_homogeneity():
    rng = np.random.default_rng(7)
    for body in _bodies(rng):
        for _ in range(200):
            h = random_covector(rng, 3)
            lam = rng.uniform(1e-3, 10.0)
            value = body.support(h)
            assert abs(body.support(lam * h) - lam * value) <= 1e-12 * lam * value


def test_euler_identity():
    rng = np.random.default_rng(8)
    for body in _bodies(rng):
        for _ in range(1000):
            h = random_covector(rng, 3)
            value = body.support(h)
            g = body.support_gradient(h)
            assert abs(g @ h - value) <= 1e-9 * value


def test_gradient_scale_invariance():
    rng = np.random.default_rng(9)
    for body in _bodies(rng):
        for _ in range(100):
            h = random_covector(rng, 3)
            lam = rng.uniform(0.1, 10.0)
            np.testing.assert_allclose(
                body.support_gradient(lam * h), body.support_gradient(h),
                rtol=0, atol=1e-12,
            )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for body in _bodies(rng):
        for _ in range(300):
            # keep components away from zero: the fd stencil straddles the
            # lp gradient kink there while the analytic value is exact
            h = random_covector(rng, 3, min_component=1e-3)
            g = body.support_gradient(h)
            err = np.linalg.norm(fd_gradient(body, h) - g) / np.linalg.norm(g)
            assert err <= 1e-6


def test_gradient_lands_on_body_boundary():
    rng = np.random.default_rng(11)
    for body in _bodies(rng):
        for _ in range(200):
            h = random_covector(rng, 3)
            v = body.support_gradient(h)
            if isinstance(body, LpBall):
                assert abs(np.linalg.norm(v, ord=body.p) - body.radius) <= 1e-9 * body.radius
            elif isinstance(body, Ellipsoid):
                r = v @ np.linalg.solve(body.shape_matrix, v)
                assert abs(r - 1.0) <= 1e-9
            else:
                w = v - body.center
                r = w @ np.linalg.solve(body.shape_matrix, w)
                assert abs(r - 1.0) <= 1e-9


def test_subadditivity():
    rng = np.random.default_rng(12)
    for body in _bodies(rng):
        for _ in range(300):
            h1 = random_covector(rng, 3)
            h2 = random_covector(rng, 3)
            assert body.support(h1 + h2) <= body.support(h1) + body.support(h2) + 1e-12


# --- batched row kernels against the scalar per-point forms

ULP = np.finfo(float).eps


def _term_scale(body, h):
    """Size of the terms summed into H(h) and grad H(h).

    A translated ellipsoid adds the center to the centered ellipsoid's values,
    and the two can cancel, so its ulp yardstick is the size of each term
    rather than the (possibly small) sum.
    """
    if isinstance(body, TranslatedEllipsoid):
        centered = Ellipsoid(body.shape_matrix)
        return (abs(float(body.center @ h)) + centered._support(h),
                float(np.abs(body.center).max() + np.abs(centered._gradient(h)).max()))
    return body._support(h), float(np.abs(body._gradient(h)).max())


def _batch_bodies(rng, k):
    return [random_body(rng, k, family) for family in FAMILIES] + [
        LpBall(p=1.01, radius=0.7),
        LpBall(p=50.0, radius=1.3),
    ]


def _rows(rng, k, n, scale):
    hs = rng.standard_normal((n, k)) * scale
    hs[::3, 0] = 0.0        # exact zero components
    hs[1::3, -1] = -0.0
    return hs


def _level_scale(body, h):
    """Size of the terms summed into the level-set gradient at h."""
    if isinstance(body, Ellipsoid):
        return float((np.abs(body.shape_matrix) @ np.abs(h)).max())
    if isinstance(body, LpBall):
        return float(np.abs(body._level_gradient(h)).max())
    return _term_scale(body, h)[1]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_batch_kernels_match_scalar_forms(k, scale):
    rng = np.random.default_rng(40 + k)
    hs = _rows(rng, k, 60, scale)
    for body in _batch_bodies(rng, k):
        with np.errstate(over="ignore"):  # an overflowing form is redone rescaled
            support = body._support_batch(hs)
            grad = body._gradient_batch(hs)
            level = body._level_gradient_batch(hs)
            assert support.shape == (hs.shape[0],) and grad.shape == hs.shape
            assert level.shape == hs.shape
            for h, s_row, g_row, l_row in zip(hs, support, grad, level):
                s, g, lg = body._support(h), body._gradient(h), body._level_gradient(h)
                s_scale, g_scale = _term_scale(body, h)
                assert abs(s_row - s) <= 4 * ULP * s_scale, body
                assert np.abs(g_row - g).max() <= 4 * ULP * g_scale, body
                assert np.abs(l_row - lg).max() <= 4 * ULP * _level_scale(body, h), body
                # zero components of h give +0.0 in an lp gradient
                if isinstance(body, LpBall):
                    assert not np.signbit(g[h == 0.0]).any()
                    assert not np.signbit(g_row[h == 0.0]).any()
                    assert not np.signbit(lg[h == 0.0]).any()
                    assert not np.signbit(l_row[h == 0.0]).any()


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_extreme_scales_follow_homogeneity(scale):
    # H is degree-1 and grad H degree-0 homogeneous; at these scales h^T A h
    # leaves the double range, so the ellipsoid forms must rescale first.
    rng = np.random.default_rng(44)
    hs = _rows(rng, 3, 30, 1.0)
    for body in _batch_bodies(rng, 3):
        with np.errstate(over="ignore"):
            support = body._support_batch(scale * hs)
            grad = body._gradient_batch(scale * hs)
            for h, s_row, g_row in zip(hs, support, grad):
                s, g = body._support(h), body._gradient(h)
                np.testing.assert_allclose(body._support(scale * h), scale * s, rtol=1e-14)
                np.testing.assert_allclose(s_row, scale * s, rtol=1e-14)
                np.testing.assert_allclose(body._gradient(scale * h), g, rtol=0, atol=1e-14)
                np.testing.assert_allclose(g_row, g, rtol=0, atol=1e-14)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_euler_identity_on_batch_output(scale):
    rng = np.random.default_rng(45)
    for k in (2, 3, 5):
        hs = _rows(rng, k, 60, scale)
        for body in _batch_bodies(rng, k):
            with np.errstate(over="ignore"):
                support = body._support_batch(hs)
                grad = body._gradient_batch(hs)
            euler = np.einsum("ij,ij->i", grad, hs)
            np.testing.assert_allclose(euler, support, rtol=1e-13)


def test_batch_kernels_take_empty_input():
    for body in _batch_bodies(np.random.default_rng(46), 3):
        assert body._support_batch(np.empty((0, 3))).shape == (0,)
        assert body._gradient_batch(np.empty((0, 3))).shape == (0, 3)
        assert body._level_gradient_batch(np.empty((0, 3))).shape == (0, 3)


# --- the level-set field grad(H^s / s) that drives the vertical flow

LEVEL_P = (1.01, 1.3, 4.0, 50.0)


def _level_bodies(rng, k):
    return [Ellipsoid(random_spd(rng, k)), random_body(rng, k, "translated_ellipsoid")] + [
        LpBall(p=p, radius=rng.uniform(0.5, 2.0)) for p in LEVEL_P]


def _level_exponent(body):
    """The s of grad(H^s / s) for each family (see ControlBody)."""
    if isinstance(body, LpBall):
        return body.q
    return 2.0 if isinstance(body, Ellipsoid) else 1.0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_level_gradient_is_the_gradient_on_the_level_set(k):
    # grad(H^s / s) = H^(s-1) grad H.  normalize_to_level leaves H(h) off 1
    # by an ulp or so, which the factor H^(s-1) amplifies (s - 1 = 100 at
    # p = 1.01), so the bar is the kernel's rounding, (s + 4) eps, plus
    # (s - 1) times that offset.
    rng = np.random.default_rng(60 + k)
    for body in _level_bodies(rng, k):
        s = _level_exponent(body)
        for _ in range(40):
            h = body.normalize_to_level(random_covector(rng, k))
            g = body._gradient(h)
            offset = abs(body._support(h) - 1.0) + ULP
            bar = ((s + 4.0) * ULP + (s - 1.0) * offset) * np.abs(g).max()
            assert np.abs(body._level_gradient(h) - g).max() <= bar, (body, h)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_level_gradient_is_parallel_to_the_gradient_off_the_level_set(k):
    rng = np.random.default_rng(70 + k)
    for body in _level_bodies(rng, k):
        for _ in range(40):
            h = body.normalize_to_level(random_covector(rng, k)) * rng.uniform(0.6, 1.6)
            level, g = body._level_gradient(h), body._gradient(h)
            np.testing.assert_allclose(level / np.linalg.norm(level), g / np.linalg.norm(g),
                                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("size", [3.0, 1e3, 1e4, 1e300])
def test_lp_level_gradient_is_clamped_far_off_the_level_set(size):
    # Rejected trial stages of the solver can sample covectors far from
    # H = 1; at p = 1.01 the power (r |h_i|)^100 would overflow there.
    body = LpBall(p=1.01, radius=0.7)
    h = np.array([size, -0.5 * size, 0.2]) / body.radius
    level = body._level_gradient(h)
    assert np.all(np.isfinite(level))
    assert np.all(np.abs(level) <= body.radius * 2.0 ** (body.q - 1.0))
    assert np.array_equal(np.sign(level), np.sign(h))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_flow_field_is_tangent_to_the_level_set(k):
    rng = np.random.default_rng(80 + k)
    for family in FAMILIES:
        for _ in range(10):
            body = random_body(rng, k, family)
            matrix = random_skew(rng, k).matrix
            h = body.normalize_to_level(random_covector(rng, k))
            grad = body.support_gradient(h)
            velocity = _make_rhs(body, matrix)(0.0, h)
            assert abs(grad @ velocity) <= 1e-14 * np.linalg.norm(grad) * np.linalg.norm(velocity)
