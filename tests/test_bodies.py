import math

import numpy as np
import pytest

from carnot_extremals import flow
from carnot_extremals import (
    AbnormalCovectorError,
    Ellipsoid,
    InputError,
    LpBall,
    TranslatedEllipsoid,
)

from carnot_extremals.bodies import _quadratic_rows
from carnot_extremals.dop853 import _Lanes
from carnot_extremals.flow import IntegrationOptions, _make_rhs

from oracles import (
    FAMILIES,
    brute_force_support,
    exact_support,
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

    def test_p_whose_conjugate_rounds_to_one_fails(self):
        # q = p / (p - 1) is exactly 1.0 from p of about 1e16 on: an l1 support,
        # not strictly convex, whose level-set field would divide by q - 1.
        assert LpBall(p=1e17).q == 1.0
        report = LpBall(p=1e17).validate()
        assert not report.ok and any("q" in v for v in report.violations)
        assert LpBall(p=1e15).validate().ok


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


# --- row kernels against their closed forms in decimal arithmetic

ULP = np.finfo(float).eps


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
        return float(np.abs(body._level_gradient_at(h)).max())
    return exact_support(body, h)[3]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_batch_kernels_match_scalar_forms(k, scale):
    # The row kernels are within 4 ulp of the closed forms, measured against
    # the size of the terms they sum.  The solver's one-point field matches
    # the row field to 4 ulp; for a translated ellipsoid it does not rescale
    # h^T A h, so there it is compared at scale 1, near H = 1 where it runs.
    rng = np.random.default_rng(40 + k)
    hs = _rows(rng, k, 60, scale)
    for body in _batch_bodies(rng, k):
        support = body._support(hs)
        grad = body._gradient(hs)
        level = body._level_gradient(hs)
        assert support.shape == (hs.shape[0],) and grad.shape == hs.shape
        assert level.shape == hs.shape
        for h, s_row, g_row, l_row in zip(hs, support, grad, level):
            s, g, s_scale, g_scale = exact_support(body, h)
            assert abs(s_row - s) <= 4 * ULP * s_scale, body
            assert np.abs(g_row - g).max() <= 4 * ULP * g_scale, body
            if scale == 1.0 or not isinstance(body, TranslatedEllipsoid):
                lg = body._level_gradient_at(h)
                assert np.abs(l_row - lg).max() <= 4 * ULP * _level_scale(body, h), body
            # zero components of h give +0.0 in an lp gradient
            if isinstance(body, LpBall):
                assert not np.signbit(g_row[h == 0.0]).any()
                assert not np.signbit(lg[h == 0.0]).any()
                assert not np.signbit(l_row[h == 0.0]).any()
    # At p = 1.0005 (q = 2001) w^q underflows for every w below 0.7, so a norm
    # of rows scaled to max |w_i| in [1/2, 1) can vanish; with radius 1.9 the
    # level set has max |h_i| near 0.53.  The near-tied rows, second component
    # within 0.3 % of the first, are where q - 1 multiplies any rounding of w.
    near = rng.standard_normal((20, k)) * scale
    near[:, 1] = -near[:, 0] * (1.0 + rng.uniform(-3e-3, 3e-3, 20))
    rows = np.vstack([np.eye(k)[:1] * scale, hs, near])
    for radius in (1.0, 1.9):
        body = LpBall(p=1.0005, radius=radius)
        grad = body._gradient(rows)
        for h, s_row, g_row in zip(rows, body._support(rows), grad):
            s, g, s_scale, g_scale = exact_support(body, h)
            assert abs(s_row - s) <= 4 * ULP * s_scale, radius
            assert np.abs(g_row - g).max() <= 4 * ULP * g_scale, radius
        assert not np.signbit(grad[rows == 0.0]).any()


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_extreme_scales_follow_homogeneity(scale):
    # H is degree-1 and grad H degree-0 homogeneous; at these scales h^T A h
    # leaves the double range, so the ellipsoid kernels must rescale first.
    rng = np.random.default_rng(44)
    hs = _rows(rng, 3, 30, 1.0)
    for body in _batch_bodies(rng, 3):
        support = body._support(scale * hs)
        grad = body._gradient(scale * hs)
        for h, s_row, g_row in zip(hs, support, grad):
            s, g, _, _ = exact_support(body, h)
            np.testing.assert_allclose(s_row, scale * s, rtol=1e-14)
            np.testing.assert_allclose(g_row, g, rtol=0, atol=1e-14)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_euler_identity_on_batch_output(scale):
    rng = np.random.default_rng(45)
    for k in (2, 3, 5):
        hs = _rows(rng, k, 60, scale)
        for body in _batch_bodies(rng, k):
            support = body._support(hs)
            grad = body._gradient(hs)
            euler = np.einsum("ij,ij->i", grad, hs)
            np.testing.assert_allclose(euler, support, rtol=1e-13)


def test_batch_kernels_take_empty_input():
    for body in _batch_bodies(np.random.default_rng(46), 3):
        assert body._support(np.empty((0, 3))).shape == (0,)
        assert body._gradient(np.empty((0, 3))).shape == (0, 3)
        assert body._level_gradient(np.empty((0, 3))).shape == (0, 3)


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
            g = body.support_gradient(h)
            offset = abs(body.support(h) - 1.0) + ULP
            bar = ((s + 4.0) * ULP + (s - 1.0) * offset) * np.abs(g).max()
            assert np.abs(body._level_gradient_at(h) - g).max() <= bar, (body, h)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_level_gradient_is_parallel_to_the_gradient_off_the_level_set(k):
    rng = np.random.default_rng(70 + k)
    for body in _level_bodies(rng, k):
        for _ in range(40):
            h = body.normalize_to_level(random_covector(rng, k)) * rng.uniform(0.6, 1.6)
            level, g = body._level_gradient_at(h), body.support_gradient(h)
            np.testing.assert_allclose(level / np.linalg.norm(level), g / np.linalg.norm(g),
                                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("size", [3.0, 1e3, 1e4, 1e300])
def test_lp_level_gradient_is_clamped_far_off_the_level_set(size):
    # Rejected trial stages of the solver can sample covectors far from
    # H = 1; at p = 1.01 the power (r |h_i|)^100 would overflow there, and
    # for q - 1 above 1024 even 2^(q - 1) would.  The clamp keeps both forms
    # of the field finite and within r 2^128, up to the rounding of the
    # clamp raised to q - 1; (r |h_3|)^(q - 1) = 0.2^(q - 1) may underflow.
    for p in (1.01, 1.0005, 1.0 + 1e-12):
        body = LpBall(p=p, radius=0.7)
        h = np.array([size, -0.5 * size, 0.2]) / body.radius
        bound = body.radius * 2.0 ** min(body.q - 1.0, 129.0)
        for level in (body._level_gradient_at(h), body._level_gradient(h[None])[0]):
            assert np.all(np.isfinite(level)), p
            assert np.all(np.abs(level) <= bound), p
            assert np.array_equal(np.sign(level[:2]), np.sign(h[:2])) and level[2] >= 0.0, p


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


# --- the solver's fields, pinned bit for bit to their defining expressions


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _field_at(body, h):
    """The one-point field written out with @, min and the sign chosen first."""
    if isinstance(body, Ellipsoid):
        return body.shape_matrix @ h
    if isinstance(body, LpBall):
        r, e = body.radius, body.q - 1.0
        clamp = 2.0 ** min(1.0, 128.0 / e)
        return np.array([(r if v >= 0.0 else -r) * min(r * abs(v), clamp) ** e
                         for v in h.tolist()])
    ah = body.shape_matrix @ h
    return body.center + ah / math.sqrt(float(h @ ah))


def _field_rows(body, hs):
    """The row field written out with @, on rows inside the normal range."""
    if isinstance(body, Ellipsoid):
        return hs @ body.shape_matrix
    if isinstance(body, LpBall):
        r, e = body.radius, body.q - 1.0
        clamp = 2.0 ** min(1.0, 128.0 / e)
        return np.where(hs >= 0.0, r, -r) * np.minimum(r * np.abs(hs), clamp) ** e
    ah = hs @ body.shape_matrix.T
    return body.center + ah / np.sqrt(np.einsum("ij,ij->i", hs, ah))[:, None]


def _pinned_bodies(rng, k):
    # p = 1.0005: the clamp 2^(128 / 2000) is below 2.  p = 2: q - 1 = 1 is
    # an odd integer, where r (r h_i)^(q - 1) would keep the sign of -0.0
    # (in floating point q - 1 is 3.000000000000001 at p = 4/3, not 3).
    return [random_body(rng, k, family) for family in FAMILIES] + [
        LpBall(p=1.0005, radius=1.0), LpBall(p=2.0, radius=0.5),
        LpBall(p=4.0 / 3.0, radius=0.5), LpBall(p=1.01, radius=0.5)]


def _pinned_points(rng, body, k):
    """Covectors near H = 1 with components at +-0.0, at the lp clamp and past it."""
    points = [body.normalize_to_level(random_covector(rng, k)) * rng.uniform(0.5, 2.0)
              for _ in range(30)]
    for i, zero in ((0, 0.0), (-1, -0.0)):
        h = points[0].copy()
        h[i] = zero
        points.append(h)
    if isinstance(body, LpBall):
        clamp = 2.0 ** min(1.0, 128.0 / (body.q - 1.0))
        at = clamp / body.radius
        if body.radius * at == clamp:       # exact for the radii 1 and 1/2
            h = np.full(k, -0.0)
            h[:2] = at, -at
            points.append(h)
        points.append(np.resize([3.0 * at, -at, 0.0, -0.0, 1e-3], k))
        points.append(np.resize([np.nan, -np.inf, np.inf, -0.0, 0.5], k))
    return points


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_one_point_field_has_the_bits_of_its_expression(k):
    rng = np.random.default_rng(90 + k)
    for body in _pinned_bodies(rng, k):
        for h in _pinned_points(rng, body, k):
            assert _same_bits(body._level_gradient_at(h), _field_at(body, h)), (body, h)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_row_fields_have_the_bits_of_their_expressions(k):
    rng = np.random.default_rng(95 + k)
    for body in _pinned_bodies(rng, k):
        hs = np.array([h for h in _pinned_points(rng, body, k) if np.isfinite(h).all()])
        assert _same_bits(body._level_gradient(hs), _field_rows(body, hs)), body
        if isinstance(body, LpBall):
            continue
        for scale in (1e-300, 1.0, 1e300):
            w, aw, _, _ = _quadratic_rows(body.shape_matrix, hs * scale)
            assert _same_bits(aw, w @ body.shape_matrix.T), body


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_solver_right_hand_side_is_minus_m_times_the_field(k):
    rng = np.random.default_rng(100 + k)
    for body in _pinned_bodies(rng, k):
        matrix = random_skew(rng, k).matrix
        rhs = _make_rhs(body, matrix)
        for h in _pinned_points(rng, body, k):
            assert _same_bits(rhs(0.0, h), -matrix @ body._level_gradient_at(h)), (body, h)


def test_lane_field_is_the_row_field_times_minus_m_transposed(monkeypatch):
    # The sectioned search steps its lanes with the row field times -M^T.
    funs = []

    class Recording(_Lanes):
        def __init__(self, fun, *args):
            funs.append(fun)
            super().__init__(fun, *args)

    monkeypatch.setattr(flow, "_Lanes", Recording)
    rng = np.random.default_rng(105)
    for body in _pinned_bodies(rng, 3):
        matrix = random_skew(rng, 3).matrix
        starts = [body.normalize_to_level(random_covector(rng, 3)) for _ in range(2)]
        flow._first_returns(body, matrix, starts, np.ones(2), IntegrationOptions())
        hs = np.array([h for h in _pinned_points(rng, body, 3) if np.isfinite(h).all()])
        assert _same_bits(funs[-1](hs), body._level_gradient(hs) @ (-matrix).T), body
