import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.special import gamma

from carnot_extremals import (
    DriftExceededError,
    Ellipsoid,
    GroupPoint,
    HorizontalTrajectory,
    InputError,
    IntegrationOptions,
    LpBall,
    SkewMatrix,
    TranslatedEllipsoid,
    classify_k3,
    integrate_horizontal,
)
from carnot_extremals import dop853, lift

from oracles import (FAMILIES, aligned_covector, area_momentum_residual, chart_lift,
                     dense_control, linear_flow, momentum_residual, random_body,
                     random_covector, random_skew, shoelace_area, so3_kernel_direction)

HEIS = SkewMatrix.from_entries(2, {(1, 2): 1.0})
BALL2 = Ellipsoid(np.eye(2))


class TestGroupPoint:
    def test_identity_is_origin(self):
        q = GroupPoint.identity(4)
        assert (q.x == 0).all() and (q.y == 0).all()
        assert q.y.shape == (6,)
        assert q.k == 4

    def test_rejects_inconsistent_layers(self):
        with pytest.raises(InputError):
            GroupPoint([1.0, 2.0, 3.0], [0.0])


class TestIntegrateHorizontal:
    def test_constant_control_along_axis(self):
        body = Ellipsoid(np.eye(4))
        res = integrate_horizontal([1.0, 0.0, 0.0, 0.0], SkewMatrix.zero(4), body, 3.0,
                                   samples=60)
        np.testing.assert_allclose(res.endpoint.x, [3.0, 0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.endpoint.y, np.zeros(6), atol=1e-12)
        # straight-line rays from the identity never sweep area
        assert np.abs(res.y).max() <= 1e-12

    def test_heisenberg_loop_closes_with_area(self):
        res = integrate_horizontal([1.0, 0.0], HEIS, BALL2, 2.0 * np.pi, samples=20000)
        np.testing.assert_allclose(res.endpoint.x, [0.0, 0.0], atol=1e-9)
        # the closed unit circle sweeps signed area pi
        assert res.endpoint.y[0] == pytest.approx(np.pi, abs=1e-9)
        area = shoelace_area(res.x[:, 0], res.x[:, 1])
        assert abs(abs(res.endpoint.y[0]) - area) <= 1e-6

    def test_first_layer_is_time_integral_of_control(self):
        # adaptive quadrature of an independently solved dense control
        # recovers the lifted first-layer endpoint even across the lp
        # gradient kinks, also at the extreme exponents
        m = SkewMatrix.from_entries(3, {(1, 2): 0.9, (1, 3): -0.4, (2, 3): 0.2})
        h0 = [0.8, -0.3, 0.5]
        for p in (3.0, 1.01, 50.0):
            body = LpBall(p=p)
            res = integrate_horizontal(h0, m, body, 7.0, samples=200)
            control = dense_control(body, m.matrix, h0, 7.0)
            quadrature, _ = quad_vec(control, 0.0, 7.0, epsabs=1e-12, epsrel=1e-12)
            assert np.linalg.norm(res.endpoint.x - quadrature) <= 1e-9, p

    def test_reversal_symmetry_centered_body(self):
        m = SkewMatrix.from_entries(2, {(1, 2): 0.7})
        fwd = integrate_horizontal([0.6, 0.8], m, BALL2, 4.0, samples=200)
        rev = integrate_horizontal([-0.6, -0.8], m, BALL2, 4.0, samples=200)
        np.testing.assert_allclose(rev.x, -fwd.x, atol=1e-10)
        np.testing.assert_allclose(rev.y, fwd.y, atol=1e-10)

    def test_reversal_symmetry_translated_pair(self):
        # replacing the body by its reflection -U and h0 by -h0 negates the
        # controls, hence the first layer, and preserves the swept areas
        a = np.array([[1.0, 0.2], [0.2, 0.8]])
        c = np.array([0.3, -0.1])
        m = SkewMatrix.from_entries(2, {(1, 2): 0.7})
        fwd = integrate_horizontal([0.6, 0.8], m, TranslatedEllipsoid(a, c), 4.0,
                                   samples=200)
        rev = integrate_horizontal([-0.6, -0.8], m, TranslatedEllipsoid(a, -c), 4.0,
                                   samples=200)
        np.testing.assert_allclose(rev.x, -fwd.x, atol=1e-10)
        np.testing.assert_allclose(rev.y, fwd.y, atol=1e-10)

    def test_endpoint_continuity_under_perturbation(self):
        body = Ellipsoid(np.array([[1.5, 0.3, 0.0], [0.3, 0.9, 0.1], [0.0, 0.1, 1.2]]))
        m = SkewMatrix.from_entries(3, {(1, 2): 1.0, (2, 3): -0.5})
        h0 = np.array([0.9, -0.2, 0.4])
        base = integrate_horizontal(h0, m, body, 10.0, samples=100)
        bumped = integrate_horizontal(h0 + 1e-8, m, body, 10.0, samples=100)
        delta = np.concatenate([bumped.endpoint.x - base.endpoint.x,
                                bumped.endpoint.y - base.endpoint.y])
        assert np.linalg.norm(delta) <= 1e-5

    def test_drift_abort_carries_horizontal_partial(self):
        body = LpBall(p=4.0)
        opts = IntegrationOptions(rtol=1e-6, atol=1e-9, max_drift=1e-12)
        m = SkewMatrix.from_entries(3, {(1, 2): 1.0})
        with pytest.raises(DriftExceededError) as info:
            integrate_horizontal([1.0, 0.4, -0.2], m, body, 20.0, opts=opts, samples=200)
        partial = info.value.partial
        assert isinstance(partial, HorizontalTrajectory)
        assert partial.x.shape[0] == partial.trajectory.t.size

    def test_rejects_bad_horizon(self):
        for t1 in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InputError, match="t1"):
                integrate_horizontal([1.0, 0.0], HEIS, BALL2, t1)

    def test_samples_must_be_a_positive_integer(self):
        for samples in (2.5, True, 0):
            with pytest.raises(InputError, match="samples"):
                integrate_horizontal([1.0, 0.0], HEIS, BALL2, 1.0, samples=samples)
        res = integrate_horizontal([1.0, 0.0], HEIS, BALL2, 1.0, samples=np.int64(3))
        assert res.trajectory.t.size == 4


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_lift_matches_chart_oracle(k):
    # The lift is a quadrature over the covector's solver steps; the oracle
    # integrates the chart equations for (h, x, y) as one system.
    rng = np.random.default_rng(60 + k)
    skew = random_skew(rng, k)
    ts = np.linspace(0.0, 5.0, 41)
    for family in FAMILIES:
        body = random_body(rng, k, family)
        h0 = rng.standard_normal(k)
        res = integrate_horizontal(h0, skew, body, 5.0, samples=40)
        x, y = chart_lift(body, skew.matrix, h0, ts)
        assert np.abs(res.x - x).max() <= 1e-9 * np.abs(x).max(), family
        assert np.abs(res.y - y).max() <= 1e-9 * np.abs(y).max(), family


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("family", FAMILIES)
def test_lift_keeps_the_momentum_identity(k, family):
    # (I1): h(t) + M x(t) = h0 along the whole extremal, from the sampled
    # covector and first layer alone; x is a quadrature over the solver's
    # step interpolants and h their values, so a wrong step interval, node
    # or weight breaks it.
    rng = np.random.default_rng(80 + k)
    skew = random_skew(rng, k)
    body = random_body(rng, k, family)
    res = integrate_horizontal(rng.standard_normal(k), skew, body, 10.0, samples=300)
    assert np.abs(res.x).max() > 0.1
    assert momentum_residual(res.trajectory.h, res.x, skew.matrix) <= 1e-9


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("family", FAMILIES)
def test_lift_keeps_the_area_momentum_identity(k, family):
    # (I2): sum_{i<j} M_ij y_ij(t) = (t - <x(t), h(t)>) / 2, from the sampled
    # t, h, x and y alone; a wrong sign or pair order in the rate of y breaks it.
    rng = np.random.default_rng(90 + k)
    skew = random_skew(rng, k)
    body = random_body(rng, k, family)
    res = integrate_horizontal(rng.standard_normal(k), skew, body, 10.0, samples=300)
    assert np.abs(res.y).max() > 0.1
    assert area_momentum_residual(res.trajectory.t, res.trajectory.h, res.x, res.y,
                                  skew.matrix) <= 1e-9


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reversal_symmetry_random_bodies(k):
    # (U, h0) -> (-U, -h0) negates the control along the whole extremal, so
    # x changes sign and the swept areas y stay; -U flips the center of a
    # translated ellipsoid and leaves the centered bodies as they are.
    rng = np.random.default_rng(70 + k)
    skew = random_skew(rng, k)
    for family in FAMILIES:
        body = random_body(rng, k, family)
        mirror = (TranslatedEllipsoid(body.shape_matrix, -body.center)
                  if family == "translated_ellipsoid" else body)
        h0 = rng.standard_normal(k)
        fwd = integrate_horizontal(h0, skew, body, 5.0, samples=50)
        rev = integrate_horizontal(-h0, skew, mirror, 5.0, samples=50)
        np.testing.assert_allclose(rev.x, -fwd.x, rtol=0.0, atol=1e-12 * np.abs(fwd.x).max())
        np.testing.assert_allclose(rev.y, fwd.y, rtol=0.0, atol=1e-12 * np.abs(fwd.y).max())


def full_solves(monkeypatch):
    """Make integrate_horizontal solve without the return event, as before tiling."""
    monkeypatch.setattr(lift, "_solve", lambda *args, events=None, dense=False: dop853._solve(*args))


def solve_calls(monkeypatch):
    """Record the events argument of every solve integrate_horizontal makes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("events"))
        return dop853._solve(*args, **kwargs)

    monkeypatch.setattr(lift, "_solve", spy)
    return calls


ROT3 = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.3, (2, 3): 0.5})
SHAPE3 = np.array([[1.5, 0.2, 0.1], [0.2, 1.0, -0.3], [0.1, -0.3, 2.0]])


class TestPeriodicTiling:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rank_two_k4_matches_chart_lift_over_periods(self, family):
        # M = a b^T - b a^T has rank 2 in k = 4: h runs around a closed curve
        # in h0 + span(a, b), and x, y tiled from one period by the group law
        # match one solve of the chart equations over more than 5 periods.
        a, b = np.array([1.0, 0.3, -0.5, 0.2]), np.array([-0.2, 0.8, 0.1, 0.6])
        m = np.outer(a, b) - np.outer(b, a)
        skew = SkewMatrix(m / np.linalg.norm(m, 2))
        shape = np.diag([1.0, 2.0, 0.5, 1.5])
        body = {"ellipsoid": Ellipsoid(shape), "lp_ball": LpBall(p=3.0, radius=1.2),
                "translated_ellipsoid": TranslatedEllipsoid(shape, [0.2, -0.1, 0.1, 0.3])}[family]
        h0 = [0.7, -0.4, 0.5, 0.2]
        res = integrate_horizontal(h0, skew, body, 30.0, samples=600)
        assert res.period is not None and 30.0 / res.period >= 5.0
        x, y = chart_lift(body, skew.matrix, h0, res.trajectory.t)
        assert np.abs(res.x - x).max() <= 1e-8 * np.abs(x).max()
        assert np.abs(res.y - y).max() <= 1e-8 * np.abs(y).max()
        assert res.max_lift_residual <= 1e-9

    def test_ellipsoid_over_a_thousand_periods_matches_expm(self):
        # The tiled h lags by n |dT| |dh/dt| after n periods: here about
        # 3.5e-14 a period, against the exact flow expm(-t M A) h0.
        body = Ellipsoid(SHAPE3)
        omega = np.abs(np.linalg.eigvals(ROT3.matrix @ SHAPE3).imag).max()
        period = 2.0 * np.pi / omega
        h0 = body.normalize_to_level([1.0, 0.2, -0.4])
        res = integrate_horizontal(h0, ROT3, body, 1000.0 * period, samples=2000)
        assert res.period == pytest.approx(period, rel=1e-13)
        expected = np.array([linear_flow(ROT3.matrix @ SHAPE3, h0, t) for t in res.trajectory.t])
        assert np.abs(res.trajectory.h - expected).max() <= 1e-9

    @pytest.mark.parametrize("body", [LpBall(p=3.0), Ellipsoid(SHAPE3)], ids=["lp", "ellipsoid"])
    def test_start_near_the_constant_branch_is_not_tiled(self, body, monkeypatch):
        axis = so3_kernel_direction(ROT3.matrix)
        normal = np.cross(axis, [1.0, 0.0, 0.0])
        h0 = aligned_covector(body, axis) + 1e-7 * normal / np.linalg.norm(normal)
        grad = body.support_gradient(h0)
        assert 1e-9 < np.linalg.norm(grad - (grad @ axis) * axis) / np.linalg.norm(grad) <= 1e-6
        calls = solve_calls(monkeypatch)
        res = integrate_horizontal(h0, ROT3, body, 30.0, samples=300)
        assert calls == [None] and res.period is None

    def test_no_return_by_t1_is_the_full_solve(self, monkeypatch):
        # The event solve reaches t1 first and is used as it is: its dense
        # output has the bits of the solve without the event.
        body = LpBall(p=3.0)
        res = integrate_horizontal([1.0, 0.2, -0.4], ROT3, body, 2.0, samples=300)
        assert res.period is None
        full_solves(monkeypatch)
        ref = integrate_horizontal([1.0, 0.2, -0.4], ROT3, body, 2.0, samples=300)
        for name in ("t", "h", "u", "level_drift", "casimir_drift"):
            np.testing.assert_array_equal(getattr(res.trajectory, name),
                                          getattr(ref.trajectory, name))
        np.testing.assert_array_equal(res.x, ref.x)
        np.testing.assert_array_equal(res.y, ref.y)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tiled_rows_before_the_period_keep_the_full_solve_bits(self, family, monkeypatch):
        rng = np.random.default_rng(5)
        body = random_body(rng, 3, family)
        res = integrate_horizontal([1.0, 0.2, -0.4], ROT3, body, 25.0, samples=1000)
        full_solves(monkeypatch)
        ref = integrate_horizontal([1.0, 0.2, -0.4], ROT3, body, 25.0, samples=1000)
        assert res.period is not None and ref.period is None
        before = res.trajectory.t < res.period
        for name in ("h", "u", "level_drift", "casimir_drift"):
            np.testing.assert_array_equal(getattr(res.trajectory, name)[before],
                                          getattr(ref.trajectory, name)[before])
        for tiled, full in ((res.trajectory.h, ref.trajectory.h), (res.x, ref.x),
                            (res.y, ref.y)):
            assert np.abs(tiled - full).max() <= 1e-9 * np.abs(full).max()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_period_matches_classify(self, family):
        # classify and integrate stop at the same return event, one on the
        # flow of M / sigma_max and the other on that of M, so their periods
        # agree to the solver's accuracy, not bit for bit.
        rng = np.random.default_rng(17)
        for _ in range(3):
            body = random_body(rng, 3, family)
            skew = random_skew(rng, 3)
            h0 = body.normalize_to_level(random_covector(rng, 3))
            period = classify_k3(h0, skew, body).period
            res = integrate_horizontal(h0, skew, body, 3.0 * period, samples=30)
            assert res.period == pytest.approx(period, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("p", [1.3, 1.5, 2.5, 4.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_k2_lp_period_matches_the_area_formula(p, r):
    # Busemann: on the plane the orbit is the level curve H = 1, run at
    # |dh/dt| so that T = 2 Area{H <= 1} / |m|; for H = r ||h||_q the area is
    # 4 Gamma(1 + 1/q)^2 / Gamma(1 + 2/q) / r^2.
    m = -0.7
    q = p / (p - 1.0)
    area = 4.0 * gamma(1.0 + 1.0 / q) ** 2 / gamma(1.0 + 2.0 / q) / r ** 2
    expected = 2.0 * area / abs(m)
    res = integrate_horizontal([0.6, -0.3], SkewMatrix.from_entries(2, {(1, 2): m}),
                               LpBall(p=p, radius=r), 1.5 * expected, samples=50)
    assert res.period == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_max_lift_residual_sees_a_broken_lift():
    rng = np.random.default_rng(11)
    skew = random_skew(rng, 4)
    res = integrate_horizontal(rng.standard_normal(4), skew, random_body(rng, 4, "lp_ball"),
                               8.0, samples=200)
    assert res.period is None and res.max_lift_residual <= 1e-9
    flipped = dataclasses.replace(res, y=-res.y)
    swapped = dataclasses.replace(res, y=res.y[:, ::-1])
    shifted = dataclasses.replace(res, x=res.x + 1e-3)
    for broken in (flipped, swapped, shifted):
        assert broken.max_lift_residual >= 1e-5
