import numpy as np
import pytest
from scipy.integrate import quad_vec

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
    integrate_horizontal,
)

from oracles import FAMILIES, chart_lift, random_body, random_skew, shoelace_area

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
        # adaptive quadrature of the dense control recovers the lifted
        # first-layer endpoint even across the lp gradient kinks, also at
        # the extreme exponents
        m = SkewMatrix.from_entries(3, {(1, 2): 0.9, (1, 3): -0.4, (2, 3): 0.2})
        for p in (3.0, 1.01, 50.0):
            res = integrate_horizontal([0.8, -0.3, 0.5], m, LpBall(p=p), 7.0, samples=200)
            quadrature, _ = quad_vec(res.control, 0.0, 7.0, epsabs=1e-12, epsrel=1e-12)
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
        with pytest.raises(InputError):
            integrate_horizontal([1.0, 0.0], HEIS, BALL2, -1.0)


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
