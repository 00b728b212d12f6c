import json
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from carnot_extremals import flow
from carnot_extremals import (
    AbnormalCovectorError,
    DriftExceededError,
    Ellipsoid,
    HorizonExhaustedError,
    InputError,
    IntegrationOptions,
    LpBall,
    SkewMatrix,
    UnsupportedRankError,
    classify_k3,
    classify_sweep,
    detect_period,
    integrate_vertical,
    quasi_periodicity_check,
)

from oracles import (
    FAMILIES,
    aligned_covector,
    first_return,
    linear_flow,
    random_body,
    random_covector,
    random_skew,
    random_spd,
    so3_kernel_direction,
)

BALL3 = Ellipsoid(np.eye(3))
ROT12 = SkewMatrix.from_entries(3, {(1, 2): 1.0})


def unit_rotation(t, h):
    """Unit-speed rotation in the (1, 2) plane: period 2 pi from e_1."""
    return -ROT12.matrix @ h


def record_solves(monkeypatch):
    """Wrap flow._solve; returns the list of solutions it hands back."""
    solves = []
    solve = flow._solve

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solves.append(sol)
        return sol

    monkeypatch.setattr(flow, "_solve", recording)
    return solves


class TestIntegrateVertical:
    def test_matches_rotation_oracle(self):
        rng = np.random.default_rng(1)
        for k in (2, 3, 4, 5):
            body = Ellipsoid(np.eye(k))
            m = random_skew(rng, k)
            h0 = body.normalize_to_level(rng.standard_normal(k))
            traj = integrate_vertical(h0, m, body, 10.0, samples=100)
            for t, h in zip(traj.t[::10], traj.h[::10]):
                np.testing.assert_allclose(h, linear_flow(m.matrix, h0, t), atol=1e-8)

    def test_matches_anisotropic_linear_oracle(self):
        # grad H = A h on the unit level set, so the flow is exp(-t M A) h0
        rng = np.random.default_rng(2)
        for k in (2, 3, 4):
            a = random_spd(rng, k)
            body = Ellipsoid(a)
            m = random_skew(rng, k)
            h0 = body.normalize_to_level(rng.standard_normal(k))
            traj = integrate_vertical(h0, m, body, 10.0, samples=100)
            for t, h in zip(traj.t[::10], traj.h[::10]):
                np.testing.assert_allclose(h, linear_flow(m.matrix @ a, h0, t), atol=1e-8)

    def test_zero_matrix_is_exactly_constant(self):
        traj = integrate_vertical([0.3, -0.2, 0.9], SkewMatrix.zero(3), BALL3, 10.0,
                                  samples=50)
        assert (traj.h == traj.h[0]).all()
        assert (traj.u == traj.u[0]).all()
        assert traj.max_level_drift <= 1e-15

    def test_invariants_conserved(self):
        rng = np.random.default_rng(3)
        for k, family in [(2, "lp_ball"), (3, "translated_ellipsoid"), (4, "ellipsoid"),
                          (5, "lp_ball")]:
            body = random_body(rng, k, family)
            m = random_skew(rng, k)
            traj = integrate_vertical(rng.standard_normal(k), m, body, 10.0, samples=200)
            assert traj.max_level_drift <= 1e-8
            if len(traj.casimirs):
                assert traj.max_casimir_drift.max() <= 1e-8

    def test_normalizes_input(self):
        traj = integrate_vertical([5.0, 0.0, 0.0], ROT12, BALL3, 1.0, samples=10)
        np.testing.assert_allclose(traj.h[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(traj.u[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_grid_shape(self):
        traj = integrate_vertical([1.0, 0.0, 0.0], ROT12, BALL3, (0.0, 2.0), samples=40)
        assert traj.t.shape == (41,)
        assert traj.h.shape == (41, 3)
        assert traj.u.shape == (41, 3)
        assert traj.casimir_drift.shape == (41, 1)
        assert np.all(np.diff(traj.t) > 0)

    def test_drift_abort_carries_partial_trajectory(self):
        body = LpBall(p=4.0)
        opts = IntegrationOptions(rtol=1e-6, atol=1e-9, max_drift=1e-12)
        with pytest.raises(DriftExceededError) as info:
            integrate_vertical([1.0, 0.4, -0.2], ROT12, body, 20.0,
                               opts=opts, samples=200)
        err = info.value
        assert 0.0 <= err.time <= 20.0
        assert err.drift > 1e-12
        assert err.partial.t.size < 201
        assert err.partial.h.shape == (err.partial.t.size, 3)
        assert (err.partial.level_drift <= 1e-12).all()

    def test_rejects_abnormal_initial_covector(self):
        with pytest.raises(AbnormalCovectorError):
            integrate_vertical(np.zeros(3), ROT12, BALL3, 1.0)

    def test_rejects_bad_span(self):
        with pytest.raises(InputError):
            integrate_vertical([1.0, 0.0, 0.0], ROT12, BALL3, (1.0, 1.0))


class TestDetectPeriod:
    def test_rotation_flow_unit_speed(self):
        found = detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=100.0)
        assert abs(found.period - 2.0 * np.pi) <= 1e-9
        assert found.residual <= 1e-9

    def test_horizon_ends_between_far_side_and_return(self):
        # the far side is at t = pi, so the horizon cuts the return leg
        with pytest.raises(HorizonExhaustedError):
            detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=0.99 * 2.0 * np.pi)

    def test_horizon_just_past_the_return(self):
        found = detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=1.01 * 2.0 * np.pi)
        assert abs(found.period - 2.0 * np.pi) <= 1e-9

    def test_rejected_candidate_restarts_the_search(self):
        # The limacon r = 1/2 + cos t has an inner loop: g rises through zero
        # at t = pi, a unit distance from h0, where the capture radius
        # rejects the candidate; the true return is at t = 2 pi.
        def rhs(t, h):
            r, dr = 0.5 + np.cos(t), -np.sin(t)
            return np.array([dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)])

        found = detect_period(rhs, np.array([1.5, 0.0]), t_max=10.0)
        assert abs(found.period - 2.0 * np.pi) <= 1e-9

    @pytest.mark.parametrize("tau", [1e-5, 1e-3])
    def test_return_inside_the_first_step_of_a_leg(self, monkeypatch, tau):
        # h(t) = h0 + s (s - 1) (s - 2) e with s = t / tau: g falls through
        # zero at s = 1 and rises back at s = 2.  The solver integrates the
        # cubic exactly, so its first step after the far side spans the whole
        # return leg, where g starts at zero only up to rounding.
        e = np.array([1.0, 0.0])

        def rhs(t, h):
            s = t / tau
            return (3.0 * s * s - 6.0 * s + 2.0) / tau * e

        solves = record_solves(monkeypatch)
        found = detect_period(rhs, e, t_max=10.0 * tau)
        assert solves[-1].t.size == 2  # the return leg took a single step
        assert abs(found.period - 2.0 * tau) <= 1e-9 * tau

    def test_no_leg_keeps_dense_output(self, monkeypatch):
        # The far leg is read at its end point and the return leg at the
        # solver's event root, whose state the solver already holds.
        solves = record_solves(monkeypatch)
        detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=100.0)
        assert len(solves) == 2
        far, back = solves
        assert far.sol is None
        assert back.sol is None

    def test_bisection_fallback_solves_the_last_step_again(self, monkeypatch):
        # With g_tol = 0 the event root (|g| ~ 2e-16 there) is not taken as
        # it is: the last step of the return leg is solved again, with dense
        # output, and bisected.
        solves = record_solves(monkeypatch)
        found = detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=100.0,
                              opts=IntegrationOptions(g_tol=0.0))
        assert len(solves) == 3
        far, back, step = solves
        assert step.sol is not None
        assert (step.t[0], step.t[-1]) == (back.t[-2], back.t[-1])
        assert abs(found.period - 2.0 * np.pi) <= 1e-12

    def test_rotation_flow_sqrt2_speed(self):
        m = np.sqrt(2.0) * ROT12.matrix

        def rhs(t, h):
            return -m @ h

        found = detect_period(rhs, np.array([1.0, 0.0, 0.0]), t_max=100.0)
        assert abs(found.period - 2.0 * np.pi / np.sqrt(2.0)) <= 1e-9

    def test_lp_ball_orbit_closes(self):
        body = LpBall(p=4.0)
        h0 = body.normalize_to_level([1.0, 0.3, -0.4])
        matrix = ROT12.matrix

        def rhs(t, h):
            return -(matrix @ body.support_gradient(h))

        found = detect_period(rhs, h0, t_max=200.0)
        assert found.residual <= 1e-8
        assert found.period > 0.0

    def test_horizon_exhausted(self):
        def rhs(t, h):
            return np.array([1.0, 0.0])  # drifts away, never returns

        with pytest.raises(HorizonExhaustedError):
            detect_period(rhs, np.array([0.0, 0.0]), t_max=5.0)

    def test_rejects_constant_start(self):
        def rhs(t, h):
            return np.zeros(2)

        with pytest.raises(InputError):
            detect_period(rhs, np.array([1.0, 0.0]), t_max=5.0)


class TestBisectCrossing:
    @staticmethod
    def return_leg():
        """Return leg of the unit rotation from the far side, with its g."""
        h0 = np.array([1.0, 0.0, 0.0])
        vhat = unit_rotation(0.0, h0)

        def event(t, h):
            return float(vhat @ (h - h0))

        event.terminal = True
        event.direction = 1.0
        back = flow._solve(unit_rotation, np.pi, 3.0 * np.pi, -h0, IntegrationOptions(),
                           events=event)
        calls = []

        def g(t):
            calls.append(t)
            return event(t, back.sol(t))

        return back, g, calls

    def test_solver_root_is_taken_after_one_interpolant_call(self):
        back, g, calls = self.return_leg()
        a, b = float(back.t[-2]), float(back.t[-1])
        assert abs(b - 2.0 * np.pi) <= 1e-12
        assert flow._bisect_crossing(g, a, b, 1e-12) == b
        assert calls == [b]

    def test_bisects_when_the_end_is_off_the_root(self):
        back, g, calls = self.return_leg()
        a, b = float(back.t[-2]), float(back.t[-1])
        off = b + 1e-6  # still inside the last step's interpolant, g ~ 1e-6
        assert g(off) > 1e-12
        t_star = flow._bisect_crossing(g, a, off, 1e-12)
        assert abs(g(t_star)) <= 1e-12
        assert abs(t_star - 2.0 * np.pi) <= 1e-11
        assert len(calls) > 3


class TestDenseValues:
    def test_equals_the_ode_solution_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(11)
        rhs = flow._make_rhs(LpBall(p=3.5), random_skew(rng, 4).matrix)
        opts = IntegrationOptions(rtol=1e-9, atol=1e-12)
        sol = flow._solve(rhs, 0.5, 6.0, rng.standard_normal(4), opts)
        assert sol.t.size > 10
        # unsorted times, both ends, and every step boundary, where the
        # step that ends there is the one evaluated
        t = np.concatenate((rng.uniform(0.5, 6.0, 300), sol.t[::-1], [6.0, 0.5], sol.t))
        want = sol.sol(t)

        # the stacked evaluation must be the path taken, never OdeSolution
        # itself: a SciPy release that changes the interpolant layout fails here
        def refuse(self, t):
            raise AssertionError("OdeSolution.__call__ used for DOP853")

        monkeypatch.setattr(type(sol.sol), "__call__", refuse)
        got = flow._dense_values(sol, t)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestClassifyK3:
    def test_zero_matrix_constant(self):
        outcome = classify_k3([0.2, -0.4, 1.0], SkewMatrix.zero(3), BALL3)
        assert outcome.kind == "constant"

    def test_aligned_start_is_constant(self):
        outcome = classify_k3([0.0, 0.0, 1.0], ROT12, BALL3)
        assert outcome.kind == "constant"
        assert outcome.parallel_residual <= 1e-9

    def test_rotation_period(self):
        outcome = classify_k3([1.0, 0.0, 0.0], ROT12, BALL3)
        assert outcome.kind == "periodic"
        assert abs(outcome.period - 2.0 * np.pi) <= 1e-9
        assert outcome.return_residual <= 1e-8
        assert outcome.parallel_residual == pytest.approx(1.0, abs=1e-12)

    def test_doubled_matrix_halves_period(self):
        m = SkewMatrix.from_entries(3, {(1, 2): 2.0})
        outcome = classify_k3([1.0, 0.0, 0.0], m, BALL3)
        assert outcome.kind == "periodic"
        assert abs(outcome.period - np.pi) <= 1e-9

    def test_scaling_covariance_lp_body(self):
        body = LpBall(p=4.0)
        m = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
        h0 = np.array([0.9, -0.1, 0.3])
        base = classify_k3(h0, m, body)
        assert base.kind == "periodic"
        for lam in (0.5, 2.0, 10.0, 1e-300, 1e-20, 1e-15, 1e20, 1e300):
            scaled = classify_k3(h0, SkewMatrix(lam * m.matrix), body)
            assert scaled.kind == "periodic"
            expected = base.period / lam
            assert abs(scaled.period - expected) <= 1e-7 * expected

    @pytest.mark.parametrize("scale", [1e-300, 1e-15, 1e300])
    def test_constant_branch_at_extreme_scales_of_m(self, scale):
        # The kernel cut and the initial speed must not depend on |M|: at
        # small scales an absolute cut takes all of R^3 for the kernel.
        matrix = np.array([[0.0, 1.0, -0.4], [-1.0, 0.0, 0.3], [0.4, -0.3, 0.0]])
        body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
        h0 = aligned_covector(body, so3_kernel_direction(matrix))
        outcome = classify_k3(h0, SkewMatrix(scale * matrix), body)
        assert outcome.kind == "constant"
        assert outcome.parallel_residual <= 1e-9

    def test_dichotomy_random_sample(self):
        rng = np.random.default_rng(14)
        for n in range(10):
            body = random_body(rng, 3, FAMILIES[n % 3])
            m = random_skew(rng, 3)
            outcome = classify_k3(rng.standard_normal(3), m, body)
            assert outcome.kind in ("constant", "periodic")
            if outcome.kind == "periodic":
                assert outcome.return_residual <= 1e-8

    def test_near_aligned_start_warns(self):
        a = so3_kernel_direction(ROT12.matrix)
        h0 = aligned_covector(BALL3, a)
        tilt = np.array([1.0, 0.0, 0.0]) * 3e-8
        outcome = classify_k3(h0 + tilt, ROT12, BALL3)
        assert outcome.warnings

    @pytest.mark.parametrize("eps,bar,warns", [(1e-4, 1e-8, False), (1e-5, 1e-8, False),
                                               (1e-7, 1e-6, True)])
    def test_small_orbit_near_the_equilibrium(self, eps, bar, warns):
        # h0 is eps off the constant branch, so the orbit is far smaller than
        # capture_radius = 1e-3; the period still matches 2 pi / omega, and
        # only starts inside the warn band carry the ill-conditioning warning
        rng = np.random.default_rng(16)
        for _ in range(12):
            a = random_spd(rng, 3)
            body = Ellipsoid(a)
            m = random_skew(rng, 3)
            h_eq = aligned_covector(body, so3_kernel_direction(m.matrix))
            v = rng.standard_normal(3)
            v -= (v @ h_eq) / (h_eq @ h_eq) * h_eq
            outcome = classify_k3(h_eq + eps * v / np.linalg.norm(v), m, body)
            assert outcome.kind == "periodic"
            assert bool(outcome.warnings) == warns
            expected = 2.0 * np.pi / np.abs(np.linalg.eigvals(m.matrix @ a).imag).max()
            assert abs(outcome.period - expected) <= bar * expected

    def test_rejects_other_ranks(self):
        with pytest.raises(UnsupportedRankError):
            classify_k3(np.ones(4), SkewMatrix.zero(4), Ellipsoid(np.eye(4)))

    def test_period_search_stops_at_the_first_return(self, monkeypatch):
        # An lp ball's period scales as 1/r^2, so a fixed search horizon sized
        # from sigma_max would hold many periods here; the search must not.
        solves = record_solves(monkeypatch)
        m = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
        outcome = classify_k3([0.9, -0.1, 0.3], m, LpBall(p=4.0, radius=2.0))
        assert outcome.kind == "periodic"
        assert outcome.period == pytest.approx(1.098, abs=1e-3)
        integrated = sum(sol.t[-1] - sol.t[0] for sol in solves)
        assert integrated <= 1.05 * outcome.period

    @pytest.mark.parametrize("p", [1.01, 1.3, 4.0, 50.0])
    def test_period_matches_first_return_oracle_at_extreme_p(self, p):
        rng = np.random.default_rng(int(100 * p))
        for _ in range(4):
            body = LpBall(p=p, radius=rng.uniform(0.5, 2.0))
            skew = random_skew(rng, 3)
            h0 = body.normalize_to_level(random_covector(rng, 3))
            outcome = classify_k3(h0, skew, body)
            assert outcome.kind == "periodic"
            period, residual, closest = first_return(body, skew.matrix, h0, outcome.period)
            assert residual <= 1e-8 and closest > 1e-3
            assert abs(outcome.period - period) <= 1e-9 * period


def ellipsoid_period(matrix, a):
    """2 pi / omega, with +-i omega the nonzero eigenvalues of M A."""
    return 2.0 * np.pi / np.abs(np.linalg.eigvals(matrix @ a).imag).max()


class TestClassifySweep:
    def test_ellipsoid_periods_match_linear_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            a = random_spd(rng, 3)
            m = random_skew(rng, 3)
            outcomes = classify_sweep([random_covector(rng, 3) for _ in range(8)], m, Ellipsoid(a))
            expected = ellipsoid_period(m.matrix, a)
            for outcome in outcomes:
                assert outcome.kind == "periodic"
                assert abs(outcome.period - expected) <= 1e-12 * expected
                assert outcome.return_residual <= 1e-8

    @pytest.mark.parametrize("p", [1.01, 1.3, 4.0, 50.0])
    def test_lp_periods_match_first_return_oracle(self, p):
        rng = np.random.default_rng(int(200 * p))
        body = LpBall(p=p, radius=rng.uniform(0.5, 2.0))
        skew = random_skew(rng, 3)
        h0s = [body.normalize_to_level(random_covector(rng, 3)) for _ in range(4)]
        for h0, outcome in zip(h0s, classify_sweep(h0s, skew, body)):
            assert outcome.kind == "periodic"
            period, residual, closest = first_return(body, skew.matrix, h0, outcome.period)
            assert residual <= 1e-8 and closest > 1e-3
            assert abs(outcome.period - period) <= 1e-9 * period

    def test_translated_ellipsoid_periods_match_first_return_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            body = random_body(rng, 3, "translated_ellipsoid")
            skew = random_skew(rng, 3)
            h0s = [body.normalize_to_level(random_covector(rng, 3)) for _ in range(4)]
            for h0, outcome in zip(h0s, classify_sweep(h0s, skew, body)):
                assert outcome.kind == "periodic"
                period, residual, closest = first_return(body, skew.matrix, h0, outcome.period)
                assert residual <= 1e-8 and closest > 1e-3
                assert abs(outcome.period - period) <= 1e-9 * period

    def test_constant_warned_and_small_orbit_starts_in_one_sweep(self):
        rng = np.random.default_rng(34)
        a = random_spd(rng, 3)
        body = Ellipsoid(a)
        m = random_skew(rng, 3)
        h_eq = aligned_covector(body, so3_kernel_direction(m.matrix))
        v = rng.standard_normal(3)
        v -= (v @ h_eq) / (h_eq @ h_eq) * h_eq
        v /= np.linalg.norm(v)
        h0s = [h_eq, h_eq + 1e-7 * v, h_eq + 1e-5 * v, random_covector(rng, 3)]
        outcomes = classify_sweep(h0s, m, body)
        assert [o.kind for o in outcomes] == ["constant", "periodic", "periodic", "periodic"]
        assert [bool(o.warnings) for o in outcomes] == [False, True, False, False]
        expected = ellipsoid_period(m.matrix, a)
        for outcome, bar in zip(outcomes[1:], (1e-6, 1e-8, 1e-12)):
            assert abs(outcome.period - expected) <= bar * expected
        for h0, outcome in zip(h0s, outcomes):
            single = classify_k3(h0, m, body)
            assert outcome.parallel_residual == single.parallel_residual
            assert outcome.warnings == single.warnings

    def test_short_horizon_leaves_one_lane_unclassified(self):
        body = LpBall(p=4.0)
        m = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
        h0s = [[0.9, -0.1, 0.3], [0.2, 0.9, -0.4], [0.5, 0.5, 0.7], [-0.3, 0.1, 0.95]]
        periods = sorted(classify_k3(h0, m, body).period for h0 in h0s)
        assert periods[-1] - periods[-2] > 1e-2 * periods[-1]
        opts = IntegrationOptions(t_max=0.5 * (periods[-2] + periods[-1]))
        outcomes = classify_sweep(h0s, m, body, opts)
        slow = [o for o in outcomes if o.kind == "unclassified"]
        assert len(slow) == 1 and [o.kind for o in outcomes].count("periodic") == 3
        single = classify_k3(h0s[outcomes.index(slow[0])], m, body, opts)
        assert single.kind == "unclassified" and slow[0].reason == single.reason

    def test_periods_scale_as_one_over_the_scale_of_m(self):
        body = LpBall(p=1.5, radius=0.8)
        m = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
        h0s = [[0.9, -0.1, 0.3], [0.2, 0.9, -0.4], [0.5, 0.5, 0.7]]
        base = [o.period for o in classify_sweep(h0s, m, body)]
        for lam in (1e-300, 1e-15, 1e20, 1e300):
            scaled = classify_sweep(h0s, SkewMatrix(lam * m.matrix), body)
            for outcome, period in zip(scaled, base):
                assert outcome.kind == "periodic"
                assert abs(outcome.period * lam - period) <= 1e-10 * period

    @pytest.mark.parametrize("factor,returns", [(0.99, False), (1.01, True)])
    def test_horizon_around_the_return(self, factor, returns):
        # the far side is at t = pi, so 0.99 of a period cuts the return
        found, = flow._first_returns(BALL3, ROT12.matrix, [[1.0, 0.0, 0.0]],
                                     factor * 2.0 * np.pi, IntegrationOptions())
        assert (found is not None) == returns
        if returns:
            assert abs(found.period - 2.0 * np.pi) <= 1e-12 and found.residual <= 1e-12

    def test_rejects_other_ranks_and_bad_covectors(self):
        with pytest.raises(UnsupportedRankError):
            classify_sweep([np.ones(4), np.ones(4)], SkewMatrix.zero(4), Ellipsoid(np.eye(4)))
        with pytest.raises(AbnormalCovectorError):
            classify_sweep([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], ROT12, BALL3)

    def test_debug_log_line_carries_the_work_counters(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="carnot_extremals.flow"):
            classify_sweep([[1.0, 0.0, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]], ROT12, BALL3)
        lines = [json.loads(r.getMessage()) for r in caplog.records
                 if r.getMessage().startswith("{")]
        assert len(lines) == 1
        line = lines[0]
        assert line["lanes"] == 2 and line["returns"] == 2 and line["candidates"] == 2
        # 12 right-hand sides per step try, 3 per candidate's dense output
        tries = line["accepted_steps"] + line["rejected_steps"]
        assert line["rhs_rows"] >= 12 * tries + 3 * line["candidates"]


class TestLanes:
    @pytest.mark.parametrize("family", ["ellipsoid", "translated_ellipsoid"])
    def test_each_lane_takes_the_steps_of_scipy_dop853(self, family):
        # Over a fixed span every lane makes the accepted steps solve_ivp
        # makes from its start, and ends where it ends.
        rng = np.random.default_rng(35)
        opts = IntegrationOptions()
        body = random_body(rng, 3, family)
        matrix = random_skew(rng, 3).matrix
        starts = np.array([body.normalize_to_level(random_covector(rng, 3)) for _ in range(6)])
        span = 7.0
        lanes = flow._Lanes(lambda hs: -body._level_gradient_batch(hs) @ matrix.T,
                            starts, span, opts)
        ids, steps, ends = np.arange(len(starts)), np.zeros(len(starts), int), starts.copy()
        while ids.size:
            steps[ids[lanes.step()]] += 1
            done = lanes.t >= span
            ends[ids[done]] = lanes.y[done]
            lanes.keep(~done)
            ids = ids[~done]
        for start, count, end in zip(starts, steps, ends):
            sol = solve_ivp(lambda t, h: -matrix @ body._level_gradient(h), (0.0, span), start,
                            method="DOP853", rtol=opts.rtol, atol=opts.atol)
            assert count == sol.t.size - 1
            np.testing.assert_allclose(end, sol.y[:, -1], rtol=1e-12, atol=0)


@pytest.mark.parametrize("field,value", [
    ("rtol", -1.0), ("rtol", 1e-16), ("atol", 0.0), ("max_drift", np.inf),
    ("kernel_rel_tol", 1e-20), ("kernel_rel_tol", 2.0), ("parallel_tol", np.nan),
    ("capture_radius", "wide"), ("g_tol", -1e-12), ("t_max", 0.0),
])
def test_options_reject_bad_values(field, value):
    with pytest.raises(InputError, match=field):
        IntegrationOptions(**{field: value})


def test_options_accept_their_edge_values():
    opts = IntegrationOptions(rtol=100.0 * np.finfo(float).eps, g_tol=0.0, kernel_rel_tol=1e-15)
    assert opts.t_max is None and opts.g_tol == 0.0


_UNIT = st.floats(-1.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(eigenvalues=st.tuples(*[st.floats(0.3, 3.0)] * 3),
       quaternion=st.tuples(*[_UNIT] * 4),
       entries=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       h0=st.tuples(*[_UNIT] * 3))
def test_ellipsoid_period_matches_linear_oracle(eigenvalues, quaternion, entries, h0):
    # On H = 1 the ellipsoid flow is linear, dh/dt = -M A h, so every
    # nonconstant orbit has period 2 pi / omega with +-i omega the nonzero
    # eigenvalues of M A.  A return accepted at t ~ 0 or a skipped first lap
    # (2 T) both miss this by far more than the tolerance.
    q = np.array(quaternion)
    assume(np.linalg.norm(q) > 0.1 and np.linalg.norm(entries) > 0.1
           and np.linalg.norm(h0) > 0.1)
    w, x, y, z = q / np.linalg.norm(q)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    a = rotation @ np.diag(eigenvalues) @ rotation.T
    a = 0.5 * (a + a.T)
    m = SkewMatrix.from_entries(3, {(1, 2): entries[0], (1, 3): entries[1], (2, 3): entries[2]})
    outcome = classify_k3(np.array(h0), m, Ellipsoid(a))
    assume(outcome.parallel_residual > 1e-6)
    omega = np.abs(np.linalg.eigvals(m.matrix @ a).imag).max()
    expected = 2.0 * np.pi / omega
    assert outcome.kind == "periodic"
    assert abs(outcome.period - expected) <= 1e-9 * expected


class TestAlignedConstantBranch:
    @pytest.mark.parametrize("family", ["ellipsoid", "lp_ball"])
    def test_aligned_start_stays_put(self, family):
        rng = np.random.default_rng(15)
        for _ in range(5):
            body = random_body(rng, 3, family)
            m = random_skew(rng, 3)
            h0 = aligned_covector(body, so3_kernel_direction(m.matrix))
            traj = integrate_vertical(h0, m, body, 10.0, samples=100)
            assert np.linalg.norm(traj.h - traj.h[0], axis=1).max() <= 1e-10


class TestQuasiPeriodicity:
    BLOCKS = SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): np.sqrt(2.0)})
    BALL4 = Ellipsoid(np.eye(4))

    def test_incommensurate_blocks_never_return(self):
        h0 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        result = quasi_periodicity_check(h0, self.BLOCKS, self.BALL4,
                                         t_max=200.0, delta=0.5)
        assert result.min_return_distance > 0.01
        # closed-form two-frequency distance: d^2 = (1-cos t) + (1-cos sqrt2 t)
        t = result.time_of_min
        exact = np.sqrt((1.0 - np.cos(t)) + (1.0 - np.cos(np.sqrt(2.0) * t)))
        assert abs(result.min_return_distance - exact) <= 1e-7
        assert abs(result.min_return_distance - 0.031275635794527266) <= 1e-6

    def test_commensurate_blocks_return(self):
        m = SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): 1.0})
        h0 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        result = quasi_periodicity_check(h0, m, self.BALL4, t_max=10.0, delta=0.5)
        assert result.min_return_distance <= 1e-8
        assert abs(result.time_of_min - 2.0 * np.pi) <= 1e-6

    def test_single_block_support_returns(self):
        h0 = np.array([1.0, 0.0, 0.0, 0.0])
        result = quasi_periodicity_check(h0, self.BLOCKS, self.BALL4,
                                         t_max=10.0, delta=0.5)
        assert result.min_return_distance <= 1e-8
        assert abs(result.time_of_min - 2.0 * np.pi) <= 1e-6

    def test_rejects_wrong_rank(self):
        with pytest.raises(InputError):
            quasi_periodicity_check(np.ones(3), ROT12, BALL3, t_max=1.0, delta=0.0)

    def test_rejects_unbounded_window_and_empty_grid(self):
        h0 = np.ones(4)
        for t_max, samples in ((np.inf, None), (np.nan, None), (1.0, 0)):
            with pytest.raises(InputError):
                quasi_periodicity_check(h0, self.BLOCKS, self.BALL4, t_max=t_max, delta=0.0,
                                        samples=samples)
