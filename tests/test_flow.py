import ast
import dataclasses
import inspect
import itertools
import json
import logging
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from carnot_extremals import bodies, dop853, flow, lift
from carnot_extremals import (
    AbnormalCovectorError,
    DriftExceededError,
    Ellipsoid,
    HorizonExhaustedError,
    InputError,
    IntegrationError,
    IntegrationOptions,
    LpBall,
    SkewMatrix,
    TranslatedEllipsoid,
    UnsupportedRankError,
    classify_k3,
    classify_sweep,
    detect_period,
    integrate_horizontal,
    kernel_basis,
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
    scaled_body,
    so3_kernel_direction,
    translated_ellipsoid_period,
)

BALL3 = Ellipsoid(np.eye(3))
ROT12 = SkewMatrix.from_entries(3, {(1, 2): 1.0})
# The unit ball as an lp ball, H = |h|: under ROT12 its flow on H = 1 is the
# rotation about e_3 of period exactly 2 pi.  Unlike BALL3 it takes the
# DOP853 searches.
L2_BALL3 = LpBall(2.0)


def vertical(h0, skew, body, t1, **kwargs):
    """The vertical trajectory of integrate_horizontal."""
    return integrate_horizontal(h0, skew, body, t1, **kwargs).trajectory


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
            traj = vertical(h0, m, body, 10.0, samples=100)
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
            traj = vertical(h0, m, body, 10.0, samples=100)
            for t, h in zip(traj.t[::10], traj.h[::10]):
                np.testing.assert_allclose(h, linear_flow(m.matrix @ a, h0, t), atol=1e-8)

    def test_zero_matrix_is_exactly_constant(self):
        traj = vertical([0.3, -0.2, 0.9], SkewMatrix.zero(3), BALL3, 10.0, samples=50)
        assert (traj.h == traj.h[0]).all()
        assert (traj.u == traj.u[0]).all()
        assert traj.max_level_drift <= 1e-15

    def test_invariants_conserved(self):
        rng = np.random.default_rng(3)
        for k, family in [(2, "lp_ball"), (3, "translated_ellipsoid"), (4, "ellipsoid"),
                          (5, "lp_ball")]:
            body = random_body(rng, k, family)
            m = random_skew(rng, k)
            traj = vertical(rng.standard_normal(k), m, body, 10.0, samples=200)
            assert traj.max_level_drift <= 1e-8
            if len(traj.casimirs):
                assert traj.max_casimir_drift.max() <= 1e-8

    def test_normalizes_input(self):
        traj = vertical([5.0, 0.0, 0.0], ROT12, BALL3, 1.0, samples=10)
        np.testing.assert_allclose(traj.h[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(traj.u[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_grid_shape(self):
        traj = vertical([1.0, 0.0, 0.0], ROT12, BALL3, 2.0, samples=40)
        assert traj.t.shape == (41,)
        assert traj.h.shape == (41, 3)
        assert traj.u.shape == (41, 3)
        assert traj.casimir_drift.shape == (41, 1)
        assert np.all(np.diff(traj.t) > 0)

    def test_drift_abort_carries_partial_trajectory(self):
        body = LpBall(p=4.0)
        opts = IntegrationOptions(rtol=1e-6, atol=1e-9, max_drift=1e-12)
        with pytest.raises(DriftExceededError) as info:
            integrate_horizontal([1.0, 0.4, -0.2], ROT12, body, 20.0, opts=opts, samples=200)
        err = info.value
        partial = err.partial.trajectory
        assert 0.0 <= err.time <= 20.0
        assert err.drift > 1e-12
        assert partial.t.size < 201
        assert partial.h.shape == (partial.t.size, 3)
        assert (partial.level_drift <= 1e-12).all()

    def test_rejects_abnormal_initial_covector(self):
        with pytest.raises(AbnormalCovectorError):
            integrate_horizontal(np.zeros(3), ROT12, BALL3, 1.0)

    def test_rejects_bad_span(self):
        # the span is [0, t1]: an empty or reversed one is refused
        for t1 in (0.0, -1.0):
            with pytest.raises(InputError, match="t1"):
                vertical([1.0, 0.0, 0.0], ROT12, BALL3, t1)


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
        # cubic exactly, so its steps are few and long; the one solve from
        # h0, the search's only leg, still sees the fall and stops at the rise.
        e = np.array([1.0, 0.0])

        def rhs(t, h):
            s = t / tau
            return (3.0 * s * s - 6.0 * s + 2.0) / tau * e

        solves = record_solves(monkeypatch)
        found = detect_period(rhs, e, t_max=10.0 * tau)
        assert len(solves) == 1
        assert abs(found.period - 2.0 * tau) <= 1e-9 * tau

    def test_no_leg_keeps_dense_output(self, monkeypatch):
        # One solve from h0 stops at the return and is read at the solver's
        # event root: it keeps the interpolant of its event step and of no
        # other step.
        solves = record_solves(monkeypatch)
        found = detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=100.0)
        (sol,) = solves
        assert sol.status == 1 and sol.t.size > 2 and sol.t[-1] == found.period
        assert sol.h.size == 1 and sol.t_old[0] == sol.t[-2]

    def test_bisection_fallback_reads_the_event_step(self, monkeypatch):
        # With _G_TOL = 0 the event root (|g| ~ 2e-16 there) is not taken as
        # it is: the root is bisected on the event step's interpolant, which
        # the one solve kept, so no step is solved again.
        monkeypatch.setattr(flow, "_G_TOL", 0.0)
        solves = record_solves(monkeypatch)
        found = detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=100.0)
        (sol,) = solves
        assert sol.h.size == 1
        assert sol.t[-2] <= found.period < sol.t[-1]
        assert abs(found.period - 2.0 * np.pi) <= 1e-12

    def test_root_taken_as_is_reads_the_stored_state(self, monkeypatch):
        # At the event root the solve stored the interpolant's value, so
        # neither g(b) nor the returned state calls the interpolant.
        calls = []
        dense_values = flow._dense_values

        def counting(sol, t):
            calls.append(t)
            return dense_values(sol, t)

        monkeypatch.setattr(flow, "_dense_values", counting)
        found = detect_period(unit_rotation, np.array([1.0, 0.0, 0.0]), t_max=100.0)
        assert abs(found.period - 2.0 * np.pi) <= 1e-12
        assert calls == []

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
        """Solve of the unit rotation from the far side to the return, with its g."""
        h0 = np.array([1.0, 0.0, 0.0])
        event = flow._return_event(unit_rotation, h0, np.pi)
        back = dop853._solve(unit_rotation, np.pi, 3.0 * np.pi, -h0, IntegrationOptions(),
                             events=event)
        calls = []

        def g(t):
            calls.append(t)
            return event(t, dop853._dense_values(back, t))

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
    @staticmethod
    def cases():
        """(rhs, start, opts) over the body families, k = 2..5 and two rtols."""
        rng = np.random.default_rng(11)
        for k in (2, 3, 4, 5):
            bodies = [LpBall(p=p, radius=rng.uniform(0.5, 2.0)) for p in (1.3, 2.7, 4.0)]
            bodies += [random_body(rng, k, family)
                       for family in ("ellipsoid", "translated_ellipsoid")]
            for body in bodies:
                rhs = flow._make_rhs(body, random_skew(rng, k).matrix)
                start = body.normalize_to_level(rng.standard_normal(k))
                for opts in (IntegrationOptions(), IntegrationOptions(rtol=1e-4, atol=1e-9)):
                    yield rhs, start, opts

    def test_equals_the_ode_solution_bit_for_bit(self):
        # _solve takes the steps of solve_ivp's DOP853 with the same bits:
        # step ends, states, nfev, the interpolant at random times and at
        # every step boundary (where the step that ends there is the one
        # evaluated), and the root of a terminal event rising through zero; a
        # solve with an event keeps no dense output but its event step's.
        rng = np.random.default_rng(12)
        for case, (rhs, start, opts) in enumerate(self.cases()):
            t0, t1 = 0.5, 1.5
            want = solve_ivp(rhs, (t0, t1), start, method="DOP853", rtol=opts.rtol,
                             atol=opts.atol, dense_output=True)
            got = dop853._solve(rhs, t0, t1, start, opts)
            assert want.t.size >= 3
            assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)
            assert got.nfev == want.nfev and got.status == want.status == 0
            t = np.concatenate((rng.uniform(t0, t1, 100), want.t[::-1], [t1, t0]))
            assert np.array_equal(dop853._dense_values(got, t), want.sol(t))

            # a plane through the orbit, crossed from either side as g rises
            normal = (-1.0, 1.0)[case % 2] * rng.standard_normal(start.size)
            level = float(normal @ want.y[:, want.t.size // 2])

            def event(t, h):
                return float(normal @ h) - level

            event.terminal, event.direction = True, 1.0
            want = solve_ivp(rhs, (t0, t1), start, method="DOP853", rtol=opts.rtol,
                             atol=opts.atol, events=event)
            got = dop853._solve(rhs, t0, t1, start, opts, events=event)
            assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)
            assert got.nfev == want.nfev and got.status == want.status
            if want.status == 1:
                assert got.t[-1] == want.t_events[0][0]

            # with dense, the event solve keeps every step's interpolant
            want = solve_ivp(rhs, (t0, t1), start, method="DOP853", rtol=opts.rtol,
                             atol=opts.atol, dense_output=True, events=event)
            got = dop853._solve(rhs, t0, t1, start, opts, events=event, dense=True)
            assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)
            assert got.nfev == want.nfev and got.status == want.status
            assert got.h.size == got.t.size - 1
            t = np.concatenate((rng.uniform(t0, got.t[-1], 100), want.t[::-1]))
            assert np.array_equal(dop853._dense_values(got, t), want.sol(t))

    def test_event_root_at_the_start_of_the_event_step(self):
        # g = (t - t_k)^2 touches zero at t_k, a step end of the plain solve,
        # and rises after it, so the step from t_k finds its root at its own
        # start.  t then ends with t_k twice, as in solve_ivp without dense
        # output, and the kept interpolant is that of the step from t_k.
        rhs = flow._make_rhs(LpBall(p=3.0), ROT12.matrix)
        start = LpBall(p=3.0).normalize_to_level([1.0, 0.3, -0.2])
        opts = IntegrationOptions(rtol=1e-6)
        plain = dop853._solve(rhs, 0.0, 20.0, start, opts)
        t_k = float(plain.t[plain.t.size // 2])

        def event(t, h):
            return (t - t_k) ** 2

        event.terminal, event.direction = True, 1.0
        want = solve_ivp(rhs, (0.0, 20.0), start, method="DOP853", rtol=opts.rtol,
                         atol=opts.atol, events=event)
        got = dop853._solve(rhs, 0.0, 20.0, start, opts, events=event)
        assert want.status == got.status == 1 and want.t_events[0][0] == t_k
        assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)
        assert got.nfev == want.nfev
        assert list(got.t[-2:] == t_k) == [True, True]
        assert got.h.size == 1 and got.t_old[0] == t_k

    def test_event_step_is_kept_without_dense_output(self):
        # A solve without dense output keeps its event step's interpolant only,
        # and evaluates it at every time.
        h0 = np.array([1.0, 0.0, 0.0])

        def event(t, h):
            return -float(h[1])

        event.terminal, event.direction = True, 1.0
        leg = dop853._solve(unit_rotation, 0.0, 10.0, h0, IntegrationOptions(), events=event)
        assert leg.status == 1 and leg.h.size == 1 and leg.rows.shape == (1, 7, 3)
        assert abs(leg.t[-1] - np.pi) <= 1e-12
        assert np.array_equal(dop853._dense_values(leg, leg.t[-1]), leg.y[:, -1])


class TestSolve:
    def test_blow_up_stops_at_the_step_size_floor(self):
        # dy/dt = y^2 from y = 1 blows up at t = 1.  Steps shrink until one
        # would be under 10 ulp of t, where SciPy's DOP853 fails too.
        def rhs(t, y):
            return y * y

        want = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-13, atol=1e-15)
        assert want.status == -1
        message = (f"solver failed near t = {want.t[-1]:.6g}: "
                   f"Required step size is less than spacing between numbers.")
        assert 1.0 - 1e-6 < want.t[-1] < 1.0
        with pytest.raises(IntegrationError) as info:
            dop853._solve(rhs, 0.0, 2.0, np.array([1.0]), IntegrationOptions())
        assert str(info.value) == message

    def test_overflowing_right_hand_side_raises_before_a_zero_step(self):
        # |f| / atol past 1e154 overflows SciPy's RMS norm, so the initial
        # step would be 0 and the next line divide by it.
        for scale in (1e150, 1e300):
            def rhs(t, y, scale=scale):
                return scale * np.array([-y[1], y[0]])

            with pytest.raises(IntegrationError, match="initial step is zero"):
                dop853._solve(rhs, 0.0, 1.0, np.array([1.0, 0.0]), IntegrationOptions())

    def test_debug_line_counts_the_right_hand_sides(self, caplog):
        # 1 call for f(t0) and 1 for the initial step, 12 per step try and 3
        # per step with dense output: every step of a solve without an event
        # or with dense, and the event step of any other solve with one.
        rhs = flow._make_rhs(LpBall(p=3.0), ROT12.matrix)
        calls = []

        def counted(t, h):
            calls.append(t)
            return rhs(t, h)

        def event(t, h):
            return -float(h[1])

        event.terminal, event.direction = True, 1.0
        start = LpBall(p=3.0).normalize_to_level([1.0, 0.3, -0.2])
        opts = IntegrationOptions(rtol=1e-6, atol=1e-9)
        for events in (None, event):
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="carnot_extremals.dop853"):
                sol = dop853._solve(counted, 0.0, 20.0, start, opts, events=events)
            (line,) = [json.loads(r.getMessage()) for r in caplog.records]
            assert line["event"] == "solve" and line["status"] == sol.status
            assert (line["t0"], line["t1"]) == (0.0, 20.0)
            assert line["accepted"] == sol.t.size - 1 and line["rejected"] > 0
            dense_steps = line["accepted"] if events is None else 1
            tries = line["accepted"] + line["rejected"]
            assert line["nfev"] == sol.nfev == len(calls) == 2 + 12 * tries + 3 * dense_steps
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="carnot_extremals.dop853"):
            sol = dop853._solve(counted, 0.0, 20.0, start, opts, events=event, dense=True)
        (line,) = [json.loads(r.getMessage()) for r in caplog.records]
        assert line["status"] == sol.status == 1
        tries = line["accepted"] + line["rejected"]
        assert line["nfev"] == sol.nfev == len(calls) == 2 + 12 * tries + 3 * line["accepted"]

    def test_no_line_is_built_without_debug_logging(self, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="carnot_extremals.dop853")

        def refuse(*args, **kwargs):
            raise AssertionError("debug line built with debug logging off")

        monkeypatch.setattr(dop853.json, "dumps", refuse)
        dop853._solve(unit_rotation, 0.0, 1.0, np.array([1.0, 0.0, 0.0]), IntegrationOptions())


def test_flow_and_lift_use_no_scipy_solver_objects():
    # The library steps DOP853 itself: no solve_ivp, OdeSolution or
    # interpolant object of SciPy's is named in the integrator, flow or lift.
    banned = {"solve_ivp", "OdeSolution", "Dop853DenseOutput", "interpolants", "dense_output"}
    for module in (dop853, flow, lift):
        tree = ast.parse(inspect.getsource(module))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & banned, module.__name__


def test_solver_stages_and_fields_call_ndarray_dot():
    # On the few components of one state, @ and np.dot cost about twice
    # the NumPy dispatch of the bound ndarray.dot, with the same bits, so
    # the solver's stages and the fields it calls use ndarray.dot.
    def offenders(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                yield f"@ at line {sub.lineno}"
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "dot" and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "np"):
                yield f"np.dot at line {sub.lineno}"

    checked = [dop853, flow._make_rhs, flow._first_returns, flow.detect_period,
               flow._return_event, bodies._quadratic_rows]
    for cls in (bodies.Ellipsoid, bodies.LpBall, bodies.TranslatedEllipsoid):
        checked += [cls._level_gradient, cls._level_gradient_at]
    for obj in checked:
        found = list(offenders(ast.parse(textwrap.dedent(inspect.getsource(obj)))))
        assert not found, (obj, found)


def test_bulk_interpolants_repeat_the_per_step_sums():
    # _step_rows builds the interpolants of many steps at once: each extra
    # stage's sums over all steps in one stacked np.matmul, and the D rows
    # in another.  They must have the bits of solve_ivp's per-step
    # K[:s].T.dot(a) and D.dot(K), which TestDenseValues pins end to end; a
    # NumPy or BLAS change that breaks this fails here under its own name.
    rng = np.random.default_rng(21)
    m, first = 2000, dop853._STAGES + 1
    for k in (2, 3, 4, 5):
        K = rng.standard_normal((m, first + 3, k)) * 10.0 ** rng.integers(-3, 4, (m, 1, 1))
        t_old, h = rng.uniform(0.0, 10.0, m), rng.uniform(1e-3, 1.0, m)
        y_old, y_new = rng.standard_normal((m, k)), rng.standard_normal((m, k))
        states = []

        def rhs(t, y):
            # stage s of step j is called as the (s * m + j)-th call
            states.append((t, y.copy()))
            s, j = divmod(len(states) - 1, m)
            return K[j, first + s]

        stages = K.copy()
        stages[:, first:] = np.nan   # the extra stages, which _step_rows fills in
        rows = dop853._step_rows(rhs, stages, t_old, h, y_old, y_new)
        for s, (a, c) in enumerate(zip(dop853._EXTRA_ROWS, dop853._EXTRA_TIMES)):
            for j in range(m):
                t, y = states[s * m + j]
                assert t == t_old[j] + c * h[j]
                assert np.array_equal(y, y_old[j] + K[j, :first + s].T.dot(a) * h[j])
        for j in range(m):
            assert np.array_equal(rows[j, 3:], h[j] * DOP853.D.dot(K[j]))


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
        # flow._CAPTURE_RADIUS = 1e-3; the period still matches 2 pi / omega, and
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
        # one solve, on the flow of M / sigma_max, from h0 to the return
        (sol,) = solves
        span = outcome.period * kernel_basis(m).sigma_max
        assert abs((sol.t[-1] - sol.t[0]) - span) <= 1e-12 * span

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

    def test_short_horizon_leaves_one_lane_unclassified(self, monkeypatch):
        # The unit l4 ball has reach 1, so the horizon is 2 pi _TURNS / sigma_max
        # for every start; a fractional turn count puts it between the two
        # longest periods.
        body = LpBall(p=4.0)
        m = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
        h0s = [[0.9, -0.1, 0.3], [0.2, 0.9, -0.4], [0.5, 0.5, 0.7], [-0.3, 0.1, 0.95]]
        periods = sorted(classify_k3(h0, m, body).period for h0 in h0s)
        assert periods[-1] - periods[-2] > 1e-2 * periods[-1]
        sigma = kernel_basis(m).sigma_max
        monkeypatch.setattr(flow, "_TURNS", 0.25 * (periods[-2] + periods[-1]) * sigma / np.pi)
        outcomes = classify_sweep(h0s, m, body)
        slow = [o for o in outcomes if o.kind == "unclassified"]
        assert len(slow) == 1 and [o.kind for o in outcomes].count("periodic") == 3
        single = classify_k3(h0s[outcomes.index(slow[0])], m, body)
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
                                     np.array([factor * 2.0 * np.pi]), IntegrationOptions())
        assert (found is not None) == returns
        if returns:
            assert abs(found.period - 2.0 * np.pi) <= 1e-12 and found.residual <= 1e-12

    def test_rejects_other_ranks_and_bad_covectors(self):
        with pytest.raises(UnsupportedRankError):
            classify_sweep([np.ones(4), np.ones(4)], SkewMatrix.zero(4), Ellipsoid(np.eye(4)))
        with pytest.raises(AbnormalCovectorError):
            classify_sweep([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], ROT12, BALL3)

    def test_debug_log_line_carries_the_work_counters(self, caplog):
        # [0, 0, 1] is constant, and [0, 0.005, 1] has parallel residual about
        # 0.0033, so it is searched as one arc.
        with caplog.at_level(logging.DEBUG, logger="carnot_extremals.flow"):
            outcomes = classify_sweep([[1.0, 0.0, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0],
                                       [0.0, 0.005, 1.0]], ROT12, L2_BALL3)
        assert [o.kind for o in outcomes] == ["periodic", "periodic", "constant", "periodic"]
        line = debug_line(caplog)
        assert line["covectors"] == 3 and line["returns"] == 3
        assert line["arcs"] == 2 * flow._ARCS + 1 and line["one_arc"] == 1
        assert min(line["chord_newton"], line["ray_newton"], line["root_newton"]) >= 1
        # 12 right-hand sides per step try, and per arc 2 for its initial step
        # and 3 for the dense output of its crossing step
        tries = line["accepted_steps"] + line["rejected_steps"]
        assert line["rhs_rows"] == 12 * tries + 5 * line["arcs"]

    def test_sweep_of_one_arc_starts_only(self, caplog):
        # Both starts are within flow._ONE_ARC_BELOW of the constant branch of
        # L2_BALL3, whose orbits have period 2 pi.
        h0s = [[0.0, 0.001, 1.0], [0.002, 0.0, 1.0]]
        with caplog.at_level(logging.DEBUG, logger="carnot_extremals.flow"):
            outcomes = classify_sweep(h0s, ROT12, L2_BALL3)
        line = debug_line(caplog)
        assert line["arcs"] == line["one_arc"] == line["returns"] == 2
        for outcome in outcomes:
            bar = 1e-13 / outcome.parallel_residual
            assert abs(outcome.period - 2.0 * np.pi) <= bar * 2.0 * np.pi

    @pytest.mark.parametrize("family", FAMILIES)
    def test_periods_from_far_off_to_near_the_constant_branch(self, family, caplog):
        # One sweep of starts with parallel residuals from about 1e-1 down to
        # 1e-8: those below flow._ONE_ARC_BELOW are one arc each, the others
        # are cut into flow._ARCS arcs.  Near the constant branch the period
        # is ill-conditioned: the errors of both searches against 2 pi / omega
        # grow as one over the residual, to about 1e-14 / residual.  So each
        # period matches classify_k3's within 1e-10, 1e-13 / residual or the
        # single's own error against the oracle, whichever is largest.
        rng = np.random.default_rng(36)
        body = random_body(rng, 3, family)
        m = random_skew(rng, 3)
        h_eq = aligned_covector(body, so3_kernel_direction(m.matrix))
        v = rng.standard_normal(3)
        v -= (v @ h_eq) / (h_eq @ h_eq) * h_eq
        v /= np.linalg.norm(v)
        h0s = [body.normalize_to_level(h_eq + eps * v) for eps in 10.0 ** -np.arange(1.0, 9.0)]
        with caplog.at_level(logging.DEBUG, logger="carnot_extremals.flow"):
            outcomes = classify_sweep(h0s, m, body)
        residuals = np.array([o.parallel_residual for o in outcomes])
        assert residuals.max() > 5e-2 and residuals.min() < 1e-7
        one_arc = int((residuals < flow._ONE_ARC_BELOW).sum())
        assert 0 < one_arc < len(h0s)
        if family == "lp_ball":   # ellipsoidal periods are in closed form, with no arcs
            assert debug_line(caplog)["one_arc"] == one_arc
        for h0, outcome in zip(h0s, outcomes):
            single = classify_k3(h0, m, body)
            assert outcome.kind == single.kind == "periodic"
            assert outcome.return_residual <= 1e-8
            if family != "lp_ball":
                # exact at every residual: the closed form is not ill-conditioned
                if family == "ellipsoid":
                    oracle = ellipsoid_period(m.matrix, body.shape_matrix)
                else:
                    oracle = translated_ellipsoid_period(body, m.matrix, h0)
                assert abs(outcome.period - oracle) <= 1e-13 * oracle
                # the residual is the miss of the rounded period about the
                # orbit's centre, so it shrinks with the orbit, of size about
                # |h0 - h_eq|
                for o in (outcome, single):
                    assert o.return_residual <= 1e-13 * np.linalg.norm(h0 - h_eq)
            else:
                oracle = first_return(body, m.matrix, h0, single.period)[0]
            bar = max(1e-10, 1e-13 / outcome.parallel_residual,
                      abs(single.period - oracle) / oracle)
            assert abs(outcome.period - single.period) <= bar * single.period


def debug_line(caplog) -> dict:
    """The one JSON debug line of a batched search among the captured records."""
    lines = [json.loads(r.getMessage()) for r in caplog.records
             if r.getMessage().startswith("{")]
    assert len(lines) == 1
    return lines[0]


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
        lanes = dop853._Lanes(lambda hs: -body._level_gradient(hs) @ matrix.T,
                              starts, span, opts)
        ids, steps, ends = np.arange(len(starts)), np.zeros(len(starts), int), starts.copy()
        while ids.size:
            steps[ids[lanes.step()]] += 1
            done = lanes.t >= span
            ends[ids[done]] = lanes.y[done]
            lanes.keep(~done)
            ids = ids[~done]
        for start, count, end in zip(starts, steps, ends):
            sol = solve_ivp(lambda t, h: -matrix @ body._level_gradient_at(h), (0.0, span), start,
                            method="DOP853", rtol=opts.rtol, atol=opts.atol)
            assert count == sol.t.size - 1
            np.testing.assert_allclose(end, sol.y[:, -1], rtol=1e-12, atol=0)


@pytest.mark.parametrize("entry", ["classify_k3", "classify_sweep"])
def test_both_searches_check_the_horizon_scaled_by_sigma_max(entry):
    # Both searches run on the flow of M / sigma_max, for _TURNS turns of
    # 2 pi max(1, R^2) in its time, R the body's reach on H = 1.
    def run(h0, skew, body=LpBall(p=3.0)):
        if entry == "classify_k3":
            return classify_k3(h0, skew, body)
        return classify_sweep([h0, h0], skew, body)[0]

    m = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
    h0 = [1.0, 0.2, -0.4]
    # The horizon is inf in t for this M, but 200 pi in the scaled time.
    base, tiny = run(h0, m), run(h0, SkewMatrix(1e-307 * m.matrix))
    assert tiny.kind == "periodic"
    assert abs(tiny.period * 1e-307 - base.period) <= 1e-7 * base.period
    # This ball's reach is 1e160, so the horizon overflows; both searches
    # refuse it alike.
    with pytest.raises(InputError, match="horizon.*overflows"):
        run(h0, m, LpBall(p=3.0, radius=1e-160))


@pytest.mark.parametrize("family", FAMILIES)
def test_periods_scale_as_one_over_the_square_of_the_body_scale(family):
    # The body c U has H = c H_U, so its starts are those of U divided by c
    # and its periods T(U) / c^2.  The horizon scales as R^2 does, so
    # bodies far below unit size classify too.
    rng = np.random.default_rng(37)
    body = random_body(rng, 3, family)
    m = random_skew(rng, 3)
    h0s = [random_covector(rng, 3) for _ in range(3)]
    single = classify_k3(h0s[0], m, body).period
    sweep = [o.period for o in classify_sweep(h0s, m, body)]
    for c in 10.0 ** np.arange(-3, 4):
        scaled = scaled_body(body, c)
        outcomes = [classify_k3(h0s[0], m, scaled)] + classify_sweep(h0s, m, scaled)
        assert [o.kind for o in outcomes] == ["periodic"] * 4, c
        for outcome, period in zip(outcomes, [single] + sweep):
            assert abs(outcome.period * c * c - period) <= 1e-10 * period, c


@pytest.mark.parametrize("center,entries,h0", [
    ([0.36404, 0.532103, -0.757853], (0.560168, -2.095382, -1.135489),
     [0.094756, 0.061354, -0.020897]),
    ([-0.760324, 0.582106, 0.270295], (2.411396, 0.031218, 0.304257),
     [-0.051442, 0.472586, 0.535446]),
])
def test_orbits_far_out_from_their_start_classify(center, entries, h0):
    # With A = I and c^T c = 0.99, H = 1 reaches out to |h| = 1 / (1 - |c|),
    # about 200, along -c.  These orbits start at |h0| of 0.58 and 0.61 but
    # turn slowly far out: their periods are 290 and 128 turns of
    # 2 pi max(1, |h0|^2) / sigma_max.  The horizon comes from the body's
    # reach, not from |h0|, so both searches find the return.
    c = np.array(center)
    body = TranslatedEllipsoid(np.eye(3), c * np.sqrt(0.99) / np.linalg.norm(c))
    m = SkewMatrix.from_entries(3, {(1, 2): entries[0], (1, 3): entries[1], (2, 3): entries[2]})
    start = body.normalize_to_level(h0)
    for outcome in [classify_k3(h0, m, body)] + classify_sweep([h0, h0], m, body):
        assert outcome.kind == "periodic"
        period, residual, closest = first_return(body, m.matrix, start, outcome.period)
        assert residual <= 1e-8 and closest > 1e-3
        assert abs(outcome.period - period) <= 1e-9 * period


def test_dop853_searches_match_the_linear_oracle_on_ellipsoids():
    # classify takes the closed form on both ellipsoidal families, so both
    # DOP853 searches are checked on them here: against 2 pi / omega from
    # np.linalg.eigvals on ellipsoids, and against the leaf-area period on
    # translated ellipsoids.
    rng = np.random.default_rng(38)
    opts = IntegrationOptions()
    for family in ["ellipsoid"] * 4 + ["translated_ellipsoid"] * 4:
        body = random_body(rng, 3, family)
        m = random_skew(rng, 3)
        matrix = m.matrix / kernel_basis(m).sigma_max
        starts = [body.normalize_to_level(random_covector(rng, 3)) for _ in range(4)]
        horizons = np.full(4, 2.0 * np.pi * flow._TURNS * max(1.0, body._reach(3) ** 2))
        if isinstance(body, Ellipsoid):
            expected = [ellipsoid_period(matrix, body.shape_matrix)] * 4
        else:
            expected = [translated_ellipsoid_period(body, matrix, h0) for h0 in starts]
        for search in (flow._detect_each, flow._first_returns):
            for found, period in zip(search(body, matrix, starts, horizons, opts), expected):
                assert abs(found.period - period) <= 1e-9 * period
                assert found.residual <= 1e-8


def test_ellipsoids_classify_with_no_integration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an ellipsoidal classification integrated")

    monkeypatch.setattr(flow, "_solve", refuse)
    monkeypatch.setattr(flow, "_Lanes", refuse)
    rng = np.random.default_rng(39)
    bases = [random_body(rng, 3, family) for family in ("ellipsoid", "translated_ellipsoid")]
    m = random_skew(rng, 3)
    h0s = [random_covector(rng, 3) for _ in range(4)]
    # At c = 1e100 the entries of c^2 A square past the double range.
    for base, c in itertools.product(bases, (1.0, 1e100)):
        body = scaled_body(base, c)
        if isinstance(body, Ellipsoid):
            expected = [ellipsoid_period(m.matrix, body.shape_matrix)] * 4
        else:
            expected = [translated_ellipsoid_period(body, m.matrix, h0) for h0 in h0s]
        outcomes = [classify_k3(h0s[0], m, body)] + classify_sweep(h0s, m, body)
        for outcome, period in zip(outcomes, expected[:1] + expected):
            assert outcome.kind == "periodic"
            assert abs(outcome.period - period) <= 1e-13 * period
            assert outcome.return_residual <= 1e-14


@pytest.mark.parametrize("depth", [0.05, 0.5, 0.9, 0.99, 0.999])
def test_translated_ellipsoid_periods_match_the_area_oracle(depth):
    # The closed form against T = (1 / |m|) dArea/ds on the leaf, which
    # shares no code with flow, for centres from shallow to near the
    # boundary (c^T A^-1 c = depth), singles and sweeps alike.
    rng = np.random.default_rng(int(1000 * depth))
    for _ in range(3):
        a = random_spd(rng, 3)
        c = rng.standard_normal(3)
        body = TranslatedEllipsoid(a, c * np.sqrt(depth / (c @ np.linalg.solve(a, c))))
        m = random_skew(rng, 3)
        h0s = [random_covector(rng, 3) for _ in range(4)]
        expected = [translated_ellipsoid_period(body, m.matrix, h0) for h0 in h0s]
        singles = [classify_k3(h0, m, body) for h0 in h0s]
        for outcome, period in zip(singles + classify_sweep(h0s, m, body), expected * 2):
            assert outcome.kind == "periodic"
            assert abs(outcome.period - period) <= 1e-12 * period
            assert outcome.return_residual <= 1e-14


@pytest.mark.parametrize("field,value", [
    ("rtol", -1.0), ("rtol", 1e-16), ("atol", 0.0), ("max_drift", np.inf),
    ("atol", np.nan), ("rtol", True), ("max_drift", "1e-7"),
])
def test_options_reject_bad_values(field, value):
    with pytest.raises(InputError, match=field):
        IntegrationOptions(**{field: value})


def test_options_accept_their_edge_values():
    assert [f.name for f in dataclasses.fields(IntegrationOptions)] == ["rtol", "atol", "max_drift"]
    assert IntegrationOptions(rtol=100.0 * np.finfo(float).eps).rtol == 100.0 * np.finfo(float).eps
    # other real numbers are stored as floats
    opts = IntegrationOptions(atol=np.int64(1), max_drift=np.float32(0.5))
    assert type(opts.atol) is float and type(opts.max_drift) is float


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
    @pytest.mark.parametrize("family", FAMILIES)
    def test_aligned_start_stays_put(self, family):
        rng = np.random.default_rng(15)
        for _ in range(5):
            body = random_body(rng, 3, family)
            m = random_skew(rng, 3)
            h0 = aligned_covector(body, so3_kernel_direction(m.matrix))
            traj = vertical(h0, m, body, 10.0, samples=100)
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

    def test_samples_must_be_an_integer(self):
        h0 = np.ones(4)
        for samples in (2.5, True):
            with pytest.raises(InputError, match="samples"):
                quasi_periodicity_check(h0, self.BLOCKS, self.BALL4, t_max=1.0, delta=0.0,
                                        samples=samples)
        result = quasi_periodicity_check(h0, self.BLOCKS, self.BALL4, t_max=1.0, delta=0.5,
                                         samples=np.int64(11))
        assert 0.5 <= result.time_of_min <= 1.0
