"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and match the library defaults; every
expected value is produced by an oracle that does not share code with the
path under test (matrix exponentials, closed-form rotations, explicit
null-space formulas, finite differences, adaptive quadrature, polygon areas).
"""

import numpy as np
from scipy.integrate import quad_vec
from scipy.optimize import brentq

from carnot_extremals import (
    Ellipsoid,
    LpBall,
    SkewMatrix,
    classify_k3,
    integrate_horizontal,
    kernel_basis,
    leaf_classify,
    parse_config,
    quasi_periodicity_check,
)
from carnot_extremals.cli import cmd_classify, cmd_gradcheck

from oracles import (
    FAMILIES,
    aligned_covector,
    dense_control,
    linear_flow,
    random_body,
    random_skew,
    random_spd,
    shoelace_area,
    so3_kernel_direction,
)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_invariant_conservation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(50):
        k = (2, 3, 4, 5)[n % 4]
        body = random_body(rng, k, FAMILIES[n % 3])
        skew = random_skew(rng, k)
        h0 = rng.standard_normal(k)
        traj = integrate_horizontal(h0, skew, body, 10.0, samples=200).trajectory
        worst = max(worst, traj.max_level_drift)
        if len(traj.casimirs):
            worst = max(worst, float(traj.max_casimir_drift.max()))
    report(1, worst <= 1e-8,
           f"max H/I_a drift over 50 random configs on [0,10] = {worst:.3e} (bar 1e-8)")


def test_criterion_02_linear_flow_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in range(50):
        k = (2, 3, 4, 5)[n % 4]
        a = random_spd(rng, k)
        body = Ellipsoid(a)
        skew = random_skew(rng, k)
        h0 = body.normalize_to_level(rng.standard_normal(k))
        traj = integrate_horizontal(h0, skew, body, 10.0, samples=100).trajectory
        generator = skew.matrix @ a
        for t, h in zip(traj.t, traj.h):
            worst = max(worst, float(np.abs(h - linear_flow(generator, h0, t)).max()))
    report(2, worst <= 1e-8,
           f"sup|h(t) - expm(-tMA)h0| over 50 ellipsoid runs = {worst:.3e} (bar 1e-8)")


def test_criterion_03_k3_dichotomy():
    rng = np.random.default_rng(103)
    kinds = {"constant": 0, "periodic": 0, "unclassified": 0}
    worst_residual = 0.0
    for n in range(100):
        body = random_body(rng, 3, FAMILIES[n % 3])
        doc = {
            "k": 3,
            "body": body.to_config(),
            "M": {f"{i},{j}": v for (i, j), v in
                  zip([(1, 2), (1, 3), (2, 3)], random_skew(rng, 3).flat())},
            "h0": rng.standard_normal(3).tolist(),
        }
        report_dict, code = cmd_classify(parse_config(doc))
        kinds[report_dict["class"]] += 1
        if report_dict["class"] == "periodic":
            worst_residual = max(worst_residual, report_dict["return_residual"])
        assert code == 0, f"classification failed on case {n}"
    ok = kinds["unclassified"] == 0 and worst_residual <= 1e-8
    report(3, ok,
           f"100 random triples: {kinds['periodic']} periodic, {kinds['constant']} constant, "
           f"{kinds['unclassified']} unclassified; worst residual {worst_residual:.3e} (bar 1e-8)")


def test_criterion_04_period_oracle_unit_ball():
    rng = np.random.default_rng(104)
    ball = Ellipsoid(np.eye(3))
    worst = 0.0
    for _ in range(20):
        skew = random_skew(rng, 3)
        # rotation speed of exp(-tM) equals |(h_12, h_13, h_23)|
        mu = float(np.linalg.norm(skew.flat()))
        h0 = rng.standard_normal(3)
        outcome = classify_k3(h0, skew, ball)
        assert outcome.kind == "periodic"
        worst = max(worst, abs(outcome.period - 2.0 * np.pi / mu))
    report(4, worst <= 1e-7, f"max |T - 2pi/mu| over 20 unit-ball runs = {worst:.3e} (bar 1e-7)")


def test_criterion_05_constant_branch():
    rng = np.random.default_rng(105)
    worst = 0.0
    for family in ("ellipsoid", "lp_ball"):
        for _ in range(5):
            body = random_body(rng, 3, family)
            skew = random_skew(rng, 3)
            h0 = aligned_covector(body, so3_kernel_direction(skew.matrix))
            traj = integrate_horizontal(h0, skew, body, 10.0, samples=100).trajectory
            worst = max(worst, float(np.linalg.norm(traj.h - traj.h[0], axis=1).max()))
    report(5, worst <= 1e-10,
           f"max |h(t) - h0| from gradient-aligned starts = {worst:.3e} (bar 1e-10)")


def test_criterion_06_quasi_periodic_witness():
    ball = Ellipsoid(np.eye(4))
    blocks = SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): np.sqrt(2.0)})
    h0 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0

    # closed-form oracle first: per block |h(t) - h0|^2 = 2|b|^2 (1 - cos wt)
    def oracle_dist(t):
        return np.sqrt((1.0 - np.cos(t)) + (1.0 - np.cos(np.sqrt(2.0) * t)))

    grid = np.linspace(0.5, 200.0, int(round(199.5 / 0.01)) + 1)
    dvals = oracle_dist(grid)
    j = int(np.argmin(dvals))
    slope = lambda t: (np.sin(t) + np.sqrt(2.0) * np.sin(np.sqrt(2.0) * t))
    t_oracle = brentq(slope, grid[j - 1], grid[j + 1], xtol=1e-13)
    d_oracle = float(oracle_dist(t_oracle))
    assert d_oracle > 0.01, "oracle refutes the chosen witness bound"

    result = quasi_periodicity_check(h0, blocks, ball, t_max=200.0, delta=0.5)
    incommensurate_ok = (result.min_return_distance > 0.01
                         and abs(result.min_return_distance - d_oracle) <= 1e-6)

    same = SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): 1.0})
    back = quasi_periodicity_check(h0, same, ball, t_max=10.0, delta=0.5)
    commensurate_ok = (back.min_return_distance <= 1e-8
                       and abs(back.time_of_min - 2.0 * np.pi) <= 1e-6)
    report(6, incommensurate_ok and commensurate_ok,
           f"incommensurate min distance {result.min_return_distance:.4f} at "
           f"t={result.time_of_min:.2f} (oracle {d_oracle:.4f}, bar 0.01); "
           f"commensurate min {back.min_return_distance:.2e} at t={back.time_of_min:.6f}")


def test_criterion_07_gradient_checks():
    worst = 0.0
    for family in FAMILIES:
        rng = np.random.default_rng(107)
        body = random_body(rng, 3, family)
        doc = {"k": 3, "body": body.to_config(), "M": {}, "h0": [1.0, 0.0, 0.0],
               "gradcheck": {"points": 1000}}
        rep, code = cmd_gradcheck(parse_config(doc))
        assert code == 0 and rep["pass"]
        worst = max(worst, rep["max_rel_error"])
    report(7, worst <= 1e-6,
           f"max fd-vs-analytic gradient error, 1000 points x 3 families = {worst:.3e} (bar 1e-6)")


def test_criterion_08_horizontal_consistency():
    # first layer against adaptive quadrature of an independent dense control
    worst_quad = 0.0
    for body, skew, h0 in [
        (Ellipsoid(random_spd(np.random.default_rng(108), 3)),
         SkewMatrix.from_entries(3, {(1, 2): 0.9, (1, 3): -0.4, (2, 3): 0.2}),
         [0.8, -0.3, 0.5]),
        (LpBall(p=4.0),
         SkewMatrix.from_entries(3, {(1, 2): 1.0, (2, 3): 0.5}),
         [1.0, 0.4, -0.2]),
    ]:
        res = integrate_horizontal(h0, skew, body, 7.0, samples=100)
        control = dense_control(body, skew.matrix, h0, 7.0)
        quad, _ = quad_vec(control, 0.0, 7.0, epsabs=1e-12, epsrel=1e-12)
        worst_quad = max(worst_quad, float(np.linalg.norm(res.endpoint.x - quad)))

    loop = integrate_horizontal([1.0, 0.0], SkewMatrix.from_entries(2, {(1, 2): 1.0}),
                                Ellipsoid(np.eye(2)), 2.0 * np.pi, samples=20000)
    area = shoelace_area(loop.x[:, 0], loop.x[:, 1])
    area_err = abs(abs(loop.endpoint.y[0]) - area)
    ok = worst_quad <= 1e-9 and area_err <= 1e-6
    report(8, ok, f"endpoint vs quadrature {worst_quad:.3e} (bar 1e-9); "
                  f"loop area mismatch {area_err:.3e} (bar 1e-6)")


def test_criterion_09_period_scaling_covariance():
    body = LpBall(p=4.0)
    base_matrix = SkewMatrix.from_entries(3, {(1, 2): 0.8, (1, 3): -0.5, (2, 3): 0.3})
    h0 = np.array([0.9, -0.1, 0.3])
    base = classify_k3(h0, base_matrix, body)
    assert base.kind == "periodic"
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        scaled = classify_k3(h0, SkewMatrix(lam * base_matrix.matrix), body)
        assert scaled.kind == "periodic"
        expected = base.period / lam
        worst = max(worst, abs(scaled.period - expected) / expected)
    report(9, worst <= 1e-7,
           f"max relative deviation of T(lam M) from T(M)/lam = {worst:.3e} (bar 1e-7)")


def test_criterion_10_leaf_classification():
    checks = []

    leaf = leaf_classify(SkewMatrix.zero(3), [1.0, 2.0, 3.0])
    checks.append(leaf.kind == "zero_dim" and (leaf.point == [1.0, 2.0, 3.0]).all())
    checks.append(len(kernel_basis(SkewMatrix.zero(3))) == 3)

    # single nonzero entry: kernel is the axis missing from the pair
    for pair, axis in [((1, 2), [0.0, 0.0, 1.0]), ((1, 3), [0.0, 1.0, 0.0]),
                       ((2, 3), [1.0, 0.0, 0.0])]:
        leaf = leaf_classify(SkewMatrix.from_entries(3, {pair: 1.0}), [1.0, 1.0, 1.0])
        checks.append(leaf.kind == "two_dim"
                      and np.abs(leaf.casimir - axis).max() <= 1e-12)

    # fully populated matrices against the explicit null-space solve
    rng = np.random.default_rng(110)
    cases = [np.array([1.0, 1.0, 1.0])] + [rng.standard_normal(3) for _ in range(10)]
    for flat in cases:
        skew = SkewMatrix.from_flat(3, flat)
        leaf = leaf_classify(skew, rng.standard_normal(3))
        expected = so3_kernel_direction(skew.matrix)
        nz = expected[np.abs(expected) > 1e-12]
        if nz[0] < 0:
            expected = -expected
        checks.append(leaf.kind == "two_dim"
                      and np.abs(leaf.casimir - expected).max() <= 1e-10)

    ok = all(checks)
    report(10, ok, f"{sum(checks)}/{len(checks)} leaf-branch checks against "
                   "independent null-space solves")
