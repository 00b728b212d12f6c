"""Independent oracles and samplers shared by the test suite.

Everything here is deliberately decoupled from the library code paths it
checks: finite differences instead of analytic gradients, matrix
exponentials instead of the ODE solver, explicit null-space formulas instead
of the SVD kernel, polygon areas instead of the lifted coordinates, one
solve of the full chart equations instead of the step-wise quadrature lift,
a dense solve with root-finding on the distance to h0 instead of the
event-driven period search, the rate of change of leaf areas instead of the
closed-form period of a translated ellipsoid, a dense solve of the flow for
the control, a
bracket table written out from {h_i, h_j} = h_ij for the Lie-Poisson
identities, and the closed forms of the support functions evaluated in
decimal arithmetic instead of the floating-point row kernels.
"""

import decimal

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, null_space
from scipy.optimize import brentq

from carnot_extremals import Ellipsoid, LpBall, SkewMatrix, TranslatedEllipsoid


def fd_gradient(body, h, step=1e-6):
    """Central-difference gradient of the support function."""
    h = np.asarray(h, dtype=float)
    grad = np.empty_like(h)
    for i in range(h.size):
        e = np.zeros_like(h)
        e[i] = step
        grad[i] = (body.support(h + e) - body.support(h - e)) / (2.0 * step)
    return grad


def exact_support(body, h, digits=40):
    """H(h), grad H(h) and the sizes of their terms, from the closed form in decimal.

    The closed forms are evaluated at ``digits`` significant digits on the
    exact values of the float inputs and rounded to floats at the end:
    sqrt(h^T A h) and A h / sqrt(h^T A h) for an ellipsoid,
    r ||h||_q and r sign(h_i) |h_i|^(q-1) / ||h||_q^(q-1) for an lp ball,
    <c, h> + sqrt(h^T A h) and c + A h / sqrt(h^T A h) for a translated
    ellipsoid.  The lp exponent q is the double p / (p - 1), the one the
    body uses, so a kernel's error is its own rounding, not that of q.
    The term sizes are |<c, h>| + sqrt(h^T A h) and max |c_i| + max of
    |A h| / sqrt(h^T A h) for a translated ellipsoid, whose two terms can
    cancel, and H and max |grad_i| otherwise: the yardsticks for ulp bars.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        dec = decimal.Decimal
        hd = [dec(float(x)) for x in h]
        if isinstance(body, LpBall):
            q = dec(body.p / (body.p - 1.0))
            r = dec(body.radius)
            norm = sum(abs(x) ** q for x in hd) ** (1 / q)
            support = r * norm
            grad = [(r if x >= 0 else -r) * (abs(x) / norm) ** (q - 1) for x in hd]
            terms = (support, max(abs(g) for g in grad))
        else:
            a = [[dec(float(v)) for v in row] for row in body.shape_matrix]
            ah = [sum(aij * x for aij, x in zip(row, hd)) for row in a]
            root = sum(x * y for x, y in zip(hd, ah)).sqrt()
            c = ([dec(float(v)) for v in body.center] if isinstance(body, TranslatedEllipsoid)
                 else [dec(0)] * len(hd))
            ch = sum(ci * x for ci, x in zip(c, hd))
            support = ch + root
            grad = [ci + y / root for ci, y in zip(c, ah)]
            terms = (abs(ch) + root, max(abs(ci) for ci in c) + max(abs(y) for y in ah) / root)
        return float(support), np.array([float(g) for g in grad]), float(terms[0]), float(terms[1])


def brute_force_support(body, h, n_theta=600, n_phi=1200):
    """Max of <v, h> over a dense sample of the body boundary (k = 3 only)."""
    h = np.asarray(h, dtype=float)
    th = np.linspace(0.0, np.pi, n_theta)
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi)
    t, p = np.meshgrid(th, ph, indexing="ij")
    dirs = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    dirs = dirs.reshape(-1, 3)
    if isinstance(body, LpBall):
        scale = body.radius / np.linalg.norm(dirs, ord=body.p, axis=1)
        points = dirs * scale[:, None]
    elif isinstance(body, Ellipsoid):
        # v = A^(1/2) s for unit s sweeps the boundary v^T A^-1 v = 1
        w, q = np.linalg.eigh(body.shape_matrix)
        points = dirs @ (q * np.sqrt(w)) @ q.T
    elif isinstance(body, TranslatedEllipsoid):
        w, q = np.linalg.eigh(body.shape_matrix)
        points = body.center + dirs @ (q * np.sqrt(w)) @ q.T
    else:
        raise TypeError(type(body))
    return float((points @ h).max())


def bracket_structure(k):
    """Structure constants of the Lie-Poisson bracket on the basis Hamiltonians.

    ``c[a, b, d]`` is the coefficient of basis element d in {e_a, e_b}, with
    the basis h_1..h_k, then h_ij (i < j) in lexicographic order.  Only
    {h_i, h_j} = h_ij and {h_j, h_i} = -h_ij are nonzero.
    """
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    c = np.zeros((k + len(pairs),) * 3)
    for d, (i, j) in enumerate(pairs, start=k):
        c[i, j, d] = 1.0
        c[j, i, d] = -1.0
    return c


def so3_kernel_direction(matrix):
    """Unit kernel vector of a nonzero 3x3 skew matrix (its rotation axis)."""
    axis = np.array([-matrix[1, 2], matrix[0, 2], -matrix[0, 1]])
    return axis / np.linalg.norm(axis)


def linear_flow(matrix, h0, t):
    """exp(-t M) h0 via scaling-and-squaring, independent of the integrator."""
    return expm(-t * np.asarray(matrix)) @ np.asarray(h0, dtype=float)


def chart_lift(body, matrix, h0, ts):
    """(x, y) on the grid ts from one solve of the chart equations for (h, x, y).

    dh/dt = -M grad H(h), dx_i/dt = u_i and dx_ij/dt = (x_i u_j - x_j u_i) / 2
    with u = grad H(h) from the public support_gradient, integrated from the
    identity with h0 rescaled to H = 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    k = matrix.shape[0]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def rhs(t, z):
        u = body.support_gradient(z[:k])
        x = z[k:2 * k]
        ydot = [0.5 * (x[i] * u[j] - x[j] * u[i]) for i, j in pairs]
        return np.concatenate((-matrix @ u, u, ydot))

    h0 = np.asarray(h0, dtype=float)
    z0 = np.concatenate((h0 / body.support(h0), np.zeros(k + len(pairs))))
    sol = solve_ivp(rhs, (ts[0], ts[-1]), z0, method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=ts)
    assert sol.success, sol.message
    return sol.y[k:2 * k].T, sol.y[2 * k:].T


def dense_control(body, matrix, h0, t1):
    """u(t) = grad H(h(t)) on [0, t1] from one dense solve of the vertical flow.

    dh/dt = -M grad H(h) with the public support_gradient, from h0 rescaled
    to H = 1; the returned function takes a scalar t.
    """
    matrix = np.asarray(matrix, dtype=float)

    def rhs(t, h):
        return -matrix @ body.support_gradient(h)

    h0 = np.asarray(h0, dtype=float)
    sol = solve_ivp(rhs, (0.0, t1), h0 / body.support(h0), method="DOP853", rtol=1e-13,
                    atol=1e-15, dense_output=True)
    assert sol.success, sol.message
    return lambda t: body.support_gradient(sol.sol(t))


def momentum_residual(hs, xs, matrix):
    """Largest miss of identity (I1), h(t) + M x(t) = h(0), relative to the scale of h and M x.

    dh/dt = -M u and dx/dt = u from x(0) = 0 make h + M x constant, for
    every body and every k.  Only the sampled rows of h and x and the
    matrix M are read.
    """
    hs, xs = np.asarray(hs, dtype=float), np.asarray(xs, dtype=float)
    moved = xs @ np.asarray(matrix, dtype=float).T
    scale = max(np.abs(hs).max(), np.abs(moved).max())
    return float(np.abs(hs + moved - hs[0]).max() / scale)


def area_momentum_residual(ts, hs, xs, ys, matrix):
    """Largest miss of identity (I2), sum_{i<j} M_ij y_ij(t) = (t - <x(t), h(t)>) / 2.

    Both sides vanish at t = 0, and with dy_ij/dt = (x_i u_j - x_j u_i) / 2
    the left one grows at <x, M u> / 2; the right one at
    (1 - <u, h> + <x, M u>) / 2, the same, as Euler's identity
    <grad H(h), h> = H(h) = 1 holds on the level set.  Only the sampled t,
    h, x and y and the matrix M are read; y is in lexicographic pair order.
    The miss is relative to the largest of the terms summed.
    """
    ts, hs = np.asarray(ts, dtype=float), np.asarray(hs, dtype=float)
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    rows, cols = np.triu_indices(hs.shape[1], 1)
    swept = ys @ np.asarray(matrix, dtype=float)[rows, cols]
    time, pairing = 0.5 * ts, 0.5 * np.einsum("ij,ij->i", xs, hs)
    scale = max(np.abs(swept).max(), np.abs(time).max(), np.abs(pairing).max())
    return float(np.abs(swept - time + pairing).max() / scale)


def shoelace_area(xs, ys):
    """Absolute polygon area of a sampled closed curve."""
    return 0.5 * abs(float(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1))))


def random_spd(rng, k, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q @ np.diag(rng.uniform(lo, hi, k)) @ q.T


def random_skew(rng, k, sigma_lo=0.3, sigma_hi=3.0):
    """Random nonzero skew matrix with largest singular value in a sane band."""
    m = np.zeros((k, k))
    iu = np.triu_indices(k, 1)
    m[iu] = rng.standard_normal(len(iu[0]))
    m = m - m.T
    target = rng.uniform(sigma_lo, sigma_hi)
    m *= target / np.linalg.norm(m, 2)
    return SkewMatrix(m)


def random_body(rng, k, family):
    if family == "ellipsoid":
        return Ellipsoid(random_spd(rng, k))
    if family == "lp_ball":
        return LpBall(p=rng.uniform(1.3, 4.0), radius=rng.uniform(0.5, 2.0))
    if family == "translated_ellipsoid":
        a = random_spd(rng, k)
        c = rng.standard_normal(k)
        depth = c @ np.linalg.solve(a, c)
        c *= np.sqrt(rng.uniform(0.05, 0.5) / depth)
        return TranslatedEllipsoid(a, c)
    raise ValueError(family)


FAMILIES = ("ellipsoid", "lp_ball", "translated_ellipsoid")


def scaled_body(body, c):
    """The body c U of a body U of random_body's families: its H is c H_U."""
    if isinstance(body, Ellipsoid):
        return Ellipsoid(c * c * body.shape_matrix)
    if isinstance(body, LpBall):
        return LpBall(p=body.p, radius=c * body.radius)
    return TranslatedEllipsoid(c * c * body.shape_matrix, c * body.center)


def random_covector(rng, k, lo=0.1, hi=10.0, min_component=0.0):
    while True:
        d = rng.standard_normal(k)
        norm = np.linalg.norm(d)
        if norm > 0.0 and np.abs(d).min() / norm >= min_component:
            return d / norm * 10.0 ** rng.uniform(np.log10(lo), np.log10(hi))


def aligned_covector(body, a):
    """Initial covector with grad H parallel to a, rescaled to H = 1.

    For an ellipsoid grad H is parallel to a along A^-1 a; for an lp ball the
    dual-exponent power map inverts the gradient direction.  For a translated
    ellipsoid grad H = c + A h / sqrt(h^T A h) equals lam a at
    h = A^-1 (lam a - c), with lam > 0 solving (lam a - c)^T A^-1 (lam a - c) = 1.
    """
    a = np.asarray(a, dtype=float)
    if isinstance(body, Ellipsoid):
        h = np.linalg.solve(body.shape_matrix, a)
    elif isinstance(body, LpBall):
        h = np.sign(a) * np.abs(a) ** (body.p - 1.0)
    elif isinstance(body, TranslatedEllipsoid):
        inv, c = np.linalg.inv(body.shape_matrix), body.center
        aa, ac, cc = a @ inv @ a, a @ inv @ c, c @ inv @ c
        lam = (ac + np.sqrt(ac * ac - aa * (cc - 1.0))) / aa
        h = inv @ (lam * a - c)
    else:
        raise TypeError(f"no closed-form aligned covector for {type(body).__name__}")
    return h / body.support(h)


def translated_ellipsoid_period(body, matrix, h0):
    """Period of dh/dt = -M grad H(h) from h0 on a translated ellipsoid, from leaf areas.

    On the leaf <n, h> = <n, h0> of the axis n of M the flow is Hamiltonian
    for H with the area form scaled by |m| = |(U^T M U)_12|, U an orthonormal
    basis of n-perp, so T = (1 / |m|) d/ds Area{h in leaf : H(h) <= s} at
    s = 1.  With h = p + U x, p = <n, h0> n after scaling h0 to H = 1, and
    B = A - c c^T, H(h) <= s is the ellipse x^T G x + 2 x^T (U^T B p + s U^T c)
    + p^T B p + 2 s <c, p> - s^2 <= 0, G = U^T B U, whose area is pi times
    (b^T G^-1 b - the constant) / sqrt(det G), b its linear coefficient.  Its
    s-derivative at s = 1 gives
    T = pi (2 (U^T c)^T G^-1 g - 2 <c, p> + 2) / (|m| sqrt(det G)),
    g = U^T (B p + c).  A centered ellipsoid is the case c = 0.
    """
    a, c = body.shape_matrix, body.center
    matrix = np.asarray(matrix, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    h0 = h0 / (c @ h0 + np.sqrt(h0 @ a @ h0))
    n = null_space(matrix)[:, 0]
    u = null_space(n[None])
    p = (n @ h0) * n
    b = a - np.outer(c, c)
    g_mat = u.T @ b @ u
    g = u.T @ (b @ p + c)
    m = abs((u.T @ matrix @ u)[0, 1])
    area_rate = np.pi * (2.0 * (u.T @ c) @ np.linalg.solve(g_mat, g) - 2.0 * (c @ p) + 2.0)
    # sqrt(det G) as a product of square roots: det G squares the scale of the body.
    return float(area_rate / (m * np.prod(np.sqrt(np.linalg.eigvalsh(g_mat)))))


def first_return(body, matrix, h0, t_guess, rtol=1e-13, atol=1e-15):
    """First return time of dh/dt = -M grad H(h) to h0, near t_guess.

    One dense solve of the flow with the public support_gradient on
    [0, 1.05 t_guess]; the return is the zero of d/dt |h(t) - h0|^2 found by
    brentq within 1e-3 t_guess of t_guess.  Returns (T, |h(T) - h0|, the
    least |h(t) - h0| sampled on [0.02 T, 0.98 T]); the last is bounded away
    from zero when T is the first return.
    """
    matrix = np.asarray(matrix, dtype=float)

    def rhs(t, h):
        return -matrix @ body.support_gradient(h)

    h0 = np.asarray(h0, dtype=float)
    sol = solve_ivp(rhs, (0.0, 1.05 * t_guess), h0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    assert sol.success, sol.message

    def slope(t):
        h = sol.sol(t)
        return float((h - h0) @ rhs(t, h))

    period = brentq(slope, (1.0 - 1e-3) * t_guess, (1.0 + 1e-3) * t_guess,
                    xtol=1e-14 * t_guess, rtol=4.0 * np.finfo(float).eps)
    inner = np.linspace(0.02 * period, 0.98 * period, 2000)
    closest = float(np.linalg.norm(sol.sol(inner) - h0[:, None], axis=0).min())
    return period, float(np.linalg.norm(sol.sol(period) - h0)), closest
