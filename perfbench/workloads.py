"""Seeded request streams for the three benchmark workloads.

The samplers draw from the same distributions as the random configs of the
test suite, but are written out here so that a test edit cannot move the
benchmark:

- ellipsoid shape matrices Q diag(w) Q^T with Q from the QR factor of a
  standard normal matrix and w uniform in [0.3, 3];
- skew matrices with standard normal upper triangle, rescaled so the largest
  singular value is uniform in [0.3, 3];
- lp balls with p uniform in [1.3, 4] and r uniform in [0.5, 2];
- translated ellipsoids whose center has c^T A^-1 c uniform in [0.05, 0.5];
- standard normal initial covectors.

Integrate requests differ in one respect: M always has largest singular
value 1 (see _integrate_requests).

The numbers that set most of a request's cost come from a scrambled Sobol
sequence rather than independent draws: p and r of an lp ball, two
eigenvalues or the center depth of an ellipsoid, and for k = 3 classify
requests also the size and axis of M and the direction of h0.  Each point still follows
the law above, but every prefix of the stream covers the ranges evenly, so
runs with different seeds do a comparable mix of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import qmc

WORKLOADS = ("classify_smooth", "classify_lp", "integrate_mixed")
FAMILIES = ("ellipsoid", "lp_ball", "translated_ellipsoid")
RANKS = (2, 3, 4, 5)

# Loosened relative tolerance of the expected-abort integrate requests.  At
# 1e-4 all 600 such requests of seeds 1 to 20 drift past the default
# max_drift = 1e-7 on [0, 10]; at 1e-5 some finish with a drift between the
# 1e-8 bar of checks.py and max_drift.
ABORT_RTOL = 1e-4
T1 = 10.0


@dataclass(frozen=True)
class Shape:
    """Request-mix parameters; the full benchmark and the smoke mode differ."""

    pool: dict              # requests generated per workload
    sweep_every: dict       # every n-th classify request carries a sweep; 0: none
    sweep_size: int         # covectors per sweep
    samples: int            # integrate output grid size
    abort_every: int        # every n-th integrate request loosens rtol


FULL = Shape(pool={"classify_smooth": 512, "classify_lp": 128, "integrate_mixed": 240},
             sweep_every={"classify_smooth": 4, "classify_lp": 0},
             sweep_size=8, samples=3000, abort_every=8)
SMOKE = Shape(pool={"classify_smooth": 4, "classify_lp": 4, "integrate_mixed": 4},
              sweep_every={"classify_smooth": 2, "classify_lp": 0},
              sweep_size=2, samples=200, abort_every=2)


@dataclass(frozen=True)
class Request:
    command: str            # "classify" or "integrate"
    doc: dict               # config document, as written to disk
    ops: int                # covectors classified, or 1 per integrate
    sweep: bool = False
    expect_abort: bool = False


def _spd(rng, k, w_fixed=()):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    w = rng.uniform(0.3, 3.0, k)
    w[:len(w_fixed)] = w_fixed
    a = q @ np.diag(w) @ q.T
    return 0.5 * (a + a.T)


def _skew(upper, sigma):
    """Skew matrix from its upper triangle, rescaled to largest singular value sigma."""
    k = int(round((1 + np.sqrt(1 + 8 * len(upper))) / 2))
    m = np.zeros((k, k))
    m[np.triu_indices(k, 1)] = upper
    m = m - m.T
    return m * (sigma / np.linalg.norm(m, 2))


def _body(rng, k, family, u):
    """Body config from the family and the Sobol point u in [0, 1)^2."""
    if family == "lp_ball":
        return {"type": "lp_ball", "p": float(1.3 + 2.7 * u[0]), "r": float(0.5 + 1.5 * u[1])}
    if family == "ellipsoid":
        a = _spd(rng, k, (0.3 + 2.7 * u[0], 0.3 + 2.7 * u[1]))
        return {"type": "ellipsoid", "A": a.tolist()}
    a = _spd(rng, k, (0.3 + 2.7 * u[1],))
    c = rng.standard_normal(k)
    c *= np.sqrt((0.05 + 0.45 * u[0]) / (c @ np.linalg.solve(a, c)))
    return {"type": "translated_ellipsoid", "A": a.tolist(), "c": c.tolist()}


def _skew_entries(m):
    k = m.shape[0]
    return {f"{i + 1},{j + 1}": float(m[i, j]) for i in range(k) for j in range(i + 1, k)}


class _Sobol:
    """Per-stream scrambled Sobol points in (0, 1)^dim, handed out in order."""

    def __init__(self, rng, count, dim):
        m = max(int(np.ceil(np.log2(max(count, 2)))), 1)
        points = qmc.Sobol(dim, scramble=True, rng=rng).random_base2(m)
        self._points = np.clip(points, 1e-12, 1.0 - 1e-12)
        self._next = 0

    def take(self):
        u = self._points[self._next]
        self._next += 1
        return u


def _sphere(u_cos, u_azimuth, pole=(0.0, 0.0, 1.0)):
    """Unit vector at cos(angle to pole) = 2 u_cos - 1, uniform on the sphere."""
    pole = np.asarray(pole)
    e1 = np.cross(pole, (1.0, 0.0, 0.0) if abs(pole[0]) < 0.9 else (0.0, 1.0, 0.0))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    c = 2.0 * u_cos - 1.0
    s = np.sqrt(max(1.0 - c * c, 0.0))
    phi = 2.0 * np.pi * u_azimuth
    return c * pole + s * (np.cos(phi) * e1 + np.sin(phi) * e2)


def _classify_requests(rng, count, families, shape, every):
    # A k = 3 orbit is set by the body, by the axis a of M and by the angle
    # between h0 and a, so those are drawn from the Sobol point too.  The
    # upper triangle (h_12, h_13, h_23) of M is (a_3, -a_2, a_1) times a
    # scale, and h0 is a uniform direction times a chi(3) norm: the same laws
    # as standard normal entries.  The size of M only rescales time here.
    singles = _Sobol(rng, count, 7)
    sweeps = _Sobol(rng, count, 7)
    out = []
    for i in range(count):
        sweep = every > 0 and i % every == every - 1
        u = (sweeps if sweep else singles).take()
        n_kind = i // every if sweep else i - (i // every if every else 0)
        family = families[n_kind % len(families)]
        axis = _sphere(u[3], u[4])
        h0 = _sphere(u[2], u[5], pole=axis) * np.linalg.norm(rng.standard_normal(3))
        doc = {"k": 3, "body": _body(rng, 3, family, u[:2]),
               "M": _skew_entries(_skew(np.array([axis[2], -axis[1], axis[0]]),
                                        0.3 + 2.7 * u[6])),
               "h0": h0.tolist()}
        if sweep:
            doc["sweep"] = [rng.standard_normal(3).tolist() for _ in range(shape.sweep_size)]
        out.append(Request("classify", doc, shape.sweep_size if sweep else 1, sweep=sweep))
    return out


def _integrate_requests(rng, count, shape):
    combos = len(RANKS) * len(FAMILIES)
    streams = [_Sobol(rng, count // combos + 1, 2) for _ in range(combos)]
    out = []
    for i in range(count):
        # combo = i mod 12 walks every (rank, family) pair once per 12
        # requests; with abort_every = 8 the aborts rotate over three pairs
        # of different rank and family instead of pinning one rank.
        combo = i % combos
        k = RANKS[combo // len(FAMILIES)]
        family = FAMILIES[combo % len(FAMILIES)]
        abort = i % shape.abort_every == shape.abort_every - 1
        # With t1 fixed, the size of M sets how many turns a request
        # integrates.  Drawn from [0.3, 3] as in the tests, it let one lp
        # request run 13 s, a third of a run, and a run's throughput then
        # followed whether such a request fell inside it.  So M is scaled to
        # largest singular value 1 here.
        doc = {"k": k, "body": _body(rng, k, family, streams[combo].take()),
               "M": _skew_entries(_skew(rng.standard_normal(k * (k - 1) // 2), 1.0)),
               "h0": rng.standard_normal(k).tolist(), "t1": T1,
               "samples": shape.samples, "seed": i}
        if abort:
            doc["tolerances"] = {"rtol": ABORT_RTOL}
        out.append(Request("integrate", doc, 1, expect_abort=abort))
    return out


def make_requests(workload: str, seed: int, shape: Shape = FULL) -> list[Request]:
    """The request stream of one workload; the same seed gives the same stream."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    count = shape.pool[workload]
    if workload == "classify_smooth":
        return _classify_requests(rng, count, ("ellipsoid", "translated_ellipsoid"), shape,
                                  shape.sweep_every[workload])
    if workload == "classify_lp":
        return _classify_requests(rng, count, ("lp_ball",), shape, shape.sweep_every[workload])
    return _integrate_requests(rng, count, shape)


_WARMUP_M = {"1,2": 1.0, "1,3": -0.4, "2,3": 0.3}


def warmup_request(workload: str) -> Request:
    """Fixed untimed first request; independent of the seed so set-up is too."""
    if workload == "integrate_mixed":
        doc = {"k": 3, "body": {"type": "ellipsoid", "A": np.diag([1.0, 2.0, 3.0]).tolist()},
               "M": _WARMUP_M, "h0": [1.0, 0.2, -0.4], "t1": T1, "samples": 1000}
        return Request("integrate", doc, 1)
    if workload == "classify_lp":
        body = {"type": "lp_ball", "p": 2.5, "r": 1.0}
    else:
        body = {"type": "ellipsoid", "A": np.diag([1.0, 2.0, 3.0]).tolist()}
    doc = {"k": 3, "body": body, "M": _WARMUP_M, "h0": [1.0, 0.2, -0.4]}
    return Request("classify", doc, 1)


def write_configs(requests: list[Request], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for n, req in enumerate(requests):
        path = directory / f"req{n:04d}.json"
        path.write_text(json.dumps(req.doc))
        paths.append(path)
    return paths
