"""Command-line front end.

Usage:
    carnot-extremals analyze   --config cfg.json [--out DIR]
    carnot-extremals integrate --config cfg.json [--out DIR]
    carnot-extremals classify  --config cfg.json [--out DIR]
    carnot-extremals gradcheck --config cfg.json [--out DIR]

Exit codes: 0 success, 2 config error, 3 numerical failure.  The JSON report
is written into the output directory and echoed to stdout; `integrate` also
writes a CSV trajectory.  The environment variable CARNOT_LOG (off|info|debug)
controls log verbosity; reports themselves are deterministic for a fixed
config and seed, except for the wall_time_s field of integrate summaries.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
# Unused here: perfbench/tracing.py patches this name, so it stays imported.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path

import numpy as np

from .algebra import AlgebraSpec, kernel_basis, leaf_classify
from .config import RunConfig, load_config
from .errors import CarnotError, DriftExceededError, InputError, IntegrationError, UnsupportedRankError
from .flow import classify_k3, classify_sweep
from .lift import integrate_horizontal
from .reporting import write_csv, write_report

logger = logging.getLogger(__name__)

GRADCHECK_PASS_BAR = 1e-6
# Points whose smallest component is closer to zero than this fraction of the
# norm are resampled: the central-difference oracle straddles the lp-ball
# gradient kink there while the analytic gradient stays exact.
_MIN_COMPONENT_FRACTION = 1e-3


def _setup_logging() -> None:
    level_name = os.environ.get("CARNOT_LOG", "off").lower()
    if level_name == "debug":
        level = logging.DEBUG
    elif level_name == "info":
        level = logging.INFO
    else:
        level = logging.CRITICAL + 10
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("carnot_extremals").setLevel(level)


def _skew_map(config: RunConfig) -> dict:
    return dict(config.skew_entries)


def cmd_analyze(config: RunConfig) -> dict:
    """Kernel/Casimir analysis of M, plus the leaf classification for k = 3."""
    spec = AlgebraSpec(config.k)
    basis = kernel_basis(config.skew)
    warnings = []
    if basis.near_singular:
        warnings.append("skew matrix is near singular; kernel dimension is unreliable")
    report = {
        "command": "analyze",
        "k": config.k,
        "dim_l": spec.dim,
        "skew": _skew_map(config),
        "sigma_max": basis.sigma_max,
        "kernel_dim": len(basis),
        "casimir_basis": basis.vectors,
        "h0": config.h0,
    }
    if config.k == 3:
        leaf = leaf_classify(config.skew, config.h0)
        report["leaf"] = leaf.kind
        report["casimir"] = leaf.casimir
        report["casimir_level"] = leaf.casimir_level
        report["point"] = leaf.point
    else:
        report["leaf"] = "unclassified"
        report["casimir"] = None
        report["casimir_level"] = None
        report["point"] = None
    report["warnings"] = warnings
    report["seed"] = config.seed
    return report


def _csv_header(config: RunConfig, n_casimirs: int) -> list[str]:
    spec = AlgebraSpec(config.k)
    header = ["t"]
    header += [f"h_{i}" for i in range(1, config.k + 1)]
    header += [f"u_{i}" for i in range(1, config.k + 1)]
    header += [f"x_{i}" for i in range(1, config.k + 1)]
    header += [f"x_{i}{j}" for i, j in spec.pairs()]
    header.append("H_drift")
    header += [f"I{n}_drift" for n in range(1, n_casimirs + 1)]
    return header


def cmd_integrate(config: RunConfig, out_dir: Path) -> tuple[dict, int]:
    """Integrate the covector flow and lift it; write trajectory.csv and summary.json.

    The summary's ``period`` is the period T from which the run was tiled,
    or None when the whole horizon was solved (see integrate_horizontal),
    and ``max_lift_residual`` the largest relative miss of the lift's
    momentum-map identities over the written rows.
    """
    start = time.perf_counter()
    aborted = False
    abort_time = None
    abort_drift = None
    try:
        result = integrate_horizontal(config.h0, config.skew, config.body, config.t1,
                                      opts=config.options, samples=config.samples)
    except DriftExceededError as err:
        result = err.partial
        aborted = True
        abort_time = err.time
        abort_drift = err.drift
    wall = time.perf_counter() - start

    traj = result.trajectory
    n_cas = len(traj.casimirs)
    rows = np.hstack([
        traj.t[:, None], traj.h, traj.u, result.x, result.y,
        traj.level_drift[:, None], traj.casimir_drift,
    ])
    csv_path = out_dir / "trajectory.csv"
    write_csv(csv_path, _csv_header(config, n_cas), rows)

    report = {
        "command": "integrate",
        "k": config.k,
        "body": config.body.to_config(),
        "skew": _skew_map(config),
        "t1": config.t1,
        "samples": config.samples,
        "seed": config.seed,
        "kernel_dim": n_cas,
        "casimir_basis": traj.casimirs.vectors,
        "max_level_drift": traj.max_level_drift,
        "max_casimir_drift": traj.max_casimir_drift,
        "endpoint": {"x": result.x[-1], "y": result.y[-1]} if traj.t.size else None,
        "rows_written": int(rows.shape[0]),
        "csv": csv_path.name,
        "aborted": aborted,
        "abort_time": abort_time,
        "abort_drift": abort_drift,
        "period": result.period,
        "max_lift_residual": result.max_lift_residual,
        "wall_time_s": wall,
    }
    return report, (3 if aborted else 0)


def _classification_report(h0: np.ndarray, outcome) -> dict:
    report = {
        "h0": h0,
        "class": outcome.kind,
        "period": outcome.period,
        "return_residual": outcome.return_residual,
        "parallel_test_residual": outcome.parallel_residual,
        "warnings": list(outcome.warnings),
    }
    if outcome.reason is not None:
        report["reason"] = outcome.reason
    return report


def cmd_classify(config: RunConfig) -> tuple[dict, int]:
    """Constant/periodic classification (k = 3 only).

    On an ellipsoid or a translated ellipsoid every period is exact, in
    closed form with no search, for a single h0 and a sweep alike.  On lp
    balls the input size picks the first-return search.  A single h0, or a sweep
    of one, runs classify_k3 and its search on one DOP853 trajectory.  A sweep
    of two or more covectors runs classify_sweep, which cuts every orbit
    into arcs and steps all arcs of all covectors as the lanes of one
    DOP853 integration.  Its return_residual is the largest miss of an
    arc's end from the next arc's start (||h(T) - h0|| for a start near the
    constant branch, searched as one arc); its periods agree with single-h0
    runs to about 1e-10 relative, not bit for bit, and its warnings and
    reasons are the same.  Both reject other k with UnsupportedRankError
    before any work.
    """
    report = {"command": "classify", "k": config.k, "body": config.body.to_config(),
              "skew": _skew_map(config), "seed": config.seed}
    h0s = config.sweep or (config.h0,)
    if len(h0s) >= 2:
        outcomes = classify_sweep(h0s, config.skew, config.body, config.options)
    else:
        outcomes = [classify_k3(h0s[0], config.skew, config.body, config.options)]
    results = [_classification_report(h0, outcome) for h0, outcome in zip(h0s, outcomes)]
    report["sweep"] = bool(config.sweep)
    if config.sweep:
        report["results"] = results
    else:
        report.update(results[0])
    failed = any(r["class"] == "unclassified" for r in results)
    return report, (3 if failed else 0)


def _fd_gradient(body, hs: np.ndarray, step: float) -> np.ndarray:
    """Central differences of H along every axis at every row of hs."""
    n, k = hs.shape
    plus = (hs[:, None, :] + step * np.eye(k)).reshape(n * k, k)
    minus = (hs[:, None, :] - step * np.eye(k)).reshape(n * k, k)
    return ((body._support(plus) - body._support(minus)) / (2.0 * step)).reshape(n, k)


def _sample_covectors(rng, count: int, dim: int) -> np.ndarray:
    """Random covectors with norms log-uniform in [0.1, 10].

    Directions with a component below _MIN_COMPONENT_FRACTION of the norm are
    resampled so the finite-difference step never straddles a gradient kink.
    """
    out = np.empty((count, dim))
    for n in range(count):
        while True:
            d = rng.standard_normal(dim)
            norm = np.linalg.norm(d)
            if norm > 0.0 and np.abs(d).min() / norm >= _MIN_COMPONENT_FRACTION:
                break
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        out[n] = d / norm * scale
    return out


def cmd_gradcheck(config: RunConfig) -> tuple[dict, int]:
    """Compare analytic support gradients against central differences."""
    rng = np.random.default_rng(config.seed)
    points = _sample_covectors(rng, config.gradcheck_points, config.k)
    analytic = config.body._gradient(points)
    numeric = _fd_gradient(config.body, points, config.gradcheck_step)
    err = np.linalg.norm(numeric - analytic, axis=1) / np.linalg.norm(analytic, axis=1)
    worst = float(err.max())
    passed = worst <= GRADCHECK_PASS_BAR
    report = {
        "command": "gradcheck",
        "k": config.k,
        "body": config.body.to_config(),
        "points": config.gradcheck_points,
        "step": config.gradcheck_step,
        "seed": config.seed,
        "max_rel_error": worst,
        "pass_bar": GRADCHECK_PASS_BAR,
        "pass": passed,
    }
    return report, (0 if passed else 3)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="carnot-extremals",
        description="Extremal analysis for left-invariant time-optimal problems "
                    "on step-2 free Carnot groups with strictly convex control sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("analyze", "Casimir basis, kernel dimension and symplectic leaf (k = 3)"),
        ("integrate", "integrate the covector flow, lift it to the group, write CSV + JSON"),
        ("classify", "constant/periodic classification of the extremal (k = 3)"),
        ("gradcheck", "validate analytic support gradients against finite differences"),
    ]:
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=".", help="output directory (default: cwd)")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        config = load_config(args.config)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise InputError(f"cannot create output directory {out_dir}: {err}") from err
        if args.command == "analyze":
            report, code = cmd_analyze(config), 0
        elif args.command == "integrate":
            report, code = cmd_integrate(config, out_dir)
        elif args.command == "classify":
            report, code = cmd_classify(config)
        else:
            report, code = cmd_gradcheck(config)
    except (InputError, UnsupportedRankError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except IntegrationError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except CarnotError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    report_name = "summary.json" if args.command == "integrate" else f"{args.command}.json"
    text = write_report(out_dir / report_name, report)
    sys.stdout.write(text)
    logger.info("%s finished with exit code %d", args.command, code)
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
