"""Correctness checks on the CLI outputs, by oracles that share no library code.

Nothing here imports carnot_extremals.  Support functions, gradients, kernel
directions and linear flows are recomputed from the config document with
closed forms, scipy.linalg.null_space and matrix exponentials, and the
outputs are read back from the files the CLI wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm, null_space

DRIFT_BAR = 1e-8           # max |H - 1| and |I_a drift| on an exit-0 integrate
RESIDUAL_BAR = 1e-8        # return residual of a periodic classification
PERIOD_REL_BAR = 1e-7      # ellipsoid period against 2 pi / omega
ENDPOINT_BAR = 1e-8        # ellipsoid h(t1) against expm(-t1 M A) h0
PARALLEL_BAR = 1e-6        # a "constant" answer needs grad H nearly parallel to ker M
DEFAULT_MAX_DRIFT = 1e-7   # IntegrationOptions.max_drift, restated


def skew_matrix(doc) -> np.ndarray:
    k = doc["k"]
    m = np.zeros((k, k))
    for key, value in doc.get("M", {}).items():
        i, j = (int(s) - 1 for s in key.split(","))
        m[i, j], m[j, i] = value, -value
    return m


def support(body, hs) -> np.ndarray:
    """H over the rows of hs, from the closed forms of each family."""
    hs = np.atleast_2d(hs)
    if body["type"] == "lp_ball":
        q = body["p"] / (body["p"] - 1.0)
        return body["r"] * np.linalg.norm(hs, ord=q, axis=1)
    a = np.array(body["A"])
    quad = np.sqrt(np.einsum("ni,ij,nj->n", hs, a, hs))
    if body["type"] == "ellipsoid":
        return quad
    return hs @ np.array(body["c"]) + quad


def gradient(body, h) -> np.ndarray:
    if body["type"] == "lp_ball":
        q = body["p"] / (body["p"] - 1.0)
        norm = np.linalg.norm(h, ord=q)
        return body["r"] * np.sign(h) * (np.abs(h) / norm) ** (q - 1.0)
    a = np.array(body["A"])
    g = a @ h / np.sqrt(h @ a @ h)
    return g if body["type"] == "ellipsoid" else g + np.array(body["c"])


def ellipsoid_period(doc) -> float:
    """2 pi / omega with +-i omega the nonzero eigenvalues of M A."""
    omega = np.abs(np.linalg.eigvals(skew_matrix(doc) @ np.array(doc["body"]["A"])).imag).max()
    return 2.0 * np.pi / omega


def _check_classification(doc, h0, result) -> list[str]:
    kind = result["class"]
    if kind == "periodic":
        errors = []
        if not result["return_residual"] <= RESIDUAL_BAR:
            errors.append(f"return residual {result['return_residual']:.3e} > {RESIDUAL_BAR:.0e}")
        if doc["body"]["type"] == "ellipsoid":
            expected = ellipsoid_period(doc)
            rel = abs(result["period"] - expected) / expected
            if not rel <= PERIOD_REL_BAR:
                errors.append(f"period {result['period']!r} vs 2pi/omega {expected!r} (rel {rel:.2e})")
        return errors
    if kind == "constant":
        axis = null_space(skew_matrix(doc))[:, 0]
        g = gradient(doc["body"], np.asarray(h0, dtype=float))
        off = np.linalg.norm(g - (g @ axis) * axis) / np.linalg.norm(g)
        return [] if off <= PARALLEL_BAR else [f"'constant' but grad H is off the kernel by {off:.2e}"]
    return [f"class {kind!r}: {result.get('reason')}"]


def check_classify(doc, code: int, out_dir: Path) -> list[str]:
    """Exit 0, no unclassified result, residuals and ellipsoid periods in bounds."""
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads((out_dir / "classify.json").read_text())
    if doc.get("sweep"):
        results = report["results"]
        if len(results) != len(doc["sweep"]):
            return [f"{len(results)} results for a sweep of {len(doc['sweep'])}"]
        pairs = zip(doc["sweep"], results)
    else:
        pairs = [(doc["h0"], report)]
    return [f"h0={h0}: {e}" for h0, res in pairs for e in _check_classification(doc, h0, res)]


def _read_csv(path: Path, width: int) -> tuple[np.ndarray, list[str]]:
    lines = path.read_text().splitlines()
    if not lines or len(lines[0].split(",")) != width:
        return np.empty((0, width)), [f"CSV header does not have {width} columns"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        return np.empty((0, width)), ["CSV row with the wrong number of columns"]
    data = np.array(rows, dtype=float).reshape(len(rows), width)
    if not np.all(np.isfinite(data)):
        return data, ["CSV has non-finite values"]
    return data, []


def check_integrate(doc, code: int, out_dir: Path, expect_abort: bool) -> list[str]:
    """Drift, CSV shape and, for ellipsoids, the endpoint against expm.

    An exit-0 run must keep H and every I_a within DRIFT_BAR and write
    samples + 1 rows.  A run that loosens rtol may instead abort: exit 3 with
    aborted = true, abort_drift above max_drift and a shorter well-formed CSV.
    """
    k, samples, t1 = doc["k"], doc["samples"], doc["t1"]
    if code not in (0, 3) or (code == 3 and not expect_abort):
        return [f"exit code {code}"]
    summary = json.loads((out_dir / "summary.json").read_text())
    kernel = null_space(skew_matrix(doc))
    width = 1 + 3 * k + k * (k - 1) // 2 + 1 + summary["kernel_dim"]
    data, errors = _read_csv(out_dir / summary["csv"], width)
    if errors:
        return errors
    if kernel.shape[1] != summary["kernel_dim"]:
        errors.append(f"kernel_dim {summary['kernel_dim']} but null_space gives {kernel.shape[1]}")
    if data.shape[0] != summary["rows_written"]:
        errors.append(f"{data.shape[0]} CSV rows but rows_written = {summary['rows_written']}")
    hs = data[:, 1:1 + k]
    grid = np.linspace(0.0, t1, samples + 1)[:data.shape[0]]
    if not np.allclose(data[:, 0], grid, rtol=0.0, atol=1e-12):
        errors.append("CSV time column is not the uniform output grid")

    if code == 3:
        max_drift = doc.get("tolerances", {}).get("max_drift", DEFAULT_MAX_DRIFT)
        if summary["aborted"] is not True:
            errors.append("exit 3 without aborted = true")
        elif not summary["abort_drift"] > max_drift:
            errors.append(f"abort_drift {summary['abort_drift']!r} not above max_drift")
        if not data.shape[0] < samples + 1:
            errors.append("aborted run wrote the full grid")
        return errors

    if summary["aborted"] is not False:
        errors.append("exit 0 with aborted set")
    if data.shape[0] != samples + 1:
        errors.append(f"{data.shape[0]} CSV rows, expected {samples + 1}")
        return errors
    level = np.abs(support(doc["body"], hs) - 1.0).max()
    casimir = np.abs((hs - hs[0]) @ kernel).max(initial=0.0)
    if not max(level, casimir) <= DRIFT_BAR:
        errors.append(f"drift H {level:.2e}, I_a {casimir:.2e} above {DRIFT_BAR:.0e}")
    if doc["body"]["type"] == "ellipsoid":
        a = np.array(doc["body"]["A"])
        h0 = np.array(doc["h0"])
        h0 = h0 / np.sqrt(h0 @ a @ h0)
        expected = expm(-t1 * skew_matrix(doc) @ a) @ h0
        err = np.abs(hs[-1] - expected).max()
        if not err <= ENDPOINT_BAR:
            errors.append(f"h(t1) off expm(-t1 M A) h0 by {err:.2e}")
    return errors
