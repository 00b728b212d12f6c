"""Run configuration: a single JSON document per experiment.

Schema (matrices row-major, pair keys 1-based "i,j"):

    {
      "k": 3,
      "body": {"type": "ellipsoid", "A": [[1,0,0],[0,1,0],[0,0,1]]},
      "M": {"1,2": 1.0},
      "h0": [1.0, 0.0, 0.0],
      "t1": 10.0,
      "samples": 1000,
      "seed": 42,
      "tolerances": {"rtol": 1e-12, ...},
      "gradcheck": {"points": 1000},
      "sweep": [[...], [...]]
    }

Unknown fields are rejected so typos surface as config errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .algebra import SkewMatrix
from .bodies import BODY_KINDS, ControlBody, Ellipsoid, LpBall, TranslatedEllipsoid
from .errors import InputError
from .flow import IntegrationOptions

_TOP_KEYS = {"k", "body", "M", "h0", "t1", "samples", "seed", "tolerances", "gradcheck", "sweep"}
_TOLERANCE_KEYS = {f.name for f in fields(IntegrationOptions)}
_GRADCHECK_KEYS = {"points", "step"}


@dataclass(frozen=True)
class RunConfig:
    k: int
    body: ControlBody
    skew: SkewMatrix
    h0: np.ndarray
    t1: float
    samples: int
    seed: int
    options: IntegrationOptions
    gradcheck_points: int
    gradcheck_step: float
    sweep: tuple[np.ndarray, ...]
    skew_entries: dict[str, float]  # echo of the "M" input, for reports


def _fail(field: str, message: str):
    raise InputError(f"config field '{field}': {message}")


def _as_int(doc, field, default=None, minimum=None):
    value = doc.get(field, default)
    if value is None:
        _fail(field, "is required")
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the double range
        value = np.inf
    if not np.isfinite(value):
        _fail(field, "must be finite")
    return value


def _as_vector(value, field, length):
    if not isinstance(value, list) or len(value) != length:
        _fail(field, f"must be a list of {length} numbers")
    return np.array([_as_number(v, field) for v in value])


def _as_matrix(value, field, k):
    if not isinstance(value, list) or len(value) != k:
        _fail(field, f"must be a {k}x{k} matrix as {k} row-major rows")
    rows = [_as_vector(row, field, k) for row in value]
    return np.vstack(rows)


def _parse_body(doc, k) -> ControlBody:
    raw = doc.get("body")
    if not isinstance(raw, dict):
        _fail("body", "is required and must be an object")
    kind = raw.get("type")
    if kind not in BODY_KINDS:
        _fail("body.type", f"must be one of {sorted(BODY_KINDS)}, got {kind!r}")
    if kind == "ellipsoid":
        allowed = {"type", "A"}
        body = Ellipsoid(_as_matrix(raw.get("A"), "body.A", k))
    elif kind == "lp_ball":
        allowed = {"type", "p", "r"}
        body = LpBall(p=_as_number(raw.get("p"), "body.p"),
                      radius=_as_number(raw.get("r", 1.0), "body.r"))
    else:
        allowed = {"type", "A", "c"}
        body = TranslatedEllipsoid(_as_matrix(raw.get("A"), "body.A", k),
                                   _as_vector(raw.get("c"), "body.c", k))
    extra = set(raw) - allowed
    if extra:
        _fail("body", f"unknown keys {sorted(extra)}")
    report = body.validate()
    if not report.ok:
        _fail("body", "; ".join(report.violations))
    return body


def _parse_skew(doc, k) -> tuple[SkewMatrix, dict[str, float]]:
    raw = doc.get("M", {})
    if not isinstance(raw, dict):
        _fail("M", 'must map "i,j" keys to numbers')
    entries = {}
    echo = {}
    keys = {}
    for key, value in raw.items():
        parts = str(key).split(",")
        if len(parts) != 2:
            _fail("M", f'key {key!r} must have the form "i,j"')
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            _fail("M", f'key {key!r} must have the form "i,j" with integer i, j')
        if not (1 <= i < j <= k):
            _fail("M", f"key {key!r} must satisfy 1 <= i < j <= {k}")
        if (i, j) in keys:
            _fail("M", f"keys {keys[(i, j)]!r} and {key!r} both name the pair ({i}, {j})")
        keys[(i, j)] = key
        entries[(i, j)] = _as_number(value, f"M[{key}]")
        echo[f"{i},{j}"] = entries[(i, j)]
    return SkewMatrix.from_entries(k, entries), echo


def _parse_tolerances(doc) -> IntegrationOptions:
    raw = doc.get("tolerances", {})
    if not isinstance(raw, dict):
        _fail("tolerances", "must be an object")
    extra = set(raw) - _TOLERANCE_KEYS
    if extra:
        _fail("tolerances", f"unknown keys {sorted(extra)}; known: {sorted(_TOLERANCE_KEYS)}")
    try:
        return IntegrationOptions(**raw)
    except InputError as err:
        # IntegrationOptions names the offending field first.
        name, _, message = str(err).partition(" ")
        _fail(f"tolerances.{name}", message)


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and build the runtime objects."""
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise InputError(f"unknown config field(s) {sorted(extra)}")

    k = _as_int(doc, "k", minimum=2)
    body = _parse_body(doc, k)
    if body.dim is not None and body.dim != k:
        _fail("body", f"has dimension {body.dim} but k = {k}")
    skew, echo = _parse_skew(doc, k)
    h0 = _as_vector(doc.get("h0"), "h0", k) if "h0" in doc else _fail("h0", "is required")

    t1 = _as_number(doc.get("t1", 10.0), "t1")
    if t1 <= 0.0:
        _fail("t1", f"must be > 0, got {t1}")
    samples = _as_int(doc, "samples", default=1000, minimum=1)
    seed = _as_int(doc, "seed", default=42, minimum=0)
    options = _parse_tolerances(doc)

    grad_raw = doc.get("gradcheck", {})
    if not isinstance(grad_raw, dict):
        _fail("gradcheck", "must be an object")
    extra = set(grad_raw) - _GRADCHECK_KEYS
    if extra:
        _fail("gradcheck", f"unknown keys {sorted(extra)}")
    gradcheck_points = _as_int(grad_raw, "points", default=1000, minimum=1)
    gradcheck_step = _as_number(grad_raw.get("step", 1e-6), "gradcheck.step")
    if gradcheck_step <= 0.0:
        _fail("gradcheck.step", "must be positive")

    sweep_raw = doc.get("sweep", [])
    if not isinstance(sweep_raw, list):
        _fail("sweep", "must be a list of h0 vectors")
    sweep = tuple(_as_vector(v, f"sweep[{n}]", k) for n, v in enumerate(sweep_raw))

    return RunConfig(k=k, body=body, skew=skew, h0=h0, t1=t1, samples=samples,
                     seed=seed, options=options, gradcheck_points=gradcheck_points,
                     gradcheck_step=gradcheck_step, sweep=sweep, skew_entries=echo)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise InputError(f"cannot read config file {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"config file {path} is not valid JSON: {err}") from err
    return parse_config(doc)
