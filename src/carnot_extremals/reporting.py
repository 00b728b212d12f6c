"""Deterministic JSON and CSV writers.

Reports must be byte-identical across runs for a fixed config and seed, so
floats are rendered with a fixed 17-significant-digit format instead of the
shortest-roundtrip repr, and key order follows insertion order of the report
builders.  CSV output uses '.' decimals, ',' separators, a header row and no
quoting.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError

FLOAT_FORMAT = "%.17g"
_CSV_BLOCK = 256  # rows rendered per % operation by write_csv


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise InputError(f"reports cannot carry non-finite numbers, got {value!r}")
    return FLOAT_FORMAT % value


def jsonify(obj):
    """Convert numpy containers/scalars into plain Python equivalents."""
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def _encode(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{_encode(str(key), indent, level)}: {_encode(value, indent, level + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise InputError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(report: dict, indent: int = 2) -> str:
    """Serialize a report dict to deterministic JSON text (trailing newline)."""
    return _encode(jsonify(report), indent, 0) + "\n"


def write_report(path, report: dict) -> str:
    text = dumps_report(report)
    Path(path).write_text(text)
    return text


def write_csv(path, header: list[str], rows) -> None:
    """Write a 2-d array of numbers under a header; floats use the report format.

    Finiteness is checked once for the whole array.  Rows are rendered in
    blocks of _CSV_BLOCK, each by a single % operation on the line template
    repeated once per row, so only one block is held as Python floats.
    """
    rows = np.asarray(rows, dtype=float)
    finite = np.isfinite(rows)
    if not finite.all():
        format_float(float(rows[~finite][0]))  # raises, naming the value
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
