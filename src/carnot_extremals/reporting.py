"""Deterministic JSON and CSV writers.

Reports must be byte-identical across runs for a fixed config and seed, so
floats are rendered with a fixed 17-significant-digit format instead of the
shortest-roundtrip repr, and key order follows insertion order of the report
builders.  CSV output uses '.' decimals, ',' separators, a header row and no
quoting.  Its values are rendered by NumPy, a block of rows at a time, with
the bytes of ``%.17g``: the 17 digits come from an exact double-double
product, and the few values that need more (extreme magnitudes, products
within 1e-6 of a rounding tie) are rendered by ``%`` itself.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError

FLOAT_FORMAT = "%.17g"
# Values per block rendered by _render_block.  Its temporaries take about
# 300 bytes a value; 16384-value blocks wrote about 10 % faster, at four
# times the memory.
_CSV_BLOCK = 4096


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise InputError(f"reports cannot carry non-finite numbers, got {value!r}")
    return FLOAT_FORMAT % value


def _encode(obj, indent: int, level: int) -> str:
    """JSON text of obj; NumPy arrays and scalars are written as lists and Python numbers."""
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
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
    return _encode(report, indent, 0) + "\n"


def write_report(path, report: dict) -> str:
    text = dumps_report(report)
    Path(path).write_text(text)
    return text


def write_csv(path, header: list[str], rows) -> None:
    """Write a 2-d array of numbers under a header; floats use the report format.

    Finiteness is checked once for the whole array.  Rows are rendered in
    blocks of about _CSV_BLOCK values by _render_block, which gives the
    bytes of ``%.17g`` on each value.
    """
    rows = np.asarray(rows, dtype=float)
    finite = np.isfinite(rows)
    if not finite.all():
        format_float(float(rows[~finite][0]))  # raises, naming the value
    step = max(1, _CSV_BLOCK // max(1, rows.shape[1]))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows.shape[0], step):
            fh.write(_render_block(rows[start:start + step]))


# -- %.17g in NumPy -----------------------------------------------------------
#
# For a finite x != 0 with E = floor(log10|x|), %.17g prints the 17 digits of
# N = round(|x| 10^(16 - E)), rounded half to even, with E + 1 when N rounds
# up to 10^17, in fixed notation for -4 <= E < 17 and as d.ddde+XX otherwise,
# trailing zeros dropped.  The product is taken as a double-double p + t
# (Dekker's exact two-product times 10^k stored as an exact pair hi + lo);
# its error stays below 1e-14 units of N, so N is exact unless the product
# lies within _TIE of a half-integer, and such values go to % instead.

_POW_MIN, _POW_MAX = -280, 300      # k of the stored pairs 10^k = hi + lo
_FAST = (1e-280, 1e290)             # |x| rendered in NumPy; outside it, by %
_TIE = 1e-6
_EXP_MIN, _EXP_MAX = -330, 330      # decimal exponents of the tail table
_SPLIT = 134217729.0                # 2^27 + 1, Dekker's splitting constant
_CODES = 3 * 21                     # layouts E = -4..16 (E = 0 also for d.ddd) by 3 tails
_FALLBACK = 2 * _CODES * 18         # first keep row of the values rendered by %
_U64 = np.dtype("<u8")              # the byte layout is little-endian on any host


@functools.cache
def _format_tables():
    """Tables of _render_block, built on first use (a few ms)."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            exact = 10 ** k
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            den = 10 ** -k
            hi.append(1 / den)
            num, twos = hi[-1].as_integer_ratio()
            lo.append((twos - num * den) / (den * twos))   # 10^k - hi, rounded once
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = (hi, hi_hi, hi - hi_hi, lo)

    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    chunks = digits.astype(np.uint8).view("<u4").ravel().astype(_U64)  # 4 ASCII digits
    trailing = np.zeros(10000, dtype=np.int64)  # trailing zeros of a 4-digit chunk
    trailing[0] = 4
    for z in (1, 2, 3):
        trailing[(n % 10 ** z == 0) & (n != 0)] = z

    # Per exponent: the layout code, and the tail word 'e-XX' before the separator.
    exps = np.arange(_EXP_MIN, _EXP_MAX + 1)
    fixed = (exps >= -4) & (exps < 17)
    tails = np.zeros((exps.size, 8), dtype=np.uint8)
    for j in np.flatnonzero(~fixed).tolist():
        text = b"e%+03d" % exps[j]
        tails[j, 7 - len(text):7] = np.frombuffer(text, dtype=np.uint8)
    codes = 3 * np.where(fixed, exps + 4, 4) + np.where(fixed, 0, 1 + (np.abs(exps) >= 100))

    # Per code: the 24-byte head '-' d0 d1 ... d16 becomes the layout by
    # keeping the bytes under `low`, adding `const` and shifting the rest
    # left by `shift` bits.  Per (sign, code, significant digits): the mask
    # of the row's 32 bytes that are printed.
    low = np.zeros((_CODES, 24), dtype=np.uint8)
    const = np.zeros((_CODES, 24), dtype=np.uint8)
    shift = np.zeros(_CODES, dtype=_U64)
    ends = np.zeros((_CODES, 18), dtype=np.int64)
    sig = np.arange(18)
    for code in range(_CODES):
        e = code // 3 - 4
        if e >= 0:      # d0..de '.' d(e+1)..d16
            low[code, :e + 2] = 255
            const[code, e + 2] = ord(".")
            shift[code] = 8
        else:           # '0.' then -e - 1 zeros, then d0..d16
            low[code, 0] = 255
            const[code, 1:2 - e] = ord("0")
            const[code, 2] = ord(".")
            shift[code] = 8 * (1 - e)
        whole, lead = max(e, 0) + 1, max(-e, 0)
        ends[code] = np.where(lead + sig > whole, lead + sig + 2, whole + 1)
    col = np.arange(32)
    tail = np.array([1, 5, 6])[np.arange(_CODES) % 3]
    keep = np.zeros((_FALLBACK + 25, 32), dtype=bool)
    for neg in (0, 1):
        block = keep[neg * _CODES * 18:(neg + 1) * _CODES * 18].reshape(_CODES, 18, 32)
        block[...] = (col >= 1 - neg) & (col < ends[..., None])
        block |= col >= (32 - tail)[:, None, None]
    keep[_FALLBACK:] = (col < np.arange(25)[:, None]) | (col == 31)
    keep = (keep.view(np.uint8) * 255).view(_U64)
    return (powers, chunks, trailing, tails.view(_U64).ravel(), codes, low.view(_U64),
            const.view(_U64), shift, keep)


def _scaled(a, e, powers):
    """|x| 10^(16 - e) as the double-double p + t."""
    hi, hi_hi, hi_lo, lo = (np.take(w, 16 - _POW_MIN - e) for w in powers)
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    t = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    t += a * lo
    return p, t


def _render_block(block: np.ndarray) -> bytes:
    """The bytes of %.17g on every value of a finite 2-d block, ',' after each but the last of a row.

    Each value gets a row of four 64-bit words: three for its sign and
    digits in their layout, one for the exponent and separator; a mask
    drops the bytes not printed, and the zero bytes are squeezed out.
    """
    powers, chunks, trailing, tails, codes, low, const, shift, keep = _format_tables()
    rows, cols = block.shape
    if not cols:
        return b"\n" * rows
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= _FAST[0]) & (a < _FAST[1])
    zero = a == 0.0
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, e, powers)
    below = (p < 1e16) | (p == 1e16) & (t < 0.0)
    off = np.flatnonzero(below | (p > 1e17) | (p == 1e17) & (t >= 0.0))
    if off.size:    # log10 missed by one next to a power of ten
        e[off] += np.where(below[off], -1, 1)
        p[off], t[off] = _scaled(a[off], e[off], powers)
    r = np.rint(t)
    t -= r
    digits = p.astype(np.int64)     # p >= 1e16 > 2^53 is an integer
    digits += r.astype(np.int64)
    slow = np.flatnonzero(~(fast | zero) | (np.abs(np.abs(t) - 0.5) < _TIE))
    carry = np.flatnonzero(digits >= 10 ** 17)
    if carry.size:
        digits[carry] //= 10
        e[carry] += 1
    digits[zero] = 0
    e[zero] = 0

    high = digits // 10 ** 8
    c34 = (digits - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    d0 = high // 10 ** 8
    c12 = high - d0 * 10 ** 8
    c1 = c12 // 10 ** 4
    c3 = c34 // 10 ** 4
    c2, c4 = c12 - c1 * 10 ** 4, c34 - c3 * 10 ** 4
    w = np.empty((x.size, 4), dtype=_U64)
    w0, w1, w2 = w[:, 0], w[:, 1], w[:, 2]
    ch1, ch2, ch3, ch4 = (np.take(chunks, c) for c in (c1, c2, c3, c4))
    np.left_shift(d0.astype(_U64), np.uint64(8), out=w0)     # bytes '-' d0 c1 c2 c3 c4
    w0 |= np.uint64(ord("0") * 256 + ord("-"))
    w0 |= ch1 << np.uint64(16)
    w0 |= ch2 << np.uint64(48)
    np.right_shift(ch2, np.uint64(16), out=w1)
    w1 |= ch3 << np.uint64(16)
    w1 |= ch4 << np.uint64(48)
    np.right_shift(ch4, np.uint64(16), out=w2)

    significant = 17 - np.take(trailing, c4)
    few = np.flatnonzero(c4 == 0)
    if few.size:
        z1, z2, z3 = (np.take(trailing, c[few]) for c in (c1, c2, c3))
        significant[few] = 17 - np.where(c3[few] != 0, 4 + z3, np.where(
            c2[few] != 0, 8 + z2, np.where(c1[few] != 0, 12 + z1, 16)))
    exp = e - _EXP_MIN
    code = np.take(codes, exp)
    bits = np.take(shift, code)
    back = np.uint64(64) - bits
    kept = np.take(low, code, axis=0)
    moved0, moved1, moved2 = (w[:, i] & ~kept[:, i] for i in range(3))
    w[:, :3] &= kept
    w[:, :3] |= np.take(const, code, axis=0)
    w2 |= (moved2 << bits) | (moved1 >> back)
    w1 |= (moved1 << bits) | (moved0 >> back)
    w0 |= moved0 << bits
    separators = np.full(cols, ord(","), dtype=_U64)
    separators[-1] = ord("\n")
    separators <<= np.uint64(56)
    np.bitwise_or(np.take(tails, exp), np.tile(separators, rows), out=w[:, 3])

    mask = code * 18
    mask += significant
    mask += np.signbit(x) * (_CODES * 18)
    if slow.size:
        head = w.view(np.uint8)
        for i in slow.tolist():
            text = (FLOAT_FORMAT % float(x[i])).encode()
            head[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
            mask[i] = _FALLBACK + len(text)
    w &= np.take(keep, mask, axis=0)
    out = w.view(np.uint8).ravel()
    return np.compress(out != 0, out).tobytes()
