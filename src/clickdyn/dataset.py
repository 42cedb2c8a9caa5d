"""CSV/JSON dataset emission.

Every analysis writes one CSV per curve (or surface slice) plus a single
JSON manifest per run.  ``format_value`` defines the one text of each
value; floats take 17 significant digits (``%.17g``), so a round-trip read
reproduces them bit-exactly.  Line endings are LF.  A dataset's rows come
in one of two forms: a list of tuples, written cell by cell through
``format_value``, or a 2-D float64 array, written by one array pass
(``_csv_text``) that gives every value the same text ``format_value`` gives
it.  ``read_csv`` is the round-trip reader of this format.
The manifest echoes the fully-resolved configuration together with a
content hash of it, so identical configurations produce byte-identical
artifacts.  It is strict JSON: a non-finite value in it raises ValueError.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


@dataclass
class Dataset:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple] | np.ndarray     # tuples, or a 2-D float64 array
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.rows, np.ndarray):
            if self.rows.ndim != 2 or self.rows.dtype != np.float64:
                raise ValueError(
                    f"dataset {self.name!r}: array rows must be 2-D float64, "
                    f"got {self.rows.ndim}-D {self.rows.dtype}")
            wrong = {self.rows.shape[1]} - {len(self.columns)}
        else:
            wrong = set(map(len, self.rows)) - {len(self.columns)}
        if wrong:
            raise ValueError(
                f"dataset {self.name!r}: row width {min(wrong)} != "
                f"{len(self.columns)} columns"
            )


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# The array pass.  For 1e-10 <= |x| < 1e15 the 17 digits of '%.17g' are
# N = |x|*10**q rounded half to even, q = 16 - X, X = floor(log10|x|), so
# that 10**16 <= N < 10**17.  With |x| = m*2**e (m < 2**53) that is m*5**q
# (q <= 27: at most 117 bits, from four 32x32-bit partial products) shifted
# right by s = -(e + q), 1 <= s <= 60: the fixed-width route of Adams,
# "Ryu", PLDI 2018.  Each value fills one _SLOT-byte slot of six words:
# the sign and a "0.000" prefix, then the first digit and each later one
# followed by a dot slot, then "e-XX" and the separator.  A template per
# (X, significant digits kept, sign, last column) holds the fixed
# characters, 0xFF where a digit is kept and NUL elsewhere; ANDed with the
# digit words (0xFF outside the digits) and stripped of its NULs it is the
# text.  0, inf and nan have templates of their own (X slots _ZERO, _INF,
# _NAN); subnormals and other values outside the range take format_value's
# text.  Below _ARRAY_MIN cells '%.17g' per value is cheaper (on a 2-core
# x86 VM: the pass about 70 us plus 0.12 us a value, '%.17g' 0.55 us).
_LO, _HI = 1e-10, 1e15
_SLOT = 48
_BLOCK = 65536              # values per pass: bounds the temporaries
_ARRAY_MIN = 160
_ZERO, _INF, _NAN = 25, 26, 27
_U = np.uint64


def _template(xi: int, k: int) -> bytes:
    """Slot of X = xi - 10 (or _ZERO, _INF, _NAN) with k digits kept."""
    t = bytearray(_SLOT)
    if xi >= _ZERO:
        t[1:4] = {_ZERO: b"0\0\0", _INF: b"inf", _NAN: b"nan"}[xi]
        return bytes(t)
    x = xi - 10
    lead = 1 if x < 0 else x + 1            # digits before the point
    if -4 <= x < 0:
        t[1:2 - x] = b"0." + b"0" * (-x - 1)
    for i in range(max(k, lead)):           # digit i at byte 6 + 2*i
        t[6 + 2 * i] = 0xFF
    if not -4 <= x < 0 and k > lead:
        t[5 + 2 * lead] = ord(".")
    if x < -4:
        t[40:44] = b"e-%02d" % -x
    return bytes(t)


@functools.cache
def _tables():
    """(5**q split in 32-bit words, digit words, digits kept through each
    4-digit group, templates), built on first use."""
    pow5 = np.array([5**q for q in range(28)], _U)
    g = np.arange(10000)
    # rows g < 10000: a 4-digit group, each digit followed by 0xFF (words
    # 1-4); rows 10000 + d: digit d in byte 6 (word 0); row 10010: word 5
    words = np.full((10011, 8), 0xFF, np.uint8)
    words[:10000, ::2] = 48 + g[:, None] // [1000, 100, 10, 1] % 10
    words[10000:10010, 6] = 48 + np.arange(10)
    # kept[j][g]: the digits of N up to its last nonzero one if that lies
    # in group j + 1, else 0 (but 1 for j = 0: the first digit is kept)
    sig = np.where(g > 0, 4 - (g % 10 == 0) - (g % 100 == 0)
                   - (g % 1000 == 0), 0)
    kept = np.where(sig > 0, 1 + 4 * np.arange(4)[:, None] + sig,
                    0).astype(np.uint8)
    kept[0, 0] = 1
    base = np.frombuffer(b"".join(_template(xi, k) for xi in range(28)
                                  for k in range(1, 18)), np.uint8)
    templates = np.empty((28, 17, 2, 2, _SLOT), np.uint8)
    templates[...] = base.reshape(28, 17, 1, 1, _SLOT)
    templates[:_NAN, :, 1, :, 0] = ord("-")
    templates[..., 44] = [ord(","), ord("\n")]
    return (pow5 & 0xFFFFFFFF, pow5 >> 32, words.view(_U).ravel(),
            kept, templates.view(_U).reshape(-1, _SLOT // 8))


def _digits(x, X, pow5_lo, pow5_hi):
    """(N, X): N = x*10**(16 - X) rounded half to even with X moved so that
    10**16 <= x*10**(16 - X) < 10**17, for 1e-10 <= x < 1e15 and X =
    floor(log10 x) or one off it.  N never rounds up to 10**17: that takes
    a double within 5e-18 (relative) below a power of ten, and there is
    none from 1e-10 to 1e15.  pow5_lo, pow5_hi: the 32-bit words of 5**q
    by q."""
    q = 16 - X
    p_lo, p_hi = pow5_lo[q], pow5_hi[q]
    b = x.view(_U)
    m_lo = b & 0xFFFFFFFF
    m_hi = (b >> 32) & 0xFFFFF | 0x100000
    lo = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo64 = lo + (mid << 32)
    hi64 = m_hi * p_hi + (mid >> 32) + (lo64 < lo)
    s = (X + 1059).astype(_U) - (b >> 52)        # 1075 - 16 + X - e
    t = (hi64 << (64 - s)) | (lo64 >> s)
    one = 1 << s
    n = t + ((lo64 & (one - 1)) + (t & 1) > (one >> 1))
    off = t - 10**16 >= 9 * 10**16               # floor(log10) was one off
    if off.any():
        n[off], X[off] = _digits(x[off], X[off] + np.where(
            t[off] < 10**16, -1, 1), pow5_lo, pow5_hi)
    return n, X


def _csv_text(a: np.ndarray) -> str:
    """CSV lines of the rows of a 2-D float64 array, each value written as
    ``format_value`` writes it."""
    if a.size < _ARRAY_MIN:
        line = ",".join(["%.17g"] * a.shape[1]) + "\n"
        return "".join(map(line.__mod__, map(tuple, a.tolist())))
    pow5_lo, pow5_hi, words, kept, templates = _tables()
    flat = a.ravel()
    mag = np.abs(flat)
    fast = (mag >= _LO) & (mag < _HI)
    x = np.where(fast, mag, 1.0)
    n, X = _digits(x, np.floor(np.log10(x)).astype(np.int64), pow5_lo,
                   pow5_hi)
    # digit word indices: the first digit, four 4-digit groups, word 5
    idx = np.empty((flat.size, 6), np.int64)
    n = n.view(np.int64)
    h = n // 10**8
    l = n - h * 10**8
    d = h // 10**4
    idx[:, 0] = d // 10**4
    idx[:, 1] = d - idx[:, 0] * 10**4
    idx[:, 2] = h - d * 10**4
    idx[:, 3] = l // 10**4
    idx[:, 4] = l - idx[:, 3] * 10**4
    k = np.maximum(np.maximum(kept[0][idx[:, 1]], kept[1][idx[:, 2]]),
                   np.maximum(kept[2][idx[:, 3]], kept[3][idx[:, 4]]))
    idx[:, 0] += 10000
    idx[:, 5] = 10010
    xi = X + 10                 # template row: X, or _ZERO, _INF, _NAN
    slow = np.flatnonzero(~fast)
    v = mag[slow]
    xi[slow] = np.where(v == 0.0, _ZERO, np.where(v == np.inf, _INF, _NAN))
    key = (xi * 17 + k - 1) * 4 + np.signbit(flat) * 2
    key.reshape(a.shape)[:, -1] += 1
    out = np.take(templates, key, axis=0)
    out &= np.take(words, idx)
    # subnormals and values outside [1e-10, 1e15) take format_value's text
    other = slow[(v > 0.0) & (v < np.inf)]
    if other.size:
        cols = a.shape[1]
        text = b"".join(
            (format_value(val) + ("\n" if i % cols == cols - 1 else ","))
            .encode().ljust(_SLOT, b"\0")
            for i, val in zip(other.tolist(), flat[other].tolist()))
        out[other] = np.frombuffer(text, _U).reshape(-1, _SLOT // 8)
    return out.tobytes().translate(None, b"\0").decode()


def emit_dataset(ds: Dataset, path: Path) -> Path:
    if isinstance(ds.rows, np.ndarray):     # written block by block
        step = max(1, _BLOCK // max(1, len(ds.columns)))
        body = (_csv_text(ds.rows[i:i + step])
                for i in range(0, len(ds.rows), step))
    else:
        body = ["".join(",".join(map(format_value, row)) + "\n"
                        for row in ds.rows)]
    path = Path(path)
    with path.open("w", newline="\n") as f:
        f.write(",".join(ds.columns) + "\n")
        f.writelines(body)
    return path


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def emit_manifest(datasets: list[Dataset], config: dict, path: Path) -> Path:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_hash": config_hash(config),
        "files": {
            ds.name: {
                "columns": list(ds.columns),
                "rows": len(ds.rows),
                "metadata": ds.metadata,
            }
            for ds in datasets
        },
    }
    path = Path(path)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2,
                               allow_nan=False) + "\n", newline="\n")
    return path


def read_csv(path: Path) -> tuple[tuple[str, ...], list[tuple]]:
    """Round-trip reader for emitted CSVs (floats where possible)."""
    header, *lines = Path(path).read_text().split("\n")[:-1]
    columns = tuple(header.split(","))
    rows = []
    for ln in lines:
        vals = []
        for tok in ln.split(","):
            try:
                vals.append(float(tok))
            except ValueError:
                vals.append(tok)
        rows.append(tuple(vals))
    return columns, rows
