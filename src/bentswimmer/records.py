"""Time-series records and their CSV serialization."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CSV_COLUMNS = (
    "t",
    "x",
    "y",
    "theta",
    "alpha1",
    "alpha2",
    "h_par",
    "h_perp",
    "h_x",
    "h_y",
    "d_value",
)
CSV_HEADER = ",".join(CSV_COLUMNS)
_CSV_BLOCK_ROWS = 300


# Tables of the float kernel (_format_block), built in about 1.5 ms at import:
# powers of ten; the bit length of 5**i, and 5**i scaled to 125 bits as five
# 28-bit limbs, low limb first (Ryu's DOUBLE_POW5_SPLIT); the ASCII of every
# 4-digit group; repr's exponent suffixes e-330 to e+329, NUL-padded.
_M28 = 2**28 - 1
_U10 = np.uint64(10)
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_POW5_BITS = np.array([(5**i).bit_length() for i in range(326)])
_POW5 = np.ascontiguousarray(np.array(
    [[(split >> (28 * k)) & _M28 for k in range(5)]
     for split in ((5**i << 125) >> int(bits) for i, bits in enumerate(_POW5_BITS))],
    dtype=np.int64).T)
_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), np.uint8)
_QUADS = np.concatenate(np.broadcast_arrays(_PAIRS.reshape(100, 1, 2), _PAIRS.reshape(1, 100, 2)),
                        axis=2).view(np.uint32).reshape(-1)
_EXP = np.array([f"e{x:+03d}" for x in range(-330, 330)], dtype="S5").view(np.uint8).reshape(-1, 5)


@dataclass(frozen=True)
class SimRecord:
    """Sampled run output: one row per output time, columns per CSV_COLUMNS.

    h_x, h_y are the lab-frame image of the body-frame field (filled by
    emit_lab_frame_controls). How the run ended, and its counts, are in the
    report returned beside the record (tracking.record_run).
    """

    data: np.ndarray  # shape (n, 11), columns per CSV_COLUMNS

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(
                f"record data must have {len(CSV_COLUMNS)} columns, got "
                f"{self.data.shape!r}"
            )

    def column(self, name: str) -> np.ndarray:
        return self.data[:, CSV_COLUMNS.index(name)]


def emit_lab_frame_controls(record: SimRecord) -> SimRecord:
    """Fill h_x, h_y = rotation by theta of (h_par, h_perp), rowwise, in
    place; returns the record."""
    data = record.data
    theta = data[:, CSV_COLUMNS.index("theta")]
    hp = data[:, CSV_COLUMNS.index("h_par")]
    hq = data[:, CSV_COLUMNS.index("h_perp")]
    c = np.cos(theta)
    s = np.sin(theta)
    data[:, CSV_COLUMNS.index("h_x")] = c * hp - s * hq
    data[:, CSV_COLUMNS.index("h_y")] = s * hp + c * hq
    return record


def write_csv(record: SimRecord, path) -> None:
    """The record's rows under CSV_HEADER, as write_rows writes them."""
    write_rows(path, CSV_HEADER, record.data)


def write_rows(path, header: str, data: np.ndarray) -> None:
    """The header line, then one line per row of the 2-D float array data.

    UTF-8, LF line endings, '.' decimal separator, round-trip precision:
    each line is ",".join(map(repr, row)), so each value is the shortest
    decimal string that round-trips to the same double, "nan" for every NaN.
    _format_block computes those bytes for a block of _CSV_BLOCK_ROWS rows at
    a time with integer arithmetic, and calls repr itself for the values
    outside its common path, so the whole text never exists at once.
    """
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("utf-8"))
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            fh.write(_format_block(data[start:start + _CSV_BLOCK_ROWS]))


def _interval(mv, d, i, j):
    """Ryu's vr, vp, vm: floor((mv + delta) * _POW5[:, i] / 2**j) for delta
    0, 2 and -d. mv < 2**55 and 118 <= j <= 121: every sum fits in int64."""
    x1 = mv >> 28
    x0s = [(mv & _M28) + delta for delta in (0, 2, -d)]
    t = _POW5[0].take(i)
    c = [x0 * t for x0 in x0s]
    for k in range(1, 5):
        x1t = x1 * t
        t = _POW5[k].take(i)
        for n, x0 in enumerate(x0s):
            c[n] = (c[n] >> 28) + x0 * t + x1t
    top = x1 * t
    return [(((ck & _M28) >> (j - 112)) + (((ck >> 28) + top) << (140 - j))).view(np.uint64)
            for ck in c]


def _digits(v, quads):
    """The last 4 * quads ASCII digits of each uint64 in v, zero-padded."""
    out = np.empty((v.size, quads), np.uint32)
    for k in range(quads - 1, -1, -1):
        d = v // np.uint64(10000)
        out[:, k] = _QUADS[v - d * np.uint64(10000)]
        v = d
    return out.view(np.uint8)


def _shortest(v):
    """Ryu's shortest digits out and exponent e10 (x = out * 10**e10) for the
    float64 bits v (int64), and the mask of the lanes they hold for: +-0.0 and
    Ryu's common path for e2 < 0 (a biased exponent of at least 2, q >= 2, so
    |x| < 2**50, and 4*m2 with fewer than q trailing zero bits). The others
    are NaN, infinities, subnormals, |x| >= 2**50 and exact tails like 0.5."""
    b = (v >> 52) & 0x7FF
    m = v & (2**52 - 1)
    e = 1077 - b  # -e2
    q = ((e * 732923) >> 20) - 1  # floor(log10(5**e)) - 1
    mv = (m | 2**52) << 2
    zero = (v << 1) == 0
    tail = mv & ((1 << np.minimum(np.maximum(q, 0), 62)) - 1)
    kernel = ((b >= 2) & (q >= 2) & (tail != 0)) | zero
    i = np.minimum(np.maximum(e - q, 0), 325)
    vr, vp, vm = _interval(mv, 1 + (m != 0), i, q - _POW5_BITS[i] + 125)
    # removed counts the r with vp // 10**r > vm // 10**r; r = 1 always holds,
    # as vp - vm >= 29 on the path
    lives, a, c = [np.arange(v.size)], vp // _U10, vm // _U10
    while lives[-1].size:
        a, c = a // _U10, c // _U10
        more = a > c
        lives.append(lives[-1][more])
        a, c = a[more], c[more]
    removed = np.bincount(np.concatenate(lives), minlength=v.size)
    t = vr // _P10[removed - 1]
    r = t // _U10
    # round up past vm, which is excluded, or when the last digit removed is >= 5
    out = r + ((r == vm // _P10[removed]) | (t - r * _U10 >= 5))
    e10 = q - e + removed
    out[zero] = 0
    e10[zero] = 0
    return out, e10, kernel


def _format_block(block: np.ndarray) -> np.ndarray:
    """The bytes of ",".join(map(repr, row)) + "\\n" per row of block, as a
    uint8 array: _shortest's digits in repr's layout, and repr for the other
    lanes. No float operation is done: the bytes cannot depend on the CPU."""
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    neg = x.view(np.int64) < 0
    out, e10, kernel = _shortest(x.view(np.int64))
    nd = np.maximum(np.searchsorted(_P10, out, side="right"), 1)
    dp = nd + e10  # the value is 0.DIGITS * 10**dp
    # Fixed notation: ip is the integer part with its z zeros, f the value of
    # the k digits after the point (k > 18 only for 0.00ddd). Exponent
    # notation d[.ddd]e+-XX for the lanes xe; repr writes the lanes fb.
    xe = np.flatnonzero(kernel & ((dp < -3) | (dp > 16)))
    fb = np.flatnonzero(~kernel)
    k = np.minimum(np.maximum(-e10, 0), 20)
    z = np.minimum(np.maximum(e10, 0), 19)
    k[xe] = nd[xe] - 1
    z[xe] = 0
    p = _P10[np.minimum(k, 19)]
    ip = out // p
    f = out - ip * p
    ip *= _P10[z]
    lead = np.maximum(dp, 1)
    lead[xe] = 1
    lead[fb] = 0
    # Each lane is the text M[lane, start:end] and a separator at end; the
    # decimal point of every kernel lane sits in column D.
    D = max(int((lead + neg).max()), 1)
    start = D - lead - neg
    end = D + 1 + np.maximum(k, 1)
    ecol = D + np.where(nd[xe] > 1, nd[xe], 0)
    end[xe] = ecol + np.count_nonzero(_EXP[dp[xe] + 329], axis=1)
    W = max(D + 21, int(end.max()) + 1, 25 if fb.size else 0)
    M = np.empty((x.size, W), np.uint8)
    quads = (D + 3) // 4
    M[:, :D] = _digits(ip, quads)[:, 4 * quads - D:]
    M[:, D] = ord(".")
    # the k digits of f, left-aligned in 20 columns: the first 4, then 16
    cut = _P10[np.maximum(k - 4, 0)]
    hi = f // cut
    M[:, D + 5:D + 21] = _digits((f - hi * cut) * _P10[np.minimum(20 - k, 16)], 4)
    M[:, D + 1:D + 5] = _digits(hi * _P10[np.maximum(4 - k, 0)], 1)
    flat = M.reshape(-1)
    row = np.arange(0, M.size, W)
    flat[(row[xe] + ecol)[:, None] + np.arange(5)] = _EXP[dp[xe] + 329]
    flat[(row + start)[neg]] = ord("-")
    texts = [repr(value) for value in x[fb].tolist()]
    M[fb] = np.array(texts, dtype=f"S{W}").view(np.uint8).reshape(-1, W)
    start[fb] = 0
    end[fb] = [len(s) for s in texts]
    sep = np.full(block.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    flat[row + end] = sep.reshape(-1)
    cols = np.arange(W)
    spans = (cols >= np.arange(D + 1)[:, None, None]) & (cols <= np.arange(W)[:, None])
    return flat[np.take(spans.reshape(-1, W), start * W + end, axis=0).reshape(-1)]


def write_grid(path, header: str, grid: np.ndarray, values: np.ndarray) -> None:
    """The header line, then one line grid[i],grid[j],values[i, j] per cell
    of the square table values, row-major: the bytes write_rows writes for
    that column stack. Each grid value is repr'd once, and values is
    converted one row at a time."""
    labels = [repr(v) + "," for v in grid.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for label, row in zip(labels, values):
            fh.write("".join([f"{label}{lj}{d!r}\n" for lj, d in zip(labels, row.tolist())]))


__all__ = [
    "CSV_COLUMNS",
    "CSV_HEADER",
    "SimRecord",
    "emit_lab_frame_controls",
    "write_csv",
    "write_rows",
    "write_grid",
]
