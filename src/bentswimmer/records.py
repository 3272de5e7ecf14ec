"""Time-series records and their CSV serialization."""
from __future__ import annotations

from dataclasses import dataclass, replace

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
_CSV_BLOCK_ROWS = 200


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
    """Fill h_x, h_y = rotation by theta of (h_par, h_perp), rowwise."""
    data = record.data.copy()
    theta = data[:, CSV_COLUMNS.index("theta")]
    hp = data[:, CSV_COLUMNS.index("h_par")]
    hq = data[:, CSV_COLUMNS.index("h_perp")]
    c = np.cos(theta)
    s = np.sin(theta)
    data[:, CSV_COLUMNS.index("h_x")] = c * hp - s * hq
    data[:, CSV_COLUMNS.index("h_y")] = s * hp + c * hq
    return replace(record, data=data)


def write_csv(record: SimRecord, path) -> None:
    """The record's rows under CSV_HEADER, as write_rows writes them."""
    write_rows(path, CSV_HEADER, record.data)


def write_rows(path, header: str, data: np.ndarray) -> None:
    """The header line, then one line per row of the 2-D float array data.

    UTF-8, LF line endings, '.' decimal separator, round-trip precision:
    repr gives the shortest decimal string that round-trips to the same
    double, and "nan" for every NaN. Rows are converted and written in blocks
    of _CSV_BLOCK_ROWS, so neither the whole table as Python floats nor the
    whole text exists at once.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            rows = data[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


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


def read_csv(path) -> SimRecord:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return SimRecord(data=np.array(rows).reshape(-1, len(CSV_COLUMNS)))


__all__ = [
    "CSV_COLUMNS",
    "CSV_HEADER",
    "SimRecord",
    "emit_lab_frame_controls",
    "write_csv",
    "write_rows",
    "write_grid",
    "read_csv",
]
