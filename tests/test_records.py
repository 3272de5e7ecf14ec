"""The CSV writer's float kernel against repr, and its memory per block."""
import tracemalloc

import numpy as np
import pytest

from bentswimmer import records
from oracles import FLOAT_FAMILIES, NOTATION_EDGES, float_family, repr_rows


def write_and_read(tmp_path, data: np.ndarray, header: str = "h") -> bytes:
    path = tmp_path / "rows.csv"
    records.write_rows(path, header, data)
    return path.read_bytes()


def as_rows(values: np.ndarray, cols: int) -> np.ndarray:
    """values padded with 1.0 to whole rows of cols."""
    return np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)


@pytest.mark.parametrize("family", FLOAT_FAMILIES)
def test_write_rows_is_the_repr_join_on_each_family(tmp_path, family):
    rng = np.random.default_rng(26)
    for cols in (11, 3):
        data = as_rows(float_family(family, rng, 30_000), cols)
        assert write_and_read(tmp_path, data) == repr_rows("h", data)


def test_write_rows_is_the_repr_join_at_the_notation_edges(tmp_path):
    # each edge, its negation and both neighbours, alone on a row and among
    # others, so that every block layout sees them
    edges = np.array(NOTATION_EDGES)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        values = np.concatenate([edges, -edges, np.nextafter(edges, -np.inf),
                                 np.nextafter(edges, np.inf)])
    for data in (values[:, None], as_rows(values, 11), as_rows(values, 7)):
        assert write_and_read(tmp_path, data) == repr_rows("h", data)
    assert write_and_read(tmp_path, np.array([[1e-05, 1e16, 9999999999999998.0]])) == \
        b"h\n1e-05,1e+16,9999999999999998.0\n"


def test_kernel_formats_the_common_path_itself():
    # repr is only the fallback: +-0.0 and normal doubles below 2**50 take
    # the integer path unless their mantissa ends in q - 2 zero bits, which
    # a few random mantissas of the largest ones do
    rng = np.random.default_rng(5)
    x = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300, 15, 20_000)
    x[:2] = (0.0, -0.0)
    kernel = records._shortest(x.view(np.int64))[2]
    assert kernel[:2].all() and kernel.mean() > 0.99
    off_path = np.array([0.5, 3.0, 2.0**60, np.nan, 5e-324])
    assert not records._shortest(off_path.view(np.int64))[2].any()


def test_write_rows_memory_is_one_block_not_the_record(tmp_path):
    # tracemalloc sees numpy's buffers: the writer's peak is set by one block
    # of _CSV_BLOCK_ROWS rows, so a 5x longer record peaks the same. Measured
    # 0.65 MiB for both with 300-row blocks (numpy 2.4); the bound is 1.5x that.
    rng = np.random.default_rng(7)
    peaks = []
    for n in (20_000, 100_000):
        data = rng.standard_normal((n, len(records.CSV_COLUMNS)))
        tracemalloc.start()
        try:
            records.write_rows(tmp_path / f"{n}.csv", records.CSV_HEADER, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 1.0 * 2**20
