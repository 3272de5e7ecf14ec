import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bentswimmer.dynamics import mobility_entries
from bentswimmer.model import SwimmerParams
from bentswimmer.records import CSV_HEADER, SimRecord

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def table1(alpha0: float = math.pi / 3) -> SwimmerParams:
    """The tabulated parameter set with a chosen rest angle."""
    return SwimmerParams.from_table_units(
        ell_um=10.0,
        eta_N_s_m2=12.4e-3,
        xi_N_s_m2=6.2e-3,
        m1_A_um2=1.6,
        m2_A_um2=2.4,
        m3_A_um2=3.2,
        kappa_N_um=8.3e-7,
        alpha0_rad=alpha0,
    )


def drag_matrix(alpha1: float, alpha2: float, params: SwimmerParams) -> np.ndarray:
    """The closed-form drag matrix M(alpha1, alpha2) as an array."""
    return np.array(mobility_entries(alpha1, alpha2, params.ell, params.xi, params.eta))


def read_record(path) -> SimRecord:
    """A simulation CSV read back by np.loadtxt, once its first line is
    asserted to be CSV_HEADER."""
    with open(path, encoding="utf-8") as fh:
        assert fh.readline() == CSV_HEADER + "\n"
    return SimRecord(data=np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


@pytest.fixture
def params():
    return table1()


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR
