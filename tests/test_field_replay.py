"""Replay the field a closed-loop run prints, with the package's own NDF.

The closed loop prints the field it solved for twice: in the body frame
(h_par, h_perp) and in the lab frame (h_x, h_y), rotated by the swimmer's
theta. The shipped line, table1_line_ok, is replayed open loop from its CSV,
the field interpolated linearly between samples:
- held in the body frame, as a field program applies it, the replay follows
  the record to the interpolation's error;
- held in the lab frame, as coils would apply it, the replay leaves the path.
  The feedback holds the swimmer against magnetic alignment, where the shape
  dynamics under a fixed lab field are unstable (growth rates near 7e4
  s^-1), so the printed field is a state feedback, not an open-loop control.
A sign error in a field column, in the lab-frame rotation or in the feedback
solve breaks the first two checks.
"""
import json
import math

import numpy as np
import pytest

from bentswimmer.dynamics import _raw_state_derivative
from bentswimmer.integrators import METHOD_RK45, STATUS_COMPLETED, IntegratorOptions, integrate
from bentswimmer.scenario import run_scenario, scenario_from_dict

from conftest import SCENARIO_DIR, read_record

# the replays' tolerances: the gaps below are the interpolation's, and read
# the same at 1e-7 and 1e-11
REPLAY_TOL = 1e-6
STATE = ("x", "y", "theta", "alpha1", "alpha2")


@pytest.fixture(scope="module")
def line_ok(tmp_path_factory):
    """The shipped line's params and CSV record, its snapshots dropped."""
    doc = json.loads((SCENARIO_DIR / "table1_line_ok.json").read_text(encoding="utf-8"))
    for key in ("geometry_dir", "snapshot_times_s"):
        del doc["outputs"][key]
    scn = scenario_from_dict(doc)
    outdir = tmp_path_factory.mktemp("line_ok")
    assert run_scenario(scn, outdir)["termination"] == "completed"
    return scn.params, read_record(outdir / scn.outputs.csv)


def replay(params, record, lab_frame: bool):
    """The record's start integrated under its printed field, held in the
    body or the lab frame; the replayed states at the record's times."""
    t = record.column("t")
    if lab_frame:
        hx, hy = record.column("h_x"), record.column("h_y")

        def rhs(tq, z):
            ax, ay = float(np.interp(tq, t, hx)), float(np.interp(tq, t, hy))
            c, s = math.cos(z[2]), math.sin(z[2])
            return _raw_state_derivative(z, c * ax + s * ay, c * ay - s * ax, params)
    else:
        hp, hq = record.column("h_par"), record.column("h_perp")

        def rhs(tq, z):
            return _raw_state_derivative(
                z, float(np.interp(tq, t, hp)), float(np.interp(tq, t, hq)), params)

    z0 = record.data[0, 1:6].tolist()
    result = integrate(rhs, z0, (t[0], t[-1]),
                       IntegratorOptions(METHOD_RK45, REPLAY_TOL, REPLAY_TOL))
    assert result.status == STATUS_COMPLETED
    return result.sample(t)


def gaps(record, states):
    """The largest position gap (um) and angle gap (rad) to the record."""
    want = np.column_stack([record.column(k) for k in STATE])
    position = np.hypot(*(states[:, :2] - want[:, :2]).T).max()
    return float(position), float(np.abs(states[:, 2:] - want[:, 2:]).max())


def test_lab_field_rotates_back_to_the_body_field(line_ok):
    # h_x + i h_y = e^(i theta) (h_par + i h_perp), row by row, to rounding:
    # measured at most 3.7e-16 of the row's field (fields up to 4.2e5 uT),
    # so the bound leaves 3x
    _, record = line_ok
    theta = record.column("theta")
    c, s = np.cos(theta), np.sin(theta)
    hx, hy = record.column("h_x"), record.column("h_y")
    norm = np.hypot(hx, hy)
    assert (norm > 0.0).all()
    for got, want in ((c * hx + s * hy, record.column("h_par")),
                      (c * hy - s * hx, record.column("h_perp"))):
        assert (np.abs(got - want) <= 1.1e-15 * norm).all()


def test_body_field_replay_follows_the_record(line_ok):
    # measured 2.7e-2 um and 2.7e-3 rad at the 1,000 samples of the CSV,
    # the error of the linear interpolation; the bounds leave 3x
    position, angle = gaps(line_ok[1], replay(*line_ok, lab_frame=False))
    print(f"body-frame replay gaps: {position:.3e} um, {angle:.3e} rad")
    assert position <= 8.1e-2 and angle <= 8.1e-3


def test_lab_field_replay_leaves_the_path(line_ok):
    # measured 26.9 um from the record, over five times the 5 um path, and
    # 3.05 rad; the bounds are a third of that
    position, angle = gaps(line_ok[1], replay(*line_ok, lab_frame=True))
    print(f"lab-frame replay gaps: {position:.3e} um, {angle:.3e} rad")
    assert position >= 9.0 and angle >= 1.0
