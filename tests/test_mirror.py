"""Reflection in the x axis is a symmetry of the swimmer, exactly in floats.

The mirror sends (x, y, theta, alpha1, alpha2) to (x, -y, -theta, -alpha1,
-alpha2), the rest angle alpha0 to -alpha0, the body-frame field (H_par,
H_perp) to (H_par, -H_perp), and the demand's y coordinates, heading, phase
and angular rate to their negatives. The kernel maps each mirrored input to
the mirrored derivative bit for bit, and D to itself. The NDF's Jacobian
probe steps along the sign of the slope, so every shipped simulation, run
under the NDF, mirrors too: the same steps, and the sign-flipped record. A
sign error in a kernel term, a column or a preset breaks these equalities.
LSODA's difference quotients do not change sign with the state, so its runs
mirror only to within a bound.
"""
import copy
import json
import math

import numpy as np
import pytest

from bentswimmer.dynamics import _raw_state_derivative
from bentswimmer.integrators import METHOD_RK45, METHOD_TRAPEZOIDAL
from bentswimmer.scenario import run_scenario, scenario_from_dict
from bentswimmer.tracking import tracking_determinant

from conftest import read_record, table1

# the sign each CSV column takes under the mirror: t, x, y, theta, alpha1,
# alpha2, h_par, h_perp, h_x, h_y, d_value
CSV_FLIP = np.array([1, 1, -1, -1, -1, -1, 1, -1, 1, -1, 1])
SIMULATIONS = ["table1_circle", "table1_line_ok", "table1_line_blowup", "table1_relaxation",
               "table1_waypoints"]
# the largest gap over x, y, theta, alpha1 and alpha2 between a mirrored
# LSODA run and the sign-flipped plain one: 3x the 1.33e-15 and 1.92e-7
# measured (um and rad)
LSODA_BOUNDS = {"table1_relaxation": 4e-15, "table1_waypoints": 6e-7}
# the demand keys the mirror negates, by preset
DEMAND_FLIP = {"line": ("start_y_um", "heading_rad"),
               "circle": ("center_y_um", "angular_rate_rad_s", "phase_rad"),
               "waypoint_spline": ("y_um",)}


def seeded_inputs(n: int = 1000):
    """n (state, H_par, H_perp, alpha0): states anywhere in the plane with
    joint angles inside the shape square, fields up to 1e6 uT."""
    rng = np.random.default_rng(16)
    z = np.column_stack([rng.uniform(-50.0, 50.0, (n, 2)),
                         rng.uniform(-math.pi, math.pi, n),
                         rng.uniform(-3.0, 3.0, (n, 2))])
    h = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-2.0, 6.0, (n, 2))
    alpha0 = rng.uniform(-3.0, 3.0, n)
    return zip(z.tolist(), h[:, 0].tolist(), h[:, 1].tolist(), alpha0.tolist())


def bits(values: list[float]) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def test_state_derivative_commutes_with_the_mirror():
    gaps = 0
    for (x, y, theta, a1, a2), hp, hq, alpha0 in seeded_inputs():
        xd, yd, thd, a1d, a2d = _raw_state_derivative([x, y, theta, a1, a2], hp, hq,
                                                      table1(alpha0))
        mirrored = _raw_state_derivative([x, -y, -theta, -a1, -a2], hp, -hq, table1(-alpha0))
        gaps += bits(mirrored) != bits([xd, -yd, -thd, -a1d, -a2d])
    assert gaps == 0


def test_tracking_determinant_is_even_under_the_mirror():
    gaps = 0
    for (_, _, _, a1, a2), _, _, alpha0 in seeded_inputs():
        gaps += (bits([tracking_determinant(-a1, -a2, table1(-alpha0))])
                 != bits([tracking_determinant(a1, a2, table1(alpha0))]))
    assert gaps == 0


def mirrored(doc: dict) -> dict:
    """A closed- or open-loop scenario reflected in the x axis."""
    doc = copy.deepcopy(doc)
    for key in ("y_um", "theta_rad", "alpha1_rad", "alpha2_rad"):
        doc["initial"][key] = -doc["initial"][key]
    doc["params"]["alpha0_rad"] = -doc["params"]["alpha0_rad"]
    if "trajectory" in doc:
        traj = doc["trajectory"]
        for key in DEMAND_FLIP[traj["preset"]]:
            if key in traj:  # phase_rad is optional
                traj[key] = np.negative(traj[key]).tolist()
    for piece in doc.get("field_program", ()):
        piece["h_perp_uT"] = -piece["h_perp_uT"]
    return doc


def run_both(doc: dict, tmp_path):
    """(summary, record data) of the scenario and of its mirror image."""
    runs = []
    for label, d in (("plain", doc), ("mirrored", mirrored(doc))):
        scn = scenario_from_dict(d, name=label)
        summary = run_scenario(scn, tmp_path / label)
        runs.append((summary, read_record(tmp_path / label / scn.outputs.csv).data))
    return runs


@pytest.mark.parametrize("name", SIMULATIONS)
def test_ndf_run_writes_the_sign_flipped_csv(name, scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = METHOD_RK45  # the NDF
    (summary, data), (summary_m, data_m) = run_both(doc, tmp_path)
    assert summary_m["termination"] == summary["termination"]
    assert summary_m["exit_code"] == summary["exit_code"]
    assert summary_m["integrator"] == summary["integrator"]
    assert summary_m["t_stop_s"] == summary["t_stop_s"]
    # equal as doubles: a zero may change its sign
    np.testing.assert_array_equal(data_m, data * CSV_FLIP)


@pytest.mark.parametrize("name", sorted(LSODA_BOUNDS))
def test_lsoda_run_mirrors_within_its_bound(name, scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
    assert doc["integrator"]["method"] == METHOD_TRAPEZOIDAL  # LSODA
    (summary, data), (summary_m, data_m) = run_both(doc, tmp_path)
    assert summary["termination"] == summary_m["termination"] == "completed"
    np.testing.assert_array_equal(data_m[:, 0], data[:, 0])
    gap = float(np.abs(data_m[:, 1:6] - data[:, 1:6] * CSV_FLIP[1:6]).max())
    print(f"{name}: mirror gap {gap:.3e}")
    assert gap <= LSODA_BOUNDS[name]
