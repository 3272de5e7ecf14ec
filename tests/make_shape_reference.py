"""Write the closed-loop shape reference that
test_tracking.py::test_closed_loop_shape_matches_the_radau_reference reads.

For table1_circle, table1_line_ok and table1_waypoints, integrate the full
five-component dynamics with the public API's solved field,

    zdot = state_derivative(s, solve_tracking_controls(s, f'(t), g'(t), p), p),

by scipy's Radau (rtol 1e-12, atol 1e-13), and keep theta, alpha1 and alpha2
at every tenth sample time of the scenario's record, plus the last. Each
stretch between two kept times is its own solve, so every kept state is a
step end, not an interpolant. Nothing here runs the package's closed-loop
right-hand side or its integrators.

Run from the repository root (about 10 s); the output path defaults to
tests/shape_reference.json:

    PYTHONPATH=src python tests/make_shape_reference.py [OUTPUT]
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp

from bentswimmer.dynamics import state_derivative
from bentswimmer.model import SwimmerState
from bentswimmer.scenario import load_scenario
from bentswimmer.tracking import _sample_times, solve_tracking_controls

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "shape_reference.json"
SCENARIOS = ("table1_circle", "table1_line_ok", "table1_waypoints")
RTOL, ATOL = 1e-12, 1e-13
EVERY = 10


def reference_times(scenario) -> np.ndarray:
    """Every EVERY-th sample time of the scenario's record, plus the last. As
    in the record, snapshot times are sample times only under a geometry_dir."""
    out = scenario.outputs
    times = _sample_times(scenario.trajectory.horizon, out.samples,
                          out.snapshot_times_s if out.geometry_dir else ())
    return np.unique(np.append(times[::EVERY], times[-1]))


def shape_reference(scenario) -> dict:
    traj, p = scenario.trajectory, scenario.params

    def rhs(t, z):
        s = SwimmerState(*z.tolist())
        return state_derivative(s, solve_tracking_controls(s, traj.df(t), traj.dg(t), p), p)

    s0 = scenario.initial
    z = np.array([s0.x, s0.y, s0.theta, s0.alpha1, s0.alpha2])
    times = reference_times(scenario)
    rows = [z[2:].tolist()]
    for t0, t1 in zip(times[:-1].tolist(), times[1:].tolist()):
        sol = solve_ivp(rhs, (t0, t1), z, method="Radau", rtol=RTOL, atol=ATOL)
        if sol.status != 0:
            raise RuntimeError(f"{scenario.name}: Radau stopped at t = {sol.t[-1]}: {sol.message}")
        z = sol.y[:, -1]
        rows.append(z[2:].tolist())
    theta, alpha1, alpha2 = zip(*rows)
    return {"t": times.tolist(), "theta": list(theta), "alpha1": list(alpha1),
            "alpha2": list(alpha2)}


def main(argv) -> int:
    out = Path(argv[0]) if argv else OUT
    doc = {
        "made_by": "tests/make_shape_reference.py",
        "solver": f"scipy {scipy.__version__} Radau, rtol {RTOL}, atol {ATOL}",
        "scenarios": {},
    }
    for name in SCENARIOS:
        doc["scenarios"][name] = shape_reference(load_scenario(ROOT / "scenarios" / f"{name}.json"))
        print(f"{name}: {len(doc['scenarios'][name]['t'])} times", file=sys.stderr)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
