"""Write the Radau reference that test_tracking.py's
test_closed_loop_shape_matches_the_radau_reference and
test_open_loop_state_matches_the_radau_reference read.

Closed loop: for table1_circle, table1_line_ok and table1_waypoints,
integrate the full five-component dynamics with the public API's solved
field,

    zdot = state_derivative(s, solve_tracking_controls(s, f'(t), g'(t), p), p),

and keep theta, alpha1 and alpha2 (the record's x and y are the demand) at
every tenth sample time of the scenario's record, plus the last.

Open loop: for table1_relaxation and tests/stiff_program0.json (the first
field program of the benchmark's stiff workload at seed 2, frozen as a
scenario document), integrate

    zdot = state_derivative(s, ControlField(h_par, h_perp), p)

under each piece's field, and keep all five components at 51 of the record's
sample times: every (samples // 50)-th, plus the last.

Both by scipy's Radau (rtol 1e-12, atol 1e-13). Each stretch between two
kept times, or a kept time and a piece bound, is its own solve, so every kept
state is a step end, not an interpolant, and no step straddles a change of
field. Nothing here runs the package's right-hand sides or its integrators.

Run from the repository root (about 15 s); the output path defaults to
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
from bentswimmer.model import ControlField, SwimmerState
from bentswimmer.scenario import load_scenario
from bentswimmer.tracking import _sample_times, solve_tracking_controls

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
OUT = TESTS / "shape_reference.json"
CLOSED_LOOP = tuple(SCENARIOS / f"{name}.json"
                    for name in ("table1_circle", "table1_line_ok", "table1_waypoints"))
OPEN_LOOP = (SCENARIOS / "table1_relaxation.json", TESTS / "stiff_program0.json")
RTOL, ATOL = 1e-12, 1e-13
EVERY = 10
OPEN_LOOP_TIMES = 51
STATE = ("x", "y", "theta", "alpha1", "alpha2")


def reference_times(scenario, every: int) -> np.ndarray:
    """Every every-th sample time of the scenario's record, plus the last. As
    in the record, snapshot times are sample times only under a geometry_dir."""
    out = scenario.outputs
    times = _sample_times(scenario.spec.horizon, out.samples,
                          out.snapshot_times_s if out.geometry_dir else ())
    return np.unique(np.append(times[::every], times[-1]))


def radau(scenario, rhs_from, times, bounds=()) -> list:
    """The state at each of times, from the scenario's initial state at
    times[0]. Each stretch between consecutive times and bounds is one solve
    of rhs_from(its start)."""
    s0 = scenario.initial
    z = np.array([s0.x, s0.y, s0.theta, s0.alpha1, s0.alpha2])
    kept = set(times.tolist())
    grid = np.unique(np.concatenate([times, bounds])).tolist()
    rows = [z]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        sol = solve_ivp(rhs_from(t0), (t0, t1), z, method="Radau", rtol=RTOL, atol=ATOL)
        if sol.status != 0:
            raise RuntimeError(f"{scenario.name}: Radau stopped at t = {sol.t[-1]}: {sol.message}")
        z = sol.y[:, -1]
        if t1 in kept:
            rows.append(z)
    return rows


def reference(times, rows, keys) -> dict:
    return {"t": times.tolist(), **{key: [float(z[STATE.index(key)]) for z in rows]
                                    for key in keys}}


def closed_loop_reference(scenario) -> dict:
    traj, p = scenario.spec, scenario.params

    def rhs(t, z):
        s = SwimmerState(*z.tolist())
        return state_derivative(s, solve_tracking_controls(s, traj.df(t), traj.dg(t), p), p)

    times = reference_times(scenario, EVERY)
    return reference(times, radau(scenario, lambda t0: rhs, times), STATE[2:])


def open_loop_reference(scenario) -> dict:
    program, p = scenario.spec, scenario.params

    def rhs_from(t0):
        field = ControlField(*(float(h) for h in program.field_at(t0)))
        return lambda t, z: state_derivative(SwimmerState(*z.tolist()), field, p)

    times = reference_times(scenario, scenario.outputs.samples // (OPEN_LOOP_TIMES - 1))
    bounds = [until for until, _, _ in program.pieces[:-1]]
    return reference(times, radau(scenario, rhs_from, times, bounds), STATE)


def main(argv) -> int:
    out = Path(argv[0]) if argv else OUT
    doc = {
        "made_by": "tests/make_shape_reference.py",
        "solver": f"scipy {scipy.__version__} Radau, rtol {RTOL}, atol {ATOL}",
        "scenarios": {},
    }
    for paths, make in ((CLOSED_LOOP, closed_loop_reference), (OPEN_LOOP, open_loop_reference)):
        for path in paths:
            doc["scenarios"][path.stem] = make(load_scenario(path))
            print(f"{path.stem}: {len(doc['scenarios'][path.stem]['t'])} times", file=sys.stderr)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
