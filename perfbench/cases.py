"""Seeded case generation for the three benchmark workloads.

Every case is a scenario document plus the outcome it must reach. The
expected outcome is fixed here, when the case is generated, so a case that
stops early counts as failed rather than as fast.

Case costs are kept close to seed-independent: horizons and sample counts
are fixed per case slot and the seed draws only geometry, headings, field
directions and shapes, so the seed-to-seed spread of a workload's wall time
is mostly machine noise rather than a change in the amount of work.

This module imports nothing from bentswimmer, so the generated files are
the only thing the program sees of the seed.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("track", "stiff", "sweep")

RK45 = "adaptive_explicit_rk45"
TRAPEZOIDAL = "trapezoidal_adaptive"

# The tabulated parameter set (scenarios/table1_*.json).
TABLE1 = {
    "ell_um": 10.0,
    "eta_N_s_m2": 0.0124,
    "xi_N_s_m2": 0.0062,
    "m1_A_um2": 1.6,
    "m2_A_um2": 2.4,
    "m3_A_um2": 3.2,
    "kappa_N_um": 8.3e-07,
    "alpha0_rad": math.pi / 3,
}
ALPHA0 = TABLE1["alpha0_rad"]

# Circle slots as (angular rate rad/s, turns); the horizon is fixed per slot
# and the seed draws radius, phase and start point.
TRACK_CIRCLES = ((1200.0, 1.0), (900.0, 1.0))  # full turns: closure is gated
TRACK_ARC = (150.0, 0.15)
TRACK_LINE_DURATION_S = 0.004
TRACK_ABORT_SPEED_UM_S = 800.0
TRACK_ABORT_DURATION_S = 0.004  # the shape straightens after ~1.2 um of travel

STIFF_PROGRAMS = 4
STIFF_WAYPOINT_CASES = 2
STIFF_SAMPLES = 3000
STIFF_PIECE_S = (0.00015, 0.00015, 0.00015)
STIFF_RELAX_S = 0.0005
STIFF_FIELD_UT = 1e4
STIFF_WAYPOINT_STEP_UM = 0.45
STIFF_WAYPOINT_TIMES_S = (0.0, 0.006, 0.012, 0.018)

SWEEP_GRID_RANGE = (54, 56)
SWEEP_SCANS = 4
SWEEP_BENT_CHECKS = 4


def _params(alpha0: float = ALPHA0) -> dict:
    return dict(TABLE1, alpha0_rad=alpha0)


def _initial(x: float, y: float, theta: float, alpha0: float = ALPHA0) -> dict:
    return {"x_um": x, "y_um": y, "theta_rad": theta, "alpha1_rad": 0.0,
            "alpha2_rad": alpha0}


def _outputs(name: str, samples: int | None = None) -> dict:
    out = {"csv": f"{name}.csv", "summary": f"{name}_summary.json"}
    if samples is not None:
        out["samples"] = samples
    return out


def _case(name, command, doc, expect, **gate) -> dict:
    doc = dict(doc, name=name, outputs=doc.get("outputs") or _outputs(name))
    return {"name": name, "command": command, "doc": doc, "expect": expect,
            "gate": gate}


def _closed_loop(name, trajectory, start, theta, method, samples=None,
                 expect="completed", **gate):
    doc = {
        "mode": "closed_loop",
        "params": _params(),
        "initial": _initial(start[0], start[1], theta),
        "trajectory": trajectory,
        "integrator": {"method": method, "abs_tol": 1e-9, "rel_tol": 1e-9},
        "outputs": _outputs(name, samples),
    }
    return _case(name, "simulate", doc, expect, **gate)


def _start(rng):
    return (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))


def _track(rng) -> list[dict]:
    cases = []
    slots = [(f"circle{i}", rate, turns, rng.uniform(0.2, 0.4))
             for i, (rate, turns) in enumerate(TRACK_CIRCLES)]
    slots.append(("arc", TRACK_ARC[0], TRACK_ARC[1], rng.uniform(2.0, 5.0)))
    for name, rate, turns, radius in slots:
        start = _start(rng)
        phase = rng.uniform(-math.pi, math.pi)
        centre = (start[0] - radius * math.cos(phase),
                  start[1] - radius * math.sin(phase))
        traj = {"preset": "circle", "center_x_um": centre[0],
                "center_y_um": centre[1], "radius_um": radius,
                "angular_rate_rad_s": rate, "turns": turns, "phase_rad": phase}
        # same body-to-path geometry as table1_circle: theta = phase + pi
        cases.append(_closed_loop(name, traj, start, phase + math.pi, RK45,
                                  closure=turns == 1.0))
    start = _start(rng)
    theta = rng.uniform(-math.pi, math.pi)
    traj = {"preset": "line", "start_x_um": start[0], "start_y_um": start[1],
            "heading_rad": theta + rng.uniform(-0.6, 0.6),
            "speed_um_s": rng.uniform(100.0, 300.0),
            "duration_s": TRACK_LINE_DURATION_S}
    cases.append(_closed_loop("line", traj, start, theta, RK45))
    # the paper's field blow-up: tracking backwards straightens the shape
    start = _start(rng)
    theta = rng.uniform(-math.pi, math.pi)
    traj = {"preset": "line", "start_x_um": start[0], "start_y_um": start[1],
            "heading_rad": theta + math.pi + rng.uniform(-0.2, 0.2),
            "speed_um_s": TRACK_ABORT_SPEED_UM_S,
            "duration_s": TRACK_ABORT_DURATION_S}
    cases.append(_closed_loop("backward_line", traj, start, theta, RK45,
                              expect="singular_abort"))
    return cases


def _stiff(rng) -> list[dict]:
    cases = []
    for i in range(STIFF_PROGRAMS):
        pieces, until = [], 0.0
        for dur in STIFF_PIECE_S:
            until += dur
            ang = rng.uniform(-math.pi, math.pi)
            pieces.append({"until_t_s": until, "h_par_uT": STIFF_FIELD_UT * math.cos(ang),
                           "h_perp_uT": STIFF_FIELD_UT * math.sin(ang)})
        pieces.append({"until_t_s": until + STIFF_RELAX_S, "h_par_uT": 0.0,
                       "h_perp_uT": 0.0})
        start = _start(rng)
        initial = _initial(start[0], start[1], rng.uniform(-math.pi, math.pi))
        initial["alpha1_rad"] = rng.uniform(-0.2, 0.2)
        initial["alpha2_rad"] = ALPHA0 + rng.uniform(-0.2, 0.2)
        name = f"program{i}"
        doc = {
            "mode": "open_loop",
            "params": _params(),
            "initial": initial,
            "field_program": pieces,
            "integrator": {"method": TRAPEZOIDAL, "abs_tol": 1e-9, "rel_tol": 1e-9},
            "outputs": _outputs(name, STIFF_SAMPLES),
        }
        cases.append(_case(name, "simulate", doc, "completed"))
    # waypoints a fixed distance apart, heading forward within 0.6 rad of
    # the body axis: backward motion straightens the shape toward D = 0
    for i in range(STIFF_WAYPOINT_CASES):
        start = _start(rng)
        theta = rng.uniform(-math.pi, math.pi)
        xs, ys = [start[0]], [start[1]]
        for _ in STIFF_WAYPOINT_TIMES_S[1:]:
            heading = theta + rng.uniform(-0.6, 0.6)
            xs.append(xs[-1] + STIFF_WAYPOINT_STEP_UM * math.cos(heading))
            ys.append(ys[-1] + STIFF_WAYPOINT_STEP_UM * math.sin(heading))
        traj = {"preset": "waypoint_spline", "times_s": list(STIFF_WAYPOINT_TIMES_S),
                "x_um": xs, "y_um": ys}
        cases.append(_closed_loop(f"waypoints{i}", traj, start, theta, TRAPEZOIDAL,
                                  samples=STIFF_SAMPLES))
    return cases


def _rest_angle(rng) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(math.pi / 8, 2 * math.pi / 5)


def _sweep(rng) -> list[dict]:
    cases = []
    for i in range(SWEEP_SCANS):
        alpha0 = _rest_angle(rng)
        doc = {"mode": "determinant_scan", "params": _params(alpha0),
               "initial": _initial(0.0, 0.0, 0.0, alpha0),
               "grid_n": rng.randint(*SWEEP_GRID_RANGE)}
        cases.append(_case(f"scan{i}", "scan-determinant", doc, "completed"))
    alphas = [_rest_angle(rng) for _ in range(SWEEP_BENT_CHECKS)] + [0.0]
    for i, alpha0 in enumerate(alphas):
        # the straight shape's first Kalman row vanishes in the body-aligned
        # frame only (test 04), so that check runs at theta = 0
        theta = rng.uniform(-math.pi, math.pi) if alpha0 else 0.0
        doc = {"mode": "controllability", "params": _params(alpha0),
               "initial": _initial(0.0, 0.0, theta, alpha0), "p_rows": 2}
        name = f"controllability{i}" if alpha0 else "controllability_straight"
        cases.append(_case(name, "check-controllability", doc, "completed",
                           bent=alpha0 != 0.0))
    return cases


_GENERATORS = {"track": _track, "stiff": _stiff, "sweep": _sweep}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's cases for this seed; the same seed gives the same cases."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write(cases: list[dict], directory: Path) -> list[Path]:
    """Write each case's scenario file; returns the paths in case order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case['name']}.json"
        path.write_text(json.dumps(case["doc"], indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
