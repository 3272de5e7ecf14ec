"""Per-case correctness gates, at the bounds of the repository's acceptance tests.

Each gate reads only the files a case wrote (summary JSON and CSV) and the
case's own generated document, and returns (passed, details). Failures are
reported, never raised: a gate that cannot read its inputs fails the case.

Bounds:
  RK45 tracking         exit 0, completed, tracking error <= 1e-8 um, circle
                        closure <= 1e-8 um for full turns (test 06)
  trapezoidal tracking  exit 0, completed, tracking error <= 1e-5 um; no test
                        bounds it, and the README documents ~1e-6-scale
                        accuracy for this method at the default tolerances
  backward line         exit 2, singular_abort, final |alpha| < 0.05, field
                        max/median >= 10 (test 07)
  open-loop program     exit 0, completed, zero-field tail relaxes the shape
                        to within 1e-6 of (0, alpha0) (test 08)
  determinant scan      D(0,0) <= 1e-12, min |D| off the origin > 0 (test 05)
  controllability       truth table (test 04); numeric / closed-form
                        determinant ratio within 1e-8 of -1 (test 03)
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RK45_TRACKING_UM = 1e-8
TRAPEZOIDAL_TRACKING_UM = 1e-5
CLOSURE_UM = 1e-8
ABORT_ALPHA = 0.05
ABORT_FIELD_RATIO = 10.0
RELAXATION_GAP = 1e-6
D_ORIGIN = 1e-12
RATIO_TOL = 1e-8

EXIT_CODES = {"completed": 0, "singular_abort": 2}
COLUMNS = ("t", "x", "y", "theta", "alpha1", "alpha2", "h_par", "h_perp", "h_x",
           "h_y", "d_value")


def _read_csv(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(COLUMNS):
        raise ValueError(f"{path.name}: {data.shape[1]} columns")
    return data


def _col(data: np.ndarray, name: str) -> np.ndarray:
    return data[:, COLUMNS.index(name)]


def _reference_path(traj: dict, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The demanded position, computed here rather than taken from the program."""
    if traj["preset"] == "line":
        h, v = traj["heading_rad"], traj["speed_um_s"]
        return (traj["start_x_um"] + v * math.cos(h) * t,
                traj["start_y_um"] + v * math.sin(h) * t)
    if traj["preset"] == "circle":
        ang = traj["phase_rad"] + traj["angular_rate_rad_s"] * t
        r = traj["radius_um"]
        return traj["center_x_um"] + r * np.cos(ang), traj["center_y_um"] + r * np.sin(ang)
    from scipy.interpolate import CubicSpline

    knots = np.asarray(traj["times_s"], dtype=float)
    return (CubicSpline(knots, traj["x_um"], bc_type="clamped")(t),
            CubicSpline(knots, traj["y_um"], bc_type="clamped")(t))


def _horizon(doc: dict) -> float:
    traj = doc.get("trajectory")
    if traj is None:
        return doc["field_program"][-1]["until_t_s"]
    if traj["preset"] == "circle":
        return traj["turns"] * 2.0 * math.pi / abs(traj["angular_rate_rad_s"])
    if traj["preset"] == "waypoint_spline":
        return traj["times_s"][-1]
    return traj["duration_s"]


def _simulate(case: dict, summary: dict, outdir: Path, checks: dict) -> dict:
    doc, gate = case["doc"], case["gate"]
    data = _read_csv(outdir / doc["outputs"]["csv"])
    t = _col(data, "t")
    info = {"rows": int(data.shape[0]), "t_stop_s": summary["t_stop_s"],
            "integrator": summary["integrator"],
            # the two extrema are taken over different state sets
            "min_abs_d": summary["min_abs_d"],
            "min_abs_d_state_set": ("every rhs evaluation" if doc["mode"] == "closed_loop"
                                    else "emitted samples"),
            "max_field_norm_uT": summary["max_field_norm_uT"],
            "max_field_norm_state_set": "emitted samples"}
    if case["expect"] == "singular_abort":
        h = np.hypot(_col(data, "h_par"), _col(data, "h_perp"))
        h = h[np.isfinite(h)]
        ratio = float(h[int(math.ceil(0.99 * len(h))) - 1:].max() / np.median(h))
        a1, a2 = abs(_col(data, "alpha1")[-1]), abs(_col(data, "alpha2")[-1])
        checks["final |alpha| < 0.05"] = a1 < ABORT_ALPHA and a2 < ABORT_ALPHA
        checks["field max/median >= 10"] = ratio >= ABORT_FIELD_RATIO
        checks["stops before the horizon"] = summary["t_stop_s"] < _horizon(doc)
        info.update(abort_t_s=summary["t_stop_s"], abort_abs_d=summary["min_abs_d"],
                    eps_d=doc.get("eps_d", 1e-8), field_ratio=ratio,
                    final_alpha=[a1, a2])
        return info
    checks["reaches the horizon"] = math.isclose(summary["t_stop_s"], _horizon(doc),
                                                 rel_tol=1e-12)
    checks["all values finite"] = bool(np.isfinite(data).all())
    if doc["mode"] == "open_loop":
        gap = math.hypot(_col(data, "alpha1")[-1],
                         _col(data, "alpha2")[-1] - doc["params"]["alpha0_rad"])
        checks["relaxation gap <= 1e-6"] = gap <= RELAXATION_GAP
        checks["one row per sample"] = data.shape[0] == doc["outputs"]["samples"]
        info["relaxation_gap"] = gap
        return info
    fx, gy = _reference_path(doc["trajectory"], t)
    error = float(np.max(np.hypot(_col(data, "x") - fx, _col(data, "y") - gy)))
    bound = (RK45_TRACKING_UM if doc["integrator"]["method"] == "adaptive_explicit_rk45"
             else TRAPEZOIDAL_TRACKING_UM)
    info.update(tracking_error_um=error, tracking_bound_um=bound,
                summary_tracking_error_um=summary["tracking_error_um"])
    checks[f"tracking error <= {bound:g} um"] = max(error, summary["tracking_error_um"]) <= bound
    if gate.get("closure"):
        closure = math.hypot(_col(data, "x")[-1] - _col(data, "x")[0],
                             _col(data, "y")[-1] - _col(data, "y")[0])
        checks["circle closure <= 1e-8 um"] = closure <= CLOSURE_UM
        info["closure_um"] = closure
    return info


def _scan(case: dict, summary: dict, outdir: Path, checks: dict) -> dict:
    n = case["doc"]["grid_n"]
    with open(outdir / case["doc"]["outputs"]["csv"], encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    checks["D(0,0) <= 1e-12"] = abs(summary["d_origin"]) <= D_ORIGIN
    checks["min |D| off origin > 0"] = summary["min_abs_d_off_origin"] > 0.0
    checks["one grid row per point"] = rows == n * n
    return {"grid_n": n, "d_origin": summary["d_origin"],
            "min_abs_d_off_origin": summary["min_abs_d_off_origin"]}


def _controllability(case: dict, summary: dict, outdir: Path, checks: dict) -> dict:
    det = summary["submatrix_determinant"]
    ratio = det["ratio_numeric_over_closed"]
    if case["gate"]["bent"]:
        checks["bent rest shape is partially controllable"] = summary["partially_controllable"]
        checks["ratio numeric/closed within 1e-8 of -1"] = (
            ratio is not None and abs(ratio + 1.0) <= RATIO_TOL)
    else:
        checks["straight: first Kalman row zero"] = summary["kalman_first_row_zero"]
        checks["straight: not partially controllable"] = not summary["partially_controllable"]
    return {"rank": summary["rank"], "ratio_numeric_over_closed": ratio}


_CHECKERS = {"simulate": _simulate, "scan-determinant": _scan,
             "check-controllability": _controllability}


def check(case: dict, exit_code: int, outdir: Path) -> tuple[bool, dict]:
    """Gate one case's outputs; never raises."""
    checks: dict[str, bool] = {
        f"exit code {EXIT_CODES[case['expect']]}": exit_code == EXIT_CODES[case["expect"]]}
    info: dict = {}
    try:
        summary = json.loads((outdir / case["doc"]["outputs"]["summary"]).read_text(
            encoding="utf-8"))
        if case["command"] == "simulate":
            checks[f"termination {case['expect']}"] = summary["termination"] == case["expect"]
        info = _CHECKERS[case["command"]](case, summary, outdir, checks)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        checks["outputs readable"] = False
        info["error"] = f"{type(exc).__name__}: {exc}"
    failed = [name for name, ok in checks.items() if not ok]
    info["failed_checks"] = failed
    return not failed, info
