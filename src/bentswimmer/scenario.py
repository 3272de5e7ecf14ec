"""Scenario files: schema, validation, and the run drivers behind the CLI.

A scenario is a JSON document with unit-suffixed keys (the tabulated
parameters mix N, um and A units, so every key names its unit explicitly).
Modes:

  closed_loop       track a trajectory preset with the feedback controller
  open_loop         apply a piecewise-constant body-frame field program
  controllability   linearize at the rest state and run the rank test
  determinant_scan  map the tracking determinant over the shape square

Unknown keys anywhere in the document are rejected; every error names the
offending field path. Exit-code contract (also used by run_scenario):
0 completed, 2 singular_abort, 3 integrator_failure, 4 configuration error.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .controllability import (
    bent_submatrix_determinant,
    kalman_matrix,
    linearize,
    numeric_bent_submatrix_determinant,
    partial_controllability,
)
from .dynamics import _raw_state_derivative
from .integrators import (
    METHOD_TRAPEZOIDAL,
    METHODS,
    STATUS_COMPLETED,
    IntegrationResult,
    IntegratorOptions,
    integrate,
)
from .model import SwimmerParams, SwimmerState, joint_points
from .records import SimRecord, write_csv, write_rows
from .tracking import (
    DEFAULT_EPS_D,
    INITIAL_POSITION_TOL,
    OUTCOME_COMPLETED,
    OUTCOME_FAILURE,
    OUTCOME_SINGULAR,
    ShapeRangeSignal,
    Trajectory,
    TrackingStatus,
    circle_trajectory,
    constant_trajectory,
    line_trajectory,
    record_run,
    scan_determinant,
    simulate_closed_loop,
    tracking_determinant,
    waypoint_trajectory,
)

EXIT_COMPLETED = 0
EXIT_SINGULAR_ABORT = 2
EXIT_INTEGRATOR_FAILURE = 3
EXIT_CONFIG_ERROR = 4

MODES = ("open_loop", "closed_loop", "controllability", "determinant_scan")


class ScenarioError(Exception):
    """Base class for scenario configuration problems."""


class ScenarioParseError(ScenarioError):
    """The file is not valid JSON."""


class ScenarioValidationError(ScenarioError):
    """A field value or combination violates the schema."""


class UnknownKeyError(ScenarioValidationError):
    """A key is not part of the schema (typo guard)."""


@dataclass(frozen=True)
class FieldProgram:
    """Piecewise-constant body-frame field: pieces of (until_t, h_par, h_perp).

    Piece i applies on [until_{i-1}, until_i); the last bound is the horizon.
    """

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("field program needs at least one piece")
        prev = 0.0
        for until, hp, hq in self.pieces:
            if not (until > prev and math.isfinite(until)):
                raise ValueError("piece bounds must be finite and strictly increasing")
            if not (math.isfinite(hp) and math.isfinite(hq)):
                raise ValueError("field values must be finite")
            prev = until

    @property
    def horizon(self) -> float:
        return self.pieces[-1][0]

    def field_at(self, t):
        """(h_par, h_perp) at time t, a float or an array of times: the first
        piece with t < until, else the last piece."""
        until, h_par, h_perp = np.array(self.pieces).T
        i = np.minimum(np.searchsorted(until, t, side="right"), len(self.pieces) - 1)
        return h_par[i], h_perp[i]


@dataclass(frozen=True)
class OutputSpec:
    csv: str = "record.csv"
    summary: str = "summary.json"
    geometry_dir: str | None = None
    samples: int = 1000
    snapshot_times_s: tuple[float, ...] = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    params: SwimmerParams
    initial: SwimmerState
    trajectory: Trajectory | None
    field_program: FieldProgram | None
    integrator: IntegratorOptions
    outputs: OutputSpec
    eps_d: float
    grid_n: int
    p_rows: int
    raw: dict = field(repr=False, default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ScenarioValidationError(f"{path}: {message}")


def _check_keys(d: dict, allowed: set[str], required: set[str], path: str):
    _require(isinstance(d, dict), path, "expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise UnknownKeyError(
            f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    missing = required - set(d)
    if missing:
        raise ScenarioValidationError(f"{path}: missing required key(s) {sorted(missing)}")


def _number(d: dict, key: str, path: str) -> float:
    return _as_number(d[key], f"{path}.{key}")


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioValidationError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _number_list(d: dict, key: str, path: str) -> list[float]:
    v = d[key]
    _require(isinstance(v, list), f"{path}.{key}", "expected a list")
    return [_as_number(x, f"{path}.{key}[{i}]") for i, x in enumerate(v)]


_PARAM_KEYS = {
    "ell_um", "eta_N_s_m2", "xi_N_s_m2",
    "m1_A_um2", "m2_A_um2", "m3_A_um2",
    "kappa_N_um", "alpha0_rad",
}
_INITIAL_KEYS = {"x_um", "y_um", "theta_rad", "alpha1_rad", "alpha2_rad"}
_INTEGRATOR_KEYS = {
    "method", "abs_tol", "rel_tol", "h_init_s", "h_min_s", "h_max_s", "max_steps",
}
_OUTPUT_KEYS = {"csv", "summary", "geometry_dir", "samples", "snapshot_times_s"}
_TOP_KEYS = {
    "name", "mode", "params", "initial", "trajectory", "field_program",
    "integrator", "outputs", "eps_d", "grid_n", "p_rows",
}


def _parse_params(d: dict, path: str) -> SwimmerParams:
    _check_keys(d, _PARAM_KEYS, _PARAM_KEYS, path)
    kwargs = {k: _number(d, k, path) for k in _PARAM_KEYS}
    try:
        return SwimmerParams.from_table_units(**kwargs)
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _parse_initial(d: dict, path: str) -> SwimmerState:
    _check_keys(d, _INITIAL_KEYS, _INITIAL_KEYS, path)
    try:
        return SwimmerState(
            x=_number(d, "x_um", path),
            y=_number(d, "y_um", path),
            theta=_number(d, "theta_rad", path),
            alpha1=_number(d, "alpha1_rad", path),
            alpha2=_number(d, "alpha2_rad", path),
        )
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _parse_integrator(d: dict | None, path: str) -> IntegratorOptions:
    if d is None:
        return IntegratorOptions()
    _check_keys(d, _INTEGRATOR_KEYS, set(), path)
    kwargs = {}
    if "method" in d:
        method = d["method"]
        _require(method in METHODS, f"{path}.method", f"must be one of {METHODS}")
        kwargs["method"] = method
    for src, dst in (
        ("abs_tol", "abs_tol"), ("rel_tol", "rel_tol"), ("h_init_s", "h_init"),
        ("h_min_s", "h_min"), ("h_max_s", "h_max"),
    ):
        if src in d:
            kwargs[dst] = _number(d, src, path)
    if "max_steps" in d:
        v = d["max_steps"]
        _require(isinstance(v, int) and not isinstance(v, bool), f"{path}.max_steps",
                 "expected an integer")
        kwargs["max_steps"] = v
    try:
        return IntegratorOptions(**kwargs)
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


_TRAJ_KEYS = {
    "line": {"preset", "start_x_um", "start_y_um", "heading_rad", "speed_um_s",
             "duration_s"},
    "circle": {"preset", "center_x_um", "center_y_um", "radius_um",
               "angular_rate_rad_s", "turns", "phase_rad"},
    "waypoint_spline": {"preset", "times_s", "x_um", "y_um"},
    "constant": {"preset", "x_um", "y_um", "duration_s"},
}


def _parse_trajectory(d: dict, path: str) -> Trajectory:
    _require(isinstance(d, dict), path, "expected an object")
    _require("preset" in d, path, "missing required key(s) ['preset']")
    preset = d["preset"]
    _require(isinstance(preset, str) and preset in _TRAJ_KEYS, f"{path}.preset",
             f"must be one of {sorted(_TRAJ_KEYS)}")
    keys = _TRAJ_KEYS[preset]
    _check_keys(d, keys, keys - {"phase_rad"}, path)
    try:
        if preset == "line":
            return line_trajectory(
                start=(_number(d, "start_x_um", path), _number(d, "start_y_um", path)),
                heading=_number(d, "heading_rad", path),
                speed=_number(d, "speed_um_s", path),
                horizon=_number(d, "duration_s", path),
            )
        if preset == "circle":
            return circle_trajectory(
                center=(_number(d, "center_x_um", path), _number(d, "center_y_um", path)),
                radius=_number(d, "radius_um", path),
                angular_rate=_number(d, "angular_rate_rad_s", path),
                turns=_number(d, "turns", path),
                phase=_number(d, "phase_rad", path) if "phase_rad" in d else 0.0,
            )
        if preset == "waypoint_spline":
            return waypoint_trajectory(*(
                _number_list(d, k, path) for k in ("times_s", "x_um", "y_um")
            ))
        return constant_trajectory(
            point=(_number(d, "x_um", path), _number(d, "y_um", path)),
            horizon=_number(d, "duration_s", path),
        )
    except (ValueError, ScenarioValidationError) as exc:
        if isinstance(exc, ScenarioValidationError):
            raise
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _parse_field_program(items, path: str) -> FieldProgram:
    _require(isinstance(items, list) and items, path, "expected a non-empty list")
    keys = {"until_t_s", "h_par_uT", "h_perp_uT"}
    pieces = []
    for i, piece in enumerate(items):
        ppath = f"{path}[{i}]"
        _check_keys(piece, keys, keys, ppath)
        pieces.append((
            _number(piece, "until_t_s", ppath),
            _number(piece, "h_par_uT", ppath),
            _number(piece, "h_perp_uT", ppath),
        ))
    try:
        return FieldProgram(pieces=tuple(pieces))
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _parse_outputs(d: dict | None, path: str) -> OutputSpec:
    if d is None:
        return OutputSpec()
    _check_keys(d, _OUTPUT_KEYS, set(), path)
    kwargs = {}
    for k in ("csv", "summary", "geometry_dir"):
        if k in d:
            _require(isinstance(d[k], str), f"{path}.{k}", "expected a string")
            kwargs[k] = d[k]
    if "samples" in d:
        v = d["samples"]
        _require(isinstance(v, int) and not isinstance(v, bool) and v >= 2,
                 f"{path}.samples", "expected an integer >= 2")
        kwargs["samples"] = v
    if "snapshot_times_s" in d:
        kwargs["snapshot_times_s"] = tuple(_number_list(d, "snapshot_times_s", path))
    return OutputSpec(**kwargs)


def scenario_from_dict(doc: dict, name: str = "<dict>") -> Scenario:
    _require(isinstance(doc, dict), "<root>", "scenario must be a JSON object")
    _check_keys(doc, _TOP_KEYS, {"mode", "params", "initial"}, "<root>")
    mode = doc["mode"]
    _require(mode in MODES, "mode", f"must be one of {MODES}")
    params = _parse_params(doc["params"], "params")
    initial = _parse_initial(doc["initial"], "initial")
    integrator = _parse_integrator(doc.get("integrator"), "integrator")
    outputs = _parse_outputs(doc.get("outputs"), "outputs")

    eps_d = DEFAULT_EPS_D
    if "eps_d" in doc:
        eps_d = _number(doc, "eps_d", "<root>")
        _require(0.0 < eps_d < math.inf, "eps_d", "must be positive and finite")

    grid_n = 101
    if "grid_n" in doc:
        _require(mode == "determinant_scan", "grid_n",
                 "only valid in determinant_scan mode")
        v = doc["grid_n"]
        _require(isinstance(v, int) and not isinstance(v, bool) and v >= 2,
                 "grid_n", "expected an integer >= 2")
        grid_n = v

    p_rows = 2
    if "p_rows" in doc:
        _require(mode == "controllability", "p_rows",
                 "only valid in controllability mode")
        v = doc["p_rows"]
        _require(isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= 5,
                 "p_rows", "expected an integer in 1..5")
        p_rows = v

    trajectory = None
    field_program = None
    if mode == "closed_loop":
        _require("trajectory" in doc, "trajectory", "required in closed_loop mode")
        _require("field_program" not in doc, "field_program",
                 "not allowed in closed_loop mode")
        trajectory = _parse_trajectory(doc["trajectory"], "trajectory")
        fx0, gy0 = trajectory.start()
        _require(
            math.hypot(initial.x - fx0, initial.y - gy0) <= INITIAL_POSITION_TOL,
            "initial",
            f"closed-loop initial position ({initial.x}, {initial.y}) must equal "
            f"the trajectory start ({fx0}, {gy0}); runs are rejected, not shifted",
        )
        mismatch = trajectory.max_derivative_mismatch()
        _require(mismatch <= 1e-6, "trajectory",
                 f"derivative evaluators disagree with finite differences "
                 f"(relative mismatch {mismatch:.2e})")
    elif mode == "open_loop":
        _require("field_program" in doc, "field_program", "required in open_loop mode")
        _require("trajectory" not in doc, "trajectory",
                 "not allowed in open_loop mode")
        field_program = _parse_field_program(doc["field_program"], "field_program")
    else:
        _require("trajectory" not in doc, "trajectory",
                 f"not allowed in {mode} mode")
        _require("field_program" not in doc, "field_program",
                 f"not allowed in {mode} mode")
        if mode == "controllability":
            _require(
                abs(initial.alpha1) <= 1e-9
                and abs(initial.alpha2 - params.alpha0) <= 1e-9,
                "initial",
                "controllability mode linearizes at a rest state: "
                "alpha1_rad must be 0 and alpha2_rad must equal alpha0_rad",
            )

    if mode in ("closed_loop", "open_loop"):
        horizon = (trajectory or field_program).horizon
        for i, t in enumerate(outputs.snapshot_times_s):
            _require(0.0 <= t <= horizon, f"outputs.snapshot_times_s[{i}]",
                     f"{t} s lies outside the run [0, {horizon}] s")

    if "name" in doc:
        _require(isinstance(doc["name"], str), "name", "expected a string")
        name = doc["name"]

    # keep an immutable snapshot for hashing and canonical serialization
    raw = json.loads(json.dumps(doc, sort_keys=True))

    return Scenario(
        name=name,
        mode=mode,
        params=params,
        initial=initial,
        trajectory=trajectory,
        field_program=field_program,
        integrator=integrator,
        outputs=outputs,
        eps_d=eps_d,
        grid_n=grid_n,
        p_rows=p_rows,
        raw=raw,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(doc, name=path.stem)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(scenario.canonical_json(), encoding="utf-8")


def simulate_open_loop(
    initial: SwimmerState,
    program: FieldProgram,
    params: SwimmerParams,
    opts: IntegratorOptions | None = None,
    samples: int = 1000,
    snapshot_times=(),
) -> tuple[SimRecord, TrackingStatus]:
    """Integrate the free dynamics under the body-frame field program.

    Integration restarts at the program's piece boundaries so the adaptive
    steppers never straddle a field discontinuity; the pieces' accepted
    nodes are then joined into one run.
    """
    if opts is None:
        opts = IntegratorOptions(method=METHOD_TRAPEZOIDAL)
    z = [initial.x, initial.y, initial.theta, initial.alpha1, initial.alpha2]
    t_prev = 0.0
    pieces = []
    for until, hp, hq in program.pieces:
        def rhs(t, zz, _hp=hp, _hq=hq):
            if not (-math.pi < zz[3] < math.pi and -math.pi < zz[4] < math.pi):
                raise ShapeRangeSignal(zz[3], zz[4])
            return _raw_state_derivative(zz, _hp, _hq, params)

        res = integrate(rhs, z, (t_prev, until), opts)
        pieces.append(res)
        z = list(res.z_final)
        t_prev = res.t_stop
        if res.status != STATUS_COMPLETED:
            break
    # each piece starts on the previous piece's last node; sample() resolves
    # the repeated time to the later piece, which holds the same state
    last = pieces[-1]
    joined = IntegrationResult(
        status=last.status,
        t=np.concatenate([r.t for r in pieces]),
        z=np.concatenate([r.z for r in pieces]),
        f=np.concatenate([r.f for r in pieces]),
        t_stop=last.t_stop,
        signal=last.signal,
        n_steps=sum(r.n_steps for r in pieces),
        n_rejected=sum(r.n_rejected for r in pieces),
        n_evals=sum(r.n_evals for r in pieces),
    )

    def fields_at(times, states):
        h_par, h_perp = program.field_at(times)
        return h_par, h_perp, tracking_determinant(states[:, 3], states[:, 4], params, np)

    return record_run(joined, fields_at, opts.method, samples, snapshot_times)


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    summary: dict
    record: SimRecord | None = None
    status: TrackingStatus | None = None


def _write_geometry_snapshots(record, scenario, outdir: Path):
    """Write one file per distinct snapshot time reached by the run.

    Returns (written paths, requested times after an early stop).
    """
    gdir = outdir / scenario.outputs.geometry_dir
    gdir.mkdir(parents=True, exist_ok=True)
    times = record.column("t")
    written, skipped = [], []
    for t_snap in scenario.outputs.snapshot_times_s:
        if t_snap > times[-1]:
            skipped.append(t_snap)
            continue
        idx = int(np.argmin(np.abs(times - t_snap)))
        path = gdir / f"snapshot_{times[idx]:.6f}.json"
        if str(path) in written:
            continue
        row = record.data[idx]
        state = SwimmerState(
            x=row[1], y=row[2], theta=row[3], alpha1=row[4], alpha2=row[5]
        )
        pts = joint_points(state, scenario.params)
        payload = {
            "t_s": float(times[idx]),
            "points_um": [[float(p[0]), float(p[1])] for p in pts],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        written.append(str(path))
    return written, skipped


def _tracking_error(record: SimRecord, traj: Trajectory) -> float:
    times = record.column("t")
    ex = record.column("x") - traj.f(times, np)
    ey = record.column("y") - traj.g(times, np)
    return float(np.max(np.hypot(ex, ey)))


def _exit_code_for(outcome: str) -> int:
    return {
        OUTCOME_COMPLETED: EXIT_COMPLETED,
        OUTCOME_SINGULAR: EXIT_SINGULAR_ABORT,
        OUTCOME_FAILURE: EXIT_INTEGRATOR_FAILURE,
    }[outcome]


def run_scenario(scenario: Scenario, outdir) -> RunResult:
    """Execute a scenario and write its outputs under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t_wall = time.perf_counter()

    summary: dict = {
        "scenario": scenario.name,
        "mode": scenario.mode,
        "scenario_sha256": scenario.sha256(),
        "params": scenario.params.table_units(),
        "field_unit": "uT (pN per A.um)",
    }

    if scenario.mode in ("closed_loop", "open_loop"):
        if scenario.mode == "closed_loop":
            record, status = simulate_closed_loop(
                scenario.initial,
                scenario.trajectory,
                scenario.params,
                scenario.integrator,
                eps_d=scenario.eps_d,
                samples=scenario.outputs.samples,
                snapshot_times=scenario.outputs.snapshot_times_s,
            )
        else:
            record, status = simulate_open_loop(
                scenario.initial,
                scenario.field_program,
                scenario.params,
                scenario.integrator,
                samples=scenario.outputs.samples,
                snapshot_times=scenario.outputs.snapshot_times_s,
            )
        csv_path = outdir / scenario.outputs.csv
        write_csv(record, csv_path)
        summary.update(
            {
                "termination": status.outcome,
                "detail": status.detail,
                "t_stop_s": status.t_stop,
                "min_abs_d": status.min_abs_d,
                "min_abs_d_state_set": (
                    "rhs_evaluations" if scenario.mode == "closed_loop" else "samples"
                ),
                "max_field_norm_uT": status.max_field_norm,
                "max_feedback_residual": status.max_feedback_residual,
                "final_state": {
                    k: float(record.data[-1][i])
                    for i, k in enumerate(("t", "x", "y", "theta", "alpha1", "alpha2"))
                },
                "csv": str(csv_path),
                "integrator": status.integrator,
            }
        )
        if scenario.mode == "closed_loop":
            summary["tracking_error_um"] = _tracking_error(record, scenario.trajectory)
        if scenario.outputs.geometry_dir:
            written, skipped = _write_geometry_snapshots(record, scenario, outdir)
            summary["geometry_snapshots"] = written
            summary["geometry_snapshots_skipped_s"] = skipped
        exit_code = _exit_code_for(status.outcome)
        result_record, result_status = record, status

    elif scenario.mode == "controllability":
        lin = linearize(scenario.initial, scenario.params)
        kal = kalman_matrix(lin)
        verdict = partial_controllability(kal, scenario.p_rows)
        alpha0 = scenario.params.alpha0
        closed = bent_submatrix_determinant(alpha0, scenario.params)
        numeric = numeric_bent_submatrix_determinant(alpha0, scenario.params)
        summary.update(
            {
                "a_matrix": lin.a.tolist(),
                "b_matrix": lin.b.tolist(),
                "kalman_matrix": kal.tolist(),
                "p_rows": verdict.p,
                "rank": verdict.rank,
                "partially_controllable": verdict.controllable,
                "kalman_first_row_zero": bool(np.all(kal[0] == 0.0)),
                "submatrix_determinant": {
                    "closed_form": closed,
                    "numeric": numeric,
                    "ratio_numeric_over_closed": (numeric / closed)
                    if closed != 0.0
                    else None,
                    "note": (
                        "the closed form is stated for the opposite elastic-torque "
                        "sign convention; the expected ratio is -1"
                    ),
                },
            }
        )
        exit_code = EXIT_COMPLETED
        result_record, result_status = None, None

    else:  # determinant_scan
        scan = scan_determinant(scenario.params, scenario.grid_n)
        grid_path = outdir / scenario.outputs.csv
        n = scenario.grid_n
        cells = np.column_stack(
            (np.repeat(scan.grid, n), np.tile(scan.grid, n), scan.values.ravel())
        )
        write_rows(grid_path, "alpha1,alpha2,d_value", cells)
        summary.update(
            {
                "grid_n": scenario.grid_n,
                "d_origin": scan.d_origin,
                "min_abs_d_off_origin": scan.min_abs_off_origin,
                "argmin_off_origin": list(scan.argmin_off_origin),
                "exclusion_radius": scan.exclusion_radius,
                "csv": str(grid_path),
            }
        )
        exit_code = EXIT_COMPLETED
        result_record, result_status = None, None

    summary["wall_time_s"] = time.perf_counter() - t_wall
    summary["exit_code"] = exit_code
    summary_path = outdir / scenario.outputs.summary
    summary["summary_path"] = str(summary_path)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return RunResult(
        exit_code=exit_code, summary=summary, record=result_record, status=result_status
    )


__all__ = [
    "EXIT_COMPLETED",
    "EXIT_SINGULAR_ABORT",
    "EXIT_INTEGRATOR_FAILURE",
    "EXIT_CONFIG_ERROR",
    "MODES",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "UnknownKeyError",
    "FieldProgram",
    "OutputSpec",
    "Scenario",
    "RunResult",
    "scenario_from_dict",
    "load_scenario",
    "save_scenario",
    "simulate_open_loop",
    "run_scenario",
]
