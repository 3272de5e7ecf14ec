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

import errno
import hashlib
import json
import math
import re
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
from .dynamics import _raw_fields, _raw_state_derivative
from .integrators import (
    METHODS,
    STATUS_COMPLETED,
    IntegrationResult,
    IntegratorOptions,
    integrate,
)
from .linalg import SingularMatrixError
from .model import _TABLE_UNITS, SwimmerParams, SwimmerState, joint_points
from .records import SimRecord, write_csv, write_rows
from .tracking import (
    OUTCOME_COMPLETED,
    OUTCOME_FAILURE,
    OUTCOME_SINGULAR,
    ShapeRangeSignal,
    Trajectory,
    TrackingStatus,
    circle_trajectory,
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

# size caps: at the cap, a run's samples took about 20 s and wrote 216 MB of
# CSV, and a determinant scan about 5 s and 57 MB (2 vCPUs, x86_64)
MAX_SAMPLES = 1_000_000
MAX_GRID_N = 1001
# an output name is a single file name from the POSIX portable character
# set, so each output is created inside the output directory and nowhere else
_PLAIN_NAME = re.compile(r"[A-Za-z0-9._-]{1,255}")
# a geometry snapshot file is named by its time, to 6 decimals
_SNAPSHOT_NAME = "snapshot_{:.6f}.json"


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
    """A validated scenario. Of trajectory, field_program, grid_n and p_rows,
    only the mode's own key (_MODE_KEYS) is read; the others keep their
    defaults."""

    name: str
    mode: str
    params: SwimmerParams
    initial: SwimmerState
    integrator: IntegratorOptions
    outputs: OutputSpec
    trajectory: Trajectory | None = None
    field_program: FieldProgram | None = None
    grid_n: int = 101
    p_rows: int = 2
    raw: dict = field(repr=False, default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ScenarioValidationError(f"{path}: {message}")


def _at(path: str, fn, *args):
    """fn(*args), with the model's ValueError or SingularMatrixError reported
    at path. A ScenarioValidationError is neither: it already names its own
    path and passes through."""
    try:
        return fn(*args)
    except (ValueError, SingularMatrixError) as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


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
    """Every number in a scenario comes through here: a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioValidationError(f"{path}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        raise ScenarioValidationError(f"{path}: integer too large for a float") from None
    _require(math.isfinite(x), path, f"expected a finite number, got {x}")
    return x


def _as_integer(v, path: str, lo: int, hi: int) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
             path, f"expected an integer in {lo}..{hi}")
    return v


def _as_name(v, path: str) -> str:
    _require(isinstance(v, str) and _PLAIN_NAME.fullmatch(v) is not None
             and v not in (".", ".."), path,
             "expected a plain file name: 1 to 255 letters, digits, '.', '_' or '-'")
    return v


def _number_list(d: dict, key: str, path: str) -> list[float]:
    v = d[key]
    _require(isinstance(v, list), f"{path}.{key}", "expected a list")
    return [_as_number(x, f"{path}.{key}[{i}]") for i, x in enumerate(v)]


_INITIAL_KEYS = {"x_um", "y_um", "theta_rad", "alpha1_rad", "alpha2_rad"}
_INTEGRATOR_KEYS = {"method", "abs_tol", "rel_tol"}
_OUTPUT_KEYS = {"csv", "summary", "geometry_dir", "samples", "snapshot_times_s"}


def _parse_params(d: dict, path: str) -> SwimmerParams:
    _check_keys(d, _TABLE_UNITS.keys(), _TABLE_UNITS.keys(), path)
    return SwimmerParams.from_table_units(**{k: _number(d, k, path) for k in _TABLE_UNITS})


def _parse_initial(d: dict, path: str) -> SwimmerState:
    _check_keys(d, _INITIAL_KEYS, _INITIAL_KEYS, path)
    return SwimmerState(
        x=_number(d, "x_um", path),
        y=_number(d, "y_um", path),
        theta=_number(d, "theta_rad", path),
        alpha1=_number(d, "alpha1_rad", path),
        alpha2=_number(d, "alpha2_rad", path),
    )


def _parse_integrator(d: dict | None, path: str) -> IntegratorOptions:
    if d is None:
        return IntegratorOptions()
    _check_keys(d, _INTEGRATOR_KEYS, set(), path)
    kwargs = {k: _number(d, k, path) for k in ("abs_tol", "rel_tol") if k in d}
    if "method" in d:
        _require(d["method"] in METHODS, f"{path}.method", f"must be one of {METHODS}")
        kwargs["method"] = d["method"]
    return IntegratorOptions(**kwargs)


_TRAJ_KEYS = {
    "line": {"preset", "start_x_um", "start_y_um", "heading_rad", "speed_um_s",
             "duration_s"},
    "circle": {"preset", "center_x_um", "center_y_um", "radius_um",
               "angular_rate_rad_s", "turns", "phase_rad"},
    "waypoint_spline": {"preset", "times_s", "x_um", "y_um"},
}


def _parse_trajectory(d: dict, path: str) -> Trajectory:
    _require(isinstance(d, dict), path, "expected an object")
    _require("preset" in d, path, "missing required key(s) ['preset']")
    preset = d["preset"]
    _require(isinstance(preset, str) and preset in _TRAJ_KEYS, f"{path}.preset",
             f"must be one of {sorted(_TRAJ_KEYS)}")
    keys = _TRAJ_KEYS[preset]
    _check_keys(d, keys, keys - {"phase_rad"}, path)
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
    return waypoint_trajectory(*(_number_list(d, k, path) for k in ("times_s", "x_um", "y_um")))


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
    return FieldProgram(pieces=tuple(pieces))


def _parse_outputs(d: dict | None, path: str) -> OutputSpec:
    if d is None:
        return OutputSpec()
    _check_keys(d, _OUTPUT_KEYS, set(), path)
    kwargs = {}
    for k in ("csv", "summary", "geometry_dir"):
        if k in d:
            kwargs[k] = _as_name(d[k], f"{path}.{k}")
    if "samples" in d:
        kwargs["samples"] = _as_integer(d["samples"], f"{path}.samples", 2, MAX_SAMPLES)
    if "snapshot_times_s" in d:
        kwargs["snapshot_times_s"] = tuple(_number_list(d, "snapshot_times_s", path))
    spec = OutputSpec(**kwargs)
    _require(spec.summary != spec.csv, f"{path}.summary", f"{spec.summary!r} is also csv")
    _require(spec.geometry_dir not in (spec.csv, spec.summary), f"{path}.geometry_dir",
             f"{spec.geometry_dir!r} is also csv or summary")
    first = {}
    for i, t in enumerate(spec.snapshot_times_s):
        other = first.setdefault(_SNAPSHOT_NAME.format(t), t)
        _require(other == t, f"{path}.snapshot_times_s[{i}]",
                 f"{t} s would share a snapshot file with {other} s")
    return spec


# each mode's own key, valid in that mode only: (key, parser, required)
_MODE_KEYS = {
    "open_loop": ("field_program", _parse_field_program, True),
    "closed_loop": ("trajectory", _parse_trajectory, True),
    "controllability": ("p_rows", lambda v, path: _as_integer(v, path, 1, 5), False),
    "determinant_scan": ("grid_n", lambda v, path: _as_integer(v, path, 2, MAX_GRID_N), False),
}
MODES = tuple(_MODE_KEYS)
_TOP_KEYS = {"name", "mode", "params", "initial", "integrator", "outputs",
             *(key for key, _, _ in _MODE_KEYS.values())}


def scenario_from_dict(doc: dict, name: str = "<dict>") -> Scenario:
    _require(isinstance(doc, dict), "<root>", "scenario must be a JSON object")
    _check_keys(doc, _TOP_KEYS, {"mode", "params", "initial"}, "<root>")
    mode = doc["mode"]
    _require(mode in MODES, "mode", f"must be one of {MODES}")
    params = _at("params", _parse_params, doc["params"], "params")
    initial = _at("initial", _parse_initial, doc["initial"], "initial")
    integrator = _at("integrator", _parse_integrator, doc.get("integrator"), "integrator")
    outputs = _parse_outputs(doc.get("outputs"), "outputs")
    # the drag kernel at the initial shape: parameters it cannot invert
    # (say, a segment length that underflows) fail here, not mid-run
    _at("params", _raw_fields, initial.alpha1, initial.alpha2, params)

    for other, (key, _, _) in _MODE_KEYS.items():
        _require(key not in doc or other == mode, key, f"only valid in {other} mode")
    key, parse, required = _MODE_KEYS[mode]
    _require(key in doc or not required, key, f"required in {mode} mode")
    own = {key: _at(key, parse, doc[key], key)} if key in doc else {}
    if mode == "closed_loop":
        _at("initial", own[key].check_start, initial)
    elif mode == "controllability":  # linearize holds the rest-state rule
        _at("initial", linearize, initial, params)
    if mode in ("closed_loop", "open_loop"):
        horizon = own[key].horizon
        for i, t in enumerate(outputs.snapshot_times_s):
            _require(0.0 <= t <= horizon, f"outputs.snapshot_times_s[{i}]",
                     f"{t} s lies outside the run [0, {horizon}] s")

    if "name" in doc:
        _require(isinstance(doc["name"], str), "name", "expected a string")
        name = doc["name"]

    # keep an immutable snapshot for hashing and canonical serialization
    raw = json.loads(json.dumps(doc, sort_keys=True))

    return Scenario(name=name, mode=mode, params=params, initial=initial,
                    integrator=integrator, outputs=outputs, raw=raw, **own)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, not readable
        raise ScenarioError(f"{path}: cannot read the scenario: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too long an integer, too deep
        raise ScenarioParseError(f"{path}: cannot read the scenario: {exc}") from exc
    return scenario_from_dict(doc, name=path.stem)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(scenario.canonical_json(), encoding="utf-8")


def simulate_open_loop(
    initial: SwimmerState,
    program: FieldProgram,
    params: SwimmerParams,
    opts: IntegratorOptions = IntegratorOptions(),
    samples: int = 1000,
    snapshot_times=(),
) -> tuple[SimRecord, TrackingStatus]:
    """Integrate the free dynamics under the body-frame field program.

    Integration restarts at the program's piece boundaries so the adaptive
    steppers never straddle a field discontinuity; the pieces' accepted
    nodes are then joined into one run.
    """
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
        signal=last.signal,
        n_steps=sum(r.n_steps for r in pieces),
        n_rejected=sum(r.n_rejected for r in pieces),
        n_evals=sum(r.n_evals for r in pieces),
    )

    def fields_at(times, states):
        h_par, h_perp = program.field_at(times)
        d = tracking_determinant(states[:, 3], states[:, 4], params, np)
        return h_par, h_perp, d, np.zeros(times.size)

    return record_run(joined, fields_at, opts.method, samples, snapshot_times)


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    summary: dict


def _write_geometry_snapshots(record, scenario, outdir: Path):
    """Write one file per distinct snapshot time reached by the run.

    Returns (written paths, requested times after an early stop).
    """
    gdir = outdir / scenario.outputs.geometry_dir
    times = record.column("t")
    written, skipped = [], []
    for t_snap in scenario.outputs.snapshot_times_s:
        if t_snap > times[-1]:
            skipped.append(t_snap)
            continue
        idx = int(np.argmin(np.abs(times - t_snap)))
        path = gdir / _SNAPSHOT_NAME.format(times[idx])
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


_EXIT_CODES = {
    OUTCOME_COMPLETED: EXIT_COMPLETED,
    OUTCOME_SINGULAR: EXIT_SINGULAR_ABORT,
    OUTCOME_FAILURE: EXIT_INTEGRATOR_FAILURE,
}


def run_scenario(scenario: Scenario, outdir) -> RunResult:
    """Execute a scenario and write its outputs under outdir.

    The paths the mode writes are checked before it runs: a directory at the
    summary path, or at the CSV path of a simulation or scan, raises
    IsADirectoryError, and a simulation's geometry_dir is made here.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = scenario.outputs
    csv_path, summary_path = outdir / outputs.csv, outdir / outputs.summary
    for path in (summary_path,) if scenario.mode == "controllability" else (summary_path, csv_path):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
    simulation = scenario.mode in ("closed_loop", "open_loop")
    if simulation and outputs.geometry_dir:
        (outdir / outputs.geometry_dir).mkdir(exist_ok=True)
    t_wall = time.perf_counter()

    summary: dict = {
        "scenario": scenario.name,
        "mode": scenario.mode,
        "scenario_sha256": scenario.sha256(),
        "params": scenario.params.table_units(),
        "field_unit": "uT (pN per A.um)",
    }

    if simulation:
        # the simulators are looked up here, at call time (the tracer wraps them)
        simulate, drive = ((simulate_closed_loop, scenario.trajectory)
                           if scenario.mode == "closed_loop"
                           else (simulate_open_loop, scenario.field_program))
        record, status = simulate(
            scenario.initial,
            drive,
            scenario.params,
            scenario.integrator,
            samples=outputs.samples,
            snapshot_times=outputs.snapshot_times_s,
        )
        write_csv(record, csv_path)
        summary.update(
            {
                "termination": status.outcome,
                "detail": status.detail,
                "t_stop_s": status.t_stop,
                "min_abs_d": status.min_abs_d,
                "min_abs_d_state_set": "accepted_nodes",
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
        if outputs.geometry_dir:
            written, skipped = _write_geometry_snapshots(record, scenario, outdir)
            summary["geometry_snapshots"] = written
            summary["geometry_snapshots_skipped_s"] = skipped
        exit_code = _EXIT_CODES[status.outcome]

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

    else:  # determinant_scan
        scan = scan_determinant(scenario.params, scenario.grid_n)
        n = scenario.grid_n
        cells = np.column_stack(
            (np.repeat(scan.grid, n), np.tile(scan.grid, n), scan.values.ravel())
        )
        write_rows(csv_path, "alpha1,alpha2,d_value", cells)
        summary.update(
            {
                "grid_n": scenario.grid_n,
                "d_origin": scan.d_origin,
                "min_abs_d_off_origin": scan.min_abs_off_origin,
                "argmin_off_origin": list(scan.argmin_off_origin),
                "exclusion_radius": scan.exclusion_radius,
                "csv": str(csv_path),
            }
        )
        exit_code = EXIT_COMPLETED

    summary["wall_time_s"] = time.perf_counter() - t_wall
    summary["exit_code"] = exit_code
    summary["summary_path"] = str(summary_path)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return RunResult(exit_code=exit_code, summary=summary)


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
