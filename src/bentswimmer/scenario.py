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
from dataclasses import dataclass
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
    METHODS,
    STATUS_COMPLETED,
    IntegrationResult,
    IntegratorOptions,
    integrate,
)
from .linalg import SingularMatrixError
from .model import _TABLE_UNITS, SwimmerParams, SwimmerState, joint_points
from .records import CSV_COLUMNS, SimRecord, write_csv, write_grid
from .tracking import (
    OUTCOME_COMPLETED,
    OUTCOME_FAILURE,
    OUTCOME_SINGULAR,
    ShapeRangeSignal,
    Trajectory,
    _require_finite_d,
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

# size caps: at the cap, a shipped simulation (table1_line_ok, _circle or
# _relaxation) took 6-7 s of CPU, peaked at 157-173 MiB RSS and wrote about
# 200 MB of CSV, and a determinant scan took 1.9-2.2 s of CPU, peaked at
# 51 MiB and wrote 57 MB (2 vCPUs, x86_64)
MAX_SAMPLES = 1_000_000
MAX_GRID_N = 1001
# an output name is a single file name from the POSIX portable character
# set, so each output is created inside the output directory and nowhere else
_PLAIN_NAME = re.compile(r"[A-Za-z0-9._-]{1,255}")


def _snapshot_name(t: float) -> str:
    """A geometry snapshot file is named by its time, to 6 decimals; -0.0 is 0.0."""
    return f"snapshot_{t + 0.0:.6f}.json"


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
        # until, h_par and h_perp as three arrays, built once for field_at
        object.__setattr__(self, "_columns", np.array(self.pieces).T)

    @property
    def horizon(self) -> float:
        return self.pieces[-1][0]

    def field_at(self, t):
        """(h_par, h_perp) at time t, a float or an array of times: the first
        piece with t < until, else the last piece."""
        until, h_par, h_perp = self._columns
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
    """A validated scenario. spec is its mode's one input, resolved at load:
    the Trajectory, the FieldProgram, the scan's grid_n, or the controllability
    summary block built from p_rows. sha256 is the digest of the document as
    canonical JSON (indented by 2, keys sorted, one final newline)."""

    name: str
    mode: str
    params: SwimmerParams
    initial: SwimmerState
    integrator: IntegratorOptions
    outputs: OutputSpec
    spec: Trajectory | FieldProgram | int | dict
    sha256: str


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ScenarioValidationError(f"{path}: {message}")


def _at(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with the model's ValueError or SingularMatrixError
    reported at path. A ScenarioValidationError is neither: it already names
    its own path and passes through."""
    try:
        return fn(*args, **kwargs)
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


def _read(d: dict, path: str, keys: dict, optional=()) -> dict:
    """The object d read through its key table: each present key by its
    reader at path.key, in table order. A key not in the table is unknown;
    one absent from d is missing unless it is optional."""
    _check_keys(d, keys.keys(), keys.keys() - set(optional), path)
    return {k: read(d[k], f"{path}.{k}") for k, read in keys.items() if k in d}


def _read_optional(doc: dict, key: str, keys: dict) -> dict:
    """An optional block, every key optional: absent or null reads as no keys."""
    return {} if doc.get(key) is None else _read(doc[key], key, keys, optional=keys)


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


def _as_numbers(v, path: str) -> tuple[float, ...]:
    _require(isinstance(v, list), path, "expected a list")
    return tuple(_as_number(x, f"{path}[{i}]") for i, x in enumerate(v))


def _as_integer(v, path: str, lo: int, hi: int) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
             path, f"expected an integer in {lo}..{hi}")
    return v


def _as_name(v, path: str) -> str:
    _require(isinstance(v, str) and _PLAIN_NAME.fullmatch(v) is not None
             and v not in (".", ".."), path,
             "expected a plain file name: 1 to 255 letters, digits, '.', '_' or '-'")
    return v


def _as_method(v, path: str) -> str:
    _require(v in METHODS, path, f"must be one of {METHODS}")
    return v


def _at_point(build):
    """build, with its first argument, a point, given as its x and y."""
    return lambda x, y, *rest: build((x, y), *rest)


# the key table of each block: each key and its reader, in read order
_PARAMS = dict.fromkeys(_TABLE_UNITS, _as_number)
_INITIAL = dict.fromkeys(  # in SwimmerState field order
    ("x_um", "y_um", "theta_rad", "alpha1_rad", "alpha2_rad"), _as_number)
_INTEGRATOR = {"abs_tol": _as_number, "rel_tol": _as_number, "method": _as_method}
_OUTPUTS = {**dict.fromkeys(("csv", "summary", "geometry_dir"), _as_name),
            "samples": lambda v, path: _as_integer(v, path, 2, MAX_SAMPLES),
            "snapshot_times_s": _as_numbers}
_PIECE = dict.fromkeys(("until_t_s", "h_par_uT", "h_perp_uT"), _as_number)
# each trajectory preset: its builder and its keys, in the builder's argument order
_PRESETS = {
    "line": (_at_point(line_trajectory), dict.fromkeys(
        ("start_x_um", "start_y_um", "heading_rad", "speed_um_s", "duration_s"), _as_number)),
    "circle": (_at_point(circle_trajectory), dict.fromkeys(
        ("center_x_um", "center_y_um", "radius_um", "angular_rate_rad_s", "turns",
         "phase_rad"), _as_number)),
    "waypoint_spline": (waypoint_trajectory, dict.fromkeys(("times_s", "x_um", "y_um"),
                                                           _as_numbers)),
}


def _parse_trajectory(d: dict, path: str) -> Trajectory:
    _require(isinstance(d, dict), path, "expected an object")
    _require("preset" in d, path, "missing required key(s) ['preset']")
    preset = d["preset"]
    _require(isinstance(preset, str) and preset in _PRESETS, f"{path}.preset",
             f"must be one of {sorted(_PRESETS)}")
    build, keys = _PRESETS[preset]
    # preset, checked above, heads the table so that it is allowed; it is no builder argument
    _, *args = _read(d, path, {"preset": lambda v, _: v, **keys}, optional=("phase_rad",)).values()
    return build(*args)


def _parse_field_program(items, path: str) -> FieldProgram:
    _require(isinstance(items, list) and items, path, "expected a non-empty list")
    return FieldProgram(pieces=tuple(tuple(_read(piece, f"{path}[{i}]", _PIECE).values())
                                     for i, piece in enumerate(items)))


def _parse_outputs(values: dict, path: str) -> OutputSpec:
    spec = OutputSpec(**values)
    _require(spec.summary != spec.csv, f"{path}.summary", f"{spec.summary!r} is also csv")
    _require(spec.geometry_dir not in (spec.csv, spec.summary), f"{path}.geometry_dir",
             f"{spec.geometry_dir!r} is also csv or summary")
    first = {}
    for i, t in enumerate(spec.snapshot_times_s):
        other = first.setdefault(_snapshot_name(t), t)
        _require(other == t, f"{path}.snapshot_times_s[{i}]",
                 f"{t} s would share a snapshot file with {other} s")
    return spec


# each mode's own key, valid in that mode only: (key, parser, default or None if required)
_MODE_KEYS = {
    "open_loop": ("field_program", _parse_field_program, None),
    "closed_loop": ("trajectory", _parse_trajectory, None),
    "controllability": ("p_rows", lambda v, path: _as_integer(v, path, 1, 5), 2),
    "determinant_scan": ("grid_n", lambda v, path: _as_integer(v, path, 2, MAX_GRID_N), 101),
}
MODES = tuple(_MODE_KEYS)
_TOP_KEYS = {"name", "mode", "params", "initial", "integrator", "outputs",
             *(key for key, _, _ in _MODE_KEYS.values())}


def _controllability(initial: SwimmerState, params: SwimmerParams, p_rows: int) -> dict:
    """The controllability summary block: the linearization at the rest state
    initial (linearize's rule, reported at initial), its Kalman matrix and the
    rank test on its first p_rows rows, and the position determinant in closed
    form and from the linearization. Raises ValueError when the Kalman matrix
    or either determinant is not finite: an overflow shows as such an entry."""
    with np.errstate(all="ignore"):
        lin = _at("initial", linearize, initial, params)
        kal = kalman_matrix(lin)
        if not np.isfinite(kal).all():
            raise ValueError("the Kalman matrix at the rest state is not finite")
        verdict = partial_controllability(kal, p_rows)
        closed = bent_submatrix_determinant(params.alpha0, params)
        numeric = numeric_bent_submatrix_determinant(params.alpha0, params)
    if not (math.isfinite(closed) and math.isfinite(numeric)):
        raise ValueError(f"the position determinant is not finite: closed form {closed}, "
                         f"numeric {numeric}")
    return {
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
            "ratio_numeric_over_closed": (numeric / closed) if closed != 0.0 else None,
            "note": "the closed form is stated for the opposite elastic-torque "
                    "sign convention; the expected ratio is -1",
        },
    }


def scenario_from_dict(doc: dict, name: str = "<dict>") -> Scenario:
    _require(isinstance(doc, dict), "<root>", "scenario must be a JSON object")
    _check_keys(doc, _TOP_KEYS, {"mode", "params", "initial"}, "<root>")
    mode = doc["mode"]
    _require(mode in MODES, "mode", f"must be one of {MODES}")
    params = _at("params", SwimmerParams.from_table_units,
                 **_read(doc["params"], "params", _PARAMS))
    initial = _at("initial", SwimmerState, *_read(doc["initial"], "initial", _INITIAL).values())
    integrator = _at("integrator", IntegratorOptions,
                     **_read_optional(doc, "integrator", _INTEGRATOR))
    outputs = _parse_outputs(_read_optional(doc, "outputs", _OUTPUTS), "outputs")
    # D, through the drag kernel, at the initial shape: parameters the kernel
    # cannot invert (say, a segment length that underflows) fail here, not mid-run
    d = _at("params", tracking_determinant, initial.alpha1, initial.alpha2, params)

    for other, (key, _, _) in _MODE_KEYS.items():
        _require(key not in doc or other == mode, key, f"only valid in {other} mode")
    key, parse, default = _MODE_KEYS[mode]
    _require(key in doc or default is not None, key, f"required in {mode} mode")
    spec = _at(key, parse, doc[key], key) if key in doc else default
    if mode == "closed_loop":
        _at("initial", spec.check_start, initial)
    elif mode == "controllability":
        spec = _at("params", _controllability, initial, params, spec)
    if mode in ("closed_loop", "open_loop"):
        # the run checks D at every sample, the first one included
        _at("params", _require_finite_d, d, initial.alpha1, initial.alpha2)
        horizon = spec.horizon
        for i, t in enumerate(outputs.snapshot_times_s):
            _require(0.0 <= t <= horizon, f"outputs.snapshot_times_s[{i}]",
                     f"{t} s lies outside the run [0, {horizon}] s")

    if "name" in doc:
        _require(isinstance(doc["name"], str), "name", "expected a string")
        name = doc["name"]

    canonical = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return Scenario(name=name, mode=mode, params=params, initial=initial,
                    integrator=integrator, outputs=outputs, spec=spec,
                    sha256=hashlib.sha256(canonical.encode()).hexdigest())


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


def simulate_open_loop(
    initial: SwimmerState,
    program: FieldProgram,
    params: SwimmerParams,
    opts: IntegratorOptions = IntegratorOptions(),
    samples: int = 1000,
    snapshot_times=(),
) -> tuple[SimRecord, dict]:
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


_EXIT_CODES = {
    OUTCOME_COMPLETED: EXIT_COMPLETED,
    OUTCOME_SINGULAR: EXIT_SINGULAR_ABORT,
    OUTCOME_FAILURE: EXIT_INTEGRATOR_FAILURE,
}


def run_scenario(scenario: Scenario, outdir) -> dict:
    """Execute a scenario, write its outputs under outdir, and return the
    summary it writes; its exit_code is the CLI's.

    Every path the mode writes is named before it runs: the summary, the CSV
    of a simulation or scan, and a simulation's snapshot plan, which maps
    each requested time to its file under geometry_dir, first request first.
    A directory at any of them raises IsADirectoryError, and geometry_dir is
    made here, so a blocked path writes nothing. After the run, each planned
    time up to t_stop, a sample time exactly, is written from its own row.
    Params the run cannot evaluate (a singular drag matrix, or a D that is
    not finite, at a shape it reached) raise ScenarioValidationError at
    params before any output is written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = scenario.outputs
    csv_path, summary_path = outdir / outputs.csv, outdir / outputs.summary
    simulation = scenario.mode in ("closed_loop", "open_loop")
    gdir = outdir / outputs.geometry_dir if simulation and outputs.geometry_dir else None
    snapshots = {t: gdir / _snapshot_name(t) for t in outputs.snapshot_times_s} if gdir else {}
    files = (summary_path,) if scenario.mode == "controllability" else (summary_path, csv_path)
    for path in (*files, *snapshots.values()):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
    if gdir:
        gdir.mkdir(exist_ok=True)
    t_wall = time.perf_counter()

    summary: dict = {
        "scenario": scenario.name,
        "mode": scenario.mode,
        "scenario_sha256": scenario.sha256,
        "params": scenario.params.table_units(),
        "field_unit": "uT (pN per A.um)",
    }

    if simulation:
        # the simulators are looked up here, at call time (the tracer wraps them)
        simulate = simulate_closed_loop if scenario.mode == "closed_loop" else simulate_open_loop
        record, report = _at("params", simulate, scenario.initial, scenario.spec, scenario.params,
                             scenario.integrator, samples=outputs.samples,
                             snapshot_times=tuple(snapshots))
        write_csv(record, csv_path)
        summary.update(report)
        summary["final_state"] = {k: float(v) for k, v in zip(CSV_COLUMNS[:6], record.data[-1])}
        summary["csv"] = str(csv_path)
        if gdir:
            reached = {t: path for t, path in snapshots.items() if t <= report["t_stop_s"]}
            for t, path in reached.items():
                row = record.data[np.searchsorted(record.column("t"), t)]
                pts = joint_points(SwimmerState(*row[1:6]), scenario.params)
                payload = {"t_s": float(row[0]), "points_um": pts.tolist()}
                path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            summary["geometry_snapshots"] = [str(path) for path in reached.values()]
            summary["geometry_snapshots_skipped_s"] = [
                t for t in outputs.snapshot_times_s if t > report["t_stop_s"]]
        exit_code = _EXIT_CODES[report["termination"]]

    elif scenario.mode == "controllability":
        summary.update(scenario.spec)
        exit_code = EXIT_COMPLETED

    else:  # determinant_scan
        grid, values, block = _at("params", scan_determinant, scenario.params, scenario.spec)
        write_grid(csv_path, "alpha1,alpha2,d_value", grid, values)
        summary.update(block)
        summary["csv"] = str(csv_path)
        exit_code = EXIT_COMPLETED

    summary["wall_time_s"] = time.perf_counter() - t_wall
    summary["exit_code"] = exit_code
    summary["summary_path"] = str(summary_path)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


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
    "scenario_from_dict",
    "load_scenario",
    "simulate_open_loop",
    "run_scenario",
]
