import copy
import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bentswimmer
from bentswimmer import cli as cli_module
from bentswimmer.cli import main as cli_main
from bentswimmer import records
from bentswimmer import scenario as scenario_module
from bentswimmer import tracking
from bentswimmer.integrators import IntegratorOptions
from bentswimmer.linalg import SingularMatrixError
from bentswimmer.model import SwimmerState, joint_points
from bentswimmer.records import CSV_HEADER, SimRecord, emit_lab_frame_controls
from bentswimmer.scenario import (
    EXIT_COMPLETED,
    EXIT_CONFIG_ERROR,
    EXIT_SINGULAR_ABORT,
    FieldProgram,
    OutputSpec,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownKeyError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    simulate_open_loop,
)
from bentswimmer.tracking import Trajectory, scan_determinant

from conftest import SCENARIO_DIR, read_record
from oracles import repr_rows, scan_values_reference

A0 = math.pi / 3

TABLE1 = {
    "ell_um": 10.0, "eta_N_s_m2": 12.4e-3, "xi_N_s_m2": 6.2e-3,
    "m1_A_um2": 1.6, "m2_A_um2": 2.4, "m3_A_um2": 3.2,
    "kappa_N_um": 8.3e-7, "alpha0_rad": A0,
}
REST = {"x_um": 0.0, "y_um": 0.0, "theta_rad": 0.0,
        "alpha1_rad": 0.0, "alpha2_rad": A0}


def short_line_doc(heading=0.0, duration=0.01):
    return {
        "mode": "closed_loop",
        "params": dict(TABLE1),
        "initial": dict(REST),
        "trajectory": {
            "preset": "line",
            "start_x_um": 0.0, "start_y_um": 0.0,
            "heading_rad": heading, "speed_um_s": 50.0, "duration_s": duration,
        },
        "outputs": {"csv": "r.csv", "summary": "s.json", "samples": 100},
    }


def assert_one_error_line(captured, prefix):
    """A config error's output, as (out, err): nothing on stdout, and on
    stderr exactly one line that starts with prefix and holds no traceback.
    Tests read it with capfd, so output written straight to file descriptor
    2 counts; the suite's filterwarnings makes any warning an error."""
    out, err = captured
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


def written_files(root):
    return sorted(p for p in Path(root).rglob("*") if p.is_file())


# ------------------------------------------------------------------- loading

def test_load_shipped_circle_scenario(scenario_dir):
    scn = load_scenario(scenario_dir / "table1_circle.json")
    assert scn.mode == "closed_loop"
    echo = scn.params.table_units()
    assert echo["ell_um"] == 10.0
    assert echo["eta_N_s_m2"] == pytest.approx(12.4e-3)
    assert echo["xi_N_s_m2"] == pytest.approx(6.2e-3)
    assert (echo["m1_A_um2"], echo["m2_A_um2"], echo["m3_A_um2"]) == (1.6, 2.4, 3.2)
    assert echo["kappa_N_um"] == pytest.approx(8.3e-7)
    assert isinstance(scn.spec, Trajectory)
    assert scn.integrator.method == "adaptive_explicit_rk45"


def test_missing_trajectory_in_closed_loop():
    doc = short_line_doc()
    del doc["trajectory"]
    with pytest.raises(ScenarioValidationError, match="trajectory"):
        scenario_from_dict(doc)


def test_unknown_key_rejected_distinctly():
    doc = short_line_doc()
    doc["params"]["viscosity"] = 1.0
    with pytest.raises(UnknownKeyError, match="viscosity"):
        scenario_from_dict(doc)


def test_parse_error_distinct(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"mode": "closed_loop",\n  "params": }')
    with pytest.raises(ScenarioParseError, match="line 2"):
        load_scenario(p)


def test_validation_errors_name_the_field():
    doc = short_line_doc()
    doc["params"]["ell_um"] = -1.0
    with pytest.raises(ScenarioValidationError, match="params"):
        scenario_from_dict(doc)
    doc = short_line_doc()
    doc["initial"]["x_um"] = 5.0  # no longer matches trajectory start
    with pytest.raises(ScenarioValidationError, match="initial"):
        scenario_from_dict(doc)
    doc = short_line_doc()
    doc["field_program"] = [{"until_t_s": 1.0, "h_par_uT": 0.0, "h_perp_uT": 0.0}]
    with pytest.raises(ScenarioValidationError, match="field_program"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("entry", ["abc", None, True])
def test_snapshot_time_must_be_a_number(entry, tmp_path, capfd):
    doc = short_line_doc()
    doc["outputs"]["snapshot_times_s"] = [0.0, entry]
    with pytest.raises(ScenarioValidationError, match=r"outputs\.snapshot_times_s\[1\]"):
        scenario_from_dict(doc)
    p = tmp_path / "bad_snapshot.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["validate", str(p)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), "error: outputs.snapshot_times_s[1]: ")


@pytest.mark.parametrize("mode,entry", [
    ("closed_loop", -1e-3),
    ("closed_loop", 0.011),
    ("open_loop", -1e-3),
    ("open_loop", 2e-3 + 1e-9),
])
def test_snapshot_time_must_lie_in_the_run(mode, entry, tmp_path, capfd):
    doc = short_line_doc()  # horizon 0.01 s
    if mode == "open_loop":
        del doc["trajectory"]
        doc["mode"] = "open_loop"
        doc["field_program"] = [{"until_t_s": 2e-3, "h_par_uT": 0.0, "h_perp_uT": 0.0}]
    doc["outputs"]["snapshot_times_s"] = [0.0, entry]
    with pytest.raises(ScenarioValidationError, match=r"outputs\.snapshot_times_s\[1\]"):
        scenario_from_dict(doc)
    p = tmp_path / "bad_snapshot.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["validate", str(p)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), "error: outputs.snapshot_times_s[1]: ")


def test_rel_tol_below_the_floor_is_rejected(tmp_path, capfd):
    doc = short_line_doc()
    doc["integrator"] = {"method": "trapezoidal_adaptive", "abs_tol": 1e-9, "rel_tol": 1e-15}
    with pytest.raises(ScenarioValidationError, match=r"^integrator: rel_tol"):
        scenario_from_dict(doc)
    p = tmp_path / "too_tight.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(p), "--output-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), "error: integrator: rel_tol")
    assert not (tmp_path / "r.csv").exists()


def waypoint_doc():
    doc = short_line_doc()
    doc["trajectory"] = {"preset": "waypoint_spline", "times_s": [0.0, 0.004, 0.008, 0.01],
                         "x_um": [0.0, 0.1, 0.2, 0.2], "y_um": [0.0, 0.05, 0.0, 0.1]}
    return doc


def assert_cli_rejects(doc, path, tmp_path, capfd):
    """`validate` exits 4 and its one error line names the field path."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["validate", str(p)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: {path}: ")


@pytest.mark.parametrize("block,value,path", [
    ("params", 5, "params"),
    ("integrator", 5, "integrator"),
    ("trajectory", 5, "trajectory"),
    ("trajectory", {"preset": ["line"]}, "trajectory.preset"),
    # a demand at rest is a line at zero speed: the constant preset is gone
    ("trajectory", {"preset": "constant", "x_um": 0.0, "y_um": 0.0, "duration_s": 0.01},
     "trajectory.preset"),
    ("initial", "abc", "initial"),
    ("outputs", ["r.csv"], "outputs"),
    # only an absent or null optional block means the defaults
    *((block, value, block) for block in ("integrator", "outputs")
      for value in ([], 0, False, "")),
], ids=["params", "integrator", "trajectory", "preset_list", "preset_constant",
        "initial_string", "outputs",
        *(f"{block}_{kind}" for block in ("integrator", "outputs")
          for kind in ("empty_list", "zero", "false", "empty_string"))])
def test_malformed_block_names_its_path(block, value, path, tmp_path, capfd):
    doc = short_line_doc()
    doc[block] = value
    with pytest.raises(ScenarioValidationError,
                       match=rf"^{re.escape(path)}: (expected an object|must be one of)"):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, path, tmp_path, capfd)


@pytest.mark.parametrize("block", ["integrator", "outputs"])
def test_null_optional_block_means_the_defaults(block, tmp_path, capsys):
    doc = short_line_doc()
    doc[block] = None
    scn = scenario_from_dict(doc)
    assert scn.integrator == IntegratorOptions()
    assert scn.outputs == (OutputSpec() if block == "outputs"
                           else OutputSpec(csv="r.csv", summary="s.json", samples=100))
    p = tmp_path / "null_block.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["validate", str(p)]) == EXIT_COMPLETED


def _get(doc, path):
    """The entry at a field path such as field_program[0]."""
    for key in re.findall(r"\w+", path):
        doc = doc[int(key) if key.isdigit() else key]
    return doc


def _open_loop_doc():
    doc = short_line_doc()
    del doc["trajectory"]
    doc["mode"] = "open_loop"
    doc["field_program"] = [{"until_t_s": 2e-3, "h_par_uT": 0.0, "h_perp_uT": 0.0}]
    return doc


def _circle_doc():
    doc = short_line_doc()
    doc["trajectory"] = {"preset": "circle", "center_x_um": -5.0, "center_y_um": 0.0,
                         "radius_um": 5.0, "angular_rate_rad_s": 10.0, "turns": 0.01,
                         "phase_rad": 0.0}
    return doc


# each key table: a doc that sets every key of the block, the block's path,
# and the keys that may be left out
KEY_TABLES = {
    "params": (short_line_doc, "params", ()),
    "initial": (short_line_doc, "initial", ()),
    "integrator": (short_line_doc, "integrator", ("abs_tol", "rel_tol", "method")),
    "outputs": (short_line_doc, "outputs",
                ("csv", "summary", "geometry_dir", "samples", "snapshot_times_s")),
    "line": (short_line_doc, "trajectory", ()),
    "circle": (_circle_doc, "trajectory", ("phase_rad",)),
    "waypoint_spline": (waypoint_doc, "trajectory", ()),
    "field_program_piece": (_open_loop_doc, "field_program[0]", ()),
}


@pytest.mark.parametrize("table", list(KEY_TABLES))
def test_every_key_table(table):
    make, path, optional = KEY_TABLES[table]
    doc = make()
    doc["integrator"] = {"abs_tol": 1e-9, "rel_tol": 1e-9, "method": "adaptive_explicit_rk45"}
    doc["outputs"].update(geometry_dir="geom", snapshot_times_s=[0.0])
    scenario_from_dict(doc)
    keys = list(_get(doc, path))
    where = re.escape(path)

    bad = copy.deepcopy(doc)
    _get(bad, path)["bogus_key"] = 1.0
    with pytest.raises(UnknownKeyError, match=rf"^{where}: unknown key\(s\) \['bogus_key'\]; "
                       rf"allowed: {re.escape(str(sorted(keys)))}$"):
        scenario_from_dict(bad)

    for key in keys:
        bad = copy.deepcopy(doc)
        del _get(bad, path)[key]
        if key in optional:
            scenario_from_dict(bad)
        else:
            with pytest.raises(ScenarioValidationError,
                               match=rf"^{where}: missing required key\(s\) \[{key!r}\]$"):
                scenario_from_dict(bad)
        bad = copy.deepcopy(doc)
        _get(bad, path)[key] = "x y"
        with pytest.raises(ScenarioValidationError, match=rf"^{where}\.{key}: "):
            scenario_from_dict(bad)


@pytest.mark.parametrize("entry", [True, None, "abc"])
@pytest.mark.parametrize("key", ["times_s", "x_um", "y_um"])
def test_waypoint_entries_must_be_numbers(key, entry, tmp_path, capfd):
    doc = waypoint_doc()
    scenario_from_dict(doc)
    doc["trajectory"][key][1] = entry
    path = f"trajectory.{key}[1]"
    with pytest.raises(ScenarioValidationError, match=rf"^{re.escape(path)}: expected a number"):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, path, tmp_path, capfd)


def _set(doc, path, value):
    """Set the entry at a field path such as trajectory.x_um[1]."""
    *parents, last = re.findall(r"\w+", path)
    for key in parents:
        doc = doc[int(key) if key.isdigit() else key]
    doc[int(last) if last.isdigit() else last] = value


def assert_numbers_must_be_finite(doc, path, tmp_path, capfd):
    """doc is valid; with NaN, an infinity or an integer too large for a float
    at path, it is rejected naming the path. json reads all of these."""
    scenario_from_dict(doc)
    for value in (math.nan, math.inf, -math.inf, 10 ** 401):
        bad = copy.deepcopy(doc)
        _set(bad, path, value)
        with pytest.raises(ScenarioValidationError, match=rf"^{re.escape(path)}: "
                           "(expected a finite number|integer too large for a float)"):
            scenario_from_dict(bad)
        assert_cli_rejects(bad, path, tmp_path, capfd)


@pytest.mark.parametrize("key,path", [
    ("abs_tol", "integrator"), ("rel_tol", "integrator"), ("eps_d", "eps_d"),
])
def test_tolerances_must_be_finite(key, path, tmp_path, capfd):
    doc = short_line_doc()
    if path == "integrator":
        doc["integrator"] = {key: 1e-9}
        assert_numbers_must_be_finite(doc, f"integrator.{key}", tmp_path, capfd)
        return
    # the |D| floor is the constant tracking.EPS_D: the key is unknown
    doc[key] = 1e-8
    with pytest.raises(UnknownKeyError, match=rf"^<root>: unknown key\(s\) \[{key!r}\]"):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, "<root>", tmp_path, capfd)


@pytest.mark.parametrize("path", [
    "params.ell_um", "initial.theta_rad", "trajectory.heading_rad", "trajectory.speed_um_s",
    "trajectory.x_um[1]", "outputs.snapshot_times_s[0]", "field_program[0].until_t_s",
    "field_program[0].h_perp_uT",
])
def test_every_number_must_be_finite(path, tmp_path, capfd):
    doc = waypoint_doc() if path.startswith("trajectory.x_um") else short_line_doc()
    doc["outputs"]["snapshot_times_s"] = [0.0]
    if path.startswith("field_program"):
        del doc["trajectory"]
        doc["mode"] = "open_loop"
        doc["field_program"] = [{"until_t_s": 2e-3, "h_par_uT": 0.0, "h_perp_uT": 0.0}]
    assert_numbers_must_be_finite(doc, path, tmp_path, capfd)


@pytest.mark.parametrize("key,value", [
    ("h_init_s", 1e-7), ("h_min_s", 1e-14), ("h_max_s", 1.0), ("max_steps", 50),
])
def test_step_control_keys_are_unknown(key, value, tmp_path, capfd):
    # the first step, the collapse floor and the attempt cap are constants
    doc = short_line_doc()
    doc["integrator"] = {"method": "adaptive_explicit_rk45", key: value}
    with pytest.raises(UnknownKeyError, match=rf"^integrator: unknown key\(s\) \[{key!r}\]"):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, "integrator", tmp_path, capfd)


@pytest.mark.parametrize("key,value,path", [
    ("csv", "", "outputs.csv"),
    ("csv", "sub/r.csv", "outputs.csv"),
    ("csv", "..", "outputs.csv"),
    ("csv", "<outside>", "outputs.csv"),
    ("geometry_dir", "<outside>", "outputs.geometry_dir"),
    ("summary", "r.csv", "outputs.summary"),
    ("geometry_dir", "s.json", "outputs.geometry_dir"),
    ("snapshot_times_s", [0.0010000001, 0.0010000004], "outputs.snapshot_times_s[1]"),
    ("samples", 10 ** 30, "outputs.samples"),
], ids=["empty", "subdir", "dotdot", "absolute_csv", "absolute_geometry", "summary_is_csv",
        "geometry_is_summary", "snapshot_names_collide", "samples_too_many"])
def test_outputs_must_be_writable_and_distinct(key, value, path, tmp_path, capfd):
    # each output is one plain file name under --output-dir, no two share a
    # file, and the sample count is capped; a violation writes nothing
    doc = short_line_doc()
    doc["outputs"]["geometry_dir"] = "geom"
    doc["outputs"][key] = str(tmp_path / "outside") if value == "<outside>" else value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = cli_main(["simulate", str(p), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: {path}: ")
    assert list(tmp_path.iterdir()) == [p]


@pytest.mark.parametrize("mode,key,value", [
    ("determinant_scan", "grid_n", 1),
    ("determinant_scan", "grid_n", 1002),
    ("determinant_scan", "grid_n", 10 ** 6),
    ("determinant_scan", "grid_n", 51.0),
    ("controllability", "p_rows", 0),
    ("controllability", "p_rows", 6),
    ("controllability", "p_rows", True),
])
def test_sizes_are_bounded_integers(mode, key, value, tmp_path, capfd):
    doc = {"mode": mode, "params": dict(TABLE1), "initial": dict(REST), key: 2}
    scenario_from_dict(doc)
    doc[key] = value
    with pytest.raises(ScenarioValidationError, match=rf"^{key}: expected an integer in"):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, key, tmp_path, capfd)


@pytest.mark.parametrize("mode", ["closed_loop", "controllability", "determinant_scan"])
def test_parameters_the_drag_kernel_cannot_invert_are_rejected(mode, tmp_path, capfd):
    # a segment length that underflows the drag matrix fails validation
    # instead of ending a run with a SingularMatrixError traceback
    doc = short_line_doc()
    if mode != "closed_loop":
        doc = {"mode": mode, "params": dict(TABLE1), "initial": dict(REST)}
    doc["params"]["ell_um"] = 1e-300
    with pytest.raises(ScenarioValidationError, match=r"^params: drag matrix singular"):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, "params", tmp_path, capfd)


@pytest.mark.parametrize("start_x_um,duration_s", [(1e4, 0.004), (1e5, 0.1)])
def test_line_far_from_the_origin_tracks_exactly(scenario_dir, tmp_path, start_x_um,
                                                 duration_s):
    # the same line as table1_line_ok, started far from the origin
    doc = json.loads((scenario_dir / "table1_line_ok.json").read_text(encoding="utf-8"))
    doc["initial"]["x_um"] = doc["trajectory"]["start_x_um"] = start_x_um
    doc["trajectory"]["duration_s"] = duration_s
    doc["outputs"] = {"csv": "r.csv", "summary": "s.json", "samples": 100}
    summary = run_scenario(scenario_from_dict(doc, name="far_line"), tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    assert summary["tracking_error_um"] <= 1e-8


# each mode's own key, with a value that is valid in that mode
MODE_KEYS = {
    "closed_loop": ("trajectory", short_line_doc()["trajectory"]),
    "open_loop": ("field_program", [{"until_t_s": 2e-3, "h_par_uT": 0.0, "h_perp_uT": 0.0}]),
    "determinant_scan": ("grid_n", 11),
    "controllability": ("p_rows", 2),
}
MODE_KEY_VALUES = dict(MODE_KEYS.values())


@pytest.mark.parametrize("mode,change,path", [
    *((mode, f"add_{key}", key) for mode, (own, _) in MODE_KEYS.items()
      for key in MODE_KEY_VALUES if key != own),
    ("closed_loop", "drop_trajectory", "trajectory"),
    ("open_loop", "drop_field_program", "field_program"),
    ("controllability", "bend_initial", "initial"),
])
def test_each_mode_key_belongs_to_its_mode(mode, change, path, tmp_path, capfd):
    # trajectory, field_program, grid_n and p_rows are each valid only in
    # their own mode, and the two simulation modes require theirs; a
    # controllability scenario linearizes at a rest state
    own, value = MODE_KEYS[mode]
    doc = {"mode": mode, "params": dict(TABLE1), "initial": dict(REST),
           "outputs": {"csv": "r.csv", "summary": "s.json"}, own: copy.deepcopy(value)}
    scenario_from_dict(doc)
    action, _, key = change.partition("_")
    if action == "add":
        doc[key] = copy.deepcopy(MODE_KEY_VALUES[key])
    elif action == "drop":
        del doc[key]
    else:
        doc["initial"]["alpha1_rad"] = 0.1
    with pytest.raises(ScenarioValidationError, match=rf"^{path}: "):
        scenario_from_dict(doc)
    assert_cli_rejects(doc, path, tmp_path, capfd)


def test_open_loop_requires_field_program():
    doc = {
        "mode": "open_loop",
        "params": dict(TABLE1),
        "initial": dict(REST),
    }
    with pytest.raises(ScenarioValidationError, match="field_program"):
        scenario_from_dict(doc)


def test_straight_rest_controllability_scenario_loads(scenario_dir, tmp_path):
    scn = load_scenario(scenario_dir / "straight_controllability.json")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    assert summary["partially_controllable"] is False
    assert summary["kalman_first_row_zero"] is True


def test_round_trip_serialization(tmp_path):
    # sha256 is the digest of the document as canonical JSON (indented by 2,
    # keys sorted, one final newline): a file of those bytes loads to the
    # same scenario, and its digest is the scenario's
    doc = short_line_doc()
    scn = scenario_from_dict(doc, name="short_line")
    out = tmp_path / "scn.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    again = load_scenario(out)
    assert again.sha256 == scn.sha256 == hashlib.sha256(out.read_bytes()).hexdigest()
    assert ((again.mode, again.params, again.initial, again.integrator, again.outputs)
            == (scn.mode, scn.params, scn.initial, scn.integrator, scn.outputs))
    assert again.spec.horizon == scn.spec.horizon


def test_field_program_semantics():
    fp = FieldProgram(pieces=((0.5, 1.0, 2.0), (1.0, -3.0, 0.0)))
    assert fp.horizon == 1.0
    assert fp.field_at(0.0) == (1.0, 2.0)
    assert fp.field_at(0.49) == (1.0, 2.0)
    assert fp.field_at(0.5) == (-3.0, 0.0)
    assert fp.field_at(2.0) == (-3.0, 0.0)
    times = np.array([0.0, 0.49, 0.5, 0.99, 1.0, 2.0])
    h_par, h_perp = fp.field_at(times)
    assert h_par.tolist() == [1.0, 1.0, -3.0, -3.0, -3.0, -3.0]
    assert h_perp.tolist() == [2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        FieldProgram(pieces=((0.5, 0.0, 0.0), (0.4, 0.0, 0.0)))


# ------------------------------------------------------------------- records

def test_emit_lab_frame_controls_identity_and_quarter_turn():
    data = np.zeros((3, 11))
    data[:, 0] = [0.0, 1.0, 2.0]
    data[:, 3] = [0.0, math.pi / 2, 0.77]           # theta
    data[:, 6] = [1.5, 1.5, -2.0]                   # h_par
    data[:, 7] = [-0.5, -0.5, 3.0]                  # h_perp
    rec = emit_lab_frame_controls(SimRecord(data=data))
    assert rec.column("h_x")[0] == pytest.approx(1.5)
    assert rec.column("h_y")[0] == pytest.approx(-0.5)
    assert rec.column("h_x")[1] == pytest.approx(0.5)   # theta=pi/2: -h_perp
    assert rec.column("h_y")[1] == pytest.approx(1.5)   # theta=pi/2: +h_par
    for i in range(3):
        assert math.hypot(rec.column("h_x")[i], rec.column("h_y")[i]) == pytest.approx(
            math.hypot(data[i, 6], data[i, 7]), rel=1e-12
        )


# ------------------------------------------------------------------- running

def test_run_short_line_writes_outputs(tmp_path):
    scn = scenario_from_dict(short_line_doc(), name="short_line")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    csv_path = tmp_path / "r.csv"
    assert csv_path.exists()
    first = csv_path.read_text().splitlines()[0]
    assert first == CSV_HEADER == "t,x,y,theta,alpha1,alpha2,h_par,h_perp,h_x,h_y,d_value"
    rec = read_record(csv_path)
    assert rec.data.shape[0] >= 100
    assert (np.diff(rec.column("t")) > 0).all()
    assert np.isfinite(rec.data).all()
    # the run returns the summary it writes
    assert json.loads((tmp_path / "s.json").read_text()) == summary
    assert summary["termination"] == "completed"
    assert summary["tracking_error_um"] <= 1e-8
    assert summary["min_abs_d_state_set"] == "accepted_nodes"
    assert summary["integrator"]["solver"] == "ndf"


@pytest.mark.parametrize("name", ["table1_line_ok", "table1_waypoints", "table1_relaxation"])
def test_summary_writes_the_simulators_report_once(name, scenario_dir, tmp_path, monkeypatch):
    # the summary's simulation keys are the simulator's report, as it was
    # returned (with the tracking error in closed loop), plus the record's
    # final state, the CSV path and the snapshot lists (with geometry_dir)
    scn = load_scenario(scenario_dir / f"{name}.json")
    simulator = "simulate_closed_loop" if scn.mode == "closed_loop" else "simulate_open_loop"
    simulate, reports = getattr(scenario_module, simulator), []

    def keep(*args, **kwargs):
        record, report = simulate(*args, **kwargs)
        reports.append(copy.deepcopy(report))
        return record, report

    monkeypatch.setattr(scenario_module, simulator, keep)
    summary = run_scenario(scn, tmp_path)
    [report] = reports
    added = ["final_state", "csv"]
    if scn.outputs.geometry_dir:
        added += ["geometry_snapshots", "geometry_snapshots_skipped_s"]
    assert list(summary) == ["scenario", "mode", "scenario_sha256", "params", "field_unit",
                             *report, *added, "wall_time_s", "exit_code", "summary_path"]
    assert list(report) == ["termination", "detail", "t_stop_s", "min_abs_d",
                            "min_abs_d_state_set", "max_field_norm_uT",
                            "max_feedback_residual", "integrator",
                            *["tracking_error_um"] * (scn.mode == "closed_loop")]
    assert {key: summary[key] for key in report} == report


def test_csv_rows_across_blocks_match_the_per_value_format(tmp_path):
    # repr of each float, "nan" for any NaN, one line per row, over several
    # write blocks and a partial last one
    n = 2 * records._CSV_BLOCK_ROWS + 7
    rng = np.random.default_rng(11)
    data = rng.standard_normal((n, len(records.CSV_COLUMNS))) * 10.0 ** rng.integers(-300, 300, (n, 1))
    data[::5, 3] = np.nan
    data[1, :4] = (-0.0, math.inf, -math.inf, 5e-324)
    records.write_csv(SimRecord(data=data), tmp_path / "r.csv")
    want = [CSV_HEADER] + [
        ",".join("nan" if math.isnan(v) else repr(float(v)) for v in row) for row in data
    ]
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == "\n".join(want) + "\n"
    np.testing.assert_array_equal(read_record(tmp_path / "r.csv").data, data)


def test_grid_csv_is_the_column_stack_as_write_rows_writes_it(tmp_path):
    # grid[i], grid[j], values[i, j] per cell, row-major, over more cells
    # than one write_rows block; NaN, infinities, signed zeros, subnormals
    # and +-1e300 among the labels and the values
    n = 17
    rng = np.random.default_rng(25)
    grid = np.sort(rng.standard_normal(n))
    grid[:8] = (-1e300, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, math.nan)
    values = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    values[0, :8] = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e300, 1e300)
    values[n - 1, ::3] = -1.5e-320
    header = "alpha1,alpha2,d_value"
    records.write_grid(tmp_path / "grid.csv", header, grid, values)
    stack = np.column_stack((np.repeat(grid, n), np.tile(grid, n), values.ravel()))
    records.write_rows(tmp_path / "rows.csv", header, stack)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_rerun_byte_identical_csv(tmp_path):
    scn = scenario_from_dict(short_line_doc(), name="short_line")
    run_scenario(scn, tmp_path / "a")
    run_scenario(scn, tmp_path / "b")
    assert (tmp_path / "a/r.csv").read_bytes() == (tmp_path / "b/r.csv").read_bytes()


def test_run_blowup_line_exit_code(tmp_path):
    doc = short_line_doc(heading=math.pi, duration=0.05)
    scn = scenario_from_dict(doc, name="blowup")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_SINGULAR_ABORT
    rec = read_record(tmp_path / "r.csv")
    assert abs(rec.column("alpha1")[-1]) < 0.05
    assert abs(rec.column("alpha2")[-1]) < 0.05
    # only the last row may carry non-finite fields
    assert np.isfinite(rec.data[:-1]).all()


def test_rk45_trial_stage_outside_the_shape_range_is_rejected(scenario_dir, tmp_path,
                                                              monkeypatch):
    # from a shape far from rest, with a long first step, the NDF's trial
    # states (predictors and Newton iterates) take the joint angles out of
    # (-pi, pi); each rejects its step rather than ending the run with
    # shape_out_of_range
    from bentswimmer import tracking

    doc = json.loads((scenario_dir / "table1_line_ok.json").read_text(encoding="utf-8"))
    doc["trajectory"]["duration_s"] = 0.001
    doc["initial"]["alpha1_rad"] = 0.3
    doc["outputs"] = {"csv": "r.csv", "summary": "s.json", "samples": 50}
    monkeypatch.setattr(bentswimmer.integrators, "H_INIT", 1e-4)
    assert doc["integrator"]["method"] == "adaptive_explicit_rk45"
    outside = []
    tracking_integrate = tracking.integrate

    def integrate(rhs, z0, t_span, opts):
        def guarded(t, z):
            try:
                return rhs(t, z)
            except tracking.ShapeRangeSignal:
                outside.append(t)
                raise

        return tracking_integrate(guarded, z0, t_span, opts)

    monkeypatch.setattr(tracking, "integrate", integrate)
    summary = run_scenario(scenario_from_dict(doc, name="long_first_step"), tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED, summary["detail"]
    assert outside and summary["integrator"]["n_rejected"] >= len(outside)
    assert summary["tracking_error_um"] <= 1e-8


def test_run_open_loop_relaxation(tmp_path):
    doc = {
        "mode": "open_loop",
        "params": dict(TABLE1),
        "initial": {**REST, "alpha1_rad": 0.3, "alpha2_rad": A0 + 0.4},
        "field_program": [{"until_t_s": 5e-4, "h_par_uT": 0.0, "h_perp_uT": 0.0}],
        "integrator": {"method": "trapezoidal_adaptive"},
        "outputs": {"csv": "r.csv", "summary": "s.json", "samples": 50},
    }
    scn = scenario_from_dict(doc, name="relax")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    assert summary["min_abs_d_state_set"] == "accepted_nodes"
    assert summary["integrator"]["solver"] == "lsoda"
    final = summary["final_state"]
    assert abs(final["alpha1"]) < 1e-6
    assert abs(final["alpha2"] - A0) < 1e-6
    rec = read_record(tmp_path / "r.csv")
    np.testing.assert_array_equal(rec.column("h_par"), 0.0)
    np.testing.assert_array_equal(rec.column("h_perp"), 0.0)


def test_run_open_loop_piecewise_field(tmp_path):
    doc = {
        "mode": "open_loop",
        "params": dict(TABLE1),
        "initial": dict(REST),
        "field_program": [
            {"until_t_s": 2e-4, "h_par_uT": 0.0, "h_perp_uT": 2e4},
            {"until_t_s": 4e-4, "h_par_uT": 0.0, "h_perp_uT": -2e4},
        ],
        "integrator": {"method": "trapezoidal_adaptive"},
        "outputs": {"csv": "r.csv", "summary": "s.json", "samples": 80},
    }
    scn = scenario_from_dict(doc, name="pulse")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    rec = read_record(tmp_path / "r.csv")
    t = rec.column("t")
    hq = rec.column("h_perp")
    assert (hq[t < 2e-4 - 1e-12] == 2e4).all()
    assert (hq[t >= 2e-4] == -2e4).all()
    # a perpendicular pulse turns the swimmer
    assert abs(rec.column("theta")[-1]) > 1e-4
    # the pieces join without a seam: the state sampled at the boundary is
    # the end state of the first piece integrated on its own
    first = FieldProgram(pieces=(scn.spec.pieces[0],))
    alone, alone_report = simulate_open_loop(scn.initial, first, scn.params, scn.integrator,
                                             samples=2)
    t_b = alone_report["t_stop_s"]
    both, _ = simulate_open_loop(scn.initial, scn.spec, scn.params, scn.integrator,
                                 samples=80, snapshot_times=(t_b,))
    at_b = both.data[both.column("t") == t_b]
    np.testing.assert_array_equal(at_b[:, 1:6], alone.data[-1:, 1:6])


# Short spans, as drag x1e-12 makes of table1_relaxation's 5e-4 s: both
# methods miss item 14's time-scale symmetry (ROADMAP) through an absolute
# constant in seconds
@pytest.mark.parametrize("method", [
    "adaptive_explicit_rk45",
    pytest.param("trapezoidal_adaptive", marks=pytest.mark.xfail(
        strict=True, reason="LSODA's first step, about 3.2e-5 of a 1e-10 s span, "
        "is below the absolute H_MIN, so the run ends in step_collapse at t = 0")),
])
def test_a_1e_10_s_first_piece_completes(method, tmp_path):
    doc = json.loads((Path(__file__).parent / "stiff_program0.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = method
    doc["field_program"].insert(0, dict(doc["field_program"][0], until_t_s=1e-10))
    summary = run_scenario(scenario_from_dict(doc), tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED, summary["detail"]
    assert summary["t_stop_s"] == doc["field_program"][-1]["until_t_s"]


@pytest.mark.xfail(strict=True, reason="the NDF's endpoint guard t_snap is at least 1e-14 s, "
                   "so a 5e-15 s span completes at t = 0 after 0 steps")
def test_a_5e_15_s_relaxation_reaches_its_horizon(scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "table1_relaxation.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = "adaptive_explicit_rk45"
    doc["field_program"] = [{"until_t_s": 5e-15, "h_par_uT": 0.0, "h_perp_uT": 0.0}]
    summary = run_scenario(scenario_from_dict(doc), tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    assert summary["t_stop_s"] == 5e-15
    rec = read_record(tmp_path / doc["outputs"]["csv"])
    assert len(rec.data) == doc["outputs"]["samples"]


def test_run_integrator_failure_exit_code(tmp_path, monkeypatch):
    from bentswimmer.scenario import EXIT_INTEGRATOR_FAILURE

    monkeypatch.setattr(bentswimmer.integrators, "MAX_STEPS", 50)
    doc = short_line_doc()
    doc["integrator"] = {"method": "adaptive_explicit_rk45"}
    scn = scenario_from_dict(doc, name="starved")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_INTEGRATOR_FAILURE
    assert summary["termination"] == "integrator_failure"
    assert summary["t_stop_s"] < 0.01


def test_open_loop_shape_guard_trips():
    # an anti-aligned middle moment under a strong perpendicular field drives
    # the first joint past pi; the run must stop, not integrate overlap
    from bentswimmer.integrators import IntegratorOptions
    from bentswimmer.model import SwimmerParams, SwimmerState

    p = SwimmerParams(ell=10.0, xi=6.2e-3, eta=12.4e-3, m1=1.6, m2=-2.4, m3=3.2,
                      kappa=8.3e5, alpha0=A0)
    st = SwimmerState(0, 0, 0, 2.8, A0)
    prog = FieldProgram(pieces=((1e-3, 0.0, 5e6),))
    rec, report = simulate_open_loop(
        st, prog, p, IntegratorOptions(method="trapezoidal_adaptive"), samples=20
    )
    assert report["termination"] == "integrator_failure"
    assert report["detail"].startswith("shape_out_of_range: joint angles")
    # every emitted row is a genuinely accepted state, still inside the range
    assert (np.abs(rec.column("alpha1")) < math.pi).all()
    assert (np.abs(rec.column("alpha2")) < math.pi).all()


def test_open_loop_library_default_is_the_ndf():
    # simulate_open_loop without opts runs what a scenario without an
    # integrator block runs, IntegratorOptions() (the NDF), not LSODA
    from bentswimmer.integrators import IntegratorOptions

    scn = scenario_from_dict({
        "mode": "open_loop", "params": dict(TABLE1), "initial": dict(REST),
        "field_program": [{"until_t_s": 1e-4, "h_par_uT": 1e3, "h_perp_uT": 2e4}],
    }, name="pulse")
    assert scn.integrator == IntegratorOptions()
    rec, report = simulate_open_loop(scn.initial, scn.spec, scn.params, samples=20)
    want, want_report = simulate_open_loop(scn.initial, scn.spec, scn.params,
                                           IntegratorOptions(), samples=20)
    np.testing.assert_array_equal(rec.data, want.data)
    assert report == want_report and report["integrator"]["solver"] == "ndf"


def test_run_determinant_scan(tmp_path):
    doc = {
        "mode": "determinant_scan",
        "params": dict(TABLE1),
        "initial": dict(REST),
        "grid_n": 41,
        "outputs": {"csv": "grid.csv", "summary": "s.json"},
    }
    scn = scenario_from_dict(doc, name="scan")
    summary = run_scenario(scn, tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    assert abs(summary["d_origin"]) <= 1e-12
    assert summary["min_abs_d_off_origin"] > 0.0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "alpha1,alpha2,d_value"
    assert len(lines) == 1 + 41 * 41
    grid = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
    pts, values, block = scan_determinant(scn.params, 41)
    np.testing.assert_array_equal(grid[:, 2], values.ravel())
    np.testing.assert_array_equal(grid[:, 0], np.repeat(pts, 41))
    np.testing.assert_array_equal(grid[:, 1], np.tile(pts, 41))
    assert {key: summary[key] for key in block} == block


def test_run_controllability_report(tmp_path):
    doc = {
        "mode": "controllability",
        "params": dict(TABLE1),
        "initial": dict(REST),
        "p_rows": 2,
        "outputs": {"summary": "s.json"},
    }
    s = run_scenario(scenario_from_dict(doc, name="ctrl"), tmp_path)
    assert s["exit_code"] == EXIT_COMPLETED
    assert s["partially_controllable"] is True and s["rank"] == 2
    ratio = s["submatrix_determinant"]["ratio_numeric_over_closed"]
    assert ratio == pytest.approx(-1.0, abs=1e-9)
    assert np.array(s["a_matrix"]).shape == (5, 5)
    assert np.array(s["kalman_matrix"]).shape == (5, 10)


def test_geometry_snapshots_written(tmp_path):
    doc = short_line_doc()
    doc["outputs"]["geometry_dir"] = "geom"
    doc["outputs"]["snapshot_times_s"] = [0.0, 0.005, 0.01]
    scn = scenario_from_dict(doc, name="snap")
    summary = run_scenario(scn, tmp_path)
    files = sorted((tmp_path / "geom").glob("snapshot_*.json"))
    assert len(files) == 3
    payload = json.loads(files[0].read_text())
    pts = np.array(payload["points_um"])
    assert pts.shape == (4, 2)
    # consecutive points are one segment length apart
    np.testing.assert_allclose(
        np.linalg.norm(np.diff(pts, axis=0), axis=1), 10.0, rtol=1e-9
    )
    assert summary["geometry_snapshots"] == [str(f) for f in files]
    # each file holds the joints of the CSV row at its time, bit for bit
    rec = read_record(tmp_path / "r.csv")
    for f, t in zip(files, [0.0, 0.005, 0.01]):
        payload = json.loads(f.read_text())
        (row,) = rec.data[rec.column("t") == t]
        state = SwimmerState(x=row[1], y=row[2], theta=row[3], alpha1=row[4], alpha2=row[5])
        assert payload["t_s"] == t
        assert payload["points_um"] == joint_points(state, scn.params).tolist()


def test_negative_zero_snapshot_time_is_the_start(scenario_dir, tmp_path):
    # -0.0 is the start: the record, the file name and t_s read 0.0, and it
    # shares the start's file; a repeated request writes one file
    doc = json.loads((scenario_dir / "table1_line_ok.json").read_text())
    doc["outputs"]["snapshot_times_s"] = [0.0, -0.0, 0.025, 0.025]
    summary = run_scenario(scenario_from_dict(doc), tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    first_t = (tmp_path / "line_ok_record.csv").read_text().splitlines()[1].split(",")[0]
    assert first_t == "0.0"
    gdir = tmp_path / "line_ok_geometry"
    names = ["snapshot_0.000000.json", "snapshot_0.025000.json"]
    assert sorted(p.name for p in gdir.iterdir()) == names
    assert summary["geometry_snapshots"] == [str(gdir / n) for n in names]
    assert '"t_s": 0.0,' in (gdir / names[0]).read_text()


def test_geometry_snapshots_after_abort_are_skipped(tmp_path):
    doc = short_line_doc(heading=math.pi, duration=0.05)
    doc["outputs"]["geometry_dir"] = "geom"
    doc["outputs"]["snapshot_times_s"] = [0.01, 0.03, 0.01, 0.05, 0.03]
    summary = run_scenario(scenario_from_dict(doc, name="snap_abort"), tmp_path)
    assert summary["exit_code"] == EXIT_SINGULAR_ABORT
    assert summary["t_stop_s"] < 0.03
    files = list((tmp_path / "geom").glob("snapshot_*.json"))
    assert [f.name for f in files] == ["snapshot_0.010000.json"]
    assert summary["geometry_snapshots"] == [str(files[0])]
    # every request past the stop, in request order, repeats included
    assert summary["geometry_snapshots_skipped_s"] == [0.03, 0.05, 0.03]


@pytest.mark.parametrize("name,samples", [("table1_line_ok", 1000), ("table1_relaxation", 500)])
def test_snapshot_times_without_geometry_dir_add_no_rows(name, samples, scenario_dir,
                                                           tmp_path):
    # a snapshot time enters the samples only through the snapshot plan,
    # and without geometry_dir there is none: no extra row, no file, no key
    doc = json.loads((scenario_dir / f"{name}.json").read_text())
    doc["outputs"].pop("geometry_dir", None)
    doc["outputs"]["snapshot_times_s"] = [0.0, 1.234e-4, 2.5e-4]  # two off the grid
    summary = run_scenario(scenario_from_dict(doc), tmp_path)
    assert summary["exit_code"] == EXIT_COMPLETED
    rows = (tmp_path / doc["outputs"]["csv"]).read_text().splitlines()[1:]
    assert len(rows) == samples
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [doc["outputs"]["csv"], doc["outputs"]["summary"]])
    assert not [key for key in summary if key.startswith("geometry")]


# ----------------------------------------------------------------------- CLI

# The shipped scenarios, each run as a user runs it: `validate`, then the
# command that the CLI maps its mode to. This is their one run contract.
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
COMMAND_OF_MODE = {mode: command for command, modes in cli_module._EXPECTED_MODE.items()
                   for mode in modes}


def _strict_json(path):
    """path's JSON, read as RFC 8259 allows: a NaN or an infinity raises."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not valid JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_the_shipped_scenarios_are_eight_files():
    assert len(SHIPPED) == 8, SHIPPED


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenario_validates_and_runs_clean(name, tmp_path, capfd):
    # exit 2 for the line that reaches the field blow-up, 0 for the rest;
    # nothing on stderr, and the suite's filterwarnings fails any warning
    path = SCENARIO_DIR / name
    assert cli_main(["validate", str(path)]) == EXIT_COMPLETED
    out, err = capfd.readouterr()
    assert err == ""
    mode = re.match(rf"{re.escape(str(path))}: OK \((\w+) mode, sha256 [0-9a-f]{{12}}\)\n",
                    out).group(1)
    want = EXIT_SINGULAR_ABORT if name == "table1_line_blowup.json" else EXIT_COMPLETED
    assert cli_main([COMMAND_OF_MODE[mode], str(path), "--output-dir", str(tmp_path)]) == want
    out, err = capfd.readouterr()
    assert err == ""
    # every summary and geometry snapshot is strict JSON, and every CSV is
    # its header and the repr join of the values it reads back as
    summary_path = Path(re.fullmatch(r"(?s).*summary written to (.+)\n", out).group(1))
    written = written_files(tmp_path)
    assert summary_path in written
    for out_file in written:
        if out_file.suffix == ".json":
            _strict_json(out_file)
        else:
            raw = out_file.read_bytes()
            data = np.loadtxt(out_file, delimiter=",", skiprows=1, ndmin=2)
            assert raw == repr_rows(raw.split(b"\n", 1)[0].decode(), data), out_file.name
    summary = _strict_json(summary_path)
    # every closed-loop run, completed or aborted, solves its feedback to a
    # scaled residual of 1e-10, and a completed one tracks its demand exactly
    if mode == "closed_loop":
        assert summary["max_feedback_residual"] <= 1e-10
        if summary["termination"] == "completed":
            assert summary["tracking_error_um"] <= 1e-8


def test_cli_validate_config_error(tmp_path, capfd):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli_main(["validate", str(p)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: {p}: invalid JSON at line 1, column 2: ")


@pytest.mark.parametrize("kind", ["missing", "directory", "nested_100000_deep"])
def test_cli_unreadable_scenario_is_a_config_error(kind, tmp_path, capfd):
    p = tmp_path / "scn.json"
    if kind == "directory":
        p.mkdir()
    elif kind == "nested_100000_deep":
        p.write_text("[" * 100_000 + "]" * 100_000)
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(["validate", str(p)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: {p}: cannot read the scenario: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
def test_cli_output_dir_that_cannot_be_created_is_a_config_error(under, tmp_path, capfd):
    # the error comes before the run: nothing is written, the file is unchanged
    scn = tmp_path / "ok.json"
    scn.write_text(json.dumps(short_line_doc()))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    outdir = blocker / "out" if under else blocker
    assert cli_main(["simulate", str(scn), "--output-dir", str(outdir)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: --output-dir: cannot create {outdir}: ")
    assert blocker.read_text() == "keep"
    assert sorted(tmp_path.iterdir()) == [blocker, scn]


@pytest.mark.parametrize("blocked", ["csv", "summary", "geometry_dir", "snapshot"])
def test_cli_output_path_that_cannot_be_written_is_a_config_error(blocked, tmp_path, capfd):
    # a directory where the CSV, the summary or a snapshot goes, or a file
    # where the snapshots go, ends the command with one error line naming
    # the path, before the run: nothing is written, and run_scenario itself
    # raises
    scn = tmp_path / "ok.json"
    doc = short_line_doc()
    doc["outputs"].update(geometry_dir="geom", snapshot_times_s=[0.0])
    scn.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    outdir.mkdir()
    path = outdir / {"csv": "r.csv", "summary": "s.json", "geometry_dir": "geom",
                     "snapshot": "geom/snapshot_0.000000.json"}[blocked]
    if blocked == "geometry_dir":
        path.write_text("keep")
    else:
        path.mkdir(parents=True)
    with pytest.raises(OSError):
        run_scenario(load_scenario(scn), outdir)
    assert cli_main(["simulate", str(scn), "--output-dir", str(outdir)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: cannot write {path}: ")
    # only the blocking path, and for a snapshot the geom directory above it
    assert sorted(outdir.rglob("*")) == sorted({path, *path.parents} - {outdir, *outdir.parents})
    assert path.is_dir() != (blocked == "geometry_dir")


@pytest.mark.parametrize("mode, command, extra, blocked, code, left", [
    ("determinant_scan", "scan-determinant", {"grid_n": 11}, "s.json", EXIT_CONFIG_ERROR,
     ["s.json"]),
    ("controllability", "check-controllability", {}, "record.csv", 0, ["record.csv", "s.json"]),
], ids=["determinant_scan", "controllability"])
def test_cli_output_paths_are_checked_before_the_run(mode, command, extra, blocked, code, left,
                                                     tmp_path, capfd):
    # a scan with a directory at its summary path writes no grid CSV; a
    # controllability run writes no CSV, so a directory at that name is no
    # obstacle
    doc = {"mode": mode, "params": dict(TABLE1), "initial": dict(REST),
           "outputs": {"summary": "s.json"}, **extra}
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    (outdir / blocked).mkdir(parents=True)
    assert cli_main([command, str(scn), "--output-dir", str(outdir)]) == code
    err = capfd.readouterr().err
    assert err == ("" if code == 0 else f"error: cannot write {outdir / blocked}: Is a directory\n")
    assert sorted(p.name for p in outdir.iterdir()) == left


def test_cli_simulate_and_exit_codes(tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(short_line_doc()))
    assert cli_main(["simulate", str(ok), "--output-dir", str(tmp_path / "out")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(short_line_doc(heading=math.pi, duration=0.05)))
    assert (
        cli_main(["simulate", str(bad), "--output-dir", str(tmp_path / "out2")])
        == EXIT_SINGULAR_ABORT
    )


@pytest.mark.parametrize("command, name, key, value, message", [
    # the Kalman product overflows, or a vanishing segment length leaves it
    # no finite entry; the drag matrix at the rest shape is not yet singular
    ("check-controllability", "table1_controllability", "kappa_N_um", 1e100,
     "the Kalman matrix at the rest state is not finite"),
    ("check-controllability", "table1_controllability", "ell_um", 1e-30,
     "the Kalman matrix at the rest state is not finite"),
    # the drag matrix turns singular at a shape the scan or an LSODA run reaches
    ("scan-determinant", "table1_determinant_scan", "xi_N_s_m2", 1e60, "drag matrix singular"),
    ("scan-determinant", "table1_determinant_scan", "eta_N_s_m2", 1e-30, "drag matrix singular"),
    ("simulate", "table1_relaxation", "xi_N_s_m2", 1e60, "drag matrix singular"),
    # at the straight rest shape the closed-form determinant's denominator
    # cancels to 0 once one drag coefficient swamps the other
    *(("check-controllability", "straight_controllability", key, value,
       "the closed-form position determinant has a zero denominator")
      for key, value in (("eta_N_s_m2", 1e30), ("eta_N_s_m2", 1e-30),
                         ("xi_N_s_m2", 1e30), ("xi_N_s_m2", 1e-30))),
    # the Kalman matrix is finite, but the position determinant overflows
    *(("check-controllability", name, key, value, "the position determinant is not finite")
      for name, key, value in (("table1_controllability", "eta_N_s_m2", 1e100),
                               ("table1_controllability", "xi_N_s_m2", 1e100),
                               ("table1_controllability", "m3_A_um2", 1e160),
                               ("table1_controllability", "m3_A_um2", 1e200),
                               ("straight_controllability", "m3_A_um2", 1e160))),
    # the drag matrix stays invertible, but D overflows at one cell or at all
    *(("scan-determinant", "table1_determinant_scan", key, value,
       "the tracking determinant is not finite at shape")
      for key, value in (("eta_N_s_m2", 1e100), ("m2_A_um2", 1e160))),
    # D overflows at an emitted sample or an accepted node of a run
    *(("simulate", name, key, 1e160, "the tracking determinant is not finite at shape")
      for name, key in (("table1_relaxation", "m3_A_um2"), ("table1_line_ok", "eta_N_s_m2"))),
    # LSODA's Hermite samples between its first two nodes reach about 1e142 rad,
    # where the field overflows: the summary would hold Infinity
    ("simulate", "table1_waypoints", "kappa_N_um", 1e160, "the field is not finite at shape"),
])
def test_cli_extreme_finite_params_exit_4_at_params(tmp_path, capfd, scenario_dir,
                                                    command, name, key, value, message):
    doc = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
    doc["params"][key] = value
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    assert cli_main([command, str(scn), "--output-dir", str(outdir)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), f"error: params: {message}")
    assert written_files(tmp_path) == [scn]


def scale_times(factor):
    """An edit that scales every waypoint time by factor."""
    def edit(doc):
        doc["trajectory"]["times_s"] = [t * factor for t in doc["trajectory"]["times_s"]]
    return edit


def low_drag(doc):
    doc["params"]["eta_N_s_m2"] *= 1e-3
    doc["params"]["xi_N_s_m2"] *= 1e-3


@pytest.mark.parametrize("command, name, edit, prefix", [
    pytest.param("validate", "table1_line_ok", lambda d: d["trajectory"].update(speed_um=50.0),
                 "error: trajectory: unknown key", id="trajectory_unknown_key"),
    pytest.param("validate", "table1_relaxation", lambda d: d["field_program"][0].pop("h_perp_uT"),
                 "error: field_program[0]: missing required key", id="piece_missing_key"),
    # a demand whose spline coefficients or end value overflow, caught when
    # the demand is built, before the start position is compared with it
    *(pytest.param(command, name, edit,
                   "error: trajectory: evaluator f is not finite at t = 0 or t = ",
                   id=f"{kind}-{command}")
      for kind, name, edit in (
          ("times_x1e-300", "table1_waypoints", scale_times(1e-300)),
          ("times_x1e300", "table1_waypoints", scale_times(1e300)),
          ("line_speed_1e300", "table1_line_ok",
           lambda d: d["trajectory"].update(speed_um_s=1e300, duration_s=1e10)))
      for command in ("validate", "simulate")),
    # both drag coefficients x1e-3 only make the run 1e3 times faster: a valid
    # run, which prints nothing to stderr
    pytest.param("simulate", "table1_line_ok", low_drag, None, id="line_ok_low_drag"),
])
def test_cli_edited_scenario_exits_4_with_one_line_or_runs_clean(
        tmp_path, capfd, scenario_dir, command, name, edit, prefix):
    # a shipped scenario with one edit outside its params: at exit 4, one
    # error line naming the field and no file written
    doc = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
    edit(doc)
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    code = cli_main([command, str(scn), "--output-dir", str(tmp_path / "out")])
    if prefix is None:
        assert code == EXIT_COMPLETED and capfd.readouterr().err == ""
        return
    assert code == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(), prefix)
    assert written_files(tmp_path) == [scn]


def test_infinite_field_at_a_snapshot_sample_writes_nothing(tmp_path, capfd, scenario_dir):
    # the sample at the snapshot time holds the same overflowed shape: the
    # run stops at params before the CSV, where it used to write the CSV and
    # then fail in the snapshot writer with a traceback
    doc = json.loads((scenario_dir / "table1_waypoints.json").read_text(encoding="utf-8"))
    doc["params"]["kappa_N_um"] = 1e160
    doc["outputs"]["snapshot_times_s"] = [1e-9]
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", str(scn), "--output-dir", str(out)]) == EXIT_CONFIG_ERROR
    captured = capfd.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: params: the field is not finite at shape \(\S+, \S+\)\n",
                        captured.err)
    # only the geometry directory, made before the run, is left, and it is empty
    assert written_files(tmp_path) == [scn]


def test_validate_reports_a_non_finite_start_d_as_the_run_does(tmp_path, capfd, scenario_dir):
    # D at the initial shape is checked at load, so validate exits 4 with the
    # line simulate prints, where it used to report the scenario valid
    doc = json.loads((scenario_dir / "table1_relaxation.json").read_text(encoding="utf-8"))
    doc["params"]["m3_A_um2"] = 1e160
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    want = ("error: params: the tracking determinant is not finite at shape "
            "(0.3, 1.4471975511965978)\n")
    assert cli_main(["validate", str(scn)]) == EXIT_CONFIG_ERROR
    assert capfd.readouterr() == ("", want)
    out = tmp_path / "out"
    assert cli_main(["simulate", str(scn), "--output-dir", str(out)]) == EXIT_CONFIG_ERROR
    assert capfd.readouterr() == ("", want)
    assert not out.exists() or not any(out.iterdir())


def test_singular_drag_scan_names_the_first_shape_at_any_batch(tmp_path, capfd, scenario_dir,
                                                               monkeypatch):
    # the batches run in row-major order, so the drag guard names the first
    # singular shape of the per-row loop, whatever the batch size
    doc = json.loads((scenario_dir / "table1_determinant_scan.json").read_text(encoding="utf-8"))
    doc["params"]["xi_N_s_m2"] = 1e60
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    with pytest.raises(SingularMatrixError) as first:
        scan_values_reference(scenario_from_dict(doc).params, doc["grid_n"])
    for batch in (1, 500):
        monkeypatch.setattr(tracking, "_BATCH_STATES", batch)
        out = tmp_path / f"out{batch}"
        code = cli_main(["scan-determinant", str(scn), "--output-dir", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capfd.readouterr().err == f"error: params: {first.value}\n"
        assert not any(out.iterdir())


def test_cli_repeated_calls_in_one_process_match_fresh_ones(tmp_path, scenario_dir, capsys):
    # cli builds its parser once per process: each subcommand, an argparse
    # error (exit 2) and --help, called again and again, give the exit code,
    # output and files of a call with a parser built afresh
    from bentswimmer import cli

    line = tmp_path / "line.json"
    line.write_text(json.dumps(short_line_doc()))
    out = str(tmp_path / "out")
    calls = [
        ["simulate", str(line), "--output-dir", out],
        ["simulate"],
        ["validate", str(scenario_dir / "table1_circle.json")],
        ["scan-determinant", str(scenario_dir / "table1_determinant_scan.json"),
         "--output-dir", out],
        ["no-such-command", str(line)],
        ["check-controllability", str(scenario_dir / "table1_controllability.json"),
         "--output-dir", out],
        ["--help"],
        ["simulate", str(scenario_dir / "table1_controllability.json"), "--output-dir", out],
    ]

    def call(argv):
        shutil.rmtree(out, ignore_errors=True)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in Path(out).glob("*.csv")}
        return code, captured.out, captured.err, files

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert [r[0] for r in fresh] == [0, 2, 0, 0, 2, 0, 0, EXIT_CONFIG_ERROR]
    for _ in range(2):
        assert [call(argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().currsize == 1


def test_cli_mode_mismatch(tmp_path, capfd):
    p = tmp_path / "line.json"
    p.write_text(json.dumps(short_line_doc()))
    assert cli_main(["scan-determinant", str(p)]) == EXIT_CONFIG_ERROR
    assert_one_error_line(capfd.readouterr(),
                          "error: scan-determinant expects a scenario in mode determinant_scan")


def test_cli_check_controllability_output(tmp_path, capsys):
    doc = {
        "mode": "controllability",
        "params": dict(TABLE1),
        "initial": dict(REST),
        "outputs": {"summary": "s.json"},
    }
    p = tmp_path / "ctrl.json"
    p.write_text(json.dumps(doc))
    code = cli_main(["check-controllability", str(p), "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "partially controllable: True" in out
    assert "ratio numeric/closed" in out
    assert "A =" in out and "B =" in out and "K =" in out


def test_cli_check_controllability_straight_rest_shape(scenario_dir, tmp_path, capsys):
    # at the straight rest shape the first Kalman row vanishes, so the rank
    # test fails and the CLI says why
    code = cli_main(["check-controllability", str(scenario_dir / "straight_controllability.json"),
                     "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "partially controllable: False" in out
    assert "first Kalman row is identically zero (straight rest shape)" in out


@pytest.mark.parametrize("command, kind", [("validate", "nested_100000_deep"),
                                           ("simulate", "relaxation_m3_1e160")])
def test_cli_module_meets_bad_input_in_its_own_process(command, kind, tmp_path, scenario_dir):
    # a fresh interpreter has its own recursion limit, and prints warnings
    # and tracebacks to stderr, where no test harness catches them
    scn = tmp_path / "scn.json"
    if kind == "nested_100000_deep":
        scn.write_text("[" * 100_000 + "]" * 100_000)
        prefix = f"error: {scn}: cannot read the scenario: "
    else:
        doc = json.loads((scenario_dir / "table1_relaxation.json").read_text(encoding="utf-8"))
        doc["params"]["m3_A_um2"] = 1e160
        scn.write_text(json.dumps(doc))
        prefix = "error: params: the tracking determinant is not finite at shape"
    proc = subprocess.run(
        [sys.executable, "-m", "bentswimmer", command, str(scn), "--output-dir",
         str(tmp_path / "out")],
        capture_output=True, text=True, cwd=Path(bentswimmer.__file__).parents[1])
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert_one_error_line((proc.stdout, proc.stderr), prefix)
    assert written_files(tmp_path) == [scn]


@pytest.mark.parametrize("command, name, code, line", [
    ("validate", "table1_circle.json", EXIT_COMPLETED, "OK ("),
    ("simulate", "table1_line_blowup.json", EXIT_SINGULAR_ABORT, "singular_abort at t ="),
], ids=["validate", "simulate_blowup"])
def test_cli_module_invocation(command, name, code, line, tmp_path, scenario_dir):
    # run from the directory holding the package under test, so `-m` finds
    # it without an install; a fresh interpreter prints any warning to
    # stderr, which must stay empty
    proc = subprocess.run(
        [sys.executable, "-m", "bentswimmer", command, str(scenario_dir / name),
         "--output-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=Path(bentswimmer.__file__).parents[1],
    )
    assert proc.returncode == code
    assert line in proc.stdout and proc.stderr == ""
