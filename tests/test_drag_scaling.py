"""Drag scaling: in Stokes flow the swimmer has no inertia, so multiplying
both drag coefficients by s only stretches time by s.

Each case runs a shipped scenario as it is and again with eta and xi times
s, every time in the document times s and every rate over s. The second run
must sample the same states at s times the times, and, in closed loop,
apply the same fields; the tracking determinant D goes as drag^-2, so its
smallest magnitude reads s^-2 times as much. Both runs go through
run_scenario, as the CLI does, where a warning fails the suite.

The bounds were set at 3x or more over the largest gap measured (500
samples of table1_relaxation, 1,003 of table1_line_ok, 1,000 of
table1_circle, 1,000 of table1_waypoints and of line_ok without its
snapshots). At s = 1e-3, since LSODA picks its own first step, the gaps
read:
- angles, NDF: 9.7e-10 rad (relaxation), 6.8e-9 rad (line, 2.9x under its
  bound), 4.3e-11 rad (circle); LSODA: 3.9e-12 rad (relaxation), 2.7e-7 rad
  (line, 1.5x under its bound), 7.7e-7 rad (circle);
- positions (open loop): 4.9e-9 um (NDF), 2.0e-11 um (LSODA);
- fields (closed loop), over their peak: 6.9e-9 (NDF line, 2.9x under its
  bound) and 2.6e-11 (NDF circle), 2.8e-7 and 1.5e-6 (LSODA);
- min |D| over s^-2 times the unscaled one: within 8.3e-6 relative.
At s = 1e-12 the scaled spans are 5e-16 to 3.1e-13 s, which both methods
cross only because the step floor is relative to the span. The gaps read:
- angles, NDF: 4.0e-10 rad (relaxation), 2.3e-9 rad (line), 5.1e-10 rad
  (circle); LSODA: 1.3e-12 rad (relaxation), 1.9e-7 rad (line), 9.3e-7 rad
  (circle), 2.8e-7 rad (waypoints);
- positions (open loop): 3.4e-9 um (NDF), 3.3e-12 um (LSODA);
- fields (closed loop), over their peak: 2.1e-9 and 4.6e-10 (NDF line and
  circle), 1.9e-7, 1.8e-6 and 3.5e-7 (LSODA line, circle and waypoints);
- min |D| over s^-2 times the unscaled one: within 6.0e-6 relative.
The NDF rows' gaps moved when its Newton stop became a fixed fraction of
the error test; the bounds did not.
"""
import json

import numpy as np
import pytest

from bentswimmer.integrators import METHOD_RK45, METHOD_TRAPEZOIDAL
from bentswimmer.scenario import EXIT_COMPLETED, run_scenario, scenario_from_dict

from conftest import read_record

# the keys scaled by s (both drag coefficients and every time); every rate
# goes by 1 / s
TIMES = ("eta_N_s_m2", "xi_N_s_m2", "until_t_s", "duration_s", "snapshot_times_s", "times_s")
RATES = ("speed_um_s", "angular_rate_rad_s")
MIN_ABS_D_REL = 1e-4
# scenario._snapshot_name names a snapshot file by its time to 6 decimals of
# a second, so a row whose scaled snapshot times all lie below this drops
# them from both documents, since each snapshot also adds a CSV row (ROADMAP
# item 14)
SNAPSHOT_RESOLUTION_S = 1e-6

# (s, scenario, method): bound on the angles (rad), then on the positions
# (um, open loop) or on the fields over their peak (closed loop)
CASES = [
    (1e-3, "table1_relaxation", METHOD_RK45, 2e-9, 1.5e-8),
    (1e-3, "table1_relaxation", METHOD_TRAPEZOIDAL, 2e-9, 1.5e-8),
    (1e-3, "table1_line_ok", METHOD_RK45, 2e-8, 2e-8),
    (1e-3, "table1_line_ok", METHOD_TRAPEZOIDAL, 4e-7, 6e-7),
    (1e-3, "table1_circle", METHOD_RK45, 4e-8, 5e-8),
    (1e-3, "table1_circle", METHOD_TRAPEZOIDAL, 4e-6, 8e-6),
    (1e-12, "table1_relaxation", METHOD_RK45, 3e-9, 3e-8),
    (1e-12, "table1_relaxation", METHOD_TRAPEZOIDAL, 4e-12, 1e-11),
    (1e-12, "table1_line_ok", METHOD_RK45, 7e-9, 9e-9),
    (1e-12, "table1_line_ok", METHOD_TRAPEZOIDAL, 6e-7, 6e-7),
    (1e-12, "table1_circle", METHOD_RK45, 8e-8, 1.5e-7),
    (1e-12, "table1_circle", METHOD_TRAPEZOIDAL, 3e-6, 6e-6),
    # the NDF's first step, min(H_INIT, t1 - t0), is the whole 1.8e-13 s
    # horizon, over which the clamped demand starts and ends at rest: one
    # accepted step with constant shapes (ROADMAP item 14b). Its bounds are
    # 3x its gaps at s = 1e-3 and 1e-6.
    pytest.param(1e-12, "table1_waypoints", METHOD_RK45, 2e-8, 1.2e-8, marks=pytest.mark.xfail(
        strict=True, reason="the NDF's first step in seconds spans the whole run")),
    (1e-12, "table1_waypoints", METHOD_TRAPEZOIDAL, 9e-7, 1.1e-6),
]


def scaled(node, s):
    """The scenario document with each TIMES key times s and each RATES key
    over s."""
    if isinstance(node, list):
        return [scaled(v, s) for v in node]
    if not isinstance(node, dict):
        return node
    return {k: (np.multiply(v, s).tolist() if k in TIMES
                else np.multiply(v, 1 / s).tolist() if k in RATES else scaled(v, s))
            for k, v in node.items()}


def run(doc, outdir):
    scn = scenario_from_dict(doc, name=doc["name"])
    summary = run_scenario(scn, outdir)
    assert summary["exit_code"] == EXIT_COMPLETED, summary["detail"]
    return summary, read_record(outdir / scn.outputs.csv)


@pytest.mark.parametrize("s, name, method, angle_bound, other_bound", CASES)
def test_drag_times_s_is_time_times_s(s, name, method, angle_bound, other_bound, scenario_dir,
                                      tmp_path):
    doc = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = method
    if s * max(doc["outputs"].get("snapshot_times_s", [0.0])) < SNAPSHOT_RESOLUTION_S:
        doc["outputs"].pop("geometry_dir", None)
        doc["outputs"].pop("snapshot_times_s", None)
    base, rec = run(doc, tmp_path / "unscaled")
    summary, rec_s = run(scaled(doc, s), tmp_path / "scaled")

    t = rec.column("t")
    np.testing.assert_allclose(rec_s.column("t"), t * s, rtol=1e-15, atol=0.0)
    gaps = {k: float(np.abs(rec_s.column(k) - rec.column(k)).max())
            for k in ("x", "y", "theta", "alpha1", "alpha2", "h_par", "h_perp")}
    print(f"{s} {name} {method}: {gaps}")
    assert max(gaps["theta"], gaps["alpha1"], gaps["alpha2"]) <= angle_bound
    if doc["mode"] == "open_loop":
        assert max(gaps["x"], gaps["y"]) <= other_bound
    else:
        peak = float(np.hypot(rec.column("h_par"), rec.column("h_perp")).max())
        assert max(gaps["h_par"], gaps["h_perp"]) <= other_bound * peak
    ratio = summary["min_abs_d"] / (base["min_abs_d"] * s ** -2)
    assert abs(ratio - 1.0) <= MIN_ABS_D_REL
