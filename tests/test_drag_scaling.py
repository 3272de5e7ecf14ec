"""Drag scaling: in Stokes flow the swimmer has no inertia, so multiplying
both drag coefficients by s only stretches time by s.

Each case runs a shipped scenario as it is and again with eta and xi times
SCALE, every time in the document times SCALE and every rate over SCALE.
The second run must sample the same states at SCALE times the times, and,
in closed loop, apply the same fields; the tracking determinant D goes as
drag^-2, so its smallest magnitude reads SCALE^-2 times as much. Both runs
go through run_scenario, as the CLI does, where a warning fails the suite.

The bounds were set at 3x or more over the largest gap measured (500
samples of table1_relaxation, 1,003 of table1_line_ok, 1,000 of
table1_circle). Since LSODA picks its own first step, the gaps read:
- angles, NDF: 6.0e-10 rad (relaxation), 4.5e-9 rad (line), 1.1e-8 rad
  (circle); LSODA: 3.9e-12 rad (relaxation), 2.7e-7 rad (line, 1.5x under
  its bound), 7.7e-7 rad (circle);
- positions (open loop): 3.7e-9 um (NDF), 2.0e-11 um (LSODA);
- fields (closed loop), over their peak: 3.8e-9 and 1.3e-8 (NDF line and
  circle), 2.8e-7 and 1.5e-6 (LSODA);
- min |D| over SCALE^-2 times the unscaled one: within 2.4e-5 relative.
"""
import json

import numpy as np
import pytest

from bentswimmer.integrators import METHOD_RK45, METHOD_TRAPEZOIDAL
from bentswimmer.scenario import EXIT_COMPLETED, run_scenario, scenario_from_dict

from conftest import read_record

SCALE = 1e-3
# each scaled key and its factor: both drag coefficients and every time by
# SCALE, every rate by 1 / SCALE
FACTORS = {**dict.fromkeys(("eta_N_s_m2", "xi_N_s_m2", "until_t_s", "duration_s",
                            "snapshot_times_s"), SCALE),
           **dict.fromkeys(("speed_um_s", "angular_rate_rad_s"), 1 / SCALE)}
MIN_ABS_D_REL = 1e-4

# (scenario, method): bound on the angles (rad), then on the positions (um,
# open loop) or on the fields over their peak (closed loop)
CASES = [
    ("table1_relaxation", METHOD_RK45, 2e-9, 1.5e-8),
    ("table1_relaxation", METHOD_TRAPEZOIDAL, 2e-9, 1.5e-8),
    ("table1_line_ok", METHOD_RK45, 2e-8, 2e-8),
    ("table1_line_ok", METHOD_TRAPEZOIDAL, 4e-7, 6e-7),
    ("table1_circle", METHOD_RK45, 4e-8, 5e-8),
    ("table1_circle", METHOD_TRAPEZOIDAL, 4e-6, 8e-6),
]


def scaled(node):
    """The scenario document with each FACTORS key scaled."""
    if isinstance(node, list):
        return [scaled(v) for v in node]
    if not isinstance(node, dict):
        return node
    return {k: (np.multiply(v, FACTORS[k]).tolist() if k in FACTORS else scaled(v))
            for k, v in node.items()}


def run(doc, outdir):
    scn = scenario_from_dict(doc, name=doc["name"])
    summary = run_scenario(scn, outdir)
    assert summary["exit_code"] == EXIT_COMPLETED, summary["detail"]
    return summary, read_record(outdir / scn.outputs.csv)


@pytest.mark.parametrize("name, method, angle_bound, other_bound", CASES)
def test_drag_times_s_is_time_times_s(name, method, angle_bound, other_bound, scenario_dir,
                                      tmp_path):
    doc = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = method
    base, rec = run(doc, tmp_path / "unscaled")
    summary, rec_s = run(scaled(doc), tmp_path / "scaled")

    t = rec.column("t")
    np.testing.assert_allclose(rec_s.column("t"), t * SCALE, rtol=1e-15, atol=0.0)
    gaps = {k: float(np.abs(rec_s.column(k) - rec.column(k)).max())
            for k in ("x", "y", "theta", "alpha1", "alpha2", "h_par", "h_perp")}
    print(f"{name} {method}: {gaps}")
    assert max(gaps["theta"], gaps["alpha1"], gaps["alpha2"]) <= angle_bound
    if doc["mode"] == "open_loop":
        assert max(gaps["x"], gaps["y"]) <= other_bound
    else:
        peak = float(np.hypot(rec.column("h_par"), rec.column("h_perp")).max())
        assert max(gaps["h_par"], gaps["h_perp"]) <= other_bound * peak
    ratio = summary["min_abs_d"] / (base["min_abs_d"] * SCALE ** -2)
    assert abs(ratio - 1.0) <= MIN_ABS_D_REL
