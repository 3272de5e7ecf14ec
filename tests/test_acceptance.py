"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are fixed here, not configurable.
"""
import math
import time
from dataclasses import astuple

import numpy as np

from bentswimmer.controllability import (
    bent_submatrix_determinant,
    kalman_matrix,
    linearize,
    numeric_bent_submatrix_determinant,
    partial_controllability,
)
from bentswimmer.dynamics import equilibrium_state, state_derivative
from bentswimmer.integrators import IntegratorOptions, integrate
from bentswimmer.model import ControlField, SwimmerState, rotation_block
from bentswimmer.scenario import load_scenario, run_scenario
from bentswimmer.tracking import scan_determinant

from conftest import drag_matrix, read_record, table1
from oracles import fd_jacobian, quadrature_mobility

ZERO = ControlField(0.0, 0.0)


def report(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_01_mobility_matches_quadrature_oracle(params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        a1, a2 = rng.uniform(-math.pi + 0.01, math.pi - 0.01, 2)
        m = drag_matrix(a1, a2, params)
        ref = quadrature_mobility(a1, a2, params)
        worst = max(worst, float(np.abs(m - ref).max() / np.abs(ref).max()))
    wall = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and wall < 30.0,
        f"drag matrix vs 32-node quadrature, 50 shapes: rel err {worst:.2e} "
        f"(<= 1e-10), {wall:.1f}s",
    )


def test_02_mobility_determinant_negative_everywhere(params):
    pts = np.linspace(-math.pi + 0.01, math.pi - 0.01, 101)
    violations = 0
    worst = -math.inf
    for a1 in pts:
        for a2 in pts:
            d = np.linalg.det(drag_matrix(a1, a2, params))
            worst = max(worst, d)
            if d >= 0.0:
                violations += 1
    report(
        2,
        violations == 0,
        f"det M < 0 on the 101x101 grid: {violations} violations "
        f"(largest det {worst:.3e})",
    )


def test_03_closed_form_determinant_cross_check(params):
    sweep = [
        math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4,
        math.pi / 3, -math.pi / 3, 2 * math.pi / 5, -2 * math.pi / 5,
    ]
    ratios = []
    signs_ok = True
    for a0 in sweep:
        closed = bent_submatrix_determinant(a0, params)
        numeric = numeric_bent_submatrix_determinant(a0, params)
        ratios.append(numeric / closed)
        signs_ok &= (closed < 0.0) == (a0 > 0.0)
    # |numeric| equals |closed| to 1e-8; the ratio is the constant -1
    # (documented: the closed form is stated for the opposite elastic-torque
    # sign convention), constant across the sweep
    mag_ok = all(abs(abs(r) - 1.0) <= 1e-8 for r in ratios)
    const_ok = max(ratios) - min(ratios) <= 1e-8
    report(
        3,
        mag_ok and const_ok and signs_ok,
        f"closed form vs numeric 2x2 determinant over 8 rest angles: "
        f"ratio {ratios[0]:+.10f} constant to {max(ratios) - min(ratios):.1e}, "
        f"closed-form sign = -sign(alpha0): {signs_ok}",
    )


def test_04_controllability_truth_table():
    bent_ok = True
    for a0 in (math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4,
               math.pi / 3, -math.pi / 3, 2 * math.pi / 5, -2 * math.pi / 5):
        p = table1(alpha0=a0)
        res = partial_controllability(
            kalman_matrix(linearize(equilibrium_state(p), p)), 2
        )
        bent_ok &= res.controllable
    p0 = table1(alpha0=0.0)
    k0 = kalman_matrix(linearize(equilibrium_state(p0), p0))
    zero_row = bool(np.all(k0[0] == 0.0))
    res0 = partial_controllability(k0, 2)
    report(
        4,
        bent_ok and zero_row and not res0.controllable,
        f"position rows controllable for all bent rest angles: {bent_ok}; "
        f"straight rest: first Kalman row zero ({zero_row}), "
        f"not controllable (rank {res0.rank})",
    )


def test_05_tracking_determinant_locus(params):
    _, _, scan = scan_determinant(params, 101)
    ok = abs(scan["d_origin"]) <= 1e-12 and scan["min_abs_d_off_origin"] > 0.0
    report(
        5,
        ok,
        f"D(0,0) = {scan['d_origin']:.1e} (<= 1e-12); min |D| outside the "
        f"0.05-ball = {scan['min_abs_d_off_origin']:.3e} > 0 on the 101x101 grid",
    )


def test_06_circle_tracking_exact(scenario_dir, tmp_path):
    t0 = time.perf_counter()
    scn = load_scenario(scenario_dir / "table1_circle.json")
    s = run_scenario(scn, tmp_path)
    wall = time.perf_counter() - t0
    rec = read_record(tmp_path / scn.outputs.csv)
    final = rec.data[-1]
    start = rec.data[0]
    closure = math.hypot(final[1] - start[1], final[2] - start[2])
    ok = (
        s["termination"] == "completed"
        and s["tracking_error_um"] <= 1e-8
        and closure <= 1e-8
        and wall < 60.0
    )
    report(
        6,
        ok,
        f"circle (r=5um, one turn): {s['termination']}, sup tracking error "
        f"{s['tracking_error_um']:.2e} um (<= 1e-8), closure {closure:.2e} um, "
        f"{wall:.0f}s (< 60s)",
    )


def test_07_line_blowup_reproduced(scenario_dir, tmp_path):
    scn = load_scenario(scenario_dir / "table1_line_blowup.json")
    s = run_scenario(scn, tmp_path)
    rec = read_record(tmp_path / scn.outputs.csv)
    a1f = abs(rec.column("alpha1")[-1])
    a2f = abs(rec.column("alpha2")[-1])
    h = np.hypot(rec.column("h_par"), rec.column("h_perp"))
    h = h[np.isfinite(h)]
    ratio = h[int(math.ceil(0.99 * len(h))) - 1:].max() / np.median(h)
    ok = (
        s["exit_code"] == 2
        and s["termination"] == "singular_abort"
        and a1f < 0.05
        and a2f < 0.05
        and ratio >= 10.0
    )
    report(
        7,
        ok,
        f"backward line: {s['termination']} at t={s['t_stop_s']:.4f}s, final "
        f"|alpha| = ({a1f:.1e}, {a2f:.1e}) < 0.05, field max/median = {ratio:.1e} "
        f"(>= 10)",
    )


def test_08_open_loop_relaxation(params):
    a0 = params.alpha0

    def rhs(t, z):
        return list(state_derivative(SwimmerState(*z), ZERO, params))

    res = integrate(
        rhs,
        [0.0, 0.0, 0.0, 0.3, a0 + 0.4],
        (0.0, 5e-4),
        IntegratorOptions(method="trapezoidal_adaptive"),
    )
    gap = math.hypot(res.z_final[3], res.z_final[4] - a0)
    report(
        8,
        res.status == "completed" and gap <= 1e-6,
        f"zero-field relaxation from (0.3, alpha0+0.4): shape gap to "
        f"(0, alpha0) = {gap:.2e} (<= 1e-6)",
    )


def test_09_equivariance(params):
    rng = np.random.default_rng(109)
    worst_t = 0.0
    worst_r = 0.0
    for _ in range(1000):
        th = rng.uniform(-6, 6)
        phi = rng.uniform(-6, 6)
        a1, a2 = rng.uniform(-3.0, 3.0, 2)
        h = ControlField(*rng.uniform(-1e3, 1e3, 2))
        base = state_derivative(SwimmerState(0, 0, th, a1, a2), h, params)
        shifted = state_derivative(
            SwimmerState(rng.uniform(-20, 20), rng.uniform(-20, 20), th, a1, a2),
            h, params,
        )
        rotated = state_derivative(SwimmerState(0, 0, th + phi, a1, a2), h, params)
        scale = max(1.0, float(np.linalg.norm(base)))
        worst_t = max(worst_t, float(np.abs(shifted - base).max()) / scale)
        worst_r = max(
            worst_r,
            float(np.abs(rotated - rotation_block(phi) @ base).max()) / scale,
        )
    report(
        9,
        worst_t <= 1e-12 and worst_r <= 1e-12,
        f"translation invariance {worst_t:.1e}, rotation equivariance "
        f"{worst_r:.1e} over 1000 samples (<= 1e-12 relative)",
    )


def test_10_jacobian_matches_finite_differences():
    cases = [
        (math.pi / 6, 0.0, 0.0, 0.0),
        (math.pi / 3, 3.0, -2.0, 0.0),
        (math.pi / 4, -1.0, 0.5, 0.9),
    ]
    worst = 0.0
    for a0, x, y, th in cases:
        p = table1(alpha0=a0)
        st = equilibrium_state(p, x=x, y=y, theta=th)
        lin = linearize(st, p)

        def fun(z, _p=p):
            return state_derivative(SwimmerState(*z), ZERO, _p)

        jac = fd_jacobian(fun, np.array(astuple(st)), step=1e-6)
        worst = max(worst, float(np.abs(jac - lin.a).max() / np.abs(lin.a).max()))
    report(
        10,
        worst <= 1e-6,
        f"analytic linearization vs central differences at three rest states: "
        f"rel err {worst:.2e} (<= 1e-6)",
    )
