import dataclasses
import math

import numpy as np
import pytest

from bentswimmer import tracking
from bentswimmer.dynamics import _combine_fields, _raw_fields
from bentswimmer.dynamics import control_vector_fields, equilibrium_state, state_derivative
from bentswimmer.integrators import (
    METHOD_RK45,
    METHOD_TRAPEZOIDAL,
    REL_TOL_MIN,
    IntegratorOptions,
    integrate,
)
from bentswimmer.model import SwimmerState
from bentswimmer.records import CSV_COLUMNS
from bentswimmer.tracking import (
    DEFAULT_EPS_D,
    OUTCOME_COMPLETED,
    OUTCOME_SINGULAR,
    TrackingSingularity,
    Trajectory,
    circle_trajectory,
    constant_trajectory,
    line_trajectory,
    scan_determinant,
    simulate_closed_loop,
    solve_tracking_controls,
    tracking_determinant,
    waypoint_trajectory,
)
from bentswimmer.tracking import _solve_controls_batch, _solve_controls_raw

from conftest import drag_matrix
from oracles import cofactor_inverse, feedback_residual


# ---------------------------------------------------------------- determinant

def test_determinant_zero_straight(params):
    assert tracking_determinant(0.0, 0.0, params) == 0.0


def test_determinant_nonzero_at_bent_rest(params):
    assert abs(tracking_determinant(0.0, params.alpha0, params)) > 1.0


def test_determinant_against_cofactor_path(params):
    a1, a2 = 0.4, -0.9
    minv = cofactor_inverse(drag_matrix(a1, a2, params))
    s1, c1 = math.sin(a1), math.cos(a1)
    s12, c12 = math.sin(a1 + a2), math.cos(a1 + a2)
    f1 = (params.m2 * s1 + params.m3 * s12) * (minv[:, 2] + minv[:, 3]) \
        + params.m3 * s12 * minv[:, 4]
    f2 = -params.m1 * minv[:, 2] \
        - (params.m2 * c1 + params.m3 * c12) * (minv[:, 2] + minv[:, 3]) \
        - params.m3 * c12 * minv[:, 4]
    want = f1[0] * f2[1] - f1[1] * f2[0]
    got = tracking_determinant(a1, a2, params)
    assert got == pytest.approx(want, rel=1e-9)


def test_scan_reports_origin_and_off_origin_minimum(params):
    scan = scan_determinant(params, 51)
    assert abs(scan.d_origin) <= 1e-12
    assert scan.min_abs_off_origin > 0.0
    assert scan.values.shape == (51, 51)
    # the grid stays inside the open square (folded shapes excluded)
    assert scan.grid.min() > -math.pi and scan.grid.max() < math.pi


def test_scan_degenerate_grid(params):
    scan = scan_determinant(params, 2)
    assert scan.values.shape == (2, 2)
    assert np.isfinite(scan.values).all()


@pytest.mark.parametrize("radius", [0.05, 1.0, 10.0])
def test_scan_minimum_follows_the_pointwise_rule(params, radius):
    # first strict minimum of |D| in row-major order over the cells with
    # math.hypot(u, v) > radius; radius 10 excludes every cell
    scan = scan_determinant(params, 21, exclusion_radius=radius)
    best, arg = math.inf, (math.nan, math.nan)
    for i, u in enumerate(scan.grid):
        for j, v in enumerate(scan.grid):
            if math.hypot(u, v) > radius and abs(scan.values[i, j]) < best:
                best, arg = abs(scan.values[i, j]), (float(u), float(v))
    assert scan.min_abs_off_origin == best
    np.testing.assert_equal(scan.argmin_off_origin, arg)


@pytest.mark.parametrize("radius", [0.05, 3.0])
def test_scan_minimum_takes_the_first_of_tied_cells(params, monkeypatch, radius):
    # |D| = 2 everywhere but on a NaN first row, which never counts; with
    # radius 3 every cell has |u|, |v| < 3, and only math.hypot keeps any
    monkeypatch.setattr(tracking, "tracking_determinant", lambda a1, a2, p, xp=math:
                        np.where(a1 + 0.0 * a2 < -2.9, math.nan, -2.0))
    scan = scan_determinant(params, 21, exclusion_radius=radius)
    assert scan.min_abs_off_origin == 2.0
    assert scan.argmin_off_origin == (scan.grid[1], scan.grid[0])


def test_scan_rejects_bad_grid(params):
    with pytest.raises(ValueError):
        scan_determinant(params, 1)


# ---------------------------------------------------------------- trajectories

def test_trajectory_presets_are_consistent():
    line = line_trajectory((1.0, -2.0), math.radians(30), 5.0, 2.0)
    circ = circle_trajectory((0.0, 5.0), 5.0, 20.0, turns=1.0, phase=-math.pi / 2)
    wps = waypoint_trajectory([0.0, 0.5, 1.0, 1.5], [0, 1, 3, 4], [0, 1, -1, 0])
    const = constant_trajectory((2.0, 3.0), 1.0)
    for traj in (line, circ, wps, const):
        assert traj.max_derivative_mismatch() < 1e-6
    assert circ.start() == pytest.approx((0.0, 0.0), abs=1e-12)
    assert circ.horizon == pytest.approx(2 * math.pi / 20.0)
    assert wps.f(0.5) == pytest.approx(1.0, abs=1e-12)


def test_trajectory_evaluators_must_take_arrays():
    # one argument only, and math.sin on an array of times
    for dg in (lambda t: 0.0, lambda t, xp=math: math.sin(t)):
        with pytest.raises(ValueError, match="evaluator dg must also take"):
            Trajectory(f=lambda t, xp=math: t, g=lambda t, xp=math: 0.0,
                       df=lambda t, xp=math: 1.0, dg=dg, horizon=1.0)


def test_waypoint_validation():
    with pytest.raises(ValueError):
        waypoint_trajectory([0.0, 1.0], [0, 1], [0, 1])  # too few
    with pytest.raises(ValueError):
        waypoint_trajectory([0.0, 1.0, 0.5], [0, 1, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        waypoint_trajectory([0.1, 0.5, 1.0], [0, 1, 2], [0, 1, 2])


# ------------------------------------------------------------- feedback solve

def test_controls_zero_at_rest_zero_demand(params):
    st = equilibrium_state(params)
    h = solve_tracking_controls(st, 0.0, 0.0, params)
    assert h.h_par == 0.0 and h.h_perp == 0.0


def test_controls_singular_at_straight_shape(params):
    st = SwimmerState(0, 0, 0, 0.0, 0.0)
    with pytest.raises(TrackingSingularity):
        solve_tracking_controls(st, 1.0, 0.0, params)


def test_controls_residual_small_demand(params):
    # bent rest state, 1 um/s demand: the absolute 2x2 defect stays tiny
    st = SwimmerState(0, 0, 0, 0.0, math.pi / 3)
    p = params
    h = solve_tracking_controls(st, 1.0, 0.0, p)
    cvf = control_vector_fields(0.0, math.pi / 3, p)
    r1 = 1.0 - cvf.f0[0]
    r2 = 0.0 - cvf.f0[1]
    res1 = cvf.f1[0] * h.h_par + cvf.f2[0] * h.h_perp - r1
    res2 = cvf.f1[1] * h.h_par + cvf.f2[1] * h.h_perp - r2
    assert max(abs(res1), abs(res2)) <= 1e-10


def test_closed_loop_rhs_is_the_solve_combined(params):
    # seeded states, one in five nearly straight so that some are singular:
    # the right-hand side equals the solved field pushed through the field
    # combination, and raises with the state's own D where |D| <= eps_d
    rng = np.random.default_rng(29)
    traj = circle_trajectory((0.0, 0.0), 5.0, 1200.0)
    rhs = tracking._closed_loop_rhs(params, traj, DEFAULT_EPS_D)
    singular = 0
    for k in range(400):
        t = float(rng.uniform(0.0, traj.horizon))
        spread = 1e-4 if k % 5 == 0 else 3.0
        z = [float(v) for v in (*rng.uniform(-20.0, 20.0, 2), rng.uniform(-math.pi, math.pi),
                                *rng.uniform(-spread, spread, 2))]
        f0, f1, f2, _, _, _ = _raw_fields(z[3], z[4], params)
        d = f1[0] * f2[1] - f1[1] * f2[0]
        if abs(d) <= DEFAULT_EPS_D:
            with pytest.raises(TrackingSingularity) as caught:
                rhs(t, z)
            assert caught.value.d_value == d
            singular += 1
        else:
            h_par, h_perp, d_solve, zdot = _solve_controls_raw(
                z, traj.df(t), traj.dg(t), params, DEFAULT_EPS_D)
            assert d_solve == d
            assert rhs(t, z) == zdot == _combine_fields(z, h_par, h_perp, f0, f1, f2)
    assert 0 < singular < 80


def test_noninteraction_exact_velocity(params):
    # with the solved field substituted, (xdot, ydot) equals the demand at
    # any state, each channel untouched by the other
    rng = np.random.default_rng(53)
    for _ in range(200):
        st = SwimmerState(
            rng.uniform(-5, 5),
            rng.uniform(-5, 5),
            rng.uniform(-6, 6),
            rng.uniform(-2.5, 2.5),
            rng.uniform(-2.5, 2.5),
        )
        if abs(tracking_determinant(st.alpha1, st.alpha2, params)) < 1e-3:
            continue
        fp, gp = rng.uniform(-100, 100, 2)
        h = solve_tracking_controls(st, fp, gp, params)
        zdot = state_derivative(st, h, params)
        scale = max(1.0, float(np.abs(zdot).max()))
        assert abs(zdot[0] - fp) <= 1e-10 * scale
        assert abs(zdot[1] - gp) <= 1e-10 * scale
        # each channel only sees its own demand: perturbing one leaves the
        # other's velocity untouched
        h2 = solve_tracking_controls(st, fp, gp + 37.0, params)
        zdot2 = state_derivative(st, h2, params)
        assert abs(zdot2[0] - fp) <= 1e-10 * max(1.0, float(np.abs(zdot2).max()))
        h3 = solve_tracking_controls(st, fp - 12.0, gp, params)
        zdot3 = state_derivative(st, h3, params)
        assert abs(zdot3[1] - gp) <= 1e-10 * max(1.0, float(np.abs(zdot3).max()))


# ------------------------------------------------------------- closed loop

def test_constant_trajectory_stays_at_rest(params):
    st = equilibrium_state(params, x=1.0, y=2.0)
    traj = constant_trajectory((1.0, 2.0), 1e-3)
    record, status = simulate_closed_loop(
        st, traj, params,
        IntegratorOptions(method="trapezoidal_adaptive"),
        samples=50,
    )
    assert status.outcome == OUTCOME_COMPLETED
    np.testing.assert_allclose(record.column("x"), 1.0, atol=1e-9)
    np.testing.assert_allclose(record.column("y"), 2.0, atol=1e-9)
    np.testing.assert_allclose(record.column("h_par"), 0.0, atol=1e-9)
    np.testing.assert_allclose(record.column("h_perp"), 0.0, atol=1e-9)
    assert status.max_field_norm <= 1e-9


def test_initial_position_mismatch_rejected(params):
    st = equilibrium_state(params)
    traj = constant_trajectory((0.5, 0.0), 1.0)
    with pytest.raises(ValueError):
        simulate_closed_loop(st, traj, params)


def test_short_line_tracks_exactly(params):
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), 0.0, 50.0, 0.02)
    record, status = simulate_closed_loop(st, traj, params, samples=200)
    assert status.outcome == OUTCOME_COMPLETED
    assert status.max_feedback_residual <= 1e-10
    t = record.column("t")
    err = np.hypot(record.column("x") - 50.0 * t, record.column("y"))
    assert err.max() <= 1e-8  # 10x the 1e-9 integrator tolerance
    # record sanity: increasing time, finite rows, schema
    assert (np.diff(t) > 0).all()
    assert np.isfinite(record.data).all()
    assert record.data.shape[1] == len(CSV_COLUMNS)


def test_backward_line_aborts_with_blowup(params):
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), math.pi, 50.0, 0.2)
    record, status = simulate_closed_loop(st, traj, params, samples=400)
    assert status.outcome == OUTCOME_SINGULAR
    assert status.t_stop < 0.2
    assert status.min_abs_d <= 1e-8
    # shape has straightened out
    assert abs(record.column("alpha1")[-1]) < 0.05
    assert abs(record.column("alpha2")[-1]) < 0.05
    # field blow-up signature over the sampled series
    h = np.hypot(record.column("h_par"), record.column("h_perp"))
    h = h[np.isfinite(h)]
    tail = h[int(math.ceil(0.99 * len(h))) - 1:]
    assert tail.max() >= 10.0 * np.median(h)


def test_batched_feedback_fields_match_the_per_state_solve(params):
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), math.pi, 50.0, 0.05)
    record, status = simulate_closed_loop(st, traj, params, samples=200)
    assert status.outcome == OUTCOME_SINGULAR
    t = record.column("t")
    states = record.data[:, 1:6]
    d_run = record.column("d_value")
    # the run's own eps_d, then one equal to a sampled |D| that makes about
    # half the rows singular, that row included
    for eps_d in (DEFAULT_EPS_D, float(np.sort(np.abs(d_run))[d_run.size // 2])):
        h_par, h_perp, d, resid = _solve_controls_batch(
            states, traj.df(t, np), traj.dg(t, np), params, eps_d)
        singular = np.abs(d) <= eps_d
        assert (np.isnan(h_par) == singular).all() and (np.isnan(h_perp) == singular).all()
        assert (np.isnan(resid) == singular).all()
        for k, z in enumerate(states.tolist()):
            try:
                want = _solve_controls_raw(z, traj.df(t[k]), traj.dg(t[k]), params, eps_d)[:3]
            except TrackingSingularity as sig:
                assert singular[k] and d[k] == pytest.approx(sig.d_value, rel=1e-14, abs=0.0)
                continue
            got = (h_par[k], h_perp[k], d[k])
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if eps_d == DEFAULT_EPS_D:
            np.testing.assert_array_equal(record.column("h_par"), h_par)
            np.testing.assert_array_equal(d_run, d)


def run_keeping_nodes(monkeypatch, *args, **kwargs):
    """simulate_closed_loop's status, and the integration result it recorded."""
    runs = []

    def keep(*a, **k):
        runs.append(integrate(*a, **k))
        return runs[-1]

    monkeypatch.setattr(tracking, "integrate", keep)
    _, status = simulate_closed_loop(*args, **kwargs)
    return runs[0], status


def per_node_extrema(result, traj, params):
    """(min |D|, max residual) by the scalar solve at each accepted node, and
    the |D| of a TrackingSingularity that ended the run."""
    min_d, max_resid = math.inf, 0.0
    for t, z in zip(result.t.tolist(), result.z.tolist()):
        fp, gp = traj.df(t), traj.dg(t)
        try:
            h_par, h_perp, d, _ = _solve_controls_raw(z, fp, gp, params, DEFAULT_EPS_D)
        except TrackingSingularity as sig:
            min_d = min(min_d, abs(sig.d_value))
            continue
        f0, f1, f2, _, _, _ = _raw_fields(z[3], z[4], params)
        min_d = min(min_d, abs(d))
        max_resid = max(max_resid, feedback_residual(f0, f1, f2, z[2], fp, gp, h_par, h_perp))
    if isinstance(result.signal, TrackingSingularity):
        min_d = min(min_d, abs(result.signal.d_value))
    return min_d, max_resid


@pytest.mark.parametrize("case", ["rk45_circle", "lsoda_waypoints", "rk45_backward_line"])
def test_run_diagnostics_are_the_per_node_solve(case, params, monkeypatch):
    # min |D| and the max residual come from one batched pass over the
    # accepted nodes, in chunks; the circle (table1_circle's geometry, 0.6 of
    # a turn) has more nodes than one chunk
    st = equilibrium_state(params)
    if case == "rk45_circle":
        st = dataclasses.replace(st, theta=math.pi / 2)
    method = METHOD_TRAPEZOIDAL if case == "lsoda_waypoints" else METHOD_RK45
    traj = {
        "rk45_circle": lambda: circle_trajectory((0.0, 5.0), 5.0, 20.0, 0.6, -math.pi / 2),
        "lsoda_waypoints": lambda: waypoint_trajectory(
            [0.0, 0.01, 0.02, 0.03], [0.0, 0.2, 0.5, 0.6], [0.0, 0.1, -0.1, 0.0]),
        "rk45_backward_line": lambda: line_trajectory((0.0, 0.0), math.pi, 50.0, 0.05),
    }[case]()
    result, status = run_keeping_nodes(
        monkeypatch, st, traj, params, IntegratorOptions(method=method), samples=50)
    want_min, want_resid = per_node_extrema(result, traj, params)
    # abs=0: approx's default absolute tolerance (1e-12) exceeds any residual
    assert status.min_abs_d == pytest.approx(want_min, rel=1e-14, abs=0.0)
    assert status.max_feedback_residual == pytest.approx(want_resid, rel=1e-14, abs=0.0)
    assert want_resid > 0.0
    if case == "rk45_circle":
        assert result.t.size > tracking._NODE_CHUNK
    if case == "rk45_backward_line":
        # the abort's |D|, from the evaluation that ended the run, is below
        # every accepted node's
        assert status.outcome == OUTCOME_SINGULAR
        assert status.min_abs_d == abs(result.signal.d_value) <= DEFAULT_EPS_D
    else:
        assert status.outcome == OUTCOME_COMPLETED


def test_custom_eps_d_is_honoured(params):
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), math.pi, 50.0, 0.2)
    _, status = simulate_closed_loop(st, traj, params, eps_d=1e-2, samples=50)
    assert status.outcome == OUTCOME_SINGULAR
    assert status.min_abs_d <= 1e-2


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_closed_loop_holds_the_positions_tighter_on_the_ndf(method, params, monkeypatch):
    # x and y get POSITION_TOL_FACTOR of the tolerances, the relative one
    # floored at REL_TOL_MIN; LSODA runs keep the scenario's
    seen = []

    def keep(rhs, z0, t_span, opts):
        seen.append(opts)
        return integrate(rhs, z0, t_span, opts)

    monkeypatch.setattr(tracking, "integrate", keep)
    traj = line_trajectory((0.0, 0.0), 0.0, 50.0, 0.001)
    o = IntegratorOptions(method=method, abs_tol=1e-8, rel_tol=1e-11)
    _, status = simulate_closed_loop(equilibrium_state(params), traj, params, o, samples=5)
    assert status.outcome == OUTCOME_COMPLETED
    if method == METHOD_TRAPEZOIDAL:
        assert seen == [o]
        return
    tight = tracking.POSITION_TOL_FACTOR * 1e-8
    assert seen[0].abs_tol == (tight, tight, 1e-8, 1e-8, 1e-8)
    assert seen[0].rel_tol == (REL_TOL_MIN, REL_TOL_MIN, 1e-11, 1e-11, 1e-11)
