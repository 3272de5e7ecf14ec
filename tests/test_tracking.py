import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bentswimmer import tracking
from bentswimmer.dynamics import _raw_fields, _raw_state_derivative
from bentswimmer.dynamics import control_vector_fields, equilibrium_state, state_derivative
from bentswimmer.integrators import (
    METHOD_RK45,
    METHOD_TRAPEZOIDAL,
    REL_TOL_MIN,
    STATUS_COMPLETED,
    IntegrationResult,
    IntegratorOptions,
    integrate,
)
from bentswimmer.model import SwimmerState
from bentswimmer.records import CSV_COLUMNS
from bentswimmer.scenario import load_scenario, scenario_from_dict, simulate_open_loop
from bentswimmer.tracking import (
    EPS_D,
    OUTCOME_COMPLETED,
    OUTCOME_SINGULAR,
    TrackingSingularity,
    Trajectory,
    circle_trajectory,
    line_trajectory,
    scan_determinant,
    simulate_closed_loop,
    solve_tracking_controls,
    tracking_determinant,
    waypoint_trajectory,
)
from bentswimmer.tracking import _solve_controls_raw

from conftest import drag_matrix
from oracles import (cofactor_inverse, combine_fields_reference, feedback_residual,
                     scan_values_reference, solve_controls_reference)


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
    grid, values, block = scan_determinant(params, 51)
    assert list(block) == ["grid_n", "d_origin", "min_abs_d_off_origin", "argmin_off_origin",
                           "exclusion_radius"]
    assert block["grid_n"] == 51
    assert abs(block["d_origin"]) <= 1e-12
    assert block["min_abs_d_off_origin"] > 0.0
    assert values.shape == (51, 51)
    # the grid stays inside the open square (folded shapes excluded)
    assert grid.min() > -math.pi and grid.max() < math.pi


def test_scan_degenerate_grid(params):
    _, values, _ = scan_determinant(params, 2)
    assert values.shape == (2, 2)
    assert np.isfinite(values).all()


@pytest.mark.parametrize("radius", [0.05, 1.0, 10.0])
def test_scan_minimum_follows_the_pointwise_rule(params, monkeypatch, radius):
    # first strict minimum of |D| in row-major order over the cells with
    # math.hypot(u, v) > radius; radius 10 excludes every cell
    monkeypatch.setattr(tracking, "EXCLUSION_RADIUS", radius)
    grid, values, block = scan_determinant(params, 21)
    assert block["exclusion_radius"] == radius
    best, arg = math.inf, [math.nan, math.nan]
    for i, u in enumerate(grid):
        for j, v in enumerate(grid):
            if math.hypot(u, v) > radius and abs(values[i, j]) < best:
                best, arg = abs(values[i, j]), [float(u), float(v)]
    assert block["min_abs_d_off_origin"] == best
    np.testing.assert_equal(block["argmin_off_origin"], arg)


@pytest.mark.parametrize("radius", [0.05, 3.0])
def test_scan_minimum_takes_the_first_of_tied_cells(params, monkeypatch, radius):
    # |D| = 2 everywhere but on a first row of 3; with radius 3 every cell
    # has |u|, |v| < 3, and only math.hypot keeps any
    monkeypatch.setattr(tracking, "tracking_determinant", lambda a1, a2, p, xp=math:
                        np.where(a1 + 0.0 * a2 < -2.9, -3.0, -2.0))
    monkeypatch.setattr(tracking, "EXCLUSION_RADIUS", radius)
    grid, _, block = scan_determinant(params, 21)
    assert block["min_abs_d_off_origin"] == 2.0
    assert block["argmin_off_origin"] == [grid[1], grid[0]]


@pytest.mark.parametrize("cell", [(0, 0), (3, 5), (20, 20), None])
def test_scan_names_the_first_non_finite_cell_then_the_origin(params, monkeypatch, cell):
    # a D the kernel overflowed to NaN or an infinity raises at the first
    # such cell in row-major order; on a finite grid, at the origin (the one
    # scalar call)
    kernel = tracking.tracking_determinant
    grid = scan_determinant(params, 21)[0]
    u, v = (grid[cell[0]], grid[cell[1]]) if cell else (0.0, 0.0)

    def overflowing(a1, a2, p, xp=math):
        if cell is None:
            return math.nan if xp is math else kernel(a1, a2, p, xp)
        d = kernel(a1, a2, p, xp)
        return np.where((a1 >= u) & (a2 == v), math.nan, np.where(a1 > u, -math.inf, d))

    monkeypatch.setattr(tracking, "tracking_determinant", overflowing)
    with pytest.raises(ValueError, match=re.escape(
            f"the tracking determinant is not finite at shape ({u}, {v})")):
        scan_determinant(params, 21)


@pytest.mark.parametrize("grid_n, batch", [(n, b) for n in (2, 7, 55, 101)
                                           for b in (1, 7, 500, 10**6) if n * n // b <= 5000])
def test_scan_batches_match_the_per_row_loop(params, monkeypatch, grid_n, batch):
    # batches of the given number of cells in row-major order, which split
    # grid rows and leave a short last one, or one call for the grid; each
    # through the module's tracking_determinant, plus the origin's (one cell
    # per call over 101^2 cells would take seconds)
    sizes = []
    kernel = tracking.tracking_determinant

    def counted(alpha1, alpha2, p, xp=math):
        sizes.append(np.size(alpha1))
        return kernel(alpha1, alpha2, p, xp)

    monkeypatch.setattr(tracking, "_BATCH_STATES", batch)
    monkeypatch.setattr(tracking, "tracking_determinant", counted)
    _, values, _ = scan_determinant(params, grid_n)
    whole, last = divmod(grid_n * grid_n, batch)
    assert sizes == [batch] * whole + [last] * (last > 0) + [1]
    monkeypatch.setattr(tracking, "tracking_determinant", kernel)
    np.testing.assert_array_equal(values, scan_values_reference(params, grid_n))


def test_scan_rejects_bad_grid(params):
    with pytest.raises(ValueError):
        scan_determinant(params, 1)


# ---------------------------------------------------------------- trajectories

def test_trajectory_presets_are_consistent():
    line = line_trajectory((1.0, -2.0), math.radians(30), 5.0, 2.0)
    circ = circle_trajectory((0.0, 5.0), 5.0, 20.0, turns=1.0, phase=-math.pi / 2)
    wps = waypoint_trajectory([0.0, 0.5, 1.0, 1.5], [0, 1, 3, 4], [0, 1, -1, 0])
    const = line_trajectory((2.0, 3.0), 0.0, 0.0, 1.0)
    # the supplied derivatives against central differences of (f, g), at
    # interior times, relative to the speed
    for traj in (line, circ, wps, const):
        step = 1e-6 * traj.horizon
        for t in np.linspace(0.0, traj.horizon, 27)[1:-1]:
            fd_f = (traj.f(t + step) - traj.f(t - step)) / (2 * step)
            fd_g = (traj.g(t + step) - traj.g(t - step)) / (2 * step)
            scale = max(1.0, abs(fd_f), abs(fd_g))
            assert abs(traj.df(t) - fd_f) < 1e-6 * scale
            assert abs(traj.dg(t) - fd_g) < 1e-6 * scale
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
    # a NaN or infinite waypoint would build a NaN demand without a word
    for bad in (math.nan, math.inf, -math.inf):
        for args in (([0.0, 0.5, bad], [0, 1, 2], [0, 1, 2]),
                     ([0.0, 0.5, 1.0], [0, bad, 2], [0, 1, 2]),
                     ([0.0, 0.5, 1.0], [0, 1, 2], [bad, 1, 2])):
            with pytest.raises(ValueError, match="only finite values"):
                waypoint_trajectory(*args)


# knots and values of the spline checks; "wide" has a 2 s spacing, where
# scipy's tridiagonal solve interchanges rows and the spline does not
WAYPOINT_SETS = {
    "three": ([0.0, 0.5, 1.0], [0.0, 2.0, -1.0], [1.0, 1.5, 0.5]),
    "shipped": ([0.0, 0.06, 0.12, 0.18], [0.0, 3.0, 5.0, 6.0], [0.0, 1.5, 4.0, 7.0]),
    "uneven": ([0.0, 0.1, 0.5, 0.55, 1.3, 1.4], [0.3, -1.2, 0.8, 2.5, -0.4, 1.1],
               [2.0, 1.0, 0.0, -3.0, 1.0, 0.5]),
    "wide": ([0.0, 0.5, 2.5, 3.0, 4.0], [1.0, -0.5, 2.0, 0.7, -1.3], [0.0, 0.2, 0.1, 0.9, 0.4]),
}


@pytest.mark.parametrize("case", sorted(WAYPOINT_SETS))
def test_waypoint_spline_matches_scipy_clamped_cubic(case):
    # scipy's clamped CubicSpline is the oracle, here only
    from scipy.interpolate import CubicSpline

    knots, xs, ys = (np.array(v) for v in WAYPOINT_SETS[case])
    traj = waypoint_trajectory(knots, xs, ys)
    outside = 0.01 * (knots[1] - knots[0])
    times = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2,
                            np.linspace(0.0, knots[-1], 41)[1:-1],
                            [knots[0] - outside, knots[-1] + outside]])
    for fn, dfn, values in ((traj.f, traj.df, xs), (traj.g, traj.dg, ys)):
        spline = CubicSpline(knots, values, bc_type="clamped")
        for ours, want in ((fn, spline(times)), (dfn, spline.derivative()(times))):
            got = ours(times, np)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            # the right-hand side's float path and the output's array path
            # give the same bits
            assert np.array([ours(float(t)) for t in times]).tobytes() == got.tobytes()
        # the first slope is the first cubic's constant term; the last is the
        # last cubic's slope at its far end, zero up to rounding as in scipy
        assert dfn(0.0) == 0.0
        assert abs(dfn(knots[-1])) <= 1e-14 * np.abs(spline.derivative()(times)).max()
    # the trajectory keeps its own copy of the waypoints
    want = traj.f(times, np)
    knots *= 2.0
    xs *= 2.0
    assert traj.f(times, np).tobytes() == want.tobytes()


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
    f0, f1, f2, *_ = control_vector_fields(0.0, math.pi / 3, p)
    r1 = 1.0 - f0[0]
    r2 = 0.0 - f0[1]
    res1 = f1[0] * h.h_par + f2[0] * h.h_perp - r1
    res2 = f1[1] * h.h_par + f2[1] * h.h_perp - r2
    assert max(abs(res1), abs(res2)) <= 1e-10


def test_closed_loop_rhs_is_the_solve_combined(params):
    # seeded states, one in five nearly straight so that some are singular:
    # the right-hand side, over (theta, alpha1, alpha2), is rows 2-4 of the
    # open-loop right-hand side at the solved field, whatever the position,
    # and raises with the state's own D where |D| <= EPS_D
    rng = np.random.default_rng(29)
    traj = circle_trajectory((0.0, 0.0), 5.0, 1200.0)
    rhs = tracking._closed_loop_rhs(params, traj)
    singular = 0
    for k in range(400):
        t = float(rng.uniform(0.0, traj.horizon))
        spread = 1e-4 if k % 5 == 0 else 3.0
        full = [float(v) for v in (*rng.uniform(-20.0, 20.0, 2),
                                   rng.uniform(-math.pi, math.pi),
                                   *rng.uniform(-spread, spread, 2))]
        z = full[2:]
        f0, f1, f2, _, _, _ = _raw_fields(z[1], z[2], params)
        d = f1[0] * f2[1] - f1[1] * f2[0]
        if abs(d) <= EPS_D:
            with pytest.raises(TrackingSingularity) as caught:
                rhs(t, z)
            assert caught.value.d_value == d
            singular += 1
        else:
            fp, gp = traj.df(t), traj.dg(t)
            h_par, h_perp, d_solve, zdot = _solve_controls_raw(z, fp, gp, params)
            assert d_solve == d
            combined = _raw_state_derivative(full, h_par, h_perp, params)
            assert zdot == combined[2:]
            assert rhs(t, z) == combined[2:]
    assert 0 < singular < 80


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.filterwarnings("error")
def test_kernel_tail_and_feedback_solve_keep_their_arithmetic(params):
    # the shared shape rates, the one-quotient feedback solve and the
    # open-loop right-hand side against their earlier, separately written
    # arithmetic (oracles), bit for bit and with no floating-point warning:
    # seeded states, a quarter of them nearly straight and some exactly
    # straight (D = 0) so that some are singular, with random demands and
    # random fields
    rng = np.random.default_rng(61)
    n = 2000
    spread = np.where(np.arange(n) % 4 == 0, 1e-4, 3.0)
    states = np.column_stack((rng.uniform(-20.0, 20.0, (n, 2)),
                              rng.uniform(-2 * math.pi, 2 * math.pi, n),
                              rng.uniform(-1.0, 1.0, (n, 2)) * spread[:, None]))
    states[::200, 3:] = 0.0
    demands = rng.uniform(-200.0, 200.0, (n, 2))
    fields = rng.uniform(-2000.0, 2000.0, (n, 2))
    raised = 0
    for full, (fp, gp), (hp, hq) in zip(states.tolist(), demands.tolist(), fields.tolist()):
        f0, f1, f2, _, _, _ = _raw_fields(full[3], full[4], params)
        assert bits(_raw_state_derivative(full, hp, hq, params)) == bits(
            combine_fields_reference(full, hp, hq, f0, f1, f2))
        z = full[2:]
        try:
            want = solve_controls_reference(z, fp, gp, params)
        except TrackingSingularity as sig:
            with pytest.raises(TrackingSingularity) as caught:
                _solve_controls_raw(z, fp, gp, params)
            assert bits(caught.value.d_value) == bits(sig.d_value)
            raised += 1
            continue
        h_par, h_perp, d, zdot = _solve_controls_raw(z, fp, gp, params)
        assert bits([h_par, h_perp, d, *zdot]) == bits([*want[:3], *want[3]])
    assert 0 < raised < n // 4

    # the array path over 5,000 rows, the singular ones NaN in the same places
    rng = np.random.default_rng(67)
    n = 5000
    spread = np.where(np.arange(n) % 4 == 0, 1e-4, 3.0)
    z = (rng.uniform(-2 * math.pi, 2 * math.pi, n),
         *(rng.uniform(-1.0, 1.0, (2, n)) * spread))
    z[1][::250] = z[2][::250] = 0.0
    fp, gp = rng.uniform(-200.0, 200.0, (2, n))
    got = _solve_controls_raw(z, fp, gp, params, np)
    want = solve_controls_reference(z, fp, gp, params, np)
    singular = np.abs(want[2]) <= EPS_D
    assert 0 < singular.sum() < n // 4
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n,) and bits(g) == bits(w)
    for g in (got[0], got[1], got[3]):
        assert (np.isnan(g) == singular).all()


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
    # a demand at rest is a line at zero speed
    st = equilibrium_state(params, x=1.0, y=2.0)
    traj = line_trajectory((1.0, 2.0), 0.0, 0.0, 1e-3)
    record, report = simulate_closed_loop(
        st, traj, params,
        IntegratorOptions(method="trapezoidal_adaptive"),
        samples=50,
    )
    assert report["termination"] == OUTCOME_COMPLETED
    np.testing.assert_allclose(record.column("x"), 1.0, atol=1e-9)
    np.testing.assert_allclose(record.column("y"), 2.0, atol=1e-9)
    np.testing.assert_allclose(record.column("h_par"), 0.0, atol=1e-9)
    np.testing.assert_allclose(record.column("h_perp"), 0.0, atol=1e-9)
    assert report["max_field_norm_uT"] <= 1e-9


def test_initial_position_mismatch_rejected(params):
    st = equilibrium_state(params)
    traj = line_trajectory((0.5, 0.0), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_closed_loop(st, traj, params)


@pytest.mark.parametrize("build", [
    lambda: line_trajectory((math.nan, 0.0), 0.0, 1.0, 0.01),
    lambda: line_trajectory((0.0, 0.0), math.nan, 1.0, 0.01),
    lambda: circle_trajectory((-1.0, 0.0), math.nan, 20.0, 0.01),
], ids=["nan_start", "nan_heading", "nan_radius"])
def test_non_finite_trajectory_start_rejected(build):
    # a NaN start is rejected when the demand is built, not run with NaN
    # positions in every row or blamed on the initial position
    with pytest.raises(ValueError, match="is not finite"):
        build()


def test_negative_zero_snapshot_time_samples_the_start():
    # np.unique keeps either zero of a tie; a requested -0.0 enters as 0.0
    times = tracking._sample_times(0.1, 1000, (0.0, -0.0, 0.025, 0.025))
    assert math.copysign(1.0, times[0]) == 1.0
    # the zeros and the repeated 0.025 add one sample to the 1,000
    assert times.size == 1001 and 0.025 in times


def test_short_line_tracks_exactly(params):
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), 0.0, 50.0, 0.02)
    record, report = simulate_closed_loop(st, traj, params, samples=200)
    assert report["termination"] == OUTCOME_COMPLETED
    assert report["max_feedback_residual"] <= 1e-10
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
    record, report = simulate_closed_loop(st, traj, params, samples=400)
    assert report["termination"] == OUTCOME_SINGULAR
    assert report["t_stop_s"] < 0.2
    assert report["min_abs_d"] <= 1e-8
    # shape has straightened out
    assert abs(record.column("alpha1")[-1]) < 0.05
    assert abs(record.column("alpha2")[-1]) < 0.05
    # field blow-up signature over the sampled series
    h = np.hypot(record.column("h_par"), record.column("h_perp"))
    h = h[np.isfinite(h)]
    tail = h[int(math.ceil(0.99 * len(h))) - 1:]
    assert tail.max() >= 10.0 * np.median(h)


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_speed_does_not_move_the_abort_along_the_path(method, scenario_dir):
    # the closed-loop shape is a function of the distance along the demand:
    # the shipped backward line, run at 50 and at 400 um/s over the same
    # 10 um, aborts at the same path length. Measured 1.2100292 and
    # 1.2099618 um (NDF), 1.2100294 and 1.2099620 um (LSODA), 5.57e-5 apart
    # relative; the bound leaves 3x
    doc = json.loads((scenario_dir / "table1_line_blowup.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = method
    reach = []
    for speed in (50.0, 400.0):
        doc["trajectory"].update(speed_um_s=speed, duration_s=10.0 / speed)
        scn = scenario_from_dict(doc)
        _, report = simulate_closed_loop(scn.initial, scn.spec, scn.params, scn.integrator,
                                         samples=scn.outputs.samples)
        assert report["termination"] == OUTCOME_SINGULAR, (speed, report["detail"])
        reach.append(report["t_stop_s"] * speed)
    print(f"{method}: abort path lengths {reach} um")
    assert abs(reach[1] - reach[0]) <= 1.7e-4 * reach[0]


def circle_run_counts(scenario_dir, rate=None, **tolerances):
    """(accepted, rejected) steps of the shipped circle under the NDF, at its
    own or the given angular rate and tolerances."""
    doc = json.loads((scenario_dir / "table1_circle.json").read_text(encoding="utf-8"))
    assert doc["integrator"]["method"] == METHOD_RK45  # the NDF
    doc["integrator"].update(tolerances)
    if rate is not None:
        doc["trajectory"]["angular_rate_rad_s"] = rate
    scn = scenario_from_dict(doc)
    _, report = simulate_closed_loop(scn.initial, scn.spec, scn.params, scn.integrator,
                                     samples=20)
    assert report["termination"] == OUTCOME_COMPLETED, (rate, report["detail"])
    return report["integrator"]["n_steps"], report["integrator"]["n_rejected"]


def test_speed_does_not_move_the_ndf_steps_along_the_circle(scenario_dir):
    # a Stokes swimmer traces the same shapes at any speed along the path, so
    # the NDF should take about as many steps at any rate. Measured 599/9,
    # 590/8 and 593/12 accepted/rejected at 20, 1 and 0.01 rad/s: within a
    # factor of 1.015 and at most 2.0% rejected; the bounds leave 3x or more.
    # When Newton stopped at sqrt(rel_tol) of the error test, 0.01 rad/s took
    # 23,892 steps and 16,870 rejections
    counts = {rate: circle_run_counts(scenario_dir, rate) for rate in (20.0, 1.0, 0.01)}
    print(f"NDF circle steps by rate: {counts}")
    base = counts[20.0][0]
    for rate, (steps, rejected) in counts.items():
        assert steps <= 1.05 * base and base <= 1.05 * steps, rate
        assert rejected <= 0.06 * steps, rate


def test_ndf_newton_stop_keeps_its_rounding_floor(scenario_dir):
    # at rel_tol = REL_TOL_MIN the Newton stop is its rounding floor, 10 eps /
    # rel_tol = 0.1 of the error test: the circle takes 4,314 steps, and
    # 9,974 with the stop at integrators._NEWTON_TOL (0.01) there
    steps, _ = circle_run_counts(scenario_dir, rel_tol=REL_TOL_MIN, abs_tol=1e-14)
    print(f"NDF circle steps at REL_TOL_MIN: {steps}")
    assert steps <= 4_750


@pytest.mark.xfail(strict=True, reason="trial-state termination (ROADMAP known defect): "
                   "LSODA's first trial state leaves the shape square")
def test_lsoda_completes_a_slow_circle(scenario_dir):
    # table1_circle at 1e-3 rad/s, a 6,283 s horizon: LSODA picks its first
    # step from the span, its first trial state leaves the shape square, and
    # the guard ends the run at t = 0 after 3 evaluations. Started at 1e-7 s,
    # the same run completed in 756 steps
    doc = json.loads((scenario_dir / "table1_circle.json").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = METHOD_TRAPEZOIDAL
    doc["trajectory"]["angular_rate_rad_s"] = 1e-3
    scn = scenario_from_dict(doc)
    _, report = simulate_closed_loop(scn.initial, scn.spec, scn.params, scn.integrator,
                                     samples=20)
    assert report["termination"] == OUTCOME_COMPLETED, report["detail"]


def test_batched_feedback_fields_match_the_per_state_solve(params, monkeypatch):
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), math.pi, 50.0, 0.05)
    record, report = simulate_closed_loop(st, traj, params, samples=200)
    assert report["termination"] == OUTCOME_SINGULAR
    t = record.column("t")
    states = record.data[:, 3:6]
    d_run = record.column("d_value")
    # the run's own floor, then one equal to a sampled |D| that makes about
    # half the rows singular, that row included
    for eps_d in (EPS_D, float(np.sort(np.abs(d_run))[d_run.size // 2])):
        monkeypatch.setattr(tracking, "EPS_D", eps_d)
        h_par, h_perp, d, resid = _solve_controls_raw(
            states.T, traj.df(t, np), traj.dg(t, np), params, np)
        singular = np.abs(d) <= eps_d
        assert (np.isnan(h_par) == singular).all() and (np.isnan(h_perp) == singular).all()
        assert (np.isnan(resid) == singular).all()
        for k, z in enumerate(states.tolist()):
            try:
                want = _solve_controls_raw(z, traj.df(t[k]), traj.dg(t[k]), params)[:3]
            except TrackingSingularity as sig:
                assert singular[k] and d[k] == pytest.approx(sig.d_value, rel=1e-14, abs=0.0)
                continue
            got = (h_par[k], h_perp[k], d[k])
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if eps_d == EPS_D:
            np.testing.assert_array_equal(record.column("h_par"), h_par)
            np.testing.assert_array_equal(d_run, d)


def run_keeping_nodes(monkeypatch, *args, **kwargs):
    """simulate_closed_loop's report, and the integration result it recorded."""
    runs = []

    def keep(*a, **k):
        runs.append(integrate(*a, **k))
        return runs[-1]

    monkeypatch.setattr(tracking, "integrate", keep)
    _, report = simulate_closed_loop(*args, **kwargs)
    return runs[0], report


def per_node_extrema(result, traj, params):
    """(min |D|, max residual) by the scalar solve at each accepted node, and
    the |D| of a TrackingSingularity that ended the run."""
    min_d, max_resid = math.inf, 0.0
    for t, z in zip(result.t.tolist(), result.z.tolist()):
        fp, gp = traj.df(t), traj.dg(t)
        try:
            h_par, h_perp, d, _ = _solve_controls_raw(z, fp, gp, params)
        except TrackingSingularity as sig:
            min_d = min(min_d, abs(sig.d_value))
            continue
        f0, f1, f2, _, _, _ = _raw_fields(z[1], z[2], params)
        min_d = min(min_d, abs(d))
        max_resid = max(max_resid, feedback_residual(f0, f1, f2, z[0], fp, gp, h_par, h_perp))
    if isinstance(result.signal, TrackingSingularity):
        min_d = min(min_d, abs(result.signal.d_value))
    return min_d, max_resid


@pytest.mark.parametrize("case", ["rk45_circle", "lsoda_waypoints", "rk45_backward_line"])
def test_run_diagnostics_are_the_per_node_solve(case, params, monkeypatch):
    # min |D| and the max residual come from one batched pass over the
    # accepted nodes, in chunks; the circle (table1_circle's geometry, a full
    # turn) has more nodes than one chunk
    st = equilibrium_state(params)
    if case == "rk45_circle":
        st = dataclasses.replace(st, theta=math.pi / 2)
    method = METHOD_TRAPEZOIDAL if case == "lsoda_waypoints" else METHOD_RK45
    traj = {
        "rk45_circle": lambda: circle_trajectory((0.0, 5.0), 5.0, 20.0, 1.0, -math.pi / 2),
        "lsoda_waypoints": lambda: waypoint_trajectory(
            [0.0, 0.01, 0.02, 0.03], [0.0, 0.2, 0.5, 0.6], [0.0, 0.1, -0.1, 0.0]),
        "rk45_backward_line": lambda: line_trajectory((0.0, 0.0), math.pi, 50.0, 0.05),
    }[case]()
    result, report = run_keeping_nodes(
        monkeypatch, st, traj, params, IntegratorOptions(method=method), samples=50)
    want_min, want_resid = per_node_extrema(result, traj, params)
    # abs=0: approx's default absolute tolerance (1e-12) exceeds any residual
    assert report["min_abs_d"] == pytest.approx(want_min, rel=1e-14, abs=0.0)
    assert report["max_feedback_residual"] == pytest.approx(want_resid, rel=1e-14, abs=0.0)
    assert want_resid > 0.0
    if case == "rk45_circle":
        assert result.t.size > tracking._BATCH_STATES
    if case == "rk45_backward_line":
        # the abort's |D|, from the evaluation that ended the run, is below
        # every accepted node's
        assert report["termination"] == OUTCOME_SINGULAR
        assert report["min_abs_d"] == abs(result.signal.d_value) <= EPS_D
    else:
        assert report["termination"] == OUTCOME_COMPLETED


def test_custom_eps_d_is_honoured(params, monkeypatch):
    # the |D| floor is read at call time: a raised floor aborts earlier
    st = equilibrium_state(params)
    traj = line_trajectory((0.0, 0.0), math.pi, 50.0, 0.2)
    _, at_default = simulate_closed_loop(st, traj, params, samples=50)
    monkeypatch.setattr(tracking, "EPS_D", 1e-2)
    _, report = simulate_closed_loop(st, traj, params, samples=50)
    assert report["termination"] == at_default["termination"] == OUTCOME_SINGULAR
    assert EPS_D < report["min_abs_d"] <= 1e-2
    assert report["t_stop_s"] < at_default["t_stop_s"]


def test_node_extrema_skip_a_nan_residual_and_keep_the_rest_of_its_batch():
    # a NaN residual (a singular node, which keeps its finite D) is skipped;
    # the other nodes of its batch still count, and a batch of NaN residuals
    # alone leaves the maximum as it was. min |D| takes every batch's nodes
    n = 2 * tracking._BATCH_STATES + 3
    d = np.full(n, 7.0)
    d[:4] = [5.0, -2.0, 1e-3, 7.0]
    d[tracking._BATCH_STATES + 5] = -5e-4
    resid = np.zeros(n)
    resid[:3] = [0.0, math.nan, 2e-12]
    resid[tracking._BATCH_STATES:2 * tracking._BATCH_STATES] = math.nan
    resid[-1] = 3e-12
    result = IntegrationResult(status=STATUS_COMPLETED, t=np.arange(n, dtype=float),
                               z=np.zeros((n, 3)), f=np.zeros((n, 3)))

    def fields_at(times, states):
        rows = times.astype(int)
        return d[rows], d[rows], d[rows], resid[rows]

    _, report = tracking.record_run(result, fields_at, METHOD_RK45, samples=2)
    assert (report["min_abs_d"], report["max_feedback_residual"]) == (5e-4, 3e-12)


@pytest.mark.parametrize("name", ["table1_relaxation", "table1_line_ok"])
def test_a_long_run_allocates_little_beyond_its_record(name, scenario_dir):
    # record_run writes _BATCH_STATES samples at a time into the record, so
    # the run's allocations peak near the record itself. At 200,000 samples
    # (a 16.8 MiB record) they peaked at 18.7 and 24.5 MiB (numpy 2.4), and
    # at 139.1 and 133.0 MiB when the samples went through one batch
    scn = load_scenario(scenario_dir / f"{name}.json")
    simulate = simulate_closed_loop if scn.mode == "closed_loop" else simulate_open_loop
    simulate(scn.initial, scn.spec, scn.params, scn.integrator, samples=2)  # LSODA's scipy import
    tracemalloc.start()
    try:
        record, _ = simulate(scn.initial, scn.spec, scn.params, scn.integrator, samples=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.data.shape == (200_000, len(CSV_COLUMNS))
    assert peak <= 2 * record.data.nbytes


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_closed_loop_integrates_with_the_callers_options(method, params, monkeypatch):
    # under both methods, one integration of (theta, alpha1, alpha2) alone,
    # from the initial orientation and shape, with the caller's options: the
    # feedback fixes the position, which needs no component of its own
    seen = []

    def keep(rhs, z0, t_span, opts):
        seen.append((list(z0), opts))
        return integrate(rhs, z0, t_span, opts)

    monkeypatch.setattr(tracking, "integrate", keep)
    traj = line_trajectory((3.0, -4.0), 0.0, 50.0, 0.001)
    st = equilibrium_state(params, x=3.0, y=-4.0, theta=0.7)
    o = IntegratorOptions(method=method, abs_tol=1e-8, rel_tol=1e-11)
    _, report = simulate_closed_loop(st, traj, params, o, samples=5)
    assert report["termination"] == OUTCOME_COMPLETED
    assert seen == [([st.theta, st.alpha1, st.alpha2], o)] and seen[0][1] is o


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_closed_loop_first_row_is_the_initial_state(method, params):
    # a start off the demand by less than INITIAL_POSITION_TOL is run, not
    # shifted: every row's x and y are the start's offset from the demand
    # plus the demand, so the first row is the initial state bit for bit
    starts = {
        "line_at_origin": line_trajectory((0.0, 0.0), 0.4, 50.0, 2e-3),
        "line_off_origin": line_trajectory((12.5, -7.25), -2.0, 50.0, 2e-3),
        # phase 0: cos and sin are exact there in math and numpy alike
        "circle": circle_trajectory((0.0, 5.0), 5.0, 20.0, 0.01),
    }
    offsets = [(7e-10, 0.0), (-3e-10, 6e-10), (0.0, -0.99 * tracking.INITIAL_POSITION_TOL)]
    for name, traj in starts.items():
        fx0, gy0 = traj.start()
        for dx, dy in offsets:
            st = equilibrium_state(params, x=fx0 + dx, y=gy0 + dy, theta=0.3)
            record, report = simulate_closed_loop(
                st, traj, params, IntegratorOptions(method=method), samples=5)
            assert report["termination"] == OUTCOME_COMPLETED, name
            assert record.data[0, :6].tolist() == [
                0.0, st.x, st.y, st.theta, st.alpha1, st.alpha2], (name, dx, dy)
            t = record.column("t")
            assert record.column("x").tolist() == ((st.x - fx0) + traj.f(t, np)).tolist()
            assert record.column("y").tolist() == ((st.y - gy0) + traj.g(t, np)).tolist()


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_short_waypoint_run_tracks_to_rounding(method, params):
    # at the default tolerances the position holds the demand to rounding,
    # not to a tolerance: it is the demand, never integrated
    traj = waypoint_trajectory(
        [0.0, 0.01, 0.02, 0.03], [0.0, 0.2, 0.5, 0.6], [0.0, 0.1, -0.1, 0.0])
    record, report = simulate_closed_loop(
        equilibrium_state(params), traj, params, IntegratorOptions(method=method), samples=300)
    assert report["termination"] == OUTCOME_COMPLETED
    t = record.column("t")
    err = np.hypot(record.column("x") - traj.f(t, np), record.column("y") - traj.g(t, np))
    assert err.max() <= 1e-10


# ------------------------------------------------------------- shape accuracy

TESTS = Path(__file__).resolve().parent
SHAPE_REFERENCE = TESTS / "shape_reference.json"


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
@pytest.mark.parametrize("name", ["table1_circle", "table1_line_ok", "table1_waypoints"])
def test_closed_loop_shape_matches_the_radau_reference(name, method, scenario_dir):
    # the position holds the demand to rounding whatever the integrator does,
    # so theta and the shape alone carry its error: at the scenario's own
    # tolerances, under either method, they stay within 1e-6 rad of a Radau
    # run at rtol 1e-12 (tests/make_shape_reference.py)
    ref = json.loads(SHAPE_REFERENCE.read_text(encoding="utf-8"))["scenarios"][name]
    scn = load_scenario(scenario_dir / f"{name}.json")
    record, report = simulate_closed_loop(
        scn.initial, scn.spec, scn.params,
        dataclasses.replace(scn.integrator, method=method),
        samples=scn.outputs.samples, snapshot_times=scn.outputs.snapshot_times_s)
    assert report["termination"] == OUTCOME_COMPLETED
    t = record.column("t")
    rows = np.searchsorted(t, ref["t"])
    assert t[rows].tolist() == ref["t"]
    gaps = {key: float(np.abs(record.column(key)[rows] - ref[key]).max())
            for key in ("theta", "alpha1", "alpha2")}
    print(f"{name} {method}: max |shape - reference| {gaps}")
    assert max(gaps.values()) <= 1e-6, gaps


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
@pytest.mark.parametrize("path", ["scenarios/table1_relaxation.json", "tests/stiff_program0.json"])
def test_open_loop_state_matches_the_radau_reference(path, method):
    # at the scenario's own tolerances, under either method, every open-loop
    # component stays near a Radau run at rtol 1e-12 (make_shape_reference.py):
    # measured at most 1.1e-7 um and 4.0e-9 rad, so 1e-6 um and 1e-7 rad
    # leave over 9x and 24x
    scn = load_scenario(TESTS.parent / path)
    ref = json.loads(SHAPE_REFERENCE.read_text(encoding="utf-8"))["scenarios"][scn.name]
    record, report = simulate_open_loop(
        scn.initial, scn.spec, scn.params,
        dataclasses.replace(scn.integrator, method=method), samples=scn.outputs.samples)
    assert report["termination"] == OUTCOME_COMPLETED
    t = record.column("t")
    rows = np.searchsorted(t, ref["t"])
    assert t[rows].tolist() == ref["t"]
    gaps = {key: float(np.abs(record.column(key)[rows] - ref[key]).max())
            for key in ("x", "y", "theta", "alpha1", "alpha2")}
    print(f"{scn.name} {method}: max |state - reference| {gaps}")
    assert max(gaps["x"], gaps["y"]) <= 1e-6, gaps
    assert max(gaps["theta"], gaps["alpha1"], gaps["alpha2"]) <= 1e-7, gaps
