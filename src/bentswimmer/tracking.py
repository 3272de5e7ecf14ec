"""Exact position tracking by feedback inversion of the field-to-velocity map.

The position rows of the control-affine system read

    r_{-theta} (xdot, ydot) = (F0x, F0y) + H_par (F1x, F1y) + H_perp (F2x, F2y).

Demanding (xdot, ydot) = (f'(t), g'(t)) makes (H_par, H_perp) the solution of
a 2x2 linear system whose determinant

    D(alpha1, alpha2) = F1x F2y - F1y F2x

depends on the shape alone. D vanishes at the straight shape (and at folded
ones on the boundary of the physical square), where the feedback is
undefined; with the tabulated parameters it vanishes nowhere else. With the
feedback substituted, xdot = f' and ydot = g' hold identically in the
remaining state, so the swimmer's position follows (f, g) exactly while the
orientation and shape do whatever the closed-loop dynamics dictate. The
closed loop therefore integrates (theta, alpha1, alpha2) alone, and the
position is an output: the initial offset from the demand plus (f, g). If
the shape drifts toward straight, the solved field grows without bound; the
driver stops with a graceful abort once |D| falls under a floor.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import _first_where, _raw_fields, _shape_rates
from .integrators import (
    SOLVERS,
    STATUS_COMPLETED,
    STATUS_SIGNAL,
    IntegrationResult,
    IntegrationSignal,
    IntegratorOptions,
    OutsideDomain,
    integrate,
)
from .model import ControlField, SwimmerParams, SwimmerState
from .records import CSV_COLUMNS, SimRecord, emit_lab_frame_controls

# the |D| floor: at or below it the feedback aborts the run
EPS_D = 1e-8
INITIAL_POSITION_TOL = 1e-9
# scan_determinant's off-origin minimum skips the shapes within this radius
EXCLUSION_RADIUS = 0.05
# states per batched kernel call: emitted samples and accepted nodes in
# record_run, grid cells in a scan. One batch over a long run, or batches of
# 1,000, raise the peak memory of a benchmark process measurably
_BATCH_STATES = 500

OUTCOME_COMPLETED = "completed"
OUTCOME_SINGULAR = "singular_abort"
OUTCOME_FAILURE = "integrator_failure"


class TrackingSingularity(IntegrationSignal):
    """|D| at or below the floor: the 2x2 feedback system is not invertible."""

    def __init__(self, d_value: float, alpha1: float, alpha2: float):
        super().__init__(
            f"tracking determinant |D| = {abs(d_value):.3e} at shape "
            f"({alpha1:.6f}, {alpha2:.6f}); cannot solve for the field"
        )
        self.d_value = d_value
        self.alpha1 = alpha1
        self.alpha2 = alpha2


class ShapeRangeSignal(OutsideDomain):
    """A joint angle left (-pi, pi): segments would overlap."""

    def __init__(self, alpha1: float, alpha2: float):
        super().__init__(f"joint angles ({alpha1:.6f}, {alpha2:.6f}) left (-pi, pi)")
        self.alpha1 = alpha1
        self.alpha2 = alpha2


@dataclass(frozen=True)
class Trajectory:
    """C^1 demand (f, g) on [0, horizon] with derivative evaluators df, dg.

    Each evaluator is called as fn(t) on a float, or as fn(times, numpy) on
    an array of times, where it returns an array of values or a float that
    holds at every time.
    """

    f: Callable[..., float]
    g: Callable[..., float]
    horizon: float
    df: Callable[..., float]
    dg: Callable[..., float]

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        # fail here rather than in the output path after a whole run
        times = np.array([0.0, self.horizon])
        for name in ("f", "g", "df", "dg"):
            try:
                getattr(self, name)(times, np)
            except TypeError as exc:
                raise ValueError(
                    f"evaluator {name} must also take (times, numpy): {exc}"
                ) from exc

    def start(self) -> tuple[float, float]:
        return (self.f(0.0), self.g(0.0))

    def check_start(self, initial: SwimmerState) -> None:
        """Raise ValueError unless the initial position is the demand's start:
        exact tracking has no error-correcting term, so a run that starts off
        the demand is rejected, not shifted."""
        fx0, gy0 = self.start()
        # not <=, so that a NaN start fails too
        if not math.hypot(initial.x - fx0, initial.y - gy0) <= INITIAL_POSITION_TOL:
            raise ValueError(
                f"closed-loop initial position ({initial.x}, {initial.y}) must equal "
                f"the trajectory start ({fx0}, {gy0}); runs are rejected, not shifted"
            )


def line_trajectory(
    start: tuple[float, float], heading: float, speed: float, horizon: float
) -> Trajectory:
    """Constant-velocity straight line from `start` along `heading` [rad]."""
    x0, y0 = float(start[0]), float(start[1])
    vx = speed * math.cos(heading)
    vy = speed * math.sin(heading)
    return Trajectory(
        f=lambda t, xp=math: x0 + vx * t,
        g=lambda t, xp=math: y0 + vy * t,
        df=lambda t, xp=math: vx,
        dg=lambda t, xp=math: vy,
        horizon=horizon,
    )


def circle_trajectory(
    center: tuple[float, float],
    radius: float,
    angular_rate: float,
    turns: float = 1.0,
    phase: float = 0.0,
) -> Trajectory:
    """Circle of given radius about `center`, traversed at `angular_rate`
    (sign = direction) for `turns` revolutions, starting at
    center + radius*(cos, sin)(phase).
    """
    cx, cy = float(center[0]), float(center[1])
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if angular_rate == 0.0:
        raise ValueError("angular_rate must be nonzero")
    if turns <= 0.0:
        raise ValueError(f"turns must be positive, got {turns!r}")
    horizon = turns * 2.0 * math.pi / abs(angular_rate)
    om = angular_rate
    return Trajectory(
        f=lambda t, xp=math: cx + radius * xp.cos(phase + om * t),
        g=lambda t, xp=math: cy + radius * xp.sin(phase + om * t),
        df=lambda t, xp=math: -radius * om * xp.sin(phase + om * t),
        dg=lambda t, xp=math: radius * om * xp.cos(phase + om * t),
        horizon=horizon,
    )


def waypoint_trajectory(times, xs, ys) -> Trajectory:
    """C^1 (in fact C^2) cubic spline through waypoints, clamped to zero
    velocity at both ends. Times outside the waypoints use the end cubics."""
    # copies: the array path reads them at every call
    t = np.array(times, dtype=float)
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise ValueError("need at least 3 waypoint times")
    if x.shape != t.shape or y.shape != t.shape:
        raise ValueError("times, x and y must have equal lengths")
    if not all(np.isfinite(a).all() for a in (t, x, y)):
        raise ValueError("waypoint times, x and y must contain only finite values")
    if not (np.diff(t) > 0).all():
        raise ValueError("waypoint times must be strictly increasing")
    if t[0] != 0.0:
        raise ValueError("waypoint times must start at 0")
    (fx, dfx), (fy, dfy) = _clamped_spline(t, x), _clamped_spline(t, y)
    return Trajectory(f=fx, g=fy, df=dfx, dg=dfy, horizon=float(t[-1]))


def _clamped_spline(t: np.ndarray, y: np.ndarray) -> tuple[Callable, Callable]:
    """Value and slope evaluators of the C^2 cubic through (t, y) with zero
    slope at both ends.

    The knot slopes m solve the interior rows of the continuity system

        h[i] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i-1] m[i+1]
            = 3 (h[i] delta[i-1] + h[i-1] delta[i]),

    h the spacings and delta the chord slopes, by elimination without row
    interchanges (LAPACK dgtsv's arithmetic whenever it does not pivot), with
    m[0] = m[-1] = 0.0 exactly. Each interval's cubic is the Hermite cubic of
    its end values and slopes, in powers of t - t[i].
    """
    h = np.diff(t)
    delta = np.diff(y) / h
    hl = h.tolist()
    diag = (2 * (h[:-1] + h[1:])).tolist()
    rhs = (3 * (h[1:] * delta[:-1] + h[:-1] * delta[1:])).tolist()
    for j in range(1, len(diag)):
        fact = hl[j + 1] / diag[j - 1]
        diag[j] -= fact * hl[j - 1]
        rhs[j] -= fact * rhs[j - 1]
    m = [0.0] * (len(diag) + 2)
    for j in reversed(range(len(diag))):
        m[j + 1] = (rhs[j] - hl[j] * m[j + 2]) / diag[j]
    m = np.array(m)
    q = (m[:-1] + m[1:] - 2 * delta) / h
    c2 = (delta - m[:-1]) / h - q
    c3 = q / h
    return (_piecewise_cubic(t, (y[:-1], m[:-1], c2, c3)),
            _piecewise_cubic(t, (m[:-1], 2 * c2, 3 * c3)))


def _piecewise_cubic(knots: np.ndarray, coefs: tuple) -> Callable:
    """fn(t) or fn(times, numpy): sum of coefs[k][i] s^k with s = t - knots[i]
    on the interval i = [knots[i], knots[i+1]) holding t (the last one
    closed; the end intervals extend outward), summed in the order of
    scipy's PPoly so that the two agree to the last bit."""
    last = knots.size - 2
    knot_list, inner = knots.tolist(), knots[1:-1]
    rows = list(zip(*(c.tolist() for c in coefs)))

    def fn(tt, xp=math):
        # searching the inner knots alone clamps i to [0, last]
        if xp is math:
            i = bisect_right(knot_list, tt, 1, last + 1) - 1
            s, cs = tt - knot_list[i], rows[i]
        else:
            i = np.searchsorted(inner, tt, side="right")
            s, cs = tt - knots[i], [c[i] for c in coefs]
        res = 0.0 + cs[0]
        z = s
        for c in cs[1:]:
            res = res + c * z
            z = z * s
        return res

    return fn


def tracking_determinant(alpha1, alpha2, params: SwimmerParams, xp=math):
    """D = F1x F2y - F1y F2x at the given shape; at arrays of shapes with
    xp=numpy (see dynamics._raw_fields)."""
    f0, f1, f2, _, _, _ = _raw_fields(alpha1, alpha2, params, xp)
    return f1[0] * f2[1] - f1[1] * f2[0]


def _require_finite_d(d, alpha1, alpha2) -> None:
    """Raise ValueError unless D is finite. d is a float or an array, and
    alpha1, alpha2 (floats or arrays) broadcast to its shape; the message
    names the first shape, in row-major order, where D is NaN or infinite,
    as the kernel leaves it where it overflows."""
    bad = ~np.isfinite(d)
    if bad.any():
        a1, a2 = _first_where(bad, alpha1, alpha2)
        raise ValueError(f"the tracking determinant is not finite at shape ({a1}, {a2})")


def scan_determinant(params: SwimmerParams, grid_n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """D over a uniform grid on the open square (-pi, pi)^2, as (grid, values,
    block): values[i, j] is D at (grid[i], grid[j]), and block is the summary's
    scan block, in its keys: grid_n; d_origin, D at the straight shape; and
    min_abs_d_off_origin and argmin_off_origin, the first smallest |D| in
    row-major order over the cells outside the ball of radius
    exclusion_radius (EXCLUSION_RADIUS when the scan ran) around the origin.

    Grid points sit half a cell inside the boundary (folded shapes with
    |alpha| = pi are excluded as non-physical). A singular drag matrix raises
    SingularMatrixError at the grid's first singular shape, then at the
    origin; a D that is not finite (the kernel overflowed) raises ValueError
    at the first such cell in row-major order, then at the origin.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n!r}")
    step = 2.0 * math.pi / grid_n
    pts = np.array([-math.pi + (i + 0.5) * step for i in range(grid_n)])
    # _BATCH_STATES cells per kernel call, in row-major order, so the drag
    # guard names the grid's first singular shape
    values = np.empty((grid_n, grid_n))
    cells = values.reshape(-1)
    with np.errstate(all="ignore"):
        for k in range(0, cells.size, _BATCH_STATES):
            i, j = np.divmod(np.arange(k, min(k + _BATCH_STATES, cells.size)), grid_n)
            cells[k:k + i.size] = tracking_determinant(pts[i], pts[j], params, np)
    d_origin = tracking_determinant(0.0, 0.0, params)
    _require_finite_d(values, pts[:, None], pts)
    _require_finite_d(d_origin, 0.0, 0.0)
    exclusion_radius = EXCLUSION_RADIUS
    # math.hypot(u, v) >= max(|u|, |v|), so only cells with both |u| and |v|
    # inside the radius need the exact test
    far = np.abs(pts) > exclusion_radius
    kept = far[:, None] | far[None, :]
    for i, j in zip(*np.nonzero(~kept)):
        kept[i, j] = math.hypot(pts[i], pts[j]) > exclusion_radius
    abs_d = np.abs(values)
    abs_d[~kept] = math.inf
    i, j = divmod(int(np.argmin(abs_d)), grid_n)
    best = float(abs_d[i, j])
    return pts, values, {
        "grid_n": grid_n,
        "d_origin": d_origin,
        "min_abs_d_off_origin": best,
        "argmin_off_origin": [float(pts[i]), float(pts[j])] if best < math.inf
                             else [math.nan, math.nan],
        "exclusion_radius": exclusion_radius,
    }


def _solve_controls_raw(z, fprime, gprime, params: SwimmerParams, xp=math):
    """Feedback solve at z = (theta, alpha1, alpha2); the position is never
    read. Returns (h_par, h_perp, d, zdot), zdot being the derivative of
    (theta, alpha1, alpha2) with the solved field substituted; raises
    TrackingSingularity when |D| <= EPS_D, the floor read at call time.

    Hot path: zdot is dynamics._shape_rates at the solved field, the rows
    that the open-loop right-hand side shares; the position rows, (fprime,
    gprime) up to the solve's rounding, are not formed.

    With xp=numpy, z is three arrays over the states (the rows of an (n, 3)
    state array's transpose), and the same operations in the same order give
    arrays (h_par, h_perp, d, residual) for the run diagnostics. Rows with
    |D| <= EPS_D get NaN fields and a NaN residual, and keep their D. The
    residual is the 2x2 system defect scaled by the magnitude of the
    participating terms (the solved field can reach 1e6 internal units near
    blow-up, where an absolute defect saturates at |H|*eps regardless of the
    solve's quality).
    """
    f0, f1, f2, _, _, _ = _raw_fields(z[1], z[2], params, xp)
    f10, f11, f20, f21 = f1[0], f1[1], f2[0], f2[1]
    d = f10 * f21 - f11 * f20
    if xp is math and abs(d) <= EPS_D:
        raise TrackingSingularity(d, z[1], z[2])
    # a singular row divides by NaN, which gives NaN and raises no warning
    divisor = d if xp is math else np.where(np.abs(d) <= EPS_D, math.nan, d)
    c = xp.cos(z[0])
    s = xp.sin(z[0])
    # body-frame demand: rotate (f', g') by -theta
    bx = c * fprime + s * gprime
    by = -s * fprime + c * gprime
    r1 = bx - f0[0]
    r2 = by - f0[1]
    h_par = (r1 * f21 - r2 * f20) / divisor
    h_perp = (f10 * r2 - f11 * r1) / divisor
    if xp is math:
        return h_par, h_perp, d, _shape_rates(f0, f1, f2, h_par, h_perp)
    ab = np.abs
    scale = 1.0 + ab(r1) + ab(r2) + (ab(h_par) + ab(h_perp)) * (
        ab(f10) + ab(f11) + ab(f20) + ab(f21)
    )
    resid = np.maximum(
        ab(f10 * h_par + f20 * h_perp - r1),
        ab(f11 * h_par + f21 * h_perp - r2),
    ) / scale
    return h_par, h_perp, d, resid


def solve_tracking_controls(
    state: SwimmerState,
    fprime: float,
    gprime: float,
    params: SwimmerParams,
) -> ControlField:
    """Field making (xdot, ydot) = (fprime, gprime) at this state; raises
    TrackingSingularity when |D| <= EPS_D."""
    z = [state.theta, state.alpha1, state.alpha2]
    h_par, h_perp, _, _ = _solve_controls_raw(z, fprime, gprime, params)
    return ControlField(h_par=h_par, h_perp=h_perp)


def _closed_loop_rhs(params, traj):
    """The closed-loop derivative of (theta, alpha1, alpha2)."""
    df, dg = traj.df, traj.dg

    def rhs(t, z):
        if not (-math.pi < z[1] < math.pi and -math.pi < z[2] < math.pi):
            raise ShapeRangeSignal(z[1], z[2])
        return _solve_controls_raw(z, df(t), dg(t), params)[3]

    return rhs


def _sample_times(t_stop: float, samples: int, extra=()) -> np.ndarray:
    base = np.linspace(0.0, t_stop, samples)
    if extra:
        # t + 0.0: a requested -0.0 enters as the start, 0.0
        base = np.concatenate([base, [t + 0.0 for t in extra if 0.0 <= t <= t_stop]])
    return np.unique(base)


def record_run(
    result: IntegrationResult,
    fields_at: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
    method: str,
    samples: int,
    snapshot_times=(),
) -> tuple[SimRecord, dict]:
    """Sample a finished run into a record, and report how it ended.

    The run's state fills the trailing columns of (x, y, theta, alpha1,
    alpha2): all five in open loop, the last three in closed loop, whose
    caller fills x and y. fields_at(times, states) gives arrays (h_par,
    h_perp, d, residual) over the given states, one row each; a NaN field
    marks a state where it is undefined. It runs over the samples, which it
    writes into the record, and then over the accepted nodes for min |D|
    and the max residual, _BATCH_STATES states at a time. A D that is not
    finite at any of those states (the kernel overflowed at these params)
    raises ValueError naming the first such shape, samples before nodes: the
    scan's rule. So does an infinite field at a sample, which no record or
    summary can hold.

    The report is summary.json's simulation block, in its keys: termination
    (an OUTCOME_* value) and its detail; t_stop_s; min_abs_d, the smallest
    |D| over the accepted nodes, in both modes, and over the |D| of a
    TrackingSingularity that ended the run (trial states, the predictors,
    Newton iterates and Jacobian probes, never count); max_field_norm_uT,
    over the emitted samples; max_feedback_residual, the worst scaled 2x2
    residual over the accepted nodes (0 in open loop); and integrator, the
    method, the solver it selects (integrators.SOLVERS) and the
    integrator's n_steps, n_rejected and n_evals.
    """
    if result.status == STATUS_COMPLETED:
        outcome, detail = OUTCOME_COMPLETED, ""
    elif result.status == STATUS_SIGNAL:
        if isinstance(result.signal, TrackingSingularity):
            outcome, detail = OUTCOME_SINGULAR, str(result.signal)
        else:
            outcome, detail = OUTCOME_FAILURE, f"shape_out_of_range: {result.signal}"
    else:
        outcome, detail = OUTCOME_FAILURE, result.status

    times = _sample_times(result.t_stop, samples, snapshot_times)
    data = np.full((times.size, len(CSV_COLUMNS)), np.nan)
    max_field, min_abs_d, max_feedback_residual = 0.0, math.inf, 0.0
    # _BATCH_STATES samples, then nodes, per fields_at call; an overflow shows
    # as a non-finite value, which _require_finite_d judges
    with np.errstate(all="ignore"):
        for i in range(0, times.size, _BATCH_STATES):
            t = times[i:i + _BATCH_STATES]
            states = result.sample(t)
            h_par, h_perp, d, _ = fields_at(t, states)
            _require_finite_d(d, states[:, -2], states[:, -1])
            inf = np.isinf(h_par) | np.isinf(h_perp)
            if inf.any():
                a1, a2 = _first_where(inf, states[:, -2], states[:, -1])
                raise ValueError(f"the field is not finite at shape ({a1}, {a2})")
            rows = data[i:i + _BATCH_STATES]
            rows[:, 0] = t
            rows[:, 6 - states.shape[1]:6] = states
            rows[:, 6] = h_par
            rows[:, 7] = h_perp
            rows[:, 10] = d
            emit_lab_frame_controls(SimRecord(data=rows))
            # the reported field extremum comes from the emitted series:
            # internal evaluations include Jacobian probe states that are
            # never visited. math.hypot, not np.hypot, which may differ in
            # the last bit; a NaN field (a singular sample) is skipped
            for hp, hq in zip(h_par.tolist(), h_perp.tolist()):
                hn = math.hypot(hp, hq)
                if hn > max_field:
                    max_field = hn
        for i in range(0, result.t.size, _BATCH_STATES):
            states = result.z[i:i + _BATCH_STATES]
            _, _, d, resid = fields_at(result.t[i:i + _BATCH_STATES], states)
            _require_finite_d(d, states[:, -2], states[:, -1])
            min_abs_d = min(min_abs_d, float(np.abs(d).min()))
            # a NaN residual (a singular node) is skipped
            max_feedback_residual = max(max_feedback_residual,
                                        float(np.fmax.reduce(resid, initial=0.0)))
    if isinstance(result.signal, TrackingSingularity):
        min_abs_d = min(min_abs_d, abs(result.signal.d_value))
    return SimRecord(data=data), {
        "termination": outcome,
        "detail": detail,
        "t_stop_s": result.t_stop,
        "min_abs_d": min_abs_d,
        "min_abs_d_state_set": "accepted_nodes",
        "max_field_norm_uT": max_field,
        "max_feedback_residual": max_feedback_residual,
        "integrator": {
            "method": method,
            "solver": SOLVERS[method],
            "n_steps": result.n_steps,
            "n_rejected": result.n_rejected,
            "n_evals": result.n_evals,
        },
    }


def simulate_closed_loop(
    initial: SwimmerState,
    traj: Trajectory,
    params: SwimmerParams,
    opts: IntegratorOptions = IntegratorOptions(),
    samples: int = 1000,
    snapshot_times=(),
) -> tuple[SimRecord, dict]:
    """Drive the position along traj with the per-instant feedback solve.

    The initial position must equal (f(0), g(0)) (Trajectory.check_start),
    and the run aborts where |D| <= EPS_D. Under the feedback (xdot, ydot) =
    (f', g') holds identically, so only theta, alpha1 and alpha2 are
    integrated, and the tolerances set their error alone. The record's x and
    y are the initial offset from the demand plus (f, g), and the report
    adds tracking_error_um, the largest distance between the record's
    position and the demand over the samples.
    """
    traj.check_start(initial)
    z0 = [initial.theta, initial.alpha1, initial.alpha2]
    result = integrate(_closed_loop_rhs(params, traj), z0, (0.0, traj.horizon), opts)

    def fields_at(times, states):
        return _solve_controls_raw(states.T, traj.df(times, np), traj.dg(times, np), params, np)

    record, report = record_run(result, fields_at, opts.method, samples, snapshot_times)
    fx0, gy0 = traj.start()
    times = record.column("t")
    f, g = traj.f(times, np), traj.g(times, np)
    record.data[:, 1] = (initial.x - fx0) + f
    record.data[:, 2] = (initial.y - gy0) + g
    error = np.hypot(record.column("x") - f, record.column("y") - g)
    report["tracking_error_um"] = float(np.max(error))
    return record, report


__all__ = [
    "EPS_D",
    "EXCLUSION_RADIUS",
    "INITIAL_POSITION_TOL",
    "OUTCOME_COMPLETED",
    "OUTCOME_SINGULAR",
    "OUTCOME_FAILURE",
    "TrackingSingularity",
    "ShapeRangeSignal",
    "Trajectory",
    "line_trajectory",
    "circle_trajectory",
    "waypoint_trajectory",
    "tracking_determinant",
    "scan_determinant",
    "solve_tracking_controls",
    "simulate_closed_loop",
    "record_run",
]
