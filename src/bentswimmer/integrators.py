"""Adaptive time integration for the open- and closed-loop swimmer ODEs.

Two methods, both for stiff systems, since the shape relaxation is stiff
(one real eigenvalue near -1.6e6 s^-1 for the tabulated parameters):

* ``adaptive_explicit_rk45`` -- the name is kept for the scenario files; the
  solver is an in-house variable-order NDF (orders 1-5, quasi-constant step
  form, Shampine & Reichelt 1997, "The MATLAB ODE Suite"). Its Newton matrix
  I - c J is factored by linalg.lu_factor on plain lists, and J comes from
  forward differences through the right-hand side. It needs nothing beyond
  numpy, so closed-loop runs never import scipy.integrate, whose import
  raises a process's peak RSS from about 33 to about 80 MiB.

* ``trapezoidal_adaptive`` -- the name is kept for the scenario files; the
  solver is scipy's LSODA (Petzold 1983), which switches between Adams and
  BDF formulas and builds its own Jacobian. It is driven one accepted step at
  a time so that a signal keeps every node accepted so far. scipy.integrate
  is imported on the first LSODA run only.

abs_tol and rel_tol are one float each, or a tuple with one per state
component (the closed-loop driver holds the positions tighter that way).
A step that reaches a non-finite state ends the run with ``step_collapse``
in both methods; neither error test rejects NaN by itself.

The right-hand side is ``rhs(t, z) -> list[float]`` over plain float lists.
An rhs may raise IntegrationSignal (or a subclass) to stop the run cleanly:
the integrator returns everything accepted so far with status
``terminated_by_signal`` instead of failing. The one exception is
OutsideDomain raised at an NDF trial state (a predictor, Newton iterate or
Jacobian probe): the state left the rhs's domain only because the step was
too long, so the step is rejected and halved instead. Each accepted node
gets a fresh slope, and dense output between accepted points is cubic
Hermite.

All arithmetic is deterministic: identical inputs give bit-identical output.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from operator import mul

import numpy as np

# called by module-global name, which the benchmark tracer wraps
from .linalg import SingularMatrixError, lu_factor, lu_solve

METHOD_RK45 = "adaptive_explicit_rk45"
METHOD_TRAPEZOIDAL = "trapezoidal_adaptive"
METHODS = (METHOD_RK45, METHOD_TRAPEZOIDAL)
# the solver each method name selects, as summary.json reports it
SOLVERS = {METHOD_RK45: "ndf", METHOD_TRAPEZOIDAL: "lsoda"}

STATUS_COMPLETED = "completed"
STATUS_SIGNAL = "terminated_by_signal"
STATUS_STEP_COLLAPSE = "step_collapse"
STATUS_MAX_STEPS = "max_steps"

# NDF constants (Shampine & Reichelt 1997): kappa per order, with
# gamma_k = sum_{j<=k} 1/j, alpha_k = (1 - kappa_k) gamma_k and the error
# constants kappa_k gamma_k + 1/(k + 1).
_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_KAPPA = (0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0)
_GAMMA = tuple(sum([1.0 / j for j in range(1, k + 1)]) for k in range(_MAX_ORDER + 1))
_ALPHA = tuple((1.0 - kp) * g for kp, g in zip(_KAPPA, _GAMMA))
_ERROR_CONST = tuple(kp * g + 1.0 / (k + 1) for k, (kp, g) in enumerate(zip(_KAPPA, _GAMMA)))
_EPS = sys.float_info.epsilon
_SQRT_EPS = _EPS ** 0.5

# LSODA raises smaller relative tolerances to this floor (with a warning);
# both methods reject them instead.
REL_TOL_MIN = 100 * _EPS


class IntegrationSignal(Exception):
    """Typed early-termination channel for right-hand sides."""


class OutsideDomain(IntegrationSignal):
    """The rhs was asked for a state outside its domain. An NDF trial state
    (predictor, Newton iterate or Jacobian probe) that raises it rejects the
    step; at a node, or under LSODA, it ends the run like any other signal."""


@dataclass(frozen=True)
class IntegratorOptions:
    method: str = METHOD_RK45
    abs_tol: float | tuple[float, ...] = 1e-9
    rel_tol: float | tuple[float, ...] = 1e-9
    h_init: float = 1e-7
    h_min: float = 1e-14
    h_max: float = math.inf
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        atols, rtols = (t if isinstance(t, tuple) else (t,)
                        for t in (self.abs_tol, self.rel_tol))
        if not (atols and rtols and all(0.0 < v < math.inf for v in atols + rtols)):
            raise ValueError("tolerances must be positive and finite")
        if min(rtols) < REL_TOL_MIN:
            raise ValueError(
                f"rel_tol must be at least 100 machine epsilons ({REL_TOL_MIN:.3e}), "
                f"got {self.rel_tol!r}"
            )
        # h_max may be inf (no cap); h_init must be finite, and so h_min
        if not (0.0 < self.h_min <= self.h_init <= self.h_max and self.h_init < math.inf):
            raise ValueError(
                f"h_min and h_init must be positive and finite, with h_min <= h_init "
                f"<= h_max; got ({self.h_min}, {self.h_init}, {self.h_max})"
            )
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class IntegrationResult:
    """Accepted nodes (times, states, derivatives) plus a status."""

    status: str
    t: np.ndarray
    z: np.ndarray
    f: np.ndarray
    t_stop: float
    signal: IntegrationSignal | None = None
    n_steps: int = 0
    n_rejected: int = 0
    n_evals: int = 0

    @property
    def z_final(self) -> np.ndarray:
        return self.z[-1]

    def sample(self, times) -> np.ndarray:
        """Cubic Hermite interpolation at the requested times, one row each.

        Times are clamped to [t[0], t_stop]. A time in a zero-length interval
        (a repeated node, as where open-loop pieces join) takes the state at
        its start.
        """
        tq = np.atleast_1d(np.asarray(times, dtype=float))
        tq = np.clip(tq, self.t[0], self.t_stop)
        if len(self.t) == 1:
            return np.repeat(self.z[:1], tq.size, axis=0)
        i = np.searchsorted(self.t, tq, side="right") - 1
        i = np.clip(i, 0, len(self.t) - 2)
        t0 = self.t[i]
        h = self.t[i + 1] - t0
        flat = h <= 0.0
        u = (tq - t0) / np.where(flat, 1.0, h)
        u2 = u * u
        u3 = u2 * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        out = (
            h00[:, None] * self.z[i]
            + (h10 * h)[:, None] * self.f[i]
            + h01[:, None] * self.z[i + 1]
            + (h11 * h)[:, None] * self.f[i + 1]
        )
        out[flat] = self.z[i[flat]]
        return out


def integrate(rhs, z0, t_span, opts: IntegratorOptions | None = None) -> IntegrationResult:
    """Integrate zdot = rhs(t, z) over t_span with the selected method."""
    if opts is None:
        opts = IntegratorOptions()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got {t_span!r}")
    z0 = [float(v) for v in z0]
    if opts.method == METHOD_RK45:
        return _integrate_ndf(rhs, z0, t0, t1, opts)
    return _integrate_trapezoidal(rhs, z0, t0, t1, opts)


def _result(status, ts, zs, fs, signal, nstep, nrej, nev):
    return IntegrationResult(
        status=status,
        t=np.array(ts),
        z=np.array(zs),
        f=np.array(fs),
        t_stop=ts[-1],
        signal=signal,
        n_steps=nstep,
        n_rejected=nrej,
        n_evals=nev,
    )


def _per_component(tol, n: int) -> list[float]:
    """A tolerance (float, or tuple of one per component) as n floats."""
    if not isinstance(tol, tuple):
        return [tol] * n
    if len(tol) != n:
        raise ValueError(f"{len(tol)} tolerances for a state of dimension {n}")
    return list(tol)


def _rms(v, scale) -> float:
    """Root mean square of v / scale."""
    return math.hypot(*[a / b for a, b in zip(v, scale)]) / math.sqrt(len(v))


def _r_matrix(order: int, factor: float) -> list[list[float]]:
    """R[i][j] = prod_{k=1..i} (k - 1 - factor j) / k, i, j = 0..order: the
    change of the backward differences for a step multiplied by factor."""
    rows = [[1.0] * (order + 1)]
    for i in range(1, order + 1):
        prev = rows[-1]
        rows.append([prev[j] * (i - 1 - factor * j) / i for j in range(order + 1)])
    return rows


# the columns of U = R(1), per order
_U_COLS = tuple(tuple(zip(*_r_matrix(k, 1.0))) for k in range(_MAX_ORDER + 1))


def _rescale(D: list[list[float]], order: int, factor: float) -> None:
    """Rewrite the differences D[0..order] in place for a step multiplied by
    factor: D[j] <- sum_i (R U)[i][j] D[i]. Column 0 of R U is the unit
    vector, so D[0] stays."""
    r = _r_matrix(order, factor)
    ru_cols = [[sum(map(mul, row, col)) for row in r] for col in _U_COLS[order][1:]]
    cols = list(zip(*D[:order + 1]))
    for j, ru in enumerate(ru_cols, 1):
        D[j] = [sum(map(mul, ru, col)) for col in cols]


def _newton_matrix(J, c):
    """lu_factor of I - c J, looked up at call time (the tracer wraps it)."""
    a = [[(1.0 if i == j else 0.0) - c * v for j, v in enumerate(row)]
         for i, row in enumerate(J)]
    perm, _ = lu_factor(a)
    return a, perm


def _integrate_ndf(rhs, z0, t0, t1, opts) -> IntegrationResult:
    """Variable-order NDF (orders 1-5) in quasi-constant step form, after
    Shampine & Reichelt 1997 and scipy's BDF solver.

    D holds the backward differences of the interpolating polynomial scaled
    to the current step; a step change rescales them (_rescale). The
    corrector is a simplified Newton iteration on I - c J, with J from
    forward differences through rhs, kept until Newton fails to converge
    with it. The error norm is the RMS of the error over
    abs_tol + rel_tol |z|, per component.

    A predictor, Newton iterate or Jacobian probe is a trial state:
    OutsideDomain there rejects the step and halves h, like a Newton
    failure. Any other signal ends the run at the last node.
    """
    n = len(z0)
    atol = _per_component(opts.abs_tol, n)
    rtol = _per_component(opts.rel_tol, n)
    rtol_min = min(rtol)
    newton_tol = max(10 * _EPS / rtol_min, min(0.03, rtol_min ** 0.5))
    ts = [t0]
    zs = [list(z0)]
    fs: list[list[float]] = []
    nstep = nrej = nev = 0

    def jacobian(t, y, f):
        """Forward differences through rhs at (t, y), whose slope is f."""
        nonlocal nev
        cols = []
        for j in range(n):
            yj = list(y)
            yj[j] += _SQRT_EPS * max(abs(y[j]), atol[j]) * (1.0 if f[j] >= 0.0 else -1.0)
            step = yj[j] - y[j]
            fj = rhs(t, yj)
            nev += 1
            cols.append([(a - b) / step for a, b in zip(fj, f)])
        return [list(row) for row in zip(*cols)]

    def newton(t, y_pred, f, c, psi, lu, scale):
        """Simplified Newton iteration for d = y - y_pred solving
        d = c f(t, y) - psi, from y = y_pred, whose slope is f. Returns
        (converged, iterations, y, d)."""
        nonlocal nev
        a, perm = lu
        y = y_pred
        d = [0.0] * n
        dy_norm_old = None
        for k in range(_NEWTON_MAXITER):
            if k:
                f = rhs(t, y)
                nev += 1
            if not all(map(math.isfinite, f)):
                break
            dy = lu_solve(a, perm, [c * fq - pq - dq for fq, pq, dq in zip(f, psi, d)])
            dy_norm = _rms(dy, scale)
            if not dy_norm < math.inf:
                break
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if rate is not None and (
                rate >= 1.0
                or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm > newton_tol
            ):
                break
            d = [p + q for p, q in zip(d, dy)]
            y = [p + q for p, q in zip(y_pred, d)]
            if dy_norm == 0.0 or (rate is not None and rate / (1.0 - rate) * dy_norm < newton_tol):
                return True, k + 1, y, d
            dy_norm_old = dy_norm
        return False, k + 1, y, d

    t = t0
    try:
        f = rhs(t, z0)
        nev += 1
    except IntegrationSignal as sig:
        return _result(STATUS_SIGNAL, ts, zs, [[0.0] * n], sig, 0, 0, nev)
    fs.append(list(f))
    h = min(opts.h_init, t1 - t0, opts.h_max)
    D = [list(z0), [h * v for v in f]] + [[0.0] * n for _ in range(_MAX_ORDER + 1)]
    order = 1
    n_equal = 0  # steps taken at this h and order
    J = lu = None
    fresh = False  # J was evaluated during the current step
    t_snap = 1e-14 * max(1.0, abs(t1))  # float-residue guard at the endpoint
    while t1 - t > t_snap:
        if nstep + nrej >= opts.max_steps:
            return _result(STATUS_MAX_STEPS, ts, zs, fs, None, nstep, nrej, nev)
        t_new = t + h
        if t1 - t_new <= t_snap:  # the last step ends on t1
            t_new = t1
            if t1 - t != h:
                _rescale(D, order, (t1 - t) / h)
                h = t1 - t
                n_equal = 0
                lu = None
        y_pred = [sum(col) for col in zip(*D[:order + 1])]
        scale = [a + r * abs(v) for a, r, v in zip(atol, rtol, y_pred)]
        alpha = _ALPHA[order]
        gamma = _GAMMA[1:order + 1]
        psi = [sum(map(mul, gamma, col)) / alpha for col in zip(*D[1:order + 1])]
        c = h / alpha
        converged = False
        try:
            f_pred = rhs(t_new, y_pred)
            nev += 1
            if J is None:
                J = jacobian(t_new, y_pred, f_pred)
                fresh = True
            while True:
                if lu is None:
                    lu = _newton_matrix(J, c)
                converged, n_iter, y_new, d = newton(t_new, y_pred, f_pred, c, psi, lu, scale)
                if converged or fresh:
                    break
                J = jacobian(t_new, y_pred, f_pred)
                fresh = True
                lu = None
        except (OutsideDomain, SingularMatrixError):
            pass  # a trial state outside the domain, or a singular I - c J
        except IntegrationSignal as sig:
            return _result(STATUS_SIGNAL, ts, zs, fs, sig, nstep, nrej, nev)
        if not converged:
            nrej += 1
            h *= 0.5
            _rescale(D, order, 0.5)
            n_equal = 0
            lu = None
            if h < opts.h_min:
                return _result(STATUS_STEP_COLLAPSE, ts, zs, fs, None, nstep, nrej, nev)
            continue
        if not all(map(math.isfinite, y_new)):
            return _result(STATUS_STEP_COLLAPSE, ts, zs, fs, None, nstep, nrej, nev)
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        scale = [a + r * abs(v) for a, r, v in zip(atol, rtol, y_new)]
        err = _rms([_ERROR_CONST[order] * v for v in d], scale)
        if err > 1.0:
            # Newton converged: the factored matrix is kept for the shorter step
            nrej += 1
            factor = max(_MIN_FACTOR, safety * err ** (-1.0 / (order + 1)))
            h *= factor
            _rescale(D, order, factor)
            n_equal = 0
            if h < opts.h_min:
                return _result(STATUS_STEP_COLLAPSE, ts, zs, fs, None, nstep, nrej, nev)
            continue
        # a node is kept only with its own slope: a signal here ends the run
        # at the previous node
        try:
            f = rhs(t_new, y_new)
            nev += 1
        except IntegrationSignal as sig:
            return _result(STATUS_SIGNAL, ts, zs, fs, sig, nstep, nrej, nev)
        nstep += 1
        t = t_new
        ts.append(t)
        zs.append(y_new)
        fs.append(list(f))
        fresh = False
        n_equal += 1
        # d is the (order + 1)-th difference at the new node
        D[order + 2] = [p - q for p, q in zip(d, D[order + 1])]
        D[order + 1] = d
        for i in range(order, -1, -1):
            D[i] = [p + q for p, q in zip(D[i], D[i + 1])]
        if n_equal < order + 1:
            continue
        # after order + 1 equal steps: pick the order, and the step, that
        # promise the largest step at the same error
        err_m = _rms([_ERROR_CONST[order - 1] * v for v in D[order]], scale) if order > 1 else math.inf
        err_p = (_rms([_ERROR_CONST[order + 1] * v for v in D[order + 2]], scale)
                 if order < _MAX_ORDER else math.inf)
        growth = [math.inf if e == 0.0 else e ** (-1.0 / k)
                  for e, k in ((err_m, order), (err, order + 1), (err_p, order + 2))]
        best = max(growth)
        order += growth.index(best) - 1
        factor = min(_MAX_FACTOR, safety * best, opts.h_max / h)
        h *= factor
        _rescale(D, order, factor)
        n_equal = 0
        lu = None
        if h < opts.h_min and t1 - t > t_snap:
            return _result(STATUS_STEP_COLLAPSE, ts, zs, fs, None, nstep, nrej, nev)
    return _result(STATUS_COMPLETED, ts, zs, fs, None, nstep, nrej, nev)


def _integrate_trapezoidal(rhs, z0, t0, t1, opts) -> IntegrationResult:
    """trapezoidal_adaptive: scipy's LSODA, advanced one accepted step at a time.

    Each accepted node gets a fresh rhs(t, z) for the Hermite dense output. A
    signal raised by the rhs, inside a solver step or at a node, ends the run
    at the last node whose slope is known. LSODA retries failed steps
    internally and does not report them, so n_rejected reads 0.
    """
    from scipy.integrate import LSODA  # ~0.7 s cold: loaded by LSODA runs only

    nev = 0

    def fun(t, y):
        nonlocal nev
        out = rhs(t, y.tolist())
        nev += 1
        return out

    ts = [t0]
    zs = [list(z0)]
    try:
        fs = [list(fun(t0, np.array(z0)))]
    except IntegrationSignal as sig:
        return _result(STATUS_SIGNAL, ts, zs, [[0.0] * len(z0)], sig, 0, 0, nev)
    solver = LSODA(
        fun, t0, z0, t1,
        first_step=min(opts.h_init, t1 - t0),
        min_step=opts.h_min,
        max_step=opts.h_max,
        rtol=np.array(opts.rel_tol) if isinstance(opts.rel_tol, tuple) else opts.rel_tol,
        atol=np.array(opts.abs_tol) if isinstance(opts.abs_tol, tuple) else opts.abs_tol,
    )
    nstep = 0
    status, signal = STATUS_COMPLETED, None
    with warnings.catch_warnings():
        # a failed step is reported through solver.status; its text is noise
        warnings.filterwarnings("ignore", message="lsoda: ", category=UserWarning)
        while solver.status == "running":
            if nstep >= opts.max_steps:
                status = STATUS_MAX_STEPS
                break
            try:
                solver.step()
                # scipy's LSODA does not enforce min_step, so h_min is checked
                # here (only the step that ends the span may be shorter), and
                # its error test passes NaN, so a non-finite state fails too
                if (
                    solver.status == "failed"
                    or (solver.status == "running" and solver.step_size < opts.h_min)
                    or not np.isfinite(solver.y).all()
                ):
                    status = STATUS_STEP_COLLAPSE
                    break
                t = float(solver.t)
                f_new = fun(t, solver.y)
            except IntegrationSignal as sig:
                status, signal = STATUS_SIGNAL, sig
                break
            nstep += 1
            ts.append(t)
            zs.append(solver.y.tolist())
            fs.append(list(f_new))
    return _result(status, ts, zs, fs, signal, nstep, 0, nev)


__all__ = [
    "IntegrationSignal",
    "OutsideDomain",
    "IntegratorOptions",
    "IntegrationResult",
    "integrate",
    "METHOD_RK45",
    "METHOD_TRAPEZOIDAL",
    "METHODS",
    "SOLVERS",
    "REL_TOL_MIN",
    "STATUS_COMPLETED",
    "STATUS_SIGNAL",
    "STATUS_STEP_COLLAPSE",
    "STATUS_MAX_STEPS",
]
