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
  BDF formulas and builds its own Jacobian. It picks its own first step, so
  H_INIT serves the NDF only. It is driven one accepted step at a time.
  scipy.integrate is imported on the first LSODA run only.

abs_tol and rel_tol are one float each, shared by every state component.
A step that reaches a non-finite state, or one shorter than H_MIN times
max(|t0|, |t1|), ends the run with ``step_collapse`` in both methods;
neither error test rejects NaN by itself.

The right-hand side is ``rhs(t, z) -> list[float]`` over plain float lists.
integrate() keeps one run contract for both methods: a node is kept only
with its own slope, evaluated afresh at the start and at each accepted
step, and dense output between nodes is cubic Hermite. An rhs may raise
IntegrationSignal (or a subclass) to stop the run cleanly: the run ends at
the last kept node with status ``terminated_by_signal`` (a signal at the
first slope leaves the start alone, with a zero slope). The one exception
is OutsideDomain raised at an NDF trial state (a predictor, Newton iterate
or Jacobian probe): the state left the rhs's domain only because the step
was too long, so the step is rejected and halved instead.

All arithmetic is deterministic: identical inputs give bit-identical output.
The NDF step is one straight-line loop whose float operations, in order, are
those of the reference step loop and its helpers in tests/oracles.py, bit for
bit. Its sums are math.fsum calls, correctly rounded on every interpreter.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from operator import add, mul, sub, truediv

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
_NEWTON_TOL = 0.01  # Newton stops at this fraction of the error test
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_KAPPA = (0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0)
_GAMMA = tuple(math.fsum(1.0 / j for j in range(1, k + 1)) for k in range(_MAX_ORDER + 1))
_ALPHA = tuple((1.0 - kp) * g for kp, g in zip(_KAPPA, _GAMMA))
_ERROR_CONST = tuple(kp * g + 1.0 / (k + 1) for k, (kp, g) in enumerate(zip(_KAPPA, _GAMMA)))
_EPS = sys.float_info.epsilon
_SQRT_EPS = _EPS ** 0.5

# LSODA raises smaller relative tolerances to this floor (with a warning);
# both methods reject them instead.
REL_TOL_MIN = 100 * _EPS
# step control, read at call time: the NDF's first step [s] (LSODA picks its
# own); for both methods, the step floor as a fraction of max(|t0|, |t1|),
# also the NDF's endpoint guard, and the cap on accepted steps that ends a
# runaway run with max_steps (each NDF rejection shrinks h toward the floor)
H_INIT = 1e-7
H_MIN = 1e-14
MAX_STEPS = 5_000_000


class IntegrationSignal(Exception):
    """Typed early-termination channel for right-hand sides."""


class OutsideDomain(IntegrationSignal):
    """The rhs was asked for a state outside its domain. An NDF trial state
    (predictor, Newton iterate or Jacobian probe) that raises it rejects the
    step; at a node, or under LSODA, it ends the run like any other signal."""


@dataclass(frozen=True)
class IntegratorOptions:
    method: str = METHOD_RK45
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 < v < math.inf
                   for v in (self.abs_tol, self.rel_tol)):
            raise ValueError("tolerances must be positive and finite numbers")
        if self.rel_tol < REL_TOL_MIN:
            raise ValueError(
                f"rel_tol must be at least 100 machine epsilons ({REL_TOL_MIN:.3e}), "
                f"got {self.rel_tol!r}"
            )


@dataclass
class IntegrationResult:
    """Accepted nodes (times, states, derivatives) plus a status."""

    status: str
    t: np.ndarray
    z: np.ndarray
    f: np.ndarray
    signal: IntegrationSignal | None = None
    n_steps: int = 0
    n_rejected: int = 0
    n_evals: int = 0

    @property
    def t_stop(self) -> float:
        return float(self.t[-1])

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
    """Integrate zdot = rhs(t, z) over t_span with the selected method, under
    the run contract above: the drivers only take steps, and keep each
    accepted (t, z) through run.keep."""
    if opts is None:
        opts = IntegratorOptions()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got {t_span!r}")
    z0 = [float(v) for v in z0]
    solve = _integrate_ndf if opts.method == METHOD_RK45 else _integrate_lsoda
    run = _Run(rhs)

    def result(status, signal=None):
        return IntegrationResult(
            status, np.array(run.t), np.array(run.z), np.array(run.f), signal=signal,
            n_steps=len(run.t) - 1, n_rejected=run.n_rejected, n_evals=run.n_evals)

    try:
        run.keep(t0, z0)
        status = solve(run, t1, opts.abs_tol, opts.rel_tol)
    except IntegrationSignal as sig:
        # built here: a local holding sig would close a cycle through its traceback
        if not run.t:  # at the first slope: the start alone, with a zero slope
            run.t, run.z, run.f = [t0], [z0], [[0.0] * len(z0)]
        return result(STATUS_SIGNAL, sig)
    return result(status)


class _Run:
    """The nodes a run keeps, each with its own slope, and the run's counts."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.t, self.z, self.f = [], [], []  # node times, states and slopes
        self.n_evals = 0  # rhs calls that returned
        self.n_rejected = 0

    def slope(self, t, z):
        f = self.rhs(t, z)
        self.n_evals += 1
        return f

    def keep(self, t, z):
        """Keep (t, z) as a node once its own slope is known."""
        f = self.slope(t, z)
        self.t.append(t)
        self.z.append(z)
        self.f.append(list(f))


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
    vector, so D[0] stays. U is upper triangular: column j stops at row j,
    since its exact zeros below add nothing to its sums."""
    r = _r_matrix(order, factor)
    cols = list(zip(*D[:order + 1]))
    for j, u in enumerate(_U_COLS[order][1:], 1):
        u = u[:j + 1]
        ru = [math.fsum(map(mul, row, u)) for row in r]
        D[j] = [math.fsum(map(mul, ru, col)) for col in cols]


def _integrate_ndf(run: _Run, t1, atol, rtol) -> str:
    """Variable-order NDF (orders 1-5) in quasi-constant step form, after
    Shampine & Reichelt 1997 and scipy's BDF solver.

    D holds the backward differences of the interpolating polynomial scaled
    to the current step; a step change rescales them (_rescale). The
    corrector is a simplified Newton iteration on I - c J, with J from
    forward differences through rhs, kept until Newton fails to converge
    with it. The error norm is the RMS of the error over abs_tol + rel_tol |z|;
    Newton stops once its predicted remaining correction is below
    _NEWTON_TOL of that norm's unit, or 10 eps / rel_tol where that is larger.

    A predictor, Newton iterate or Jacobian probe is a trial state:
    OutsideDomain there rejects the step and halves h, like a Newton
    failure. Newton runs inline, and the norms are hypot(*v / scale) / sqrt(n).
    """
    rhs = run.slope
    t, z0, f = run.t[0], run.z[0], run.f[0]
    n = len(z0)
    sqrt_n = math.sqrt(n)  # an RMS norm is hypot(*v) / sqrt_n
    fsum, hypot, isfinite, inf = math.fsum, math.hypot, math.isfinite, math.inf
    newton_tol = max(10 * _EPS / rtol, _NEWTON_TOL)

    def jacobian(t, y, f):
        """Forward differences through rhs at (t, y), whose slope is f."""
        cols = []
        for j in range(n):
            yj = list(y)
            yj[j] += _SQRT_EPS * max(abs(y[j]), atol) * (1.0 if f[j] >= 0.0 else -1.0)
            step = yj[j] - y[j]
            fj = rhs(t, yj)
            cols.append([(a - b) / step for a, b in zip(fj, f)])
        return [list(row) for row in zip(*cols)]

    h = min(H_INIT, t1 - t)
    D = [list(z0), [h * v for v in f]] + [[0.0] * n for _ in range(_MAX_ORDER + 1)]
    zero = [0.0] * n
    order = 1
    n_equal = 0  # steps taken at this h and order
    J = lu = None
    fresh = False  # J was evaluated during the current step
    h_min = H_MIN * max(abs(t), abs(t1))  # the step floor and the endpoint guard
    while t1 - t > h_min:
        if len(run.t) > MAX_STEPS:
            return STATUS_MAX_STEPS
        t_new = t + h
        if t1 - t_new <= h_min:  # the last step ends on t1
            t_new = t1
            if t1 - t != h:
                _rescale(D, order, (t1 - t) / h)
                h = t1 - t
                n_equal = 0
                lu = None
        y_pred = list(map(fsum, zip(*D[:order + 1])))
        scale = [atol + rtol * abs(v) for v in y_pred]
        alpha = _ALPHA[order]
        gamma = _GAMMA[1:order + 1]
        psi = [fsum(map(mul, gamma, col)) / alpha for col in zip(*D[1:order + 1])]
        c = h / alpha
        converged = False
        try:
            f_pred = rhs(t_new, y_pred)
            if J is None:
                J = jacobian(t_new, y_pred, f_pred)
                fresh = True
            while True:
                if lu is None:  # I - c J, factored by lu_factor in place
                    a = [[(1.0 if i == j else 0.0) - c * v for j, v in enumerate(row)]
                         for i, row in enumerate(J)]
                    lu = a, lu_factor(a)[0]
                a, perm = lu
                # simplified Newton for d = y - y_pred solving
                # d = c f(t_new, y) - psi, from y = y_pred
                f, y, d = f_pred, y_pred, zero
                for k in range(_NEWTON_MAXITER):
                    if k:
                        f = rhs(t_new, y)
                    if not all(map(isfinite, f)):
                        break
                    dy = lu_solve(a, perm, [c * fq - pq - dq for fq, pq, dq in zip(f, psi, d)])
                    dy_norm = hypot(*map(truediv, dy, scale)) / sqrt_n
                    if not dy_norm < inf:
                        break
                    if k:
                        rate = dy_norm / dy_norm_old
                        if (rate >= 1.0 or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm
                                > newton_tol):
                            break
                    d = list(map(add, d, dy))
                    y = list(map(add, y_pred, d))
                    if dy_norm == 0.0 or k and rate / (1.0 - rate) * dy_norm < newton_tol:
                        converged = True
                        break
                    dy_norm_old = dy_norm
                if converged or fresh:
                    break
                J = jacobian(t_new, y_pred, f_pred)
                fresh = True
                lu = None
        except (OutsideDomain, SingularMatrixError):
            pass  # a trial state outside the domain, or a singular I - c J
        if converged:
            if not all(map(isfinite, y)):
                return STATUS_STEP_COLLAPSE
            n_iter = k + 1  # Newton iterations
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            ec = _ERROR_CONST[order]
            err = hypot(*[ec * p / (atol + rtol * abs(q)) for p, q in zip(d, y)]) / sqrt_n
        # a rejection, or a new order and step, sets the factor of one resize
        if not converged:
            run.n_rejected += 1
            factor = 0.5
            lu = None
        elif err > 1.0:  # Newton converged: the factored matrix is kept
            run.n_rejected += 1
            factor = max(_MIN_FACTOR, safety * err ** (-1.0 / (order + 1)))
        else:
            run.keep(t_new, y)
            t = t_new
            fresh = False
            n_equal += 1
            # d is the (order + 1)-th difference at the new node
            D[order + 2] = list(map(sub, d, D[order + 1]))
            D[order + 1] = d
            for i in range(order, -1, -1):
                D[i] = list(map(add, D[i], D[i + 1]))
            if n_equal < order + 1:
                continue
            # after order + 1 equal steps: pick the order, and the step, that
            # promise the largest step at the same error
            scale = [atol + rtol * abs(v) for v in y]
            err_m = err_p = inf
            if order > 1:
                ec = _ERROR_CONST[order - 1]
                err_m = hypot(*[ec * p / q for p, q in zip(D[order], scale)]) / sqrt_n
            if order < _MAX_ORDER:
                ec = _ERROR_CONST[order + 1]
                err_p = hypot(*[ec * p / q for p, q in zip(D[order + 2], scale)]) / sqrt_n
            growth = [inf if e == 0.0 else e ** (-1.0 / m)
                      for e, m in ((err_m, order), (err, order + 1), (err_p, order + 2))]
            best = max(growth)
            order += growth.index(best) - 1
            factor = min(_MAX_FACTOR, safety * best)
            lu = None
        h *= factor
        _rescale(D, order, factor)
        n_equal = 0
        if h < h_min and t1 - t > h_min:  # the step onto t1 may be shorter
            return STATUS_STEP_COLLAPSE
    return STATUS_COMPLETED


def _integrate_lsoda(run: _Run, t1, atol, rtol) -> str:
    """trapezoidal_adaptive: scipy's LSODA, advanced one accepted step at a
    time. LSODA retries failed steps internally and does not report them, so
    n_rejected reads 0.
    """
    from scipy.integrate import LSODA  # ~0.7 s cold: loaded by LSODA runs only

    # fun counts in a local, not in run: the LSODA object sits in a
    # reference cycle, so whatever fun reaches lives until a cyclic collection
    rhs = run.rhs
    nev = 0

    def fun(t, y):
        nonlocal nev
        out = rhs(t, y.tolist())
        nev += 1
        return out

    h_min = H_MIN * max(abs(run.t[0]), abs(t1))
    solver = LSODA(fun, run.t[0], run.z[0], t1, rtol=rtol, atol=atol)
    try:
        with warnings.catch_warnings():
            # a failed step is reported through solver.status; its text is noise
            warnings.filterwarnings("ignore", message="lsoda: ", category=UserWarning)
            while solver.status == "running":
                if len(run.t) > MAX_STEPS:
                    return STATUS_MAX_STEPS
                solver.step()
                # scipy's LSODA ignores its min_step, so the floor is checked
                # here (only the step that ends the span may be shorter), and
                # its error test passes NaN, so a non-finite state fails too
                if (
                    solver.status == "failed"
                    or (solver.status == "running" and solver.step_size < h_min)
                    or not np.isfinite(solver.y).all()
                ):
                    return STATUS_STEP_COLLAPSE
                run.keep(float(solver.t), solver.y.tolist())
    finally:
        run.n_evals += nev
    return STATUS_COMPLETED


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
