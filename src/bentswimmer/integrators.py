"""Adaptive time integration for the open- and closed-loop swimmer ODEs.

Two methods:

* ``adaptive_explicit_rk45`` -- the classic Fehlberg 4(5) embedded pair,
  propagating the fifth-order solution. Cheap per step, but the step size is
  capped by the fast shape-relaxation eigenvalues (order kappa / (eta l^3),
  around 2e6 s^-1 for the tabulated parameters).

* ``trapezoidal_adaptive`` -- the stiff method. The name is kept for the
  scenario files; the solver is scipy's LSODA (Petzold 1983), which switches
  between Adams and BDF formulas and builds its own Jacobian. It is driven
  one accepted step at a time so that a signal keeps every node accepted so
  far. scipy.integrate is imported on the first stiff run only.

RK45 stays in-house: at the scenarios' 1e-9 tolerances LSODA misses the
1e-8 um exact-tracking gate on full-turn circles (6.7e-8 to 8.8e-8 um).

The right-hand side is ``rhs(t, z) -> list[float]`` over plain float lists.
An rhs may raise IntegrationSignal (or a subclass) to stop the run cleanly:
the integrator returns everything accepted so far with status
``terminated_by_signal`` instead of failing. Dense output between accepted
points is cubic Hermite.

All arithmetic is deterministic: identical inputs give bit-identical output.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# lu_* unused here: perfbench/tracer.py wraps them by attribute until it is retargeted.
from .linalg import lu_factor, lu_solve  # noqa: F401

METHOD_RK45 = "adaptive_explicit_rk45"
METHOD_TRAPEZOIDAL = "trapezoidal_adaptive"
METHODS = (METHOD_RK45, METHOD_TRAPEZOIDAL)

STATUS_COMPLETED = "completed"
STATUS_SIGNAL = "terminated_by_signal"
STATUS_STEP_COLLAPSE = "step_collapse"
STATUS_MAX_STEPS = "max_steps"

# Fehlberg 4(5): nodes, stage coefficients, 5th-order weights, and the
# (5th - 4th)-order error weights. Row sums of B equal the nodes and the
# weights satisfy the order-5 quadrature conditions; the test suite checks
# both in exact rational arithmetic.
_RK_A = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RK_B = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RK_C5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RK_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)

_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0


class IntegrationSignal(Exception):
    """Typed early-termination channel for right-hand sides."""


@dataclass(frozen=True)
class IntegratorOptions:
    method: str = METHOD_RK45
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    h_init: float = 1e-7
    h_min: float = 1e-14
    h_max: float = math.inf
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError(
                f"need 0 < h_min <= h_init <= h_max, got "
                f"({self.h_min}, {self.h_init}, {self.h_max})"
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
    meta: dict = field(default_factory=dict)

    @property
    def z_final(self) -> np.ndarray:
        return self.z[-1]

    def sample(self, times) -> np.ndarray:
        """Cubic Hermite interpolation at the requested times.

        Times are clamped to [t[0], t_stop].
        """
        tq = np.atleast_1d(np.asarray(times, dtype=float))
        tq = np.clip(tq, self.t[0], self.t_stop)
        out = np.empty((tq.size, self.z.shape[1]))
        idx = np.searchsorted(self.t, tq, side="right") - 1
        idx = np.clip(idx, 0, len(self.t) - 2) if len(self.t) > 1 else idx * 0
        for row, (tau, i) in enumerate(zip(tq, idx)):
            if len(self.t) == 1:
                out[row] = self.z[0]
                continue
            t0, t1 = self.t[i], self.t[i + 1]
            h = t1 - t0
            if h <= 0.0:
                out[row] = self.z[i]
                continue
            u = (tau - t0) / h
            u2 = u * u
            u3 = u2 * u
            h00 = 2 * u3 - 3 * u2 + 1
            h10 = u3 - 2 * u2 + u
            h01 = -2 * u3 + 3 * u2
            h11 = u3 - u2
            out[row] = (
                h00 * self.z[i]
                + h10 * h * self.f[i]
                + h01 * self.z[i + 1]
                + h11 * h * self.f[i + 1]
            )
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
        return _integrate_rk45(rhs, z0, t0, t1, opts)
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


def _integrate_rk45(rhs, z0, t0, t1, opts) -> IntegrationResult:
    n = len(z0)
    atol, rtol = opts.abs_tol, opts.rel_tol
    ts = [t0]
    zs = [list(z0)]
    fs: list[list[float]] = []
    nstep = nrej = nev = 0
    t = t0
    z = list(z0)
    h = min(opts.h_init, t1 - t0, opts.h_max)
    try:
        fcur = rhs(t, z)
        nev += 1
    except IntegrationSignal as sig:
        fs.append([0.0] * n)
        return _result(STATUS_SIGNAL, ts, zs, fs, sig, 0, 0, nev)
    fs.append(list(fcur))
    ks: list[list[float]] = [fcur] + [[0.0] * n for _ in range(5)]
    t_snap = 1e-14 * max(1.0, abs(t1))  # float-residue guard at the endpoint
    while t1 - t > t_snap:
        if nstep + nrej >= opts.max_steps:
            return _result(STATUS_MAX_STEPS, ts, zs, fs, None, nstep, nrej, nev)
        h = min(h, t1 - t, opts.h_max)
        try:
            for i in range(1, 6):
                zi = list(z)
                bi = _RK_B[i]
                for j in range(i):
                    bij = bi[j]
                    if bij != 0.0:
                        kj = ks[j]
                        hb = h * bij
                        for q in range(n):
                            zi[q] += hb * kj[q]
                ks[i] = rhs(t + _RK_A[i] * h, zi)
                nev += 1
        except IntegrationSignal as sig:
            return _result(STATUS_SIGNAL, ts, zs, fs, sig, nstep, nrej, nev)
        err = 0.0
        for q in range(n):
            e = 0.0
            for i in range(6):
                w = _RK_ERR[i]
                if w != 0.0:
                    e += w * ks[i][q]
            e *= h
            sc = atol + rtol * abs(z[q])
            r = abs(e) / sc
            if r > err:
                err = r
        if err <= 1.0:
            for q in range(n):
                acc = 0.0
                for i in range(6):
                    w = _RK_C5[i]
                    if w != 0.0:
                        acc += w * ks[i][q]
                z[q] += h * acc
            t += h
            # a node is kept only with its own slope: a signal here ends the
            # run at the previous node
            try:
                fcur = rhs(t, z)
                nev += 1
            except IntegrationSignal as sig:
                return _result(STATUS_SIGNAL, ts, zs, fs, sig, nstep, nrej, nev)
            nstep += 1
            ts.append(t)
            zs.append(list(z))
            fs.append(list(fcur))
            ks[0] = fcur
        else:
            nrej += 1
        factor = _SAFETY * max(err, 1e-16) ** -0.2
        h *= min(_GROW_MAX, max(_SHRINK_MIN, factor))
        if h < opts.h_min and t1 - t > t_snap:
            return _result(STATUS_STEP_COLLAPSE, ts, zs, fs, None, nstep, nrej, nev)
    return _result(STATUS_COMPLETED, ts, zs, fs, None, nstep, nrej, nev)


def _integrate_trapezoidal(rhs, z0, t0, t1, opts) -> IntegrationResult:
    """The stiff method: scipy's LSODA, advanced one accepted step at a time.

    Each accepted node gets a fresh rhs(t, z) for the Hermite dense output. A
    signal raised by the rhs, inside a solver step or at a node, ends the run
    at the last node whose slope is known. LSODA retries failed steps
    internally and does not report them, so n_rejected reads 0.
    """
    from scipy.integrate import LSODA  # ~0.7 s cold: loaded by stiff runs only

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
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
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
    "IntegratorOptions",
    "IntegrationResult",
    "integrate",
    "METHOD_RK45",
    "METHOD_TRAPEZOIDAL",
    "METHODS",
    "STATUS_COMPLETED",
    "STATUS_SIGNAL",
    "STATUS_STEP_COLLAPSE",
    "STATUS_MAX_STEPS",
]
