"""Adaptive time integration for the open- and closed-loop swimmer ODEs.

Two methods:

* ``adaptive_explicit_rk45`` -- the classic Fehlberg 4(5) embedded pair,
  propagating the fifth-order solution. Cheap per step, but the step size is
  capped by the fast shape-relaxation eigenvalues (order kappa / (eta l^3),
  around 2e6 s^-1 for the tabulated parameters). Each attempt is one
  straight-line pass over the six stages, in any dimension.

* ``trapezoidal_adaptive`` -- the stiff method. The name is kept for the
  scenario files; the solver is scipy's LSODA (Petzold 1983), which switches
  between Adams and BDF formulas and builds its own Jacobian. It is driven
  one accepted step at a time so that a signal keeps every node accepted so
  far. scipy.integrate is imported on the first stiff run only.

RK45 stays in-house for memory, not accuracy: with a scalar 1e-9 tolerance
LSODA misses the 1e-8 um exact-tracking gate on full-turn circles, but with
the position components held to tighter per-component tolerances it meets
it. What keeps RK45 is that closed-loop runs on it never import
scipy.integrate, whose import raises a process's peak RSS from about 33 to
about 80 MiB.

A step that reaches a non-finite state ends the run with ``step_collapse``
in both methods; neither error test rejects NaN by itself.

The right-hand side is ``rhs(t, z) -> list[float]`` over plain float lists.
An rhs may raise IntegrationSignal (or a subclass) to stop the run cleanly:
the integrator returns everything accepted so far with status
``terminated_by_signal`` instead of failing. Dense output between accepted
points is cubic Hermite.

All arithmetic is deterministic: identical inputs give bit-identical output.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

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

# LSODA raises smaller relative tolerances to this floor (with a warning);
# both methods reject them instead.
REL_TOL_MIN = 100 * sys.float_info.epsilon


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
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.rel_tol < REL_TOL_MIN:
            raise ValueError(
                f"rel_tol must be at least 100 machine epsilons ({REL_TOL_MIN:.3e}), "
                f"got {self.rel_tol!r}"
            )
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
    """Fehlberg 4(5), one straight-line step per attempt.

    Each stage state is zq + (h b_i0) k0 + (h b_i1) k1 + ..., summed left to
    right, and the error and fifth-order sums run over the stages in order,
    so the stepper works in any dimension and its arithmetic is that of a
    loop over the tableau. The weights of k1 in both sums are zero and its
    terms are left out.
    """
    _, a1, a2, a3, a4, a5 = _RK_A
    (
        _,
        (b10,),
        (b20, b21),
        (b30, b31, b32),
        (b40, b41, b42, b43),
        (b50, b51, b52, b53, b54),
    ) = _RK_B
    c0, _, c2, c3, c4, c5 = _RK_C5
    e0, _, e2, e3, e4, e5 = _RK_ERR
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
        k0 = rhs(t, z)
        nev += 1
    except IntegrationSignal as sig:
        fs.append([0.0] * n)
        return _result(STATUS_SIGNAL, ts, zs, fs, sig, 0, 0, nev)
    fs.append(list(k0))
    t_snap = 1e-14 * max(1.0, abs(t1))  # float-residue guard at the endpoint
    while t1 - t > t_snap:
        if nstep + nrej >= opts.max_steps:
            return _result(STATUS_MAX_STEPS, ts, zs, fs, None, nstep, nrej, nev)
        h = min(h, t1 - t, opts.h_max)
        try:
            hb0 = h * b10
            zi = [zq + hb0 * p0 for zq, p0 in zip(z, k0)]
            k1 = rhs(t + a1 * h, zi)
            nev += 1
            hb0, hb1 = h * b20, h * b21
            zi = [zq + hb0 * p0 + hb1 * p1 for zq, p0, p1 in zip(z, k0, k1)]
            k2 = rhs(t + a2 * h, zi)
            nev += 1
            hb0, hb1, hb2 = h * b30, h * b31, h * b32
            zi = [zq + hb0 * p0 + hb1 * p1 + hb2 * p2
                  for zq, p0, p1, p2 in zip(z, k0, k1, k2)]
            k3 = rhs(t + a3 * h, zi)
            nev += 1
            hb0, hb1, hb2, hb3 = h * b40, h * b41, h * b42, h * b43
            zi = [zq + hb0 * p0 + hb1 * p1 + hb2 * p2 + hb3 * p3
                  for zq, p0, p1, p2, p3 in zip(z, k0, k1, k2, k3)]
            k4 = rhs(t + a4 * h, zi)
            nev += 1
            hb0, hb1, hb2, hb3, hb4 = h * b50, h * b51, h * b52, h * b53, h * b54
            zi = [zq + hb0 * p0 + hb1 * p1 + hb2 * p2 + hb3 * p3 + hb4 * p4
                  for zq, p0, p1, p2, p3, p4 in zip(z, k0, k1, k2, k3, k4)]
            k5 = rhs(t + a5 * h, zi)
            nev += 1
        except IntegrationSignal as sig:
            return _result(STATUS_SIGNAL, ts, zs, fs, sig, nstep, nrej, nev)
        # max by `r > err`, so a NaN ratio is never kept
        err = 0.0
        for zq, p0, p2, p3, p4, p5 in zip(z, k0, k2, k3, k4, k5):
            e = (e0 * p0 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5) * h
            r = abs(e) / (atol + rtol * abs(zq))
            if r > err:
                err = r
        if err <= 1.0:
            z = [zq + h * (c0 * p0 + c2 * p2 + c3 * p3 + c4 * p4 + c5 * p5)
                 for zq, p0, p2, p3, p4, p5 in zip(z, k0, k2, k3, k4, k5)]
            # the error norm above never keeps a NaN ratio, but a NaN stage
            # always reaches the new state
            if not all(map(math.isfinite, z)):
                return _result(STATUS_STEP_COLLAPSE, ts, zs, fs, None, nstep, nrej, nev)
            t += h
            # a node is kept only with its own slope: a signal here ends the
            # run at the previous node
            try:
                k0 = rhs(t, z)
                nev += 1
            except IntegrationSignal as sig:
                return _result(STATUS_SIGNAL, ts, zs, fs, sig, nstep, nrej, nev)
            nstep += 1
            ts.append(t)
            zs.append(z)
            fs.append(list(k0))
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
    "REL_TOL_MIN",
    "STATUS_COMPLETED",
    "STATUS_SIGNAL",
    "STATUS_STEP_COLLAPSE",
    "STATUS_MAX_STEPS",
]
