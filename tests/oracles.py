"""Independent computation paths used to cross-check the library.

Everything here deliberately avoids the library's assembly code: the drag
matrix comes from Gauss-Legendre quadrature of the drag densities in the lab
frame at arbitrary orientation, matrix inverses from Laplace cofactor
expansion, and torque sums from explicit planar cross products. The RK45
reference steps through the Fehlberg tableau one stage and one component at
a time.
"""
from __future__ import annotations

import math

import numpy as np

from bentswimmer.integrators import (
    _GROW_MAX,
    _RK_A,
    _RK_B,
    _RK_C5,
    _RK_ERR,
    _SAFETY,
    _SHRINK_MIN,
    STATUS_COMPLETED,
    STATUS_MAX_STEPS,
    STATUS_SIGNAL,
    STATUS_STEP_COLLAPSE,
    IntegrationResult,
    IntegrationSignal,
    OutsideDomain,
)
from bentswimmer.model import SwimmerParams, SwimmerState, segment_frames


def cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def quadrature_mobility(
    alpha1: float,
    alpha2: float,
    params: SwimmerParams,
    theta: float = 0.0,
    nodes: int = 32,
) -> np.ndarray:
    """Drag matrix by numerical integration of the drag densities.

    Builds the five balance functionals in the lab frame at orientation
    `theta` for each unit generalized velocity, then conjugates by the block
    rotation to recover the body-frame matrix, which must not depend on
    theta.
    """
    ell = params.ell
    state = SwimmerState(0.0, 0.0, theta, alpha1, alpha2)
    frames = segment_frames(state, params)
    origins = [f.origin for f in frames]
    tangents = [f.tangent for f in frames]
    normals = [f.normal for f in frames]

    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)
    s_nodes = 0.5 * ell * (x_gl + 1.0)
    weights = 0.5 * ell * w_gl

    lab = np.zeros((5, 5))
    for k in range(5):
        for i in range(3):
            # velocity field of unit generalized velocity k on segment i
            if k == 0:
                vel = lambda p: np.array([1.0, 0.0])
            elif k == 1:
                vel = lambda p: np.array([0.0, 1.0])
            elif k == 2:
                vel = lambda p: np.array([-(p[1] - origins[0][1]), p[0] - origins[0][0]])
            elif k == 3:
                if i < 1:
                    continue
                vel = lambda p: np.array([-(p[1] - origins[1][1]), p[0] - origins[1][0]])
            else:
                if i < 2:
                    continue
                vel = lambda p: np.array([-(p[1] - origins[2][1]), p[0] - origins[2][0]])
            e, n, o = tangents[i], normals[i], origins[i]
            for s, w in zip(s_nodes, weights):
                p = o + s * e
                u = vel(p)
                f = -params.xi * (u @ e) * e - params.eta * (u @ n) * n
                lab[0, k] += w * f[0]
                lab[1, k] += w * f[1]
                lab[2, k] += w * cross2(p - origins[0], f)
                if i >= 1:
                    lab[3, k] += w * cross2(p - origins[1], f)
                if i >= 2:
                    lab[4, k] += w * cross2(p - origins[2], f)

    c, s = np.cos(theta), np.sin(theta)
    r_minus = np.eye(5)
    r_minus[:2, :2] = [[c, s], [-s, c]]
    r_plus = np.eye(5)
    r_plus[:2, :2] = [[c, -s], [s, c]]
    return r_minus @ lab @ r_plus


def laplace_det(m) -> float:
    """Determinant by recursive cofactor expansion."""
    m = [list(map(float, row)) for row in m]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        if m[0][j] == 0.0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += ((-1.0) ** j) * m[0][j] * laplace_det(minor)
    return total


def cofactor_inverse(m) -> np.ndarray:
    """Inverse by adjugate over determinant (Laplace cofactors throughout)."""
    m = [list(map(float, row)) for row in m]
    n = len(m)
    det = laplace_det(m)
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = [
                row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i
            ]
            adj[j, i] = ((-1.0) ** (i + j)) * laplace_det(minor)
    return adj / det


def magnetic_row_sums(state: SwimmerState, hx: float, hy: float, params: SwimmerParams):
    """(row3, row4, row5) magnetic parts of the balance right-hand side,
    from explicit lab-frame cross products: minus the torque sums of the
    full chain, the tail pair, and the last segment."""
    frames = segment_frames(state, params)
    h = np.array([hx, hy])
    torques = [
        m * cross2(f.tangent, h)
        for m, f in zip((params.m1, params.m2, params.m3), frames)
    ]
    return (
        -(torques[0] + torques[1] + torques[2]),
        -(torques[1] + torques[2]),
        -torques[2],
    )


def fd_jacobian(fun, z0: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of fun: R^n -> R^m at z0."""
    z0 = np.asarray(z0, dtype=float)
    f0 = np.asarray(fun(z0))
    jac = np.empty((f0.size, z0.size))
    for k in range(z0.size):
        zp = z0.copy()
        zm = z0.copy()
        zp[k] += step
        zm[k] -= step
        jac[:, k] = (np.asarray(fun(zp)) - np.asarray(fun(zm))) / (2.0 * step)
    return jac


def hermite_sample(t, z, f, times) -> np.ndarray:
    """Cubic Hermite dense output through nodes (t, z, f), one time at a time.

    Times are clamped to [t[0], t[-1]]; a time in a zero-length interval
    takes the state at the interval's start, and one node gives its state.
    The arithmetic is IntegrationResult.sample's, so results are equal.
    """
    out = []
    for tau in times:
        tau = min(max(float(tau), t[0]), t[-1])
        if len(t) == 1:
            out.append(z[0])
            continue
        i = min(max(int(np.searchsorted(t, tau, side="right")) - 1, 0), len(t) - 2)
        h = t[i + 1] - t[i]
        if h <= 0.0:
            out.append(z[i])
            continue
        u = (tau - t[i]) / h
        u2 = u * u
        u3 = u2 * u
        out.append((2 * u3 - 3 * u2 + 1) * z[i] + (u3 - 2 * u2 + u) * h * f[i]
                   + (-2 * u3 + 3 * u2) * z[i + 1] + (u3 - u2) * h * f[i + 1])
    return np.array(out)


def rk45_reference(rhs, z0, t_span, opts) -> IntegrationResult:
    """The RK45 method of integrate(), with loops over the tableau's stages
    and the state's components: each stage state, error norm and fifth-order
    update accumulates its terms in tableau order, skipping zero weights. A
    stage that raises OutsideDomain rejects the step and shrinks h by
    _SHRINK_MIN.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    z0 = [float(v) for v in z0]
    n = len(z0)
    atol, rtol = opts.abs_tol, opts.rel_tol
    ts, zs, fs = [t0], [list(z0)], []
    nstep = nrej = nev = 0
    t = t0
    z = list(z0)
    h = min(opts.h_init, t1 - t0, opts.h_max)

    def result(status, signal=None):
        return IntegrationResult(
            status=status, t=np.array(ts), z=np.array(zs), f=np.array(fs),
            t_stop=ts[-1], signal=signal, n_steps=nstep, n_rejected=nrej, n_evals=nev,
        )

    try:
        fcur = rhs(t, z)
        nev += 1
    except IntegrationSignal as sig:
        fs.append([0.0] * n)
        return result(STATUS_SIGNAL, sig)
    fs.append(list(fcur))
    ks = [fcur] + [[0.0] * n for _ in range(5)]
    t_snap = 1e-14 * max(1.0, abs(t1))
    while t1 - t > t_snap:
        if nstep + nrej >= opts.max_steps:
            return result(STATUS_MAX_STEPS)
        h = min(h, t1 - t, opts.h_max)
        try:
            for i in range(1, 6):
                zi = list(z)
                for j in range(i):
                    bij = _RK_B[i][j]
                    if bij != 0.0:
                        hb = h * bij
                        for q in range(n):
                            zi[q] += hb * ks[j][q]
                ks[i] = rhs(t + _RK_A[i] * h, zi)
                nev += 1
        except OutsideDomain:
            nrej += 1
            h *= _SHRINK_MIN
            if h < opts.h_min:
                return result(STATUS_STEP_COLLAPSE)
            continue
        except IntegrationSignal as sig:
            return result(STATUS_SIGNAL, sig)
        err = 0.0
        for q in range(n):
            e = 0.0
            for i in range(6):
                if _RK_ERR[i] != 0.0:
                    e += _RK_ERR[i] * ks[i][q]
            r = abs(e * h) / (atol + rtol * abs(z[q]))
            if r > err:
                err = r
        if err <= 1.0:
            for q in range(n):
                acc = 0.0
                for i in range(6):
                    if _RK_C5[i] != 0.0:
                        acc += _RK_C5[i] * ks[i][q]
                z[q] += h * acc
            if not all(map(math.isfinite, z)):
                return result(STATUS_STEP_COLLAPSE)
            t += h
            try:
                fcur = rhs(t, z)
                nev += 1
            except IntegrationSignal as sig:
                return result(STATUS_SIGNAL, sig)
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
            return result(STATUS_STEP_COLLAPSE)
    return result(STATUS_COMPLETED)


def feedback_residual(f0, f1, f2, theta, fprime, gprime, h_par, h_perp) -> float:
    """The feedback 2x2 system's defect at field (h_par, h_perp), for the
    fields f0, f1, f2 of a shape at orientation theta and the demand
    (fprime, gprime), scaled by the magnitude of the participating terms:
    the larger row of |F1 h_par + F2 h_perp - r| over
    1 + |r|_1 + |H|_1 (|F1x| + |F1y| + |F2x| + |F2y|), r = R_{-theta} (f', g') - F0.
    """
    c, s = math.cos(theta), math.sin(theta)
    r1 = c * fprime + s * gprime - f0[0]
    r2 = -s * fprime + c * gprime - f0[1]
    scale = 1.0 + abs(r1) + abs(r2) + (abs(h_par) + abs(h_perp)) * (
        abs(f1[0]) + abs(f1[1]) + abs(f2[0]) + abs(f2[1])
    )
    return max(
        abs(f1[0] * h_par + f2[0] * h_perp - r1),
        abs(f1[1] * h_par + f2[1] * h_perp - r2),
    ) / scale
