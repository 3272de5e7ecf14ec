"""Independent computation paths used to cross-check the library.

Everything here deliberately avoids the library's assembly code: the drag
matrix comes from Gauss-Legendre quadrature of the drag densities in the lab
frame at arbitrary orientation, matrix inverses from Laplace cofactor
expansion, and torque sums from explicit planar cross products.
"""
from __future__ import annotations

import math
from operator import mul

import numpy as np

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


def ndf_reference(run, t1, atol, rtol) -> str:
    """integrators._integrate_ndf written with one resize block per case: a
    Newton failure halves h and drops the LU, a failed error test shrinks h
    and keeps it, and the order/step choice after order + 1 equal steps
    rescales and drops it, each with its own H_MIN test. The helpers,
    constants and step control are the module's own, looked up at call time,
    so only the step loop is independent; its float operations must be the
    production loop's, in the same order."""
    from bentswimmer import integrators as ig

    rhs = run.slope
    t, z0, f = run.t[0], run.z[0], run.f[0]
    n = len(z0)
    newton_tol = max(10 * ig._EPS / rtol, min(0.03, rtol ** 0.5))

    def jacobian(t, y, f):
        cols = []
        for j in range(n):
            yj = list(y)
            yj[j] += ig._SQRT_EPS * max(abs(y[j]), atol) * (1.0 if f[j] >= 0.0 else -1.0)
            step = yj[j] - y[j]
            fj = rhs(t, yj)
            cols.append([(a - b) / step for a, b in zip(fj, f)])
        return [list(row) for row in zip(*cols)]

    def newton(t, y_pred, f, c, psi, lu, scale):
        a, perm = lu
        y = y_pred
        d = [0.0] * n
        dy_norm_old = None
        for k in range(ig._NEWTON_MAXITER):
            if k:
                f = rhs(t, y)
            if not all(map(math.isfinite, f)):
                break
            dy = ig.lu_solve(a, perm, [c * fq - pq - dq for fq, pq, dq in zip(f, psi, d)])
            dy_norm = ig._rms(dy, scale)
            if not dy_norm < math.inf:
                break
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if rate is not None and (
                rate >= 1.0
                or rate ** (ig._NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm > newton_tol
            ):
                break
            d = [p + q for p, q in zip(d, dy)]
            y = [p + q for p, q in zip(y_pred, d)]
            if dy_norm == 0.0 or (rate is not None and rate / (1.0 - rate) * dy_norm < newton_tol):
                return True, k + 1, y, d
            dy_norm_old = dy_norm
        return False, k + 1, y, d

    h = min(ig.H_INIT, t1 - t)
    D = [list(z0), [h * v for v in f]] + [[0.0] * n for _ in range(ig._MAX_ORDER + 1)]
    order = 1
    n_equal = 0
    J = lu = None
    fresh = False
    t_snap = 1e-14 * max(1.0, abs(t1))
    while t1 - t > t_snap:
        if len(run.t) > ig.MAX_STEPS:
            return ig.STATUS_MAX_STEPS
        t_new = t + h
        if t1 - t_new <= t_snap:
            t_new = t1
            if t1 - t != h:
                ig._rescale(D, order, (t1 - t) / h)
                h = t1 - t
                n_equal = 0
                lu = None
        y_pred = [sum(col) for col in zip(*D[:order + 1])]
        scale = [atol + rtol * abs(v) for v in y_pred]
        alpha = ig._ALPHA[order]
        gamma = ig._GAMMA[1:order + 1]
        psi = [sum(map(mul, gamma, col)) / alpha for col in zip(*D[1:order + 1])]
        c = h / alpha
        converged = False
        try:
            f_pred = rhs(t_new, y_pred)
            if J is None:
                J = jacobian(t_new, y_pred, f_pred)
                fresh = True
            while True:
                if lu is None:
                    lu = ig._newton_matrix(J, c)
                converged, n_iter, y_new, d = newton(t_new, y_pred, f_pred, c, psi, lu, scale)
                if converged or fresh:
                    break
                J = jacobian(t_new, y_pred, f_pred)
                fresh = True
                lu = None
        except (ig.OutsideDomain, ig.SingularMatrixError):
            pass
        if not converged:
            run.n_rejected += 1
            h *= 0.5
            ig._rescale(D, order, 0.5)
            n_equal = 0
            lu = None
            if h < ig.H_MIN:
                return ig.STATUS_STEP_COLLAPSE
            continue
        if not all(map(math.isfinite, y_new)):
            return ig.STATUS_STEP_COLLAPSE
        safety = 0.9 * (2 * ig._NEWTON_MAXITER + 1) / (2 * ig._NEWTON_MAXITER + n_iter)
        scale = [atol + rtol * abs(v) for v in y_new]
        err = ig._rms([ig._ERROR_CONST[order] * v for v in d], scale)
        if err > 1.0:
            run.n_rejected += 1
            factor = max(ig._MIN_FACTOR, safety * err ** (-1.0 / (order + 1)))
            h *= factor
            ig._rescale(D, order, factor)
            n_equal = 0
            if h < ig.H_MIN:
                return ig.STATUS_STEP_COLLAPSE
            continue
        run.keep(t_new, y_new)
        t = t_new
        fresh = False
        n_equal += 1
        D[order + 2] = [p - q for p, q in zip(d, D[order + 1])]
        D[order + 1] = d
        for i in range(order, -1, -1):
            D[i] = [p + q for p, q in zip(D[i], D[i + 1])]
        if n_equal < order + 1:
            continue
        err_m = (ig._rms([ig._ERROR_CONST[order - 1] * v for v in D[order]], scale)
                 if order > 1 else math.inf)
        err_p = (ig._rms([ig._ERROR_CONST[order + 1] * v for v in D[order + 2]], scale)
                 if order < ig._MAX_ORDER else math.inf)
        growth = [math.inf if e == 0.0 else e ** (-1.0 / k)
                  for e, k in ((err_m, order), (err, order + 1), (err_p, order + 2))]
        best = max(growth)
        order += growth.index(best) - 1
        factor = min(ig._MAX_FACTOR, safety * best)
        h *= factor
        ig._rescale(D, order, factor)
        n_equal = 0
        lu = None
        if h < ig.H_MIN and t1 - t > t_snap:
            return ig.STATUS_STEP_COLLAPSE
    return ig.STATUS_COMPLETED


def combine_fields_reference(z, h_par, h_perp, f0, f1, f2) -> list[float]:
    """dynamics._combine_fields before the shape rates were shared: R_theta
    (F0 + H_par F1 + H_perp F2) at orientation z[2], as a list. With
    dynamics._raw_fields at (z[3], z[4]) it is _raw_state_derivative's
    arithmetic, to the last bit."""
    w0 = f0[0] + h_par * f1[0] + h_perp * f2[0]
    w1 = f0[1] + h_par * f1[1] + h_perp * f2[1]
    c = math.cos(z[2])
    s = math.sin(z[2])
    return [
        c * w0 - s * w1,
        s * w0 + c * w1,
        f0[2] + h_par * f1[2] + h_perp * f2[2],
        f0[3] + h_par * f1[3] + h_perp * f2[3],
        f0[4] + h_par * f1[4] + h_perp * f2[4],
    ]


def solve_controls_reference(z, fprime, gprime, params, xp=math):
    """tracking._solve_controls_raw with each quotient written twice, once
    for floats and once for arrays (under np.errstate, NaN put in by
    np.where), and zdot written over the unpacked field entries. The kernel,
    TrackingSingularity and EPS_D are the module's own, looked up at call
    time; the float operations must be the production solve's, in the same
    order."""
    from bentswimmer import tracking

    f0, f1, f2, _, _, _ = tracking._raw_fields(z[1], z[2], params, xp)
    f00, f01, f02, f03, f04 = f0
    f10, f11, f12, f13, f14 = f1
    f20, f21, f22, f23, f24 = f2
    d = f10 * f21 - f11 * f20
    if xp is math and abs(d) <= tracking.EPS_D:
        raise tracking.TrackingSingularity(d, z[1], z[2])
    c = xp.cos(z[0])
    s = xp.sin(z[0])
    bx = c * fprime + s * gprime
    by = -s * fprime + c * gprime
    r1 = bx - f00
    r2 = by - f01
    if xp is not math:
        singular = np.abs(d) <= tracking.EPS_D
        with np.errstate(divide="ignore", invalid="ignore"):
            h_par = np.where(singular, math.nan, (r1 * f21 - r2 * f20) / d)
            h_perp = np.where(singular, math.nan, (f10 * r2 - f11 * r1) / d)
        ab = np.abs
        scale = 1.0 + ab(r1) + ab(r2) + (ab(h_par) + ab(h_perp)) * (
            ab(f10) + ab(f11) + ab(f20) + ab(f21)
        )
        resid = np.maximum(
            ab(f10 * h_par + f20 * h_perp - r1),
            ab(f11 * h_par + f21 * h_perp - r2),
        ) / scale
        return h_par, h_perp, d, resid
    h_par = (r1 * f21 - r2 * f20) / d
    h_perp = (f10 * r2 - f11 * r1) / d
    zdot = [
        f02 + h_par * f12 + h_perp * f22,
        f03 + h_par * f13 + h_perp * f23,
        f04 + h_par * f14 + h_perp * f24,
    ]
    return h_par, h_perp, d, zdot
