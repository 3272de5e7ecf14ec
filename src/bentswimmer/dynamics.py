"""Resistive-force-theory equations of motion for the three-link swimmer.

At zero Reynolds number the swimmer obeys force- and torque-balance only. We
use five balances: total force on x and y; total torque about the proximal
end (x, y); torque on the tail pair {S2, S3} about the first joint; torque
on S3 alone about the second joint. Taking torques about the joints removes
the unknown joint constraint forces.

Drag is local and anisotropic: a point moving with velocity u on a segment
with frame (e, n) feels the force density

    f = -xi (u . e) e - eta (u . n) n        [pN / um]

Writing the rigid-chain velocity field at theta = 0 for each unit
generalized velocity and integrating f (and its moments) over each segment
gives the body-frame drag matrix M(alpha1, alpha2):

    M(alpha1, alpha2) . R_{-theta} Zdot  =  Y(state, H)

where R_theta is the block rotation (model.rotation_block) and Y collects
the negated magnetic and elastic generalized forces: its force rows are zero
(a uniform field exerts pure torques, the springs are internal), and rows
3..5 are minus the magnetic torques on {S1, S2, S3}, {S2, S3} and {S3} plus
(0, kappa alpha1, kappa (alpha2 - alpha0)). The dynamics never forms Y; it
enters through the columns of M^{-1} in F0, F1, F2 below. All integrands are
polynomials of degree <= 2 in the arclength, so M is assembled in closed
form; a Gauss-quadrature oracle in the test suite checks it entrywise.

M is symmetric (the balance functionals and the velocity fields pair through
the same drag inner product) and its determinant is negative for every
physical shape, so the system inverts to the control-affine form

    R_{-theta} Zdot = F0 + H_par F1 + H_perp F2

with F0, F1, F2 combinations of columns 3..5 of M^{-1}.

Sign conventions: angles counterclockwise, torques about +z. The springs are
restoring: the spring at the first joint drives alpha1 to 0, the second
drives alpha2 to alpha0, which makes (alpha1, alpha2) = (0, alpha0) an
attracting rest shape under zero field (the opposite choice makes the rest
shape repelling and the whole model unphysical).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# lu_* unused here: perfbench/tracer.py wraps them by attribute until it is retargeted.
from .linalg import SingularMatrixError, lu_det, lu_factor, lu_solve  # noqa: F401
from .model import ControlField, SwimmerParams, SwimmerState

# |det M| below this (internal units) is treated as an assembly fault: the
# determinant is provably bounded away from zero on (-pi, pi)^2.
DET_WARN_FLOOR = 1e-14


def mobility_entries(a1: float, a2: float, ell: float, xi: float, eta: float) -> list[list]:
    """Closed-form 5x5 drag matrix at theta = 0, as a list of row lists of
    floats. The entries come from _drag_upper.
    """
    (m00, m01, m02, m03, m04, m11, m12, m13, m14, m22, m23, m24, m33, m34, m44) = _drag_upper(
        math.cos(a1), math.sin(a1), math.cos(a1 + a2), math.sin(a1 + a2), ell, xi, eta)
    return [
        [m00, m01, m02, m03, m04],
        [m01, m11, m12, m13, m14],
        [m02, m12, m22, m23, m24],
        [m03, m13, m23, m33, m34],
        [m04, m14, m24, m34, m44],
    ]


def _drag_upper(c1, s1, c12, s12, ell: float, xi: float, eta: float):
    """Upper triangle of the drag matrix, flat and row by row, from the
    cosines and sines of alpha1 and alpha1 + alpha2. Plain arithmetic, so
    floats and arrays go through it alike.

    Unrolled over the three segments for speed (this sits inside the ODE
    right-hand side). For a velocity field a + s*b*n on a segment with frame
    (e, n) and origin o, the exact arclength integrals give

        force  = fe * e + fn * n,
        torque about r = fe * (d x e) + fn * (d x n) - eta*(l2*(a.n) + b*l3),

    with d = o - r, fe = -xi*ell*(a.e), fn = -eta*(ell*(a.n) + b*l2),
    l2 = ell^2/2, l3 = ell^3/3. Only the upper triangle is computed; M is
    symmetric because each balance row and each generalized velocity pair
    through the same drag inner product.
    """
    ca2 = c1 * c12 + s1 * s12  # cos(a2)
    sa2 = c1 * s12 - s1 * c12  # sin(a2)
    l2 = 0.5 * ell * ell
    l3 = ell * ell * ell / 3.0
    xl = xi * ell
    el = eta * ell
    el2 = eta * l2

    # --- segment 1: e=(1,0), n=(0,1), o=(0,0) ---------------------------
    # unit x, unit y, and rotation about its own origin (a = 0, b = 1)
    m00 = -xl
    m01 = 0.0
    m11 = -el
    m02 = 0.0
    m12 = -el2
    m22 = -eta * l3

    # --- segment 2: e=(c1,s1), n=(-s1,c1), o=(ell,0) --------------------
    m00 += -xl * c1 * c1 - el * s1 * s1
    m01 += (el - xl) * s1 * c1
    m11 += -xl * s1 * s1 - el * c1 * c1
    dxe = ell * s1  # (o - o1) x e
    dxn = ell * c1  # (o - o1) x n
    # rotation about o1: a = zhat x (o - o1) = (0, ell)
    fe = -xl * ell * s1
    fn = -eta * (ell * ell * c1 + l2)
    m02 += fe * c1 - fn * s1
    m12 += fe * s1 + fn * c1
    m22 += fe * dxe + fn * dxn - eta * (l2 * ell * c1 + l3)
    # rotation about o2 (own origin): a = 0
    m03 = el2 * s1
    m13 = -el2 * c1
    m23 = -el2 * ell * c1 - eta * l3  # torque of that field about o1
    m33 = -eta * l3

    # --- segment 3: e=(c12,s12), n=(-s12,c12), o=o2+ell*(c1,s1) ----------
    ox = ell + ell * c1
    oy = ell * s1
    m00 += -xl * c12 * c12 - el * s12 * s12
    m01 += (el - xl) * s12 * c12
    m11 += -xl * s12 * s12 - el * c12 * c12
    d1e = ox * s12 - oy * c12  # (o - o1) x e
    d1n = ox * c12 + oy * s12  # (o - o1) x n
    d2e = ell * sa2            # (o - o2) x e
    d2n = ell * ca2            # (o - o2) x n
    # rotation about o1: a = zhat x (o - o1) = (-oy, ox); a.e = d1e, a.n = d1n
    fe = -xl * d1e
    fn = -eta * (ell * d1n + l2)
    tz = -eta * (l2 * d1n + l3)
    m02 += fe * c12 - fn * s12
    m12 += fe * s12 + fn * c12
    m22 += fe * d1e + fn * d1n + tz
    m23 += fe * d2e + fn * d2n + tz
    m24 = tz
    # rotation about o2: a = zhat x (o - o2); a.e = d2e, a.n = d2n
    fe = -xl * d2e
    fn = -eta * (ell * d2n + l2)
    tz = -eta * (l2 * d2n + l3)
    m03 += fe * c12 - fn * s12
    m13 += fe * s12 + fn * c12
    m33 += fe * d2e + fn * d2n + tz
    m34 = tz
    # rotation about o3 (own origin): a = 0
    m04 = el2 * s12
    m14 = -el2 * c12
    m44 = -eta * l3

    return (m00, m01, m02, m03, m04, m11, m12, m13, m14, m22, m23, m24, m33, m34, m44)


@dataclass(frozen=True)
class ControlVectorFields:
    """Drift and control fields of the control-affine system, plus the
    columns of M^{-1} they are built from."""

    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    x3: np.ndarray
    x4: np.ndarray
    x5: np.ndarray


def _raw_fields(alpha1, alpha2, params: SwimmerParams, xp=math):
    """(f0, f1, f2, x3, x4, x5) as lists of five entries each.

    Hot path: with xp=math (the default) the shape is a pair of floats and
    nothing is allocated but the lists and the drag tuple. With xp=numpy the
    shape is a pair of arrays and every entry is an array over the shapes,
    computed by the same operations in the same order; the guards then name
    the first shape that trips them. The four sines and cosines are taken
    once, here, and serve both the drag matrix and the magnetic terms.

    x3, x4, x5 are columns 3..5 of M^{-1}, i.e. M^{-1}[:, 2:5], by block
    elimination on M = [[P, Q], [Q^T, R]] with P = M[0:2, 0:2],
    Q = M[0:2, 2:5] and R = M[2:5, 2:5]. With W = P^{-1} Q and the Schur
    complement S = R - Q^T W,

        M^{-1}[:, 2:5] = [[-W S^{-1}], [S^{-1}]],  det M = det P * det S.

    -M is symmetric positive definite on the whole shape square, so P and S
    are too and no pivoting is needed; P and S are inverted by cofactors,
    fully unrolled.
    """
    a12 = alpha1 + alpha2
    s1 = xp.sin(alpha1)
    c1 = xp.cos(alpha1)
    s12 = xp.sin(a12)
    c12 = xp.cos(a12)
    (m00, m01, m02, m03, m04, m11, m12, m13, m14, m22, m23, m24, m33, m34, m44) = (
        _drag_upper(c1, s1, c12, s12, params.ell, params.xi, params.eta))
    det_p = m00 * m11 - m01 * m01
    # each test below gives a bool for floats and a bool array for arrays
    zero = det_p == 0.0
    if zero is not False and np.any(zero):  # provably unreachable for valid shapes
        a1, a2 = _first_where(zero, alpha1, alpha2)
        raise SingularMatrixError(
            f"drag matrix singular at shape ({a1}, {a2}): "
            "translation block has zero determinant"
        )
    inv_p = 1.0 / det_p
    p00 = m11 * inv_p
    p01 = -m01 * inv_p
    p11 = m00 * inv_p
    # W = P^{-1} Q, row r of W holding w_r2, w_r3, w_r4
    w02 = p00 * m02 + p01 * m12
    w03 = p00 * m03 + p01 * m13
    w04 = p00 * m04 + p01 * m14
    w12 = p01 * m02 + p11 * m12
    w13 = p01 * m03 + p11 * m13
    w14 = p01 * m04 + p11 * m14
    # S = R - Q^T W (symmetric, upper triangle)
    s22 = m22 - m02 * w02 - m12 * w12
    s23 = m23 - m02 * w03 - m12 * w13
    s24 = m24 - m02 * w04 - m12 * w14
    s33 = m33 - m03 * w03 - m13 * w13
    s34 = m34 - m03 * w04 - m13 * w14
    s44 = m44 - m04 * w04 - m14 * w14
    # cofactors of S
    c22 = s33 * s44 - s34 * s34
    c23 = s24 * s34 - s23 * s44
    c24 = s23 * s34 - s33 * s24
    c33 = s22 * s44 - s24 * s24
    c34 = s23 * s24 - s22 * s34
    c44 = s22 * s33 - s23 * s23
    det_s = s22 * c22 + s23 * c23 + s24 * c24
    zero = det_s == 0.0
    if zero is not False and np.any(zero):  # provably unreachable for valid shapes
        a1, a2 = _first_where(zero, alpha1, alpha2)
        raise SingularMatrixError(
            f"drag matrix singular at shape ({a1}, {a2}): "
            "Schur complement of the translation block has zero determinant"
        )
    det = det_p * det_s
    low = abs(det) < DET_WARN_FLOOR
    if low is not False and np.any(low):
        d, a1, a2 = _first_where(low, det, alpha1, alpha2)
        warnings.warn(
            f"near-singular drag matrix: det = {d:.3e} at ({a1}, {a2})",
            RuntimeWarning,
        )
    inv_s = 1.0 / det_s
    i22 = c22 * inv_s
    i23 = c23 * inv_s
    i24 = c24 * inv_s
    i33 = c33 * inv_s
    i34 = c34 * inv_s
    i44 = c44 * inv_s
    x30 = -(w02 * i22 + w03 * i23 + w04 * i24)
    x31 = -(w12 * i22 + w13 * i23 + w14 * i24)
    x40 = -(w02 * i23 + w03 * i33 + w04 * i34)
    x41 = -(w12 * i23 + w13 * i33 + w14 * i34)
    x50 = -(w02 * i24 + w03 * i34 + w04 * i44)
    x51 = -(w12 * i24 + w13 * i34 + w14 * i44)
    x3 = [x30, x31, i22, i23, i24]
    x4 = [x40, x41, i23, i33, i34]
    x5 = [x50, x51, i24, i34, i44]
    m3s = params.m3 * s12
    m3c = params.m3 * c12
    g_sin = params.m2 * s1 + m3s
    g_cos = params.m2 * c1 + m3c
    ka = params.kappa * alpha1
    kb = params.kappa * (alpha2 - params.alpha0)
    nm1 = -params.m1
    # x3 + x4, entry by entry
    u0 = x30 + x40
    u1 = x31 + x41
    u2 = i22 + i23
    u3 = i23 + i33
    u4 = i24 + i34
    # f0 = ka x4 + kb x5, f1 = g_sin (x3 + x4) + m3 s12 x5 and
    # f2 = -m1 x3 - g_cos (x3 + x4) - m3 c12 x5, entry by entry
    f0 = [
        ka * x40 + kb * x50,
        ka * x41 + kb * x51,
        ka * i23 + kb * i24,
        ka * i33 + kb * i34,
        ka * i34 + kb * i44,
    ]
    f1 = [
        g_sin * u0 + m3s * x50,
        g_sin * u1 + m3s * x51,
        g_sin * u2 + m3s * i24,
        g_sin * u3 + m3s * i34,
        g_sin * u4 + m3s * i44,
    ]
    f2 = [
        nm1 * x30 - g_cos * u0 - m3c * x50,
        nm1 * x31 - g_cos * u1 - m3c * x51,
        nm1 * i22 - g_cos * u2 - m3c * i24,
        nm1 * i23 - g_cos * u3 - m3c * i34,
        nm1 * i24 - g_cos * u4 - m3c * i44,
    ]
    return f0, f1, f2, x3, x4, x5


def _first_where(mask, *values) -> list[float]:
    """Each value (a float or an array) where mask (a bool or a bool array)
    first holds, in row-major order, as floats."""
    i = int(np.argmax(mask))
    return [float(np.broadcast_to(v, np.shape(mask)).flat[i]) for v in values]


def control_vector_fields(
    alpha1: float, alpha2: float, params: SwimmerParams
) -> ControlVectorFields:
    f0, f1, f2, x3, x4, x5 = _raw_fields(alpha1, alpha2, params)
    return ControlVectorFields(
        f0=np.array(f0),
        f1=np.array(f1),
        f2=np.array(f2),
        x3=np.array(x3),
        x4=np.array(x4),
        x5=np.array(x5),
    )


def _raw_state_derivative(
    z: list[float], h_par: float, h_perp: float, params: SwimmerParams
) -> list[float]:
    """Zdot = R_theta (F0 + H_par F1 + H_perp F2) for z = [x, y, theta,
    alpha1, alpha2], as a list. Hot path."""
    f0, f1, f2, _, _, _ = _raw_fields(z[3], z[4], params)
    w0 = f0[0] + h_par * f1[0] + h_perp * f2[0]
    w1 = f0[1] + h_par * f1[1] + h_perp * f2[1]
    c = math.cos(z[2])
    s = math.sin(z[2])
    return [c * w0 - s * w1, s * w0 + c * w1, *_shape_rates(f0, f1, f2, h_par, h_perp)]


def _shape_rates(f0, f1, f2, h_par, h_perp) -> list[float]:
    """Rows 2-4 of F0 + H_par F1 + H_perp F2, the rates of theta, alpha1 and
    alpha2 (R_theta leaves them alone), as a list."""
    return [
        f0[2] + h_par * f1[2] + h_perp * f2[2],
        f0[3] + h_par * f1[3] + h_perp * f2[3],
        f0[4] + h_par * f1[4] + h_perp * f2[4],
    ]


def state_derivative(
    state: SwimmerState, field: ControlField, params: SwimmerParams
) -> np.ndarray:
    """Zdot = R_theta (F0 + H_par F1 + H_perp F2).

    Independent of (x, y); rotating the state and co-rotating the field
    (which is automatic in body components) rotates Zdot.
    """
    z = [state.x, state.y, state.theta, state.alpha1, state.alpha2]
    return np.array(_raw_state_derivative(z, field.h_par, field.h_perp, params))


def equilibrium_state(
    params: SwimmerParams, x: float = 0.0, y: float = 0.0, theta: float = 0.0
) -> SwimmerState:
    """The zero-field rest state (x, y, theta, 0, alpha0)."""
    return SwimmerState(x=x, y=y, theta=theta, alpha1=0.0, alpha2=params.alpha0)


__all__ = [
    "ControlVectorFields",
    "mobility_entries",
    "control_vector_fields",
    "state_derivative",
    "equilibrium_state",
]
