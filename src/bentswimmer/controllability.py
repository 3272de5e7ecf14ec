"""Linearization and partial-controllability analysis at the rest states.

Near a rest state Z* = (x, y, theta, 0, alpha0) the control system
linearizes to Zdot = A Z + B H with

    A = R_theta [0 | 0 | 0 | kappa X4 | kappa X5],
    B = R_theta [F1(Z*) | F2(Z*)],

where X4, X5 are columns of M^{-1} at the rest shape. Only the last two
columns of A are nonzero: the drift field depends on the shape angles alone
and vanishes at rest, which also kills the theta-rotation term of the
Jacobian.

Being able to steer the first p state components with small fields in small
time reduces to a rank test on the first p rows of the Kalman matrix
K = [B, AB, ..., A^4 B]. For the position (p = 2) the test succeeds for
every nonzero rest angle and fails for the straight swimmer (alpha0 = 0),
whose first Kalman row vanishes identically.

`bent_submatrix_determinant` evaluates a closed-form expression for the
determinant of the 2x2 submatrix built from the first two entries of the
first columns of B and AB. The expression is stated in a convention where
the elastic torque enters with the opposite sign (see the docstring), so it
equals minus the numeric determinant; the magnitudes agree to machine
precision, which is the cross-validation the test suite enforces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _raw_fields
from .model import SwimmerParams, SwimmerState, rotation_block

EQUILIBRIUM_TOL = 1e-9


@dataclass(frozen=True)
class LinearizedSystem:
    """Zdot = a Z + b H around `equilibrium` (5x5 and 5x2)."""

    a: np.ndarray
    b: np.ndarray
    equilibrium: SwimmerState


@dataclass(frozen=True)
class PartialControllabilityResult:
    controllable: bool
    rank: int
    p: int
    threshold: float


def linearize(equilibrium: SwimmerState, params: SwimmerParams) -> LinearizedSystem:
    """Analytic A and B at a zero-field rest state.

    The state must be a rest state: alpha1 = 0 and alpha2 = alpha0 (any
    position and orientation). At rest the shape-coefficient products in the
    drift vanish, so its Jacobian columns are exactly kappa*X4 and kappa*X5
    with no M^{-1}-derivative terms.
    """
    if abs(equilibrium.alpha1) > EQUILIBRIUM_TOL or (
        abs(equilibrium.alpha2 - params.alpha0) > EQUILIBRIUM_TOL
    ):
        raise ValueError(
            "linearize requires a rest state with alpha1 = 0 and "
            f"alpha2 = alpha0 = {params.alpha0!r}; got "
            f"({equilibrium.alpha1!r}, {equilibrium.alpha2!r})"
        )
    f0, f1, f2, x3, x4, x5 = _raw_fields(0.0, params.alpha0, params)
    r = rotation_block(equilibrium.theta)
    a = np.zeros((5, 5))
    a[:, 3] = x4
    a[:, 4] = x5
    a *= params.kappa
    b = np.column_stack([f1, f2])
    return LinearizedSystem(a=r @ a, b=r @ b, equilibrium=equilibrium)


def kalman_matrix(lin: LinearizedSystem) -> np.ndarray:
    """K = [B, AB, A^2 B, A^3 B, A^4 B], 5x10."""
    blocks = [lin.b]
    for _ in range(4):
        blocks.append(lin.a @ blocks[-1])
    return np.hstack(blocks)


def partial_controllability(
    k: np.ndarray, p: int, rel_tol: float = 1e-10
) -> PartialControllabilityResult:
    """Rank test on the first p rows of the Kalman matrix.

    Rank is counted from singular values above rel_tol * sigma_max; the
    threshold is a knob because the algebraic test lives in exact arithmetic.
    """
    if not 1 <= p <= 5:
        raise ValueError(f"p must be in 1..5, got {p!r}")
    sub = k[:p, :]
    sv = np.linalg.svd(sub, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    threshold = rel_tol * smax
    rank = int(np.sum(sv > threshold)) if smax > 0.0 else 0
    return PartialControllabilityResult(
        controllable=(rank == p), rank=rank, p=p, threshold=threshold
    )


def bent_submatrix_determinant(alpha0: float, params: SwimmerParams) -> float:
    """Closed-form determinant of the 2x2 position sub-block of [B | AB]
    (first columns), for rest angle alpha0 and the given drag/magnetic
    parameters.

    Vanishes like sin^3(alpha0) at the straight rest shape and is nonzero
    for every bent one, carrying the sign of -alpha0 for acute rest angles.
    Stated for the opposite elastic-torque sign convention, so it equals the
    NEGATIVE of the determinant computed from `linearize`/`kalman_matrix`;
    compare magnitudes (the ratio is exactly -1).
    """
    xi, eta = params.xi, params.eta
    ell, m3, kappa = params.ell, params.m3, params.kappa
    c = math.cos(alpha0)
    c2 = math.cos(2.0 * alpha0)
    s = math.sin(alpha0)
    big_xi = (
        eta * eta + 19.0 * eta * xi + 7.0 * xi * xi
        - (eta * eta - 8.0 * eta * xi + 7.0 * xi * xi) * c2
    )
    numerator = (
        108.0
        * m3 * m3
        * kappa
        * (-9.0 * eta * xi * (19.0 * eta + 54.0 * xi) * c - 2.0 * big_xi * (eta + 2.0 * xi))
        * s * s * s
    )
    denom_core = (
        eta * eta + 34.0 * eta * xi + 28.0 * xi * xi
        - (eta * eta - 11.0 * eta * xi + 28.0 * xi * xi) * c2
    )
    denominator = ell**7 * eta * eta * denom_core * denom_core
    return numerator / denominator


def numeric_bent_submatrix_determinant(alpha0: float, params: SwimmerParams) -> float:
    """Same 2x2 determinant computed from the assembled linearization."""
    work = replace(params, alpha0=alpha0)
    lin = linearize(SwimmerState(0.0, 0.0, 0.0, 0.0, alpha0), work)
    ab = lin.a @ lin.b
    return float(lin.b[0, 0] * ab[1, 0] - lin.b[1, 0] * ab[0, 0])


__all__ = [
    "LinearizedSystem",
    "PartialControllabilityResult",
    "linearize",
    "kalman_matrix",
    "partial_controllability",
    "bent_submatrix_determinant",
    "numeric_bent_submatrix_determinant",
]
