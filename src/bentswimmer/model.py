"""Core types and geometry for the planar three-link swimmer.

The swimmer is three rigid magnetized segments S1, S2, S3 of equal length,
joined by two torsional springs. The second spring has a nonzero rest angle,
so the relaxed swimmer is bent. Its configuration is the 5-vector

    Z = (x, y, theta, alpha1, alpha2)

where (x, y) is the free (proximal) end of S1, theta the angle from the lab
x-axis to S1, and alpha1, alpha2 the joint angles S1->S2 and S2->S3, both
measured counterclockwise. Segment direction angles are therefore

    theta,  theta + alpha1,  theta + alpha1 + alpha2.

Internal unit system (coherent, used everywhere past the constructors):
micrometre, second, piconewton. Conveniently 1 N s m^-2 = 1 pN s um^-2, so
the drag coefficients keep their tabulated numeric values. Torsional
stiffness in N um converts by 1e12 to pN um. Magnetic moments are in A um^2
and the field is stored in pN/(A um), which is exactly 1 uT when the field
is read as flux density (A um^2 * uT = 1 pN um of torque).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PN_PER_N = 1e12
# each configuration-file key of SwimmerParams: (field, factor from the key's
# unit to the internal one). Drag coefficients carry over unchanged (1 N s
# m^-2 = 1 pN s um^-2); stiffness is rescaled from N um to pN um.
_TABLE_UNITS = {
    "ell_um": ("ell", 1.0),
    "eta_N_s_m2": ("eta", 1.0),
    "xi_N_s_m2": ("xi", 1.0),
    "m1_A_um2": ("m1", 1.0),
    "m2_A_um2": ("m2", 1.0),
    "m3_A_um2": ("m3", 1.0),
    "kappa_N_um": ("kappa", PN_PER_N),
    "alpha0_rad": ("alpha0", 1.0),
}


@dataclass(frozen=True)
class SwimmerParams:
    """Physical constants in internal units (um, s, pN).

    ell     segment length [um]
    xi      drag coefficient parallel to a segment [pN s / um^2]
    eta     drag coefficient perpendicular to a segment [pN s / um^2]
    m1..m3  segment magnetic moments [A um^2]
    kappa   torsional spring stiffness [pN um]
    alpha0  rest angle of the second spring [rad], in (-pi, pi)
    """

    ell: float
    xi: float
    eta: float
    m1: float
    m2: float
    m3: float
    kappa: float
    alpha0: float

    def __post_init__(self):
        for name in ("ell", "xi", "eta", "kappa"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        for name in ("m1", "m2", "m3", "alpha0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not (-math.pi < self.alpha0 < math.pi):
            raise ValueError(f"alpha0 must lie in (-pi, pi), got {self.alpha0!r}")

    @classmethod
    def from_table_units(cls, **values: float) -> "SwimmerParams":
        """Build from the mixed lab units used in configuration files: one
        keyword per key of _TABLE_UNITS, each scaled by its factor."""
        if values.keys() != _TABLE_UNITS.keys():
            raise TypeError(f"from_table_units() takes exactly the keywords "
                            f"{list(_TABLE_UNITS)}, got {sorted(values)}")
        return cls(**{name: values[key] * factor for key, (name, factor) in _TABLE_UNITS.items()})

    def table_units(self) -> dict:
        """Echo the parameters back in configuration-file units."""
        return {key: getattr(self, name) / factor for key, (name, factor) in _TABLE_UNITS.items()}


@dataclass(frozen=True)
class SwimmerState:
    """Configuration (x, y, theta, alpha1, alpha2).

    theta is stored unwrapped (no reduction mod 2*pi) so time series stay
    continuous. Joint angles outside (-pi, pi) would make segments overlap
    and are rejected.
    """

    x: float
    y: float
    theta: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("x", "y", "theta", "alpha1", "alpha2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not (-math.pi < v < math.pi):
                raise ValueError(f"{name} must lie in (-pi, pi), got {v!r}")


def joint_points(state: SwimmerState, params: SwimmerParams) -> np.ndarray:
    """The four points (proximal end, two joints, distal tip), shape (4, 2):
    each segment ends ell along its direction angle from where it starts."""
    x, y = state.x, state.y
    points = [(x, y)]
    for a in (state.theta, state.theta + state.alpha1,
              state.theta + state.alpha1 + state.alpha2):
        x += params.ell * math.cos(a)
        y += params.ell * math.sin(a)
        points.append((x, y))
    return np.array(points)


def rotation_block(theta: float) -> np.ndarray:
    """5x5 block rotation: planar rotation by theta on (x, y), identity on
    (theta, alpha1, alpha2)."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.eye(5)
    r[0, 0] = c
    r[0, 1] = -s
    r[1, 0] = s
    r[1, 1] = c
    return r


@dataclass(frozen=True)
class ControlField:
    """Magnetic field in the S1 body frame: h_par along the S1 tangent,
    h_perp along its normal. Values are in pN/(A um), i.e. uT. A run's
    lab-frame field is records.emit_lab_frame_controls."""

    h_par: float
    h_perp: float
