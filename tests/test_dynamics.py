import math
from dataclasses import astuple

import numpy as np
import pytest

from bentswimmer import dynamics
from bentswimmer.dynamics import (
    control_vector_fields,
    equilibrium_state,
    mobility_entries,
    state_derivative,
)
from bentswimmer.integrators import IntegratorOptions, integrate
from bentswimmer.linalg import SingularMatrixError, lu_det, lu_factor
from bentswimmer.model import ControlField, SwimmerState, rotation_block

from conftest import drag_matrix, table1
from oracles import cofactor_inverse, fd_jacobian, magnetic_row_sums, quadrature_mobility

ZERO = ControlField(0.0, 0.0)


def lu_determinant(alpha1, alpha2, params):
    """det M through the pivoted LU, independent of the dynamics' block solve."""
    m = mobility_entries(alpha1, alpha2, params.ell, params.xi, params.eta)
    _, parity = lu_factor(m)
    return lu_det(m, parity)


# ------------------------------------------------------------------ mobility

def test_mobility_deterministic(params):
    np.testing.assert_array_equal(drag_matrix(0.3, -0.7, params), drag_matrix(0.3, -0.7, params))
    assert lu_determinant(0.3, -0.7, params) == lu_determinant(0.3, -0.7, params)


def test_mobility_symmetric(params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a1, a2 = rng.uniform(-3.1, 3.1, 2)
        m = drag_matrix(a1, a2, params)
        np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-12 * np.abs(m).max())


def test_mobility_against_quadrature_oracle(params):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        a1, a2 = rng.uniform(-math.pi + 0.01, math.pi - 0.01, 2)
        m = drag_matrix(a1, a2, params)
        ref = quadrature_mobility(a1, a2, params)
        scale = np.abs(ref).max()
        worst = max(worst, float(np.abs(m - ref).max() / scale))
    assert worst <= 1e-10


def test_mobility_theta_independent(params):
    # the quadrature assembly at any orientation must reproduce the same
    # body-frame matrix
    for th in (0.0, 0.9, -2.3, 4.0):
        ref = quadrature_mobility(0.5, 1.0, params, theta=th)
        m = drag_matrix(0.5, 1.0, params)
        np.testing.assert_allclose(m, ref, rtol=1e-10, atol=1e-12)


def test_mobility_determinant_negative_straight(params):
    assert lu_determinant(0.0, 0.0, params) < 0.0


def test_mobility_determinant_negative_grid(params):
    """det M < 0 and M negative definite over the shape square.

    Negative definiteness is the precondition of the unpivoted block solve
    in dynamics._raw_fields.
    """
    pts = np.linspace(-math.pi + 0.01, math.pi - 0.01, 41)
    for a1 in pts:
        for a2 in pts:
            assert lu_determinant(a1, a2, params) < 0.0
            assert np.linalg.eigvalsh(drag_matrix(a1, a2, params)).max() < 0.0


# ------------------------------------------------------------ force balance
#
# The dynamics never forms the generalized force Y; it solves M R_{-theta}
# Zdot = Y through columns of M^{-1}. Multiplying the production derivative
# back by M gives Y, which is checked against independent statements of it.

def balance(state, field, params):
    """M(alpha1, alpha2) R_{-theta} Zdot, Zdot from state_derivative."""
    zdot = state_derivative(state, field, params)
    m = drag_matrix(state.alpha1, state.alpha2, params)
    return m @ rotation_block(-state.theta) @ zdot


def spring_torques(state, params):
    """Rows 3..5 of the elastic part of Y (restoring springs)."""
    k = params.kappa
    return np.array([0.0, k * state.alpha1, k * (state.alpha2 - params.alpha0)])


def assert_balance(y, rows, rel):
    """Force rows of y zero and rows 3..5 equal to `rows`, both within rel
    times the largest torque."""
    scale = max(1.0, float(np.abs(rows).max()))
    assert np.abs(y[:2]).max() <= rel * scale
    assert np.abs(y[2:] - rows).max() <= rel * scale


def test_force_zero_at_rest_without_field(params):
    state = SwimmerState(0.4, -2.0, 1.3, 0.0, params.alpha0)
    np.testing.assert_array_equal(balance(state, ZERO, params), np.zeros(5))


def test_force_row3_straight_perpendicular_field(params):
    # the straight second spring's torque in row 5 sets the rounding scale
    y = balance(SwimmerState(0, 0, 0, 0.0, 0.0), ControlField(0.0, 123.0), params)
    m1, m2, m3 = params.m1, params.m2, params.m3
    rows = [-123.0 * (m1 + m2 + m3), -123.0 * (m2 + m3),
            -params.kappa * params.alpha0 - 123.0 * m3]
    assert_balance(y, rows, 1e-12)


def test_force_rows_match_closed_forms(params):
    # rows 3..5 as explicit trigonometric polynomials; restoring springs
    rng = np.random.default_rng(13)
    k = params.kappa
    m1, m2, m3 = params.m1, params.m2, params.m3
    for _ in range(1000):
        a1, a2 = rng.uniform(-3.1, 3.1, 2)
        hp, hq = rng.uniform(-1e4, 1e4, 2)
        state = SwimmerState(0, 0, rng.uniform(-5, 5), a1, a2)
        y = balance(state, ControlField(hp, hq), params)
        s1, c1 = math.sin(a1), math.cos(a1)
        s12, c12 = math.sin(a1 + a2), math.cos(a1 + a2)
        row3 = hp * (m2 * s1 + m3 * s12) - hq * (m1 + m2 * c1 + m3 * c12)
        row4 = k * a1 + hp * (m2 * s1 + m3 * s12) - hq * (m2 * c1 + m3 * c12)
        row5 = k * (a2 - params.alpha0) + hp * m3 * s12 - hq * m3 * c12
        assert_balance(y, [row3, row4, row5], 1e-12)


def test_force_magnetic_part_against_cross_product_oracle(params):
    rng = np.random.default_rng(17)
    for _ in range(500):
        a1, a2 = rng.uniform(-3.1, 3.1, 2)
        th = rng.uniform(-7, 7)
        hp, hq = rng.uniform(-1e4, 1e4, 2)
        state = SwimmerState(rng.uniform(-20, 20), rng.uniform(-20, 20), th, a1, a2)
        y = balance(state, ControlField(hp, hq), params)
        c, s = math.cos(th), math.sin(th)
        magnetic = magnetic_row_sums(state, c * hp - s * hq, s * hp + c * hq, params)
        assert_balance(y, np.add(magnetic, spring_torques(state, params)), 1e-12)


def test_force_elastic_part_is_energy_gradient(params):
    # without a field, Y is the gradient of U = k/2 (a1^2 + (a2-a0)^2)
    k, a0 = params.kappa, params.alpha0

    def energy(a1, a2):
        return 0.5 * k * (a1 * a1 + (a2 - a0) ** 2)

    rng = np.random.default_rng(19)
    for _ in range(100):
        a1, a2 = rng.uniform(-3.0, 3.0, 2)
        state = SwimmerState(0, 0, rng.uniform(-5, 5), a1, a2)
        y = balance(state, ZERO, params)
        d = 1e-6
        g1 = (energy(a1 + d, a2) - energy(a1 - d, a2)) / (2 * d)
        g2 = (energy(a1, a2 + d) - energy(a1, a2 - d)) / (2 * d)
        assert_balance(y, spring_torques(state, params), 1e-12)
        assert y[3] == pytest.approx(g1, rel=1e-8, abs=1e-3)
        assert y[4] == pytest.approx(g2, rel=1e-8, abs=1e-3)


# ------------------------------------------------------- control vector fields

def test_f0_vanishes_at_rest_shape(params):
    f0, *_ = control_vector_fields(0.0, params.alpha0, params)
    np.testing.assert_array_equal(f0, np.zeros(5))


def test_f1_vanishes_straight(params):
    _, f1, *_ = control_vector_fields(0.0, 0.0, params)
    np.testing.assert_array_equal(f1, np.zeros(5))


def test_columns_solve_unit_systems(params):
    *_, x3, x4, x5 = control_vector_fields(0.4, -0.9, params)
    m = drag_matrix(0.4, -0.9, params)
    for k, col in ((2, x3), (3, x4), (4, x5)):
        e = np.zeros(5)
        e[k] = 1.0
        np.testing.assert_allclose(m @ col, e, atol=1e-12)


def test_fields_against_cofactor_inverse_oracle(params):
    rng = np.random.default_rng(23)
    for _ in range(25):
        a1, a2 = rng.uniform(-3.0, 3.0, 2)
        f0_got, f1_got, f2_got, x3, x4, x5 = control_vector_fields(a1, a2, params)
        minv = cofactor_inverse(drag_matrix(a1, a2, params))
        for got, col in ((x3, 2), (x4, 3), (x5, 4)):
            np.testing.assert_allclose(got, minv[:, col], rtol=1e-10, atol=1e-14)
        k, a0 = params.kappa, params.alpha0
        s1, c1 = math.sin(a1), math.cos(a1)
        s12, c12 = math.sin(a1 + a2), math.cos(a1 + a2)
        f0 = k * (a1 * minv[:, 3] + (a2 - a0) * minv[:, 4])
        f1 = (params.m2 * s1 + params.m3 * s12) * (minv[:, 2] + minv[:, 3]) \
            + params.m3 * s12 * minv[:, 4]
        f2 = -params.m1 * minv[:, 2] \
            - (params.m2 * c1 + params.m3 * c12) * (minv[:, 2] + minv[:, 3]) \
            - params.m3 * c12 * minv[:, 4]
        scale = max(1.0, float(np.abs(f2).max()))
        np.testing.assert_allclose(f0_got, f0, rtol=1e-9, atol=1e-9 * scale)
        np.testing.assert_allclose(f1_got, f1, rtol=1e-9, atol=1e-9 * scale)
        np.testing.assert_allclose(f2_got, f2, rtol=1e-9, atol=1e-9 * scale)


def test_f2_nonzero_at_bent_rest(params):
    _, _, f2, *_ = control_vector_fields(0.0, params.alpha0, params)
    assert np.linalg.norm(f2) > 1e-3


def test_columns_match_numpy_inverse_grid(params):
    pts = np.linspace(-math.pi + 0.01, math.pi - 0.01, 41)
    for a1 in pts:
        for a2 in pts:
            *_, x3, x4, x5 = control_vector_fields(a1, a2, params)
            want = np.linalg.inv(drag_matrix(a1, a2, params))[:, 2:]
            got = np.column_stack((x3, x4, x5))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_control_vector_fields_are_the_raw_fields_as_arrays(params):
    rng = np.random.default_rng(31)
    shapes = [(0.0, params.alpha0), (-0.0, -0.0), *rng.uniform(-3.1, 3.1, (200, 2))]
    for a1, a2 in shapes:
        got = control_vector_fields(a1, a2, params)
        want = dynamics._raw_fields(a1, a2, params)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.dtype == np.float64 and g.shape == (5,)
            assert [v.hex() for v in g.tolist()] == [float(v).hex() for v in w]


def test_singular_solve_raises():
    singular = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularMatrixError):
        lu_factor([row[:] for row in singular])


SINGULAR_BLOCKS = [
    # translation block P = M[0:2, 0:2] singular
    [[1.0, 1.0, 0.0, 0.0, 0.0],
     [1.0, 1.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 1.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0, 0.0],
     [0.0, 0.0, 0.0, 0.0, 1.0]],
    # P = I, but the Schur complement R - Q^T P^{-1} Q = diag(0, 1, 1)
    [[1.0, 0.0, 1.0, 0.0, 0.0],
     [0.0, 1.0, 0.0, 0.0, 0.0],
     [1.0, 0.0, 1.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0, 0.0],
     [0.0, 0.0, 0.0, 0.0, 1.0]],
]


def upper(m):
    """The flat upper triangle of a 5x5 matrix, as dynamics._drag_upper gives it."""
    return tuple(m[i][j] for i in range(5) for j in range(i, 5))


@pytest.mark.parametrize("m", SINGULAR_BLOCKS, ids=["translation_block", "schur_complement"])
def test_block_solve_singular_raises(m, params, monkeypatch):
    monkeypatch.setattr(dynamics, "_drag_upper", lambda *args: upper(m))
    with pytest.raises(SingularMatrixError, match=r"singular at shape \(0\.3, -0\.7\)"):
        dynamics._raw_fields(0.3, -0.7, params)


@pytest.mark.parametrize("m", SINGULAR_BLOCKS, ids=["translation_block", "schur_complement"])
def test_batched_guards_name_the_first_shape(m, params, monkeypatch):
    # shapes 2 and 3 of four get the bad matrix, the others the identity
    a1 = np.array([0.1, 0.3, 0.5, 0.7])
    a2 = np.array([-0.5, -0.7, -0.9, -1.1])
    bad = np.array([False, True, True, False])
    eye = np.eye(5)
    monkeypatch.setattr(dynamics, "_drag_upper", lambda *args: upper(
        [[np.where(bad, m[i][j], eye[i, j]) for j in range(5)] for i in range(5)]))
    with pytest.raises(SingularMatrixError, match=r"singular at shape \(0\.3, -0\.7\)"):
        dynamics._raw_fields(a1, a2, params, np)


@pytest.mark.parametrize("alpha0", [math.pi / 3, -1.0])
def test_batched_kernel_matches_scalar_grid(alpha0):
    """The array path of _raw_fields against its float path, 41x41 shapes.

    Both run the same arithmetic; numpy's sin/cos may differ from math's in
    the last bit on some CPUs, so entries agree to 1e-14 of their largest
    magnitude on the grid rather than exactly.
    """
    params = table1(alpha0)
    pts = np.linspace(-math.pi + 0.01, math.pi - 0.01, 41)
    a1, a2 = np.meshgrid(pts, pts, indexing="ij")
    batched = np.stack([np.broadcast_to(e, a1.shape)
                        for vec in dynamics._raw_fields(a1, a2, params, np) for e in vec],
                       axis=-1)
    scalar = np.array([[np.concatenate(dynamics._raw_fields(u, v, params)) for v in pts]
                       for u in pts])
    scale = np.abs(scalar).max(axis=(0, 1))
    assert (np.abs(batched - scalar) <= 1e-14 * scale).all()


# ------------------------------------------------------------ state derivative

def test_derivative_zero_at_equilibrium(params):
    st = equilibrium_state(params, x=2.0, y=-1.0, theta=0.7)
    np.testing.assert_array_equal(state_derivative(st, ZERO, params), np.zeros(5))


def test_derivative_translation_invariant(params):
    rng = np.random.default_rng(29)
    for _ in range(200):
        th = rng.uniform(-5, 5)
        a1, a2 = rng.uniform(-3.0, 3.0, 2)
        h = ControlField(*rng.uniform(-1e3, 1e3, 2))
        z1 = state_derivative(SwimmerState(0, 0, th, a1, a2), h, params)
        z2 = state_derivative(SwimmerState(13.0, -8.5, th, a1, a2), h, params)
        np.testing.assert_array_equal(z1, z2)


def test_derivative_rotation_equivariant(params):
    rng = np.random.default_rng(31)
    for _ in range(500):
        th = rng.uniform(-5, 5)
        phi = rng.uniform(-5, 5)
        a1, a2 = rng.uniform(-3.0, 3.0, 2)
        h = ControlField(*rng.uniform(-1e3, 1e3, 2))  # body components co-rotate
        z1 = state_derivative(SwimmerState(0, 0, th, a1, a2), h, params)
        z2 = state_derivative(SwimmerState(0, 0, th + phi, a1, a2), h, params)
        np.testing.assert_allclose(
            z2, rotation_block(phi) @ z1,
            atol=1e-12 * max(1.0, float(np.linalg.norm(z1))),
        )


def test_equilibrium_shape_is_unique(params):
    # away from (0, alpha0) the zero-field drift is nonzero
    pts = np.linspace(-math.pi + 0.05, math.pi - 0.05, 41)
    for a1 in pts:
        for a2 in pts:
            if math.hypot(a1, a2 - params.alpha0) <= 1e-6:
                continue
            z = state_derivative(SwimmerState(0, 0, 0, a1, a2), ZERO, params)
            assert np.linalg.norm(z) > 0.0


def test_open_loop_relaxation_to_bent_shape(params):
    a0 = params.alpha0

    def rhs(t, z):
        return list(
            state_derivative(SwimmerState(*z), ZERO, params)
        )

    opts = IntegratorOptions(method="trapezoidal_adaptive")
    res = integrate(rhs, [0, 0, 0, 0.3, a0 + 0.4], (0.0, 5e-4), opts)
    assert res.status == "completed"
    zf = res.z_final
    assert abs(zf[3]) < 1e-6
    assert abs(zf[4] - a0) < 1e-6


def test_shape_block_eigenvalues_stable():
    from bentswimmer.controllability import linearize

    for a0 in (math.pi / 6, math.pi / 3):
        p = table1(alpha0=a0)
        lin = linearize(equilibrium_state(p), p)
        block = lin.a[3:, 3:]
        eig = np.linalg.eigvals(block)
        assert (eig.real < 0.0).all()


def test_analytic_jacobian_matches_finite_differences(params):
    # Jacobian of the zero-field derivative at the rest shape
    from bentswimmer.controllability import linearize

    st = equilibrium_state(params, theta=0.9, x=3.0, y=-2.0)
    lin = linearize(st, params)

    def fun(z):
        return state_derivative(SwimmerState(*z), ZERO, params)

    jac = fd_jacobian(fun, np.array(astuple(st)), step=1e-6)
    scale = np.abs(lin.a).max()
    assert np.abs(jac - lin.a).max() / scale <= 1e-6
