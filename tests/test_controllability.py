import math

import numpy as np
import pytest

from bentswimmer.controllability import (
    bent_submatrix_determinant,
    kalman_matrix,
    linearize,
    numeric_bent_submatrix_determinant,
    partial_controllability,
)
from bentswimmer.dynamics import equilibrium_state
from bentswimmer.model import SwimmerParams, SwimmerState

from conftest import table1

SWEEP = [
    math.pi / 6, -math.pi / 6,
    math.pi / 4, -math.pi / 4,
    math.pi / 3, -math.pi / 3,
    2 * math.pi / 5, -2 * math.pi / 5,
]


def test_linearize_rejects_non_equilibrium(params):
    with pytest.raises(ValueError):
        linearize(SwimmerState(0, 0, 0, 0.1, params.alpha0), params)
    with pytest.raises(ValueError):
        linearize(SwimmerState(0, 0, 0, 0.0, params.alpha0 + 0.05), params)


def test_linearize_first_three_columns_zero():
    p = table1(alpha0=math.pi / 4)
    lin = linearize(equilibrium_state(p), p)
    np.testing.assert_array_equal(lin.a[:, :3], np.zeros((5, 3)))


def test_linearize_translation_invariance(params):
    lin0 = linearize(equilibrium_state(params), params)
    lin1 = linearize(equilibrium_state(params, x=3.0, y=-2.0), params)
    np.testing.assert_array_equal(lin0.a, lin1.a)
    np.testing.assert_array_equal(lin0.b, lin1.b)


def test_kalman_zero_a_gives_padded_b(params):
    lin = linearize(equilibrium_state(params), params)
    lin_zero = type(lin)(a=np.zeros((5, 5)), b=lin.b, equilibrium=lin.equilibrium)
    k = kalman_matrix(lin_zero)
    np.testing.assert_array_equal(k[:, :2], lin.b)
    np.testing.assert_array_equal(k[:, 2:], np.zeros((5, 8)))


def test_kalman_block_recurrence():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 2))
    lin = linearize(equilibrium_state(table1()), table1())
    k = kalman_matrix(type(lin)(a=a, b=b, equilibrium=lin.equilibrium))
    for j in range(1, 5):
        np.testing.assert_allclose(
            k[:, 2 * j: 2 * j + 2], a @ k[:, 2 * (j - 1): 2 * j], rtol=1e-13
        )


def test_kalman_first_two_rows_rank_two():
    p = table1(alpha0=math.pi / 3)
    k = kalman_matrix(linearize(equilibrium_state(p), p))
    assert np.linalg.matrix_rank(k[:2]) == 2


def test_partial_controllability_bent():
    p = table1(alpha0=math.pi / 4)
    res = partial_controllability(kalman_matrix(linearize(equilibrium_state(p), p)), 2)
    assert res.controllable and res.rank == 2


def test_partial_controllability_straight_fails_by_zero_row():
    p = table1(alpha0=0.0)
    lin = linearize(equilibrium_state(p), p)
    k = kalman_matrix(lin)
    np.testing.assert_array_equal(lin.b[0], np.zeros(2))
    np.testing.assert_array_equal(k[0], np.zeros(10))
    res = partial_controllability(k, 2)
    assert not res.controllable
    assert res.rank == 1


def test_partial_controllability_full_rank_random():
    rng = np.random.default_rng(43)
    while True:
        k = rng.normal(size=(5, 10))
        if np.linalg.matrix_rank(k) == 5:
            break
    res = partial_controllability(k, 5)
    assert res.controllable and res.rank == 5


def test_partial_controllability_p_out_of_range(params):
    k = kalman_matrix(linearize(equilibrium_state(params), params))
    with pytest.raises(ValueError):
        partial_controllability(k, 0)
    with pytest.raises(ValueError):
        partial_controllability(k, 6)


def test_closed_form_zero_at_zero_rest_angle(params):
    assert bent_submatrix_determinant(0.0, params) == 0.0


def test_closed_form_sign_opposite_to_rest_angle(params):
    for a0 in (math.pi / 6, math.pi / 3, 2 * math.pi / 5):
        assert bent_submatrix_determinant(a0, params) < 0.0
        assert bent_submatrix_determinant(-a0, params) > 0.0


def test_closed_form_matches_numeric_up_to_sign(params):
    # central cross-validation: |ratio| = 1 to 1e-8; the constant -1 comes
    # from the opposite elastic-sign convention of the closed form
    ratios = []
    for a0 in SWEEP:
        closed = bent_submatrix_determinant(a0, params)
        numeric = numeric_bent_submatrix_determinant(a0, params)
        ratios.append(numeric / closed)
    for r in ratios:
        assert abs(r + 1.0) <= 1e-8
    assert max(ratios) - min(ratios) <= 1e-8  # constant across the sweep


def test_denominator_positivity(params):
    xi, eta = params.xi, params.eta
    for a0 in np.linspace(-math.pi, math.pi, 81):
        c2 = math.cos(2 * a0)
        assert eta**2 + 34 * eta * xi + 28 * xi**2 > (
            eta**2 - 11 * eta * xi + 28 * xi**2
        ) * c2
        assert eta**2 + 19 * eta * xi + 7 * xi**2 > (
            eta**2 - 8 * eta * xi + 7 * xi**2
        ) * c2


def test_sweep_random_parameter_sets():
    # 20 rest angles x 5 parameter sets: position rows always controllable
    # and the closed form keeps agreeing with the numeric value up to -1
    rng = np.random.default_rng(47)
    rest_angles = [a for a in np.linspace(-3.0, 3.0, 21) if abs(a) > 1e-9]
    assert len(rest_angles) == 20
    for _ in range(5):
        xi = rng.uniform(2e-3, 2e-2)
        p_kwargs = dict(
            ell=rng.uniform(4.0, 25.0),
            xi=xi,
            eta=xi * rng.uniform(1.3, 3.0),
            m1=rng.uniform(0.5, 4.0),
            m2=rng.uniform(0.5, 4.0),
            m3=rng.uniform(0.5, 4.0),
            kappa=rng.uniform(1e5, 1e6),
        )
        for a0 in rest_angles:
            p = SwimmerParams(alpha0=a0, **p_kwargs)
            res = partial_controllability(
                kalman_matrix(linearize(equilibrium_state(p), p)), 2
            )
            assert res.controllable, (a0, p_kwargs)
            closed = bent_submatrix_determinant(a0, p)
            numeric = numeric_bent_submatrix_determinant(a0, p)
            if abs(numeric) > 1e-20:
                assert abs(numeric / closed + 1.0) <= 1e-8
