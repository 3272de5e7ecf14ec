import math

import numpy as np
import pytest

from bentswimmer.model import (
    SwimmerParams,
    SwimmerState,
    joint_points,
    rotation_block,
    segment_frames,
)
from bentswimmer.records import CSV_COLUMNS, SimRecord, emit_lab_frame_controls

from conftest import table1


def test_params_validation():
    with pytest.raises(ValueError):
        table1(alpha0=math.pi)  # rest angle must be interior to (-pi, pi)
    with pytest.raises(ValueError):
        SwimmerParams(ell=-1.0, xi=1.0, eta=2.0, m1=1, m2=1, m3=1, kappa=1, alpha0=0.5)
    with pytest.raises(ValueError):
        SwimmerParams(ell=1.0, xi=0.0, eta=2.0, m1=1, m2=1, m3=1, kappa=1, alpha0=0.5)


def test_params_unit_conversion():
    p = table1()
    assert p.ell == 10.0
    assert p.xi == 6.2e-3 and p.eta == 12.4e-3  # 1 N s/m^2 == 1 pN s/um^2
    assert p.kappa == 8.3e5  # 8.3e-7 N um -> pN um
    echo = p.table_units()
    assert echo["kappa_N_um"] == pytest.approx(8.3e-7, rel=1e-15)


def test_params_from_table_units_takes_exactly_the_eight_keys():
    keys = ["ell_um", "eta_N_s_m2", "xi_N_s_m2", "m1_A_um2", "m2_A_um2", "m3_A_um2",
            "kappa_N_um", "alpha0_rad"]
    echo = table1().table_units()
    assert list(echo) == keys
    assert SwimmerParams.from_table_units(**echo) == table1()
    missing = dict(echo)
    del missing["kappa_N_um"]
    with pytest.raises(TypeError, match="kappa_N_um"):
        SwimmerParams.from_table_units(**missing)
    with pytest.raises(TypeError, match="kappa_N_m"):
        SwimmerParams.from_table_units(**missing, kappa_N_m=8.3e-13)
    with pytest.raises(TypeError, match="gamma_rad"):
        SwimmerParams.from_table_units(**echo, gamma_rad=0.0)


def test_state_validation():
    with pytest.raises(ValueError):
        SwimmerState(0, 0, 0, math.pi, 0.0)
    with pytest.raises(ValueError):
        SwimmerState(0, 0, 0, 0.0, -math.pi)
    s = SwimmerState(1, 2, 7.5, 0.1, -0.2)  # theta unwrapped, > pi allowed
    assert s.theta == 7.5


def test_frames_aligned_swimmer(params):
    f1, f2, f3 = segment_frames(SwimmerState(0, 0, 0, 0, 0), params)
    for f in (f1, f2, f3):
        np.testing.assert_allclose(f.tangent, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(f1.origin, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(f2.origin, [10.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(f3.origin, [20.0, 0.0], atol=1e-15)


def test_frames_last_joint_bent(params):
    a0 = params.alpha0
    _, _, f3 = segment_frames(SwimmerState(0, 0, 0, 0, a0), params)
    np.testing.assert_allclose(f3.tangent, [math.cos(a0), math.sin(a0)], atol=1e-15)


def test_frames_generic_state_hand_evaluated(params):
    # state (1, 2, pi/2, pi/4, -pi/3): cumulative angles pi/2, 3pi/4, 5pi/12
    s = SwimmerState(1.0, 2.0, math.pi / 2, math.pi / 4, -math.pi / 3)
    f1, f2, f3 = segment_frames(s, params)
    ell = params.ell
    o2 = (1.0 + ell * math.cos(math.pi / 2), 2.0 + ell * math.sin(math.pi / 2))
    o3 = (o2[0] + ell * math.cos(3 * math.pi / 4), o2[1] + ell * math.sin(3 * math.pi / 4))
    np.testing.assert_allclose(f2.origin, o2, atol=1e-12)
    np.testing.assert_allclose(f3.origin, o3, atol=1e-12)
    np.testing.assert_allclose(
        f3.tangent, [math.cos(5 * math.pi / 12), math.sin(5 * math.pi / 12)], atol=1e-12
    )
    tip = joint_points(s, params)[3]
    np.testing.assert_allclose(
        tip,
        [o3[0] + ell * math.cos(5 * math.pi / 12), o3[1] + ell * math.sin(5 * math.pi / 12)],
        atol=1e-12,
    )


def test_frames_orthonormal_and_chained(params):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x, y = rng.uniform(-50, 50, 2)
        th = rng.uniform(-10, 10)
        a1, a2 = rng.uniform(-3.1, 3.1, 2)
        state = SwimmerState(x, y, th, a1, a2)
        f1, f2, f3 = segment_frames(state, params)
        for f in (f1, f2, f3):
            assert abs(np.linalg.norm(f.tangent) - 1.0) < 1e-12
            assert abs(f.tangent @ f.normal) < 1e-12
            # normal is tangent rotated by +pi/2
            np.testing.assert_allclose(
                f.normal, [-f.tangent[1], f.tangent[0]], atol=1e-15
            )
        np.testing.assert_allclose(
            f3.origin - f2.origin, params.ell * f2.tangent, atol=1e-12
        )


def test_rotation_block_identity():
    np.testing.assert_array_equal(rotation_block(0.0), np.eye(5))


def test_rotation_block_quarter_turn():
    r = rotation_block(math.pi / 2)
    np.testing.assert_allclose(r[:2, :2] @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)
    np.testing.assert_array_equal(r[2:, 2:], np.eye(3))


def test_rotation_block_inverse():
    r = rotation_block(0.7) @ rotation_block(-0.7)
    np.testing.assert_allclose(r, np.eye(5), atol=1e-15)


def test_control_field_round_trip():
    # the lab-frame image of a run's body-frame field rotates back by -theta
    rng = np.random.default_rng(11)
    data = np.zeros((1000, len(CSV_COLUMNS)))
    data[:, CSV_COLUMNS.index("theta")] = th = rng.uniform(-12, 12, 1000)
    data[:, CSV_COLUMNS.index("h_par")] = hp = rng.uniform(-1e4, 1e4, 1000)
    data[:, CSV_COLUMNS.index("h_perp")] = hq = rng.uniform(-1e4, 1e4, 1000)
    rec = emit_lab_frame_controls(SimRecord(data=data))
    hx, hy = rec.column("h_x"), rec.column("h_y")
    c, s = np.cos(th), np.sin(th)
    assert (np.abs(c * hx + s * hy - hp) < 1e-12 * np.maximum(1.0, np.abs(hp))).all()
    assert (np.abs(-s * hx + c * hy - hq) < 1e-12 * np.maximum(1.0, np.abs(hq))).all()
    # rotation preserves the norm
    assert (np.abs(np.hypot(hx, hy) - np.hypot(hp, hq)) < 1e-9).all()
