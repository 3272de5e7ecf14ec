import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bentswimmer.integrators import (
    METHOD_RK45,
    METHOD_TRAPEZOIDAL,
    REL_TOL_MIN,
    STATUS_COMPLETED,
    STATUS_MAX_STEPS,
    STATUS_SIGNAL,
    STATUS_STEP_COLLAPSE,
    IntegrationResult,
    IntegrationSignal,
    IntegratorOptions,
    OutsideDomain,
    integrate,
)
from bentswimmer.integrators import _RK_A, _RK_B, _RK_C5, _RK_ERR

from oracles import hermite_sample, rk45_reference


def opts(method, **kw):
    return IntegratorOptions(method=method, **kw)


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(method="rk4")
    with pytest.raises(ValueError):
        IntegratorOptions(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(h_min=1e-3, h_init=1e-6)
    for bad in ({"h_init": math.inf}, {"h_min": math.inf}, {"h_init": math.nan}):
        with pytest.raises(ValueError, match="must be positive and finite"):
            IntegratorOptions(**bad)
    IntegratorOptions(h_max=math.inf)
    with pytest.raises(ValueError):
        IntegratorOptions(max_steps=0)
    with pytest.raises(ValueError, match="rel_tol"):
        IntegratorOptions(rel_tol=0.99 * REL_TOL_MIN)
    IntegratorOptions(rel_tol=REL_TOL_MIN)


def test_tableau_consistency_exact():
    # row sums equal the nodes; weights satisfy the quadrature conditions
    a = [Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(12, 13),
         Fraction(1), Fraction(1, 2)]
    b = [
        [],
        [Fraction(1, 4)],
        [Fraction(3, 32), Fraction(9, 32)],
        [Fraction(1932, 2197), Fraction(-7200, 2197), Fraction(7296, 2197)],
        [Fraction(439, 216), Fraction(-8), Fraction(3680, 513), Fraction(-845, 4104)],
        [Fraction(-8, 27), Fraction(2), Fraction(-3544, 2565),
         Fraction(1859, 4104), Fraction(-11, 40)],
    ]
    c5 = [Fraction(16, 135), Fraction(0), Fraction(6656, 12825),
          Fraction(28561, 56430), Fraction(-9, 50), Fraction(2, 55)]
    err = [Fraction(1, 360), Fraction(0), Fraction(-128, 4275),
           Fraction(-2197, 75240), Fraction(1, 50), Fraction(2, 55)]
    for i in range(6):
        assert sum(b[i], Fraction(0)) == a[i]
    for p in range(1, 6):
        assert sum(c * q ** (p - 1) for c, q in zip(c5, a)) == Fraction(1, p)
    # and the floating-point tables match the exact ones
    for exact, used in ((a, _RK_A), (c5, _RK_C5), (err, _RK_ERR)):
        for fe, fu in zip(exact, used):
            assert float(fe) == fu
    for row_e, row_u in zip(b, _RK_B):
        assert [float(v) for v in row_e] == list(row_u)


def _assert_same_run(got, want):
    assert (got.status, got.t_stop, got.n_steps, got.n_rejected, got.n_evals) == (
        want.status, want.t_stop, want.n_steps, want.n_rejected, want.n_evals)
    for name in ("t", "z", "f"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert type(got.signal) is type(want.signal)


def _stiff_linear(t, z):
    # eigenvalues -1, -10, -1e2, -1e3, -1e4, coupled downwards, forced
    return [
        -z[0] + math.sin(t),
        z[0] - 10.0 * z[1],
        z[1] - 1e2 * z[2],
        z[2] - 1e3 * z[3],
        z[3] - 1e4 * z[4] + 1.0,
    ]


def test_rk45_matches_reference_on_a_stiff_linear_system():
    o = opts(METHOD_RK45, abs_tol=1e-8, rel_tol=1e-8)
    z0 = [1.0, -0.5, 0.25, 2.0, -1.0]
    got = integrate(_stiff_linear, z0, (0.0, 0.05), o)
    assert got.status == STATUS_COMPLETED and got.n_rejected > 0
    _assert_same_run(got, rk45_reference(_stiff_linear, z0, (0.0, 0.05), o))


def test_rk45_matches_reference_on_a_closed_loop_circle():
    from bentswimmer import tracking
    from bentswimmer.dynamics import equilibrium_state

    from conftest import table1

    p = table1()
    st = equilibrium_state(p)
    traj = tracking.circle_trajectory((st.x - 5.0, st.y), 5.0, 1200.0)
    z0 = [st.x, st.y, st.theta, st.alpha1, st.alpha2]
    span = (0.0, 0.05 * traj.horizon)
    runs = []
    for integrator in (integrate, rk45_reference):
        rhs = tracking._closed_loop_rhs(p, traj, tracking.DEFAULT_EPS_D)
        runs.append(integrator(rhs, z0, span, opts(METHOD_RK45)))
    assert runs[0].status == STATUS_COMPLETED and runs[0].n_steps > 50
    _assert_same_run(*runs)


@pytest.mark.parametrize("stage", [1, 2, 3, 4, 5, 6],
                         ids=["stage1", "stage2", "stage3", "stage4", "stage5", "node"])
def test_rk45_signal_matches_reference(stage):
    # calls: the initial slope, then five stages and the new node's slope per
    # accepted step; the signal comes in the fourth step's attempt
    def make_rhs():
        calls = [0]

        def rhs(t, z):
            calls[0] += 1
            if calls[0] == 1 + 3 * 6 + stage:
                raise IntegrationSignal(f"call {calls[0]}")
            return [math.cos(t) - z[0], z[0], -3.0 * z[2]]

        return rhs

    z0 = [1.0, 0.0, 2.0]
    got = integrate(make_rhs(), z0, (0.0, 1.0), opts(METHOD_RK45))
    assert got.status == STATUS_SIGNAL
    assert (got.n_steps, got.n_rejected, got.n_evals) == (3, 0, 3 * 6 + stage)
    _assert_same_run(got, rk45_reference(make_rhs(), z0, (0.0, 1.0), opts(METHOD_RK45)))


@pytest.mark.parametrize("stage", [1, 2, 3, 4, 5, 6],
                         ids=["stage1", "stage2", "stage3", "stage4", "stage5", "node"])
def test_rk45_outside_domain_matches_reference(stage):
    # the same call count as above: a trial stage outside the domain rejects
    # the fourth step's attempt and the run goes on with a shorter step; at a
    # node the run ends there
    def make_rhs():
        calls = [0]

        def rhs(t, z):
            calls[0] += 1
            if calls[0] == 1 + 3 * 6 + stage:
                raise OutsideDomain(f"call {calls[0]}")
            return [math.cos(t) - z[0], z[0], -3.0 * z[2]]

        return rhs

    z0 = [1.0, 0.0, 2.0]
    got = integrate(make_rhs(), z0, (0.0, 1.0), opts(METHOD_RK45))
    if stage == 6:
        assert got.status == STATUS_SIGNAL and isinstance(got.signal, OutsideDomain)
        assert (got.n_steps, got.n_rejected) == (3, 0)
    else:
        assert got.status == STATUS_COMPLETED and got.n_rejected >= 1
    _assert_same_run(got, rk45_reference(make_rhs(), z0, (0.0, 1.0), opts(METHOD_RK45)))


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_outside_domain_everywhere_past_the_start(method):
    # RK45 shrinks by _SHRINK_MIN per rejected attempt until h < h_min
    # (1e-7 * 0.2^11 < 1e-14); the stiff method ends at its first probe
    def rhs(t, z):
        if t > 0.0:
            raise OutsideDomain(f"t = {t}")
        return [-z[0]]

    got = integrate(rhs, [1.0], (0.0, 1.0), opts(method))
    assert got.n_steps == 0 and got.t_stop == 0.0
    if method == METHOD_RK45:
        assert (got.status, got.n_rejected) == (STATUS_STEP_COLLAPSE, 11)
        _assert_same_run(got, rk45_reference(rhs, [1.0], (0.0, 1.0), opts(method)))
    else:
        assert got.status == STATUS_SIGNAL and isinstance(got.signal, OutsideDomain)


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_zero_rhs_exactly_constant(method):
    z0 = [1.25, -3.5, 0.7]
    res = integrate(lambda t, z: [0.0, 0.0, 0.0], z0, (0.0, 2.0), opts(method))
    assert res.status == STATUS_COMPLETED
    np.testing.assert_array_equal(res.z_final, z0)
    np.testing.assert_array_equal(res.z, np.tile(z0, (len(res.t), 1)))


def test_exponential_decay_rk45():
    res = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 1.0), opts(METHOD_RK45))
    assert res.status == STATUS_COMPLETED
    assert abs(res.z_final[0] - math.exp(-1.0)) < 1e-8


def test_exponential_decay_trapezoidal():
    # the stiff solver controls the local error per step, so the endpoint
    # error is not bounded by the tolerance itself
    res = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 1.0), opts(METHOD_TRAPEZOIDAL))
    assert res.status == STATUS_COMPLETED
    assert abs(res.z_final[0] - math.exp(-1.0)) < 1e-5


@pytest.mark.parametrize("method,floor", [(METHOD_RK45, 1e-13), (METHOD_TRAPEZOIDAL, 1e-9)])
def test_convergence_with_tolerance(method, floor):
    errors = []
    tol = 1e-5
    for _ in range(6):
        o = IntegratorOptions(method=method, abs_tol=tol, rel_tol=tol)
        res = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 1.0), o)
        errors.append(max(abs(res.z_final[0] - math.exp(-1.0)), floor))
        tol /= 2.0
    for a, b in zip(errors, errors[1:]):
        assert b <= 4.0 * a  # monotone within a factor-4 noise band
    assert errors[-1] < errors[0]


@pytest.mark.parametrize("method,atol", [(METHOD_RK45, 1e-6), (METHOD_TRAPEZOIDAL, 1e-5)])
def test_dense_output_cubic_hermite(method, atol):
    # cap the step so the between-node Hermite error (~ h^4 |z''''| / 384)
    # stays below the asserted tolerance
    o = IntegratorOptions(method=method, h_max=0.05)
    res = integrate(lambda t, z: [math.cos(t)], [0.0], (0.0, 3.0), o)
    ts = np.linspace(0.1, 2.9, 37)
    vals = res.sample(ts)[:, 0]
    np.testing.assert_allclose(vals, np.sin(ts), atol=atol)


def test_sample_matches_per_row_oracle():
    # nodes 2-3 repeat a time, as where open-loop pieces join, and so do the
    # last two, which makes the final interval zero-length
    rng = np.random.default_rng(11)
    t = np.array([0.0, 0.4, 1.0, 1.0, 1.7, 2.5, 2.5])
    z = rng.normal(size=(t.size, 3))
    f = rng.normal(size=(t.size, 3))
    times = np.concatenate([rng.uniform(-0.5, 3.0, 300), t, [-1.0, 3.0]])
    for n in (t.size, 1):
        res = IntegrationResult(STATUS_COMPLETED, t[:n], z[:n], f[:n], t_stop=t[n - 1])
        np.testing.assert_array_equal(res.sample(times),
                                      hermite_sample(t[:n], z[:n], f[:n], times))
    # a time on the joint takes the later piece; the end takes the earlier node
    res = IntegrationResult(STATUS_COMPLETED, t, z, f, t_stop=2.5)
    np.testing.assert_array_equal(res.sample([1.0, 2.5]), z[[3, 5]])


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_determinism_bitwise(method):
    def rhs(t, z):
        return [math.sin(3 * t) - 0.5 * z[0], z[0] - z[1]]

    r1 = integrate(rhs, [1.0, 0.0], (0.0, 1.5), opts(method))
    r2 = integrate(rhs, [1.0, 0.0], (0.0, 1.5), opts(method))
    np.testing.assert_array_equal(r1.z, r2.z)
    np.testing.assert_array_equal(r1.t, r2.t)


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_signal_terminates_early_not_failure(method):
    class Wall(IntegrationSignal):
        pass

    def rhs(t, z):
        if t > 0.3:
            raise Wall("hit the wall")
        return [1.0]

    res = integrate(rhs, [0.0], (0.0, 1.0), opts(method))
    assert res.status == STATUS_SIGNAL
    assert isinstance(res.signal, Wall)
    assert res.t_stop <= 0.3 + 1e-12
    assert abs(res.z_final[0] - res.t_stop) < 1e-9  # partial solution kept


def test_signal_at_a_node_keeps_only_nodes_with_their_own_slope():
    # call 1 is the initial slope, calls 2-6 the stages of the first step and
    # call 7 the slope at its new node: the run must end at the initial node
    def rhs(t, z):
        return [math.cos(t) - z[0], z[0]]

    calls = [0]

    def failing(t, z):
        calls[0] += 1
        if calls[0] == 7:
            raise IntegrationSignal("at the node")
        return rhs(t, z)

    res = integrate(failing, [1.0, 0.0], (0.0, 1.0), opts(METHOD_RK45))
    assert res.status == STATUS_SIGNAL
    assert len(res.t) == len(res.z) == len(res.f)
    assert res.t_stop == res.t[-1]
    for t, z, f in zip(res.t, res.z, res.f):
        assert list(f) == rhs(float(t), list(z))


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_step_collapse_reported(method):
    # force h below h_min via an error estimate that never passes
    def rhs(t, z):
        return [1e12 * math.sin(1e9 * t)]

    o = IntegratorOptions(method=method, h_min=1e-6, h_init=1e-3, abs_tol=1e-12,
                          rel_tol=1e-12)
    res = integrate(rhs, [0.0], (0.0, 1.0), o)
    assert res.status == STATUS_STEP_COLLAPSE


@pytest.mark.parametrize("method,rhs,atol,rtol", [
    # the smallest valid rel_tol with a negligible abs_tol still asks for more
    # accuracy than doubles hold: LSODA reports a failed step
    (METHOD_TRAPEZOIDAL, lambda t, z: [-z[0]], 1e-30, REL_TOL_MIN),
    # NaN passes both error tests
    (METHOD_TRAPEZOIDAL, lambda t, z: [math.nan], 1e-9, 1e-9),
    (METHOD_RK45, lambda t, z: [math.nan], 1e-9, 1e-9),
], ids=["excess_accuracy", "non_finite", "non_finite_rk45"])
def test_stiff_solver_failure_is_step_collapse(method, rhs, atol, rtol):
    o = IntegratorOptions(method=method, abs_tol=atol, rel_tol=rtol)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = integrate(rhs, [1.0], (0.0, 2.0), o)
    assert res.status == STATUS_STEP_COLLAPSE
    assert np.isfinite(res.z).all() and res.t_stop < 2.0
    assert not [w for w in caught if str(w.message).startswith("lsoda")]


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_max_steps_reported(method):
    o = IntegratorOptions(method=method, max_steps=5)
    res = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 10.0), o)
    assert res.status == STATUS_MAX_STEPS
    assert res.t_stop < 10.0


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_n_evals_counts_every_rhs_call(method):
    calls = [0]

    def rhs(t, z):
        calls[0] += 1
        return [math.sin(3 * t) - 0.5 * z[0], z[0] - 1e3 * z[1]]

    res = integrate(rhs, [1.0, 0.0], (0.0, 1.5), opts(method))
    assert res.status == STATUS_COMPLETED
    assert res.n_evals == calls[0] > res.n_steps


def test_scipy_integrate_loaded_by_stiff_runs_only():
    # the stiff solver's import costs ~0.7 s cold, so nothing else may pay it
    script = """
import sys
import bentswimmer
from bentswimmer.dynamics import equilibrium_state
from bentswimmer.integrators import IntegratorOptions
from bentswimmer.model import SwimmerParams
from bentswimmer.tracking import line_trajectory, scan_determinant, simulate_closed_loop

p = SwimmerParams.from_table_units(
    ell_um=10.0, eta_N_s_m2=12.4e-3, xi_N_s_m2=6.2e-3, m1_A_um2=1.6, m2_A_um2=2.4,
    m3_A_um2=3.2, kappa_N_um=8.3e-7, alpha0_rad=1.0)
traj = line_trajectory((0.0, 0.0), 0.0, 50.0, 0.001)
def run(method):
    simulate_closed_loop(equilibrium_state(p), traj, p, IntegratorOptions(method=method),
                         samples=5)
run("adaptive_explicit_rk45")
scan_determinant(p, 5)
print("scipy.integrate" in sys.modules)
run("trapezoidal_adaptive")
print("scipy.integrate" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["False", "True"]


def test_methods_agree_on_smooth_problem():
    # endpoint agreement at 10x the (loose) tolerance on a smooth scalar test
    o1 = IntegratorOptions(method=METHOD_RK45, abs_tol=1e-10, rel_tol=1e-10)
    o2 = IntegratorOptions(method=METHOD_TRAPEZOIDAL, abs_tol=1e-10, rel_tol=1e-10)
    r1 = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 0.01), o1)
    r2 = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 0.01), o2)
    assert abs(r1.z_final[0] - r2.z_final[0]) <= 10 * 1e-10


def test_invalid_span():
    with pytest.raises(ValueError):
        integrate(lambda t, z: [0.0], [0.0], (1.0, 0.5))


def test_methods_agree_on_swimmer_relaxation():
    # zero-field relaxation with both methods: final shapes to 1e-6, whole
    # endpoint to 2e-6 (both control the local error per step, so their
    # endpoints need not agree to 10x the tolerance)
    from bentswimmer.dynamics import state_derivative
    from bentswimmer.model import ControlField, SwimmerState

    from conftest import table1

    p = table1()

    def rhs(t, z):
        return list(
            state_derivative(SwimmerState(*z), ControlField(0, 0), p)
        )

    z0 = [0.0, 0.0, 0.0, 0.3, p.alpha0 + 0.4]
    r1 = integrate(rhs, z0, (0.0, 5e-4), opts(METHOD_RK45))
    r2 = integrate(rhs, z0, (0.0, 5e-4), opts(METHOD_TRAPEZOIDAL))
    assert r1.status == STATUS_COMPLETED and r2.status == STATUS_COMPLETED
    shape_gap = max(
        abs(r1.z_final[3] - r2.z_final[3]), abs(r1.z_final[4] - r2.z_final[4])
    )
    assert shape_gap <= 1e-6
    assert float(np.abs(r1.z_final - r2.z_final).max()) <= 2e-6


def test_methods_agree_on_short_tracking_run():
    from bentswimmer.dynamics import equilibrium_state
    from bentswimmer.tracking import line_trajectory, simulate_closed_loop

    from conftest import table1

    p = table1()
    st = equilibrium_state(p)
    traj = line_trajectory((0.0, 0.0), 0.0, 50.0, 0.01)
    rec1, s1 = simulate_closed_loop(st, traj, p, opts(METHOD_RK45), samples=20)
    rec2, s2 = simulate_closed_loop(st, traj, p, opts(METHOD_TRAPEZOIDAL), samples=20)
    assert s1.outcome == s2.outcome == "completed"
    gap = np.abs(rec1.data[-1][1:6] - rec2.data[-1][1:6]).max()
    assert gap <= 2e-6
