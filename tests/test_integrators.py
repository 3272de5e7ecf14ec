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
from bentswimmer import integrators

from oracles import hermite_sample


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


def _ndf_residual(k, kappa, p, dp):
    """The order-k NDF residual
    sum_{m<=k} (1/m) nabla^m y - h y' - kappa gamma_k nabla^(k+1) y
    at t = 0 on the unit grid 0, -1, ..., -(k+1), for the values p(t) and
    the slope dp at 0, in exact arithmetic."""
    def nabla(m):
        return sum(((-1) ** i * math.comb(m, i) * p(-i) for i in range(m + 1)), Fraction(0))

    gamma = sum((Fraction(1, m) for m in range(1, k + 1)), Fraction(0))
    return (sum(Fraction(1, m) * nabla(m) for m in range(1, k + 1))
            - dp - kappa * gamma * nabla(k + 1))


def test_tableau_consistency_exact():
    # Shampine & Reichelt's NDF coefficients, exactly: order k reproduces
    # polynomials of degree <= k, its residual on t^(k+1) is -(k+1)! times
    # the error constant, and its weight on the new value is alpha
    kappa = [Fraction(0), Fraction("-0.1850"), Fraction(-1, 9), Fraction("-0.0823"),
             Fraction("-0.0415"), Fraction(0)]
    eps = sys.float_info.epsilon
    for k in range(1, 6):
        gamma = sum((Fraction(1, m) for m in range(1, k + 1)), Fraction(0))
        alpha = (1 - kappa[k]) * gamma
        error_const = kappa[k] * gamma + Fraction(1, k + 1)
        for d in range(k + 1):
            assert _ndf_residual(k, kappa[k], lambda t, d=d: Fraction(t) ** d,
                                 d if d == 1 else 0) == 0
        assert (_ndf_residual(k, kappa[k], lambda t: Fraction(t) ** (k + 1), 0)
                == -math.factorial(k + 1) * error_const)
        assert _ndf_residual(k, kappa[k], lambda t: Fraction(t == 0), 0) == alpha
        # the floating-point tables are the exact values, rounded
        assert integrators._KAPPA[k] == float(kappa[k])
        for exact, used in ((gamma, integrators._GAMMA[k]), (alpha, integrators._ALPHA[k]),
                            (error_const, integrators._ERROR_CONST[k])):
            assert abs(used - float(exact)) <= 4 * eps * abs(float(exact))
        # U = R(1): its columns are the signed binomials, and U U = I
        u = integrators._U_COLS[k]
        for j in range(k + 1):
            assert list(u[j]) == [(-1) ** i * math.comb(j, i) for i in range(k + 1)]
        for i in range(k + 1):
            for j in range(k + 1):
                assert sum(u[m][i] * u[j][m] for m in range(k + 1)) == (i == j)


def _stiff_linear(t, z):
    # eigenvalues -1, -10, -1e2, -1e3, -1e4, coupled downwards, forced
    return [
        -z[0] + math.sin(t),
        z[0] - 10.0 * z[1],
        z[1] - 1e2 * z[2],
        z[2] - 1e3 * z[3],
        z[3] - 1e4 * z[4] + 1.0,
    ]


def _bdf_reference(rhs, z0, span, o):
    from scipy.integrate import solve_ivp

    return solve_ivp(lambda t, y: rhs(t, y.tolist()), span, z0, method="BDF",
                     atol=o.abs_tol, rtol=o.rel_tol, first_step=o.h_init,
                     dense_output=True)


def _assert_agrees_with_bdf(got, want, o, factor):
    # the same NDF formulas and step control as scipy's BDF; the Jacobians
    # differ (scipy refines its difference quotients), so the step counts
    # and states agree to within a few tolerances, not bit for bit
    assert got.status == STATUS_COMPLETED and want.status == 0
    assert abs(got.n_steps - (want.t.size - 1)) <= 0.1 * (want.t.size - 1)
    ref = want.sol(got.t).T
    gap = np.abs(got.z - ref) / (o.abs_tol + o.rel_tol * np.abs(ref))
    assert gap.max() <= factor


def test_rk45_matches_reference_on_a_stiff_linear_system():
    # adaptive_explicit_rk45 runs the NDF; the reference is scipy's BDF
    o = opts(METHOD_RK45, abs_tol=1e-8, rel_tol=1e-8)
    z0 = [1.0, -0.5, 0.25, 2.0, -1.0]
    got = integrate(_stiff_linear, z0, (0.0, 0.05), o)
    want = _bdf_reference(_stiff_linear, z0, (0.0, 0.05), o)
    assert got.n_steps > 200
    _assert_agrees_with_bdf(got, want, o, 1e-3)


def test_rk45_matches_reference_on_a_closed_loop_circle():
    # the NDF behind adaptive_explicit_rk45 against scipy's BDF
    from bentswimmer import tracking
    from bentswimmer.dynamics import equilibrium_state

    from conftest import table1

    p = table1()
    st = equilibrium_state(p)
    traj = tracking.circle_trajectory((st.x - 5.0, st.y), 5.0, 1200.0)
    z0 = [st.x, st.y, st.theta, st.alpha1, st.alpha2]
    span = (0.0, 0.05 * traj.horizon)
    rhs = tracking._closed_loop_rhs(p, traj, tracking.DEFAULT_EPS_D)
    o = opts(METHOD_RK45)
    got = integrate(rhs, z0, span, o)
    assert got.n_steps > 50
    _assert_agrees_with_bdf(got, _bdf_reference(rhs, z0, span, o), o, 10.0)


def _smooth(t, z):
    return [math.cos(t) - z[0], z[0], -3.0 * z[2]]


def _logged_run():
    """A clean run of _smooth, and the (t, z) of every rhs call in order."""
    log = []

    def rhs(t, z):
        log.append((t, list(z)))
        return _smooth(t, z)

    return integrate(rhs, [1.0, 0.0, 2.0], (0.0, 1.0), opts(METHOD_RK45)), log


def _trial_call(kind, clean, log):
    """Index of the call of the given kind: the first Jacobian probe (made
    in the first step), or the predictor, a later Newton iterate or the new
    node's slope in the fourth step."""
    if kind == "probe":
        return 2  # after the initial slope and the first predictor
    calls = [i for i, (t, _) in enumerate(log) if t == clean.t[4]]
    # that step reuses the first step's Jacobian: no probes at its time
    assert len(calls) == 3 and log[calls[-1]][1] == clean.z[4].tolist()
    return {"predictor": calls[0], "newton": calls[1], "node": calls[-1]}[kind]


def _failing_at(index, signal):
    calls = [0]

    def rhs(t, z):
        calls[0] += 1
        if calls[0] == index + 1:
            raise signal(f"call {calls[0]}")
        return _smooth(t, z)

    return rhs


@pytest.mark.parametrize("kind", ["probe", "predictor", "newton", "node"])
def test_rk45_signal_matches_reference(kind):
    # a signal at a trial state or a node's slope ends the run at the last
    # node, with every node kept matching the clean reference run
    clean, log = _logged_run()
    assert clean.status == STATUS_COMPLETED
    got = integrate(_failing_at(_trial_call(kind, clean, log), IntegrationSignal),
                    [1.0, 0.0, 2.0], (0.0, 1.0), opts(METHOD_RK45))
    kept = 1 if kind == "probe" else 4
    assert got.status == STATUS_SIGNAL and type(got.signal) is IntegrationSignal
    assert (got.n_steps, got.n_rejected) == (kept - 1, 0)
    for name in ("t", "z", "f"):
        np.testing.assert_array_equal(getattr(got, name), getattr(clean, name)[:kept])


@pytest.mark.parametrize("kind", ["probe", "predictor", "newton", "node"])
def test_rk45_outside_domain_matches_reference(kind):
    # a trial state outside the domain rejects its step, which is retried at
    # half the length; at a node the run ends there
    clean, log = _logged_run()
    got = integrate(_failing_at(_trial_call(kind, clean, log), OutsideDomain),
                    [1.0, 0.0, 2.0], (0.0, 1.0), opts(METHOD_RK45))
    if kind == "node":
        assert got.status == STATUS_SIGNAL and isinstance(got.signal, OutsideDomain)
        assert (got.n_steps, got.n_rejected) == (3, 0)
        np.testing.assert_array_equal(got.z, clean.z[:4])
        return
    assert got.status == STATUS_COMPLETED and got.n_rejected >= 1
    k = 1 if kind == "probe" else 4
    np.testing.assert_array_equal(got.z[:k], clean.z[:k])
    assert got.t[k] - got.t[k - 1] == pytest.approx((clean.t[k] - clean.t[k - 1]) / 2,
                                                    rel=1e-12)


def test_newton_solves_go_through_the_module_globals(monkeypatch):
    # the benchmark tracer counts linalg.*.newton by wrapping these attributes
    calls = {"lu_factor": 0, "lu_solve": 0}
    for name in calls:
        original = getattr(integrators, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(integrators, name, counted)
    res = integrate(_stiff_linear, [1.0, -0.5, 0.25, 2.0, -1.0], (0.0, 0.05),
                    opts(METHOD_RK45))
    assert res.status == STATUS_COMPLETED
    assert 0 < calls["lu_factor"] < calls["lu_solve"] < res.n_evals


def test_per_component_tolerances():
    with pytest.raises(ValueError, match="positive and finite"):
        IntegratorOptions(abs_tol=(1e-9, 0.0))
    with pytest.raises(ValueError, match="rel_tol"):
        IntegratorOptions(rel_tol=(1e-9, 0.5 * REL_TOL_MIN))
    with pytest.raises(ValueError, match="2 tolerances for a state of dimension 3"):
        integrate(_smooth, [1.0, 0.0, 2.0], (0.0, 1.0), opts(METHOD_RK45, abs_tol=(1e-9, 1e-9)))
    # a tuple of equal tolerances is the scalar; a tighter tolerance on a
    # quadrature component (as x and y are in closed loop) tightens its error
    def rhs(t, z):
        return [math.cos(t) - z[0], math.cos(3.0 * t), -3.0 * z[2]]

    runs = [integrate(rhs, [1.0, 0.0, 2.0], (0.0, 1.0), opts(METHOD_RK45, abs_tol=atol))
            for atol in (1e-6, (1e-6,) * 3, (1e-6, 1e-9, 1e-6))]
    np.testing.assert_array_equal(runs[1].z, runs[0].z)
    errors = [abs(r.z_final[1] - math.sin(3.0) / 3.0) for r in runs]
    assert errors[2] < 1e-2 * errors[0]


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_outside_domain_everywhere_past_the_start(method):
    # the NDF halves h per rejected attempt until h < h_min
    # (1e-7 / 2^24 < 1e-14); LSODA ends at its first probe
    def rhs(t, z):
        if t > 0.0:
            raise OutsideDomain(f"t = {t}")
        return [-z[0]]

    got = integrate(rhs, [1.0], (0.0, 1.0), opts(method))
    assert got.n_steps == 0 and got.t_stop == 0.0
    if method == METHOD_RK45:
        # each attempt ends at its predictor: one evaluation, no probe
        assert (got.status, got.n_rejected, got.n_evals) == (STATUS_STEP_COLLAPSE, 24, 1)
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
    # the signal comes at the slope of the fourth step's new node: the run
    # must end at the third node, every kept node with its own slope
    clean, log = _logged_run()
    res = integrate(_failing_at(_trial_call("node", clean, log), IntegrationSignal),
                    [1.0, 0.0, 2.0], (0.0, 1.0), opts(METHOD_RK45))
    assert res.status == STATUS_SIGNAL
    assert len(res.t) == len(res.z) == len(res.f) == 4
    assert res.t_stop == res.t[-1]
    for t, z, f in zip(res.t, res.z, res.f):
        assert list(f) == _smooth(float(t), list(z))


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
    # LSODA's import costs ~0.7 s cold and ~47 MiB of peak memory, so
    # nothing else may pay it: the NDF, scans and controllability need none
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
