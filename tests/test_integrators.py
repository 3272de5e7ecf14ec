import dataclasses
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

from oracles import (hermite_sample, lu_factor_reference, lu_solve_reference,
                     ndf_reference, ndf_rescale)


def opts(method, **kw):
    return IntegratorOptions(method=method, **kw)


def test_options_validation():
    # a method and two tolerances; the step control is integrators.H_INIT,
    # H_MIN and MAX_STEPS
    assert [f.name for f in dataclasses.fields(IntegratorOptions)] == [
        "method", "abs_tol", "rel_tol"]
    with pytest.raises(ValueError):
        IntegratorOptions(method="rk4")
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be positive and finite"):
            IntegratorOptions(abs_tol=bad)
    # a bool is an int, but not a number: True is not a tolerance of 1.0
    for key in ("abs_tol", "rel_tol"):
        with pytest.raises(ValueError, match="must be positive and finite"):
            IntegratorOptions(**{key: True})
    # one number each: a sequence of per-component tolerances is rejected
    for bad in ((1e-9,) * 5, [1e-9] * 5):
        for key in ("abs_tol", "rel_tol"):
            with pytest.raises(ValueError, match="must be positive and finite"):
                IntegratorOptions(**{key: bad})
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
                     atol=o.abs_tol, rtol=o.rel_tol, first_step=integrators.H_INIT,
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
    z0 = [st.theta, st.alpha1, st.alpha2]
    span = (0.0, 0.05 * traj.horizon)
    rhs = tracking._closed_loop_rhs(p, traj)
    o = opts(METHOD_RK45)
    got = integrate(rhs, z0, span, o)
    assert got.n_steps > 50
    _assert_agrees_with_bdf(got, _bdf_reference(rhs, z0, span, o), o, 10.0)


def _smooth(t, z):
    return [math.cos(t) - z[0], z[0], -3.0 * z[2]]


def _logged_run(method=METHOD_RK45):
    """A clean run of _smooth, and the (t, z) of every rhs call in order."""
    log = []

    def rhs(t, z):
        log.append((t, list(z)))
        return _smooth(t, z)

    return integrate(rhs, [1.0, 0.0, 2.0], (0.0, 1.0), opts(method)), log


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
    assert len(got.f) == len(got.t) == got.n_steps + 1
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
        assert len(got.f) == len(got.t) == got.n_steps + 1
        np.testing.assert_array_equal(got.z, clean.z[:4])
        return
    assert got.status == STATUS_COMPLETED and got.n_rejected >= 1
    k = 1 if kind == "probe" else 4
    np.testing.assert_array_equal(got.z[:k], clean.z[:k])
    assert got.t[k] - got.t[k - 1] == pytest.approx((clean.t[k] - clean.t[k - 1]) / 2,
                                                    rel=1e-12)


def _ndf_runs(case, monkeypatch):
    """The integration results of one NDF case, in order."""
    from bentswimmer import scenario, tracking
    from bentswimmer.dynamics import equilibrium_state

    from conftest import table1

    z0 = [1.0, 0.0, 2.0]
    if case == "stiff_linear":
        return [integrate(_stiff_linear, [1.0, -0.5, 0.25, 2.0, -1.0], (0.0, 0.05),
                          opts(METHOD_RK45, abs_tol=1e-8, rel_tol=1e-8))]
    if case == "closed_loop_circle":
        p = table1()
        st = equilibrium_state(p)
        traj = tracking.circle_trajectory((st.x - 5.0, st.y), 5.0, 1200.0)
        return [integrate(tracking._closed_loop_rhs(p, traj), [st.theta, st.alpha1, st.alpha2],
                          (0.0, 0.25 * traj.horizon), opts(METHOD_RK45))]
    if case == "open_loop_pieces":
        # three strong pieces and a relaxation, one integrate() each
        p = table1()
        pieces = [(1.5e-4 * (k + 1), 1e4 * math.cos(a), 1e4 * math.sin(a))
                  for k, a in enumerate((0.3, 2.1, -1.2))] + [(9.5e-4, 0.0, 0.0)]
        runs = []

        def keep(*args):
            runs.append(integrate(*args))
            return runs[-1]

        monkeypatch.setattr(scenario, "integrate", keep)
        scenario.simulate_open_loop(equilibrium_state(p), scenario.FieldProgram(tuple(pieces)),
                                    p, opts(METHOD_RK45), samples=10)
        return runs
    if case == "outside_domain_everywhere":
        def rhs(t, z):
            if t > 0.0:
                raise OutsideDomain(f"t = {t}")
            return [-z[0]]

        return [integrate(rhs, [1.0], (0.0, 1.0), opts(METHOD_RK45))]
    if case == "step_collapse":
        monkeypatch.setattr(integrators, "H_MIN", 1e-6)
        monkeypatch.setattr(integrators, "H_INIT", 1e-3)
        return [integrate(lambda t, z: [1e12 * math.sin(1e9 * t)], [0.0], (0.0, 1.0),
                          opts(METHOD_RK45, abs_tol=1e-12, rel_tol=1e-12))]
    if case == "max_steps":
        monkeypatch.setattr(integrators, "MAX_STEPS", 5)
        return [integrate(_failing_at(1, OutsideDomain), z0, (0.0, 10.0), opts(METHOD_RK45))]
    # a signal, or OutsideDomain, at one call of a clean run of _smooth
    kind, signal = case.split("-")
    clean, log = _logged_run()
    signal = {"signal": IntegrationSignal, "outside": OutsideDomain}[signal]
    return [integrate(_failing_at(_trial_call(kind, clean, log), signal), z0, (0.0, 1.0),
                      opts(METHOD_RK45))]


@pytest.mark.parametrize("case", [
    "stiff_linear", "closed_loop_circle", "open_loop_pieces", "outside_domain_everywhere",
    "step_collapse", "max_steps",
    *(f"{kind}-{signal}" for kind in ("probe", "predictor", "newton", "node")
      for signal in ("signal", "outside")),
])
def test_ndf_matches_the_reference_step_loop(case, monkeypatch):
    # the NDF's arithmetic is pinned: the step loop with one resize block per
    # step change (oracles.ndf_reference) keeps the same nodes, slopes, status
    # and counts, bit for bit
    got = _ndf_runs(case, monkeypatch)
    monkeypatch.setattr(integrators, "_integrate_ndf", ndf_reference)
    want = _ndf_runs(case, monkeypatch)
    assert len(got) == len(want) >= 1
    for g, w in zip(got, want):
        assert (g.status, g.n_steps, g.n_rejected, g.n_evals) == (
            w.status, w.n_steps, w.n_rejected, w.n_evals)
        for name in ("t", "z", "f"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


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


def _bits(values):
    # float.hex tells -0.0 from 0.0, and every last bit
    return [v.hex() for v in values]


@pytest.mark.parametrize("n", range(1, 7))
def test_lu_solve_matches_the_generic_loops_bit_for_bit(n):
    # lu_solve, whatever path it takes at this size, keeps the generic
    # loops' operation order (oracles.lu_solve_reference): the same bits,
    # signed zeros included, on matrices that need row swaps
    rng = np.random.default_rng(n)
    negative_zeros = 0
    for trial in range(40):
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
        a[np.diag_indices(n)] *= 1e-3  # small pivots: rows are swapped
        if trial % 4 == 0:
            a = np.where(rng.random((n, n)) < 0.3, rng.choice([0.0, -0.0], (n, n)), a)
            a[np.diag_indices(n)] = rng.integers(1, 4, n)
        a = a.tolist()
        got_a, want_a = [row[:] for row in a], [row[:] for row in a]
        try:
            factored = integrators.lu_factor(got_a)
        except integrators.SingularMatrixError:
            with pytest.raises(integrators.SingularMatrixError):
                lu_factor_reference(want_a)
            continue
        assert factored == lu_factor_reference(want_a)
        assert [_bits(r) for r in got_a] == [_bits(r) for r in want_a]
        perm = factored[0]
        for b in (rng.standard_normal(n).tolist(), [0.0] * n, [-0.0] * n,
                  rng.choice([0.0, -0.0, 1.0, -2.0], n).tolist()):
            got = integrators.lu_solve(got_a, perm, b)
            assert _bits(got) == _bits(lu_solve_reference(want_a, perm, b))
            negative_zeros += sum(math.copysign(1.0, v) < 0.0 for v in got if v == 0.0)
    assert negative_zeros > 0


@pytest.mark.parametrize("order", range(1, 6))
def test_rescale_matches_the_full_sums_bit_for_bit(order):
    # _rescale skips the exact zeros of U = R(1) and keeps every other
    # operation of the full sums (oracles.ndf_rescale), to the last bit
    rng = np.random.default_rng(order)
    t1, t, h = 0.004, 0.004 - 2.6e-7, 1.1e-7  # the ratio that ends a span
    for factor in (0.2, 0.5, 10.0, float(rng.uniform(0.2, 10.0)), (t1 - t) / h):
        for n in (1, 3, 5):
            D = (rng.standard_normal((8, n)) * 10.0 ** rng.integers(-12, 3, (8, n))).tolist()
            D[1][0] = -0.0
            got, want = [row[:] for row in D], [row[:] for row in D]
            integrators._rescale(got, order, factor)
            ndf_rescale(want, order, factor)
            assert [_bits(r) for r in got] == [_bits(r) for r in want]
            assert got[order + 1:] == D[order + 1:] and got[0] == D[0]


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_outside_domain_everywhere_past_the_start(method):
    # the NDF halves h per rejected attempt until h < H_MIN
    # (1e-7 / 2^24 < 1e-14); LSODA ends at its first probe
    def rhs(t, z):
        if t > 0.0:
            raise OutsideDomain(f"t = {t}")
        return [-z[0]]

    got = integrate(rhs, [1.0], (0.0, 1.0), opts(method))
    assert got.n_steps == 0 and got.t_stop == 0.0
    assert len(got.f) == len(got.t) == got.n_steps + 1
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
    # between nodes the cubic Hermite interpolant of sin is off by at most
    # h^4 max|sin''''| / 384 = h^4 / 384 on an interval of length h; atol
    # covers the error of the nodes themselves
    res = integrate(lambda t, z: [math.cos(t)], [0.0], (0.0, 3.0), opts(method))
    ts = np.linspace(0.1, 2.9, 37)
    vals = res.sample(ts)[:, 0]
    i = np.searchsorted(res.t, ts, side="right") - 1
    h = res.t[i + 1] - res.t[i]
    assert (np.abs(vals - np.sin(ts)) <= h ** 4 / 384 + atol).all()


def test_sample_matches_per_row_oracle():
    # nodes 2-3 repeat a time, as where open-loop pieces join, and so do the
    # last two, which makes the final interval zero-length
    rng = np.random.default_rng(11)
    t = np.array([0.0, 0.4, 1.0, 1.0, 1.7, 2.5, 2.5])
    z = rng.normal(size=(t.size, 3))
    f = rng.normal(size=(t.size, 3))
    times = np.concatenate([rng.uniform(-0.5, 3.0, 300), t, [-1.0, 3.0]])
    for n in (t.size, 1):
        res = IntegrationResult(STATUS_COMPLETED, t[:n], z[:n], f[:n])
        assert res.t_stop == t[n - 1]
        np.testing.assert_array_equal(res.sample(times),
                                      hermite_sample(t[:n], z[:n], f[:n], times))
    # a time on the joint takes the later piece; the end takes the earlier node
    res = IntegrationResult(STATUS_COMPLETED, t, z, f)
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
    assert len(res.f) == len(res.t) == res.n_steps + 1
    assert res.t_stop <= 0.3 + 1e-12
    assert abs(res.z_final[0] - res.t_stop) < 1e-9  # partial solution kept


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_signal_at_a_node_keeps_only_nodes_with_their_own_slope(method):
    # the signal comes at the slope of the fourth step's new node, the last
    # call at that node (the NDF makes 2 there, LSODA 1): the run must end
    # at the third node, every kept node with its own slope
    clean, log = _logged_run(method)
    node = clean.t[4], clean.z[4].tolist()
    index = max(i for i, call in enumerate(log) if call == node)
    res = integrate(_failing_at(index, IntegrationSignal), [1.0, 0.0, 2.0], (0.0, 1.0),
                    opts(method))
    assert res.status == STATUS_SIGNAL
    assert len(res.t) == len(res.z) == len(res.f) == res.n_steps + 1 == 4
    assert res.n_evals == index
    assert res.t_stop == res.t[-1]
    for name in ("t", "z", "f"):
        np.testing.assert_array_equal(getattr(res, name), getattr(clean, name)[:4])
    for t, z, f in zip(res.t, res.z, res.f):
        assert list(f) == _smooth(float(t), list(z))


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_signal_at_the_first_slope_keeps_the_start_alone(method):
    # no node has its own slope yet: the start is kept with a zero slope
    res = integrate(_failing_at(0, IntegrationSignal), [1.0, 0.0, 2.0], (0.0, 1.0),
                    opts(method))
    assert res.status == STATUS_SIGNAL and type(res.signal) is IntegrationSignal
    assert (res.n_steps, res.n_rejected, res.n_evals) == (0, 0, 0)
    assert res.t.tolist() == [0.0] and res.t_stop == 0.0
    assert res.z.tolist() == [[1.0, 0.0, 2.0]] and res.f.tolist() == [[0.0] * 3]


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_TRAPEZOIDAL])
def test_step_collapse_reported(method, monkeypatch):
    # force h below H_MIN via an error estimate that never passes
    def rhs(t, z):
        return [1e12 * math.sin(1e9 * t)]

    monkeypatch.setattr(integrators, "H_MIN", 1e-6)
    monkeypatch.setattr(integrators, "H_INIT", 1e-3)
    res = integrate(rhs, [0.0], (0.0, 1.0), opts(method, abs_tol=1e-12, rel_tol=1e-12))
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
def test_max_steps_reported(method, monkeypatch):
    # MAX_STEPS counts accepted steps in both methods: the NDF's first
    # predictor (the second rhs call) leaves the domain, and the rejected
    # attempt does not count
    monkeypatch.setattr(integrators, "MAX_STEPS", 5)
    rhs = _failing_at(1, OutsideDomain) if method == METHOD_RK45 else _smooth
    res = integrate(rhs, [1.0, 0.0, 2.0], (0.0, 10.0), opts(method))
    assert res.status == STATUS_MAX_STEPS
    assert res.t_stop < 10.0
    assert res.n_steps == integrators.MAX_STEPS and len(res.t) == integrators.MAX_STEPS + 1
    assert res.n_rejected == (1 if method == METHOD_RK45 else 0)


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
    # nothing else may pay it: the NDF, scans, controllability, scenario
    # loading (every shipped file) and waypoint splines need no scipy module
    # at all
    script = """
import sys
import bentswimmer
from bentswimmer.dynamics import equilibrium_state
from bentswimmer.integrators import IntegratorOptions
from bentswimmer.model import SwimmerParams
from bentswimmer.scenario import load_scenario
from bentswimmer.tracking import (line_trajectory, scan_determinant, simulate_closed_loop,
                                  waypoint_trajectory)

p = SwimmerParams.from_table_units(
    ell_um=10.0, eta_N_s_m2=12.4e-3, xi_N_s_m2=6.2e-3, m1_A_um2=1.6, m2_A_um2=2.4,
    m3_A_um2=3.2, kappa_N_um=8.3e-7, alpha0_rad=1.0)
line = line_trajectory((0.0, 0.0), 0.0, 50.0, 0.001)
waypoints = waypoint_trajectory([0.0, 0.0005, 0.001], [0.0, 0.02, 0.05], [0.0, 0.005, 0.0])
def run(traj, method):
    return simulate_closed_loop(equilibrium_state(p), traj, p,
                                IntegratorOptions(method=method), samples=5)
for path in sys.argv[1:]:
    load_scenario(path)
run(line, "adaptive_explicit_rk45")
print(run(waypoints, "adaptive_explicit_rk45")[1]["termination"])
scan_determinant(p, 5)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
run(line, "trapezoidal_adaptive")
print("scipy.integrate" in sys.modules)
"""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, sorted((root / "scenarios").glob("*.json")))],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["completed", "[]", "True"]


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
    assert s1["termination"] == s2["termination"] == "completed"
    gap = np.abs(rec1.data[-1][1:6] - rec2.data[-1][1:6]).max()
    assert gap <= 2e-6
