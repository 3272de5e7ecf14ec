"""The benchmark (perfbench/) reaches into the package by attribute name.

Its traced run wraps module attributes that callers look up, and its
microbenchmarks call kernel entry points directly. A refactor that drops or
renames one of those names must fail here, not crash the benchmark. So must
one that keeps a name but stops calling through it: the hook then reads 0
while every case stays correct.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import bentswimmer
import bentswimmer.cli
from bentswimmer import tracking
from bentswimmer.dynamics import equilibrium_state
from bentswimmer.integrators import METHOD_RK45, IntegratorOptions

from conftest import table1

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_install_and_restore():
    tracer = _load("tracer")
    targets = [(getattr(bentswimmer, module), attr)
               for module, attr, _ in tracer.FUNCTION_TARGETS]
    targets += [(getattr(bentswimmer, module), "integrate")
                for module, _ in tracer.INTEGRATE_TARGETS]
    targets.append((bentswimmer.integrators.IntegrationResult, "sample"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    with tracer.Tracer().installed(bentswimmer):
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr


# Per workload, the hooks its cases must pass through: a `.calls` name reads
# the boundary's count, a `.self_s` name its self time, and
# `controllability.self_s` the controllability layer's self time.
LIVE_HOOKS = {
    "track": ["tracking.rhs.calls", "dynamics.raw_fields.calls",
              "linalg.lu_factor.newton.calls", "linalg.lu_solve.newton.calls",
              "integrators.sample.calls", "tracking.post.self_s"],
    "stiff": ["scenario.rhs.calls", "scenario.simulate_open_loop.self_s",
              "tracking.rhs.calls", "tracking.tracking_determinant.calls",
              "integrators.sample.calls"],
    "sweep": ["tracking.scan_determinant.self_s", "tracking.tracking_determinant.calls",
              "controllability.self_s"],
}


@pytest.mark.parametrize("workload", sorted(LIVE_HOOKS))
def test_each_workloads_live_hooks_read_nonzero(workload, tmp_path):
    tracer_module, cases = _load("tracer"), _load("cases")
    case_list = cases.generate(workload, 1)
    paths = cases.write(case_list, tmp_path / "cases")
    tracer = tracer_module.Tracer()
    with tracer.installed(bentswimmer):
        for case, path in zip(case_list, paths):
            bentswimmer.cli.main([case["command"], str(path), "--output-dir",
                                  str(tmp_path / case["name"])])

    def value(name):
        if name == "controllability.self_s":
            return tracer.layer_self()["controllability"]
        hook, kind = name.rsplit(".", 1)
        calls, _, self_s = tracer.totals(hook)
        return calls if kind == "calls" else self_s

    assert [name for name in LIVE_HOOKS[workload] if not value(name)] == []


def test_microbenchmarks_run():
    micro = _load("micro")
    cases = _load("cases")
    report = micro.run(1, cases.TABLE1)
    assert set(report) == {
        "dynamics.fields_us",
        "dynamics.state_derivative_us",
        "tracking.solve_tracking_controls_us",
        "controllability.check_us",
    }
    for stats in report.values():
        assert stats["n"] > 0 and stats["p50"] > 0.0


def test_raw_fields_hook_counts_every_closed_loop_evaluation(monkeypatch):
    # the tracer's dynamics.raw_fields counter wraps tracking._raw_fields by
    # attribute, so every right-hand-side evaluation must look it up there
    calls = {"float": 0, "array": 0}
    original = tracking._raw_fields

    def counted(*args, **kwargs):
        calls["array" if isinstance(args[0], np.ndarray) else "float"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tracking, "_raw_fields", counted)
    p = table1()
    traj = tracking.line_trajectory((0.0, 0.0), 0.0, 50.0, 0.001)
    record, report = tracking.simulate_closed_loop(
        equilibrium_state(p), traj, p, IntegratorOptions(method=METHOD_RK45), samples=5)
    assert report["termination"] == tracking.OUTCOME_COMPLETED
    n_evals = report["integrator"]["n_evals"]
    # batched calls: one for the fields over the output samples, one for the
    # diagnostics over the accepted nodes (fewer than one chunk of them)
    assert report["integrator"]["n_steps"] < tracking._BATCH_STATES
    assert calls == {"float": n_evals, "array": 2} and n_evals > 6
