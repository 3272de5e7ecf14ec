"""Microbenchmarks of the kernel entry points, on seeded shapes.

Each function is warmed up, then timed one call at a time; the report is
the p50 and p99 of the per-call times in microseconds and the sample count.
Shapes are drawn uniformly from the open square (-pi, pi)^2, kept 0.1 rad
away from the straight shape where the tracking solve is undefined.
"""
from __future__ import annotations

import math
import random
import statistics
import time

SAMPLES = 2000
CHAIN_SAMPLES = 300
WARMUP_FRACTION = 10
EDGE = 0.01


def _shapes(rng: random.Random, n: int) -> list[tuple[float, float]]:
    out = []
    while len(out) < n:
        a1, a2 = (rng.uniform(-math.pi + EDGE, math.pi - EDGE) for _ in range(2))
        if math.hypot(a1, a2) > 0.1:
            out.append((a1, a2))
    return out


def _time_calls(fn, arg_lists) -> dict:
    warm = max(1, len(arg_lists) // WARMUP_FRACTION)
    for args in arg_lists[:warm]:
        fn(*args)
    clock = time.perf_counter_ns
    samples = []
    for args in arg_lists:
        start = clock()
        fn(*args)
        samples.append(clock() - start)
    cuts = statistics.quantiles(samples, n=100)
    return {"p50": cuts[49] / 1e3, "p99": cuts[98] / 1e3, "n": len(samples)}


def run(seed: int, table_params: dict) -> dict:
    """{metric prefix: {"p50", "p99", "n"}} for the four kernels."""
    from bentswimmer.controllability import (
        bent_submatrix_determinant,
        kalman_matrix,
        linearize,
        numeric_bent_submatrix_determinant,
        partial_controllability,
    )
    from bentswimmer.dynamics import control_vector_fields, equilibrium_state, state_derivative
    from bentswimmer.model import ControlField, SwimmerParams, SwimmerState
    from bentswimmer.tracking import solve_tracking_controls

    rng = random.Random(f"micro:{seed}")
    params = SwimmerParams.from_table_units(**table_params)
    shapes = _shapes(rng, SAMPLES)
    states = [SwimmerState(rng.uniform(-20, 20), rng.uniform(-20, 20),
                           rng.uniform(-math.pi, math.pi), a1, a2) for a1, a2 in shapes]
    fields = [ControlField(rng.uniform(-2e4, 2e4), rng.uniform(-2e4, 2e4))
              for _ in shapes]
    demands = [(rng.uniform(-300, 300), rng.uniform(-300, 300)) for _ in shapes]
    rest = [SwimmerParams.from_table_units(**dict(
        table_params,
        alpha0_rad=rng.choice((-1.0, 1.0)) * rng.uniform(math.pi / 8, 2 * math.pi / 5)))
        for _ in range(CHAIN_SAMPLES)]

    def chain(p):
        verdict = partial_controllability(kalman_matrix(linearize(equilibrium_state(p), p)), 2)
        return (verdict, bent_submatrix_determinant(p.alpha0, p),
                numeric_bent_submatrix_determinant(p.alpha0, p))

    return {
        "dynamics.fields_us": _time_calls(
            control_vector_fields, [(a1, a2, params) for a1, a2 in shapes]),
        "dynamics.state_derivative_us": _time_calls(
            state_derivative, [(s, f, params) for s, f in zip(states, fields)]),
        "tracking.solve_tracking_controls_us": _time_calls(
            solve_tracking_controls, [(s, fp, gp, params) for s, (fp, gp) in zip(states, demands)]),
        "controllability.check_us": _time_calls(chain, [(p,) for p in rest]),
    }
