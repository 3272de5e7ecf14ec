"""Outside-in tracing of bentswimmer's layers for the traced benchmark run.

Nothing in the program is edited. Wrappers are installed on the module
attributes that callers actually look up (the modules import each other's
functions by name, so `dynamics.lu_factor` and `integrators.lu_factor` are
separate boundaries), and removed again when the traced rounds end.

Hot boundaries, entered hundreds of thousands of times per case, are
aggregated in memory per (name, parent name): count, total time, self time
and a latency histogram with four buckets per octave. Coarse boundaries are
also kept as spans with ids and parent ids. A boundary's self time is its
duration minus the time spent in traced boundaries it called; time in
untraced helpers (model geometry, private tracking helpers) stays in the
caller's self time.

The layer of a boundary is the first component of its name.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

LAYERS = ("cli", "scenario", "tracking", "integrators", "dynamics", "linalg",
          "controllability", "records")

# (module, attribute, boundary name). The module is named relative to the
# bentswimmer package; the attribute is looked up by the callers in it.
FUNCTION_TARGETS = (
    ("cli", "load_scenario", "scenario.load"),
    ("cli", "run_scenario", "scenario.run"),
    ("scenario", "simulate_open_loop", "scenario.simulate_open_loop"),
    ("scenario", "simulate_closed_loop", "tracking.post"),
    ("scenario", "scan_determinant", "tracking.scan_determinant"),
    ("scenario", "tracking_determinant", "tracking.tracking_determinant"),
    ("tracking", "tracking_determinant", "tracking.tracking_determinant"),
    ("scenario", "_raw_state_derivative", "dynamics.state_derivative"),
    ("tracking", "_raw_fields", "dynamics.raw_fields"),
    ("controllability", "_raw_fields", "dynamics.raw_fields"),
    ("dynamics", "_raw_fields", "dynamics.raw_fields"),
    ("dynamics", "mobility_entries", "dynamics.mobility_entries"),
    ("dynamics", "lu_factor", "linalg.lu_factor.drag"),
    ("dynamics", "lu_det", "linalg.lu_det.drag"),
    ("dynamics", "lu_solve", "linalg.lu_solve.drag"),
    ("integrators", "lu_factor", "linalg.lu_factor.newton"),
    ("integrators", "lu_solve", "linalg.lu_solve.newton"),
    ("scenario", "linearize", "controllability.linearize"),
    ("scenario", "kalman_matrix", "controllability.kalman_matrix"),
    ("scenario", "partial_controllability", "controllability.partial_controllability"),
    ("scenario", "bent_submatrix_determinant", "controllability.closed_form"),
    ("scenario", "numeric_bent_submatrix_determinant", "controllability.numeric"),
    ("scenario", "write_csv", "records.write_csv"),
    ("tracking", "emit_lab_frame_controls", "records.emit_lab_frame_controls"),
)
# integrate() as looked up by each simulation module, and the name given to
# the right-hand side that module hands it.
INTEGRATE_TARGETS = (("tracking", "tracking.rhs"), ("scenario", "scenario.rhs"))
COARSE = frozenset({"case", "cli.main", "scenario.run", "integrators.integrate",
                    "records.write_csv"})
KEEP_LATENCIES = frozenset({"tracking.rhs"})


# Histogram buckets: four per octave of the duration in seconds. Index b
# covers [2^e (1/2 + q/8), 2^e (1/2 + (q+1)/8)) with (e, q) = divmod(b - HIST_OFFSET, 4).
HIST_OFFSET = 160
HIST_SIZE = 200


def bucket_bounds(index: int) -> tuple[float, float]:
    exponent, quarter = divmod(index - HIST_OFFSET, 4)
    return (math.ldexp(0.5 + quarter / 8.0, exponent),
            math.ldexp(0.5 + (quarter + 1) / 8.0, exponent))


class Tracer:
    """Aggregates and spans of one traced run; written out when the run ends."""

    def __init__(self):
        # (name, parent name) -> [count, total_s, self_s, bucket counts]
        self.aggregates: dict[tuple[str, str], list] = {}
        # [span id, parent span id, name, start_s, end_s]
        self.spans: list[list] = []
        self.latencies: dict[str, list[float]] = {n: [] for n in KEEP_LATENCIES}
        # frames: [name, child seconds, id of the nearest coarse span]
        self._stack: list[list] = [["<root>", 0.0, None]]
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn):
        stack, clock, frexp = self._stack, time.perf_counter, math.frexp
        by_parent: dict[str, list] = {}
        keep = self.latencies.get(name)
        coarse = name in COARSE
        spans, origin = self.spans, self._origin

        def aggregate(parent_name):
            # shared by every wrapper of this name, e.g. one rhs wrapper per integrate()
            agg = self.aggregates.setdefault((name, parent_name), [0, 0.0, 0.0, [0] * HIST_SIZE])
            by_parent[parent_name] = agg
            return agg

        def traced(*args, **kwargs):
            parent = stack[-1]
            if coarse:
                span_id = len(spans)
                spans.append([span_id, parent[2], name, 0.0, 0.0])
            else:
                span_id = parent[2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                parent[1] += elapsed
                agg = by_parent.get(parent[0]) or aggregate(parent[0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if elapsed > 0.0:
                    mantissa, exponent = frexp(elapsed)
                    agg[3][4 * exponent + int(mantissa * 8.0) + HIST_OFFSET - 4] += 1
                if keep is not None:
                    keep.append(elapsed)
                if coarse:
                    spans[span_id][3:] = (start - origin, end - origin)

        return traced

    @contextmanager
    def installed(self, package):
        """Install the wrappers on `package`'s modules; restore on exit."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        modules = {name: getattr(package, name) for name in
                   ("cli", "scenario", "tracking", "controllability", "dynamics",
                    "integrators")}
        try:
            for module, attr, name in FUNCTION_TARGETS:
                patch(modules[module], attr, self.wrap(name, getattr(modules[module], attr)))
            for module, rhs_name in INTEGRATE_TARGETS:
                patch(modules[module], "integrate",
                      self._traced_integrate(getattr(modules[module], "integrate"), rhs_name))
            result_cls = modules["integrators"].IntegrationResult
            patch(result_cls, "sample", self.wrap("integrators.sample", result_cls.sample))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _traced_integrate(self, integrate, rhs_name):
        traced = self.wrap("integrators.integrate", integrate)

        def integrate_with_traced_rhs(rhs, z0, t_span, opts=None):
            return traced(self.wrap(rhs_name, rhs), z0, t_span, opts)

        return integrate_with_traced_rhs

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of a boundary, summed over its parents."""
        calls = total = own = 0.0
        for (n, _), (count, tot, self_s, _) in self.aggregates.items():
            if n == name:
                calls += count
                total += tot
                own += self_s
        return int(calls), total, own

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (name, _), agg in self.aggregates.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += agg[2]
        return out

    def dump(self) -> dict:
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": a[0], "total_s": a[1], "self_s": a[2],
                 "histogram_s": [[*bucket_bounds(b), c] for b, c in enumerate(a[3]) if c]}
                for (n, p), a in sorted(self.aggregates.items())
            ],
            "spans": [dict(zip(("id", "parent", "name", "start_s", "end_s"), s))
                      for s in self.spans],
        }
