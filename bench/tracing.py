"""Layer trace for the benchmark: spans around the calls into each module.

The wrappers replace names in the importing module's namespace (the names
each module imports from the layer below), so the program itself is not
modified and no span is recorded inside a layer. Spans are kept in memory
as ``(name, start, end, parent, trial)`` tuples; counters are accumulated at
the same boundaries. A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# Per-layer metrics, in output order: (name, unit, better).
PER_LAYER = [
    ("harness.trial_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("corruption.realize_s", "s", "lower"),
    ("model.consolidate_calls", "count", "lower"),
    ("model.consolidate_s", "s", "lower"),
    ("median.candidates_s", "s", "lower"),
    ("median.pool_size", "count", "lower"),
    ("median.refine_s", "s", "lower"),
    ("depth.battery_calls", "count", "lower"),
    ("depth.battery_dirs", "count", "lower"),
    ("depth.battery_s", "s", "lower"),
    ("depth.scorer_builds", "count", "lower"),
    ("depth.scorer_build_s", "s", "lower"),
    ("depth.scorer_bytes", "B", "lower"),
    ("depth.scorer_calls", "count", "lower"),
    ("depth.scorer_points", "count", "lower"),
    ("depth.scorer_points_per_call", "count", "higher"),
    ("depth.scorer_score_s", "s", "lower"),
    ("depth.sweep2d_calls", "count", "lower"),
    ("depth.sweep2d_s", "s", "lower"),
    ("depth.sweep2d_bytes", "B", "lower"),
    ("depth.oracle_calls", "count", "lower"),
    ("depth.oracle_s", "s", "lower"),
    ("optimize.searches", "count", "lower"),
    ("optimize.probes", "count", "lower"),
    ("optimize.objective_calls", "count", "lower"),
    ("optimize.self_s", "s", "lower"),
    ("optimize.improving_frac", "frac", "higher"),
    ("projection.estimate_s", "s", "lower"),
    ("projection.evaluations", "count", "lower"),
    ("projection.align_evals", "count", "lower"),
    ("projection.objective_s", "s", "lower"),
    ("projection.objective_s_per_probe", "s", "lower"),
    ("metrics.normal_cdf_calls", "count", "lower"),
    ("metrics.normal_cdf_elements", "count", "lower"),
    ("metrics.normal_cdf_s", "s", "lower"),
    ("metrics.bounds_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# Span name -> per-layer metric that reports the span's total duration.
_TOTAL_S = {
    "harness.trial": "harness.trial_s",
    "corruption.realize": "corruption.realize_s",
    "model.consolidate": "model.consolidate_s",
    "median.candidates": "median.candidates_s",
    "median.refine": "median.refine_s",
    "depth.battery": "depth.battery_s",
    "depth.scorer_build": "depth.scorer_build_s",
    "depth.scorer_score": "depth.scorer_score_s",
    "depth.sweep2d": "depth.sweep2d_s",
    "depth.oracle": "depth.oracle_s",
    "projection.estimate": "projection.estimate_s",
    "projection.objective": "projection.objective_s",
    "metrics.normal_cdf": "metrics.normal_cdf_s",
    "metrics.bounds": "metrics.bounds_s",
}
# Span name -> per-layer metric that reports the span's self time.
_SELF_S = {
    "harness.trial": "harness.self_s",
    "optimize.search": "optimize.self_s",
}


class Tracer:
    """Installs span wrappers on the program's modules while active."""

    def __init__(self, hs):
        self.hs = hs                       # namespace of imported halfspace modules
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.trial = -1
        self._stack: list[int] = []
        self._saved: list = []

    # -- span recording --

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``, a child of the open span."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.trial)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(result, *args, **kwargs)
            return result
        return traced

    def _add(self, key, value=1):
        self.counts[key] += value

    # -- installation --

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        hs = self.hs
        harness, median, depth, projection = hs.harness, hs.median, hs.depth, hs.projection
        add = self._add

        def pool(res, *a, **k):
            add("median.pool_size", res.candidate_count)

        for owner in (harness, projection):
            self._patch(owner, "median_candidates",
                        self.wrap("median.candidates", owner.median_candidates, pool))
        self._patch(harness, "median_refine",
                    self.wrap("median.refine", harness.median_refine))
        self._patch(harness, "realize_trial",
                    self.wrap("corruption.realize", harness.realize_trial))
        self._patch(harness, "project_estimate",
                    self.wrap("projection.estimate", harness.project_estimate,
                              lambda res, *a, **k: add("projection.evaluations",
                                                       res.evaluations)))
        for fn_name in ("epsilon_tilde", "bias_bound_tv", "bias_bound_additive",
                        "bias_bound_projection"):
            self._patch(harness, fn_name, self.wrap("metrics.bounds", getattr(harness, fn_name)))

        def battery(dirs, *a, **k):
            add("depth.battery_calls")
            add("depth.battery_dirs", len(dirs))

        for owner in (median, projection):
            self._patch(owner, "direction_battery",
                        self.wrap("depth.battery", owner.direction_battery, battery))
        self._patch(median, "BatteryScorer", self._scorer_class(median.BatteryScorer))
        self._patch(median, "compute_depth", self.wrap("depth.compute", median.compute_depth))
        self._patch(depth, "depth_2d_sweep",
                    self.wrap("depth.sweep2d", depth.depth_2d_sweep,
                              lambda res, p, mu: (add("depth.sweep2d_calls"),
                                                  add("depth.sweep2d_bytes",
                                                      9 * p.size * 2 * p.size))))
        self._patch(depth, "depth_oracle",
                    self.wrap("depth.oracle", depth.depth_oracle,
                              lambda res, *a, **k: add("depth.oracle_calls")))
        self._patch(median, "pattern_search_min",
                    self._search(median.pattern_search_min, "median.objective"))
        self._patch(projection, "pattern_search_min",
                    self._search(projection.pattern_search_min, "projection.objective"))
        self._patch(projection, "normal_cdf",
                    self.wrap("metrics.normal_cdf", projection.normal_cdf,
                              lambda res, x: (add("metrics.normal_cdf_calls"),
                                              add("metrics.normal_cdf_elements", np.size(x)))))
        model_cls = hs.model.WeightedPointSet
        self._patch(model_cls, "consolidate",
                    self.wrap("model.consolidate", model_cls.consolidate,
                              lambda res, *a: add("model.consolidate_calls")))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _scorer_class(self, base):
        tracer = self

        class TracedScorer(base):
            def __init__(self, p, dirs):
                tracer.span("depth.scorer_build", super().__init__, p, dirs)
                tracer._add("depth.scorer_builds")
                tracer._add("depth.scorer_bytes", 16 * p.size * len(dirs))

            def scores(self, candidates):
                tracer._add("depth.scorer_calls")
                tracer._add("depth.scorer_points", len(np.atleast_2d(candidates)))
                return tracer.span("depth.scorer_score", super().scores, candidates)

        return TracedScorer

    def _search(self, search, objective_span):
        """Wrap a pattern search and the objective it receives. Probes are
        counted by points evaluated, so a batched objective keeps the count."""
        tracer = self

        def traced_search(f, x0, **kwargs):
            best = None

            def objective(x):
                nonlocal best
                value = tracer.span(objective_span, f, x)
                values = np.atleast_1d(value)
                tracer._add("optimize.objective_calls")
                tracer._add("optimize.probes", values.size)
                if objective_span == "projection.objective":
                    tracer._add("projection.search_probes", values.size)
                for v in values:
                    if best is not None and v < best:
                        tracer._add("optimize.improving")
                    best = v if best is None else min(best, v)
                return value

            tracer._add("optimize.searches")
            return tracer.span("optimize.search", search, objective, x0, **kwargs)

        return traced_search

    # -- reduction --

    def layer_metrics(self, trials: int) -> dict[str, float]:
        """Per-trial means of every per-layer metric except the overhead."""
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            if name in _TOTAL_S:
                total[_TOTAL_S[name]] += dur
            if name in _SELF_S:
                total[_SELF_S[name]] += dur - child[idx]
        c = self.counts
        out = {}
        for name, _, _ in PER_LAYER:
            if name in total:
                out[name] = total[name] / trials
            else:
                out[name] = c.get(name, 0.0) / trials
        out["depth.scorer_points_per_call"] = _ratio(c["depth.scorer_points"],
                                                     c["depth.scorer_calls"])
        out["optimize.improving_frac"] = _ratio(c["optimize.improving"], c["optimize.probes"])
        search_probes = c["projection.search_probes"]
        out["projection.align_evals"] = (c["projection.evaluations"] - search_probes) / trials
        out["projection.objective_s_per_probe"] = _ratio(total["projection.objective_s"],
                                                         search_probes)
        return out

    def write(self, path):
        """Write every span as one JSON line once the run has ended."""
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
