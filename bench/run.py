"""End-to-end and per-layer benchmark of the halfspace estimators.

Usage (from the repository root)::

    python3 bench/run.py --workload tukey_sampled_3d --seed 1 --seconds 20 --trace 0

One closed-loop client: this process runs one trial after another through
the public harness (``run_bias_sweep`` with one trial and ``workers=0``),
each trial seeded from a child of ``--seed`` split with ``spawn_seeds``; the
program receives only the workload config and that trial seed. The
workloads are defined in ``bench/workloads.json``.

``--trace 0`` measures the end-to-end metrics untraced for ``--seconds``
(and at least ``MIN_TRIALS`` trials). ``--trace 1`` runs a fixed number of
trials untraced and then the same trials under the layer trace of
``tracing.py``, and reports per-trial layer metrics and the trace overhead;
spans are written to ``.bench_traces/`` once the run ends.

Every trial passes a correctness gate outside the timed region: a finite
estimate, an error within its row's bias bound, a byte-identical CSV row on
re-run, and, where the workload asks for it, an achieved depth equal to the
exact oracle depth at the returned point. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_TRIALS = 12        # the tail percentile needs ten trials beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 5
DEPTH_TOL = 1e-12     # the tie tolerance median_candidates uses

END_TO_END = [("trials_per_s", "1/s"), ("trial_s_p50", "s"), ("trial_s_tail", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("bound_slack_p50", "frac")]

# Runs in a fresh interpreter: import the package, parse the workload config
# and build its TemplateFamily (which runs the decay-domination check).
_SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from halfspace.harness import ExperimentConfig
ExperimentConfig.from_json(json.loads(sys.argv[2]))
print(time.perf_counter() - start)
"""


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)["workloads"]


def measure_setup(config: dict) -> float:
    """Median set-up time over ``SETUP_REPEATS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(config)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_threads": threads or "default (nproc)"}


@dataclass
class Outcome:
    index: int
    seconds: float
    row: object = None           # harness ReportRow, None if the trial raised
    point: object = None
    p_hat: object = None
    failure: str | None = None


class Bench:
    """Runs the trials of one workload and checks their outputs. While
    entered, it records the point each trial's estimator returns."""

    def __init__(self, hs, spec: dict, seed: int, n: int | None = None):
        self.hs = hs
        self.config = hs.harness.ExperimentConfig.from_json(_config(spec, n))
        self.oracle_gate = bool(spec.get("oracle_gate"))
        self._root = np.random.SeedSequence(seed)
        self._seeds: list[int] = []
        self._captured = (None, None)
        self._estimate = hs.harness.estimate_location

    def __enter__(self):
        def capture(p_hat, cfg, rng):
            point, score = self._estimate(p_hat, cfg, rng)
            self._captured = (point, p_hat if self.oracle_gate else None)
            return point, score

        self.hs.harness.estimate_location = capture
        return self

    def __exit__(self, *exc):
        self.hs.harness.estimate_location = self._estimate
        return False

    def trial_seed(self, i: int) -> int:
        rng = self.hs.rng
        while len(self._seeds) <= i:
            self._seeds.append(rng.seed_fingerprint(rng.spawn_seeds(self._root, 1)[0]))
        return self._seeds[i]

    def trial(self, i: int):
        cfg = replace(self.config, seed=self.trial_seed(i), trials=1)
        return self.hs.harness.run_bias_sweep(cfg, [cfg.attack.epsilon]).rows[0]

    def run(self, i: int, trial=None) -> Outcome:
        """Run trial ``i`` (through ``trial``, default :meth:`trial`) and time it."""
        self._captured = (None, None)
        start = time.perf_counter()
        try:
            row, failure = (trial or self.trial)(i), None
        except Exception as exc:  # a raising trial is a failed trial
            row, failure = None, f"raised {type(exc).__name__}: {exc}"
        return Outcome(i, time.perf_counter() - start, row, *self._captured, failure)

    def gate(self, o: Outcome) -> str | None:
        """Why this trial fails the correctness gate, or None."""
        if o.failure:
            return o.failure
        row = o.row
        if not (math.isfinite(row.error) and np.all(np.isfinite(o.point))):
            return "non-finite estimate"
        if not row.error <= row.bound:
            return f"error {row.error!r} above bound {row.bound!r}"
        if self.oracle_gate:
            # Engines may witness different atom subsets of equal mass, whose
            # float sums differ in the last bits; a real miss is >= 1/n.
            exact = self.hs.depth.depth_oracle(o.p_hat, o.point).value
            if abs(exact - row.score) > DEPTH_TOL:
                return f"achieved depth {row.score!r} != oracle depth {exact!r}"
        return None


def _config(spec: dict, n: int | None) -> dict:
    return dict(spec["config"], **({"n": n} if n else {}))


def _same_row(a: Outcome, b: Outcome) -> bool:
    return a.row is not None and b.row is not None \
        and a.row.to_csv_line() == b.row.to_csv_line()


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_BEYOND`` trials beyond it,
    as (value, percentile)."""
    ordered = sorted(times)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        raise RuntimeError(f"tail needs more than {TAIL_BEYOND} completed trials")
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _import_halfspace():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import halfspace
    import halfspace.depth
    import halfspace.harness
    import halfspace.median
    import halfspace.model
    import halfspace.projection
    import halfspace.rng

    return halfspace


def end_to_end(bench: Bench, seconds: float, setup_s: float, log) -> tuple[list, dict, dict]:
    """Untraced timed phase: trials back to back for ``seconds`` and at
    least ``MIN_TRIALS``; then the gate and one re-run."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < MIN_TRIALS or time.perf_counter() - start < seconds:
        outcomes.append(bench.run(len(outcomes)))
    elapsed = time.perf_counter() - start
    reasons = {o.index: bench.gate(o) for o in outcomes}
    if not _same_row(bench.run(0), outcomes[0]):
        reasons[0] = reasons[0] or "re-run did not reproduce the CSV row"
    done = [o for o in outcomes if o.row is not None]
    times = [o.seconds for o in done]
    tail, pct = _tail(times)
    log(f"trial_s_tail is p{pct:.1f} of {len(times)} completed trials")
    # over the first MIN_TRIALS trials only, so it depends on the seed alone
    slack = [1.0 if math.isinf(o.row.bound) else (o.row.bound - o.row.error) / o.row.bound
             for o in done if o.index < MIN_TRIALS]
    metrics = {
        "trials_per_s": len(done) / elapsed,
        "trial_s_p50": statistics.median(times),
        "trial_s_tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_slack_p50": statistics.median(slack),
    }
    return outcomes, reasons, metrics


def per_layer(bench: Bench, count: int, trace_path: Path) -> tuple[list, dict, dict]:
    """Each of ``count`` trials runs untraced and then traced, alternating,
    so that drift in machine speed does not bias the overhead."""
    tracer = Tracer(bench.hs)

    def traced_trial(i):
        tracer.trial = i
        return tracer.span("harness.trial", bench.trial, i)

    outcomes, traced = [], []
    for i in range(count):
        outcomes.append(bench.run(i))
        with tracer:
            traced.append(bench.run(i, traced_trial))
    reasons = {o.index: bench.gate(o) for o in outcomes}
    for o, t in zip(outcomes, traced):
        if not _same_row(o, t):
            reasons[o.index] = reasons[o.index] or "traced re-run changed the CSV row"
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    base = statistics.median(o.seconds for o in outcomes)
    metrics = tracer.layer_metrics(count)
    metrics["trace.overhead_frac"] = (statistics.median(t.seconds for t in traced) - base) / base
    return outcomes, reasons, metrics


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 n: int | None = None, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    setup_s = None if trace else measure_setup(_config(spec, n))
    hs = _import_halfspace()
    log("env: " + json.dumps(environment(), sort_keys=True))
    with Bench(hs, spec, seed, n) as bench:
        if trace:
            # a fixed trial count, so count metrics repeat exactly for a seed;
            # both phases together take about --seconds at the nominal speed
            count = max(2, round(seconds / (2.0 * spec["nominal_trial_s"])))
            path = ROOT / ".bench_traces" / f"{name}-seed{seed}.jsonl"
            outcomes, reasons, metrics = per_layer(bench, count, path)
            units = {m: unit for m, unit, _ in PER_LAYER}
        else:
            outcomes, reasons, metrics = end_to_end(bench, seconds, setup_s, log)
            units = dict(END_TO_END)
    failed = {i: r for i, r in reasons.items() if r is not None}
    for i, reason in sorted(failed.items()):
        log(f"trial {i} failed: {reason}")
    log(f"failed_frac {len(failed)}/{len(outcomes)}")
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "halfspace" / "__init__.py").is_file():
        print(f"no halfspace sources under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, workloads[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
