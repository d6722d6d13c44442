"""Write the reference sweep CSVs of one source tree.

Usage (from the repository root)::

    python3 scripts/reference_runs.py TREE OUT_DIR

TREE is a checkout that holds ``src/halfspace``, ``configs/`` and
``bench/workloads.json``. Each run is a separate
``python3 -m halfspace.cli`` process on TREE's own sources, started in
TREE, that writes ``OUT_DIR/<name>.csv`` (OUT_DIR is created if missing):

* ``sweep-bias --eps-grid 0.0,0.1`` on each config of
  ``bench/workloads.json``, with 3 trials and seed 5;
* ``sweep-bias`` on configs/gaussian_adaptive.json, gaussian_planar.json
  and gaussian_projection.json at ``0.05,0.1``, and on
  configs/square_projection.json at ``0.1,0.25`` and at ``0.25``;
* ``sweep-scaling --n-grid 200,800`` on configs/square_projection.json;
* ``sweep-breakdown --z-grid 10,100 --n 500`` for every estimator and
  construction, and the Tukey tetrahedron breakdown at the default n;
* ``attack --variant tetrahedron --z 10``, then ``estimate`` on that
  distribution with the square template of configs/square_projection.json
  and ``--starts 3``, whose printed JSON goes to
  ``OUT_DIR/estimate_square_tetrahedron.json``.

Two trees, or two runs of one tree, compare with ``diff -r`` of their
output directories: every row is byte-identical on a rerun. Each run's
wall time, from process start to exit, goes to standard error as
``<name> <seconds> s``, then the total; the CSVs do not hold it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ESTIMATORS = ("tukey", "projection", "cwise_median")
CONSTRUCTIONS = ("tetrahedron", "pointmass_1d", "ball_additive")


def runs(tree: Path, scratch: Path, out_dir: Path) -> dict[str, list[str]]:
    """The CLI arguments of each reference run, by output name, in run
    order; the bench workload configs and the square template are written
    to the directory ``scratch`` first, and the estimate reads the attack
    run's output in ``out_dir``."""
    out = {}
    workloads = json.loads((tree / "bench" / "workloads.json").read_text())["workloads"]
    for name, spec in workloads.items():
        config = scratch / f"{name}.json"
        config.write_text(json.dumps(dict(spec["config"], trials=3, seed=5)))
        out[f"bench_{name}"] = ["sweep-bias", "--config", str(config), "--eps-grid", "0.0,0.1"]
    for name, grid in [("gaussian_adaptive", "0.05,0.1"), ("gaussian_planar", "0.05,0.1"),
                       ("gaussian_projection", "0.05,0.1"), ("square_projection", "0.1,0.25")]:
        out[f"bias_{name}"] = ["sweep-bias", "--config", f"configs/{name}.json",
                               "--eps-grid", grid]
    out["bias_square_projection_0.25"] = ["sweep-bias", "--config",
                                          "configs/square_projection.json", "--eps-grid", "0.25"]
    out["scaling_square_projection"] = ["sweep-scaling", "--config",
                                        "configs/square_projection.json", "--n-grid", "200,800"]
    for estimator in ESTIMATORS:
        for construction in CONSTRUCTIONS:
            out[f"breakdown_{estimator}_{construction}"] = [
                "sweep-breakdown", "--estimator", estimator, "--construction", construction,
                "--z-grid", "10,100", "--n", "500"]
    out["breakdown_tukey_tetrahedron_default_n"] = [
        "sweep-breakdown", "--estimator", "tukey", "--construction", "tetrahedron",
        "--z-grid", "10,100"]
    template = scratch / "square_template.json"
    square = json.loads((tree / "configs" / "square_projection.json").read_text())
    template.write_text(json.dumps(square["template"]))
    out["attack_tetrahedron"] = ["attack", "--variant", "tetrahedron", "--z", "10",
                                 "--format", "csv"]
    out["estimate_square_tetrahedron"] = [
        "estimate", "--dist", str(out_dir / "attack_tetrahedron.csv"), "--template",
        str(template), "--budget", "512", "--starts", "3", "--steps", "32", "--seed", "5"]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 scripts/reference_runs.py TREE OUT_DIR", file=sys.stderr)
        return 2
    tree, out_dir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (tree / "src" / "halfspace" / "cli.py").is_file():
        print(f"{tree} holds no src/halfspace/cli.py", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    total = 0.0
    with tempfile.TemporaryDirectory() as scratch:
        for name, args in runs(tree, Path(scratch), out_dir).items():
            # estimate prints its result; every other run writes --out
            printed = args[0] == "estimate"
            target = out_dir / f"{name}.{'json' if printed else 'csv'}"
            stdout = subprocess.PIPE if printed else None
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "halfspace.cli", *args,
                                   *([] if printed else ["--out", str(target)])],
                                  cwd=tree, env=env, check=True, stdout=stdout, text=True)
            wall = time.perf_counter() - start
            total += wall
            if printed:
                target.write_text(done.stdout)
            print(f"wrote {target.name}", flush=True)
            print(f"{name} {wall:.2f} s", file=sys.stderr, flush=True)
    print(f"total {total:.2f} s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
