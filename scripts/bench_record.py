"""Record the benchmark of one or more source trees into ``BENCH_<tag>.json``.

Usage (from the repository root)::

    python3 scripts/bench_record.py --seeds 1 2 3 --seconds 20 20=. 19=../parent

Each ``TAG=TREE`` names a checkout that holds ``bench/run.py`` and
``src/halfspace``. For every seed and every workload of the tree's
``bench/workloads.json``, each tree runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` and
then the same with ``--trace 1``, in turn; the order of the trees rotates
with the seed, so that drift in machine speed falls on every tree alike.
``BENCH_<tag>.json`` (in ``--out-dir``, created if missing) then holds, per
workload, every run's result line (the six end-to-end metrics,
``correct``, ``attempted`` and ``failed``) and each metric's median and
quartiles, the same for the per-layer metrics of the ``--trace 1`` runs
(``projection.objective_s``, ``optimize.objective_calls``, ...) under
``per_layer``, with the machine and library versions the benchmark
reports, the tree's git description and source digest, and the line count
of each ``src/halfspace/*.py``.

``--seconds 0`` runs each workload's minimum trial count: a smoke run
that only shows the recorder and the benchmark still work together.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_lines(tree: Path) -> dict:
    """``wc -l`` of each ``src/halfspace/*.py``, and their total."""
    files = sorted((tree / "src" / "halfspace").glob("*.py"))
    lines = {f"src/halfspace/{f.name}": f.read_bytes().count(b"\n") for f in files}
    lines["total"] = sum(lines.values())
    return lines


def source_id(tree: Path) -> dict:
    """The tree's ``git describe`` (None outside git) and a sha256 of its
    ``src/halfspace/*.py`` contents, in name order."""
    digest = hashlib.sha256()
    for f in sorted((tree / "src" / "halfspace").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    git = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return {"git": git.stdout.strip() if git.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run: its result line and the environment it logged."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    env = next((json.loads(x[len("env: "):]) for x in lines if x.startswith("env: ")), {})
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        low, _, high = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        low = high = ordered[0]
    return {"median": statistics.median(ordered), "q1": low, "q3": high, "values": values}


def summarize(items: list[dict]) -> dict:
    """The result lines of one workload's runs, each metric's median and
    quartiles, and the failed and attempted trial counts."""
    return {
        "runs": items,
        "metrics": {m: dict(unit=spec["unit"],
                            **summary([r["metrics"][m]["value"] for r in items]))
                    for m, spec in items[0]["metrics"].items()},
        "failed": sum(r["failed"] for r in items),
        "attempted": sum(r["attempted"] for r in items),
    }


def record(trees: dict[str, Path], seeds: list[int], seconds: float) -> dict[str, dict]:
    tags = list(trees)
    runs = {(tag, trace): {} for tag in tags for trace in (0, 1)}
    env = {}
    for i, seed in enumerate(seeds):
        order = tags[i % len(tags):] + tags[:i % len(tags)]
        for tag in order:
            workloads = json.loads((trees[tag] / "bench" / "workloads.json").read_text())
            for trace in (0, 1):
                for workload in workloads["workloads"]:
                    result, env[tag] = run_once(trees[tag], workload, seed, seconds, trace)
                    runs[tag, trace].setdefault(workload, []).append(
                        dict(seed=seed, position=order.index(tag), **result))
                    metrics = " ".join(f"{k}={v['value']:.4g}"
                                       for k, v in result["metrics"].items())
                    print(f"{tag} {workload} seed {seed} trace {trace}: {metrics}", flush=True)
    machine = {"platform": platform.platform(), "cpu": cpu_model()}
    out = {}
    for tag in tags:
        per_workload = {w: summarize(items) for w, items in runs[tag, 0].items()}
        for workload, items in runs[tag, 1].items():
            per_workload[workload]["per_layer"] = summarize(items)
        out[tag] = {
            "tag": tag,
            "source": source_id(trees[tag]),
            "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0,"
                       " then --trace 1",
            "seeds": seeds,
            "seconds": seconds,
            "trees_alternated": tags,
            "machine": dict(machine, **env.get(tag, {})),
            "lines": source_lines(trees[tag]),
            "workloads": per_workload,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TAG=TREE")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    trees = {}
    for item in args.trees:
        tag, sep, tree = item.partition("=")
        if not sep or not tag or not (Path(tree) / "bench" / "run.py").is_file():
            parser.error(f"expected TAG=TREE with TREE/bench/run.py, got {item!r}")
        trees[tag] = Path(tree).resolve()
    # before the first run, so a bad directory fails at once
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for tag, result in record(trees, args.seeds, args.seconds).items():
        path = args.out_dir / f"BENCH_{tag}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
