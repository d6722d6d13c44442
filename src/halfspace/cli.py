"""Command-line interface.

Subcommands: depth, median, estimate, attack, sweep-bias, sweep-breakdown,
sweep-scaling, bounds. Exit codes: 0 on success, 2 on configuration errors
(including unknown subcommands and flags), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .corruption import attack_pointmass_1d, attack_tetrahedron, shift_cluster
from .depth import ENGINES, compute_depth
from .harness import (ConfigError, ExperimentConfig, run_bias_sweep,
                      run_breakdown_sweep, run_scaling)
from .median import median_1d, median_candidates
from .metrics import (DecayProfile, bias_bound_additive, bias_bound_projection,
                      bias_bound_tv)
from .model import WeightedPointSet
from .projection import TemplateFamily, project_estimate


def _load(flag: str, path: str, parse):
    """``parse`` of the text of ``path``; a malformed file is a config error."""
    try:
        return parse(Path(path).read_text())
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} {path}: {exc!r}") from exc


def _load_pointset(path: str) -> WeightedPointSet:
    return _load("--dist", path, WeightedPointSet.from_csv if not path.endswith(".json")
                 else lambda text: WeightedPointSet.from_json_dict(json.loads(text)))


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"--point needs comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"--point coordinates must be finite, got {text!r}")
    return point


def _parse_grid(flag: str, text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def _parse_decay(text: str) -> DecayProfile:
    kind, _, rest = text.partition(":")
    if kind == "piecewise":
        return _load("--decay", rest, lambda text: DecayProfile.from_json_dict(json.loads(text)))
    try:
        if kind == "gaussian":
            return DecayProfile.gaussian(float(rest or 1.0))
        if kind == "ball":
            radius, _, dim = rest.partition(":")
            return DecayProfile.uniform_ball(float(radius), int(dim or 3))
    except ValueError as exc:
        raise ConfigError(f"--decay {text!r}: {exc}") from None
    raise ConfigError(f"unknown decay spec {text!r} "
                      "(use gaussian:SIGMA, ball:R:D, or piecewise:FILE)")


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


_SHARED_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--config": dict(required=True, help="JSON experiment config file"),
    "--out": dict(help="output path (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--timing": dict(action="store_true",
                     help="record wall-clock ms per row (breaks byte-identical reruns)"),
}


def _add_shared(sub: argparse.ArgumentParser, *flags: str):
    """Register the shared ``flags`` a subcommand reads, and no others."""
    for flag in flags:
        sub.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="halfspace",
                                     description="Tukey depth and robust location toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("depth", help="depth of a point in a stored distribution")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--engine", default="auto", choices=ENGINES)
    sp.add_argument("--budget", type=int, default=2048)
    _add_shared(sp, "--seed")

    sp = subs.add_parser("median", help="approximate Tukey median of a distribution")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--engine", default="auto", choices=ENGINES)
    sp.add_argument("--budget", type=int, default=2048)
    _add_shared(sp, "--seed")

    sp = subs.add_parser("estimate", help="halfspace-metric projection estimate")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--template", required=True, help="TemplateFamily JSON file")
    sp.add_argument("--budget", type=int, default=1024)
    sp.add_argument("--starts", type=int, default=2,
                    help="random starts (a discrete template ignores them)")
    sp.add_argument("--steps", type=int, default=48)
    _add_shared(sp, "--seed")

    sp = subs.add_parser("attack", help="materialize a named corruption construction")
    sp.add_argument("--variant", required=True,
                    choices=("tetrahedron", "pointmass_1d", "shift_cluster"))
    sp.add_argument("--z", type=float, default=10.0)
    sp.add_argument("--eps", type=float, default=0.25)
    sp.add_argument("--dist", help="clean input distribution (defaults per variant)")
    sp.add_argument("--out-star", help="also write the clean distribution here")
    _add_shared(sp, "--out", "--format")

    sp = subs.add_parser("bounds", help="evaluate a worst-case bias bound")
    sp.add_argument("--model", required=True, choices=("additive", "tv", "projection"))
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--decay", required=True, help="gaussian:SIGMA | ball:R:D | piecewise:FILE")

    sp = subs.add_parser("sweep-bias", help="bias vs corruption level")
    sp.add_argument("--eps-grid", required=True, help="comma-separated levels")
    _add_shared(sp, "--config", "--out", "--format", "--timing")

    sp = subs.add_parser("sweep-breakdown", help="drive a construction to large z")
    sp.add_argument("--estimator", required=True, choices=("tukey", "projection", "cwise_median"))
    sp.add_argument("--construction", required=True,
                    choices=("tetrahedron", "pointmass_1d", "ball_additive"))
    sp.add_argument("--z-grid", required=True, help="comma-separated distances")
    sp.add_argument("--n", type=int, default=5000)
    _add_shared(sp, "--seed", "--out", "--format", "--timing")

    sp = subs.add_parser("sweep-scaling", help="error vs sample size")
    sp.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    _add_shared(sp, "--config", "--out", "--format", "--timing")

    return parser


def _emit_report(report, args):
    _write_output(report.to_csv() if args.format == "csv" else report.to_json(), args.out)


def _run(args) -> int:
    if args.command == "depth":
        p = _load_pointset(args.dist)
        point = _parse_point(args.point)
        if point.shape[0] != p.dim:
            raise ConfigError(f"--point has {point.shape[0]} coordinates, "
                              f"the distribution is {p.dim}-dimensional")
        res = compute_depth(p, point, engine=args.engine, budget=args.budget, rng=args.seed)
        print(float(res.value))
        return 0
    if args.command == "median":
        p = _load_pointset(args.dist)
        if p.dim == 1:
            res = median_1d(p)
        else:
            res = median_candidates(p, engine=args.engine, budget=args.budget, rng=args.seed)
        print(json.dumps(res.to_json_dict(), sort_keys=True))
        return 0
    if args.command == "estimate":
        p = _load_pointset(args.dist)
        family = _load("--template", args.template,
                       lambda text: TemplateFamily.from_json_dict(json.loads(text)))
        res = project_estimate(p, family, starts=args.starts, budget=args.budget,
                               steps=args.steps, rng=args.seed)
        print(json.dumps(res.to_json_dict(), sort_keys=True))
        return 0
    if args.command == "attack":
        if args.variant == "tetrahedron":
            p_star, p = attack_tetrahedron(args.z)
        elif args.variant == "pointmass_1d":
            p_star = _load_pointset(args.dist) if args.dist else WeightedPointSet.delta([0.0])
            p = attack_pointmass_1d(p_star, args.z)
        else:
            if not args.dist:
                raise ConfigError("shift_cluster needs --dist")
            p_star = _load_pointset(args.dist)
            p = shift_cluster(p_star, args.eps, args.z)
        if args.out_star:
            Path(args.out_star).write_text(p_star.to_csv())
        _write_output(p.to_csv() if args.format == "csv"
                      else json.dumps(p.to_json_dict(), sort_keys=True), args.out)
        return 0
    if args.command == "bounds":
        h = _parse_decay(args.decay)
        fn = {"additive": bias_bound_additive, "tv": bias_bound_tv,
              "projection": bias_bound_projection}[args.model]
        print(float(fn(h, args.eps, args.d).value))
        return 0
    if args.command == "sweep-bias":
        config = ExperimentConfig.from_json(Path(args.config).read_text())
        grid = _parse_grid("--eps-grid", args.eps_grid) if args.eps_grid else []
        _emit_report(run_bias_sweep(config, grid, timing=args.timing), args)
        return 0
    if args.command == "sweep-breakdown":
        grid = _parse_grid("--z-grid", args.z_grid)
        _emit_report(run_breakdown_sweep(args.estimator, args.construction, grid,
                                         seed=args.seed, n=args.n, timing=args.timing), args)
        return 0
    if args.command == "sweep-scaling":
        config = ExperimentConfig.from_json(Path(args.config).read_text())
        grid = _parse_grid("--n-grid", args.n_grid, int)
        _emit_report(run_scaling(config, grid, timing=args.timing), args)
        return 0
    raise ConfigError(f"unknown subcommand {args.command!r}")


def _merge_coordinate_flags(argv: list[str]) -> list[str]:
    # join "--point -0.5,-0.5,75" into one token so argparse does not read
    # the negative coordinate as an option
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--point" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--point={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_coordinate_flags(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
