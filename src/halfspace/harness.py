"""Experiment runner: bias-vs-epsilon sweeps, breakdown sweeps, sample-size
scaling, with deterministic CSV/JSON reporting.

Reports are byte-identical across reruns with the same config and seed:
every trial owns a split seed, rows are assembled in trial-index order, and
wall-clock timing is opt-in (the ``ms`` column is 0 unless ``timing=True``),
since measured time can never be reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .corruption import (AttackSpec, adaptive_corrupt_samples, apex_move,
                         attack_pointmass_1d, attack_tetrahedron, constant_cluster,
                         mixture_corrupt, sample_population, shift_cluster)
from .depth import depth_oracle, depth_sampled
from .median import coordinatewise_median, median_1d, median_candidates, median_refine
from .metrics import (DecayProfile, bias_bound_additive, bias_bound_projection,
                      bias_bound_tv, decay_for, epsilon_tilde)
from .model import DISCRETE_ATOMS, ConfigError, NamedDistribution, WeightedPointSet, sample
from .projection import TemplateFamily, project_estimate, square_template_family
from .rng import make_rng, seed_fingerprint, spawn_seeds

CSV_COLUMNS = ("trial", "estimator", "attack", "mode", "eps", "eps_tilde",
               "n", "d", "error", "score", "bound", "seed", "ms")
ESTIMATORS = ("tukey", "projection", "cwise_median")
# integer fields of ExperimentConfig and their least values
_INTEGER_FIELDS = (("n", 1), ("trials", 1), ("seed", 0), ("budget", 1), ("midpoint_cap", 1),
                   ("refine_steps", 0), ("proj_starts", 0), ("proj_steps", 0))


@dataclass(frozen=True)
class ReportRow:
    trial: int
    estimator: str
    attack: str
    mode: str
    eps: float
    eps_tilde: float
    n: int
    d: int
    error: float
    score: float
    bound: float
    seed: int
    ms: int

    def to_csv_line(self) -> str:
        return ",".join([str(self.trial), self.estimator, self.attack, self.mode,
                         repr(self.eps), repr(self.eps_tilde), str(self.n), str(self.d),
                         repr(self.error), repr(self.score), repr(self.bound),
                         str(self.seed), str(self.ms)])

    @classmethod
    def from_csv_line(cls, line: str) -> "ReportRow":
        f = line.split(",")
        if len(f) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(f)}")
        return cls(int(f[0]), f[1], f[2], f[3], float(f[4]), float(f[5]), int(f[6]),
                   int(f[7]), float(f[8]), float(f[9]), float(f[10]), int(f[11]),
                   int(f[12]))


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [f"# {k}={self.meta[k]}" for k in sorted(self.meta)]
        lines.append(",".join(CSV_COLUMNS))
        lines.extend(row.to_csv_line() for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ExperimentReport":
        meta: dict[str, str] = {}
        rows: list[ReportRow] = []
        header_seen = False
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if not header_seen:
                if line != ",".join(CSV_COLUMNS):
                    raise ValueError("unexpected CSV header")
                header_seen = True
                continue
            rows.append(ReportRow.from_csv_line(line))
        return cls(rows, meta)

    def to_json(self) -> str:
        return json.dumps({"meta": self.meta, "rows": [vars(r) for r in self.rows]},
                          sort_keys=True)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: estimator, population, adversary, sampling mode, and
    the reproducibility and budget knobs."""

    estimator: str
    distribution: NamedDistribution
    attack: AttackSpec = AttackSpec()
    mode: str = "adaptive_samples"
    n: int = 1000
    trials: int = 1
    seed: int = 0
    delta: float = 0.05
    c_vc: float = 0.5
    budget: int = 1024
    midpoint_cap: int = 20_000
    refine_steps: int = 16
    proj_starts: int = 2
    proj_steps: int = 48
    # a Tukey start for a continuous template; a discrete one ignores it and
    # starts from its alignment centers instead
    proj_tukey_start: bool = True
    template: TemplateFamily | None = None
    decay: DecayProfile | None = None

    def __post_init__(self):
        from .corruption import CORRUPTION_MODES

        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.mode not in CORRUPTION_MODES:
            raise ConfigError(f"unknown corruption mode {self.mode!r}")
        for name, least in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"config field {name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"config field {name} must be at least {least}, got {value}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"config field delta must lie in (0, 1), got {self.delta!r}")
        if not 0.0 <= self.c_vc < math.inf:
            raise ConfigError(f"config field c_vc must be finite and nonnegative, "
                              f"got {self.c_vc!r}")
        if self.estimator == "projection" and self.template is None:
            raise ConfigError("projection estimator needs a template family")
        if self.mode in ("additive_population", "tv_population") \
                and self.distribution.variant != DISCRETE_ATOMS:
            raise ConfigError("population modes need a discrete distribution")

    def decay_profile(self) -> DecayProfile:
        if self.decay is not None:
            return self.decay
        if self.template is not None:
            return self.template.decay
        return decay_for(self.distribution)

    @classmethod
    def from_json(cls, text: str | dict) -> "ExperimentConfig":
        obj = json.loads(text) if isinstance(text, str) else text
        try:
            kwargs = dict(obj)
            kwargs["distribution"] = NamedDistribution.from_json_dict(obj["distribution"])
            if "attack" in obj:
                kwargs["attack"] = AttackSpec.from_json(obj["attack"])
            if "template" in obj:
                kwargs["template"] = TemplateFamily.from_json_dict(obj["template"])
            if "decay" in obj:
                kwargs["decay"] = DecayProfile.from_json_dict(obj["decay"])
            return cls(**kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# trial realization
# ---------------------------------------------------------------------------

def _cluster_point(dist: NamedDistribution, attack: AttackSpec) -> np.ndarray:
    if attack.cluster_point is not None:
        return attack.cluster_point
    if attack.variant == "tetrahedron_tv":
        return np.array([-0.5, -0.5, float(attack.z)])
    u = np.zeros(dist.dim)
    u[0] = 1.0
    return dist.center + attack.z * u


def corrupted_population(dist: NamedDistribution, attack: AttackSpec, eps: float):
    """Population-level corruption for a named attack at level ``eps``."""
    base = dist.atoms_absolute() if dist.variant == DISCRETE_ATOMS else dist
    if attack.variant == "none" or eps == 0.0:
        return base
    if attack.variant == "tetrahedron_tv":
        if dist.variant != DISCRETE_ATOMS:
            raise ConfigError("tetrahedron_tv needs a discrete distribution")
        return apex_move(base, eps, attack.z)
    point = _cluster_point(dist, attack)
    if isinstance(base, WeightedPointSet):
        return shift_cluster(base, eps, attack.z, cluster_point=point)
    return mixture_corrupt(base, eps, WeightedPointSet.delta(point))


def realize_trial(config: ExperimentConfig, eps: float,
                  rng: np.random.Generator) -> WeightedPointSet:
    """Sample-and-corrupt one trial according to the corruption mode."""
    dist = config.distribution
    if config.mode == "adaptive_samples":
        clean = sample(dist, config.n, rng)
        if eps == 0.0 or config.attack.variant == "none":
            return clean
        point_fn = constant_cluster(_cluster_point(dist, config.attack))
        return adaptive_corrupt_samples(clean, eps, point_fn, rng)
    pop = corrupted_population(dist, config.attack, eps)
    if config.mode == "oblivious_samples":
        return sample_population(pop, config.n, rng)
    # population modes: the corrupted population itself is the input
    return pop


def estimate_location(p_hat: WeightedPointSet, config: ExperimentConfig,
                      rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Run the configured estimator; returns (point, score) where score is
    the achieved depth (tukey), the achieved objective (projection), or 0."""
    if config.estimator == "cwise_median":
        return coordinatewise_median(p_hat), 0.0
    if config.estimator == "tukey":
        if p_hat.dim == 1:
            res = median_1d(p_hat)
            return res.point, res.achieved_depth
        merged = p_hat.consolidate()
        cand = median_candidates(merged, engine="auto", budget=config.budget,
                                 midpoint_cap=config.midpoint_cap, rng=rng)
        if config.refine_steps > 0:
            ref = median_refine(merged, cand.point, engine="auto",
                                steps=config.refine_steps, budget=config.budget, rng=rng)
            if ref.achieved_depth >= cand.achieved_depth:
                return ref.point, ref.achieved_depth
        return cand.point, cand.achieved_depth
    res = project_estimate(p_hat, config.template, starts=config.proj_starts,
                           budget=config.budget, steps=config.proj_steps, rng=rng,
                           tukey_start=config.proj_tukey_start)
    return res.mu_hat, res.objective


def _bound_for(config: ExperimentConfig, eps_tilde: float) -> float:
    h = config.decay_profile()
    d = config.distribution.dim
    if config.estimator == "projection":
        return bias_bound_projection(h, min(eps_tilde, 0.999), d).value
    if config.estimator == "tukey":
        if config.mode == "additive_population":
            return bias_bound_additive(h, min(eps_tilde, 0.999), d).value
        return bias_bound_tv(h, min(eps_tilde, 0.999), d).value
    return math.inf


def _effective_eps(config: ExperimentConfig, eps: float) -> float:
    if config.mode in ("additive_population", "tv_population"):
        return eps
    return epsilon_tilde(eps, config.n, config.distribution.dim, config.delta, config.c_vc)


def _meta(config: ExperimentConfig, kind: str) -> dict[str, str]:
    return {"kind": kind, "c_vc": str(config.c_vc), "delta": str(config.delta),
            "seed": str(config.seed), "estimator": config.estimator,
            "attack": config.attack.variant, "mode": config.mode}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def run_bias_sweep(config: ExperimentConfig, eps_grid: Sequence[float],
                   timing: bool = False) -> ExperimentReport:
    """For each corruption level and trial: sample, corrupt, estimate, and
    record the error next to the matching theoretical bound."""
    for eps in eps_grid:
        if not 0.0 <= eps < 1.0:
            raise ConfigError("eps grid values must lie in [0, 1)")
    return _run_grid(config, "bias", [(eps, config) for eps in eps_grid], timing)


def _tetrahedron_probe(p: WeightedPointSet) -> np.ndarray:
    apex = p.points[np.argmax(p.points[:, 2])]
    others = p.points[p.points[:, 2] < apex[2]]
    return 0.97 * apex + 0.01 * others.sum(axis=0)


def run_breakdown_sweep(estimator: str, construction: str, z_grid: Sequence[float],
                        *, seed: int = 0, n: int = 5000, budget: int = 4096,
                        timing: bool = False) -> ExperimentReport:
    """Drive a named worst-case construction to larger and larger distances.

    For the Tukey estimator the reported error is a certified lower bound on
    the worst-case bias: the depth of an adversarially far point is verified
    (exactly, via the oracle, where feasible) to match the maximum candidate
    depth, so the far point is a depth maximizer and its distance from the
    clean center is achievable bias.
    """
    if construction not in ("tetrahedron", "pointmass_1d", "ball_additive"):
        raise ConfigError(f"unknown construction {construction!r}")
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    report = ExperimentReport(meta={"kind": "breakdown", "estimator": estimator,
                                    "attack": construction, "seed": str(seed),
                                    "mode": "tv_population", "c_vc": "0.5",
                                    "delta": "0.05"})
    children = spawn_seeds(seed, max(1, len(z_grid)))
    for i, z in enumerate(z_grid):
        ss = children[i]
        rng = make_rng(ss)
        start = time.perf_counter()
        if construction == "tetrahedron":
            row = _breakdown_tetrahedron(estimator, float(z), rng, i)
        elif construction == "pointmass_1d":
            row = _breakdown_pointmass(estimator, float(z), rng, i)
        else:
            row = _breakdown_ball(estimator, float(z), n, budget, rng, i)
        ms = int(1000 * (time.perf_counter() - start)) if timing else 0
        report.rows.append(replace(row, seed=seed_fingerprint(ss), ms=ms))
    return report


def _breakdown_tetrahedron(estimator: str, z: float, rng, trial: int) -> ReportRow:
    from .projection import square_decay_profile

    p_star, p = attack_tetrahedron(z)
    eps = 0.25
    if estimator == "tukey":
        probe = _tetrahedron_probe(p)
        probe_depth = depth_oracle(p, probe).value
        top = median_candidates(p, engine="oracle", extra=[probe]).achieved_depth
        certified = probe_depth == top
        error = float(np.linalg.norm(probe)) if certified else 0.0
        score = probe_depth
        bound = bias_bound_tv(square_decay_profile(), eps, 3).value
    elif estimator == "projection":
        family = square_template_family(box_halfwidth=max(4.0, 0.1 * z))
        res = project_estimate(p, family, starts=2, budget=1024, steps=48, rng=rng)
        error = float(np.linalg.norm(res.mu_hat))
        score = res.objective
        bound = bias_bound_projection(square_decay_profile(), eps, 3).value
    else:
        point = coordinatewise_median(p)
        error, score, bound = float(np.linalg.norm(point)), 0.0, math.inf
    return ReportRow(trial, estimator, "tetrahedron_tv", "tv_population", eps, eps,
                     p.size, 3, error, score, bound, 0, 0)


def _breakdown_pointmass(estimator: str, z: float, rng, trial: int) -> ReportRow:
    p_star = WeightedPointSet.delta([0.0])
    p = attack_pointmass_1d(p_star, z)
    eps = 0.5
    if estimator == "projection":
        template = NamedDistribution.discrete(np.zeros(1), WeightedPointSet.delta([0.0]))
        decay = DecayProfile.piecewise([[0.0, 0.0]])
        family = TemplateFamily(template, decay, np.array([[-2 * abs(z) - 1, 2 * abs(z) + 1]]))
        res = project_estimate(p, family, starts=2, budget=64, steps=48, rng=rng)
        error, score = float(np.linalg.norm(res.mu_hat)), res.objective
    else:
        res = median_1d(p)
        error, score = float(abs(res.point[0])), res.achieved_depth
    return ReportRow(trial, estimator, "pointmass_1d", "tv_population", eps, eps,
                     p.size, 1, error, score, math.inf, 0, 0)


def _breakdown_ball(estimator: str, z: float, n: int, budget: int, rng, trial: int) -> ReportRow:
    dist = NamedDistribution.ball(np.zeros(3), 1.0)
    eps = 1.0 / 3.0
    clean = sample(dist, n, rng)
    far = np.array([z, 0.0, 0.0])
    from .corruption import additive_corrupt

    p = additive_corrupt(clean, eps, WeightedPointSet.delta(far))
    if estimator == "tukey":
        far_depth = depth_sampled(p, far, budget=budget, rng=rng).value
        error, score = float(z), far_depth
        bound = bias_bound_tv(decay_for(dist), eps, 3).value
    elif estimator == "projection":
        family = TemplateFamily(dist, decay_for(dist), np.array([[-2.0, max(2.0, z)]] * 3))
        res = project_estimate(p, family, starts=2, budget=min(budget, 128),
                               steps=24, rng=rng)
        error, score = float(np.linalg.norm(res.mu_hat)), res.objective
        bound = bias_bound_projection(decay_for(dist), eps, 3).value
    else:
        error, score, bound = float(np.linalg.norm(coordinatewise_median(p))), 0.0, math.inf
    return ReportRow(trial, estimator, "ball_additive", "oblivious_samples", eps, eps,
                     p.size, 3, error, score, bound, 0, 0)


def run_scaling(config: ExperimentConfig, n_grid: Sequence[int],
                timing: bool = False) -> ExperimentReport:
    """Fixed corruption level, growing sample size; one row per trial."""
    if list(n_grid) != sorted(n_grid):
        raise ConfigError("n grid must be ascending")
    eps = config.attack.epsilon
    return _run_grid(config, "scaling", [(eps, replace(config, n=int(n))) for n in n_grid],
                     timing)


def _run_grid(config: ExperimentConfig, kind: str,
              cells: Sequence[tuple[float, ExperimentConfig]], timing: bool) -> ExperimentReport:
    """``config.trials`` rows per ``(eps, cfg)`` cell: sample, corrupt,
    estimate, and record the error next to the matching bound. Trial t of
    cell i runs on split seed ``i * trials + t`` of ``config.seed``, and rows
    come in cell, then trial, order."""
    report = ExperimentReport(meta=_meta(config, kind))
    children = spawn_seeds(config.seed, max(1, len(cells) * config.trials))
    center = config.distribution.center
    for i, (eps, cfg) in enumerate(cells):
        e_tilde = _effective_eps(cfg, eps)
        bound = _bound_for(cfg, e_tilde)
        for trial in range(config.trials):
            ss = children[i * config.trials + trial]
            start = time.perf_counter()
            rng = make_rng(ss)
            p_hat = realize_trial(cfg, eps, rng)
            point, score = estimate_location(p_hat, cfg, rng)
            ms = int(1000 * (time.perf_counter() - start)) if timing else 0
            report.rows.append(ReportRow(
                trial, cfg.estimator, cfg.attack.variant, cfg.mode, float(eps),
                float(e_tilde), p_hat.size, p_hat.dim, float(np.linalg.norm(point - center)),
                float(score), float(bound), seed_fingerprint(ss), ms))
    return report


def median_errors_by_n(report: ExperimentReport) -> dict[int, float]:
    """Median error per sample size, for scaling-report consumers."""
    by_n: dict[int, list[float]] = {}
    for row in report.rows:
        by_n.setdefault(row.n, []).append(row.error)
    return {n: float(np.median(errs)) for n, errs in by_n.items()}
