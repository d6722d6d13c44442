"""Adversarial corruption: population-level mixtures and deletions, sample
replacement, and the named worst-case constructions (the 1-d point mass, the
unit-ball mixture, the square-to-apex move)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .metrics import tv_distance
from .model import (DISCRETE_ATOMS, ConfigError, NamedDistribution, WeightedPointSet, as_point,
                    sample)
from .rng import RngLike, make_rng

ATTACK_VARIANTS = ("pointmass_1d", "ball_additive", "tetrahedron_tv", "shift_cluster", "none")
CORRUPTION_MODES = ("additive_population", "tv_population", "oblivious_samples", "adaptive_samples")


@dataclass(frozen=True, eq=False)
class AttackSpec:
    """A named adversary: corruption level ``epsilon`` and distance
    parameter ``z`` (apex height or cluster distance), with an optional
    explicit cluster point."""

    variant: str = "none"
    epsilon: float = 0.0
    z: float = 1.0
    cluster_point: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ATTACK_VARIANTS:
            raise ValueError(f"unknown attack variant {self.variant!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.variant != "none" and not self.z > 0:
            raise ValueError("z must be positive")
        if self.cluster_point is not None:
            object.__setattr__(self, "cluster_point", as_point(self.cluster_point))

    def to_json(self) -> str:
        obj = {"variant": self.variant, "epsilon": self.epsilon, "z": self.z}
        if self.cluster_point is not None:
            obj["cluster_point"] = self.cluster_point.tolist()
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: Union[str, dict]) -> "AttackSpec":
        obj = json.loads(text) if isinstance(text, str) else text
        return cls(obj.get("variant", "none"), float(obj.get("epsilon", 0.0)),
                   float(obj.get("z", 1.0)), obj.get("cluster_point"))


# ---------------------------------------------------------------------------
# population-level corruption
# ---------------------------------------------------------------------------

def additive_corrupt(p_star: WeightedPointSet, eps: float,
                     r: WeightedPointSet) -> WeightedPointSet:
    """Mixture (1 - eps) p* + eps r; TV(p*, result) <= eps by construction."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if p_star.dim != r.dim:
        raise ValueError("dimension mismatch")
    if eps == 0.0:
        return p_star
    pts = np.vstack([p_star.points, r.points])
    w = np.concatenate([(1.0 - eps) * p_star.weights, eps * r.weights])
    return WeightedPointSet(pts, w).consolidate()


def tv_corrupt(p_star: WeightedPointSet, delete_mass: Mapping[int, float],
               add_points, add_weights) -> tuple[WeightedPointSet, float]:
    """Delete mass from named atoms and add the same total mass elsewhere.

    ``delete_mass`` maps atom index to deleted mass; deletions may not exceed
    an atom's weight, and the totals must balance. Returns the corrupted
    distribution together with the realized total-variation distance
    (computed exactly; equal to the moved mass unless additions land back on
    depleted atoms).
    """
    w = p_star.weights.copy()
    total_del = 0.0
    for idx, mass in delete_mass.items():
        if mass < 0:
            raise ValueError("deleted mass must be nonnegative")
        if mass > w[idx] + 1e-12:
            raise ValueError(f"cannot delete {mass} from atom {idx} with weight {w[idx]}")
        w[idx] = max(0.0, w[idx] - mass)
        total_del += mass
    add_points = np.atleast_2d(np.asarray(add_points, dtype=float))
    add_weights = np.asarray(add_weights, dtype=float).ravel()
    if add_points.shape[0] == 0 or add_points.size == 0:
        add_points = np.empty((0, p_star.dim))
        add_weights = np.empty(0)
    if add_points.shape[0] != add_weights.shape[0]:
        raise ValueError("added points and masses must have matching length")
    total_add = float(add_weights.sum())
    if abs(total_del - total_add) > 1e-9:
        raise ValueError(f"deleted mass {total_del} does not match added mass {total_add}")
    pts = np.vstack([p_star.points, add_points]) if add_points.size else p_star.points
    weights = np.concatenate([w, add_weights])
    keep = weights > 0
    result = WeightedPointSet(pts[keep], weights[keep] / weights[keep].sum()).consolidate()
    return result, tv_distance(p_star, result)


def square_distribution() -> NamedDistribution:
    """Four uniform atoms on the corners of a planar square embedded in R^3,
    halfspace-symmetric about the origin."""
    offsets = WeightedPointSet.from_points(
        [[-1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
    return NamedDistribution.discrete(np.zeros(3), offsets)


def attack_tetrahedron(z: float) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Move the square corner (1, 1, 0) to the apex (-0.5, -0.5, z), turning
    the square into a tetrahedron at total-variation distance exactly 1/4.
    Returns (clean, corrupted); ``z <= 0`` raises ``ConfigError``."""
    if not z > 0:
        raise ConfigError(f"z must be positive, got {z!r}")
    p_star = square_distribution().atoms_absolute()
    p = WeightedPointSet.from_points(
        [[-1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-0.5, -0.5, float(z)]])
    return p_star, p


def apex_move(p_star: WeightedPointSet, eps: float, z: float) -> WeightedPointSet:
    """Generalized apex move: delete ``eps`` mass greedily from the atoms in
    descending lexicographic order (whole atoms first, matching the
    square-to-tetrahedron construction at eps = 1/4) and add it at the apex
    (-0.5, -0.5, z). TV distance to ``p_star`` is exactly ``eps``.

    Deleting whole atoms first is what breaks the antipodal pairing around
    the center; spreading the deletion evenly would leave the center with
    depth close to 1/2 and no breakdown."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if p_star.dim != 3:
        raise ValueError("apex_move expects three-dimensional atoms")
    if eps == 0.0:
        return p_star
    merged = p_star.consolidate()
    order = np.lexsort(merged.points.T[::-1])[::-1]
    remaining = eps
    delete: dict[int, float] = {}
    for idx in order:
        if remaining <= 1e-15:
            break
        take = min(remaining, float(merged.weights[idx]))
        if take > 0:
            delete[int(idx)] = take
            remaining -= take
    result, _ = tv_corrupt(merged, delete, [[-0.5, -0.5, float(z)]], [eps - remaining])
    return result


def attack_pointmass_1d(p_star: WeightedPointSet, z: float) -> WeightedPointSet:
    """Mixture 0.5 p* + 0.5 delta_z on the line: half the mass moves to z."""
    if p_star.dim != 1:
        raise ValueError("attack_pointmass_1d needs one-dimensional data")
    return additive_corrupt(p_star, 0.5, WeightedPointSet.delta([float(z)]))


def shift_cluster(p_star: WeightedPointSet, eps: float, z: float,
                  cluster_point=None) -> WeightedPointSet:
    """Generic experiment adversary: replace ``eps`` mass by a single far
    atom at distance ``z`` from the weighted centroid along the first axis,
    or at an explicit ``cluster_point``."""
    if cluster_point is None:
        u = np.zeros(p_star.dim)
        u[0] = 1.0
        cluster_point = p_star.mean() + z * u
    return additive_corrupt(p_star, eps, WeightedPointSet.delta(cluster_point))


# ---------------------------------------------------------------------------
# finite-sample corruption
# ---------------------------------------------------------------------------

def constant_cluster(point) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Attack-point generator placing every replacement at one fixed point."""
    point = as_point(point)

    def gen(count: int, rng: np.random.Generator) -> np.ndarray:
        return np.tile(point, (count, 1))

    return gen


def adaptive_corrupt_samples(samples: WeightedPointSet, eps: float,
                             attack_point_fn: Callable[[int, np.random.Generator], np.ndarray],
                             rng: RngLike) -> WeightedPointSet:
    """Replace a Binomial(n, eps) number of sample points by adversarial
    points; the untouched points are bit-identical. Requires uniform
    weights. Deterministic given the seed."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    n = samples.size
    if np.max(np.abs(samples.weights - 1.0 / n)) > 1e-12:
        raise ValueError("adaptive corruption needs uniform sample weights")
    gen = make_rng(rng)
    n_replace = int(gen.binomial(n, eps))
    if n_replace == 0:
        return samples
    idx = gen.choice(n, size=n_replace, replace=False)
    pts = samples.points.copy()
    repl = np.atleast_2d(np.asarray(attack_point_fn(n_replace, gen), dtype=float))
    if repl.shape != (n_replace, samples.dim):
        raise ValueError("attack_point_fn must return a (count, d) array")
    pts[idx] = repl
    return WeightedPointSet(pts, samples.weights)


# ---------------------------------------------------------------------------
# oblivious pipeline: corrupt the population, then sample
# ---------------------------------------------------------------------------

Population = Union[NamedDistribution, WeightedPointSet, "Mixture"]


@dataclass(frozen=True, eq=False)
class Mixture:
    """Finite mixture of populations, for corrupted continuous models."""

    weights: np.ndarray
    components: Sequence[Population]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(self.components) != w.shape[0]:
            raise ValueError("weights and components must align")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)


def sample_population(pop: Population, n: int, rng: RngLike) -> WeightedPointSet:
    """Draw n iid points from a named distribution, an atom set, or a mixture."""
    gen = make_rng(rng)
    if isinstance(pop, NamedDistribution):
        return sample(pop, n, gen)
    if isinstance(pop, WeightedPointSet):
        idx = gen.choice(pop.size, size=n, p=pop.weights)
        return WeightedPointSet.from_points(pop.points[idx])
    if isinstance(pop, Mixture):
        which = gen.choice(len(pop.components), size=n, p=pop.weights)
        dim = (pop.components[0].dim if not isinstance(pop.components[0], Mixture)
               else sample_population(pop.components[0], 1, 0).dim)
        pts = np.empty((n, dim))
        for j, comp in enumerate(pop.components):
            rows = np.flatnonzero(which == j)
            if rows.size:
                pts[rows] = sample_population(comp, rows.size, gen).points
        return WeightedPointSet.from_points(pts)
    raise TypeError(f"cannot sample from {type(pop).__name__}")


def mixture_corrupt(pop: Population, eps: float, r: Population) -> Mixture:
    """Population-level additive corruption (1 - eps) pop + eps r."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return Mixture(np.array([1.0 - eps, eps]), (pop, r))


def oblivious_pipeline(p_star: NamedDistribution,
                       corruptor: Callable[[Population], Population],
                       n: int, rng: RngLike) -> WeightedPointSet:
    """The adversary first corrupts the population, then n points are drawn
    from the corrupted population. ``corruptor`` receives the atom set for
    discrete populations and the named distribution otherwise."""
    base: Population = p_star.atoms_absolute() if p_star.variant == DISCRETE_ATOMS else p_star
    return sample_population(corruptor(base), n, rng)
