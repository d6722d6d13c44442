"""Tukey medians: locate (approximate) maximizers of the depth.

The Tukey median is a set; these routines return one representative point
plus its depth. ``median_candidates`` maximizes over a deterministic
candidate pool (atoms, pairwise midpoints, centroid, coordinate-wise
median, caller extras); ``median_refine`` improves a start by pattern
search. In one dimension ``median_1d`` is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth import (BatteryScorer, compute_depth, depth_2d_sweep_many, direction_battery,
                    resolve_engine, sorted_suffix)
from .model import _MASS_UNIT, WeightedPointSet, as_point, mass_units, row_groups
from .optimize import floored, pattern_search_min
from .rng import RngLike, make_rng

MIDPOINT_CAP = 100_000
_LEVELS = 8  # step-size levels of the refine's pattern search


@dataclass(frozen=True, eq=False)
class MedianResult:
    point: np.ndarray
    achieved_depth: float
    candidate_count: int
    engine: str

    def to_json_dict(self) -> dict:
        return {"point": self.point.tolist(), "achieved_depth": self.achieved_depth,
                "candidate_count": self.candidate_count, "engine": self.engine}


def weighted_median_interval(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Endpoints of the weighted median set: points whose closed one-sided
    masses are both at least half the total, less 1e-12 for ties. The two
    masses at adjacent ranks add up to the total, so ``lo <= hi`` for any
    weights. A zero endpoint is +0.0, whichever signed zero sorts first."""
    (v,), (suffix,) = sorted_suffix(values[None, :], mass_units(weights))
    # the mass at or below rank i is the total less the mass from rank i + 1
    lower = (suffix[0] - suffix[1:]) * _MASS_UNIT
    upper = suffix[:-1] * _MASS_UNIT
    half = 0.5 * suffix[0] * _MASS_UNIT - 1e-12
    lo = float(v[int(np.argmax(lower >= half))])
    hi = float(v[len(v) - 1 - int(np.argmax((upper >= half)[::-1]))])
    return lo + 0.0, hi + 0.0


def median_1d(p: WeightedPointSet) -> MedianResult:
    """Exact weighted median; the midpoint of the median interval when the
    median set is not a single point."""
    if p.dim != 1:
        raise ValueError("median_1d needs one-dimensional data")
    lo, hi = weighted_median_interval(p.points[:, 0], p.weights)
    point = np.array([lo if lo == hi else 0.5 * (lo + hi)])
    dep = compute_depth(p, point, engine="exact1d")
    return MedianResult(point, dep.value, 1, "exact1d")


def coordinatewise_median(p: WeightedPointSet) -> np.ndarray:
    """Per-coordinate weighted median (interval midpoints), as a point."""
    out = np.empty(p.dim)
    for i in range(p.dim):
        lo, hi = weighted_median_interval(p.points[:, i], p.weights)
        out[i] = lo if lo == hi else 0.5 * (lo + hi)
    return out


def _candidate_pool(p: WeightedPointSet, seed: np.ndarray, extra, midpoint_cap: int,
                    rng: np.random.Generator) -> np.ndarray:
    pts = p.points
    n = pts.shape[0]
    pool = [pts, p.mean()[None, :], seed[None, :]]
    if n >= 2:
        if math.comb(n, 2) <= midpoint_cap:
            ii, jj = np.triu_indices(n, k=1)
        else:
            ii = rng.integers(0, n, size=midpoint_cap)
            jj = rng.integers(0, n, size=midpoint_cap)
            keep = ii != jj
            ii, jj = ii[keep], jj[keep]
        pool.append(0.5 * (pts[ii] + pts[jj]))
    for point in extra:
        pool.append(as_point(point)[None, :])
    pool = np.vstack(pool) + 0.0
    return pool[row_groups(pool)[0]]


def _battery_scorer(p: WeightedPointSet, budget: int, rng: np.random.Generator) -> BatteryScorer:
    """The sampled engine's scorer, on a direction battery drawn from ``rng``."""
    return BatteryScorer(p, direction_battery(p.points, budget, rng, anchor="difference"))


def _exact_scorer(p: WeightedPointSet, engine: str):
    """Batched exact depths ``xs (m, d) -> (m,)`` under ``engine``."""
    if engine == "sweep2d":
        return lambda xs: depth_2d_sweep_many(p, xs)[0]
    return lambda xs: np.array([compute_depth(p, x, engine=engine).value for x in xs])


def _floored_neg_depth(scorer: BatteryScorer):
    """A fresh :func:`~halfspace.optimize.floored` objective ``xs -> -scores``
    over :meth:`BatteryScorer.bounded_scores`: a probe that cannot beat the
    best score so far (the search needs a strict improvement) stops once its
    running minimum over lines reaches that score."""
    return floored(lambda xs, floor: -scorer.bounded_scores(xs, np.nextafter(-floor, math.inf)))


def median_candidates(p: WeightedPointSet, engine: str = "auto", *, extra=(),
                      midpoint_cap: int = MIDPOINT_CAP, budget: int = 2048,
                      rng: RngLike = 0) -> MedianResult:
    """Depth argmax over the candidate pool.

    Ties are broken by the smallest distance to the weighted centroid, then
    lexicographically on the centroid-relative coordinates, which keeps the
    selection deterministic and translation-equivariant. The achieved depth
    is a lower bound on the true maximum depth under exact engines; under
    the sampled engine every candidate is scored against one shared seeded
    direction battery. :func:`resolve_engine` checks ``engine`` and
    ``budget`` and resolves ``"auto"`` for the pool size, before any scorer
    is built.

    Under the sampled engine the coordinate-wise median (always in the
    pool) is scored first, in full; a lone query scores as its pool row
    does, so its score L is at most the top score.
    The pool is then scored with floor ``L - 1e-12``
    (:meth:`BatteryScorer.bounded_scores`): a candidate stops being scored
    once its running minimum drops below the floor, so it keeps a value
    below ``top - 1e-12`` and cannot join the tie set, while every candidate
    that can is scored exactly. The top score, the tie set and the chosen
    point keep their bits.
    """
    gen = make_rng(rng)
    merged = p.consolidate()
    seed = coordinatewise_median(merged)
    pool = _candidate_pool(merged, seed, extra, midpoint_cap, gen)
    eng = resolve_engine(merged, len(pool), engine, budget)
    if eng == "sampled":
        scorer = _battery_scorer(merged, budget, gen)
        low = scorer.scores(seed[None, :])[0]
        scores = scorer.bounded_scores(pool, low - 1e-12)
    else:
        scores = _exact_scorer(merged, eng)(pool)
    top = float(np.max(scores))
    tied = pool[scores >= top - 1e-12]
    center = merged.mean()
    rel = tied - center
    dist = np.linalg.norm(rel, axis=1)
    tied = tied[dist <= dist.min() + 1e-12]
    rel = tied - center
    best = tied[np.lexsort(rel.T[::-1])][0]
    return MedianResult(best, top, len(pool), "candidates")


def median_refine(p: WeightedPointSet, start, engine: str = "auto", *,
                  steps: int = 64, budget: int = 2048, rng: RngLike = 0) -> MedianResult:
    """Pattern-search ascent of the depth from ``start``.

    Probes are axis-aligned and random-direction steps with a geometrically
    shrinking step size (initial step: a quarter of the bounding-box
    diagonal); a move is accepted only when the depth strictly increases,
    so the returned depth never falls below the start's. Deterministic
    given the seed. :func:`resolve_engine` checks ``engine`` and ``budget``
    and resolves ``"auto"`` for the most points the search can probe,
    1 + 4d(steps + 8): the start, then 4d probes per iteration, where at
    most ``steps`` iterations move and one per step level fails.

    Under the sampled engine the search minimizes
    :func:`_floored_neg_depth`, so a probe that cannot beat the incumbent
    costs only the battery blocks it takes to prove it, and the result has
    the bits of exact scoring.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    gen = make_rng(rng)
    start = as_point(start)
    merged = p.consolidate()
    probe_evals = 1 + 4 * merged.dim * (steps + _LEVELS)
    eng = resolve_engine(merged, probe_evals, engine, budget)
    if eng == "sampled":
        scorer = _battery_scorer(merged, budget, gen)
        depths, objective = scorer.scores, _floored_neg_depth(scorer)
    else:
        depths = _exact_scorer(merged, eng)
        objective = lambda xs: -depths(xs)  # noqa: E731
    diameter = float(np.linalg.norm(np.ptp(merged.points, axis=0)))
    if steps == 0:
        return MedianResult(start, float(depths(start[None, :])[0]), 1, "refined")
    point, neg_depth, evals = pattern_search_min(
        objective, start, initial_step=diameter / 4.0, rng=gen, levels=_LEVELS, max_moves=steps)
    return MedianResult(point, -neg_depth, evals, "refined")
