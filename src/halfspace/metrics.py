"""Distances, tail-decay profiles, and the bias-bound calculators.

Two distances between atomic distributions are provided: exact total
variation and the halfspace metric (the sup over all halfspaces of the
probability-mass discrepancy; always <= TV). Decay profiles capture the
worst-direction tail mass ``h(t)`` of a centered distribution together with
the generalized inverse ``h^{-1}(y) = inf{x : h(x) < y}``; the bound
calculators turn a profile and a corruption level into worst-case bias
bounds for the Tukey median (additive and TV corruption) and for the
halfspace-metric projection estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, ndtr, ndtri

from .depth import _MASS_UNIT, direction_battery, guard_resident, mass_units, sorted_suffix
from .model import NamedDistribution, WeightedPointSet, as_point
from .rng import RngLike, make_rng

_INVERSE_TOL = 1e-10    # bisection width of numeric generalized inverses


def normal_cdf(x):
    """Standard normal CDF in float64 (scipy's ``ndtr``); a float for scalars."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def normal_sf(x):
    """Standard normal survival function 1 - CDF."""
    return normal_cdf(-np.asarray(x, dtype=float))


def normal_quantile(y: float) -> float:
    """Inverse standard normal CDF (scipy's ``ndtri``)."""
    if not 0.0 < y < 1.0:
        raise ValueError("quantile needs y strictly inside (0, 1)")
    return float(ndtri(y))


def _ball_tail(t, radius: float, dim: int):
    """One-sided projection tail P(v.X > t) for the uniform ball, any unit v."""
    t = np.asarray(t, dtype=float)
    u = np.clip(t / radius, 0.0, 1.0)
    out = np.where(t >= radius, 0.0, 0.5 * (1.0 - betainc(0.5, 0.5 * (dim + 1), u * u)))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True, eq=False)
class DecayProfile:
    """Non-increasing worst-direction tail function h(t) on t >= 0.

    Variants: ``gaussian`` (sigma), ``uniform_ball`` (radius and dimension),
    ``piecewise`` (right-continuous step function given by breakpoints), and
    ``empirical`` (max over a budgeted direction battery of the strict tail
    mass of an atom set about its center; a lower bound on the true sup).
    """

    variant: str
    sigma: float = 1.0
    radius: float = 1.0
    dim: int = 1
    breakpoints: np.ndarray | None = None
    _emp_sorted: np.ndarray | None = field(default=None, repr=False)
    _emp_suffix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "DecayProfile":
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def uniform_ball(cls, radius: float, dim: int) -> "DecayProfile":
        if not radius > 0 or dim < 1:
            raise ValueError("need positive radius and dim >= 1")
        return cls("uniform_ball", radius=float(radius), dim=int(dim))

    @classmethod
    def piecewise(cls, breakpoints) -> "DecayProfile":
        """Step profile from ``[(t_i, h_i), ...]``; t ascending from 0,
        h non-increasing in [0, 1]; h(t) is the value at the largest t_i <= t."""
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 2 or bp.shape[1] != 2 or bp.shape[0] < 1:
            raise ValueError("breakpoints must be a nonempty (m, 2) array")
        if bp[0, 0] != 0.0:
            raise ValueError("first breakpoint must be at t = 0")
        if np.any(np.diff(bp[:, 0]) <= 0):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        if np.any(np.diff(bp[:, 1]) > 0) or np.any(bp[:, 1] < 0) or np.any(bp[:, 1] > 1):
            raise ValueError("breakpoint values must be non-increasing within [0, 1]")
        bp = bp.copy()
        bp.setflags(write=False)
        return cls("piecewise", breakpoints=bp)

    @classmethod
    def empirical(cls, atoms: WeightedPointSet, center, budget: int = 2048,
                  rng: RngLike = 0) -> "DecayProfile":
        """Budgeted empirical profile of an atom set about ``center``.

        The direction battery is seeded and always contains the coordinate
        axes and the normalized atom offsets, so small symmetric templates
        evaluate exactly; random directions fill the rest of the budget.
        """
        center = as_point(center)
        offsets = atoms.points - center
        d = atoms.dim
        gen = make_rng(rng)
        dirs = [np.eye(d), -np.eye(d)]
        norms = np.linalg.norm(offsets, axis=1)
        nz = offsets[norms > 0]
        if nz.size:
            unit = nz / np.linalg.norm(nz, axis=1)[:, None]
            dirs.extend([unit, -unit])
        if budget > 0:
            raw = gen.standard_normal((budget, d))
            raw = raw[np.linalg.norm(raw, axis=1) > 0]
            dirs.append(raw / np.linalg.norm(raw, axis=1)[:, None])
        dirs = np.vstack(dirs)
        n, c = atoms.size, len(dirs)
        guard_resident("decay profile", n, c, 8 * c * (2 * n + 1))
        rows, units = sorted_suffix((offsets @ dirs.T).T, mass_units(atoms.weights))
        suffix = units * _MASS_UNIT
        rows.setflags(write=False)
        suffix.setflags(write=False)
        return cls("empirical", dim=d, _emp_sorted=rows, _emp_suffix=suffix)

    def eval(self, t: float) -> float:
        if t < 0:
            raise ValueError("decay profiles are defined for t >= 0")
        if self.variant == "gaussian":
            return float(normal_sf(t / self.sigma))
        if self.variant == "uniform_ball":
            return _ball_tail(t, self.radius, self.dim)
        if self.variant == "piecewise":
            idx = int(np.searchsorted(self.breakpoints[:, 0], t, side="right")) - 1
            return float(self.breakpoints[idx, 1])
        # empirical: strict mass beyond t, maximized over the battery rows
        pos = np.count_nonzero(self._emp_sorted <= t, axis=1)
        return float(np.take_along_axis(self._emp_suffix, pos[:, None], axis=1).max())

    def inverse(self, y: float) -> float:
        """Generalized inverse inf{x >= 0 : h(x) < y}; +inf if the set is empty."""
        if y > 1.0:
            raise ValueError("generalized inverse needs y <= 1")
        if y <= 0.0:
            return math.inf
        if self.variant == "gaussian":
            q = 1.0 - y
            if q <= 0.0:
                return 0.0
            return max(0.0, self.sigma * normal_quantile(q))
        if self.variant == "piecewise":
            below = self.breakpoints[:, 1] < y
            if not below.any():
                return math.inf
            return float(self.breakpoints[int(np.argmax(below)), 0])
        # numeric profiles: bisection on t (h is non-increasing)
        if self.eval(0.0) < y:
            return 0.0
        if self.variant == "uniform_ball":
            hi = self.radius
        else:
            hi = float(self._emp_sorted.max(initial=0.0)) + 1.0
        if self.eval(hi) >= y:
            return math.inf
        lo = 0.0
        while hi - lo > _INVERSE_TOL:
            mid = 0.5 * (lo + hi)
            if self.eval(mid) < y:
                hi = mid
            else:
                lo = mid
        return hi

    def to_json_dict(self) -> dict:
        if self.variant == "gaussian":
            return {"variant": "gaussian", "sigma": self.sigma}
        if self.variant == "uniform_ball":
            return {"variant": "uniform_ball", "radius": self.radius, "dim": self.dim}
        if self.variant == "piecewise":
            return {"variant": "piecewise", "breakpoints": self.breakpoints.tolist()}
        raise ValueError("empirical profiles do not serialize to JSON")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DecayProfile":
        variant = obj["variant"]
        if variant == "gaussian":
            return cls.gaussian(float(obj["sigma"]))
        if variant == "uniform_ball":
            return cls.uniform_ball(float(obj["radius"]), int(obj["dim"]))
        if variant == "piecewise":
            return cls.piecewise(obj["breakpoints"])
        raise ValueError(f"unknown decay variant {variant!r}")


def decay_for(dist: NamedDistribution, budget: int = 2048, rng: RngLike = 0) -> DecayProfile:
    """Decay profile matching a named distribution (analytic where possible)."""
    if dist.variant == "gaussian_isotropic":
        return DecayProfile.gaussian(dist.scale)
    if dist.variant == "uniform_ball":
        return DecayProfile.uniform_ball(dist.scale, dist.dim)
    return DecayProfile.empirical(dist.atoms, np.zeros(dist.dim), budget=budget, rng=rng)


# ---------------------------------------------------------------------------
# distances between atomic distributions
# ---------------------------------------------------------------------------

def tv_distance(p: WeightedPointSet, q: WeightedPointSet) -> float:
    """Exact total variation between atomic distributions.

    Atoms are aligned by exact coordinate value (so ``-0.0`` meets ``0.0``);
    the value is the summed positive part of the weight differences.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    pc = p.consolidate()
    qc = q.consolidate()
    table: dict[tuple, float] = {}
    for pt, w in zip(pc.points.tolist(), pc.weights):
        table[tuple(pt)] = table.get(tuple(pt), 0.0) + float(w)
    for pt, w in zip(qc.points.tolist(), qc.weights):
        table[tuple(pt)] = table.get(tuple(pt), 0.0) - float(w)
    return sum(v for v in table.values() if v > 0)


def _suffix_masses(values: np.ndarray, weights: np.ndarray, grid: np.ndarray):
    """Closed and open tail masses P(value >= s), P(value > s) on ``grid``."""
    (sv,), (units,) = sorted_suffix(values[None, :], mass_units(weights))
    suffix = units * _MASS_UNIT
    ge = suffix[np.searchsorted(sv, grid, side="left")]
    gt = suffix[np.searchsorted(sv, grid, side="right")]
    return ge, gt


def _scan_direction(v: np.ndarray, p: WeightedPointSet, q: WeightedPointSet,
                    boundary_adjust: bool) -> float:
    """Exact sup over thresholds t of |p(v.x >= t) - q(v.x >= t)| along one v.

    With ``boundary_adjust`` (d = 2 exact mode) the scan also scores the
    subsets reachable by rotating the boundary line infinitesimally about a
    pivot: atoms on the line, ordered along it, can be split into a prefix
    and a suffix.
    """
    pa = p.points @ v
    qa = q.points @ v
    grid = np.unique(np.concatenate([pa, qa]))
    p_ge, p_gt = _suffix_masses(pa, p.weights, grid)
    q_ge, q_gt = _suffix_masses(qa, q.weights, grid)
    best = float(np.max(np.abs(np.concatenate([p_ge - q_ge, p_gt - q_gt]))))
    if not boundary_adjust:
        return best
    perp = np.array([-v[1], v[0]])
    pp = p.points @ perp
    qp = q.points @ perp
    for k, s in enumerate(grid):
        base = p_gt[k] - q_gt[k]
        pos: dict[float, float] = {}
        for locs, deltas in (((pa, pp), p.weights), ((qa, qp), -q.weights)):
            along, across = locs
            on = along == s
            for u, w in zip(across[on], deltas[on]):
                pos[float(u)] = pos.get(float(u), 0.0) + float(w)
        if not pos:
            continue
        deltas = np.array([pos[u] for u in sorted(pos)])
        pref = np.concatenate([[0.0], np.cumsum(deltas)])
        suff = np.concatenate([[0.0], np.cumsum(deltas[::-1])])
        add_hi = max(pref.max(), suff.max())
        add_lo = min(pref.min(), suff.min())
        best = max(best, abs(base + add_hi), abs(base + add_lo))
    return best


def _pair_normals_2d(points: np.ndarray) -> np.ndarray:
    diffs = points[:, None, :] - points[None, :, :]
    diffs = diffs.reshape(-1, 2)
    norms = np.linalg.norm(diffs, axis=1)
    diffs = diffs[norms > 0]
    normals = np.column_stack([-diffs[:, 1], diffs[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    # canonical sign, then dedupe
    flip = (normals[:, 0] < 0) | ((normals[:, 0] == 0) & (normals[:, 1] < 0))
    normals[flip] *= -1
    return np.unique(np.round(normals, 12), axis=0)


def halfspace_metric(p: WeightedPointSet, q: WeightedPointSet, mode: str = "exact",
                     budget: int = 2048, rng: RngLike = 0) -> float:
    """Halfspace metric: sup over directions v and thresholds t of
    |p(v.x >= t) - q(v.x >= t)|.

    ``exact`` mode (d <= 2) enumerates the pair normals of the atom union
    and resolves boundary ties combinatorially; it returns the true sup.
    ``sampled`` mode scans a seeded battery of random and atom-anchored
    directions and is a lower bound on the true sup. Both are <= TV.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    d = p.dim
    if mode == "exact":
        if d > 2:
            raise ValueError("exact mode supports d <= 2; use mode='sampled'")
        if d == 1:
            return _scan_direction(np.array([1.0]), p, q, boundary_adjust=False)
        union = np.vstack([p.points, q.points])
        dirs = np.vstack([_pair_normals_2d(union), np.eye(2)])
        return max(_scan_direction(v, p, q, boundary_adjust=True) for v in dirs)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    union = np.vstack([p.points, q.points])
    dirs = direction_battery(union, budget, make_rng(rng), anchor="difference")
    return max(_scan_direction(v, p, q, boundary_adjust=(d == 2)) for v in dirs)


# ---------------------------------------------------------------------------
# worst-case bias bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One evaluated bias bound; ``value`` is in length units, possibly +inf."""

    model: str
    d: int
    eps: float
    value: float


# Bias-bound arguments within this of 0 are rounding noise of their own
# computation (a few ulps of 1.0): epsilon sits at the breakdown level.
_BREAKDOWN_ROUNDING = 4.0 * np.finfo(float).eps


def _check_eps(eps: float):
    if not 0.0 <= eps < 1.0:
        raise ValueError("corruption level must lie in [0, 1)")


def _inverse_or_breakdown(h: DecayProfile, arg: float) -> float:
    """h^{-1}(arg), or +inf when ``arg`` is not above rounding noise of 0."""
    return math.inf if arg <= _BREAKDOWN_ROUNDING else h.inverse(arg)


def bias_bound_additive(h: DecayProfile, eps: float, d: int) -> BoundReport:
    """Worst-case Tukey-median bias under additive (mixture) corruption."""
    _check_eps(eps)
    h0 = h.eval(0.0)
    shared = ((1.0 - eps) * (1.0 - h0) - eps) / (1.0 - eps)
    if d == 1:
        arg = max(shared, (0.5 - eps) / (1.0 - eps))
    elif d == 2:
        arg = max(shared, (1.0 / 3.0 - eps) / (1.0 - eps))
    else:
        arg = shared
    value = _inverse_or_breakdown(h, arg)
    return BoundReport("additive", d, eps, value)


def bias_bound_tv(h: DecayProfile, eps: float, d: int) -> BoundReport:
    """Worst-case Tukey-median bias under total-variation corruption."""
    _check_eps(eps)
    h0 = h.eval(0.0)
    shared = 1.0 - h0 - 2.0 * eps
    if d == 1:
        arg = max(shared, 0.5 - eps)
    elif d == 2:
        arg = max(shared, 1.0 / 3.0 - eps)
    else:
        arg = shared
    value = _inverse_or_breakdown(h, arg)
    return BoundReport("tv", d, eps, value)


def bias_bound_projection(h: DecayProfile, eps: float, d: int = 0) -> BoundReport:
    """Worst-case bias of the halfspace-metric projection estimator:
    2 h^{-1}(1/2 - eps) for eps < 1/2, +inf beyond."""
    _check_eps(eps)
    value = 2.0 * _inverse_or_breakdown(h, 0.5 - eps)
    return BoundReport("projection", d, eps, value)


def epsilon_tilde(eps: float, n: int, d: int, delta: float, c_vc: float = 0.5) -> float:
    """Effective corruption level at sample size n: the binomial replacement
    term plus a VC-dimension fluctuation term, clipped to [0, 1].

    ``c_vc`` is the unknown universal constant of the VC inequality, exposed
    as a knob (default 0.5) and never asserted as ground truth.
    """
    _check_eps(eps)
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    log_term = math.log(1.0 / delta)
    replace = (math.sqrt(eps) + math.sqrt(log_term / (2.0 * n))) ** 2
    fluct = c_vc * math.sqrt((d + 1.0 + log_term) / n)
    return min(1.0, max(0.0, replace + fluct))
