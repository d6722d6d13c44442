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

from .depth import (_BUILD_PAIRS, _half_turn_sweep, _project_rows, direction_battery,
                    direction_lines, guard_resident, sorted_suffix)
from .model import _MASS_UNIT, NamedDistribution, WeightedPointSet, as_point, mass_units, row_groups
from .rng import RngLike, make_rng


def normal_cdf(x):
    """Standard normal CDF in float64 (scipy's ``ndtr``); a float for scalars."""
    # scipy.special is imported where it is used: at module level it adds
    # about 0.3 s and 20 MB to every import of the package
    from scipy.special import ndtr

    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def normal_sf(x):
    """Standard normal survival function 1 - CDF."""
    return normal_cdf(-np.asarray(x, dtype=float))


def normal_quantile(y: float) -> float:
    """Inverse standard normal CDF (scipy's ``ndtri``)."""
    if not 0.0 < y < 1.0:
        raise ValueError("quantile needs y strictly inside (0, 1)")
    from scipy.special import ndtri   # imported here, as in normal_cdf

    return float(ndtri(y))


def _ball_tail(t, radius: float, dim: int):
    """One-sided projection tail P(v.X > t) for the uniform ball, any unit v."""
    from scipy.special import betainc   # imported here, as in normal_cdf

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
        rows, units = sorted_suffix(_project_rows(offsets, dirs), mass_units(atoms.weights))
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
        if self.variant == "uniform_ball":
            # h(t) < y exactly when I_{(t/r)^2}(1/2, (d + 1)/2) > 1 - 2y
            if y >= 0.5:
                return 0.0
            from scipy.special import betaincinv   # imported here, as in normal_cdf
            return self.radius * math.sqrt(betaincinv(0.5, 0.5 * (self.dim + 1), 1.0 - 2.0 * y))
        # empirical: h(t) < y once t reaches, on every row, the projection
        # just before the row's first suffix mass below y (the last is 0)
        first = np.argmax(self._emp_suffix < y, axis=1)
        jump = self._emp_sorted[np.arange(len(first)), first - 1]
        return max(0.0, float(np.where(first > 0, jump, 0.0).max()))

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

def _signed_union(p: WeightedPointSet, q: WeightedPointSet) -> tuple[np.ndarray, np.ndarray]:
    """The distinct atoms of p and q (lexicographic order, ``-0.0`` folded
    into ``0.0``) and their signed int64 masses: the :func:`mass_units` of
    p less those of q."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    union = np.vstack([p.points, q.points]) + 0.0
    first, group = row_groups(union)
    units = np.zeros(len(first), dtype=np.int64)
    np.add.at(units, group, np.concatenate([mass_units(p.weights), -mass_units(q.weights)]))
    return union[first], units


def tv_distance(p: WeightedPointSet, q: WeightedPointSet) -> float:
    """Exact total variation between atomic distributions: the summed
    positive part of the signed masses of the atom union, in fixed point."""
    _, units = _signed_union(p, q)
    return float(units[units > 0].sum() * _MASS_UNIT)


def _max_signed_tail(points: np.ndarray, units: np.ndarray, dirs: np.ndarray) -> float:
    """Largest |signed mass| of a halfspace cut over the directions ``dirs``.

    The union is projected once per chunk of directions, and each row's
    int64 tails come from one :func:`sorted_suffix`. A cut sits at an edge
    of a run of tied projections, and both of its sides are read: the tail
    from the edge on and the head below it.
    """
    n = len(points)
    best = 0
    step = max(1, _BUILD_PAIRS // n)
    for at in range(0, len(dirs), step):
        ranked, suffix = sorted_suffix(_project_rows(points, dirs[at:at + step]), units)
        edge = np.ones(suffix.shape, dtype=bool)
        edge[:, 1:-1] = ranked[:, 1:] != ranked[:, :-1]
        best = max(best, int(np.abs(suffix[edge]).max()),
                   int(np.abs(suffix[:, :1] - suffix)[edge].max()))
    return best * _MASS_UNIT


def _max_pivot_cut(points: np.ndarray, units: np.ndarray) -> float:
    """Largest |signed mass| of a closed halfplane over the distinct atoms
    ``points`` (N, 2) with signed ``units``, by one :func:`_half_turn_sweep`
    about every atom (Dobkin, Gunopulos & Maass, JCSS 52, 1996).

    A halfplane can be moved, keeping its atom set, until its boundary
    passes through an extreme atom of that set, and then turned about that
    pivot until no other atom is on it. So every cut is, for some pivot and
    a direction inside a sector of nonzero width, one open side of the line
    through the pivot, M or W - M, with the pivot's units a or without
    them. Every such sector counts, however narrow: on nearly collinear
    atoms a real sector can be narrower than the depth sweep's
    ``_SECTOR_MIN``. O(N^2 log N) time and O(N) memory.
    """
    best = 0
    for _, crit, ends, open_mass, total, at_query in _half_turn_sweep(points, units, points):
        live = ends > crit
        for side in (open_mass, total - open_mass):
            best = max(best, int(np.abs(side[live]).max()),
                       int(np.abs(side + at_query[:, None])[live].max()))
    return best * _MASS_UNIT


def halfspace_metric(p: WeightedPointSet, q: WeightedPointSet, mode: str = "exact",
                     budget: int = 2048, rng: RngLike = 0) -> float:
    """Halfspace metric: sup over directions v and thresholds t of
    |p(v.x >= t) - q(v.x >= t)|.

    p and q are merged into one set of distinct atoms with signed
    fixed-point masses, so an atom they share is projected once and no
    threshold splits it from itself; the value is at most TV. ``exact``
    mode (d <= 2) returns the true sup: the cuts of the line at d = 1, and
    at d = 2 a sweep of the halfplanes through each union atom
    (:func:`_max_pivot_cut`). ``sampled`` mode takes a seeded battery of
    random and atom-anchored directions and is a lower bound on the true
    sup.
    """
    points, units = _signed_union(p, q)
    d = points.shape[1]
    if mode == "exact":
        if d > 2:
            raise ValueError("exact mode supports d <= 2; use mode='sampled'")
        if d == 2:
            return _max_pivot_cut(points, units)
        dirs = np.array([[1.0]])
    elif mode == "sampled":
        dirs = direction_battery(np.vstack([p.points, q.points]), budget, make_rng(rng),
                                 anchor="difference")
        dirs = dirs[direction_lines(dirs)[0]]   # a negated row repeats the cuts of its twin
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _max_signed_tail(points, units, dirs)


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
