"""Points, directions, discrete distributions, and named population models.

The universal representation for empirical and atomic distributions is
:class:`WeightedPointSet`: points with nonnegative weights summing to one.
Parametric populations (isotropic Gaussian, uniform ball, discrete atoms)
live in :class:`NamedDistribution`. All objects are immutable after
construction and all operations here are pure functions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .rng import RngLike, make_rng

WEIGHT_TOL = 1e-9
_MASS_UNIT = 2.0 ** -60   # fixed-point unit of every exact mass

GAUSSIAN = "gaussian_isotropic"
UNIFORM_BALL = "uniform_ball"
DISCRETE_ATOMS = "discrete_atoms"
DISTRIBUTION_VARIANTS = (GAUSSIAN, UNIFORM_BALL, DISCRETE_ATOMS)


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


def as_point(x) -> np.ndarray:
    """Validate and return a finite 1-d coordinate vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a point must be a 1-d vector with d >= 1")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def as_direction(v, normalize: bool = False) -> np.ndarray:
    """Validate a nonzero direction vector; optionally scale it to unit norm."""
    d = as_point(v)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    if normalize:
        d = d / norm
        # renormalize once more to push the norm within 1e-12 of 1
        d = d / float(np.linalg.norm(d))
    return d


def mass_units(weights: np.ndarray) -> np.ndarray:
    """``weights`` rounded once to int64 multiples of ``_MASS_UNIT`` = 2**-60,
    each within 2**-61 of its weight, so a total near 1 stays near 2**60,
    far inside int64."""
    return np.rint(weights / _MASS_UNIT).astype(np.int64)


def row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The equal rows of ``rows`` (n, d), a signed zero equal to its twin, by
    one stable ``np.lexsort`` and its run starts: ``(first, group)``, the
    index of each group's first row in lexicographic order, and each row's."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


@dataclass(frozen=True, eq=False)
class WeightedPointSet:
    """Finite discrete distribution: n points in R^d with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray
    _merged = False   # set once consolidate knows the atoms are distinct

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must form a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if w.shape[0] != pts.shape[0]:
            raise ValueError("weights and points must have matching length")
        if np.any(w < -WEIGHT_TOL):
            raise ValueError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total}")
        pts = pts.copy()
        w = w.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_points(cls, points, weights=None) -> "WeightedPointSet":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if weights is None:
            weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(pts, weights)

    @classmethod
    def delta(cls, point) -> "WeightedPointSet":
        """Unit mass at a single point."""
        return cls(np.atleast_2d(as_point(point)), np.array([1.0]))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def shifted(self, c) -> "WeightedPointSet":
        return WeightedPointSet(self.points + as_point(c), self.weights)

    def consolidate(self) -> "WeightedPointSet":
        """Merge atoms with exactly equal coordinates (weights added).

        Atoms come in lexicographic order, a merged atom's weights are added
        in ascending order, and a zero coordinate is +0.0, so the result does
        not depend on the input order.

        A set that is already merged (no -0.0, and every atom strictly above
        the one before it in lexicographic order, checked in O(n d) with no
        sort) is returned as it is: merging it again would give the same
        bits. The set remembers that it passed the check, and a set built
        here is merged, so a later call returns at once.
        """
        if self._merged:
            return self
        pts = self.points
        if not np.any((pts == 0.0) & np.signbit(pts)):
            rows = np.arange(self.size - 1)
            first = np.argmax(pts[1:] != pts[:-1], axis=1)   # first coordinate that differs
            if np.all(pts[rows + 1, first] > pts[rows, first]):
                object.__setattr__(self, "_merged", True)
                return self
        first, group = row_groups(pts)
        w = np.zeros(first.size)
        ascending = np.argsort(self.weights)
        np.add.at(w, group[ascending], self.weights[ascending])
        merged = WeightedPointSet(pts[first] + 0.0, w)
        object.__setattr__(merged, "_merged", True)
        return merged

    # -- serialization: CSV with header w,x1,...,xd and a JSON mirror --

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["w"] + [f"x{i + 1}" for i in range(self.dim)])
        for w, row in zip(self.weights, self.points):
            writer.writerow([repr(float(w))] + [repr(float(c)) for c in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "WeightedPointSet":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not rows[0] or rows[0][0] != "w":
            raise ValueError("expected CSV header 'w,x1,...,xd'")
        data = [[float(v) for v in row] for row in rows[1:] if row]
        arr = np.asarray(data, dtype=float)
        return cls(arr[:, 1:], arr[:, 0])

    def to_json_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "points": self.points.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WeightedPointSet":
        return cls(np.asarray(obj["points"], dtype=float), np.asarray(obj["weights"], dtype=float))


def project_points(p: WeightedPointSet, v) -> tuple[np.ndarray, np.ndarray]:
    """Inner products of every atom with direction ``v``, paired with weights.

    The output is unsorted and keeps the atom order of ``p``.
    """
    v = as_direction(v)
    if v.shape[0] != p.dim:
        raise ValueError(f"direction has dimension {v.shape[0]}, points have {p.dim}")
    return p.points @ v, p.weights.copy()


def halfspace_mass(p: WeightedPointSet, v, t: float, closed: bool = True) -> float:
    """Probability mass of the halfspace ``{x : v.x >= t}`` (or ``> t`` if open).

    Ties with the boundary hyperplane are resolved by the ``closed`` flag,
    never by perturbation. The mass is an int64 sum of :func:`mass_units`,
    converted to float once, as the depth engines report it.
    """
    values, weights = project_points(p, v)
    inside = values >= t if closed else values > t
    return float(mass_units(weights[inside]).sum() * _MASS_UNIT)


def symmetry_check(atoms: WeightedPointSet, center, tol: float = WEIGHT_TOL) -> bool:
    """Point-reflection test: every atom at offset o needs a partner at -o
    with equal weight (within ``tol``). This is a sufficient condition for
    halfspace symmetry about ``center``; an atom sitting exactly at the
    center pairs with itself.
    """
    center = as_point(center)
    if center.shape[0] != atoms.dim:
        raise ValueError("center dimension mismatch")
    merged = atoms.consolidate()
    offsets = merged.points - center
    weights = merged.weights
    n = merged.size
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i]:
            continue
        if np.max(np.abs(offsets[i])) <= tol:  # self-paired center atom
            used[i] = True
            continue
        match = -1
        for j in range(n):
            if used[j] or j == i:
                continue
            if np.max(np.abs(offsets[i] + offsets[j])) <= tol and abs(weights[i] - weights[j]) <= tol:
                match = j
                break
        if match < 0:
            return False
        used[i] = used[match] = True
    return True


@dataclass(frozen=True, eq=False)
class NamedDistribution:
    """Parametric population model with a known center.

    ``scale`` is the standard deviation for the Gaussian and the radius for
    the uniform ball; it is unused for discrete atoms. ``atoms`` holds offsets
    relative to the center and must pass the point-reflection symmetry check,
    so every variant is halfspace-symmetric about ``center`` by construction.
    """

    variant: str
    center: np.ndarray
    scale: float = 1.0
    atoms: WeightedPointSet | None = None

    def __post_init__(self):
        if self.variant not in DISTRIBUTION_VARIANTS:
            raise ValueError(f"unknown distribution variant {self.variant!r}")
        center = as_point(self.center)
        center = center.copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if self.variant in (GAUSSIAN, UNIFORM_BALL):
            if not (self.scale > 0):
                raise ValueError("scale must be positive")
        if self.variant == DISCRETE_ATOMS:
            if self.atoms is None:
                raise ValueError("discrete_atoms requires an atom set")
            if self.atoms.dim != center.shape[0]:
                raise ValueError("atom dimension must match center")
            if not symmetry_check(self.atoms, np.zeros(center.shape[0])):
                raise ValueError("atom offsets fail the point-reflection symmetry check")

    @classmethod
    def gaussian(cls, center, sigma: float = 1.0) -> "NamedDistribution":
        return cls(GAUSSIAN, as_point(center), float(sigma))

    @classmethod
    def ball(cls, center, radius: float = 1.0) -> "NamedDistribution":
        return cls(UNIFORM_BALL, as_point(center), float(radius))

    @classmethod
    def discrete(cls, center, offsets: WeightedPointSet) -> "NamedDistribution":
        return cls(DISCRETE_ATOMS, as_point(center), 1.0, offsets)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def atoms_absolute(self) -> WeightedPointSet:
        """Atoms translated from center-relative offsets to absolute points."""
        if self.atoms is None:
            raise ValueError(f"{self.variant} has no atoms")
        return self.atoms.shifted(self.center)

    def to_json_dict(self) -> dict:
        obj = {"variant": self.variant, "center": self.center.tolist(), "scale": self.scale}
        if self.atoms is not None:
            obj["atoms"] = self.atoms.to_json_dict()
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NamedDistribution":
        atoms = WeightedPointSet.from_json_dict(obj["atoms"]) if "atoms" in obj else None
        return cls(obj["variant"], np.asarray(obj["center"], dtype=float),
                   float(obj.get("scale", 1.0)), atoms)


def sample(dist: NamedDistribution, n: int, rng: RngLike) -> WeightedPointSet:
    """Draw ``n`` iid points from ``dist`` with uniform weights 1/n.

    Deterministic given the seed: the per-variant call sequence into the
    generator is fixed.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    gen = make_rng(rng)
    d = dist.dim
    if dist.variant == GAUSSIAN:
        pts = dist.center + dist.scale * gen.standard_normal((n, d))
    elif dist.variant == UNIFORM_BALL:
        raw = gen.standard_normal((n, d))
        norms = np.linalg.norm(raw, axis=1)
        norms[norms == 0.0] = 1.0
        radii = dist.scale * gen.random(n) ** (1.0 / d)
        pts = dist.center + raw * (radii / norms)[:, None]
    else:
        atoms = dist.atoms_absolute()
        idx = gen.choice(atoms.size, size=n, p=atoms.weights)
        pts = atoms.points[idx]
    return WeightedPointSet.from_points(pts)
