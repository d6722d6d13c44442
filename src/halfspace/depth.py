"""Tukey depth engines.

The Tukey depth of a point ``mu`` with respect to an atomic distribution is
the infimum over directions ``v`` of the closed-halfspace mass
``sum(w_i for v.(x_i - mu) >= 0)``. Four engines are provided:

* :func:`depth_1d` -- exact, d = 1 (two directions suffice);
* :func:`depth_2d_sweep` / :func:`depth_2d_sweep_many` -- exact, d = 2, by
  angular sweep over half a turn in O(n log n) time and O(n) memory per
  query (queries are processed in blocks); the same sweep about every atom
  gives the exact planar halfspace metric;
* :func:`depth_oracle` -- exact for atomic distributions in any small
  dimension, by enumerating candidate normals anchored at atom subsets and
  resolving atoms on the boundary hyperplane combinatorially (re-scoring
  with rotatable boundary atoms excluded), never by numeric perturbation;
* :func:`depth_sampled` -- a certified upper bound: the minimum over a
  seeded direction battery, which always contains atom-anchored normals;
  :class:`BatteryScorer` is the same bound for many queries, and both cut
  by :func:`_cut_keys`, which moves each key by a bound on its rounding.

Two projection primitives, one rule. :func:`_project_atoms`, one BLAS
product per chunk of :func:`_build_chunks`, projects atom matrices cut only
inside their own certified structure: :class:`BatteryScorer`,
:func:`depth_sampled` and the sampled halfspace metric. :func:`_project_rows`,
coordinate by coordinate with the same bits in any batch, projects every
value compared across batches or with an outside threshold: query keys, the
projection objective's atoms and centers, the oracle's sides, and
``DecayProfile.empirical``, whose rows meet a template family's decay grid.

Atoms coincident with ``mu`` lie on every boundary hyperplane and are always
counted; they can never be rotated off. Every engine reports an int64 sum
of :func:`mass_units`, converted to float once, so the exact engines agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .model import _MASS_UNIT, ConfigError, WeightedPointSet, as_point, mass_units, row_groups
from .rng import RngLike, make_rng

ENGINES = ("auto", "exact1d", "sweep2d", "oracle", "sampled")
ORACLE_SUBSET_GUARD = 10 ** 6
_SWEEP_ATOM_QUERIES = 2_000_000   # auto: planar sweep while queries * n stays within
_ORACLE_SUBSET_QUERIES = 20_000   # auto: oracle while C(n, d - 1) * queries stays within
_WITNESS_RETRIES = 60
_SWEEP_BLOCK = 20_000   # critical angles per planar-sweep block (bounds temporaries)
_SECTOR_MIN = 1e-13     # narrower planar sectors are rounding artefacts
_RESIDENT_BYTES_CAP = 2 ** 30  # resident arrays of one battery scorer or objective
_BLOCK_ROWS = 64               # largest block of directions one pruned step takes
_BUILD_PAIRS = 125_000        # atom x direction projections per construction chunk
_SCORE_PAIRS = 1_000_000      # query x direction pairs per scoring temporary
_LOOP_KEYS = 128              # more keys per row than this: search row by row
_SORT_QUERIES = 8             # a block that this many live queries reach is sorted
_NO_UNITS = np.iinfo(np.int64).max   # the units of a mass that is not known


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Depth value in [0, 1], a direction witnessing (or approaching) the
    infimum, and the engine that produced it."""

    value: float
    witness: np.ndarray
    engine: str

    def to_json_dict(self) -> dict:
        return {"value": self.value, "witness": self.witness.tolist(), "engine": self.engine}


def depth_1d(p: WeightedPointSet, mu) -> DepthResult:
    """Exact depth on the line: the closed mass of the lighter side, as
    :func:`depth_oracle` computes it (on the merged set, the side with the
    smaller open mass), so both engines give the same value and witness."""
    mu = as_point(mu)
    if p.dim != 1 or mu.shape[0] != 1:
        raise ValueError("depth_1d needs one-dimensional data")
    res = depth_oracle(p, mu)
    return DepthResult(res.value, res.witness, "exact1d")


def depth_2d_sweep(p: WeightedPointSet, mu) -> DepthResult:
    """Exact planar depth of one point, in O(n log n) time and O(n) memory:
    a one-row call of :func:`depth_2d_sweep_many`."""
    mu = as_point(mu)
    values, witnesses = depth_2d_sweep_many(p, mu[None, :])
    return DepthResult(float(values[0]), witnesses[0], "sweep2d")


def depth_2d_sweep_many(p: WeightedPointSet, queries) -> tuple[np.ndarray, np.ndarray]:
    """Exact planar depth ``(values, witnesses)`` of each row of ``queries``
    (m, 2), by :func:`_half_turn_sweep` (Rousseeuw & Ruts, AS 307).

    A closed mass at a critical angle is never below its neighborhood, so
    the value is the least ``min(M, W - M)`` over the live sectors, plus the
    units at the query, as a float: the integer :func:`depth_oracle` finds.
    The witness is the winning sector's midpoint, turned by pi when W - M
    is the smaller side. Duplicate atoms are merged, and a row's bits do
    not depend on the batch. O(n log n) time and O(n) memory per query.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if p.dim != 2 or queries.shape[1] != 2:
        raise ValueError("depth_2d_sweep needs two-dimensional data")
    if not np.all(np.isfinite(queries)):
        raise ValueError("point coordinates must be finite")
    p = p.consolidate()
    values, witnesses = np.empty(queries.shape[0]), np.empty((queries.shape[0], 2))
    for rows, crit, ends, open_mass, total, at_query in _half_turn_sweep(
            p.points, mass_units(p.weights), queries):
        least = np.minimum(open_mass, total - open_mass)
        least[ends - crit <= _SECTOR_MIN] = _NO_UNITS
        best = np.argmin(least, axis=1) + p.size * np.arange(len(least))
        turn = least.flat[best] < open_mass.flat[best]          # W - M is the smaller side
        mids = 0.5 * (crit.flat[best] + ends.flat[best]) + np.pi * turn
        witnesses[rows] = np.column_stack([np.cos(mids), np.sin(mids)])
        values[rows] = (least.flat[best] + at_query) * _MASS_UNIT
    return values, witnesses


def _half_turn_sweep(points: np.ndarray, units: np.ndarray, queries: np.ndarray):
    """Angular sweep over half a turn about each row of ``queries`` (m, 2)
    of the distinct atoms ``points`` (n, 2) with int64 ``units`` (n,) of
    any sign, in blocks of about ``_SWEEP_BLOCK`` angles. Yields, per
    block, its slice of the queries and (b, n) arrays of the sorted sector
    starts ``crit`` and ends and the open masses M, with the (b, 1) units
    W off the query and the (b,) units at the query.

    An atom at angle ``theta`` from the query is in the open halfplane of
    the directions from ``e = theta - pi/2`` (mod 2 pi) to half a turn
    later. A sector of directions and its antipode split W as M and W - M,
    so half a turn [0, pi) holds every pair: an atom enters there at
    e < pi, or is open at 0+ and leaves at ``e - pi`` (exact by Sterbenz).
    One sort of these n angles and an int64 cumsum of the signed units give
    every sector's M. Depth reads only sectors wider than ``_SECTOR_MIN``
    (narrower ones are rounding artefacts of its queries); the planar
    metric reads every sector of nonzero width.
    """
    n = len(points)
    rows = max(1, _SWEEP_BLOCK // n)
    for start in range(0, queries.shape[0], rows):
        block = queries[start:start + rows]
        flat = n * np.arange(len(block))        # each row's offset in a flat block
        ox = points[:, 0] - block[:, :1]
        oy = points[:, 1] - block[:, 1:]
        crit = np.arctan2(oy, ox)
        # the atoms are distinct, so at most one sits at a query: with the
        # angle of the atom before it and no units, it adds an empty sector
        at = np.argmax((ox == 0.0) & (oy == 0.0), axis=1) + flat
        hit = (ox.flat[at] == 0.0) & (oy.flat[at] == 0.0)
        at_query = np.where(hit, units[at - flat], 0)
        at = at[hit]
        crit.flat[at] = crit.flat[at - 1 + n * (at % n == 0)]
        crit -= 0.5 * np.pi
        np.add(crit, 2.0 * np.pi, out=crit, where=crit < 0.0)   # the bits of % 2 pi here
        leaves = crit >= np.pi
        np.subtract(crit, np.pi, out=crit, where=leaves)
        signed = np.where(leaves, -units, units)
        signed.flat[at] = 0
        total = (units.sum() - at_query)[:, None]
        order = np.argsort(crit, axis=1) + flat[:, None]
        crit = crit.take(order)
        open_mass = np.cumsum(signed.take(order), axis=1)
        # the last sum is the total less twice the units open at 0+
        open_mass += (total - open_mass[:, -1:]) // 2
        ends = np.concatenate([crit[:, 1:], crit[:, :1] + np.pi], axis=1)
        yield slice(start, start + len(block)), crit, ends, open_mass, total, at_query


# ---------------------------------------------------------------------------
# combinatorial oracle
# ---------------------------------------------------------------------------

def _null_normals(vectors: np.ndarray, d: int) -> list[np.ndarray]:
    """Unit normals orthogonal to the span of ``vectors``.

    Full-rank spans (rank d-1) contribute their unique normal. Degenerate
    spans contribute an orthonormal basis of the orthogonal complement plus
    the normalized projections of the canonical axes onto it.
    """
    if vectors.shape[0] == 0:
        return [np.eye(d)[i] for i in range(d)]
    _, s, vh = np.linalg.svd(vectors, full_matrices=True)
    tol = max(vectors.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if rank >= d:
        return []
    if rank == d - 1:
        return [vh[d - 1]]
    basis = vh[rank:]
    normals = [basis[i] for i in range(basis.shape[0])]
    for i in range(d):
        proj = basis.T @ basis[:, i]
        norm = np.linalg.norm(proj)
        if norm > 1e-12:
            normals.append(proj / norm)
    return normals


def _orth_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the hyperplanes orthogonal to the unit rows of
    ``v`` (b, d), as (b, d, d - 1) stacks of column vectors."""
    return np.linalg.svd(v[:, None, :], full_matrices=True)[2][:, 1:].swapaxes(1, 2)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v`` (..., d), with the bits of
    ``np.linalg.norm`` of that row alone (a dot product, not a reduction)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _rank(off: np.ndarray, btol: float) -> int:
    """Rank of the rows of ``off`` (n, d) at tolerance ``btol``, at least 1:
    along a right singular vector whose singular value is at most btol,
    every row is within btol of the hyperplane it is normal to, so on its
    boundary."""
    return max(1, int(np.sum(np.linalg.svd(off, compute_uv=False) > btol)))


def _subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) indices of the k-subsets of ``range(n)`` in
    ``combinations`` order, which is ``triu_indices``' order for pairs;
    other sizes are read from ``combinations`` into one array."""
    if k == 2:
        return np.column_stack(np.triu_indices(n, 1))
    count = math.comb(n, k)
    flat = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp,
                       count=count * k)
    return flat.reshape(count, k)


def _level_normals(off: np.ndarray, btol: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate normals of one level of full rank d, n >= d: the axes,
    then the normals of the (d - 1)-subsets of ``off`` (n, d) in
    ``combinations`` order (a perpendicular at d = 2, a cross product at
    d = 3 unless it is degenerate, else the null vector of the subset's
    SVD), a degenerate subset giving the :func:`_null_normals` of its span.
    Each is scaled to unit length and signed so that its first coordinate
    above 1e-9 in size is positive; of the normals equal to 12 decimals
    the first is kept.

    Also returns, per normal, whether its first subset is free: of rank
    d - 1 with least singular value above ``btol``, and within ``btol`` of
    the normal's hyperplane. When exactly d - 1 offsets lie there, they are
    that subset, and a direction in the hyperplane has all of them strictly
    on one side: the boundary's minimal mass is 0.
    """
    n, d = off.shape
    rows = off[_subsets(n, d - 1)]                                    # (m, d - 1, d)
    if d == 2:
        raw = np.column_stack([-rows[:, 0, 1], rows[:, 0, 0]])
        regular = np.ones(len(raw), dtype=bool)
        free = _row_norms(rows[:, 0]) > btol
    elif d == 3:
        a, b = rows[:, 0], rows[:, 1]
        raw = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]  # a x b
        size, size_a, size_b = _row_norms(np.stack([raw, a, b]))
        regular = size > 1e-9 * size_a * size_b
        # |a x b| = s_1 s_2 and s_1 <= |(|a|, |b|)|, so this bounds s_2 from below
        free = regular & (size > btol * np.hypot(size_a, size_b))
    else:
        _, s, vh = np.linalg.svd(rows, full_matrices=True)
        regular = np.sum(s > d * np.finfo(float).eps * s[:, :1], axis=1) == d - 1
        raw = vh[:, d - 1]
        free = regular & (s[:, -1] > btol)
    # rounding can lift an anchor of an ill-conditioned subset off its
    # normal's boundary, so a free subset must be found on it
    free &= (np.abs((rows * raw[:, None, :]).sum(axis=2))
             <= btol * _row_norms(raw)[:, None]).all(axis=1)
    parts, flags, at = [np.eye(d)], [np.zeros(d, dtype=bool)], 0
    for j in np.flatnonzero(~regular):
        extra = np.reshape(_null_normals(rows[j], d), (-1, d))
        parts += [raw[at:j], extra]
        flags += [free[at:j], np.zeros(len(extra), dtype=bool)]
        at = j + 1
    v = np.concatenate(parts + [raw[at:]])
    free = np.concatenate(flags + [free[at:]])
    size = _row_norms(v)
    keep = size >= 1e-12
    v, free = v[keep] / size[keep, None], free[keep]
    lead = np.argmax(np.abs(v) > 1e-9, axis=1)     # a unit vector has one
    np.negative(v, out=v, where=v[np.arange(len(v)), lead, None] < 0)
    first = np.sort(row_groups(np.round(v, 12))[0])
    return v[first], free[first]


def _set_values(pts: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Minimal closed masses, in units, of B offset sets at once: ``pts``
    (B, n, k) and ``units`` (B, n), an atom absent from a set sitting at
    the origin with no units.

    k = 1: the total less the heavier open ray. k = 2: the least of the
    total and, over the perpendicular of every offset, the lighter strict
    side plus the value of the line (k = 1) that is its boundary; a least
    halfplane turns until its boundary meets an offset. k >= 3: one
    :func:`_min_closed_mass` per set.
    """
    b, n, k = pts.shape
    if k == 1:
        rays = [np.einsum("bn,bn->b", side, units) for side in (pts[..., 0] > 0, pts[..., 0] < 0)]
        return units.sum(axis=1) - np.maximum(*rays)
    if k > 2:
        return np.array([_min_closed_mass(x, u)[0] for x, u in zip(pts, units)], dtype=np.int64)
    norms = _row_norms(pts)
    # row i: |p_i| times each offset's side of p_i's perpendicular, and along p_i
    dots = (pts[..., ::-1] * [-1.0, 1.0]) @ pts.transpose(0, 2, 1)
    tol = 1e-12 * np.maximum(1.0, norms.max(axis=1))[:, None, None] * norms[..., None]
    above, below = dots > tol, dots < -tol
    on = ~(above | below) * units[:, None, :]
    line = _set_values((pts @ pts.transpose(0, 2, 1)).reshape(-1, n, 1), on.reshape(-1, n))
    strict = np.minimum(np.einsum("bcn,bn->bc", above, units),
                        np.einsum("bcn,bn->bc", below, units))
    least = np.where(norms >= 1e-12, strict + line.reshape(b, n), _NO_UNITS).min(axis=1)
    return np.minimum(units.sum(axis=1), least)


def _sides(off: np.ndarray, units: np.ndarray, normals: np.ndarray,
           btol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``normals`` (c, d): the (c, 2) units of the offsets more
    than ``btol`` above and below its hyperplane, and the (c,) count of
    offsets within ``btol`` of it."""
    dots = _project_rows(off, normals)
    above, below = dots > btol, dots < -btol
    sides = np.column_stack([np.einsum("cn,n->c", above, units),
                             np.einsum("cn,n->c", below, units)])
    return sides, off.shape[0] - above.sum(axis=1) - below.sum(axis=1)


def _boundary_witness(off: np.ndarray, units: np.ndarray, v: np.ndarray,
                      btol: float) -> tuple[np.ndarray, bool]:
    """The witness of the minimal closed mass of the offsets on the
    boundary of normal v, inside its hyperplane, mapped back to ``off``'s
    space, and whether it is decisive."""
    on = np.abs(_project_rows(off, v[None, :])[0]) <= btol
    basis = _orth_basis(v[None, :])[0]
    _, witness, decisive = _min_closed_mass(off[on] @ basis, units[on])
    return basis @ witness, decisive


def _min_closed_mass(offsets: np.ndarray, units: np.ndarray) -> tuple[int, np.ndarray, bool]:
    """Infimum over nonzero directions u of the int64 ``units`` of the
    offsets with ``u.o_i >= 0``.

    Returns ``(value, witness, decisive)``. A decisive witness has every
    nonzero offset strictly off its boundary, so the closed mass along it
    reproduces ``value`` exactly; a non-decisive witness only approaches the
    infimum. Offsets equal to zero are counted unconditionally.

    Offsets whose rank r is below d (at the boundary tolerance) are solved
    in their span, in r coordinates. At full rank every candidate normal of
    :func:`_level_normals` is scored at once: the units strictly on each
    side of every normal are exact integer sums. Atoms on a normal's
    boundary hyperplane add the mass that survives every infinitesimal
    rotation: the minimal closed mass of the boundary offsets inside the
    hyperplane, one dimension lower. It is 0 for a lone offset or a free
    anchor subset; otherwise :func:`_set_values` finds it, for all such
    normals at once, only where the lighter strict side can still reach
    the least value. The winner is the first minimal (normal, side) pair,
    the positive side first, whose witness is decisive, else the first
    minimal pair; only those pairs have their witness composed, which for
    a boundary needs its own witness, one recursion down.
    """
    d = offsets.shape[1]
    norms = _row_norms(offsets)
    zero = int(units[norms == 0.0].sum())
    off, units = offsets[norms > 0.0], units[norms > 0.0]
    n = off.shape[0]
    if n == 0:
        return zero, np.eye(d)[0], True
    if d == 1:
        pos, neg = int(units[off[:, 0] > 0].sum()), int(units[off[:, 0] < 0].sum())
        if pos <= neg:
            return zero + pos, np.array([1.0]), True
        return zero + neg, np.array([-1.0]), True

    btol = 1e-12 * max(1.0, float(norms.max()))
    rank = _rank(off, btol)
    if rank < d:
        span = np.linalg.svd(off, full_matrices=False)[2][:rank].T
        value, witness, decisive = _min_closed_mass(off @ span, units)
        return zero + value, span @ witness, decisive
    normals, free = _level_normals(off, btol)
    # a quarter of a construction chunk's pairs at a time: the dots, the
    # product _project_rows adds to them and two masks take 18 bytes a pair
    step = max(1, _BUILD_PAIRS // (4 * n))
    sides, touching = map(np.concatenate, zip(*[_sides(off, units, normals[at:at + step], btol)
                                                for at in range(0, len(normals), step)]))
    free = (touching <= 1) | (free & (touching == d - 1))
    sub = np.where(free, 0, -1)       # boundary values, -1 where not known yet
    low = zero + sides.min(axis=1)
    best = low[free].min(initial=_NO_UNITS)
    # a boundary value is needed only where it can undercut the best, or tie
    # it ahead of the first minimal pair with no boundary, which is decisive
    sure = np.flatnonzero((touching == 0) & (low == best))
    ahead = np.arange(len(normals)) < (sure[0] if sure.size else len(normals))
    todo = np.flatnonzero(~free & ((low < best) | ((low == best) & ahead)))
    step = max(1, _BUILD_PAIRS // (4 * n * (n if d == 3 else 1)))   # (n, n) tables a set at d = 3
    for at in range(0, len(todo), step):
        rows = todo[at:at + step]
        on = np.abs(_project_rows(off, normals[rows])) <= btol
        pts = np.einsum("nd,bdk->bnk", off, _orth_basis(normals[rows])) * on[..., None]
        sub[rows] = _set_values(pts, units * on)
    best = min(best, (low + sub)[todo].min(initial=_NO_UNITS))
    values = np.where(sub[:, None] >= 0, zero + sides + sub[:, None], _NO_UNITS)
    found, fallback = {}, None
    for flat in np.flatnonzero(values.ravel() == best):
        j, sign = flat // 2, 1.0 - 2.0 * (flat % 2)
        if touching[j] == 0:
            return best, sign * normals[j], True
        if j not in found:
            found[j] = _boundary_witness(off, units, normals[j], btol)
        u, sub_decisive = found[j]
        witness, decisive = _compose_witness(sign * normals[j], u, off, units, zero, best,
                                             btol, sub_decisive)
        if decisive:
            return best, witness, True
        if fallback is None:
            fallback = witness
    return best, fallback, False


def _compose_witness(v: np.ndarray, u: np.ndarray, off: np.ndarray, units: np.ndarray,
                     zero: int, target: int, btol: float,
                     decisive_hint: bool) -> tuple[np.ndarray, bool]:
    """Tilt v slightly toward u so boundary atoms land decisively on the side
    the combinatorial score assigned them, without flipping any strict atom.
    The tilt is verified against ``target`` units (every atom must clear the
    boundary by more than float noise) and halved until it reproduces it."""
    if not decisive_hint:
        return v, False
    dots = off @ v
    u_dots = off @ u
    strict = np.abs(dots) > btol
    margin = np.min(np.abs(dots[strict])) if strict.any() else 1.0
    reach = float(np.max(np.abs(u_dots))) if u_dots.size else 0.0
    delta = 0.5 * margin / reach if reach > 0 else 1.0
    floor = 0.1 * btol
    for _ in range(_WITNESS_RETRIES):
        cand = v + delta * u
        cand = cand / np.linalg.norm(cand)
        new_dots = off @ cand
        if (zero + int(units[new_dots > 0.0].sum()) == target
                and np.min(np.abs(new_dots)) > floor):
            return cand, True
        delta *= 0.5
    return v, False


def depth_oracle(p: WeightedPointSet, mu) -> DepthResult:
    """Exact depth for atomic distributions by combinatorial enumeration.

    Candidate normals are orthogonal to the span of each (d-1)-subset of
    atom offsets (canonical axes serve as fallback for degenerate spans);
    boundary atoms are re-scored recursively, which realizes every mass
    pattern reachable by infinitesimal rotations of the hyperplane. Masses
    are exact sums of :func:`mass_units`, and the value is the least units
    converted to float once, so every exact engine that finds the same
    integer returns the same bits, whatever the weights.

    Raises ``ValueError`` above ``ORACLE_SUBSET_GUARD`` subsets for any
    level. Every level works in the span of its offsets: with n atoms off
    ``mu`` spanning rank r, a level has at most n atoms at rank at most r,
    and its boundary levels fewer of both, so C(n, min(r - 1, n // 2))
    bounds every level's count.
    """
    mu = as_point(mu)
    if mu.shape[0] != p.dim:
        raise ValueError("query point dimension mismatch")
    merged = p.consolidate()
    offsets = merged.points - mu
    norms = _row_norms(offsets)
    n = int(np.count_nonzero(norms))
    k = min(p.dim - 1, n // 2)
    if math.comb(n, k) > ORACLE_SUBSET_GUARD:
        # the count at rank r <= d is no larger: only then is r needed
        k = min(_rank(offsets[norms > 0], 1e-12 * max(1.0, float(norms.max()))) - 1, n // 2)
        if math.comb(n, k) > ORACLE_SUBSET_GUARD:
            raise ValueError(f"oracle guard exceeded: C({n}, {k}) > {ORACLE_SUBSET_GUARD}; "
                             "use depth_sampled")
    value, witness, _ = _min_closed_mass(offsets, mass_units(merged.weights))
    return DepthResult(float(value * _MASS_UNIT), witness, "oracle")


# ---------------------------------------------------------------------------
# sampled engine
# ---------------------------------------------------------------------------

def direction_battery(points: np.ndarray, budget: int, rng: np.random.Generator,
                      anchor: str = "offset", mu: np.ndarray | None = None) -> np.ndarray:
    """Seeded direction set: canonical axes, atom-anchored hyperplane normals
    (both orientations), then uniform sphere directions up to ``budget``.

    ``anchor='offset'`` uses hyperplanes through ``mu`` and d-1 atoms (depth
    queries); ``anchor='difference'`` uses hyperplanes through d atoms
    (distribution comparisons).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d == 1:
        return np.array([[1.0], [-1.0]])
    parts = [np.eye(d), -np.eye(d)]
    if anchor == "offset":
        base = points - as_point(mu)
        subset_size = d - 1
    elif anchor == "difference":
        base = points
        subset_size = d
    else:
        raise ValueError(f"unknown anchor {anchor!r}")
    normals = _anchored_normals(base, subset_size, budget, rng, difference=(anchor == "difference"))
    if normals.size:
        parts.extend([normals, -normals])
    if budget > 0:
        raw = rng.standard_normal((budget, d))
        norms = np.linalg.norm(raw, axis=1)
        raw = raw[norms > 0] / norms[norms > 0][:, None]
        parts.append(raw)
    return np.vstack(parts)


def _anchored_normals(base: np.ndarray, subset_size: int, budget: int,
                      rng: np.random.Generator, difference: bool) -> np.ndarray:
    n, d = base.shape
    if n < subset_size or subset_size < 1:
        return np.empty((0, d))
    total = math.comb(n, subset_size)
    if total <= budget:
        idx = _subsets(n, subset_size)
    else:
        idx = rng.integers(0, n, size=(budget, subset_size))
        distinct = np.ones(len(idx), dtype=bool)
        for a in range(subset_size):
            for b in range(a + 1, subset_size):
                distinct &= idx[:, a] != idx[:, b]
        idx = idx[distinct]
    if idx.size == 0:
        return np.empty((0, d))
    vec = base[idx]                                # (m, subset_size, d)
    if difference:
        vec = vec[:, 1:, :] - vec[:, :1, :]
    if d == 2 and vec.shape[1] == 1:
        flat = vec[:, 0, :]
        normals = np.column_stack([-flat[:, 1], flat[:, 0]])
    elif d == 3 and vec.shape[1] == 2:
        normals = np.cross(vec[:, 0, :], vec[:, 1, :])
    else:
        cap = min(len(vec), 4096)
        normals = np.array([ns[0] if (ns := _null_normals(m, d)) else np.zeros(d)
                            for m in vec[:cap]])
    if normals.size == 0:
        return np.empty((0, d))
    norms = np.linalg.norm(normals, axis=1)
    normals = normals[norms > 1e-12]
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def depth_sampled(p: WeightedPointSet, mu, budget: int = 2048,
                  rng: RngLike = 0) -> DepthResult:
    """Certified upper bound on the depth: the minimum closed-halfspace mass
    over a seeded battery of random and atom-anchored directions. Since the
    infimum for atomic distributions is attained on atom-anchored normals,
    the augmentation makes many instances exact.

    It has the bits of :class:`BatteryScorer` on the same battery, without
    a resident scorer: the battery's lines are projected by
    :func:`_project_atoms` in the scorer's chunks (:func:`_build_chunks`),
    so every atom gets the scorer's bits, and each chunk is cut by
    :func:`_cut_keys` and dropped. The witness is the first line of least
    mass, its +v side first."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    mu = as_point(mu)
    if mu.shape[0] != p.dim:
        raise ValueError("query point dimension mismatch")
    dirs = direction_battery(p.points, budget, make_rng(rng), anchor="offset", mu=mu)
    rows, twin = direction_lines(dirs)
    lines, units = dirs[rows], mass_units(p.weights)
    total, slack = units.sum(), _cut_slack(lines)
    spans = _cut_spans(np.abs(p.points).max(), mu[None, :])
    masses = np.full((len(lines), 2), _NO_UNITS)          # along v, along -v
    for part in _build_chunks(p.size, len(lines)):
        low, high = _cut_keys(lines[part], slack[part], mu[None, :], spans)
        proj = _project_atoms(p.points, lines[part])
        masses[part, 0] = _compare_units(proj, units, low)[:, 0]
        both = np.flatnonzero(twin[part])
        masses[part.start + both, 1] = total - _compare_units(proj[both], units,
                                                              high[both])[:, 0]
    best = int(np.argmin(masses))
    witness = lines[best // 2] * (1.0 - 2.0 * (best % 2))
    return DepthResult(float(masses.flat[best] * _MASS_UNIT), witness, "sampled")


def direction_blocks(c: int):
    """Slices of ``range(c)`` of sizes 1, 2, 4, ... (at most ``_BLOCK_ROWS``):
    the block schedule of every bound-pruned evaluation over a battery of c
    directions. Early blocks are small, so a query that fails at once costs
    little; later ones are large, so a query evaluated in full takes few
    steps."""
    start, size = 0, 1
    while start < c:
        yield slice(start, start + size)
        start += size
        size = min(2 * size, _BLOCK_ROWS)


def guard_resident(structure: str, n: int, c: int, nbytes: int) -> None:
    """Refuse (``ConfigError``) a ``structure`` over n atoms and c
    directions whose resident arrays would take more than
    ``_RESIDENT_BYTES_CAP`` bytes."""
    if nbytes > _RESIDENT_BYTES_CAP:
        raise ConfigError(
            f"{structure} needs {nbytes} bytes for n={n} atoms and c={c} directions, "
            f"above the {_RESIDENT_BYTES_CAP}-byte cap; use a lower budget")


def _build_chunks(n: int, u: int):
    """Slices of ``range(u)`` of ``_BUILD_PAIRS // n`` lines (at least one):
    the construction chunks of a structure over n atoms and u lines. One
    chunk's atom projections are one :func:`_project_atoms` product, whose
    bits may depend on its shape, so every structure that must agree bit
    for bit with another chunks its lines here."""
    step = max(1, _BUILD_PAIRS // n)
    return (slice(start, start + step) for start in range(0, u, step))


def _project_atoms(points: np.ndarray, lines: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """(b, n) projections of the atoms ``points`` (n, d) on ``lines`` (b, d),
    one chunk of :func:`_build_chunks`: one BLAS product ``lines @
    points.T``, written to ``out`` when it is given. For atoms cut only
    inside their own certified structure (module docstring).

    An entry's bits may depend on the chunk's shape (a one-line chunk is a
    matrix-vector product), so structures that must agree bit for bit use
    the same chunks; :func:`_cut_keys` covers the rounding of any summation
    order. A negated line gives the negated products.
    """
    return np.matmul(lines, points.T, out=out)


def _project_rows(points: np.ndarray, dirs: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(c, m) projections of ``points`` (m, d) on ``dirs`` (c, d), written
    to ``out`` when it is given.

    The sum runs coordinate by coordinate, so every entry has the same bits
    whatever else is in the batch (a matrix product may round a lone row
    differently); :func:`_cut_keys` bounds its rounding. The products
    commute, so ``_project_rows(dirs, points)`` is the transpose, bit for
    bit. Each coordinate's products are one outer product of two contiguous
    columns (``np.einsum`` without a summed index: one rounding each, and
    faster than a broadcast multiply), added through one temporary. A
    negated direction gives the negated sums; a zero sum may have either
    sign, which no comparison sees.
    """
    cols, weights = np.ascontiguousarray(points.T), np.ascontiguousarray(dirs.T)
    if out is None:
        out = np.empty((dirs.shape[0], cols.shape[1]))
    np.einsum("j,n->jn", weights[0], cols[0], out=out)
    if len(cols) > 1:
        term = np.empty_like(out)
        for k in range(1, len(cols)):
            np.einsum("j,n->jn", weights[k], cols[k], out=term)
            out += term
    return out


def _cut_keys(lines: np.ndarray, slack: np.ndarray, queries: np.ndarray,
              spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one rounding rule of every battery comparison: (b, m) keys
    ``(low, high)`` of ``queries`` (m, d) on ``lines`` (b, d), given the lines'
    :func:`_cut_slack` and the queries' :func:`_cut_spans` for atoms of
    coordinates at most ``reach`` in size; each depends on one line or one
    query only, so a caller computes it once. The closed mass along v is
    at most the units whose :func:`_project_atoms` value is at least
    ``low``, and along -v the units below ``high``. A d-term dot product
    summed in any order (the queries' coordinate-wise sum, or the atoms'
    matrix product, fused multiply-adds included) is within
    (d·eps/2)·|v|_1·|x|_inf, to first order, of the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1); the
    shift (d + 1)·eps·|v|_1·(reach + |q|_inf), the outer
    product of slack and spans, is over twice that bound for both
    projections, so, barring underflow, no rounding of the atom, the query
    or the shift drops an atom on the boundary. The discrete projection
    objective moves its template jumps by this shift through
    :func:`_shift_keys`, with the template's atoms in ``reach``."""
    return _shift_keys(_project_rows(queries, lines), np.multiply.outer(slack, spans))


def _shift_keys(keys: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_cut_keys` pair of ``keys`` moved by ``shift``: ``keys -
    shift``, and the least float above ``keys + shift``, so a search below
    it counts the values at or below ``keys + shift``."""
    return keys - shift, np.nextafter(keys + shift, math.inf)


def _cut_slack(lines: np.ndarray) -> np.ndarray:
    """(b,) line factors (d + 1)·eps·|v|_1 of the :func:`_cut_keys` shift."""
    return (lines.shape[1] + 1) * np.finfo(float).eps * np.abs(lines).sum(axis=1)


def _cut_spans(reach: float, queries: np.ndarray) -> np.ndarray:
    """(m,) query factors reach + |q|_inf of the :func:`_cut_keys` shift."""
    return reach + np.abs(queries).max(axis=1)


def direction_lines(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lines of a battery ``dirs`` (c, d): its rows grouped when they
    are equal up to sign (a signed zero equals its twin), in order of first
    appearance, in O(c log c).

    Returns ``(rows, twin)``: the index of each line's first row, and
    whether the battery also holds that row's negation. Projections on a
    negated row are the negated projections, bit for bit, so one row per
    line carries every cut of the battery.
    """
    negative = dirs[np.arange(len(dirs)), np.argmax(dirs != 0.0, axis=1)] < 0.0
    first, line = row_groups(np.where(negative[:, None], -dirs, dirs))
    twin = np.zeros(len(first), dtype=bool)
    twin[line[negative != negative[first[line]]]] = True
    by_first = np.argsort(first)
    return first[by_first], twin[by_first]


def sorted_suffix(proj: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``proj`` (c, n) sorted ascending by a plain argsort, and
    the (c, n + 1) int64 tail masses of ``units`` (n,) in each row's order:
    column i holds the units from rank i on, and the last column is 0.

    This is the one cumulative sum of weights over sorted projections. An
    integer sum is exact, so its bits do not depend on the order of its
    terms: tied values may sort in any order and still give the same masses
    at the edges of their run, which is all a search or a count reads. A
    mass is converted to float once, ``suffix * _MASS_UNIT``, and lies
    within about n·2**-61 (plus one rounding) of the float sum. ``proj`` may
    be any view; it is not written to.
    """
    order = np.argsort(proj, axis=1)
    suffix = np.zeros((proj.shape[0], proj.shape[1] + 1), dtype=np.int64)
    np.cumsum(units[order], axis=1, out=suffix[:, 1:])
    np.subtract(units.sum(), suffix, out=suffix)      # total less the units below rank i
    return np.take_along_axis(proj, order, axis=1), suffix


def row_searchsorted(a: np.ndarray, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Binary search of many keys in many sorted rows at once.

    ``a`` (c, n) has ascending rows; ``keys`` (B, m) holds m finite keys for
    each of the B rows ``rows`` (B,) of ``a``.
    Entry (j, i) of the result is ``np.searchsorted(a[rows[j]], keys[j, i],
    side="left")``: the number of entries of that row below the key.

    With few keys per row, all B·m searches advance together, one halving
    step at a time, so a block of directions costs about log2(n) vectorized
    comparisons and no Python loop over its rows. With more than
    ``_LOOP_KEYS`` keys per row, a loop over the rows that searches each
    row's keys in ascending order (each search then starts where the last
    ended) is faster.
    """
    n = a.shape[1]
    if keys.shape[1] > _LOOP_KEYS:
        pos = np.empty(keys.shape, dtype=np.intp)
        for j, row in enumerate(rows):
            ascending = np.argsort(keys[j])
            pos[j, ascending] = np.searchsorted(a[row], keys[j, ascending], side="left")
        return pos
    flat = a.ravel()
    base = (rows * n - 1)[:, None]            # flat index of each row's rank -1
    # Shar's uniform search: the first test settles whether the count is
    # below the largest power of two p <= n or at least n - p + 1, leaving a
    # window of p values that the steps p/2, ..., 1 resolve in bounds; q
    # tracks base + count
    p = 1 << (n.bit_length() - 1)
    q = base + np.where(flat[base + p] < keys, n - p + 1, 0)
    trial = np.empty(keys.shape, dtype=np.intp)
    below = np.empty(keys.shape, dtype=bool)
    step = p >> 1
    while step:
        np.add(q, step, out=trial)
        np.less(flat.take(trial), keys, out=below)
        np.copyto(q, trial, where=below)
        step >>= 1
    return q - base


def _compare_units(proj: np.ndarray, units: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(b, m) integer closed masses without a sort: entry (j, i) is the sum
    of the ``units`` (n,) of the atoms whose projection in row j of ``proj``
    (b, n) is at least ``keys[j, i]``. Rows go in parts whose boolean
    masks stay within the bytes of one construction chunk."""
    b, n = proj.shape
    step = max(1, 8 * _BUILD_PAIRS // (keys.shape[1] * n))
    out = np.empty(keys.shape, dtype=np.int64)
    for at in range(0, b, step):
        mask = proj[at:at + step, None, :] >= keys[at:at + step, :, None]
        out[at:at + step] = np.einsum("jin,n->ji", mask, units)
    return out


class BatteryScorer:
    """Depth upper bounds for many query points under one shared direction
    battery: the minimum over directions of the closed mass at each query.

    Masses are fixed point: the weights are rounded once, at construction,
    by :func:`mass_units`, a closed mass is an exact integer sum of those
    units, and it is converted to float once, so the same query and
    direction give the same bits whichever path computed them and whatever
    else was in the batch.

    The scorer works on the u lines of the battery
    (:func:`direction_lines`): a row and its negation share one line, which
    is projected once and sorted at most once, and both sides of a cut are
    read from it, as the planar sweep reads M and W - M from one sort
    (Rousseeuw & Ruts, AS 307): by :func:`_cut_keys`, the mass along v is
    the units at or above ``low`` and, where the battery holds -v, the mass
    along -v is the units below ``high``, each at least the exact mass.

    The lines are projected in the chunks of :func:`_build_chunks`, straight
    into one (u, n) array, so :func:`depth_sampled` on the same battery
    reads the same bits. A line is sorted in place, with its
    :func:`sorted_suffix` masses, only when a block of
    :func:`direction_blocks` (over lines) that holds it is reached by at
    least ``_SORT_QUERIES`` live queries; a key on a sorted line then costs
    one binary search per side. Below that, a side's mass is a masked sum
    over the unsorted line, in O(n) comparisons and no sort, and the -v side
    is summed only where W less the v side, its lower bound, is below the
    query's running minimum. Since pruning stops most queries within the
    first blocks, most lines are never sorted. Retains at most
    ``8 * u * (2 * n + 1)`` bytes (once every line is sorted) for n atoms,
    and refuses (:func:`guard_resident`, with c = u) a battery that would
    retain more.

    :meth:`bounded_scores` scores in blocks of lines and stops scoring a
    query once it falls below a floor; :meth:`scores` is its floor-free case.
    """

    def __init__(self, p: WeightedPointSet, dirs: np.ndarray):
        rows, self._twin = direction_lines(dirs)
        n, u = p.size, len(rows)
        guard_resident("battery scorer", n, u, 8 * u * (2 * n + 1))
        self.dirs = dirs
        self._lines = dirs[rows]
        self._slack = _cut_slack(self._lines)
        self._units = mass_units(p.weights)
        self._total = self._units.sum()
        self._reach = np.abs(p.points).max()
        self._proj = np.empty((u, n))
        # lines fill in only as they are sorted
        self._suffix = np.empty((u, n + 1), dtype=np.int64)
        self._ranked = np.zeros(u, dtype=bool)
        self._chunk = max(1, _BUILD_PAIRS // n)
        for chunk in _build_chunks(n, u):
            _project_atoms(p.points, self._lines[chunk], out=self._proj[chunk])

    def _rank(self, block: slice) -> None:
        """Sort the lines of ``block`` in place, once, with their suffix
        masses; the blocks are fixed, so a block's lines are sorted together."""
        if self._ranked[block.start]:
            return
        for start in range(block.start, block.stop, self._chunk):
            rows = slice(start, min(start + self._chunk, block.stop))
            self._proj[rows], self._suffix[rows] = sorted_suffix(self._proj[rows], self._units)
        self._ranked[block] = True

    def _least_units(self, block: slice, low: np.ndarray, high: np.ndarray,
                     least: np.ndarray) -> np.ndarray:
        """The running minima ``least`` (m,) lowered to the least closed
        mass, in units, along the directions of the lines of ``block`` at
        the :func:`_cut_keys` columns ``low`` and ``high`` (b, m)."""
        lines = np.arange(block.start, block.start + len(low))
        twin = self._twin[block]
        if self._ranked[block.start]:
            upper = self._suffix[lines[:, None], row_searchsorted(self._proj, low, lines)]
            least = np.minimum(least, upper.min(axis=0))
            if twin.any():
                above = self._suffix[lines[twin][:, None],
                                     row_searchsorted(self._proj, high[twin], lines[twin])]
                least = np.minimum(least, (self._total - above).min(axis=0))
            return least
        upper = _compare_units(self._proj[block], self._units, low)
        least = np.minimum(least, upper.min(axis=0))
        # along -v the mass is at least W - upper (high is above low), so
        # only a line where that is below the least is counted
        rows = np.flatnonzero(twin & (self._total - upper < least).any(axis=1))
        if rows.size:
            above = _compare_units(self._proj[lines[rows]], self._units, high[rows])
            least = np.minimum(least, (self._total - above).min(axis=0))
        return least

    def bounded_scores(self, candidates: np.ndarray, floor: float = -math.inf) -> np.ndarray:
        """Scores of the rows of ``candidates`` (m, d) that stay at or above
        ``floor``.

        Lines are taken in battery order of first appearance, in the
        blocks of :func:`direction_blocks`, each with both of its
        directions where the battery holds both, and a query is no longer
        scored once its running minimum (kept in units) drops below
        ``floor``. A query
        whose score is at or above ``floor`` gets that exact score; any
        other gets its running minimum, which lies below ``floor`` and at or
        above its score. Each mass has the same bits in any batch and on a
        sorted or unsorted line: the atoms' projections are fixed at
        construction, a query's are summed coordinate by coordinate, and
        the mass is an exact integer sum, converted to float once.
        """
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        spans = _cut_spans(self._reach, candidates)
        least = np.full(candidates.shape[0], _NO_UNITS)
        live = np.arange(candidates.shape[0])
        for block in direction_blocks(len(self._lines)):
            if not live.size:
                break
            if live.size >= _SORT_QUERIES:
                self._rank(block)
            dirs, slack = self._lines[block], self._slack[block]
            cols = max(1, _SCORE_PAIRS // len(dirs))
            for at in range(0, live.size, cols):
                part = live[at:at + cols]
                low, high = _cut_keys(dirs, slack, candidates[part], spans[part])
                least[part] = self._least_units(block, low, high, least[part])
            live = live[least[live] * _MASS_UNIT >= floor]
        return np.where(least < _NO_UNITS, least * _MASS_UNIT, math.inf)

    def scores(self, candidates: np.ndarray) -> np.ndarray:
        """Depth upper bound of each row of ``candidates`` (m, d)."""
        return self.bounded_scores(candidates)

    def score(self, point: np.ndarray) -> float:
        return float(self.scores(point[None, :])[0])


def resolve_engine(p: WeightedPointSet, queries: int, engine: str = "auto",
                   budget: int = 2048) -> str:
    """The one engine policy: check ``engine`` for ``p`` and resolve
    ``"auto"`` for ``queries`` depth queries. ``auto`` takes ``exact1d`` at
    d = 1; ``sweep2d`` at d = 2 for one query at any n (one O(n log n)
    sweep, where the sampled engine projects every atom once per
    direction), or while ``queries * n <= _SWEEP_ATOM_QUERIES``; ``oracle``
    while ``C(n, d - 1) * queries <= _ORACLE_SUBSET_QUERIES`` (it
    enumerates the (d - 1)-subsets per query); and ``sampled`` otherwise.
    An unknown name, ``exact1d``/``sweep2d`` on data of another dimension
    and ``budget < 1`` raise ``ConfigError``."""
    if engine not in ENGINES:
        raise ConfigError(f"unknown depth engine {engine!r} (choose from {', '.join(ENGINES)})")
    need = {"exact1d": 1, "sweep2d": 2}.get(engine)
    if need is not None and p.dim != need:
        raise ConfigError(f"--engine {engine} needs {need}-dimensional data, "
                          f"got {p.dim}-dimensional")
    if budget < 1:
        raise ConfigError(f"--budget must be at least 1, got {budget}")
    if engine != "auto":
        return engine
    if p.dim == 1:
        return "exact1d"
    if p.dim == 2 and (queries == 1 or queries * p.size <= _SWEEP_ATOM_QUERIES):
        return "sweep2d"
    if math.comb(p.size, p.dim - 1) * queries <= _ORACLE_SUBSET_QUERIES:
        return "oracle"
    return "sampled"


def compute_depth(p: WeightedPointSet, mu, engine: str = "auto", budget: int = 2048,
                  rng: RngLike = 0) -> DepthResult:
    """Depth of ``mu`` under ``engine``, resolved by :func:`resolve_engine`
    for one query: exact where affordable, the sampled upper bound
    otherwise."""
    engine = resolve_engine(p, 1, engine, budget)
    if engine == "sampled":
        return depth_sampled(p, mu, budget=budget, rng=rng)
    return {"exact1d": depth_1d, "sweep2d": depth_2d_sweep, "oracle": depth_oracle}[engine](p, mu)
