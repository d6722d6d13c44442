"""Tukey depth engines.

The Tukey depth of a point ``mu`` with respect to an atomic distribution is
the infimum over directions ``v`` of the closed-halfspace mass
``sum(w_i for v.(x_i - mu) >= 0)``. Four engines are provided:

* :func:`depth_1d` -- exact, d = 1 (two directions suffice);
* :func:`depth_2d_sweep` / :func:`depth_2d_sweep_many` -- exact, d = 2, by
  angular sweep in O(n log n) time and O(n) memory per query (queries are
  processed in blocks);
* :func:`depth_oracle` -- exact for atomic distributions in any small
  dimension, by enumerating candidate normals anchored at atom subsets and
  resolving atoms on the boundary hyperplane combinatorially (re-scoring
  with rotatable boundary atoms excluded), never by numeric perturbation;
* :func:`depth_sampled` -- a certified upper bound: the minimum over a
  seeded direction battery, which always contains atom-anchored normals.

Atoms coincident with ``mu`` lie on every boundary hyperplane and are always
counted; they can never be rotated off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import ConfigError, WeightedPointSet, as_point
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
_MASS_UNIT = 2.0 ** -60       # fixed-point unit of every sorted-projection mass
_SORT_QUERIES = 8             # a block that this many live queries reach is sorted


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Depth value in [0, 1], a direction witnessing (or approaching) the
    infimum, and the engine that produced it."""

    value: float
    witness: np.ndarray
    engine: str

    def to_json_dict(self) -> dict:
        return {"value": self.value, "witness": self.witness.tolist(), "engine": self.engine}


def _closed_mass(offsets: np.ndarray, weights: np.ndarray, v: np.ndarray) -> float:
    # Canonical evaluation shared by every exact engine so that equal index
    # subsets produce bitwise-equal sums.
    return float(weights[offsets @ v >= 0.0].sum())


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
    """Exact planar depth of each row of ``queries`` (m, 2), by angular sweep
    (Rousseeuw & Ruts, AS 307). Returns ``(values, witnesses)``.

    As the direction angle sweeps the circle, an atom at angle ``theta``
    from the query enters the open halfplane at ``theta - pi/2`` and leaves
    it at ``theta + pi/2``. The closed mass at one of these critical angles
    is never below its neighborhood (the boundary atom is counted on both
    sides), so the infimum is the smallest open-sector mass. After one sort
    of the critical angles, a cumulative sum of the signed weights gives
    every sector's mass up to one constant per query, which is all the
    argmin needs. Sectors no wider than ``_SECTOR_MIN`` are rounding
    artefacts of coincident critical angles and never win. Atoms at the
    query bound no sector and are always counted. The witness is the
    midpoint of the winning sector, and the value is the closed mass along
    it, summed as :func:`_closed_mass` sums it over the merged set (duplicate
    atoms are merged once per call, as :func:`depth_oracle` merges them), so
    a row's bits do not depend on the batch. Costs O(n log n) time and O(n)
    memory per query; queries are processed in blocks of about
    ``_SWEEP_BLOCK`` critical angles.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if p.dim != 2 or queries.shape[1] != 2:
        raise ValueError("depth_2d_sweep needs two-dimensional data")
    if not np.all(np.isfinite(queries)):
        raise ValueError("point coordinates must be finite")
    p = p.consolidate()
    values = np.empty(queries.shape[0])
    witnesses = np.empty((queries.shape[0], 2))
    rows = max(1, _SWEEP_BLOCK // (2 * p.size))
    for start in range(0, queries.shape[0], rows):
        block = queries[start:start + rows]
        ox = p.points[:, 0] - block[:, :1]
        oy = p.points[:, 1] - block[:, 1:]
        at_query = (ox == 0.0) & (oy == 0.0)
        theta = np.arctan2(oy, ox)
        # an atom at the query repeats the critical angles of the row's
        # first other atom, with no weight: it only adds empty sectors
        other = np.argmax(~at_query, axis=1)[:, None]
        theta = np.where(at_query, np.take_along_axis(theta, other, axis=1), theta)
        w = np.where(at_query, 0.0, p.weights)
        leave = (theta + 0.5 * np.pi) % (2.0 * np.pi)
        enter = (theta - 0.5 * np.pi) % (2.0 * np.pi)
        crit = np.concatenate([leave, enter], axis=1)
        order = np.argsort(crit, axis=1)
        crit = np.take_along_axis(crit, order, axis=1)
        signed = np.take_along_axis(np.concatenate([-w, w], axis=1), order, axis=1)
        mass = np.cumsum(signed, axis=1)
        ends = np.concatenate([crit[:, 1:], crit[:, :1] + 2.0 * np.pi], axis=1)
        mass[ends - crit <= _SECTOR_MIN] = math.inf
        best = np.argmin(mass, axis=1)[:, None]
        mids = 0.5 * (np.take_along_axis(crit, best, axis=1)
                      + np.take_along_axis(ends, best, axis=1))[:, 0]
        dirs = np.column_stack([np.cos(mids), np.sin(mids)])
        witnesses[start:start + len(block)] = dirs
        values[start:start + len(block)] = [_closed_mass(p.points - q, p.weights, v)
                                            for q, v in zip(block, dirs)]
    return values, witnesses


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
    """Orthonormal basis of the hyperplane orthogonal to unit vector v,
    as a (d, d-1) matrix of column vectors."""
    _, _, vh = np.linalg.svd(v[None, :], full_matrices=True)
    return vh[1:].T


def _candidate_normals(off: np.ndarray, d: int) -> list[np.ndarray]:
    n = off.shape[0]
    subset_size = min(d - 1, n)
    seen: set[tuple] = set()
    out: list[np.ndarray] = []

    def push(v: np.ndarray):
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            return
        v = v / norm
        lead = np.flatnonzero(np.abs(v) > 1e-9)
        if lead.size and v[lead[0]] < 0:
            v = -v
        key = tuple(np.round(v, 12))
        if key not in seen:
            seen.add(key)
            out.append(v)

    for i in range(d):
        push(np.eye(d)[i])
    for subset in combinations(range(n), subset_size):
        rows = off[list(subset)]
        if d == 2 and rows.shape[0] == 1:
            push(np.array([-rows[0, 1], rows[0, 0]]))
            continue
        if d == 3 and rows.shape[0] == 2:
            cross = np.cross(rows[0], rows[1])
            if np.linalg.norm(cross) > 1e-9 * np.linalg.norm(rows[0]) * np.linalg.norm(rows[1]):
                push(cross)
                continue
        for v in _null_normals(rows, d):
            push(v)
    return out


def _min_closed_mass(offsets: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Infimum over nonzero directions u of ``sum(w_i for u.o_i >= 0)``.

    Returns ``(value, witness, decisive)``. A decisive witness has every
    nonzero offset strictly off its boundary, so the closed mass along it
    reproduces ``value`` exactly; a non-decisive witness only approaches the
    infimum. Offsets equal to zero are counted unconditionally.

    Atoms on a candidate boundary hyperplane are handled by recursion: the
    mass that survives every infinitesimal rotation is itself the minimal
    closed mass of the boundary offsets inside the hyperplane, one dimension
    lower.
    """
    d = offsets.shape[1]
    norms = np.linalg.norm(offsets, axis=1)
    zero_mass = float(weights[norms == 0.0].sum())
    off = offsets[norms > 0.0]
    w = weights[norms > 0.0]
    if off.shape[0] == 0:
        return zero_mass, np.eye(d)[0], True
    if d == 1:
        pos = float(w[off[:, 0] > 0].sum())
        neg = float(w[off[:, 0] < 0].sum())
        if pos <= neg:
            return zero_mass + pos, np.array([1.0]), True
        return zero_mass + neg, np.array([-1.0]), True

    scale = float(norms.max())
    btol = 1e-12 * max(1.0, scale)
    best_value = math.inf
    best_witness = np.eye(d)[0]
    best_decisive = False
    for v in _candidate_normals(off, d):
        dots = off @ v
        boundary = np.abs(dots) <= btol
        pos = float(w[dots > btol].sum())
        neg = float(w[dots < -btol].sum())
        if boundary.any():
            basis = _orth_basis(v)
            sub_val, sub_wit, sub_dec = _min_closed_mass(off[boundary] @ basis, w[boundary])
            u = basis @ sub_wit
        else:
            sub_val, u, sub_dec = 0.0, None, True
        for side_mass, sign in ((pos, 1.0), (neg, -1.0)):
            value = zero_mass + side_mass + sub_val
            improves = value < best_value - 1e-15
            ties = abs(value - best_value) <= 1e-15
            if not improves and not (ties and not best_decisive):
                continue
            if u is None:
                witness, decisive = sign * v, True
            else:
                witness, decisive = _compose_witness(sign * v, u, off, w, zero_mass, value,
                                                     btol, decisive_hint=sub_dec)
            if improves or (ties and decisive and not best_decisive):
                best_value = value
                best_witness = witness
                best_decisive = decisive
    return best_value, best_witness, best_decisive


def _compose_witness(v: np.ndarray, u: np.ndarray, off: np.ndarray, w: np.ndarray,
                     zero_mass: float, target: float, btol: float,
                     decisive_hint: bool) -> tuple[np.ndarray, bool]:
    """Tilt v slightly toward u so boundary atoms land decisively on the side
    the combinatorial score assigned them, without flipping any strict atom.
    The tilt is verified against ``target`` (every atom must clear the
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
        mass = zero_mass + float(w[new_dots > 0.0].sum())
        if abs(mass - target) <= 1e-12 and np.min(np.abs(new_dots)) > floor:
            return cand, True
        delta *= 0.5
    return v, False


def depth_oracle(p: WeightedPointSet, mu) -> DepthResult:
    """Exact depth for atomic distributions by combinatorial enumeration.

    Candidate normals are orthogonal to the span of each (d-1)-subset of
    atom offsets (canonical axes serve as fallback for degenerate spans);
    boundary atoms are re-scored recursively, which realizes every mass
    pattern reachable by infinitesimal rotations of the hyperplane.

    Raises ``ValueError`` above ``ORACLE_SUBSET_GUARD`` subsets for any
    level: recursion keeps at most the n atoms off ``mu`` in fewer
    dimensions, so C(n, min(d - 1, n // 2)) bounds every level's count.
    """
    mu = as_point(mu)
    if mu.shape[0] != p.dim:
        raise ValueError("query point dimension mismatch")
    merged = p.consolidate()
    n = int(np.sum(np.linalg.norm(merged.points - mu, axis=1) > 0))
    k = min(p.dim - 1, n // 2)
    if math.comb(n, k) > ORACLE_SUBSET_GUARD:
        raise ValueError(f"oracle guard exceeded: C({n}, {k}) > {ORACLE_SUBSET_GUARD}; "
                         "use depth_sampled")
    offsets = merged.points - mu
    value, witness, decisive = _min_closed_mass(offsets, merged.weights)
    if decisive:
        value = _closed_mass(offsets, merged.weights, witness)
    return DepthResult(value, witness, "oracle")


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
        idx = np.array(list(combinations(range(n), subset_size)))
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
    the augmentation makes many instances exact."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    mu = as_point(mu)
    if mu.shape[0] != p.dim:
        raise ValueError("query point dimension mismatch")
    gen = make_rng(rng)
    offsets = p.points - mu
    dirs = direction_battery(p.points, budget, gen, anchor="offset", mu=mu)
    best_value = math.inf
    best_v = dirs[0]
    for chunk in np.array_split(dirs, min(len(dirs), len(dirs) * p.size // 2_000_000 + 1)):
        masses = (offsets @ chunk.T >= 0.0).T @ p.weights
        i = int(np.argmin(masses))
        if masses[i] < best_value:
            best_value = float(masses[i])
            best_v = chunk[i]
    return DepthResult(_closed_mass(offsets, p.weights, best_v), best_v, "sampled")


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


def _project_rows(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(c, m) projections of ``points`` (m, d) on ``dirs`` (c, d).

    The sum runs coordinate by coordinate, so every entry has the same bits
    whatever else is in the batch; a matrix product may round a lone row
    differently, which would let a query on an atom miss its own weight.
    """
    out = dirs[:, :1] * points[:, 0]
    for k in range(1, points.shape[1]):
        out += dirs[:, k:k + 1] * points[:, k]
    return out


def mass_units(weights: np.ndarray) -> np.ndarray:
    """``weights`` rounded once to int64 multiples of ``_MASS_UNIT`` = 2**-60,
    each within 2**-61 of its weight, so a total near 1 stays near 2**60,
    far inside int64."""
    return np.rint(weights / _MASS_UNIT).astype(np.int64)


def sorted_suffix(proj: np.ndarray, units: np.ndarray,
                  key: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``proj`` (c, n) sorted ascending by a plain argsort (or,
    given ``key`` (c, n), by ``proj`` with ties broken by ``key``), and the
    (c, n + 1) int64 tail masses of ``units`` (n,) in each row's order:
    column i holds the units from rank i on, and the last column is 0.

    This is the one cumulative sum of weights over sorted projections. An
    integer sum is exact, so its bits do not depend on the order of its
    terms: tied values may sort in any order and still give the same masses
    at the edges of their run, which is all a search or a count reads. A
    mass is converted to float once, ``suffix * _MASS_UNIT``, and lies
    within about n·2**-61 (plus one rounding) of the float sum. ``proj`` may
    be any view; it is not written to.
    """
    order = np.argsort(proj, axis=1) if key is None else np.lexsort((key, proj), axis=1)
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

    The atoms are projected once, coordinate by coordinate, into one (c, n)
    array, one row per direction, in chunks of directions. A row is sorted
    in place, with its :func:`sorted_suffix` masses, only when a block of
    :func:`direction_blocks` that holds it is reached by at least
    ``_SORT_QUERIES`` live queries; a key on a sorted row then costs one
    binary search. Below that, a key's mass is a masked sum over the
    unsorted row, in O(n) comparisons and no sort. Since pruning stops most
    queries within the first blocks, most rows are never sorted. Retains at
    most ``8 * c * (2 * n + 1)`` bytes (once every row is sorted) for n
    atoms and c directions, and refuses (:func:`guard_resident`) a battery
    that would retain more.

    :meth:`bounded_scores` scores in blocks of directions and stops scoring a
    query once it falls below a floor; :meth:`scores` is its floor-free case.
    """

    def __init__(self, p: WeightedPointSet, dirs: np.ndarray):
        n, c = p.size, len(dirs)
        guard_resident("battery scorer", n, c, 8 * c * (2 * n + 1))
        self.dirs = dirs
        self._units = mass_units(p.weights)
        self._proj = np.empty((c, n))
        # rows fill in only as they are sorted
        self._suffix = np.empty((c, n + 1), dtype=np.int64)
        self._ranked = np.zeros(c, dtype=bool)
        self._chunk = max(1, _BUILD_PAIRS // max(1, n))
        for start in range(0, c, self._chunk):
            rows = slice(start, start + self._chunk)
            self._proj[rows] = _project_rows(p.points, dirs[rows])

    def _rank(self, block: slice) -> None:
        """Sort the rows of ``block`` in place, once, with their suffix
        masses; the blocks are fixed, so a block's rows are sorted together."""
        if self._ranked[block.start]:
            return
        for start in range(block.start, block.stop, self._chunk):
            rows = slice(start, min(start + self._chunk, block.stop))
            self._proj[rows], self._suffix[rows] = sorted_suffix(self._proj[rows], self._units)
        self._ranked[block] = True

    def bounded_scores(self, candidates: np.ndarray, floor: float = -math.inf) -> np.ndarray:
        """Scores of the rows of ``candidates`` (m, d) that stay at or above
        ``floor``.

        Directions are taken in battery order, in the blocks of
        :func:`direction_blocks`, and a query is no longer scored once its
        running minimum drops below ``floor``. A query whose score is at or
        above ``floor`` gets that exact score; any other gets its running
        minimum, which lies below ``floor`` and at or above its score. Each
        mass has the same bits in any batch and on a sorted or unsorted
        row: projections are summed coordinate by coordinate, and the mass
        is an exact integer sum, converted to float once.
        """
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        battery = np.arange(len(self.dirs))
        best = np.full(candidates.shape[0], math.inf)
        live = np.arange(candidates.shape[0])
        for block in direction_blocks(len(battery)):
            if not live.size:
                break
            if live.size >= _SORT_QUERIES:
                self._rank(block)
            rows = battery[block]
            cols = max(1, _SCORE_PAIRS // len(rows))
            for at in range(0, live.size, cols):
                part = live[at:at + cols]
                keys = _project_rows(candidates[part], self.dirs[rows])
                if self._ranked[block.start]:
                    units = self._suffix[rows[:, None], row_searchsorted(self._proj, keys, rows)]
                else:
                    units = _compare_units(self._proj[block], self._units, keys)
                best[part] = np.minimum(best[part], units.min(axis=0) * _MASS_UNIT)
            live = live[best[live] >= floor]
        return best

    def scores(self, candidates: np.ndarray) -> np.ndarray:
        """Depth upper bound of each row of ``candidates`` (m, d)."""
        return self.bounded_scores(candidates)

    def score(self, point: np.ndarray) -> float:
        return float(self.scores(point[None, :])[0])


def resolve_engine(p: WeightedPointSet, queries: int, engine: str = "auto",
                   budget: int = 2048) -> str:
    """The one engine policy: check ``engine`` for ``p`` and resolve
    ``"auto"`` for ``queries`` depth queries. ``auto`` takes ``exact1d`` at
    d = 1, ``sweep2d`` at d = 2 while ``queries * n <= _SWEEP_ATOM_QUERIES``,
    ``oracle`` while ``C(n, d - 1) * queries <= _ORACLE_SUBSET_QUERIES`` (it
    enumerates the (d - 1)-subsets per query), and ``sampled`` otherwise.
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
    if p.dim == 2 and queries * p.size <= _SWEEP_ATOM_QUERIES:
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
