"""Halfspace-metric projection estimator.

The estimator projects a (corrupted) empirical distribution onto a
translation family of halfspace-symmetric templates: it minimizes, over the
template center ``mu``, the maximum over a direction battery of the exact
one-dimensional sup-distance between the template CDF and the empirical CDF
of the projections (a two-sided Kolmogorov-Smirnov evaluation). Because the
family is a translation family, the estimate is the minimizing center
itself. The battery objective is a lower bound on the true halfspace
metric; the family always contains the clean population, so the objective
at the returned center never exceeds the objective at the true center.

The objective reads one row per line of its drawn battery
(:func:`~halfspace.depth.direction_lines`). A closed halfspace
{v.x <= s} and its complement lie on one line: along -v, the data's and
the template's CDF at t are each one's total mass less its left limit
along v at -t. The kernels read both limits at every jump, so the sups
for v and -v differ by at most the gap between the two total masses (the
fixed-point weights total 1 to about 1e-15) plus rounding.

Each pattern search minimizes its own :func:`~halfspace.optimize.floored`
copy of the objective (``_BatteryObjective.floored``), whatever the
template: a probe that cannot beat the search's incumbent costs the
directions it takes to prove it, often one. Without a floor nothing stops,
so the battery goes to the kernels in one span.

Inside a direction, a continuous (Gaussian or uniform-ball) template is
first evaluated at every ceil(sqrt(n))-th sorted projection. The sorted row
and both CDFs are monotone, so those values bound every block of ranks
between them, and only blocks whose bound can still raise the objective
are evaluated in full; the objective keeps the bits of the full-row
formula.

A discrete template is read only at its own k jumps: between two of them
the template CDF is constant and the empirical one nondecreasing, so one
binary search per jump and limit gives each (center, direction) value in
O(k log n), both limits read at the jump moved by depth's cut shift, so
each value is a certified lower bound on its line's exact sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth import (_cut_slack, _cut_spans, _project_rows, _shift_keys, direction_battery,
                    direction_blocks, direction_lines, guard_resident, row_searchsorted,
                    sorted_suffix)
from .median import coordinatewise_median, median_candidates
from .metrics import DecayProfile, _ball_tail, decay_for, normal_cdf
from .model import (_MASS_UNIT, DISCRETE_ATOMS, GAUSSIAN, UNIFORM_BALL, ConfigError,
                    NamedDistribution, WeightedPointSet, as_point, mass_units, row_groups)
from .optimize import floored, pattern_search_min
from .rng import RngLike, make_rng

_DOMINATION_GRID = 32
_DOMINATION_SLACK = 1e-9
_TEMP_BYTES = 4_000_000      # temporaries of one kernel call or one group of centers
_CDF_SLACK = 1e-12           # covers ulp-level drops of ndtr and betainc along a sorted row


@dataclass(frozen=True, eq=False)
class TemplateFamily:
    """A translation family: one template distribution whose center is the
    free parameter, its decay profile, and a per-coordinate search box."""

    template: NamedDistribution
    decay: DecayProfile
    search_box: np.ndarray

    def __post_init__(self):
        box = np.asarray(self.search_box, dtype=float)
        if box.shape != (self.template.dim, 2) or np.any(box[:, 0] > box[:, 1]):
            raise ValueError("search_box must be (d, 2) with lo <= hi")
        box = box.copy()
        box.setflags(write=False)
        object.__setattr__(self, "search_box", box)
        self._check_decay_dominates()

    def _check_decay_dominates(self):
        """Spot-check that the declared decay profile dominates the
        template's worst one-sided tail, its :func:`~halfspace.metrics.decay_for`
        profile, on a fixed grid out to 8 sigma, the radius or the farthest
        atom."""
        tmpl = self.template
        if tmpl.variant == GAUSSIAN:
            horizon = 8.0 * tmpl.scale
        elif tmpl.variant == UNIFORM_BALL:
            horizon = tmpl.scale
        else:
            horizon = float(np.linalg.norm(tmpl.atoms.points, axis=1).max())
        tail = decay_for(tmpl, budget=512, rng=0)
        for t in np.linspace(0.0, horizon, _DOMINATION_GRID).tolist():
            if tail.eval(t) > self.decay.eval(t) + _DOMINATION_SLACK:
                raise ValueError(
                    f"decay profile does not dominate the template tail at t={t}")

    def to_json_dict(self) -> dict:
        return {"template": self.template.to_json_dict(),
                "decay": self.decay.to_json_dict(),
                "search_box": self.search_box.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TemplateFamily":
        return cls(NamedDistribution.from_json_dict(obj["template"]),
                   DecayProfile.from_json_dict(obj["decay"]),
                   np.asarray(obj["search_box"], dtype=float))


def square_decay_profile() -> DecayProfile:
    """Exact worst-direction tail of the planar unit square template: 1/2 up
    to the face distance 1, 1/4 up to the corner distance sqrt(2), then 0."""
    return DecayProfile.piecewise([[0.0, 0.5], [1.0, 0.25], [math.sqrt(2.0), 0.0]])


def square_template_family(box_halfwidth: float = 4.0) -> TemplateFamily:
    """Square template with its exact decay profile and a centered cube box."""
    from .corruption import square_distribution

    box = np.array([[-box_halfwidth, box_halfwidth]] * 3)
    return TemplateFamily(square_distribution(), square_decay_profile(), box)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    mu_hat: np.ndarray
    objective: float
    evaluations: int
    lines: int          # battery lines (one row each) the objective read
    searches: int       # pattern searches run, one per start

    def to_json_dict(self) -> dict:
        return {**vars(self), "mu_hat": self.mu_hat.tolist()}


class _BatteryObjective:
    """Max over a fixed direction battery of the per-direction sup distance
    between the translated template CDF and the empirical CDF.

    ``dirs`` holds one row per line of the drawn battery, its first row
    (:func:`~halfspace.depth.direction_lines`), so c below counts lines: a
    twin row -v would give its line's value again to about 1e-15 (module
    docstring), and every probe reads at most c directions. The sorted
    projections are (c, n) rows, one per direction, beside one (c, n + 1)
    fixed-point table of the mass below each rank; ``emp_cdf`` and
    ``emp_left`` are views of it. A discrete template keeps its own sorted
    atom projections and table beside them. A continuous template pads the
    rows to whole blocks of ceil(sqrt(n)) ranks, viewed as (c, blocks, step)
    arrays, and keeps (c, k) copies of the rows and both CDFs at its k
    coarse ranks: the first rank of every block and the last rank.
    Construction refuses (:func:`~halfspace.depth.guard_resident`) a battery
    whose resident arrays would take too much memory. Atoms and centers are
    projected by :func:`~halfspace.depth._project_rows`, centers as its
    transpose ``_project_rows(dirs, mus)``, so a center on a data atom, with
    a template atom at 0, meets that atom on every direction.

    Every evaluation runs through :meth:`_sup`, which hands directions to
    the template's kernel in parts, so no temporary is (n, c); under a
    floor the parts are the blocks of
    :func:`~halfspace.depth.direction_blocks`. Calling the objective, or
    :meth:`batch`, gives floor-free values; ``floored()`` gives the objective
    one pattern search minimizes. Both go through the same kernels.
    """

    def __init__(self, family: TemplateFamily, p_hat: WeightedPointSet,
                 budget: int, rng: np.random.Generator):
        if family.template.dim != p_hat.dim:
            raise ValueError("dimension mismatch")
        self.family = family
        p_hat = p_hat.consolidate()
        battery = direction_battery(p_hat.points, budget, rng, anchor="difference")
        self.dirs = battery[direction_lines(battery)[0]]
        tmpl = family.template
        self._discrete = discrete = tmpl.variant == DISCRETE_ATOMS
        n, c = p_hat.size, len(self.dirs)
        if discrete:
            guard_resident("projection objective", n, c, 8 * c * (2 * n + 1))
            self.emp_sorted, self._emp_table = self._sorted_rows(p_hat)
            self.emp_cdf, self.emp_left = self._emp_table[:, 1:], self._emp_table[:, :-1]
            # template atoms are offsets about its center
            self._tpl_sorted, self._tpl_table = self._sorted_rows(tmpl.atoms)
            # the empirical less the template CDF past both supports
            self._tail = self._emp_table[0, -1] - self._tpl_table[0, -1]
            # the cut shift's line factors and its reach: data and template atoms
            self._slack = _cut_slack(self.dirs)
            self._reach = np.abs(p_hat.points).max() + np.abs(tmpl.atoms.points).max()
            # bytes per (center, direction) pair: at most ten 8-byte values per key
            self._pair_bytes = 160 * tmpl.atoms.size
            return
        # blocks of `step` ranks; the coarse ranks are their first ranks and
        # the last rank, and rows are padded to whole blocks
        step = math.isqrt(n - 1) + 1
        width = -(-n // step) * step
        coarse = np.minimum(np.arange(0, n + step - 1, step), n - 1)
        guard_resident("projection objective", n, c, 8 * c * (2 * width + 1 + 3 * coarse.size))
        rows, table = self._sorted_rows(p_hat, width)
        self.emp_sorted, self._emp_table = rows[:, :n], table[:, :n + 1]
        self.emp_cdf, self.emp_left = self._emp_table[:, 1:], self._emp_table[:, :-1]
        self._coarse_sorted = rows[:, coarse]
        self._coarse_cdf = self.emp_cdf[:, coarse]
        self._coarse_left = self.emp_left[:, coarse]
        self._block_sorted = rows.reshape(c, -1, step)
        self._block_cdf = table[:, 1:].reshape(c, -1, step)
        self._block_left = table[:, :-1].reshape(c, -1, step)
        # five coarse rows per (center, direction) pair, and five rows of one
        # block per refined block
        self._pair_bytes = 40 * coarse.size
        self._refine_bytes = 40 * step

    def _sorted_rows(self, atoms: WeightedPointSet,
                     width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The projections of ``atoms`` on the battery, sorted per direction, as
        (c, n) rows, and the (c, n + 1) masses of each row's first k ranks:
        the total less the :func:`~halfspace.depth.sorted_suffix` masses, so
        column 0 is 0 and column k + 1 is the CDF at rank k. Given a
        ``width`` above n, both are padded to it by repeating their last
        column."""
        rows, suffix = sorted_suffix(_project_rows(atoms.points, self.dirs),
                                     mass_units(atoms.weights))
        n, width = atoms.size, width or atoms.size
        table = np.empty((len(rows), width + 1))
        np.subtract(suffix[:, :1], suffix, out=table[:, :n + 1])
        table[:, :n + 1] *= _MASS_UNIT
        table[:, n + 1:] = table[:, n:n + 1]
        return np.pad(rows, ((0, 0), (0, width - n)), mode="edge"), table

    def _template_cdf(self, shifted: np.ndarray) -> np.ndarray:
        """Continuous template CDF at center-relative projection values, the
        ball's exact by :func:`_ball_tail`; scales a Gaussian ``shifted`` in place."""
        tmpl = self.family.template
        if tmpl.variant == GAUSSIAN:
            shifted /= tmpl.scale
            return normal_cdf(shifted)
        tail = _ball_tail(np.abs(shifted), tmpl.scale, tmpl.dim)
        return np.where(shifted >= 0.0, 1.0 - tail, tail)

    def _continuous_block(self, t0: np.ndarray, cols: np.ndarray, running: np.ndarray,
                          floor: float) -> np.ndarray:
        """(r, b) sup distances on directions ``cols`` (b,) for centers whose
        projections on them are ``t0`` (r, b) and whose running maxima are
        ``running`` (r,): the max of the two one-sided differences between
        the empirical and template CDFs, exact wherever a center's max can
        still rise, a lower bound elsewhere.

        The template CDF F is first evaluated at the coarse ranks of each
        row. A rank a <= k <= b between two adjacent coarse ranks has
        ``emp_cdf[k] - F(s_k) <= emp_cdf[b] - F(s_a)`` and
        ``F(s_k) - emp_left[k] <= F(s_b) - emp_left[a]``, since s and both
        CDFs are monotone. Only blocks whose bound exceeds the center's bar,
        the larger of its running max and its best coarse value, less
        ``_CDF_SLACK``, are evaluated in full, so each center's max has the
        bits of the full-row formula; a center whose bar reaches ``floor``
        keeps its coarse values.
        """
        f = self._template_cdf(self._coarse_sorted[cols] - t0[:, :, None])   # (r, b, k)
        cdf, left = self._coarse_cdf[cols], self._coarse_left[cols]
        sup = np.maximum(np.max(cdf - f, axis=2), np.max(f - left, axis=2))
        bound = np.maximum(cdf[:, 1:] - f[..., :-1], f[..., 1:] - left[:, :-1])
        bar = np.maximum(running, sup.max(axis=1))
        bar[bar >= floor] = math.inf
        center, col, block = np.nonzero(bound > (bar - _CDF_SLACK)[:, None, None])
        chunk = max(1, _TEMP_BYTES // self._refine_bytes)
        for at in range(0, center.size, chunk):
            part = slice(at, at + chunk)
            i, j = center[part], col[part]
            np.maximum.at(sup, (i, j), self._block_sups(t0[i, j], cols[j], block[part]))
        return sup

    def _block_sups(self, t: np.ndarray, rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """(T,) sup distances over the ranks of block ``blocks[i]`` of battery
        row ``rows[i]`` for a center projecting to ``t[i]``, by the full-row
        formula. A padded rank repeats the last rank's value and CDF and has
        the total as its left limit, so it never exceeds the last rank."""
        f = self._template_cdf(self._block_sorted[rows, blocks] - t[:, None])
        return np.maximum(np.max(self._block_cdf[rows, blocks] - f, axis=1),
                          np.max(f - self._block_left[rows, blocks], axis=1))

    def _discrete_block(self, t0: np.ndarray, cols: np.ndarray, spans: np.ndarray) -> np.ndarray:
        """(r, b) certified lower bounds on the sup distances between two
        step CDFs on directions ``cols`` (b,) for centers whose projections
        on them are ``t0`` (r, b) and whose cut spans are ``spans`` (r,),
        read at the template jumps x_j = s_j + t.

        With F the empirical CDF and T_j the template mass of its first j
        ranks, T is constant between jumps and F nondecreasing, so the sup
        is the max over j of F(x_j-) - T_{j-1} and T_j - F(x_j), and of
        ``_tail`` past both supports; of tied template atoms the first and
        the last give the limits. F(x_j-) counts the atoms below x_j
        lowered by the :func:`~halfspace.depth._cut_keys` shift, and F(x_j)
        those at or below x_j raised by it: the shift is over twice the
        rounding of x_j and of the data, so no atom changes sides.
        """
        r, b = t0.shape
        jumps = self._tpl_sorted[cols] + t0[:, :, None]               # (r, b, k)
        k = jumps.shape[2]
        shift = np.multiply.outer(spans, self._slack[cols])[:, :, None]
        keys = np.concatenate(_shift_keys(jumps, shift), axis=2).reshape(r * b, 2 * k)
        rows = np.tile(cols, r)
        emp = self._emp_table[rows[:, None], row_searchsorted(self.emp_sorted, keys, rows)]
        emp = emp.reshape(r, b, 2 * k)
        tpl = self._tpl_table[cols]                                    # (b, k + 1)
        rise = np.max(emp[..., :k] - tpl[:, :-1], axis=2)
        fall = np.max(tpl[:, 1:] - emp[..., k:], axis=2)
        return np.maximum(np.maximum(rise, fall, out=rise), self._tail, out=rise)

    def _sup(self, mus: np.ndarray, floor: float = math.inf, order: np.ndarray | None = None,
             per_direction: np.ndarray | None = None) -> np.ndarray:
        """Running max of the per-direction sup distances at the centers
        ``mus`` (m, d), over directions taken in ``order`` (battery order if
        None): in the blocks of :func:`~halfspace.depth.direction_blocks`, a
        center dropping out once its running max reaches ``floor``, or in
        one span with no floor.

        Returns the (m,) values, and fills the kernels' per-direction values
        into ``per_direction`` (m, c) when the caller passes one: certified
        lower bounds for a discrete template; for a continuous one, lower
        bounds that are exact wherever the sup exceeds the kernel's bar. A
        value below ``floor`` is the objective; otherwise it is a lower
        bound on the objective that is at least ``floor``. Each block is
        handed to the template's kernel with each center's running max, in
        parts of at most ``_TEMP_BYTES`` of temporaries. Neither the blocks,
        their order nor the parts change the bits of a value: each entry is
        computed on its own, and a max is exact.
        """
        t0 = _project_rows(self.dirs, mus)                             # (m, c)
        spans = _cut_spans(self._reach, mus) if self._discrete else None
        m, c = t0.shape
        order = np.arange(c) if order is None else order
        pairs = max(1, _TEMP_BYTES // self._pair_bytes)   # (center, direction) pairs per part
        values = np.zeros(m)
        live = np.arange(m)
        for span in direction_blocks(c) if floor < math.inf else [slice(0, c)]:
            live = live[values[live] < floor]
            if not live.size:
                break
            block = order[span]
            for at in range(0, block.size, pairs):
                cols = block[at:at + pairs]
                rows = max(1, pairs // cols.size)
                for start in range(0, live.size, rows):
                    part = live[start:start + rows]
                    t = t0[part[:, None], cols]
                    got = (self._discrete_block(t, cols, spans[part]) if self._discrete
                           else self._continuous_block(t, cols, values[part], floor))
                    if per_direction is not None:
                        per_direction[part[:, None], cols] = got
                    values[part] = np.maximum(values[part], got.max(axis=1))
        return values

    def __call__(self, mu: np.ndarray) -> float:
        return float(self.batch(mu[None, :])[0])

    def batch(self, mus: np.ndarray) -> np.ndarray:
        """The objective at each row of ``mus`` (m, d): the floor-free
        case of :meth:`_sup`, over groups of centers whose (group, c)
        arrays stay within ``_TEMP_BYTES``."""
        group = max(1, _TEMP_BYTES // (8 * len(self.dirs)))
        return np.concatenate([self._sup(mus[at:at + group])
                               for at in range(0, len(mus), group)])

    def floored(self):
        """A fresh :func:`~halfspace.optimize.floored` objective for one
        pattern search, which takes directions in descending order of the
        per-direction values of the center that set the floor (the best so
        far), so most rejected probes stop after one direction. A center
        whose running max reaches the floor stops there (:meth:`_sup`)."""
        order = None

        def evaluate(mus: np.ndarray, floor: float) -> np.ndarray:
            nonlocal order
            per_direction = np.empty((len(mus), len(self.dirs)))
            values = self._sup(mus, floor, order, per_direction)
            best = int(np.argmin(values))
            if values[best] < floor:
                order = np.argsort(-per_direction[best], kind="stable")
            return values

        return floored(evaluate)


def family_distance(mu, family: TemplateFamily, p_hat: WeightedPointSet,
                    budget: int = 2048, rng: RngLike = 0) -> float:
    """Battery estimate of the halfspace metric between the template centered
    at ``mu`` and the empirical distribution; a lower bound on the true sup."""
    mu = as_point(mu)
    gen = make_rng(rng)
    return _BatteryObjective(family, p_hat, budget, gen)(mu)


def project_estimate(p_hat: WeightedPointSet, family: TemplateFamily, *,
                     starts: int = 4, budget: int = 2048, steps: int = 64,
                     rng: RngLike = 0, tukey_start: bool = True,
                     extra_starts=()) -> ProjectionResult:
    """Minimize the battery objective over the template center by pattern
    search from each start. A continuous template starts from the
    coordinate-wise median, the weighted centroid, any caller-provided
    ``extra_starts``, a Tukey candidate point unless ``tukey_start`` is
    False, then ``starts`` seeded random points in the search box. A
    discrete template starts from the ``extra_starts``, then from the best
    center that aligns a template atom onto a data atom (least objective,
    then least point in lexicographic order) and ignores ``starts`` and
    ``tukey_start``. Known-truth experiments pass the true center as an
    extra start, so the result is provably no worse than it. Deterministic
    given the seed; no single search's best objective ever increases.
    ``starts < 0``, ``steps < 0`` and ``budget < 1`` raise ``ConfigError``."""
    for name, value, least in (("starts", starts, 0), ("steps", steps, 0), ("budget", budget, 1)):
        if value < least:
            raise ConfigError(f"--{name} must be at least {least}, got {value}")
    gen = make_rng(rng)
    merged = p_hat.consolidate()
    objective = _BatteryObjective(family, merged, budget, gen)
    box = family.search_box

    def clip(x):
        return np.clip(x, box[:, 0], box[:, 1])

    extras = [clip(as_point(x)) for x in extra_starts]
    total_evals = 0
    if family.template.variant == DISCRETE_ATOMS:
        # Step-CDF objectives are flat away from their minima; the centers
        # that align a template atom onto a data atom sit in their basins,
        # and no other start ends lower than the search from the best one.
        align = (merged.points[:, None, :] - family.template.atoms.points[None, :, :])
        align = align.reshape(-1, p_hat.dim)
        align = clip(align[row_groups(align)[0]])
        if len(align) > 4096:
            align = align[gen.choice(len(align), size=4096, replace=False)]
        align_scores = objective.batch(align)
        total_evals = len(align_scores)
        start_points = [*extras, min(align[align_scores == align_scores.min()], key=tuple)]
    else:
        start_points = [clip(coordinatewise_median(p_hat)), clip(merged.mean()), *extras]
        if tukey_start:
            guess = median_candidates(merged, engine="auto", budget=min(budget, 512),
                                      midpoint_cap=2_000, rng=gen)
            start_points.append(clip(guess.point))
        if starts > 0:
            lows, highs = box[:, 0], box[:, 1]
            start_points.extend(lows + (highs - lows) * gen.random((starts, box.shape[0])))
    diameter = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    best = None
    for x0 in start_points:
        x, fx, evals = pattern_search_min(objective.floored(), np.asarray(x0, dtype=float),
                                          initial_step=diameter / 4.0, rng=gen,
                                          max_moves=steps, box=box)
        total_evals += evals
        key = (fx, tuple(x))
        if best is None or key < best[0]:
            best = (key, x, fx)
    return ProjectionResult(best[1], best[2], total_evals, len(objective.dirs), len(start_points))


def certify_projection_bound(result: ProjectionResult, family: TemplateFamily,
                             true_center, eps_tilde: float) -> bool:
    """Known-truth check: does the estimate land within twice the decay
    inverse at 1/2 - eps_tilde of the true center? Vacuously true once
    eps_tilde reaches 1/2 (the bound is infinite)."""
    if eps_tilde >= 0.5:
        return True
    bound = 2.0 * family.decay.inverse(0.5 - eps_tilde)
    return bool(np.linalg.norm(result.mu_hat - as_point(true_center)) <= bound)
