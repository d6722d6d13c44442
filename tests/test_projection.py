import copy
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfspace as hs
from halfspace import depth, projection
from halfspace.harness import ExperimentConfig, realize_trial
from halfspace.metrics import DecayProfile, _ball_tail, normal_cdf
from halfspace.model import ConfigError, WeightedPointSet
from halfspace.projection import _BatteryObjective
from halfspace.rng import make_rng, spawn_seeds


def centers_on(objective, mus):
    """(m, c) projections of the centers ``mus`` as the objective takes
    them: ``depth._project_rows`` with the battery as the points."""
    return depth._project_rows(objective.dirs, np.atleast_2d(mus))


def gaussian_family(d: int = 1, sigma: float = 1.0, half: float = 5.0) -> hs.TemplateFamily:
    return hs.TemplateFamily(hs.NamedDistribution.gaussian(np.zeros(d), sigma),
                             DecayProfile.gaussian(sigma), np.array([[-half, half]] * d))


class TestTemplateFamily:
    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            hs.TemplateFamily(hs.NamedDistribution.gaussian(np.zeros(2), 1.0),
                              DecayProfile.gaussian(1.0), np.array([[1.0, -1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("template,thin,thick,at", [
        (hs.NamedDistribution.gaussian(np.zeros(2), 1.0), DecayProfile.gaussian(0.2),
         DecayProfile.gaussian(1.0), "0.25806451612903225"),
        (hs.NamedDistribution.ball(np.zeros(3), 1.0), DecayProfile.uniform_ball(0.5, 3),
         DecayProfile.uniform_ball(1.0, 3), "0.03225806451612903"),
        (hs.square_distribution(), DecayProfile.piecewise([[0.0, 0.5], [0.5, 0.25], [1.0, 0.0]]),
         hs.square_decay_profile(), "0.5018177156807757"),
    ], ids=["gaussian", "ball", "square"])
    def test_rejects_non_dominating_decay(self, template, thin, thick, at):
        # a decay profile thinner than the template's own tail must fail, at
        # the first point of the grid (0 to 8 sigma, the radius or the
        # farthest atom, in 32 points) where it falls short
        box = np.array([[-1.0, 1.0]] * template.dim)
        with pytest.raises(ValueError, match=rf"tail at t={at}$"):
            hs.TemplateFamily(template, thin, box)
        assert hs.TemplateFamily(template, thick, box).decay is thick

    def test_square_family_json_round_trip(self):
        fam = hs.square_template_family()
        back = hs.TemplateFamily.from_json_dict(fam.to_json_dict())
        assert back.template.variant == "discrete_atoms"
        assert np.array_equal(back.search_box, fam.search_box)


class TestFamilyDistance:
    def test_identical_delta(self):
        tmpl = hs.NamedDistribution.discrete(np.zeros(2), WeightedPointSet.delta([0.0, 0.0]))
        fam = hs.TemplateFamily(tmpl, DecayProfile.piecewise([[0.0, 0.0]]),
                                np.array([[-1.0, 1.0]] * 2))
        p = WeightedPointSet.delta([0.3, -0.2])
        assert hs.family_distance([0.3, -0.2], fam, p, budget=64, rng=0) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1.0, 1e3, 1e7]))
    def test_a_delta_on_a_data_atom_meets_it(self, d, n, seed, scale):
        # atoms and centers are projected by the same product, so no
        # direction splits a data atom from a template atom centered on it:
        # a delta there is at d_H (n - 1)/n from n distinct uniform atoms
        rng = np.random.default_rng(seed)
        p = WeightedPointSet.from_points(rng.standard_normal((n, d)) * scale).consolidate()
        tmpl = hs.NamedDistribution.discrete(np.zeros(d), WeightedPointSet.delta(np.zeros(d)))
        fam = hs.TemplateFamily(tmpl, DecayProfile.piecewise([[0.0, 0.0]]),
                                np.array([[-1.0, 1.0]] * d))
        objective = _BatteryObjective(fam, p, 64, make_rng(seed))
        assert objective.batch(p.points).max() <= (n - 1) / n + 1e-12

    def test_gaussian_ks_consistency(self):
        fam = gaussian_family()
        p = hs.sample(hs.NamedDistribution.gaussian(np.zeros(1), 1.0), 1000, rng=3)
        assert hs.family_distance([0.0], fam, p, budget=64, rng=1) <= 0.06

    def test_three_sigma_shift_is_visible(self):
        fam = gaussian_family()
        p = hs.sample(hs.NamedDistribution.gaussian(np.zeros(1), 1.0), 2000, rng=5)
        assert hs.family_distance([3.0], fam, p, budget=64, rng=1) >= 0.8

    def test_square_exact_match_and_quarter_move(self):
        fam = hs.square_template_family()
        p_star, tetra = hs.attack_tetrahedron(5.0)
        assert hs.family_distance(np.zeros(3), fam, p_star, budget=256, rng=0) == 0.0
        d = hs.family_distance(np.zeros(3), fam, tetra, budget=256, rng=0)
        assert 0.2 <= d <= 0.25 + 1e-12

    def test_a_lattice_translated_square_reads_zero(self):
        # the template jumps round as v.a + v.mu and the data as v.(a + mu);
        # the cut shift covers both, so data equal to the template read 0
        fam = hs.square_template_family()
        square = fam.template.atoms
        rng = np.random.default_rng(0)
        for seed in range(200):
            mu = rng.integers(-16, 17, 3) / 8.0
            p = WeightedPointSet(square.points + mu, square.weights)
            assert hs.family_distance(mu, fam, p, budget=256, rng=seed) == 0.0

    def test_translation_by_1e7_keeps_objective(self):
        # float64 projections keep the objective at the true center far from
        # the origin, where single precision cannot resolve a unit shift
        dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
        p = hs.sample(dist, 2000, rng=13)
        fam = gaussian_family(d=3, half=4.0)
        far = np.full(3, 1e7)
        fam_far = hs.TemplateFamily(hs.NamedDistribution.gaussian(far, 1.0), fam.decay,
                                    fam.search_box + far[:, None])
        near = hs.family_distance(np.zeros(3), fam, p, budget=128, rng=2)
        moved = hs.family_distance(far, fam_far, p.shifted(far), budget=128, rng=2)
        assert abs(moved - near) <= 1e-8

    def test_gaussian_probe_holds_one_temporary(self):
        # a probe that allocates fresh (n, c) arrays for the shift, the
        # scaled shift and both CDF differences makes the allocator hand
        # pages back to the OS and fault them in again on every call
        p = hs.sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 2000, rng=4)
        objective = _BatteryObjective(gaussian_family(d=3, sigma=0.7), p, 128, hs.make_rng(6))
        c, n = objective.emp_sorted.shape
        mu = np.array([0.1, -0.2, 0.05])
        tracemalloc.start()
        try:
            value = objective(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * c * 8
        f = normal_cdf((objective.emp_sorted - centers_on(objective, mu).T) / 0.7)
        want = max(np.max(objective.emp_cdf - f), np.max(f - objective.emp_left), 0.0)
        assert value == want
        assert objective(mu) == value

    def test_dimension_mismatch(self):
        fam = gaussian_family(d=2)
        with pytest.raises(ValueError):
            hs.family_distance([0.0, 0.0], fam, WeightedPointSet.delta([0.0]), budget=8, rng=0)


def full_row_sups(objective, mus):
    """(m, c) per-direction sup distances at the centers ``mus`` by the
    full-row formula: the template CDF at every sorted projection; a
    uniform ball's is its incomplete-beta tail of |s|, taken from 1 at
    s >= 0."""
    tmpl = objective.family.template
    out = np.empty((len(mus), len(objective.dirs)))
    for i, t in enumerate(centers_on(objective, mus)):
        shifted = objective.emp_sorted - t[:, None]
        if tmpl.variant == "gaussian_isotropic":
            f = normal_cdf(shifted / tmpl.scale)
        else:
            tail = _ball_tail(np.abs(shifted), tmpl.scale, tmpl.dim)
            f = np.where(shifted >= 0.0, 1.0 - tail, tail)
        out[i] = np.maximum(np.max(objective.emp_cdf - f, axis=1),
                            np.max(f - objective.emp_left, axis=1))
    return out


@st.composite
def continuous_cases(draw):
    """Gaussian (several scales) or uniform-ball templates over sample
    sizes on both sides of whole blocks, with tied projections, -0.0
    coordinates, an optional 1e7 translation, and centers at atoms, near
    the data and far enough out that the template CDF saturates."""
    n = draw(st.sampled_from([1, 2, 3, 43, 44, 45, 46, 50, 2000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spacing = draw(st.sampled_from([0.0, 0.25, 1.0]))
    pts = rng.standard_normal((n, 3))
    if spacing:
        pts = np.round(pts / spacing) * spacing
        pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    # weights over six decades make some block bounds nearly tight
    w = 10.0 ** rng.uniform(-6.0, 0.0, n) if draw(st.booleans()) else np.ones(n)
    centers = np.vstack([pts[rng.integers(0, n, 2)], 0.3 * rng.standard_normal((3, 3)),
                         [[50.0, 0.0, 0.0], [0.0, -50.0, -0.0], [-0.0, 0.0, 0.0]]])
    shift = draw(st.sampled_from([0.0, 1e7]))
    p = WeightedPointSet(pts + shift, w / w.sum())
    scale = draw(st.sampled_from([0.3, 1.0, 2.5]))
    family = draw(st.sampled_from([gaussian_family(d=3, sigma=scale),
                                   ball_family(radius=scale)]))
    return family, p, centers + shift


class TestContinuousKernel:
    @settings(max_examples=60, deadline=None)
    @given(continuous_cases(), st.integers(0, 3))
    def test_equals_the_full_row_formula_per_direction(self, case, seed):
        family, p, centers = case
        objective = _BatteryObjective(family, p, 8, hs.make_rng(seed))
        want = full_row_sups(objective, centers)
        t0 = centers_on(objective, centers)
        got = np.empty(t0.shape)
        for j in range(t0.shape[1]):
            cols = np.array([j])
            got[:, [j]] = objective._continuous_block(t0[:, cols], cols, np.zeros(len(t0)),
                                                      math.inf)
        assert got.tobytes() == want.tobytes()
        assert objective.batch(centers).tobytes() == np.maximum(want.max(axis=1), 0.0).tobytes()

    def test_refines_a_block_that_beats_its_coarse_ranks_by_1e_13(self):
        # ranks 40-45 project, less the center's 3, to exactly -3.0, where
        # the template CDF is flat; ranks 41-49 weigh 1e-12 each, so the
        # row's sup sits inside the block of ranks 40-48, about 1.2e-13
        # above its best coarse value, and that block's bound only 2e-13
        # above it
        pts = np.concatenate([-100.0 - np.arange(40.0), np.arange(6) * 1e-17,
                              [0.5, 1.0, 1.5, 2.0]])
        w = np.concatenate([np.ones(41), np.full(9, 1e-12)])
        p = WeightedPointSet(pts[:, None], w / w.sum())
        objective = _BatteryObjective(gaussian_family(), p, 8, hs.make_rng(0))
        assert objective._block_sorted.shape[2] == 8
        mu = np.array([[3.0]])
        want = full_row_sups(objective, mu)
        t0 = centers_on(objective, mu)
        got = [objective._continuous_block(t0[:, [j]], np.array([j]), np.zeros(1), math.inf)
               for j in range(t0.shape[1])]
        assert np.hstack(got).tobytes() == want.tobytes()
        f = normal_cdf(objective._coarse_sorted[0] - 3.0)
        coarse_best = np.max(objective._coarse_cdf[0] - f)
        assert 0.0 < want[0, 0] - coarse_best < 1e-12

    @pytest.mark.parametrize("x0", [1.0, -1.0])
    def test_normal_cdf_drops_by_ulps_where_the_slack_covers_it(self, x0):
        # scipy's ndtr is not monotone between adjacent floats, so a block
        # bound needs the slack to stay an upper bound
        x = np.sort((np.float64(x0).view(np.int64) + np.arange(-10_000, 10_000)).view(np.float64))
        drops = -np.diff(normal_cdf(x))
        assert drops.max() > 0.0
        assert drops.max() < 1e-3 * projection._CDF_SLACK

    @pytest.mark.parametrize("x0", [0.5, -0.5])
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_ball_cdf_drops_by_ulps_where_the_slack_covers_it(self, d, x0):
        # the uniform ball's CDF, from scipy's betainc, is not monotone
        # between adjacent floats either; it drops by at most 2.2e-16
        objective = object.__new__(_BatteryObjective)
        objective.family = ball_family(d=d)
        x = np.sort((np.float64(x0).view(np.int64) + np.arange(-10_000, 10_000)).view(np.float64))
        drops = -np.diff(objective._template_cdf(x))
        assert drops.max() > 0.0
        assert drops.max() < 1e-3 * projection._CDF_SLACK


class TestObjectiveMemoryGuard:
    def test_refuses_arrays_above_the_cap(self, monkeypatch):
        p = hs.sample(hs.NamedDistribution.gaussian(np.zeros(2), 1.0), 300, rng=1)
        fam = gaussian_family(d=2)
        c = len(_BatteryObjective(fam, p, 32, hs.make_rng(0)).dirs)
        # the sorted rows and the table of masses below each rank, padded to
        # 17 whole blocks of 18 = ceil(sqrt(300)) ranks, and three (c, 18)
        # coarse tables (the first rank of each block and the last rank),
        # float64
        resident = 8 * c * (2 * 306 + 1 + 3 * 18)
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", resident - 1)
        with pytest.raises(ConfigError, match=f"projection objective needs {resident} "
                                              f"bytes for n=300 atoms and c={c} directions"):
            _BatteryObjective(fam, p, 32, hs.make_rng(0))
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", resident)
        _BatteryObjective(fam, p, 32, hs.make_rng(0))

    def test_discrete_template_counts_two_arrays(self, monkeypatch):
        fam = hs.square_template_family()
        _, tetra = hs.attack_tetrahedron(5.0)
        c = len(_BatteryObjective(fam, tetra, 64, hs.make_rng(0)).dirs)
        n = tetra.consolidate().size
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", 8 * c * (2 * n + 1) - 1)
        with pytest.raises(ValueError, match="lower budget"):
            _BatteryObjective(fam, tetra, 64, hs.make_rng(0))
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", 8 * c * (2 * n + 1))
        _BatteryObjective(fam, tetra, 64, hs.make_rng(0))


def ball_family(d: int = 3, radius: float = 1.0, half: float = 4.0) -> hs.TemplateFamily:
    return hs.TemplateFamily(hs.NamedDistribution.ball(np.zeros(d), radius),
                             DecayProfile.uniform_ball(radius, d), np.array([[-half, half]] * d))


def cluster_sample(dist, n, seed):
    clean = hs.sample(dist, n, rng=seed)
    return hs.adaptive_corrupt_samples(clean, 0.1, hs.constant_cluster([50.0, 0.0, 0.0]),
                                       rng=seed + 1)


def counted_estimate(monkeypatch, floored, p, family, **kw):
    """``project_estimate`` and the number of normal-CDF elements it took;
    with ``floored=False`` every search gets the exact objective."""
    elements = []

    def counting_cdf(x):
        elements.append(np.size(x))
        return normal_cdf(x)

    with monkeypatch.context() as m:
        m.setattr(projection, "normal_cdf", counting_cdf)
        if not floored:
            m.setattr(_BatteryObjective, "floored", lambda self: self.batch)
        res = hs.project_estimate(p, family, **kw)
    return res, sum(elements)


def step_sup_reference(objective, p_hat, mu):
    """Per-direction sup distances between the square template at ``mu``
    and ``p_hat`` by an einsum formula at the template's jumps x, each
    limit read with the data moved off the jump by the cut shift
    (d + 1)·eps·|v|_1·(reach + |mu|_inf), reach the largest data and
    template coordinates: the data's mass below x - shift less the
    template's below x, the template's at or below x less the data's below
    the float after x + shift, and the difference of the two total masses.
    Each CDF is a fixed-point sum over the atoms, in any order: the weights
    rounded to int64 units of 2**-60, summed exactly and converted to float
    once. Atoms and the center are projected as the objective projects
    them, by ``depth._project_rows``."""
    tmpl = objective.family.template.atoms
    merged = p_hat.consolidate()

    def cols(atoms):
        # (n, c) projections and the (n,) units of their weights
        return (depth._project_rows(atoms.points, objective.dirs).T,
                np.rint(atoms.weights * 2.0 ** 60).astype(np.int64))

    emp, emp_u = cols(merged)
    tpl, tpl_u = cols(tmpl)
    jumps = tpl + centers_on(objective, mu)                         # (k, c)
    reach = np.abs(merged.points).max() + np.abs(tmpl.points).max()
    d = objective.dirs.shape[1]
    shift = (d + 1) * np.finfo(float).eps * np.abs(objective.dirs).sum(axis=1) \
        * (reach + np.abs(mu).max())

    def mass(atoms, units, below, keys):
        # (k, c) masses of the atoms ``below`` each key
        return np.einsum("kac,a->kc", below(atoms[None], keys[:, None]), units) * 2.0 ** -60

    rise = mass(emp, emp_u, np.less, jumps - shift) - mass(jumps, tpl_u, np.less, jumps)
    fall = mass(jumps, tpl_u, np.less_equal, jumps) \
        - mass(emp, emp_u, np.less, np.nextafter(jumps + shift, np.inf))
    tail = emp_u.sum() * 2.0 ** -60 - tpl_u.sum() * 2.0 ** -60
    return np.maximum(np.maximum(rise.max(axis=0), fall.max(axis=0)), tail)


def discrete_kernel(objective, centers, cols):
    """``_discrete_block`` on directions ``cols`` at the centers ``centers``,
    with the projections and spans ``_sup`` hands it."""
    return objective._discrete_block(centers_on(objective, centers)[:, cols], cols,
                                     depth._cut_spans(objective._reach, centers))


@st.composite
def discrete_cases(draw):
    """Square-template cases: integer grids with duplicates and -0.0 (or
    Gaussian atoms), weights over six decades, an optional 1e7
    translation, and centers that put a template atom exactly on a data
    atom beside random ones."""
    n = draw(st.sampled_from([1, 2, 5, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(-3, 4, size=(n, 3)) * draw(st.sampled_from([0.5, 1.0]))
        pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    else:
        pts = rng.standard_normal((n, 3))
    w = 10.0 ** rng.uniform(-6.0, 0.0, n) if draw(st.booleans()) else np.ones(n)
    shift = draw(st.sampled_from([0.0, 1e7]))
    p = WeightedPointSet(pts + shift, w / w.sum())
    square = hs.square_template_family().template.atoms.points
    merged = p.consolidate().points
    align = merged[rng.integers(0, len(merged), 4)] - square[rng.integers(0, 4, 4)]
    centers = np.vstack([align, rng.uniform(-2.0, 2.0, (3, 3)) + shift])
    return p, centers


class TestDiscreteKernel:
    @settings(max_examples=40, deadline=None)
    @given(discrete_cases(), st.integers(0, 3))
    def test_equals_the_einsum_formula_per_direction(self, case, seed):
        p, centers = case
        objective = _BatteryObjective(hs.square_template_family(), p, 8, hs.make_rng(seed))
        got = discrete_kernel(objective, centers, np.arange(len(objective.dirs)))
        want = np.array([step_sup_reference(objective, p, mu) for mu in centers])
        assert got.tobytes() == want.tobytes()

    def test_a_floor_free_batch_takes_the_battery_in_bounded_parts(self, monkeypatch):
        # without a floor no center can stop, so the battery is one span, cut
        # only into parts of at most _TEMP_BYTES // _pair_bytes pairs
        p = hs.sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 1000, rng=1)
        objective = _BatteryObjective(hs.square_template_family(), p, 128, hs.make_rng(0))
        calls = []
        kernel = objective._discrete_block
        monkeypatch.setattr(objective, "_discrete_block",
                            lambda t0, cols, spans: calls.append((len(t0), cols.tolist()))
                            or kernel(t0, cols, spans))
        centers = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 3))
        c = len(objective.dirs)
        whole = discrete_kernel(objective, centers, np.arange(c))
        battery, half = list(range(c)), (c + 1) // 2
        for pairs, want in [(projection._TEMP_BYTES // objective._pair_bytes, [(4, battery)]),
                            (2 * c + 1, [(2, battery)] * 2), (c, [(1, battery)] * 4),
                            (half, [(1, battery[:half])] * 4 + [(1, battery[half:])] * 4)]:
            monkeypatch.setattr(projection, "_TEMP_BYTES", pairs * objective._pair_bytes)
            calls.clear()
            values = objective.batch(centers)
            assert calls == want
            assert values.tobytes() == whole.max(axis=1).tobytes()


@st.composite
def planar_lattice_cases(draw):
    """A symmetric planar template, data and centers on one lattice of
    spacing 1, 1.25 or 1.5 times a power of two from 2**-30 to 2**40, so
    that every a + mu is exact; centers inside the search box [-4, 4]² (in
    spacings) and out to three times it, with the alignment centers that put
    a template atom on a data atom; or data and centers moved together by
    up to 2**20 spacings, far outside the box."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spacing = draw(st.sampled_from([1.0, 1.25, 1.5])) * 2.0 ** draw(st.integers(-30, 40))
    half = rng.integers(-3, 4, (draw(st.integers(1, 3)), 2))
    w = rng.random(len(half)) + 0.1
    template = WeightedPointSet(np.vstack([half, -half]) * spacing,
                                np.concatenate([w, w]) / (2.0 * w.sum()))
    n = draw(st.integers(1, 12))
    w = rng.random(n) + 0.01 if draw(st.booleans()) else np.ones(n)
    offset = rng.integers(-2 ** 20, 2 ** 20, 2) if draw(st.booleans()) else np.zeros(2, int)
    p = WeightedPointSet((rng.integers(-6, 7, (n, 2)) + offset) * spacing, w / w.sum())
    align = p.points[rng.integers(0, n, 3)] - template.points[rng.integers(0, len(half), 3)]
    centers = np.vstack([align, (rng.integers(-12, 13, (4, 2)) + offset) * spacing])
    family = hs.TemplateFamily(hs.NamedDistribution.discrete(np.zeros(2), template),
                               DecayProfile.piecewise([[0.0, 1.0]]),
                               np.array([[-4.0, 4.0]] * 2) * spacing)
    return family, p, centers


class TestCertifiedLowerBound:
    @settings(max_examples=300, deadline=None)
    @given(planar_lattice_cases(), st.sampled_from([8, 64]), st.integers(0, 3))
    def test_discrete_objective_is_at_most_the_exact_planar_metric(self, case, budget, seed):
        # each per-direction value reads the data off the exact jumps, so
        # the objective never exceeds d_H(p, T_mu) at any scale or center
        family, p, centers = case
        values = _BatteryObjective(family, p, budget, hs.make_rng(seed)).batch(centers)
        atoms = family.template.atoms
        for mu, value in zip(centers, values):
            exact = hs.halfspace_metric(p, WeightedPointSet(atoms.points + mu, atoms.weights))
            assert value <= exact + 4 * np.finfo(float).eps


@st.composite
def all_template_cases(draw):
    """A Gaussian, uniform-ball or square-template case, with the sample
    and centers of :func:`continuous_cases` or :func:`discrete_cases`."""
    if draw(st.booleans()):
        return draw(continuous_cases())
    return (hs.square_template_family(), *draw(discrete_cases()))


class TestFloorFreeSpan:
    @settings(max_examples=60, deadline=None)
    @given(all_template_cases(), st.sampled_from([8, 128]), st.integers(0, 3))
    def test_one_span_has_the_bits_of_the_block_walk(self, case, budget, seed):
        family, p, centers = case
        objective = _BatteryObjective(family, p, budget, hs.make_rng(seed))
        # no value reaches 2.0, so the floored call still walks the blocks
        walked = objective._sup(centers, floor=2.0)
        assert np.all(walked < 2.0)
        assert objective._sup(centers).tobytes() == walked.tobytes()


def drawn_battery(p, budget, seed):
    """The battery ``_BatteryObjective`` draws from ``make_rng(seed)``,
    before it keeps one row per line."""
    return depth.direction_battery(p.consolidate().points, budget, hs.make_rng(seed),
                                   anchor="difference")


class TestOneRowPerLine:
    @settings(max_examples=60, deadline=None)
    @given(all_template_cases(), st.sampled_from([8, 128]), st.integers(0, 3))
    def test_reads_each_line_once_and_keeps_the_full_battery_value(self, case, budget, seed):
        family, p, centers = case
        discrete = family.template.variant == "discrete_atoms"
        objective = _BatteryObjective(family, p, budget, hs.make_rng(seed))
        battery = drawn_battery(p, budget, seed)
        # no twin rows, and every line of the drawn battery is among the rows
        assert not depth.direction_lines(objective.dirs)[1].any()
        c = len(objective.dirs)
        assert np.all(depth.direction_lines(np.vstack([objective.dirs, battery]))[0] < c)
        # the objective over every row, both signs included, by the full-row
        # formulas; the two signs of a line differ by rounding only
        with pytest.MonkeyPatch.context() as m:
            m.setattr(projection, "direction_lines",
                      lambda dirs: (np.arange(len(dirs)), None))
            full = _BatteryObjective(family, p, budget, hs.make_rng(seed))
        assert full.dirs.tobytes() == battery.tobytes()
        if discrete:
            want = np.array([step_sup_reference(full, p, mu) for mu in centers])
        else:
            want = full_row_sups(full, centers)
        want = np.maximum(want.max(axis=1), 0.0)
        got = objective.batch(centers)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps)

    @pytest.mark.parametrize("family", ["gaussian", "square"])
    def test_result_counts_the_lines_read(self, family):
        if family == "gaussian":
            fam = gaussian_family(d=3, half=4.0)
            p = cluster_sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 500, 3)
        else:
            fam, p = hs.square_template_family(), hs.attack_tetrahedron(5.0)[1]
        res = hs.project_estimate(p, fam, starts=1, budget=64, steps=4, rng=5,
                                  tukey_start=False)
        rows, twin = depth.direction_lines(drawn_battery(p, 64, 5))
        assert twin.any()
        assert res.lines == len(rows)
        assert res.to_json_dict()["lines"] == len(rows)
        # median, centroid and one random start, or the best alignment center
        assert res.to_json_dict()["searches"] == res.searches == (3 if family == "gaussian" else 1)
        assert sorted(res.to_json_dict()) == ["evaluations", "lines", "mu_hat", "objective",
                                              "searches"]


@st.composite
def battery_and_centers(draw):
    """Unit rows (c, d) with signed zeros, and (m, d) centers whose
    coordinates range from 1e-9 to 1e7 in size, either sign, all shifted by
    0 or 1e7, with some coordinates -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d, c, m = draw(st.integers(1, 5)), draw(st.integers(1, 600)), draw(st.integers(1, 64))
    dirs = rng.standard_normal((c, d))
    dirs[rng.random((c, d)) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    size = np.linalg.norm(dirs, axis=1)
    dirs[size == 0.0, 0] = 1.0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    mus = rng.choice([-1.0, 1.0], (m, d)) * 10.0 ** rng.uniform(-9.0, 7.0, (m, d))
    mus += draw(st.sampled_from([0.0, 1e7]))
    mus[rng.random((m, d)) < 0.1] = -0.0
    return dirs, mus


class TestCenterProjection:
    @settings(max_examples=80, deadline=None)
    @given(battery_and_centers(), st.integers(0, 2 ** 32 - 1))
    def test_a_center_row_has_the_same_bits_alone_and_in_any_batch(self, case, seed):
        # the objective sums a center's projections coordinate by coordinate,
        # so its row does not depend on the batch, and it has the bits of an
        # atom at the same point
        dirs, mus = case
        objective = object.__new__(_BatteryObjective)
        # one part holds every center and direction, so the kernel gets the
        # whole (m, c) projection of each batch
        objective.dirs, objective._discrete, objective._pair_bytes = dirs, False, 1
        seen = []
        objective._continuous_block = lambda t0, cols, running, floor: (
            seen.append(t0.copy()) or np.zeros(t0.shape))
        order = np.random.default_rng(seed).permutation(len(mus))
        objective.batch(mus)
        objective.batch(mus[order])
        for mu in mus:
            objective.batch(mu[None])
        batch = seen[0]
        assert seen[1].tobytes() == batch[order].tobytes()
        assert np.vstack(seen[2:]).tobytes() == batch.tobytes()
        assert depth._project_rows(mus, dirs).T.tobytes() == batch.tobytes()


class TestFlooredSearch:
    """Each pattern search gets an objective that stops evaluating a probe
    once it cannot beat that search's incumbent; the searches still take the
    same path as with exact values."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("template", ["gaussian", "ball", "square_tetra", "square_apex"])
    def test_same_result_as_exact_searches(self, monkeypatch, template, seed):
        if template == "gaussian":
            family = gaussian_family(d=3, half=4.0)
            p = cluster_sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 1000, 40 + 2 * seed)
        elif template == "ball":
            family = ball_family()
            p = cluster_sample(hs.NamedDistribution.ball(np.zeros(3), 1.0), 1000, 40 + 2 * seed)
        else:
            family = hs.square_template_family()
            square = hs.square_distribution().atoms_absolute()
            p = (hs.attack_tetrahedron(5.0 + 20.0 * seed)[1] if template == "square_tetra"
                 else hs.apex_move(square, 0.1 + 0.15 * seed, 50.0))
        kw = dict(starts=2, budget=48, steps=8, rng=60 + seed, tukey_start=seed == 0)
        got, _ = counted_estimate(monkeypatch, True, p, family, **kw)
        want, _ = counted_estimate(monkeypatch, False, p, family, **kw)
        assert got.mu_hat.tobytes() == want.mu_hat.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        assert got.evaluations == want.evaluations

    def test_rejected_probe_stops_at_the_first_block_reaching_the_floor(self, monkeypatch):
        p = cluster_sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 1000, 7)
        objective = _BatteryObjective(gaussian_family(d=3, half=4.0), p, 48, hs.make_rng(3))
        c, n = objective.emp_sorted.shape

        def per_direction(mu):
            f = normal_cdf(objective.emp_sorted - centers_on(objective, mu).T)
            return np.maximum(np.max(objective.emp_cdf - f, axis=1),
                              np.max(f - objective.emp_left, axis=1))

        incumbent, probe = np.zeros(3), np.array([0.6, -0.3, 0.2])
        floor = per_direction(incumbent).max()
        order = np.argsort(-per_direction(incumbent), kind="stable")
        running = np.maximum.accumulate(per_direction(probe)[order])
        assert running[-1] >= floor
        needed = int(np.argmax(running >= floor)) + 1
        # blocks of 1, 2, 4, ... directions, most promising first
        taken = next(2 ** k - 1 for k in range(1, 64) if 2 ** k - 1 >= needed)
        f = objective.floored()
        elements, seen, blocks = [], [], []
        assert f(incumbent[None])[0] == floor
        kernel, block_sups = objective._continuous_block, objective._block_sups
        with monkeypatch.context() as m:
            m.setattr(projection, "normal_cdf",
                      lambda x: elements.append(np.size(x)) or normal_cdf(x))
            m.setattr(objective, "_continuous_block",
                      lambda t0, cols, *a: seen.extend(cols.tolist()) or kernel(t0, cols, *a))
            m.setattr(objective, "_block_sups",
                      lambda t, rows, b: blocks.append(b.size) or block_sups(t, rows, b))
            value = f(probe[None])[0]
        assert seen == order[:taken].tolist()
        # each taken direction costs its coarse ranks, and each block whose
        # bound can still raise the running max costs its ranks
        coarse, step = objective._coarse_sorted.shape[1], objective._block_sorted.shape[2]
        assert sum(elements) == taken * coarse + sum(blocks) * step < taken * n
        assert floor <= value <= running[taken - 1]

    def test_rejected_discrete_probes_stop_at_the_first_block_reaching_the_floor(
            self, monkeypatch):
        # a discrete template scores a whole call at once: each probe stops
        # at its own first block whose running max reaches the call's floor
        p = hs.apex_move(hs.square_distribution().atoms_absolute(), 0.3, 50.0)
        objective = _BatteryObjective(hs.square_template_family(), p, 64, hs.make_rng(3))
        c = len(objective.dirs)
        incumbent = np.array([0.5, 0.0, 0.0])
        probes = np.array([[-0.1, -0.46, -0.03], [-0.05, -0.07, -0.12], [0.6, -0.3, 0.2]])
        floor = step_sup_reference(objective, p, incumbent).max()
        order = np.argsort(-step_sup_reference(objective, p, incumbent), kind="stable")
        taken, want = [], []
        for probe in probes:
            running = np.maximum.accumulate(step_sup_reference(objective, p, probe)[order])
            assert running[-1] >= floor
            needed = int(np.argmax(running >= floor)) + 1
            # blocks of 1, 2, 4, ... directions, most promising first
            taken.append(next(2 ** k - 1 for k in range(1, 64) if 2 ** k - 1 >= needed))
            want.append(running[taken[-1] - 1])
        assert max(taken) > 1
        f = objective.floored()
        assert f(incumbent[None])[0] == floor
        pairs = []
        kernel = objective._discrete_block
        monkeypatch.setattr(objective, "_discrete_block",
                            lambda t0, cols, spans: pairs.append(t0.size)
                            or kernel(t0, cols, spans))
        values = f(probes)
        assert sum(pairs) == sum(taken) < len(probes) * c
        assert values.tolist() == want

    @pytest.mark.parametrize("case", ["tetra", "apex", "random_weights", "heavier_data"])
    def test_discrete_kernel_matches_the_einsum_formula(self, case):
        # at alignment centers template atoms land exactly on data atoms,
        # so the right and left limits differ at shared jump points
        if case == "tetra":
            p = hs.attack_tetrahedron(5.0)[1]
        elif case == "apex":
            p = hs.apex_move(hs.square_distribution().atoms_absolute(), 0.3, 50.0)
        elif case == "heavier_data":
            # the template's own atoms with 4e-12 more mass in all: at the
            # center 0 the CDFs differ only past both supports
            square = hs.square_distribution().atoms
            p = WeightedPointSet(square.points, square.weights + 1e-12)
        else:
            rng = np.random.default_rng(4)
            w = rng.random(30)
            p = WeightedPointSet(rng.integers(-3, 4, size=(30, 3)) * 0.5, w / w.sum())
        family = hs.square_template_family()
        objective = _BatteryObjective(family, p, 64, hs.make_rng(2))
        merged = p.consolidate()
        align = (merged.points[:, None, :] - family.template.atoms.points[None]).reshape(-1, 3)
        centers = np.vstack([align, np.random.default_rng(1).uniform(-2.0, 2.0, (8, 3))])
        per_direction = np.empty((len(centers), len(objective.dirs)))
        values = objective._sup(centers, per_direction=per_direction)
        want = np.array([step_sup_reference(objective, p, mu) for mu in centers])
        assert per_direction.tobytes() == want.tobytes()
        assert values.tobytes() == np.maximum(want.max(axis=1), 0.0).tobytes()
        assert [objective(mu) for mu in centers] == values.tolist()

    def test_alignment_batch_memory_is_bounded(self):
        p = hs.attack_tetrahedron(5.0)[1]
        objective = _BatteryObjective(hs.square_template_family(), p, 512, hs.make_rng(0))
        centers = np.random.default_rng(3).uniform(-4.0, 4.0, (4096, 3))
        c = len(objective.dirs)
        tracemalloc.start()
        try:
            values = objective.batch(centers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # centers go in groups whose (group, c) arrays take at most
        # _TEMP_BYTES each, not one (4096, c) array
        assert 4096 * c * 8 > 4 * projection._TEMP_BYTES
        assert peak < 4 * projection._TEMP_BYTES
        assert values[::97].tolist() == [objective(mu) for mu in centers[::97]]

    def test_criterion_5_trial_takes_a_quarter_of_the_cdf_work(self, monkeypatch):
        dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
        family = hs.TemplateFamily(dist, DecayProfile.gaussian(1.0), np.array([[-4.0, 4.0]] * 3))
        cfg = ExperimentConfig("projection", dist, hs.AttackSpec("shift_cluster", 0.1, 50.0),
                               "adaptive_samples", n=5000, trials=1, seed=0, budget=48,
                               template=family, proj_starts=0, proj_steps=8,
                               proj_tukey_start=False)
        rng = make_rng(spawn_seeds(7000, 2)[1])
        p = realize_trial(cfg, 0.1, rng)
        kw = dict(starts=0, budget=48, steps=8, tukey_start=False)
        twin = copy.deepcopy(rng)
        got, work = counted_estimate(monkeypatch, True, p, family, rng=rng, **kw)
        want, exact_work = counted_estimate(monkeypatch, False, p, family, rng=twin, **kw)
        assert got.mu_hat.tobytes() == want.mu_hat.tobytes()
        assert got.evaluations == want.evaluations
        assert work <= 0.25 * exact_work


def searched_starts(monkeypatch, *args, **kw):
    """``project_estimate(*args, **kw)`` and the start of each pattern
    search it ran, in order."""
    starts = []
    search = projection.pattern_search_min

    def recorded(f, x0, **skw):
        starts.append(np.array(x0, dtype=float))
        return search(f, x0, **skw)

    with monkeypatch.context() as m:
        m.setattr(projection, "pattern_search_min", recorded)
        res = hs.project_estimate(*args, **kw)
    return res, starts


def best_alignment_center(p, family, budget, seed):
    """Of the clipped centers that put a template atom on a data atom, the
    lexicographically least among those of least objective."""
    merged = p.consolidate()
    objective = _BatteryObjective(family, merged, budget, make_rng(seed))
    box = family.search_box
    centers = merged.points[:, None, :] - family.template.atoms.points[None, :, :]
    centers = np.clip(centers.reshape(-1, p.dim), box[:, 0], box[:, 1])
    values = objective.batch(centers)
    return np.array(min(tuple(c) for c, v in zip(centers, values) if v == values.min()))


def pointmass_family(half: float) -> hs.TemplateFamily:
    template = hs.NamedDistribution.discrete(np.zeros(1), WeightedPointSet.delta([0.0]))
    return hs.TemplateFamily(template, DecayProfile.piecewise([[0.0, 0.0]]),
                             np.array([[-half, half]]))


def discrete_case(name):
    """(p, family) of a discrete-template estimate: the square template on
    the tetrahedron or the apex move, or a delta on the half-mass point
    attack, where both alignment centers tie at 1/2."""
    square = hs.square_distribution().atoms_absolute()
    return {"tetra_5": (hs.attack_tetrahedron(5.0)[1], hs.square_template_family()),
            "tetra_45": (hs.attack_tetrahedron(45.0)[1], hs.square_template_family()),
            "apex": (hs.apex_move(square, 0.25, 50.0), hs.square_template_family()),
            "pointmass_up": (hs.attack_pointmass_1d(WeightedPointSet.delta([0.0]), 10.0),
                             pointmass_family(21.0)),
            "pointmass_down": (hs.attack_pointmass_1d(WeightedPointSet.delta([0.0]), -10.0),
                               pointmass_family(21.0))}[name]


DISCRETE_CASES = ["tetra_5", "tetra_45", "apex", "pointmass_up", "pointmass_down"]


class TestStartList:
    """A discrete template searches once from its best alignment center
    after the caller's starts; a continuous one keeps its whole list."""

    @pytest.mark.parametrize("extras", [0, 2])
    @pytest.mark.parametrize("case", DISCRETE_CASES)
    def test_discrete_template_searches_once_from_the_best_alignment_center(
            self, monkeypatch, case, extras):
        p, family = discrete_case(case)
        extra = [np.full(p.dim, 0.5 + k) for k in range(extras)]
        res, starts = searched_starts(monkeypatch, p, family, starts=3, budget=64, steps=8,
                                      rng=9, extra_starts=extra)
        assert res.searches == len(starts) == 1 + extras
        for got, want in zip(starts, extra):
            assert got.tobytes() == want.tobytes()
        assert starts[-1].tobytes() == best_alignment_center(p, family, 64, 9).tobytes()

    def test_the_tie_rule_picks_the_least_point(self, monkeypatch):
        # the half-mass point attack puts 1/2 on 0 and 1/2 on z, and a delta
        # template on either atom reads 1/2
        for z, want in [(10.0, 0.0), (-10.0, -10.0)]:
            p = hs.attack_pointmass_1d(WeightedPointSet.delta([0.0]), z)
            res, starts = searched_starts(monkeypatch, p, pointmass_family(21.0), budget=64,
                                          steps=8, rng=0)
            assert starts[0].tolist() == [want]
            assert res.mu_hat.tolist() == [want] and res.objective == 0.5

    @pytest.mark.parametrize("case", DISCRETE_CASES)
    def test_starts_and_tukey_start_leave_a_discrete_result_unchanged(self, case):
        p, family = discrete_case(case)
        kw = dict(budget=64, steps=8, rng=13)
        want = hs.project_estimate(p, family, starts=0, tukey_start=False, **kw)
        for starts, tukey in [(0, True), (5, False), (5, True)]:
            got = hs.project_estimate(p, family, starts=starts, tukey_start=tukey, **kw)
            assert got.mu_hat.tobytes() == want.mu_hat.tobytes()
            assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
            assert (got.evaluations, got.searches) == (want.evaluations, want.searches)

    @pytest.mark.parametrize("extras", [0, 1])
    @pytest.mark.parametrize("tukey", [False, True])
    @pytest.mark.parametrize("starts", [0, 3])
    def test_gaussian_template_keeps_every_start(self, monkeypatch, starts, tukey, extras):
        family = gaussian_family(d=3, half=4.0)
        p = cluster_sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 200, 5)
        extra = [np.full(3, 0.25)] * extras
        res, got = searched_starts(monkeypatch, p, family, starts=starts, budget=32, steps=4,
                                   rng=3, tukey_start=tukey, extra_starts=extra)
        assert res.searches == len(got) == 2 + extras + tukey + starts
        box = family.search_box
        for g, want in zip(got, [hs.coordinatewise_median(p), p.consolidate().mean(), *extra]):
            assert g.tobytes() == np.clip(want, box[:, 0], box[:, 1]).tobytes()

    @pytest.mark.parametrize("eps", [0.1, 0.25])
    def test_dropped_starts_never_lower_the_objective(self, eps):
        # the starts a discrete template no longer runs: the coordinate-wise
        # median, the centroid, two seeded box points and every alignment
        # center but the best
        family = hs.square_template_family()
        cfg = ExperimentConfig("projection", hs.square_distribution(),
                               hs.AttackSpec("tetrahedron_tv", eps, 50.0), "oblivious_samples",
                               n=2000, trials=1, budget=512, template=family, proj_starts=2,
                               proj_steps=32)
        for seed in spawn_seeds(31, 6):
            p = realize_trial(cfg, eps, make_rng(seed))
            merged = p.consolidate()
            best = best_alignment_center(p, family, 512, 17)
            centers = (merged.points[:, None, :] - family.template.atoms.points[None, :, :])
            centers = np.clip(centers.reshape(-1, 3), -4.0, 4.0)
            dropped = [hs.coordinatewise_median(p), merged.mean(),
                       *np.random.default_rng(17).uniform(-4.0, 4.0, (2, 3)),
                       *(c for c in centers if c.tobytes() != best.tobytes())]
            kw = dict(budget=512, steps=32, rng=17)
            res = hs.project_estimate(p, family, **kw)
            assert hs.project_estimate(p, family, extra_starts=dropped, **kw).objective \
                >= res.objective


class TestProjectEstimate:
    @pytest.mark.parametrize("kw", [dict(starts=-1), dict(steps=-1), dict(budget=0)])
    def test_refuses_what_the_experiment_config_refuses(self, kw):
        with pytest.raises(ConfigError, match="must be at least"):
            hs.project_estimate(hs.attack_tetrahedron(10.0)[1], hs.square_template_family(), **kw)

    def test_recovers_uncorrupted_square(self):
        fam = hs.square_template_family()
        res = hs.project_estimate(hs.square_distribution().atoms_absolute(), fam,
                                  starts=2, budget=512, steps=32, rng=0)
        assert np.array_equal(res.mu_hat, np.zeros(3))
        assert res.objective == 0.0

    def test_discrete_template_path_leaves_scipy_special_unloaded(self):
        # nothing a square-template estimate or an exact depth runs needs
        # scipy.special, which metrics imports only where it is used
        script = """if True:
            import sys
            import numpy as np
            import halfspace as hs
            p = hs.apex_move(hs.square_distribution().atoms_absolute(), 0.3, 50.0)
            hs.project_estimate(p, hs.square_template_family(), starts=2, budget=64, steps=8)
            hs.depth_oracle(p, np.zeros(3))
            hs.depth_2d_sweep(hs.WeightedPointSet.from_points(p.points[:, :2]), [0.1, 0.2])
            print("scipy.special" in sys.modules)
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hs.__file__)))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("construction", ["tetra", "apex"])
    def test_discrete_template_takes_no_tukey_start(self, monkeypatch, construction, seed):
        # the best alignment start already sits in the step objective's
        # basin, so the oracle Tukey point as one more start changes no
        # estimate (the apex moves 0.1 to 0.4 of the mass: past 1/2 the
        # objective is flat across centers far apart, and a tie falls to
        # whichever start is lexicographically least)
        family = hs.square_template_family()
        p = (hs.attack_tetrahedron(5.0 + 20.0 * seed)[1] if construction == "tetra"
             else hs.apex_move(hs.square_distribution().atoms_absolute(), 0.1 + 0.15 * seed, 50.0))
        tukey = hs.median_candidates(p.consolidate(), engine="oracle", budget=512,
                                     midpoint_cap=2_000, rng=0).point
        kw = dict(starts=2, budget=128, steps=16, rng=70 + seed)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(projection, "median_candidates",
                      counted("median_candidates", projection.median_candidates))
            m.setattr(depth, "depth_oracle", counted("depth_oracle", depth.depth_oracle))
            got = hs.project_estimate(p, family, tukey_start=True, **kw)
        assert calls == []
        want = hs.project_estimate(p, family, extra_starts=[tukey], **kw)
        assert got.mu_hat.tobytes() == want.mu_hat.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()

    def test_apex_corruption_stays_bounded(self):
        fam = hs.square_template_family()
        corrupted = hs.apex_move(hs.square_distribution().atoms_absolute(), 0.3, 50.0)
        res = hs.project_estimate(corrupted, fam, starts=2, budget=512, steps=32, rng=1)
        assert np.linalg.norm(res.mu_hat) <= 2 * math.sqrt(2.0)

    def test_objective_not_worse_than_truth(self):
        fam = gaussian_family(d=2, half=4.0)
        dist = hs.NamedDistribution.gaussian(np.zeros(2), 1.0)
        p = hs.sample(dist, 800, rng=7)
        # passing the true center as a start makes soundness structural, and
        # the same seed rebuilds the identical direction battery
        res = hs.project_estimate(p, fam, starts=2, budget=128, steps=24, rng=8,
                                  extra_starts=[np.zeros(2)])
        truth_obj = hs.family_distance(np.zeros(2), fam, p, budget=128, rng=8)
        assert res.objective <= truth_obj

    def test_translation_equivariance_within_tolerance(self):
        fam = gaussian_family(d=2, half=4.0)
        dist = hs.NamedDistribution.gaussian(np.zeros(2), 1.0)
        p = hs.sample(dist, 400, rng=11)
        shift = np.array([0.5, -0.25])
        fam2 = hs.TemplateFamily(fam.template, fam.decay, fam.search_box + shift[:, None])
        a = hs.project_estimate(p, fam, starts=1, budget=64, steps=16, rng=4)
        b = hs.project_estimate(p.shifted(shift), fam2, starts=1, budget=64, steps=16, rng=4)
        assert np.linalg.norm(b.mu_hat - (a.mu_hat + shift)) <= 1e-9

    def test_ks_objective_shrinks_with_n(self):
        fam = gaussian_family(d=2, half=4.0)
        dist = hs.NamedDistribution.gaussian(np.zeros(2), 1.0)
        medians = []
        for n in (500, 2000, 8000):
            vals = [hs.family_distance(np.zeros(2), fam, hs.sample(dist, n, rng=100 + k),
                                       budget=64, rng=2) for k in range(10)]
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]

    def test_deterministic(self):
        fam = gaussian_family(d=2, half=4.0)
        p = hs.sample(hs.NamedDistribution.gaussian(np.zeros(2), 1.0), 300, rng=9)
        a = hs.project_estimate(p, fam, starts=2, budget=64, steps=16, rng=21)
        b = hs.project_estimate(p, fam, starts=2, budget=64, steps=16, rng=21)
        assert np.array_equal(a.mu_hat, b.mu_hat) and a.objective == b.objective


class TestCertifyBound:
    def test_vacuous_beyond_half(self):
        fam = hs.square_template_family()
        res = hs.ProjectionResult(np.array([99.0, 99.0, 99.0]), 0.9, 1, 1, 1)
        assert hs.certify_projection_bound(res, fam, np.zeros(3), 0.6)

    def test_uncorrupted_square_certifies_with_bound_two(self):
        fam = hs.square_template_family()
        assert fam.decay.inverse(0.5) == 1.0
        res = hs.project_estimate(hs.square_distribution().atoms_absolute(), fam,
                                  starts=1, budget=256, steps=16, rng=0)
        assert hs.certify_projection_bound(res, fam, np.zeros(3), 0.0)

    def test_gaussian_certifies_across_seeds(self):
        dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
        fam = hs.TemplateFamily(dist, DecayProfile.gaussian(1.0), np.array([[-4.0, 4.0]] * 3))
        eps = 0.1
        for k in range(5):
            clean = hs.sample(dist, 2000, rng=300 + k)
            corrupted = hs.adaptive_corrupt_samples(
                clean, eps, hs.constant_cluster([50.0, 0.0, 0.0]), rng=400 + k)
            res = hs.project_estimate(corrupted, fam, starts=0, budget=48, steps=8,
                                      rng=500 + k, tukey_start=False)
            et = hs.epsilon_tilde(eps, 2000, 3, 0.05)
            assert hs.certify_projection_bound(res, fam, np.zeros(3), et)
