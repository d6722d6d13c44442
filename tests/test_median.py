import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfspace as hs
from halfspace import depth
from halfspace.depth import BatteryScorer, _project_rows
from halfspace.median import _battery_scorer, _candidate_pool, weighted_median_interval
from halfspace.model import WEIGHT_TOL, ConfigError, WeightedPointSet


def uniform(points) -> WeightedPointSet:
    return WeightedPointSet.from_points(points)


class TestMedian1d:
    def test_odd(self):
        r = hs.median_1d(uniform([[1.0], [2.0], [3.0]]))
        assert r.point[0] == 2.0 and r.achieved_depth == pytest.approx(2 / 3)

    def test_even_interval_midpoint(self):
        r = hs.median_1d(uniform([[1.0], [2.0], [3.0], [4.0]]))
        assert r.point[0] == 2.5 and r.achieved_depth == 0.5

    def test_weighted(self):
        p = WeightedPointSet(np.array([[0.0], [10.0]]), np.array([0.9, 0.1]))
        r = hs.median_1d(p)
        assert r.point[0] == 0.0 and r.achieved_depth == pytest.approx(0.9)

    def test_depth_at_least_half(self):
        rng = hs.make_rng(4)
        for _ in range(50):
            p = uniform(rng.standard_normal((int(rng.integers(1, 15)), 1)))
            assert hs.median_1d(p).achieved_depth >= 0.5 - 1e-12


class TestWeightedMedianInterval:
    def test_halves_just_below_one_half(self):
        # a valid set whose total is 1 - 6e-10: neither side reaches
        # 1/2 - 1e-12, so comparing with 1/2 inverted the interval
        w = np.full(2, 0.5 - 3e-10)
        assert abs(w.sum() - 1.0) <= WEIGHT_TOL
        assert weighted_median_interval(np.array([0.0, 1.0]), w) == (0.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 9)), min_size=1, max_size=12),
           st.floats(-WEIGHT_TOL, WEIGHT_TOL))
    def test_never_inverted(self, atoms, excess):
        # tied values and totals anywhere within the weight tolerance
        values = np.array([v for v, _ in atoms], dtype=float)
        w = np.array([k for _, k in atoms], dtype=float)
        w *= (1.0 + excess) / w.sum()
        lo, hi = weighted_median_interval(values, w)
        assert lo <= hi


class TestMedianCandidates:
    def test_pool_is_the_sorted_distinct_rows_with_positive_zeros(self):
        # half-integer atoms: many midpoints coincide
        rng = np.random.default_rng(5)
        p = uniform(np.round(2.0 * rng.standard_normal((40, 3))) / 2.0).consolidate()
        seed = hs.coordinatewise_median(p)
        extra = [np.array([-0.0, 0.25, -0.0]), p.points[3]]
        pool = _candidate_pool(p, seed, extra, 10 ** 4, np.random.default_rng(0))
        ii, jj = np.triu_indices(p.size, k=1)
        rows = np.vstack([p.points, p.mean(), seed, 0.5 * (p.points[ii] + p.points[jj]), *extra])
        assert pool.tobytes() == np.unique(rows + 0.0, axis=0).tobytes()
        assert not np.any(np.signbit(pool[pool == 0.0]))
        assert [0.0, 0.25, 0.0] in pool.tolist()

    def test_square_3d_center(self):
        p = hs.square_distribution().atoms_absolute()
        r = hs.median_candidates(p, engine="oracle")
        assert np.array_equal(r.point, np.zeros(3))
        assert r.achieved_depth == 0.5

    def test_tetrahedron_flat_interior(self):
        _, p = hs.attack_tetrahedron(10.0)
        centroid = p.points.mean(axis=0)
        r = hs.median_candidates(p, engine="oracle", extra=[centroid])
        assert r.achieved_depth == 0.25
        # returned point is inside the hull: nonnegative barycentric coordinates
        a = np.vstack([p.points.T, np.ones(4)])
        lam = np.linalg.solve(a, np.append(r.point, 1.0))
        assert np.all(lam >= -1e-9)

    def test_single_atom(self):
        r = hs.median_candidates(WeightedPointSet.delta([2.0, -1.0]), engine="oracle")
        assert np.array_equal(r.point, [2.0, -1.0]) and r.achieved_depth == 1.0

    def test_argmax_dominates_every_candidate(self):
        rng = hs.make_rng(9)
        p = uniform(rng.standard_normal((8, 2)))
        r = hs.median_candidates(p, engine="sweep2d")
        for atom in p.points:
            assert r.achieved_depth >= hs.depth_2d_sweep(p, atom).value - 1e-12

    def test_symmetric_atoms_reach_half(self):
        rng = hs.make_rng(14)
        offsets = rng.standard_normal((4, 3))
        p = uniform(np.vstack([offsets, -offsets]))
        r = hs.median_candidates(p, engine="oracle")
        assert r.achieved_depth >= 0.5 - 1e-12

    def test_agrees_with_median_1d(self):
        rng = hs.make_rng(23)
        for _ in range(30):
            p = uniform(rng.standard_normal((int(rng.integers(2, 12)), 1)))
            a = hs.median_1d(p).achieved_depth
            b = hs.median_candidates(p, engine="exact1d").achieved_depth
            assert abs(a - b) <= 1e-9

    def test_translation_equivariance(self):
        rng = hs.make_rng(6)
        shift = np.array([0.5, -0.5])
        pts = rng.standard_normal((9, 2))
        a = hs.median_candidates(uniform(pts), engine="sweep2d", rng=0)
        b = hs.median_candidates(uniform(pts + shift), engine="sweep2d", rng=0)
        assert np.array_equal(a.point + shift, b.point)

    def test_deterministic_given_seed(self):
        rng = hs.make_rng(1)
        p = uniform(rng.standard_normal((300, 3)))
        a = hs.median_candidates(p, engine="sampled", budget=128, rng=5)
        b = hs.median_candidates(p, engine="sampled", budget=128, rng=5)
        assert np.array_equal(a.point, b.point) and a.achieved_depth == b.achieved_depth

    def test_sampled_depth_bounds_the_depth_at_its_point(self):
        # the point is the midpoint of two atoms, and the battery holds
        # normals orthogonal to atom differences: comparing float projections
        # dropped atoms on a boundary and reported 7/31 for the depth 8/31
        pts = np.array([[-2, 0, -1], [-1, 2, 1], [-2, 2, 0], [1, 0, 2], [2, 0, -2],
                        [-1, -1, -2], [-2, 2, -2]], dtype=float)
        p = WeightedPointSet(pts, np.array([2, 7, 6, 2, 5, 6, 3]) / 31.0)
        r = hs.median_candidates(p, engine="sampled", budget=64, rng=263)
        assert r.achieved_depth >= hs.depth_oracle(p, r.point).value


class TestMedianRefine:
    def test_fixed_point_at_max_depth(self):
        p = hs.square_distribution().atoms_absolute()
        r = hs.median_refine(p, np.zeros(3), engine="oracle", steps=16, rng=0)
        assert np.array_equal(r.point, np.zeros(3))
        assert r.achieved_depth == 0.5

    def test_never_decreases_depth(self):
        rng = hs.make_rng(2)
        p = uniform(rng.standard_normal((40, 2)))
        start = np.array([2.0, 2.0])
        r = hs.median_refine(p, start, engine="sweep2d", steps=32, rng=3)
        assert r.achieved_depth >= hs.depth_2d_sweep(p, start).value

    def test_flat_tetrahedron_interior_stays(self):
        _, p = hs.attack_tetrahedron(10.0)
        apex = p.points[np.argmax(p.points[:, 2])]
        others = np.delete(p.points, np.argmax(p.points[:, 2]), axis=0)
        start = 0.9 * apex + (0.1 / 3.0) * others.sum(axis=0)
        r = hs.median_refine(p, start, engine="oracle", steps=16, rng=0)
        assert r.achieved_depth == 0.25

    def test_bit_reproducible(self):
        rng = hs.make_rng(12)
        p = uniform(rng.standard_normal((60, 3)))
        a = hs.median_refine(p, p.mean(), engine="sampled", steps=12, budget=64, rng=9)
        b = hs.median_refine(p, p.mean(), engine="sampled", steps=12, budget=64, rng=9)
        assert np.array_equal(a.point, b.point) and a.achieved_depth == b.achieved_depth

    def test_gaussian_sample_from_coordinatewise_start(self):
        dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
        p = hs.sample(dist, 2000, rng=33)
        start = hs.coordinatewise_median(p)
        r = hs.median_refine(p, start, engine="sampled", steps=8, budget=128, rng=34)
        dirs = hs.direction_battery(p.consolidate().points, 128, hs.make_rng(34),
                                    anchor="difference")
        start_score = BatteryScorer(p.consolidate(), dirs).score(start)
        assert r.achieved_depth >= start_score

    def test_zero_steps_returns_start(self):
        p = hs.square_distribution().atoms_absolute()
        r = hs.median_refine(p, np.array([0.1, 0.2, 0.0]), engine="oracle", steps=0, rng=0)
        assert np.array_equal(r.point, [0.1, 0.2, 0.0])


class TestEngineRequests:
    """Both searches check the engine request through ``resolve_engine``
    before they build any scorer."""

    @pytest.fixture(autouse=True)
    def no_scoring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scorer was built")
        for name in ("BatteryScorer", "direction_battery", "compute_depth",
                     "depth_2d_sweep_many"):
            monkeypatch.setattr(hs.median, name, refuse)

    @pytest.mark.parametrize("engine, budget", [("bogus", 2048), ("sweep2d", 2048),
                                                ("exact1d", 2048), ("auto", 0),
                                                ("oracle", 0)])
    def test_candidates(self, engine, budget):
        p = hs.square_distribution().atoms_absolute()
        with pytest.raises(ConfigError):
            hs.median_candidates(p, engine=engine, budget=budget)

    @pytest.mark.parametrize("engine, budget", [("bogus", 2048), ("sweep2d", 2048),
                                                ("exact1d", 2048), ("auto", 0),
                                                ("sampled", 0)])
    def test_refine(self, engine, budget):
        p = hs.square_distribution().atoms_absolute()
        with pytest.raises(ConfigError):
            hs.median_refine(p, np.zeros(3), engine=engine, budget=budget, steps=4)


class TestSweep2dWiring:
    """The planar median searches score whole batches through
    ``depth_2d_sweep_many``; scoring each query alone must give the same
    result bit for bit."""

    @staticmethod
    def one_at_a_time(p, xs):
        results = [hs.depth_2d_sweep(p, x) for x in xs]
        return np.array([r.value for r in results]), np.array([r.witness for r in results])

    @staticmethod
    def sample(seed):
        rng = hs.make_rng(seed)
        pts = np.round(2.0 * rng.standard_normal((60, 2))) / 2.0   # duplicates, collinear
        return uniform(pts)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidates_match_single_query_reference(self, seed, monkeypatch):
        p = self.sample(seed)
        got = hs.median_candidates(p, engine="sweep2d", rng=seed)
        monkeypatch.setattr(hs.median, "depth_2d_sweep_many", self.one_at_a_time)
        want = hs.median_candidates(p, engine="sweep2d", rng=seed)
        assert got.point.tobytes() == want.point.tobytes()
        assert got.achieved_depth == want.achieved_depth

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refine_matches_single_query_reference(self, seed, monkeypatch):
        p = self.sample(seed)
        start = p.points[0]
        got = hs.median_refine(p, start, engine="sweep2d", steps=16, rng=seed)
        monkeypatch.setattr(hs.median, "depth_2d_sweep_many", self.one_at_a_time)
        want = hs.median_refine(p, start, engine="sweep2d", steps=16, rng=seed)
        assert got.point.tobytes() == want.point.tobytes()
        assert got.achieved_depth == want.achieved_depth
        assert got.candidate_count == want.candidate_count


def full_scores(self, candidates, floor=-np.inf):
    """Reference for ``BatteryScorer.bounded_scores``: every candidate
    scored on every direction by brute force in fixed point, over the atoms
    ``recording_init`` kept: the weights rounded to int64 units of 2**-60,
    each closed mass summed exactly and converted to float once."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    units = np.rint(self.atoms.weights * 2.0 ** 60).astype(np.int64)
    atoms = _project_rows(self.atoms.points, self.dirs)
    keys = _project_rows(candidates, self.dirs)
    return np.array([np.where(atoms >= key[:, None], units, 0).sum(axis=1).min()
                     for key in keys.T]) * 2.0 ** -60


_real_init = BatteryScorer.__init__


def recording_init(self, p, dirs):
    """``BatteryScorer.__init__`` that also keeps the atoms for
    :func:`full_scores`."""
    _real_init(self, p, dirs)
    self.atoms = p


def corrupted_gaussian(n, seed, shift=0.0):
    """The ``tukey_sampled_3d`` benchmark config's data at sample size n."""
    clean = hs.sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), n, rng=seed)
    p = hs.adaptive_corrupt_samples(clean, 0.1, hs.constant_cluster([50.0, 0.0, 0.0]),
                                    rng=seed + 1)
    return WeightedPointSet(p.points + shift, p.weights)


class TestTranslationBy1e7:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_scores_and_point_follow_the_shift(self, seed):
        # the tukey_sampled_3d data on a 2^-20 grid, so that adding 1e7 is
        # exact and every pool point but the centroid is an exact translate;
        # the cut keys' slack grows with the coordinates, yet no pool score
        # moves, and the chosen point moves by a few ulps of 1e7 at most
        p = corrupted_gaussian(2000, seed)
        grid = WeightedPointSet(np.ldexp(np.round(np.ldexp(p.points, 20)), -20), p.weights)
        runs = []
        for shift in (0.0, 1e7):
            merged = WeightedPointSet(grid.points + shift, grid.weights).consolidate()
            gen = np.random.default_rng(seed)
            pool = _candidate_pool(merged, hs.coordinatewise_median(merged), (), 2000, gen)
            scores = _battery_scorer(merged, 256, gen).scores(pool)
            cand = hs.median_candidates(merged, engine="sampled", budget=256,
                                        midpoint_cap=2000, rng=seed)
            runs.append((scores, cand.point))
        (near, x), (far, y) = runs
        assert near.size > 3700 and near.tobytes() == far.tobytes()
        assert np.abs(y - 1e7 - x).max() <= 4 * np.finfo(float).eps * 1e7


def adversarial(kind):
    rng = hs.make_rng(17)
    if kind == "duplicates":
        pts = np.round(rng.standard_normal((90, 3)))
        return uniform(np.vstack([pts, pts[:40]]))
    if kind == "coplanar":
        pts = rng.standard_normal((120, 3))
        pts[:, 2] = 0.0
        return uniform(pts)
    if kind == "signed_zeros":
        pts = np.round(rng.standard_normal((120, 3)))
        pts[pts == 0.0] = -0.0
        return uniform(pts)
    return corrupted_gaussian(300, 5, shift=1e7)


class TestBoundedScoring:
    """Under the sampled engine the pool and the refine probes are scored
    with a floor; the results must be those of exact full scoring, bit for
    bit, with the same generator draws."""

    @staticmethod
    def both_runs(monkeypatch, p, seed):
        out = []
        for exact in (False, True):
            with monkeypatch.context() as m:
                if exact:
                    m.setattr(BatteryScorer, "__init__", recording_init)
                    m.setattr(BatteryScorer, "bounded_scores", full_scores)
                gen = np.random.default_rng(seed)
                cand = hs.median_candidates(p, engine="sampled", budget=64,
                                            midpoint_cap=500, rng=gen)
                ref = hs.median_refine(p, cand.point, engine="sampled", steps=8,
                                       budget=64, rng=gen)
                out.append((cand.point.tobytes(), cand.achieved_depth, cand.candidate_count,
                            ref.point.tobytes(), ref.achieved_depth, ref.candidate_count,
                            gen.bit_generator.state))
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_config_matches_full_scoring(self, seed, monkeypatch):
        pruned, exact = self.both_runs(monkeypatch, corrupted_gaussian(400, seed), seed)
        assert pruned == exact

    @pytest.mark.parametrize("kind", ["duplicates", "coplanar", "signed_zeros", "translated"])
    def test_adversarial_sets_match_full_scoring(self, kind, monkeypatch):
        pruned, exact = self.both_runs(monkeypatch, adversarial(kind), 3)
        assert pruned == exact

    def test_refine_objective_floors_rejected_probes(self, monkeypatch):
        p = corrupted_gaussian(400, 0).consolidate()
        scorer = BatteryScorer(p, hs.direction_battery(p.points, 64, hs.make_rng(1),
                                                       anchor="difference"))
        start = hs.coordinatewise_median(p)
        probes = start + 0.05 * hs.make_rng(2).standard_normal((24, 3))
        exact = scorer.scores(probes)
        floor = scorer.score(start)
        calls = []
        real = BatteryScorer.bounded_scores

        def recording(self, candidates, floor=-np.inf):
            calls.append(floor)
            return real(self, candidates, floor)

        monkeypatch.setattr(BatteryScorer, "bounded_scores", recording)
        objective = hs.median._floored_neg_depth(scorer)
        assert objective(start[None, :])[0] == -floor
        values = -objective(probes)
        above = exact > floor
        assert above.any() and not above.all()
        assert values[above].tobytes() == exact[above].tobytes()
        assert np.all(values[~above] <= floor) and np.all(values[~above] >= exact[~above])
        # the probe call used the start's floor
        assert calls[1] == np.nextafter(floor, np.inf)
        # the best probe is the next incumbent
        best = int(np.argmax(exact))
        objective(probes[:1])
        assert calls[2] == np.nextafter(exact[best], np.inf)

    def test_pool_scoring_skips_most_pairs(self, monkeypatch):
        # the benchmark config as shipped: n = 2000, budget 256, midpoint cap 2000;
        # pairs are counted on both paths, searched and compared
        p = corrupted_gaussian(2000, 0)
        pairs, sizes = [], []
        real_search, real_compare = depth.row_searchsorted, depth._compare_units
        real_init = BatteryScorer.__init__

        def counting_search(a, keys, rows):
            pairs.append(keys.size)
            return real_search(a, keys, rows)

        def counting_compare(proj, units, keys):
            pairs.append(keys.size)
            return real_compare(proj, units, keys)

        def sized_init(self, q, dirs):
            sizes.append(len(dirs))
            real_init(self, q, dirs)

        monkeypatch.setattr(depth, "row_searchsorted", counting_search)
        monkeypatch.setattr(depth, "_compare_units", counting_compare)
        monkeypatch.setattr(BatteryScorer, "__init__", sized_init)
        res = hs.median_candidates(p, engine="sampled", budget=256, midpoint_cap=2000, rng=0)
        assert sum(pairs) <= 0.15 * res.candidate_count * sizes[0]


class TestCoordinatewiseMedian:
    def test_matches_1d_median_per_axis(self):
        rng = hs.make_rng(19)
        p = uniform(rng.standard_normal((11, 3)))
        cw = hs.coordinatewise_median(p)
        for i in range(3):
            axis = WeightedPointSet(p.points[:, i:i + 1], p.weights)
            assert cw[i] == hs.median_1d(axis).point[0]
