import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linprog

import halfspace as hs
from halfspace import depth
from halfspace.depth import BatteryScorer, mass_units, row_searchsorted, sorted_suffix
from halfspace.median import weighted_median_interval
from halfspace.model import ConfigError, WeightedPointSet


def uniform(points) -> WeightedPointSet:
    return WeightedPointSet.from_points(points)


SQUARE_2D = uniform([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


@st.composite
def grid_cases(draw, d=2):
    """Small integer-grid atom sets in R^d (duplicates, collinear atoms,
    -0.0 coordinates), uniform, integer-ratio (1/3, 1/7, ...) or random
    float weights, none of them dyadic in general, and queries on and off
    atoms."""
    n = draw(st.integers(1, 10))
    cells = st.tuples(*[st.integers(-3, 3)] * d)
    pts = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
    signs = np.array(draw(st.lists(st.booleans(), min_size=d * n, max_size=d * n)))
    pts[(pts == 0.0) & signs.reshape(n, d)] = -0.0
    kind = draw(st.sampled_from(["uniform", "integers", "floats"]))
    if kind == "uniform":
        w = np.full(n, 1.0 / n)
    else:
        parts = st.integers(1, 7) if kind == "integers" else st.floats(0.01, 1.0)
        w = np.array(draw(st.lists(parts, min_size=n, max_size=n)), dtype=float)
        w /= w.sum()
    on = draw(st.lists(st.integers(0, n - 1), max_size=4))
    off = draw(st.lists(st.tuples(*[st.integers(-7, 7)] * d), min_size=1, max_size=4))
    queries = np.vstack([pts[on].reshape(-1, d), 0.5 * np.array(off, dtype=float)])
    return WeightedPointSet(pts, w), queries


class TestDepth1d:
    @pytest.mark.parametrize("mu,expected", [(3.0, 3 / 5), (2.0, 2 / 5), (0.0, 0.0)])
    def test_counting(self, mu, expected):
        p = uniform([[1.0], [2.0], [3.0], [4.0], [5.0]])
        assert hs.depth_1d(p, [mu]).value == pytest.approx(expected)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hs.depth_1d(SQUARE_2D, [0.0, 0.0])

    @given(grid_cases(d=1))
    @example(case=(uniform([[-3.0], [-2.0], [-1.0], [0.0], [0.0], [0.0], [2.0], [2.0], [3.0]]),
                   np.array([[0.0]])))
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_bit_for_bit(self, case):
        # duplicates merged and sides compared by open mass, as the oracle
        # does: two sides of equal mass give the oracle's bits
        p, queries = case
        for q in queries:
            assert hs.depth_1d(p, q).value == hs.depth_oracle(p, q).value


class TestDepth2dSweep:
    def test_square_center(self):
        assert hs.depth_2d_sweep(SQUARE_2D, [0.0, 0.0]).value == 0.5

    def test_square_vertex(self):
        assert hs.depth_2d_sweep(SQUARE_2D, [1.0, 1.0]).value == 0.25

    def test_outside(self):
        assert hs.depth_2d_sweep(SQUARE_2D, [5.0, 5.0]).value == 0.0

    def test_all_atoms_at_query(self):
        p = uniform([[2.0, 3.0], [2.0, 3.0]])
        assert hs.depth_2d_sweep(p, [2.0, 3.0]).value == 1.0


class TestDepth2dSweepMany:
    @given(grid_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_single_calls(self, case):
        p, queries = case
        values, witnesses = hs.depth_2d_sweep_many(p, queries)
        for q, value, witness in zip(queries, values, witnesses):
            one = hs.depth_2d_sweep(p, q)
            assert np.float64(one.value).tobytes() == value.tobytes()
            assert one.witness.tobytes() == witness.tobytes()

    @given(grid_cases())
    @example(case=(WeightedPointSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [-1.0, -1.0],
                                     [1.0, -1.0], [1.0, 1.0]],
                                    np.array([1, 1, 1, 1, 1, 2]) / 7.0),
                   np.array([[0.0, 0.0], [-0.0, 0.5], [1.0, 1.0]])))
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, case):
        # Both engines merge duplicate atoms and find the same least integer
        # sum of mass_units, converted to float once, so they agree bit for
        # bit for any weights, even where they pick different halfplanes of
        # the minimal mass. The example puts atoms at the query and
        # collinear with it on both sides, with a duplicate, at weights of
        # sevenths. Each row's value and witness alone are the row's bits in
        # the batch, and the witness's closed mass is the value.
        p, queries = case
        merged = p.consolidate()
        units = mass_units(merged.weights)
        values, witnesses = hs.depth_2d_sweep_many(p, queries)
        for q, value, witness in zip(queries, values, witnesses):
            assert value == hs.depth_oracle(p, q).value
            one = hs.depth_2d_sweep(p, q)
            assert np.float64(one.value).tobytes() == value.tobytes()
            assert one.witness.tobytes() == witness.tobytes()
            assert units[(merged.points - q) @ witness >= 0.0].sum() * 2.0 ** -60 == value

    @given(grid_cases())
    @settings(max_examples=150, deadline=None)
    def test_duplicates_are_merged(self, case):
        # a set and its merged set are one distribution: same values and
        # witnesses, bit for bit
        p, queries = case
        raw_values, raw_witnesses = hs.depth_2d_sweep_many(p, queries)
        values, witnesses = hs.depth_2d_sweep_many(p.consolidate(), queries)
        assert raw_values.tobytes() == values.tobytes()
        assert raw_witnesses.tobytes() == witnesses.tobytes()

    @given(grid_cases(), st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    @settings(max_examples=150, deadline=None)
    def test_integer_translation_keeps_value(self, case, shift):
        p, queries = case
        shift = np.array(shift, dtype=float)
        moved = WeightedPointSet(p.points + shift, p.weights)
        a = hs.depth_2d_sweep_many(p, queries)[0]
        b = hs.depth_2d_sweep_many(moved, queries + shift)[0]
        assert a.tobytes() == b.tobytes()

    def test_regular_polygon_center_memory(self):
        # 3000 atoms: a sweep that builds an n x 2n matrix peaks near 80 MB here
        angles = 2.0 * np.pi * np.arange(3000) / 3000
        p = uniform(np.column_stack([np.cos(angles), np.sin(angles)]))
        tracemalloc.start()
        try:
            value = hs.depth_2d_sweep(p, [0.0, 0.0]).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(0.5, abs=1e-12)
        assert peak < 8_000_000

    def test_blocks_match_single_calls(self):
        # 500 queries at n = 120 span several blocks of the batch
        rng = hs.make_rng(4)
        pts = rng.integers(-4, 5, size=(120, 2)).astype(float)
        p = uniform(pts)
        queries = np.vstack([pts, 0.5 * rng.integers(-9, 10, size=(380, 2))])
        values = hs.depth_2d_sweep_many(p, queries)[0]
        for q, value in zip(queries[::7], values[::7]):
            assert hs.depth_2d_sweep(p, q).value == value

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hs.depth_2d_sweep_many(SQUARE_2D, np.zeros((2, 3)))


class TestDepthOracle:
    def test_tetrahedron_interior(self):
        _, p = hs.attack_tetrahedron(10.0)
        centroid = p.points.mean(axis=0)
        assert hs.depth_oracle(p, centroid).value == 0.25

    def test_square_3d_center(self):
        p = hs.square_distribution().atoms_absolute()
        assert hs.depth_oracle(p, np.zeros(3)).value == 0.5

    def test_tetrahedron_outside(self):
        _, p = hs.attack_tetrahedron(10.0)
        assert hs.depth_oracle(p, [10.0, 10.0, 10.0]).value == 0.0

    def test_guard_advises_sampled_engine(self):
        rng = hs.make_rng(0)
        p = uniform(rng.standard_normal((300, 5)))
        with pytest.raises(ValueError, match="sampled"):
            hs.depth_oracle(p, np.zeros(5))

    def test_guard_bounds_every_recursion_level(self, monkeypatch):
        # 8 atoms spanning R^7 around the query: C(8, 6) = 28 subsets at the
        # top, but the boundary recursion one dimension down needs
        # C(8, 5) = 56 and the next C(8, 4) = 70, so the guard must refuse
        # before enumerating anything
        monkeypatch.setattr(depth, "ORACLE_SUBSET_GUARD", 30)
        monkeypatch.setattr(depth, "_min_closed_mass", lambda *a: pytest.fail("enumerated"))
        p = uniform(hs.make_rng(0).standard_normal((8, 7)))
        with pytest.raises(ValueError, match=r"C\(8, 4\) > 30; use depth_sampled"):
            hs.depth_oracle(p, np.zeros(7))

    def test_enumerates_in_the_span_of_the_offsets(self, monkeypatch):
        # 8 atoms on a plane through the query in R^7: every level works at
        # rank 2, so the guard counts C(8, 1) = 8 subsets, no level
        # enumerates more, and the value is the depth in the plane
        monkeypatch.setattr(depth, "ORACLE_SUBSET_GUARD", 8)
        counts = []
        subsets = depth._subsets

        def counting(n, k):
            counts.append(math.comb(n, k))
            return subsets(n, k)

        monkeypatch.setattr(depth, "_subsets", counting)
        rng = hs.make_rng(0)
        plane = rng.standard_normal((8, 2))
        p = uniform(plane @ rng.standard_normal((2, 7)))
        assert hs.depth_oracle(p, np.zeros(7)).value \
            == hs.depth_2d_sweep(uniform(plane), np.zeros(2)).value
        assert 0 < max(counts) <= 8

    def test_atom_at_query_always_counts(self):
        p = uniform([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert hs.depth_oracle(p, np.zeros(3)).value == pytest.approx(1 / 3)

    def test_cube_center_and_vertex(self):
        corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                            for sz in (-1, 1)], dtype=float)
        p = uniform(corners)
        assert hs.depth_oracle(p, np.zeros(3)).value == 0.5
        assert hs.depth_oracle(p, [1.0, 1.0, 1.0]).value == 0.125

    def test_octahedron_center_and_vertex(self):
        p = uniform(np.vstack([np.eye(3), -np.eye(3)]))
        assert hs.depth_oracle(p, np.zeros(3)).value == pytest.approx(0.5, abs=1e-15)
        assert hs.depth_oracle(p, [1.0, 0.0, 0.0]).value == pytest.approx(1 / 6, abs=1e-15)


def _open_side(offsets: np.ndarray) -> bool:
    """Whether some direction u has u.o < 0 for every row o of ``offsets``:
    the LP u.o <= -1 (a margin of 1 by scaling) is feasible."""
    if not len(offsets):
        return True
    d = offsets.shape[1]
    res = linprog(np.zeros(d), A_ub=offsets, b_ub=-np.ones(len(offsets)),
                  bounds=[(None, None)] * d, method="highs")
    return res.status == 0


def lp_depth(p: WeightedPointSet, mu: np.ndarray) -> float:
    """Tukey depth by brute force: the total less the largest mass of a set
    T of nonzero offsets that some direction puts strictly below 0 (the
    closed halfspace is the rest). Duplicate offsets are merged and masses
    are correctly rounded float sums, so dyadic weights are exact."""
    masses: dict[tuple, list[float]] = {}
    for o, w in zip((p.points - mu).tolist(), p.weights.tolist()):
        masses.setdefault(tuple(o), []).append(w)     # -0.0 == 0.0 as a key
    atoms = [o for o in masses if any(o)]
    subsets = []
    for mask in range(1 << len(atoms)):
        chosen = [o for i, o in enumerate(atoms) if (mask >> i) & 1]
        subsets.append((math.fsum(w for o in chosen for w in masses[o]), chosen))
    # the largest mass on an open side; the empty set always is
    for mass, chosen in sorted(subsets, key=lambda mc: -mc[0]):
        if _open_side(np.array(chosen)):
            return math.fsum(p.weights) - mass
    raise AssertionError("the empty set is always on an open side")


@st.composite
def lattice_cases(draw):
    """At most 6 atoms on an integer lattice of rank r in R^d, d = 1..4
    (so duplicates, collinear and coplanar sets), with -0.0 coordinates
    and dyadic weights, and three queries: an atom, the midpoint of two
    atoms and a half-integer point."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    basis = np.array(draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d),
                                   min_size=r, max_size=r)), dtype=float)
    coords = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=6))
    pts = np.array(coords, dtype=float) @ basis
    signs = np.array(draw(st.lists(st.booleans(), min_size=pts.size, max_size=pts.size)))
    pts[(pts == 0.0) & signs.reshape(pts.shape)] = -0.0
    n = len(pts)
    cuts = sorted(draw(st.sets(st.integers(1, 15), min_size=n - 1, max_size=n - 1)))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    half = 0.5 * np.array(draw(st.tuples(*[st.integers(-4, 4)] * d)), dtype=float)
    queries = np.vstack([pts[i], 0.5 * (pts[i] + pts[j]), half])
    return WeightedPointSet(pts, np.diff([0, *cuts, 16]) / 16.0), queries


class TestEnginesAgainstLpReference:
    @given(lattice_cases())
    # the atoms lie on a line through the third query, and the sampled
    # engine's anchored normals are orthogonal to it only up to rounding:
    # counting the closed side by the sign of a float dot product read
    # 0.1875, below the depth 0.3125
    @example(case=(WeightedPointSet(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                                              [-1.0, -1.0, -1.0, 0.0], [-2.0, -2.0, -2.0, 0.0],
                                              [-2.0, -2.0, -2.0, 0.0], [2.0, 2.0, 2.0, 0.0]]),
                                    np.array([1, 1, 1, 1, 1, 11]) / 16.0),
                   np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.0]])))
    @settings(max_examples=150, deadline=None)
    def test_exact_engines_equal_it_and_sampled_bounds_it(self, case):
        p, queries = case
        for q in queries:
            want = lp_depth(p, q)
            assert hs.depth_oracle(p, q).value == want
            if p.dim == 2:
                assert hs.depth_2d_sweep(p, q).value == want
            assert hs.depth_sampled(p, q, budget=64, rng=0).value >= want

    @given(lattice_cases(), st.integers(0, 3))
    # the atoms and the query (the midpoint of the second and third atoms)
    # lie on one plane, and the battery holds its normal up to rounding:
    # comparing the float projections dropped every atom from the closed
    # halfspace along it and read 0.0, where the depth is 0.0625
    @example(case=(WeightedPointSet(np.array([[-2.0, 1.0, 0.0], [1.0, 2.0, 5.0],
                                              [2.0, -1.0, 0.0], [4.0, -2.0, 0.0]]),
                                    np.array([11, 1, 2, 2]) / 16.0),
                   np.array([[1.5, 0.5, 2.5]])), seed=0)
    @settings(max_examples=150, deadline=None)
    def test_scorer_bounds_it_at_or_above_its_floor(self, case, seed):
        p, queries = case
        scorer = BatteryScorer(p, hs.direction_battery(p.points, 64, hs.make_rng(seed),
                                                       anchor="difference"))
        want = np.array([lp_depth(p, q) for q in queries])
        scores = scorer.scores(queries)
        assert np.all(scores >= want)
        for floor in np.unique(scores):
            got = scorer.bounded_scores(queries, floor)
            assert np.all(got[got >= floor] >= want[got >= floor])


class TestDepthSampled:
    def test_square_3d_is_exact(self):
        p = hs.square_distribution().atoms_absolute()
        assert hs.depth_sampled(p, np.zeros(3), budget=10_000, rng=0).value == 0.5

    def test_gaussian_sample_mean_depth(self):
        dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
        p = hs.sample(dist, 2000, rng=11)
        val = hs.depth_sampled(p, p.mean(), budget=10_000, rng=12).value
        assert 0.40 <= val <= 0.55

    def test_budget_one_still_upper_bounds(self):
        rng = hs.make_rng(5)
        p = uniform(rng.standard_normal((8, 3)))
        mu = rng.standard_normal(3)
        v1 = hs.depth_sampled(p, mu, budget=1, rng=42).value
        assert v1 == hs.depth_sampled(p, mu, budget=1, rng=42).value  # deterministic
        assert v1 >= hs.depth_oracle(p, mu).value - 1e-12

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            hs.depth_sampled(SQUARE_2D, [0.0, 0.0], budget=0)

    def test_more_atoms_than_one_chunk_per_direction(self):
        # above _BUILD_PAIRS atoms each line is its own chunk; none is empty
        p = uniform(np.arange(2_000_001, dtype=float)[:, None])
        assert hs.depth_sampled(p, [1.0], budget=1).value == pytest.approx(2 / 2_000_001)

    @given(lattice_cases(), st.integers(0, 3))
    # the query is the midpoint of the first and third atoms: a scorer that
    # compared float projections dropped both from the closed halfplane
    # whose boundary holds them and read 0.0, where the sampled engine's
    # own float cut read the depth 0.0625
    @example(case=(WeightedPointSet(np.array([[0.0, -1.0], [0.0, 0.0], [-2.0, -2.0]]),
                                    np.array([1, 1, 14]) / 16.0),
                   np.array([[-1.0, -1.5]])), seed=0)
    @settings(max_examples=100, deadline=None)
    def test_is_the_scorer_on_its_offset_battery(self, case, seed):
        # one cut rule: the same bits as a resident scorer on the battery
        # depth_sampled draws, and a witness along which the mass is read
        p, queries = case
        for q in queries:
            got = hs.depth_sampled(p, q, budget=64, rng=seed)
            dirs = hs.direction_battery(p.points, 64, hs.make_rng(seed), anchor="offset", mu=q)
            want = BatteryScorer(p, dirs).score(q)
            assert np.float64(got.value).tobytes() == np.float64(want).tobytes()
            assert any(np.array_equal(got.witness, v) for v in dirs)

    def test_memory_does_not_grow_with_lines_times_atoms(self):
        # criterion 2's far point: n = 5001 and about 20,000 lines, so a
        # (lines, n) mask alone would take 100 MB
        clean = hs.sample(hs.NamedDistribution.ball(np.zeros(3), 1.0), 5000, rng=12345)
        p = hs.additive_corrupt(clean, 1.0 / 3.0, WeightedPointSet.delta([100.0, 0.0, 0.0]))
        tracemalloc.start()
        try:
            value = hs.depth_sampled(p, [100.0, 0.0, 0.0], budget=10_000, rng=1).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1.0 / 3.0)
        assert peak < 8_000_000


class TestEngineAgreement:
    def test_sweep_equals_oracle_uniform_weights(self):
        rng = hs.make_rng(42)
        for _ in range(200):
            n = int(rng.integers(3, 13))
            p = uniform(rng.standard_normal((n, 2)))
            mu = p.points[int(rng.integers(0, n))] if rng.random() < 0.3 else rng.standard_normal(2)
            assert hs.depth_2d_sweep(p, mu).value == hs.depth_oracle(p, mu).value

    def test_sweep_equals_oracle_generic_weights(self):
        rng = hs.make_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            w = rng.random(n)
            p = WeightedPointSet(rng.standard_normal((n, 2)), w / w.sum())
            mu = rng.standard_normal(2)
            assert hs.depth_2d_sweep(p, mu).value == hs.depth_oracle(p, mu).value

    @pytest.mark.parametrize("engine, d", [("exact1d", 1), ("sweep2d", 2), ("oracle", 2),
                                           ("oracle", 3), ("sampled", 3)])
    def test_values_are_python_floats(self, engine, d):
        # a numpy scalar would reach a CSV row as its repr, np.float64(...)
        p = WeightedPointSet(hs.make_rng(d).standard_normal((7, d)), np.arange(1, 8) / 28.0)
        for mu in (np.zeros(d), p.points[0]):
            assert type(hs.compute_depth(p, mu, engine=engine).value) is float

    def test_exact1d_equals_oracle(self):
        rng = hs.make_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            p = uniform(rng.standard_normal((n, 1)))
            mu = rng.standard_normal(1)
            assert hs.depth_1d(p, mu).value == hs.depth_oracle(p, mu).value

    def test_sampled_upper_bounds_oracle(self):
        rng = hs.make_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 11))
            p = uniform(rng.standard_normal((n, d)))
            mu = rng.standard_normal(d)
            s = hs.depth_sampled(p, mu, budget=64, rng=rng).value
            assert s >= hs.depth_oracle(p, mu).value - 1e-12


class TestEnginePolicy:
    """``resolve_engine`` is the one rule behind ``compute_depth`` and the
    median searches."""

    @pytest.mark.parametrize("n, d, queries, expected", [
        (7, 1, 10 ** 9, "exact1d"),
        (1000, 2, 2000, "sweep2d"),            # queries * n = 2e6
        (3, 2, 666_667, "sampled"),            # queries * n = 2e6 + 1
        (1, 2, 2_000_000, "sweep2d"),
        (1, 2, 2_000_001, "sampled"),
        (5, 3, 2000, "oracle"),                # C(5, 2) * queries = 2e4
        (3, 3, 6667, "sampled"),               # C(3, 2) * queries = 2e4 + 1
        (200, 3, 1, "oracle"),                 # C(200, 2) = 19900
        (201, 3, 1, "sampled"),                # C(201, 2) = 20100
        (3, 4, 20_000, "oracle"),              # C(3, 3) * queries = 2e4
        (3, 4, 20_001, "sampled"),
    ])
    def test_auto_on_each_side_of_each_boundary(self, n, d, queries, expected):
        p = uniform(hs.make_rng(n).standard_normal((n, d)))
        assert depth.resolve_engine(p, queries) == expected
        assert depth.resolve_engine(p, queries, expected) == expected

    @pytest.mark.parametrize("d, engine, budget, message", [
        (3, "bogus", 2048, "unknown depth engine 'bogus'"),
        (3, "sweep2d", 2048, "--engine sweep2d needs 2-dimensional data, got 3-dimensional"),
        (2, "exact1d", 2048, "--engine exact1d needs 1-dimensional data, got 2-dimensional"),
        (1, "sweep2d", 2048, "--engine sweep2d needs 2-dimensional data"),
        (3, "auto", 0, "--budget must be at least 1, got 0"),
        (2, "sweep2d", 0, "--budget must be at least 1, got 0"),
    ])
    def test_config_errors(self, d, engine, budget, message):
        p = uniform(hs.make_rng(0).standard_normal((6, d)))
        with pytest.raises(ConfigError, match=message):
            depth.resolve_engine(p, 1, engine, budget)
        with pytest.raises(ConfigError, match=message):
            hs.compute_depth(p, np.zeros(d), engine=engine, budget=budget)

    def test_a_lone_planar_query_sweeps_at_any_n(self, monkeypatch):
        # one O(n log n) sweep, where the sampled engine projects every atom
        # once per direction; more queries keep the atom-query budget
        monkeypatch.setattr(depth, "_SWEEP_ATOM_QUERIES", 10)
        monkeypatch.setattr(depth, "_ORACLE_SUBSET_QUERIES", 10)
        rng = np.random.default_rng(5)
        p = uniform(rng.standard_normal((50, 2)))
        mu = 0.1 * rng.standard_normal(2)
        assert depth.resolve_engine(p, 1) == "sweep2d"
        assert depth.resolve_engine(p, 2) == "sampled"
        res = hs.compute_depth(p, mu)
        assert res.engine == "sweep2d"
        assert res.value == hs.depth_2d_sweep(p, mu).value

    def test_lone_query_follows_the_median_rule(self):
        # C(65, 2) = 2080 subsets: the oracle, as a median search of one
        # query would pick, not the sampled upper bound (0.4)
        rng = np.random.default_rng(3)
        p = uniform(rng.standard_normal((65, 3)))
        mu = 0.1 * rng.standard_normal(3)
        res = hs.compute_depth(p, mu)
        assert res.engine == "oracle"
        # 24 of the 65 atoms, in mass_units
        assert res.value == hs.depth_oracle(p, mu).value \
            == 24 * mass_units(p.weights[:1])[0] * 2.0 ** -60


class TestDepthProperties:
    def test_translation_equivariance_exact(self):
        rng = hs.make_rng(8)
        shift = np.array([0.5, -0.25])
        for _ in range(50):
            n = int(rng.integers(3, 10))
            pts = rng.standard_normal((n, 2))
            mu = rng.standard_normal(2)
            a = hs.depth_2d_sweep(uniform(pts), mu).value
            b = hs.depth_2d_sweep(uniform(pts + shift), mu + shift).value
            assert a == b

    def test_lipschitz_in_halfspace_metric(self):
        rng = hs.make_rng(21)
        for _ in range(60):
            d = int(rng.integers(1, 3))
            p = uniform(rng.standard_normal((int(rng.integers(2, 8)), d)))
            q = uniform(rng.standard_normal((int(rng.integers(2, 8)), d)))
            mu = rng.standard_normal(d)
            dp = hs.depth_oracle(p, mu).value
            dq = hs.depth_oracle(q, mu).value
            assert abs(dp - dq) <= hs.halfspace_metric(p, q) + 1e-12

    def test_symmetric_atoms_center_depth_at_least_half(self):
        rng = hs.make_rng(31)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            offsets = rng.standard_normal((k, d))
            center = rng.standard_normal(d)
            pts = np.vstack([center + offsets, center - offsets])
            p = uniform(pts)
            assert hs.symmetry_check(p, center)
            assert hs.depth_oracle(p, center).value >= 0.5 - 1e-12

    def test_witness_reproduces_value(self):
        rng = hs.make_rng(13)
        cases = []
        _, tetra = hs.attack_tetrahedron(10.0)
        cases.append((tetra, tetra.points.mean(axis=0)))
        cases.append((hs.square_distribution().atoms_absolute(), np.zeros(3)))
        for _ in range(40):
            n = int(rng.integers(3, 10))
            cases.append((uniform(rng.standard_normal((n, 2))), rng.standard_normal(2)))
        for p, mu in cases:
            res = hs.depth_oracle(p, mu)
            t = float(res.witness @ np.asarray(mu, dtype=float))
            assert hs.halfspace_mass(p, res.witness, t) == pytest.approx(res.value, abs=1e-9)

    def test_mass_along_a_decisive_witness_has_the_oracle_bits(self):
        # random weights, so a float sum of the weights rounds differently
        rng = hs.make_rng(21)
        checked = 0
        for _ in range(60):
            n, d = int(rng.integers(3, 12)), int(rng.integers(2, 4))
            w = rng.random(n)
            p = WeightedPointSet(rng.standard_normal((n, d)), w / w.sum())
            mu = 0.3 * rng.standard_normal(d)
            res = hs.depth_oracle(p, mu)
            t = float(res.witness @ mu)
            if np.min(np.abs(p.points @ res.witness - t)) < 1e-9:
                continue   # an atom within rounding of the boundary
            assert bits(hs.halfspace_mass(p, res.witness, t)) == bits(res.value)
            checked += 1
        assert checked >= 40

    def test_result_serialization(self):
        res = hs.depth_oracle(SQUARE_2D, [0.0, 0.0])
        obj = res.to_json_dict()
        assert obj["value"] == 0.5 and obj["engine"] == "oracle"


class TestBatteryScorer:
    def test_matches_depth_sampled_semantics(self):
        rng = hs.make_rng(2)
        p = uniform(rng.standard_normal((50, 3)))
        dirs = hs.direction_battery(p.points, 128, hs.make_rng(5), anchor="difference")
        scorer = BatteryScorer(p, dirs).scores(p.points)
        # every score is a genuine halfspace mass, hence an upper bound
        for point, score in zip(p.points[:10], scorer[:10]):
            assert score >= hs.depth_oracle(p, point).value - 1e-12

    @staticmethod
    def column_layout_scores(p, dirs, candidates):
        """Reference: the least fixed-point closed mass of each candidate
        over the whole battery, by brute force."""
        return per_direction_masses(p, dirs, candidates).min(axis=1)

    def test_matches_brute_force_with_ties(self):
        # Integer atoms, integer directions and dyadic weights keep every
        # projection and every partial sum exact, so the binary search must
        # reproduce the closed-halfspace count bit for bit. Duplicate atoms
        # and queries placed on atoms put ties at projection 0.
        rng = np.random.default_rng(11)
        pts = rng.integers(-2, 3, size=(40, 3)).astype(float)
        pts[20:30] = pts[:10]
        w = rng.integers(1, 4, size=40) / 128.0
        w[-1] = 1.0 - w[:-1].sum()
        p = WeightedPointSet(pts, w)
        dirs = rng.integers(-2, 3, size=(60, 3)).astype(float)
        dirs = dirs[np.abs(dirs).sum(axis=1) > 0]
        queries = np.vstack([pts, rng.integers(-3, 4, size=(30, 3)), 0.5 * pts[:10]])
        want = np.array([np.min(((p.points - q) @ dirs.T >= 0.0).T @ p.weights)
                         for q in queries])
        got = BatteryScorer(p, dirs).scores(queries)
        assert got.tobytes() == want.tobytes()

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40),
                  elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0,
                                            np.nan, np.inf, -np.inf])),
           st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_sorted_suffix_does_not_depend_on_atom_order(self, a, fortran, data):
        # few distinct values make long tied runs; -0.0 ties 0.0 with other
        # bits, and NaNs sort last. The objective passes an F-ordered view,
        # which must not be written to. Permuting the columns (atoms) may
        # reorder a tied run, so its values compare as numbers and its
        # masses are read where a search or a count reads them: at the
        # edges of each run, where they are exact sums of the units above
        c, n = a.shape
        units = mass_units(np.array(data.draw(st.lists(st.floats(0.01, 1.0),
                                                       min_size=n, max_size=n))))
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
        runs = []
        for rows, row_units in ((a, units), (a[:, perm], units[perm])):
            if fortran:
                rows = np.asfortranarray(rows)
            before = rows.tobytes()
            ranked, suffix = sorted_suffix(rows, row_units)
            assert rows.tobytes() == before
            assert suffix.dtype == np.int64 and suffix.shape == (c, n + 1)
            runs.append((ranked, suffix))
        (ranked, suffix), (ranked_p, suffix_p) = runs
        assert np.array_equal(ranked, ranked_p, equal_nan=True)
        assert np.array_equal(ranked, np.sort(a, axis=1), equal_nan=True)
        for row, sorted_row, masses, masses_p in zip(a, ranked, suffix, suffix_p):
            for side in ("left", "right"):
                edges = np.searchsorted(sorted_row, sorted_row, side=side)
                assert masses[edges].tobytes() == masses_p[edges].tobytes()
            for key in row[~np.isnan(row)]:
                edge = np.searchsorted(sorted_row, key, side="left")
                assert masses[edge] == int(units[~(row < key)].sum())   # NaNs sort last

    def test_suffix_masses_sum_from_the_last_rank(self):
        w = np.array([0.5, 0.25, 0.125, 0.1])
        units = mass_units(w)
        assert units.dtype == np.int64
        assert np.all(np.abs(units * 2.0 ** -60 - w) <= 2.0 ** -61)
        ranked, suffix = sorted_suffix(np.array([[3.0, 1.0, 2.0, 0.0],
                                                 [-1.0, 5.0, 4.0, 6.0]]), units)
        assert ranked.tolist() == [[0.0, 1.0, 2.0, 3.0], [-1.0, 4.0, 5.0, 6.0]]
        u = [int(x) for x in units]
        assert suffix.tolist() == [[sum(u), u[0] + u[2] + u[1], u[0] + u[2], u[0], 0],
                                   [sum(u), u[3] + u[1] + u[2], u[3] + u[1], u[3], 0]]

    def test_chunked_build_matches_column_layout(self):
        # ~1500 directions at n = 2000 span many construction chunks
        rng = hs.make_rng(3)
        pts = rng.standard_normal((2000, 3))
        pts[1000:1100] = pts[:100]
        w = rng.random(2000)
        p = WeightedPointSet(pts, w / w.sum())
        dirs = hs.direction_battery(pts, 512, hs.make_rng(4), anchor="difference")
        assert len(dirs) > depth._BUILD_PAIRS // p.size
        queries = np.vstack([pts[:50], rng.standard_normal((50, 3))])
        scorer = BatteryScorer(p, dirs)
        want = self.column_layout_scores(p, dirs, queries)
        assert scorer.scores(queries).tobytes() == want.tobytes()
        # a lone query gets the bits of its row in any batch (2000 queries
        # span several projection blocks per chunk), and an atom scored
        # alone keeps its own weight; the slack covers only the order of
        # summing the weights
        batch = scorer.scores(pts)
        for q, row in zip(pts[:200], batch):
            one = scorer.score(q)
            assert np.float64(one).tobytes() == row.tobytes()
            closed = np.min(((pts - q) @ dirs.T >= 0.0).T @ p.weights)
            assert one >= closed - 1e-12


@st.composite
def search_cases(draw):
    """Ascending integer-valued rows with ties and signed zeros, and per-row
    keys that hit entries, fall between them, sit below the first entry or
    above the last, or are -0.0 / +0.0."""
    c = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    values = st.integers(-3, 3).map(float)
    a = np.sort(np.array(draw(st.lists(values, min_size=c * n, max_size=c * n))).reshape(c, n),
                axis=1)
    signs = np.array(draw(st.lists(st.booleans(), min_size=c * n, max_size=c * n)))
    a[(a == 0.0) & signs.reshape(c, n)] = -0.0
    rows = np.array(draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=5)))
    # widths on both sides of the row-by-row threshold
    m = draw(st.sampled_from([1, 2, 3, 7, depth._LOOP_KEYS + 1]))
    key = st.one_of(st.integers(-5, 5).map(lambda k: 0.5 * k), st.sampled_from([0.0, -0.0]))
    keys = np.array(draw(st.lists(key, min_size=len(rows) * m, max_size=len(rows) * m)))
    return a, keys.reshape(len(rows), m), rows


class TestRowSearchsorted:
    @settings(max_examples=300, deadline=None)
    @given(search_cases())
    def test_equals_searchsorted_on_every_row(self, case):
        a, keys, rows = case
        want = np.array([np.searchsorted(a[r], k, side="left") for r, k in zip(rows, keys)])
        got = row_searchsorted(a, keys, rows)
        assert got.dtype == np.intp and np.array_equal(got, want)

    def test_ties_signed_zeros_and_ends(self):
        a = np.array([[0.0, 1.0, 1.0, 2.0], [-1.0, -0.0, 0.0, 5.0]])
        keys = np.array([[1.0, -1.0, 9.0], [0.0, -0.0, -2.0], [2.0, 0.5, -0.0]])
        got = row_searchsorted(a, keys, np.array([0, 1, 0]))
        assert got.tolist() == [[1, 0, 4], [1, 1, 0], [3, 1, 0]]


def per_direction_masses(p, dirs, queries):
    """Reference: the (m, c) closed masses of ``p`` at each of the
    ``queries`` (m, d) along each direction of ``dirs``, by brute force in
    fixed point: the weights rounded to int64 units of 2**-60, summed
    exactly over the atoms whose projection is at least the query's less
    the rounding bound (d + 1)·eps·|v|_1·(max |x| + |q|_inf), and converted
    to float once. Atoms are projected as a scorer projects them, one
    matrix product per construction chunk (of ``dirs``, not of its lines,
    so an entry may round otherwise than in the scorer), and queries
    coordinate by coordinate."""
    units = np.rint(p.weights * 2.0 ** 60).astype(np.int64)
    queries = np.atleast_2d(queries)
    atoms = np.vstack([depth._project_atoms(p.points, dirs[chunk])
                       for chunk in depth._build_chunks(p.size, len(dirs))])
    keys = depth._project_rows(queries, dirs)
    reach, eps = np.abs(p.points).max(), np.finfo(float).eps
    masses = []
    for q, key in zip(queries, keys.T):
        shift = np.array([(p.dim + 1) * eps * np.abs(v).sum() * (reach + np.abs(q).max())
                          for v in dirs])
        masses.append(np.where(atoms >= (key - shift)[:, None], units, 0).sum(axis=1))
    return np.array(masses) * 2.0 ** -60


@st.composite
def fixed_point_cases(draw):
    """Integer-grid atom sets of :func:`grid_cases` in R^3 with repeated
    atoms, some made coplanar and some shifted by 1e7, a seeded difference
    battery, and queries on atoms, at midpoints of atom pairs and off the
    grid."""
    p, queries = draw(grid_cases(d=3))
    pts, w = p.points.copy(), p.weights
    repeat = draw(st.lists(st.integers(0, p.size - 1), max_size=4))
    pts, w = np.vstack([pts, pts[repeat]]), np.concatenate([w, w[repeat]])
    if draw(st.booleans()):
        pts[:, 2] = 0.0
        queries = queries.copy()
        queries[:, 2] = 0.0
    pairs = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                    st.integers(0, len(pts) - 1)), max_size=8))
    queries = np.vstack([queries, pts] + [0.5 * (pts[[i]] + pts[[j]]) for i, j in pairs])
    shift = draw(st.sampled_from([0.0, 1e7]))
    pts, queries = pts + shift, queries + shift
    dirs = hs.direction_battery(pts, draw(st.integers(1, 48)),
                                hs.make_rng(draw(st.integers(0, 3))), anchor="difference")
    return WeightedPointSet(pts, w / w.sum()), dirs, queries


@st.composite
def line_batteries(draw):
    """A case of :func:`fixed_point_cases` whose battery also holds exact
    negations of its rows, duplicate rows, rows that differ from another
    only in signed zeros, and rows present only as their negation, in a
    drawn order."""
    p, dirs, queries = draw(fixed_point_cases())
    rows = st.lists(st.integers(0, len(dirs) - 1), max_size=6)
    dirs = dirs.copy()
    flipped = draw(rows)
    dirs[flipped] = -dirs[flipped]
    zeros = dirs[draw(rows)]
    zeros[zeros == 0.0] = -zeros[zeros == 0.0]       # 0.0 <-> -0.0
    dirs = np.vstack([dirs, dirs[draw(rows)], -dirs[draw(rows)], zeros])
    return p, dirs[np.array(draw(st.permutations(range(len(dirs)))), dtype=np.intp)], queries


def line_count(dirs) -> int:
    """The number of distinct rows of ``dirs`` up to sign, by brute force
    (-0.0 == 0.0 as a key)."""
    lines = set()
    for row in dirs.tolist():
        lead = next((x for x in row if x != 0.0), 1.0)
        lines.add(tuple(x * math.copysign(1.0, lead) for x in row))
    return len(lines)


class TestFixedPointMasses:
    @settings(max_examples=150, deadline=None)
    @given(line_batteries(), st.data())
    def test_bits_do_not_depend_on_path_or_batch(self, case, data):
        # each query alone (lines compared unless sorted before), then in one
        # batch (lines sorted once enough queries reach them), then in drawn
        # batches, then alone again, with lines always sorted, sorted as
        # shipped, and never sorted; every score is the least closed mass
        # over every row of the battery, negated and repeated rows included
        p, dirs, queries = case
        want = per_direction_masses(p, dirs, queries).min(axis=1)
        cuts = sorted(data.draw(st.lists(st.integers(1, len(queries) - 1), max_size=3)))
        for threshold, ranked in ((1, True), (depth._SORT_QUERIES, None), (10 ** 9, False)):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(depth, "_SORT_QUERIES", threshold)
                scorer = BatteryScorer(p, dirs)
                runs = [np.array([scorer.score(q) for q in queries]), scorer.scores(queries),
                        np.concatenate([scorer.scores(b) for b in np.split(queries, cuts)]),
                        np.array([scorer.score(q) for q in queries])]
            for got in runs:
                assert got.tobytes() == want.tobytes()
            if ranked is not None:
                assert scorer._ranked.all() == ranked and scorer._ranked.any() == ranked

    @settings(max_examples=100, deadline=None)
    @given(line_batteries(), st.data())
    def test_floors_over_lines(self, case, data):
        # exact at or above the floor, between the score and the floor below it
        p, dirs, queries = case
        want = per_direction_masses(p, dirs, queries).min(axis=1)
        threshold = data.draw(st.sampled_from([1, depth._SORT_QUERIES, 10 ** 9]))
        floor = data.draw(st.sampled_from(np.unique(want).tolist()))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(depth, "_SORT_QUERIES", threshold)
            got = BatteryScorer(p, dirs).bounded_scores(queries, floor)
        keep = want >= floor
        assert got[keep].tobytes() == want[keep].tobytes()
        assert np.all(got[~keep] >= want[~keep]) and np.all(got[~keep] < floor)

    @settings(max_examples=100, deadline=None)
    @given(line_batteries())
    def test_build_projects_each_line_once(self, case):
        # one atom product per construction chunk, each line in exactly one
        p, dirs, _ = case
        projected = []
        real = depth._project_atoms
        with pytest.MonkeyPatch.context() as m:
            m.setattr(depth, "_project_atoms", lambda points, rows, out=None:
                      (projected.append(rows.copy()), real(points, rows, out))[1])
            scorer = BatteryScorer(p, dirs)
        rows = np.vstack(projected)
        assert len(rows) == line_count(dirs) == line_count(rows) == scorer._proj.shape[0]
        chunks = list(depth._build_chunks(p.size, len(rows)))
        assert [len(chunk) for chunk in projected] == [len(rows[c]) for c in chunks]
        assert scorer._proj.tobytes() == np.vstack([real(p.points, chunk)
                                                    for chunk in projected]).tobytes()


@st.composite
def repeated_grid_sets(draw):
    """A set of 2**k rows (k = 4 or 10) drawn from a few integer-grid cells
    in R^3, so most atoms repeat, unmerged, with the dyadic weight 2**-k
    each (a merged atom's weight is then its exact units sum), maybe
    shifted by 1e7; a seeded difference battery on the merged atoms; and
    queries on atoms, at midpoints of atom pairs and off the grid. At
    k = 10 the battery spans several construction chunks, and the merged
    set is chunked otherwise."""
    k = draw(st.sampled_from([4, 10]))
    cells = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1,
                          max_size=6 if k == 4 else 200, unique=True))
    rows = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2 ** k, max_size=2 ** k))
    pts = np.array(cells, dtype=float)[rows] + draw(st.sampled_from([0.0, 1e7]))
    p = WeightedPointSet(pts, np.full(2 ** k, 2.0 ** -k))
    gen = hs.make_rng(draw(st.integers(0, 3)))
    dirs = hs.direction_battery(p.consolidate().points, 16 if k == 4 else 256, gen,
                                anchor="difference")
    on, other = pts[gen.integers(0, len(pts), size=(2, 32))]
    queries = np.vstack([on, 0.5 * (on + other), on + 0.5 * gen.standard_normal((32, 3))])
    return p, dirs, queries


class TestScorerAtomProjections:
    """Atoms are projected by one matrix product per construction chunk,
    whose bits may depend on an entry's position and on the chunk's shape
    (a one-line chunk is a matrix-vector product, which rounds otherwise);
    the cut shift covers that, so equal atoms count alike wherever they sit,
    and a scorer's bits do not depend on the BLAS thread count."""

    @settings(max_examples=40, deadline=None)
    @given(repeated_grid_sets(), st.sampled_from([1, 10 ** 9]))
    def test_repeated_atoms_score_as_merged(self, case, threshold):
        # lines sorted or compared; the unmerged set projected in chunks or
        # line by line, against the merged set in its own chunks
        p, dirs, queries = case
        merged = p.consolidate()
        assert merged.size < p.size
        assert mass_units(merged.weights).sum() == mass_units(p.weights).sum()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(depth, "_SORT_QUERIES", threshold)
            want = BatteryScorer(merged, dirs).scores(queries)
            runs = [BatteryScorer(p, dirs).scores(queries)]
            m.setattr(depth, "_BUILD_PAIRS", 1)
            runs.append(BatteryScorer(p, dirs).scores(queries))
        for got in runs:
            assert got.tobytes() == want.tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        # the tukey_sampled_3d shape: about 1800 merged atoms, budget 256
        script = """if True:
            import hashlib
            import numpy as np
            import halfspace as hs
            from halfspace.median import _battery_scorer, _candidate_pool
            clean = hs.sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 2000, rng=1)
            p = hs.adaptive_corrupt_samples(clean, 0.1, hs.constant_cluster([50.0, 0.0, 0.0]),
                                            rng=2).consolidate()
            gen = np.random.default_rng(1)
            pool = _candidate_pool(p, hs.coordinatewise_median(p), (), 2000, gen)
            scorer = _battery_scorer(p, 256, gen)
            print(p.size, hashlib.sha256(scorer._proj.tobytes()).hexdigest())
            rows = pool[np.linspace(0, len(pool) - 1, 64).astype(int)]
            print(hashlib.sha256(scorer.scores(rows).tobytes()).hexdigest())
        """
        src = str(Path(hs.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs = [subprocess.run([sys.executable, "-c", script], env=dict(env, **extra),
                               capture_output=True, text=True, check=True).stdout
                for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {})]
        size = int(outs[0].split()[0])
        assert 1700 < size < 1900
        assert outs[0] == outs[1]


@st.composite
def permuted_cases(draw):
    """An integer-grid atom set of :func:`grid_cases` in R^2 or R^3 (repeated
    atoms and projections, -0.0 coordinates) with non-dyadic weights, and a
    permutation of its atoms."""
    p, _ = draw(grid_cases(d=draw(st.sampled_from([2, 3]))))
    pts = np.vstack([p.points, p.points[draw(st.lists(st.integers(0, p.size - 1), max_size=6))]])
    n = len(pts)
    w = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
    w = (w + 1.0 / 3.0) / (w.sum() + n / 3.0)
    return WeightedPointSet(pts, w), np.array(draw(st.permutations(range(n))))


def bits(values) -> bytes:
    """Bytes of ``values`` as float64."""
    return np.asarray(values, dtype=float).tobytes()


class TestPermutationInvariance:
    @settings(max_examples=200, deadline=None)
    @given(permuted_cases(), st.integers(0, 3))
    # the weighted centroid of a permuted set rounds differently
    @example((WeightedPointSet(np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 3.0, 0.0]]),
                               np.full(3, 1.0 / 3.0)), np.array([0, 2, 1])), 0)
    def test_outputs_keep_their_bits_when_atoms_are_permuted(self, case, seed):
        p, perm = case
        q = WeightedPointSet(p.points[perm], p.weights[perm])
        ts = np.arange(0.0, 4.25, 0.25)
        ys = [0.05, 0.2, 1.0 / 3.0, 0.5, 0.75, 1.0]
        for center in (np.zeros(p.dim), p.points[0]):
            a, b = (hs.DecayProfile.empirical(x, center, budget=16, rng=seed) for x in (p, q))
            assert bits([a.eval(t) for t in ts]) == bits([b.eval(t) for t in ts])
            assert bits([a.inverse(y) for y in ys]) == bits([b.inverse(y) for y in ys])
        for k in range(p.dim):
            assert (bits(weighted_median_interval(p.points[:, k], p.weights))
                    == bits(weighted_median_interval(q.points[:, k], q.weights)))
        assert bits(hs.coordinatewise_median(p)) == bits(hs.coordinatewise_median(q))
        start = np.full(p.dim, 0.25)
        for run in (lambda x: hs.median_candidates(x, "sampled", budget=16, rng=seed),
                    lambda x: hs.median_refine(x, start, "sampled", steps=4, budget=16, rng=seed)):
            a, b = run(p), run(q)
            assert bits(a.point) == bits(b.point)
            assert bits(a.achieved_depth) == bits(b.achieved_depth)
            assert a.candidate_count == b.candidate_count
        family = hs.TemplateFamily(hs.NamedDistribution.gaussian(np.zeros(p.dim)),
                                   hs.DecayProfile.gaussian(), np.array([[-4.0, 4.0]] * p.dim))
        a, b = (hs.project_estimate(x, family, starts=0, budget=16, steps=4, rng=seed)
                for x in (p, q))
        assert bits(a.mu_hat) == bits(b.mu_hat) and bits(a.objective) == bits(b.objective)
        assert a.evaluations == b.evaluations


class TestDirectionBlocks:
    @pytest.mark.parametrize("c", [1, 63, 64, 200])
    def test_doubling_sizes_cover_each_direction_once(self, c):
        spans = list(depth.direction_blocks(c))
        taken = np.concatenate([np.arange(c)[s] for s in spans])
        assert np.array_equal(taken, np.arange(c))
        sizes = [len(range(c)[s]) for s in spans]
        want = [min(2 ** k, depth._BLOCK_ROWS) for k in range(len(sizes))]
        assert sizes[:-1] == want[:-1] and 1 <= sizes[-1] <= want[-1]


class TestBoundedScores:
    @staticmethod
    def setup_case(seed):
        rng = hs.make_rng(seed)
        p = uniform(np.round(2.0 * rng.standard_normal((80, 3))) / 2.0)   # ties, duplicates
        dirs = hs.direction_battery(p.consolidate().points, 48, hs.make_rng(seed + 1),
                                    anchor="difference")
        queries = np.vstack([p.points[:20], 0.25 * rng.standard_normal((40, 3))])
        return p, BatteryScorer(p, dirs), queries

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_survivors_exact_and_pruned_between_score_and_floor(self, seed):
        _, scorer, queries = self.setup_case(seed)
        exact = scorer.scores(queries)
        for floor in np.unique(exact):
            got = scorer.bounded_scores(queries, floor)
            keep = exact >= floor
            assert got[keep].tobytes() == exact[keep].tobytes()
            assert np.all(got[~keep] >= exact[~keep]) and np.all(got[~keep] < floor)

    def test_stops_at_the_first_block_below_the_floor(self, monkeypatch):
        # blocks of 1, 2, 4, ... lines in order of first appearance, each
        # line read in both of its directions where the battery holds both:
        # a query whose k-th line is the first below the floor takes the
        # blocks that reach k, and returns the running minimum over exactly
        # those lines
        p, scorer, queries = self.setup_case(3)
        q = queries[25]
        rows, twin = depth.direction_lines(scorer.dirs)
        lines = scorer.dirs[rows]
        assert twin.sum() > 16 and not twin.all()
        masses = per_direction_masses(p, lines, q)[0]
        masses = np.where(twin, np.minimum(masses, per_direction_masses(p, -lines, q)[0]),
                          masses)
        floor = float(masses[:16].min())                 # no line below it before 16
        first = int(np.argmax(masses < floor))
        assert masses[first] < floor and first >= 16
        sizes, start = [], 0
        while start <= first:
            sizes.append(min(2 ** len(sizes), depth._BLOCK_ROWS, len(masses) - start))
            start += sizes[-1]
        # the query is projected once per block, on the block's lines
        seen = []
        real = depth._project_rows
        monkeypatch.setattr(depth, "_project_rows", lambda points, dirs, out=None:
                            (seen.append(dirs.copy()), real(points, dirs, out))[1])
        got = scorer.bounded_scores(q[None, :], floor)[0]
        assert [len(block) for block in seen] == sizes
        assert np.vstack(seen).tobytes() == lines[:start].tobytes()
        assert got == masses[:start].min() < floor

    def test_scores_is_the_floor_free_case(self):
        p, scorer, queries = self.setup_case(4)
        assert scorer.scores(queries).tobytes() == \
            scorer.bounded_scores(queries, -np.inf).tobytes()
        assert per_direction_masses(p, scorer.dirs, queries).min(axis=1).tolist() == \
            scorer.scores(queries).tolist()


class TestScorerMemoryGuard:
    def test_cap_is_the_resident_size(self, monkeypatch):
        rng = hs.make_rng(7)
        p = uniform(rng.standard_normal((300, 3)))
        dirs = hs.direction_battery(p.points, 32, hs.make_rng(8), anchor="difference")
        # the scorer keeps one row per line: a row and its negation share one
        u = line_count(dirs)
        assert u < len(dirs)
        resident = 8 * u * (2 * 300 + 1)
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", resident - 1)
        with pytest.raises(ConfigError, match=f"battery scorer needs {resident} bytes for "
                                              f"n=300 atoms and c={u} directions.*lower budget"):
            BatteryScorer(p, dirs)
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", resident)
        scorer = BatteryScorer(p, dirs)
        assert scorer._proj.nbytes + scorer._suffix.nbytes == resident
