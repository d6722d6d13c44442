import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfspace as hs
from halfspace.model import WeightedPointSet, row_groups


def square3d() -> WeightedPointSet:
    return hs.square_distribution().atoms_absolute()


class TestWeightedPointSet:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 1)), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            WeightedPointSet(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_consolidate_merges_exact_duplicates(self):
        p = WeightedPointSet(np.array([[1.0], [1.0], [2.0]]), np.array([0.25, 0.25, 0.5]))
        merged = p.consolidate()
        assert merged.size == 2
        assert merged.weights[merged.points[:, 0] == 1.0] == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_merged_set_is_returned_as_it_is(self, n, d, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-2, 3, size=(n, d)) * 0.5
        pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
        w = 10.0 ** rng.uniform(-6.0, 0.0, n)
        merged = WeightedPointSet(pts, w / w.sum()).consolidate()
        assert merged.consolidate() is merged
        # a full merge of the merged set gives the same bits
        uniq = np.unique(merged.points, axis=0) + 0.0
        assert uniq.tobytes() == merged.points.tobytes()
        if merged.size > 1:
            swapped = WeightedPointSet(merged.points[::-1], merged.weights[::-1])
            again = swapped.consolidate()
            assert again is not swapped
            assert again.points.tobytes() == merged.points.tobytes()
            assert again.weights.tobytes() == merged.weights.tobytes()

    @pytest.mark.parametrize("points", [[[0.0, 1.0], [0.0, 1.0]], [[-0.0, 1.0], [1.0, 0.0]],
                                        [[1.0, 0.0], [0.0, 1.0]], [[0.0, 2.0], [0.0, 1.0]]])
    def test_unmerged_set_is_merged(self, points):
        p = WeightedPointSet(np.array(points), np.array([0.5, 0.5]))
        merged = p.consolidate()
        assert merged is not p
        assert not np.any(np.signbit(merged.points))
        assert merged.consolidate() is merged

    def test_a_merged_set_is_checked_once(self, monkeypatch):
        ordered = WeightedPointSet(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        built = WeightedPointSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, -0.0]]),
                                 np.array([0.25, 0.25, 0.5])).consolidate()
        assert ordered.consolidate() is ordered
        # both sets now know they are merged: neither runs the check again
        monkeypatch.setattr(np, "signbit", lambda *a: pytest.fail("merged set checked again"))
        assert ordered.consolidate() is ordered
        assert built.consolidate() is built

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 4), st.sampled_from([0.0, 1e7]),
           st.integers(0, 2 ** 32 - 1))
    def test_consolidate_equals_the_unique_reference(self, n, d, shift, seed):
        # few distinct atoms, each repeated, with -0.0 beside 0.0 and weights
        # over six decades; the reference is the np.unique merge
        rng = np.random.default_rng(seed)
        atoms = rng.integers(-2, 3, size=(rng.integers(1, 6), d)) * 0.5 + shift
        pts = atoms[rng.integers(0, len(atoms), n)]
        pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
        w = 10.0 ** rng.uniform(-6.0, 0.0, n)
        p = WeightedPointSet(pts, w / w.sum())
        uniq, inverse = np.unique(p.points, axis=0, return_inverse=True)
        want = np.zeros(len(uniq))
        ascending = np.argsort(p.weights)
        np.add.at(want, inverse.ravel()[ascending], p.weights[ascending])
        perm = rng.permutation(n)
        for q in (p, WeightedPointSet(p.points[perm], p.weights[perm])):
            merged = q.consolidate()
            assert merged.points.tobytes() == (uniq + 0.0).tobytes()
            assert merged.weights.tobytes() == want.tobytes()

    def test_row_groups_keep_the_first_of_equal_rows(self):
        rows = np.array([[1.0, -0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 2.0], [-1.0, 5.0]])
        first, group = row_groups(rows)
        assert first.tolist() == [4, 1, 0]
        assert group.tolist() == [2, 1, 2, 1, 0]

    def test_csv_round_trip_is_exact(self):
        rng = hs.make_rng(0)
        p = WeightedPointSet.from_points(rng.standard_normal((7, 3)))
        q = WeightedPointSet.from_csv(p.to_csv())
        assert np.array_equal(p.points, q.points)
        assert np.array_equal(p.weights, q.weights)

    def test_csv_header(self):
        p = square3d()
        assert p.to_csv().splitlines()[0] == "w,x1,x2,x3"

    def test_json_round_trip(self):
        p = square3d()
        q = WeightedPointSet.from_json_dict(p.to_json_dict())
        assert np.array_equal(p.points, q.points)


class TestProjectPoints:
    def test_axis_projection(self):
        p = WeightedPointSet.from_points([[1.0, 0.0], [-1.0, 0.0]])
        values, weights = hs.project_points(p, [1.0, 0.0])
        assert sorted(zip(values, weights)) == [(-1.0, 0.5), (1.0, 0.5)]

    def test_zero_direction_rejected(self):
        p = WeightedPointSet.from_points([[1.0, 0.0]])
        with pytest.raises(ValueError):
            hs.project_points(p, [0.0, 0.0])

    def test_normalized_direction_has_unit_norm(self):
        rng = hs.make_rng(0)
        for _ in range(50):
            scale = 10.0 ** float(rng.integers(-6, 7))
            v = hs.as_direction(scale * rng.standard_normal(4), normalize=True)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_square_diagonal(self):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        values, weights = hs.project_points(square3d(), v)
        assert np.allclose(sorted(values), [-np.sqrt(2), 0.0, 0.0, np.sqrt(2)])
        assert np.allclose(weights, 0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs.project_points(square3d(), [1.0, 0.0])


class TestHalfspaceMass:
    def test_square_axis(self):
        assert hs.halfspace_mass(square3d(), [1.0, 0.0, 0.0], 0.0) == 0.5

    def test_whole_space(self):
        assert hs.halfspace_mass(square3d(), [1.0, 0.0, 0.0], -np.inf) == 1.0

    def test_boundary_atoms_follow_closed_flag(self):
        p = square3d()
        assert hs.halfspace_mass(p, [0.0, 0.0, 1.0], 0.0, closed=True) == 1.0
        assert hs.halfspace_mass(p, [0.0, 0.0, 1.0], 0.0, closed=False) == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_closed_open_complement(self, seed):
        rng = hs.make_rng(seed)
        n = int(rng.integers(1, 8))
        p = WeightedPointSet.from_points(rng.standard_normal((n, 2)))
        v = rng.standard_normal(2)
        if np.linalg.norm(v) == 0:
            return
        t = float(rng.standard_normal())
        closed = hs.halfspace_mass(p, v, t, closed=True)
        open_comp = hs.halfspace_mass(p, -v, -t, closed=False)
        assert closed >= hs.halfspace_mass(p, v, t, closed=False)
        assert closed + open_comp == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_tail_masses_match_exactly(self):
        rng = hs.make_rng(3)
        offsets = rng.standard_normal((5, 3))
        pts = np.vstack([offsets, -offsets])
        p = WeightedPointSet.from_points(pts)
        for _ in range(20):
            v = rng.standard_normal(3)
            t = float(abs(rng.standard_normal()))
            above = hs.halfspace_mass(p, v, t, closed=False)
            below = hs.halfspace_mass(p, -np.asarray(v), t, closed=False)
            assert above == below


class TestSampling:
    def test_single_atom(self):
        dist = hs.NamedDistribution.discrete(np.zeros(2), WeightedPointSet.delta([0.0, 0.0]))
        s = hs.sample(dist, 5, rng=1)
        assert s.size == 5
        assert np.all(s.points == 0.0)
        assert np.allclose(s.weights, 0.2)

    def test_gaussian_mean_concentrates(self):
        dist = hs.NamedDistribution.gaussian(np.array([1.0, -2.0, 0.5]), 1.0)
        s = hs.sample(dist, 10_000, rng=7)
        assert np.max(np.abs(s.mean() - dist.center)) < 0.05

    def test_ball_stays_inside_radius(self):
        dist = hs.NamedDistribution.ball(np.zeros(4), 2.5)
        s = hs.sample(dist, 2_000, rng=5)
        assert np.linalg.norm(s.points, axis=1).max() <= 2.5 + 1e-12

    @pytest.mark.parametrize("maker", [
        lambda: hs.NamedDistribution.gaussian(np.zeros(3), 1.0),
        lambda: hs.NamedDistribution.ball(np.zeros(3), 1.0),
        lambda: hs.square_distribution(),
    ])
    def test_same_seed_same_stream(self, maker):
        a = hs.sample(maker(), 64, rng=99)
        b = hs.sample(maker(), 64, rng=99)
        assert np.array_equal(a.points, b.points)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            hs.sample(hs.NamedDistribution.gaussian(np.zeros(2), 1.0), 0, rng=0)


class TestSymmetryCheck:
    def test_square_is_symmetric(self):
        assert hs.symmetry_check(square3d(), np.zeros(3))

    def test_tetrahedron_is_not(self):
        _, tetra = hs.attack_tetrahedron(5.0)
        for center in (np.zeros(3), tetra.mean(), np.array([-0.5, -0.5, 2.5])):
            assert not hs.symmetry_check(tetra, center)

    def test_single_atom_at_center(self):
        p = WeightedPointSet.delta([3.0, 1.0])
        assert hs.symmetry_check(p, np.array([3.0, 1.0]))

    def test_asymmetric_atoms_rejected_by_named_distribution(self):
        offsets = WeightedPointSet.from_points([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            hs.NamedDistribution.discrete(np.zeros(2), offsets)
