import math
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import halfspace as hs
from halfspace import depth, metrics
from halfspace.metrics import DecayProfile, _signed_union, normal_cdf, normal_quantile
from halfspace.model import ConfigError, WeightedPointSet


def erf_cdf(x: float) -> float:
    # independent reference for the ndtr-based CDF
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestNormalMachinery:
    def test_cdf_matches_erf_reference(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        ref = np.array([erf_cdf(x) for x in xs])
        assert np.max(np.abs(normal_cdf(xs) - ref)) <= 1.5e-7

    @pytest.mark.parametrize("y,expected", [(0.7, 0.52440), (0.5, 0.0), (0.975, 1.95996)])
    def test_quantile_reference_values(self, y, expected):
        assert normal_quantile(y) == pytest.approx(expected, abs=2e-4)

    def test_quantile_inverts_cdf(self):
        for y in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert normal_cdf(normal_quantile(y)) == pytest.approx(y, abs=1e-7)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)


SQUARE_PROFILE = hs.square_decay_profile()


class TestDecayProfiles:
    def test_gaussian_values(self):
        g = DecayProfile.gaussian(1.0)
        assert g.eval(0.0) == pytest.approx(0.5, abs=1e-7)
        assert g.eval(1.0) == pytest.approx(0.15866, abs=1e-5)

    def test_gaussian_inverse(self):
        g = DecayProfile.gaussian(1.0)
        assert g.inverse(0.5) == 0.0
        assert g.inverse(0.3) == pytest.approx(0.52440, abs=1e-4)
        assert g.inverse(-0.1) == math.inf
        with pytest.raises(ValueError):
            g.inverse(1.5)

    def test_ball_tail_matches_hand_formula_d3(self):
        b = DecayProfile.uniform_ball(1.0, 3)
        for t in (0.0, 0.25, 0.5, 0.9, 1.0, 2.0):
            expected = (2.0 - 3.0 * t + t ** 3) / 4.0 if t <= 1.0 else 0.0
            assert b.eval(t) == pytest.approx(expected, abs=1e-12)

    def test_ball_tail_d1_is_uniform_segment(self):
        b = DecayProfile.uniform_ball(2.0, 1)
        for t in (0.0, 0.5, 1.0, 1.9):
            assert b.eval(t) == pytest.approx((2.0 - t) / 4.0, abs=1e-12)

    def test_ball_inverse_closed_form(self):
        # r sqrt(betaincinv(1/2, (d + 1)/2, 1 - 2y)), within 1e-12 of the drop
        for dim in (1, 2, 3, 7):
            b = DecayProfile.uniform_ball(1.0, dim)
            x = b.inverse(0.2)
            assert b.eval(x + 1e-12) < 0.2 <= b.eval(x - 1e-12)
            assert b.inverse(0.5) == b.inverse(0.7) == 0.0

    def test_piecewise_square_profile(self):
        assert SQUARE_PROFILE.eval(0.5) == 0.5
        assert SQUARE_PROFILE.eval(1.2) == 0.25
        assert SQUARE_PROFILE.eval(1.5) == 0.0
        assert SQUARE_PROFILE.inverse(0.2) == pytest.approx(math.sqrt(2.0))
        assert SQUARE_PROFILE.inverse(0.3) == 1.0

    def test_empirical_square_profile(self):
        atoms = hs.square_distribution().atoms
        prof = DecayProfile.empirical(atoms, np.zeros(3), budget=2048, rng=0)
        assert prof.eval(0.5) == 0.5
        assert prof.eval(1.2) == 0.25
        assert prof.eval(1.5) == 0.0
        assert prof.inverse(0.2) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("budget", [0, 24])
    def test_empirical_profile_is_the_battery_max_of_strict_tails(self, budget):
        # dyadic weights sum exactly in any order; an atom at the center,
        # atoms tied along the axes and along their own offsets
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 0.0],
                        [-1.0, 0.0], [0.0, 2.0], [-2.0, -2.0]])
        w = np.array([8, 4, 4, 4, 2, 4, 3, 3]) / 32.0
        atoms = WeightedPointSet(pts, w)
        prof = DecayProfile.empirical(atoms, np.zeros(2), budget=budget, rng=9)
        # the profile's battery: axes, atom offsets, then seeded random directions
        unit = pts[1:] / np.linalg.norm(pts[1:], axis=1)[:, None]
        raw = hs.make_rng(9).standard_normal((budget, 2))
        dirs = np.vstack([np.eye(2), -np.eye(2), unit, -unit,
                          raw / np.linalg.norm(raw, axis=1)[:, None]])
        proj = depth._project_rows(pts, dirs).T
        ts = np.concatenate([np.unique(proj[proj >= 0]), [0.25, 1.5, 3.0, 100.0]])
        for t in ts:
            want = max(float(w[proj[:, j] > t].sum()) for j in range(len(dirs)))
            assert prof.eval(float(t)) == want
        # the inverse is the projection where the profile drops below y
        for y in (0.5, 0.4, 0.3, 0.2, 0.1, 0.05):
            x = prof.inverse(y)
            assert x == 0.0 or x in proj
            assert prof.eval(x) < y
            if x > 0.0:
                assert y <= prof.eval(np.nextafter(x, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 16), st.floats(1e-9, 1.0))
    def test_empirical_inverse_is_the_jump(self, d, n, seed, budget, y_free):
        # integer grids with ties and -0.0, weights over six decades, and y
        # both free and at one of the profile's own masses
        rng = np.random.default_rng(seed)
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
        pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
        w = 10.0 ** rng.uniform(-6.0, 0.0, n)
        prof = DecayProfile.empirical(WeightedPointSet(pts, w / w.sum()), np.zeros(d),
                                      budget=budget, rng=seed)
        masses = prof._emp_suffix[(prof._emp_suffix > 0) & (prof._emp_suffix <= 1.0)]
        for y in (y_free, float(rng.choice(masses)) if masses.size else 1.0):
            x = prof.inverse(y)
            assert x == 0.0 or x in prof._emp_sorted
            assert prof.eval(x) < y
            if x > 0.0:
                assert y <= prof.eval(np.nextafter(x, 0.0))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            DecayProfile.gaussian(1.0).eval(-0.5)

    @pytest.mark.parametrize("profile", [
        DecayProfile.gaussian(0.7),
        DecayProfile.uniform_ball(1.5, 4),
        SQUARE_PROFILE,
    ])
    def test_monotone_nonincreasing(self, profile):
        ts = np.linspace(0.0, 3.0, 40)
        vals = [profile.eval(float(t)) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=5), st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_generalized_inverse_strict_inf_semantics(self, raw, y):
        ts = np.cumsum([t for t, _ in sorted(raw)])
        hs_vals = sorted((h for _, h in raw), reverse=True)
        bp = [[0.0, 1.0]] + [[float(t), float(h)] for t, h in zip(ts, hs_vals)]
        profile = DecayProfile.piecewise(bp)
        x = profile.inverse(y)
        if x == math.inf:
            assert all(h >= y for _, h in bp)
        else:
            delta = float(np.min(np.diff([t for t, _ in bp]))) / 2 if len(bp) > 1 else 0.5
            assert profile.eval(x + delta) < y
            if x > 0:
                assert profile.eval(max(x - delta, 0.0)) >= y


class TestDecayProfileMemoryGuard:
    def test_cap_is_the_resident_size(self, monkeypatch):
        # the sorted (c, n) projections and the (c, n + 1) tail masses
        atoms = hs.sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 300, rng=7)
        prof = DecayProfile.empirical(atoms, np.zeros(3), budget=32, rng=8)
        c, n = prof._emp_sorted.shape
        resident = 8 * c * (2 * n + 1)
        assert prof._emp_sorted.nbytes + prof._emp_suffix.nbytes == resident
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", resident - 1)
        with pytest.raises(ConfigError, match=f"decay profile needs {resident} bytes for "
                                              f"n={n} atoms and c={c} directions.*lower budget"):
            DecayProfile.empirical(atoms, np.zeros(3), budget=32, rng=8)
        monkeypatch.setattr(depth, "_RESIDENT_BYTES_CAP", resident)
        again = DecayProfile.empirical(atoms, np.zeros(3), budget=32, rng=8)
        assert again.eval(0.5) == prof.eval(0.5)


class TestDistances:
    def test_tv_identical(self):
        p = hs.square_distribution().atoms_absolute()
        assert hs.tv_distance(p, p) == 0.0

    def test_tv_disjoint_deltas(self):
        assert hs.tv_distance(WeightedPointSet.delta([0.0]), WeightedPointSet.delta([1.0])) == 1.0

    def test_tv_aligns_signed_zeros(self):
        zero, neg_zero = WeightedPointSet.delta([0.0]), WeightedPointSet.delta([-0.0])
        assert hs.tv_distance(zero, neg_zero) == 0.0
        plane = WeightedPointSet.from_points([[1.0, 0.0], [2.0, -0.0]])
        flipped = WeightedPointSet.from_points([[1.0, -0.0], [2.0, 0.0]])
        assert hs.tv_distance(plane, flipped) == 0.0

    def test_tv_square_vs_tetrahedron(self):
        p_star, p = hs.attack_tetrahedron(3.0)
        assert hs.tv_distance(p_star, p) == 0.25

    def test_metric_deltas_1d(self):
        assert hs.halfspace_metric(WeightedPointSet.delta([0.0]),
                                   WeightedPointSet.delta([1.0])) == 1.0

    def test_metric_two_atoms_vs_delta(self):
        p = WeightedPointSet.from_points([[0.0], [1.0]])
        q = WeightedPointSet.delta([0.0])
        assert hs.halfspace_metric(p, q) == 0.5

    def test_metric_sampled_square_vs_tetrahedron(self):
        p_star, p = hs.attack_tetrahedron(4.0)
        m = hs.halfspace_metric(p_star, p, mode="sampled", budget=10_000, rng=1)
        assert 0.2 <= m <= 0.25 + 1e-12

    def test_exact_mode_guards_high_dimension(self):
        p_star, p = hs.attack_tetrahedron(4.0)
        with pytest.raises(ValueError):
            hs.halfspace_metric(p_star, p, mode="exact")

    def test_sampled_mode_lower_bounds_exact(self):
        rng = hs.make_rng(29)
        for _ in range(40):
            d = int(rng.integers(1, 3))
            p = WeightedPointSet.from_points(rng.standard_normal((int(rng.integers(2, 7)), d)))
            q = WeightedPointSet.from_points(rng.standard_normal((int(rng.integers(2, 7)), d)))
            exact = hs.halfspace_metric(p, q, mode="exact")
            sampled = hs.halfspace_metric(p, q, mode="sampled", budget=256, rng=rng)
            assert sampled <= exact + 1e-12

    def test_metric_below_tv_and_triangle(self):
        rng = hs.make_rng(17)
        for k in range(120):
            d = int(rng.integers(1, 3))
            if k % 2:
                trio = [WeightedPointSet.from_points(rng.standard_normal((int(rng.integers(2, 8)), d)))
                        for _ in range(3)]
            else:
                # atoms drawn from one shared pool, with generic weights
                pool = rng.standard_normal((4, d))
                trio = []
                for _ in range(3):
                    w = rng.random(int(rng.integers(1, 6))) + 0.1
                    trio.append(WeightedPointSet(pool[rng.integers(0, 4, size=len(w))],
                                                 w / w.sum()))
            m01 = hs.halfspace_metric(trio[0], trio[1])
            m12 = hs.halfspace_metric(trio[1], trio[2])
            m02 = hs.halfspace_metric(trio[0], trio[2])
            assert m01 <= hs.tv_distance(trio[0], trio[1]) + 1e-12
            assert m02 <= m01 + m12 + 1e-10
            assert hs.halfspace_metric(trio[1], trio[0]) == m01

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_shared_atom_is_projected_once(self, mode):
        # q keeps half of p's atom; projecting p and q apart rounded that
        # atom to two floats, and a threshold between them read 1.0
        x = [-0.38312626500769986, 0.9112608549019698]
        p = WeightedPointSet.delta(x)
        q = WeightedPointSet(np.array([x, [1.4442989994390623, 0.6660043098063377],
                                       [0.21925378420038097, 0.9267090914598398],
                                       [1.0625342393353856, 0.3410358109726957]]),
                             np.array([0.5, 2 / 7, 1 / 7, 1 / 14]))
        assert hs.halfspace_metric(p, q, mode=mode) == 0.5 == hs.tv_distance(p, q)


def _separable(inside: np.ndarray, outside: np.ndarray) -> bool:
    """Whether some hyperplane strictly separates two point sets: the LP
    v.x - t >= 1 on ``inside``, v.x - t <= -1 on ``outside`` (margins of 1
    by scaling) is feasible."""
    if not len(inside) or not len(outside):
        return True
    # rows of A_ub @ (v, t) <= -1
    a_ub = np.vstack([np.column_stack([-inside, np.ones(len(inside))]),
                      np.column_stack([outside, -np.ones(len(outside))])])
    res = linprog(np.zeros(a_ub.shape[1]), A_ub=a_ub, b_ub=-np.ones(len(a_ub)),
                  bounds=[(None, None)] * a_ub.shape[1], method="highs")
    return res.status == 0


def lp_reference(p: WeightedPointSet, q: WeightedPointSet) -> float:
    """Halfspace metric by brute force: the largest |p(S) - q(S)| over the
    subsets S of the distinct union atoms that a hyperplane strictly
    separates from the rest (these are exactly the closed-halfspace cuts).
    Masses are correctly rounded float sums, so dyadic weights are exact."""
    terms: dict[tuple, list[float]] = {}
    for pts, sign, w in ((p.points, 1.0, p.weights), (q.points, -1.0, q.weights)):
        for x, wi in zip(pts.tolist(), w.tolist()):
            terms.setdefault(tuple(x), []).append(sign * wi)     # -0.0 == 0.0 as a key
    atoms = np.array(list(terms))
    values = []
    for mask in range(1 << len(atoms)):
        chosen = [(mask >> i) & 1 == 1 for i in range(len(atoms))]
        mass = math.fsum(t for c, ts in zip(chosen, terms.values()) if c for t in ts)
        values.append((abs(mass), np.array(chosen)))
    # the largest value whose subset is separable; the empty set always is
    for value, chosen in sorted(values, key=lambda vc: -vc[0]):
        if _separable(atoms[chosen], atoms[~chosen]):
            return value
    raise AssertionError("the empty subset is always separable")


def units_reference(p: WeightedPointSet, q: WeightedPointSet) -> float:
    """Halfspace metric in fixed point by brute force: the largest |sum| of
    the int64 :func:`~halfspace.metrics._signed_union` units over the
    subsets of the union that a hyperplane strictly separates from the
    rest, converted to float once as the metric converts its own."""
    atoms, units = _signed_union(p, q)
    masks = (np.arange(1 << len(atoms))[:, None] >> np.arange(len(atoms))) & 1 == 1
    sums = [abs(int(units[chosen].sum())) for chosen in masks]
    # the largest sum whose subset is separable; the empty set always is
    for k in sorted(range(len(masks)), key=lambda k: -sums[k]):
        if _separable(atoms[masks[k]], atoms[~masks[k]]):
            return sums[k] * depth._MASS_UNIT
    raise AssertionError("the empty subset is always separable")


def fraction_reference(p: WeightedPointSet, q: WeightedPointSet) -> float:
    """Planar halfspace metric of the float atoms in exact rational
    arithmetic: the largest |prefix sum| of the signed union units in
    projection order, along one direction inside every sector between the
    exact critical directions (the axes and both normals of every atom
    pair), converted to float once. A cut with atoms on its boundary is
    also a cut of a direction inside a neighbouring sector."""
    atoms, units = _signed_union(p, q)
    pts = [tuple(map(Fraction, x)) for x in atoms.tolist()]
    crit = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for (ax, ay), (bx, by) in combinations(pts, 2):
        crit += [(ay - by, bx - ax), (by - ay, ax - bx)]

    def turn(a, b):
        """Order of two directions by angle in [0, 2 pi)."""
        upper = [v[1] > 0 or (v[1] == 0 and v[0] > 0) for v in (a, b)]
        if upper[0] != upper[1]:
            return -1 if upper[0] else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return (cross < 0) - (cross > 0)

    crit.sort(key=cmp_to_key(turn))
    best = 0
    for a, b in zip(crit, crit[1:] + crit[:1]):
        if turn(a, b) != 0:
            v = (a[0] + b[0], a[1] + b[1])      # strictly inside: the sectors are below pi
            order = sorted(range(len(pts)), key=lambda i: v[0] * pts[i][0] + v[1] * pts[i][1])
            best = max(best, max(abs(s) for s in np.cumsum(units[order]).tolist()))
    return best * depth._MASS_UNIT


@st.composite
def near_collinear_pairs(draw):
    """p and q on a 0.1-step grid near (100, 100): the float atoms are
    nearly collinear in many ways, with sectors far narrower than 1e-13
    rad between them."""
    cell = st.tuples(*[st.integers(-3, 3).map(lambda k: 100.0 + 0.1 * k)] * 2)

    def atom_set() -> WeightedPointSet:
        pts = draw(st.lists(cell, min_size=1, max_size=4))
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts))),
                     dtype=float)
        return WeightedPointSet(np.array(pts), w / w.sum())

    return atom_set(), atom_set()


@st.composite
def signed_grid_pairs(draw, max_dim=3):
    """p and q on a small integer grid in R^1..R^max_dim, drawn from one pool of
    at most 6 atoms (so they share atoms, repeat atoms and hold collinear or
    coplanar ones; a zero coordinate may be -0.0), with dyadic or generic
    weights."""
    d = draw(st.integers(1, max_dim))
    coord = st.integers(-3, 3).map(float) | st.just(-0.0)
    pool = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6))
    dyadic = draw(st.booleans())

    def atom_set() -> WeightedPointSet:
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
        if dyadic:
            cuts = sorted(draw(st.sets(st.integers(1, 15), min_size=len(picks) - 1,
                                       max_size=len(picks) - 1)))
            w = np.diff([0, *cuts, 16]) / 16.0
        else:
            w = np.array(draw(st.lists(st.integers(1, 9), min_size=len(picks),
                                       max_size=len(picks))), dtype=float)
            w /= w.sum()
        return WeightedPointSet(np.array([pool[i] for i in picks]), w)

    return atom_set(), atom_set(), dyadic


class TestMetricAgainstLpReference:
    @given(signed_grid_pairs())
    # (-3, -2), (0, 1) and (1, 2) lie on one line; its anchored normal in the
    # sampled battery projects (-3, -2) an ulp away from the other two, and
    # a boundary pass that took exact ties for the whole line read 0.636
    @example(case=(WeightedPointSet(np.array([[-0.0, -2.0], [1.0, 2.0], [0.0, 1.0]]),
                                    np.array([4, 4, 3]) / 11),
                   WeightedPointSet(np.array([[-3.0, -2.0], [1.0, 2.0]]), np.array([7, 12]) / 19),
                   False))
    # the best cut's complement is a unit heavier than the cut: reading one
    # side of each cut gave an ulp less, on the line and in the plane
    @example(case=(WeightedPointSet.delta([1.0]),
                   WeightedPointSet(np.array([[2.0], [-2.0]]), np.array([2, 1]) / 3), False))
    @example(case=(WeightedPointSet(np.array([[2.0, 2.0], [-2.0, -2.0], [0.0, 0.0]]),
                                    np.array([2, 4, 1]) / 7),
                   WeightedPointSet(np.array([[0.0, 1.0], [-1.0, -2.0]]), np.array([5, 2]) / 7),
                   False))
    @settings(max_examples=150, deadline=None)
    def test_exact_equals_reference_and_sampled_stays_below(self, case):
        p, q, dyadic = case
        ref = units_reference(p, q)
        if p.dim <= 2:
            assert hs.halfspace_metric(p, q) == ref
        if dyadic:
            assert lp_reference(p, q) == ref
        assert hs.halfspace_metric(p, q, mode="sampled", budget=64, rng=3) <= ref

    @given(signed_grid_pairs())
    @settings(max_examples=60, deadline=None)
    def test_sampled_reads_each_line_once(self, case):
        # the kernel reads both sides of every cut, so a negated row adds
        # nothing: the battery with its negated rows removed gives the bits
        # of the whole battery
        p, q, _ = case
        points, units = _signed_union(p, q)
        dirs = hs.direction_battery(np.vstack([p.points, q.points]), 64, hs.make_rng(3),
                                    anchor="difference")
        kept = []
        for row in dirs:
            if not any(np.array_equal(-row, other) for other in kept):
                kept.append(row)
        assert len(kept) < len(dirs)
        value = hs.halfspace_metric(p, q, mode="sampled", budget=64, rng=3)
        assert metrics._max_signed_tail(points, units, dirs) == value
        assert metrics._max_signed_tail(points, units, np.array(kept)) == value

    @given(near_collinear_pairs())
    # p's atoms and q's lie nearly on one line; in floats q's atom is just
    # off it, so a thin halfplane holds it alone, and masking sectors
    # narrower than 1e-13 rad read 0.5 for the exact 1.0
    @example(case=(WeightedPointSet.from_points([[99.7, 99.9], [99.9, 100.1]]),
                   WeightedPointSet.delta([99.8, 100.0])))
    @settings(max_examples=100, deadline=None)
    def test_exact_planar_equals_fraction_reference(self, case):
        p, q = case
        assert hs.halfspace_metric(p, q) == fraction_reference(p, q)

    @given(signed_grid_pairs(max_dim=2), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_exact_bits_ignore_atom_order_and_sides(self, case, random):
        p, q, _ = case
        shuffled = []
        for s in (p, q):
            perm = list(range(s.size))
            random.shuffle(perm)
            shuffled.append(WeightedPointSet(s.points[perm], s.weights[perm]))
        value = hs.halfspace_metric(p, q)
        assert hs.halfspace_metric(*shuffled) == value
        assert hs.halfspace_metric(q, p) == value
        assert hs.halfspace_metric(shuffled[1], shuffled[0]) == value


class TestMetricMemory:
    def test_exact_planar_memory_is_linear(self):
        # the pivot sweep runs in blocks of about _SWEEP_BLOCK angles, so it
        # holds O(_SWEEP_BLOCK + N) values; N^2 doubles would take 128 MB
        rng = hs.make_rng(11)
        p = WeightedPointSet.from_points(rng.standard_normal((2000, 2)))
        q = WeightedPointSet.from_points(rng.standard_normal((2000, 2)))
        tracemalloc.start()
        try:
            value = hs.halfspace_metric(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value <= hs.tv_distance(p, q)
        assert peak <= 8 * 2 ** 20


class TestBiasBounds:
    def test_no_corruption_gaussian(self):
        g = DecayProfile.gaussian(1.0)
        assert hs.bias_bound_additive(g, 0.0, 3).value == 0.0

    def test_additive_branches(self):
        g = DecayProfile.gaussian(1.0)
        # eps = 1/4 at d >= 3: inner argument ((1-eps)/2 - eps)/(1-eps) = 1/6;
        # tolerance reflects the 7.5e-8 CDF approximation feeding h(0)
        assert hs.bias_bound_additive(g, 0.25, 3).value == pytest.approx(
            normal_quantile(1.0 - 1.0 / 6.0), abs=1e-6)
        assert hs.bias_bound_additive(g, 1.0 / 3.0, 3).value == math.inf

    def test_tv_branches(self):
        g = DecayProfile.gaussian(1.0)
        assert hs.bias_bound_tv(g, 0.25, 3).value == math.inf
        assert hs.bias_bound_tv(g, 0.05, 3).value == pytest.approx(0.25335, abs=1e-4)
        # d = 1 at eps = 0.4: max(1 - 1/2 - 0.8, 1/2 - 0.4) = 0.1, still finite
        assert hs.bias_bound_tv(g, 0.4, 1).value == pytest.approx(1.28155, abs=1e-4)

    def test_breakdown_table(self):
        # additive: 1/2, 1/3, 1/3; TV: 1/2, 1/3, 1/4 (d = 1, 2, >= 3)
        g = DecayProfile.gaussian(1.0)
        table = {(("additive", 1), 0.5), (("additive", 2), 1 / 3), (("additive", 3), 1 / 3),
                 (("tv", 1), 0.5), (("tv", 2), 1 / 3), (("tv", 3), 0.25)}
        for (model, d), threshold in table:
            fn = hs.bias_bound_additive if model == "additive" else hs.bias_bound_tv
            for k in range(1, 50):
                eps = k / 100.0
                finite = math.isfinite(fn(g, eps, d).value)
                assert finite == (eps < threshold), (model, d, eps)

    def test_projection_bound(self):
        g = DecayProfile.gaussian(1.0)
        assert hs.bias_bound_projection(g, 0.1).value == pytest.approx(0.50669, abs=1e-4)
        assert hs.bias_bound_projection(g, 0.5).value == math.inf
        assert hs.bias_bound_projection(SQUARE_PROFILE, 0.49).value == pytest.approx(2 * math.sqrt(2))

    def test_epsilon_tilde_examples(self):
        assert hs.epsilon_tilde(0.1, 1000, 3, 0.05, 0.5) == pytest.approx(0.1678, abs=1e-4)
        assert hs.epsilon_tilde(0.0, 10 ** 12, 3, 0.999999, 0.5) == pytest.approx(0.0, abs=1e-3)
        assert hs.epsilon_tilde(0.1, 10 ** 12, 3, 0.05, 0.5) == pytest.approx(0.1, abs=1e-3)

    def test_epsilon_tilde_validation(self):
        with pytest.raises(ValueError):
            hs.epsilon_tilde(0.1, 0, 3, 0.05)
        with pytest.raises(ValueError):
            hs.epsilon_tilde(-0.1, 10, 3, 0.05)
