import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.optimize import floored, pattern_search_min


def sequential_pattern_search_min(f, x0, *, initial_step, rng, levels=8, shrink=0.5,
                                  max_moves=100, box=None):
    """Probe-by-probe reference: one scalar evaluation per probe, a probe
    accepted only when it strictly beats the best value seen so far."""

    def clip(x):
        if box is None:
            return x
        return np.clip(x, box[:, 0], box[:, 1])

    x = clip(np.asarray(x0, dtype=float).copy())
    fx = f(x)
    evals = 1
    d = x.shape[0]
    step = float(initial_step) if initial_step > 0 else 1.0
    moves = 0
    for _ in range(levels):
        while moves < max_moves:
            probes = []
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                probes.append(x + e)
                probes.append(x - e)
            raw = rng.standard_normal((2 * d, d))
            norms = np.linalg.norm(raw, axis=1)
            norms[norms == 0.0] = 1.0
            probes.extend(x + step * raw / norms[:, None])
            best_fp, best_xp = fx, None
            for xp in probes:
                xp = clip(xp)
                fp = f(xp)
                evals += 1
                if fp < best_fp:
                    best_fp, best_xp = fp, xp
            if best_xp is None:
                break
            x, fx = best_xp, best_fp
            moves += 1
        step *= shrink
    return x, fx, evals


def batched(f):
    return lambda xs: np.array([f(x) for x in xs])


def quadratic(x):
    return float(np.sum((x - np.array([0.3, -1.7, 2.2])[:x.shape[0]]) ** 2))


def plateau(x):
    # coarse steps: many probes of one iteration tie on the same value
    return float(np.floor(np.abs(x).sum() * 2.0))


def signed_zero(x):
    # from [5, 5, 5] the -e0 probe reads -0.0 and the later -e1 probe 0.0:
    # the tie keeps the earlier probe, whose zero carries the sign
    if x.sum() > 14.99:
        return 1.0
    return -0.0 if x[0] < 4.99 else 0.0


def nan_wall(x):
    # a NaN never counts as an improvement, and never hides a later one
    return float("nan") if x[0] > 6.0 else quadratic(x)


OBJECTIVES = [quadratic, plateau, signed_zero, nan_wall]
CASES = [
    dict(x0=[5.0, 5.0, 5.0], initial_step=2.0, max_moves=40),
    dict(x0=[1.0, -2.0], initial_step=0.7, max_moves=100),
    dict(x0=[3.0, 3.0, -3.0], initial_step=4.0, max_moves=25,
         box=np.array([[-1.0, 1.0], [-0.5, 2.0], [0.0, 0.0]])),
    dict(x0=[9.0, 9.0, 9.0], initial_step=1.0, max_moves=0),
    dict(x0=[0.0, 0.0, 0.0], initial_step=0.0, max_moves=10, levels=3, shrink=0.25),
]


def assert_same(got, want):
    (x, fx, evals), (x_ref, fx_ref, evals_ref) = got, want
    assert x.tobytes() == np.asarray(x_ref).tobytes()
    assert np.float64(fx).tobytes() == np.float64(fx_ref).tobytes()
    assert evals == evals_ref
    assert type(fx) is float


class TestBatchedPatternSearch:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_reference(self, objective, case, seed):
        case = dict(case)
        x0 = np.array(case.pop("x0"))[:3]
        got = pattern_search_min(batched(objective), x0, rng=np.random.default_rng(seed), **case)
        want = sequential_pattern_search_min(objective, x0, rng=np.random.default_rng(seed),
                                             **case)
        assert_same(got, want)

    def test_rng_stream_is_unchanged(self):
        gens = [np.random.default_rng(4), np.random.default_rng(4)]
        pattern_search_min(batched(quadratic), np.ones(3), initial_step=1.0, rng=gens[0],
                           max_moves=12)
        sequential_pattern_search_min(quadratic, np.ones(3), initial_step=1.0, rng=gens[1],
                                      max_moves=12)
        assert gens[0].random() == gens[1].random()

    def test_one_call_per_iteration(self):
        calls = []

        def f(xs):
            calls.append(len(xs))
            return np.array([quadratic(x) for x in xs])

        _, _, evals = pattern_search_min(f, np.full(3, 4.0), initial_step=1.0,
                                         rng=np.random.default_rng(0), max_moves=5)
        assert calls[0] == 1 and set(calls[1:]) == {12}
        assert sum(calls) == evals

    def test_clipped_probes_reach_the_objective(self):
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        seen = []

        def f(xs):
            seen.append(xs.copy())
            return np.array([quadratic(x) for x in xs])

        pattern_search_min(f, np.array([5.0, -5.0]), initial_step=3.0,
                           rng=np.random.default_rng(1), max_moves=10, box=box)
        probes = np.vstack(seen)
        assert probes.min() >= 0.0 and probes.max() <= 1.0


def least(values):
    """The earliest of the least values, by strict comparison from the
    first: a NaN never counts as less, so a NaN first value stays."""
    best = values[0]
    for v in values[1:]:
        if v < best:
            best = v
    return best


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


VALUES = st.one_of(st.sampled_from([math.nan, -0.0, 0.0, 1.0, -1.0, math.inf, -math.inf]),
                   st.floats(-4.0, 4.0))


class TestIncumbentInvariant:
    """``fx`` is always the least value ``f`` has returned in this search, the
    property a floored objective (one that stops evaluating a probe once it
    cannot go below ``fx``) relies on."""

    @given(values=st.lists(VALUES, min_size=1, max_size=40), d=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), levels=st.integers(1, 4),
           max_moves=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_fx_is_the_least_value_returned(self, values, d, seed, levels, max_moves):
        # the objective replays ``values`` cyclically, one per evaluated row,
        # and reads the caller's ``fx`` on every call
        returned = []

        def f(xs):
            if returned:
                assert same_bits(inspect.currentframe().f_back.f_locals["fx"], least(returned))
            out = [values[(len(returned) + i) % len(values)] for i in range(len(xs))]
            returned.extend(out)
            return np.array(out)

        _, fx, evals = pattern_search_min(f, np.zeros(d), initial_step=1.0,
                                          rng=np.random.default_rng(seed), levels=levels,
                                          max_moves=max_moves)
        assert same_bits(fx, least(returned))
        assert evals == len(returned)

    @given(objective=st.sampled_from(OBJECTIVES), case=st.sampled_from(CASES),
           seed=st.integers(0, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_floored_rows_keep_the_path(self, objective, case, seed, data):
        # a row whose true value is at or above the least value returned so
        # far may get any value between that floor and its true value
        case = dict(case)
        x0 = np.array(case.pop("x0"))
        returned = []

        def evaluate(xs, floor):
            # the floor is the least number returned so far
            assert floor == min((v for v in returned if not math.isnan(v)), default=math.inf)
            out = []
            for x in xs:
                value = objective(x)
                if value >= floor:
                    value = data.draw(st.floats(min_value=floor, max_value=value))
                out.append(value)
            returned.extend(out)
            return np.array(out)

        gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
        got = pattern_search_min(floored(evaluate), x0, rng=gens[0], **case)
        want = pattern_search_min(batched(objective), x0, rng=gens[1], **case)
        assert_same(got, want)
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
