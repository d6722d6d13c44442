"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime. Budgets and seeds are frozen here;
nothing is calibrated at runtime."""

import math
import time

import numpy as np

import halfspace as hs
from halfspace.depth import BatteryScorer
from halfspace.harness import ExperimentConfig, estimate_location, realize_trial, run_bias_sweep
from halfspace.metrics import DecayProfile
from halfspace.model import WeightedPointSet
from halfspace.rng import make_rng, spawn_seeds


def _report(num: int, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num}: {status} [{elapsed:.1f}s / limit {limit:.0f}s] {detail}")
    assert ok, detail
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s runtime budget"


def test_criterion_1_tetrahedron_breakdown():
    start = time.perf_counter()
    rng = make_rng(101)
    worst_bias_ratio = math.inf
    for z in (10.0, 100.0, 1000.0):
        _, p = hs.attack_tetrahedron(z)
        verts = p.points
        lam = 0.02 + 0.92 * rng.dirichlet(np.ones(4), size=20)
        lam /= lam.sum(axis=1, keepdims=True)
        for q in lam @ verts:
            assert hs.depth_oracle(p, q).value == 0.25
        centroid = verts.mean(axis=0)
        r_max = float(np.linalg.norm(verts - centroid, axis=1).max())
        for _ in range(20):
            u = rng.standard_normal(3)
            q = centroid + (2.0 * r_max + 1.0) * u / np.linalg.norm(u)
            assert hs.depth_oracle(p, q).value == 0.0
        assert hs.median_candidates(p, engine="oracle").achieved_depth == 0.25
        apex_row = int(np.argmax(verts[:, 2]))
        probe = 0.97 * verts[apex_row] + 0.01 * np.delete(verts, apex_row, axis=0).sum(axis=0)
        probe_depth = hs.depth_oracle(p, probe).value
        top = hs.median_candidates(p, engine="oracle", extra=[probe]).achieved_depth
        assert probe_depth == top == 0.25  # the far point is a certified maximizer
        certified_bias = float(np.linalg.norm(probe))
        assert certified_bias >= 0.75 * z
        worst_bias_ratio = min(worst_bias_ratio, certified_bias / z)
    _report(1, True, f"interior depth 1/4, exterior 0, certified bias >= {worst_bias_ratio:.2f} z",
            time.perf_counter() - start, 5.0)


def test_criterion_2_additive_third_ball():
    start = time.perf_counter()
    dist = hs.NamedDistribution.ball(np.zeros(3), 1.0)
    clean = hs.sample(dist, 5000, rng=12345)
    far = np.array([100.0, 0.0, 0.0])
    p = hs.additive_corrupt(clean, 1.0 / 3.0, WeightedPointSet.delta(far))
    far_depth = hs.depth_sampled(p, far, budget=10_000, rng=1).value
    ok_depth = 0.31 <= far_depth <= 0.35
    scorer = BatteryScorer(p, hs.direction_battery(p.points, 1000, make_rng(2),
                                                   anchor="difference"))
    candidates = np.vstack([p.points, p.mean()[None, :], hs.coordinatewise_median(p)[None, :]])
    top = float(scorer.scores(candidates).max())
    far_score = scorer.score(far)
    ok_max = far_score >= top - 0.02
    _report(2, ok_depth and ok_max,
            f"far depth {far_depth:.4f} in [0.31, 0.35]; far within {top - far_score:.4f} of max",
            time.perf_counter() - start, 30.0)


def test_criterion_3_breakdown_table():
    start = time.perf_counter()
    g = DecayProfile.gaussian(1.0)  # h(0) = 1/2
    thresholds = {("additive", 1): 0.5, ("additive", 2): 1 / 3, ("additive", 3): 1 / 3,
                  ("tv", 1): 0.5, ("tv", 2): 1 / 3, ("tv", 3): 0.25}
    for (model, d), threshold in thresholds.items():
        fn = hs.bias_bound_additive if model == "additive" else hs.bias_bound_tv
        for k in range(1, 50):
            eps = k / 100.0
            assert math.isfinite(fn(g, eps, d).value) == (eps < threshold), (model, d, eps)
    _report(3, True, "finiteness matches the 1/2, 1/3, 1/3 and 1/2, 1/3, 1/4 table on the 0.01 grid",
            time.perf_counter() - start, 1.0)


def test_criterion_4_projection_beats_tukey():
    start = time.perf_counter()
    square = hs.square_distribution().atoms_absolute()
    population = hs.apex_move(square, 0.3, 50.0)
    family = hs.square_template_family()
    apex = np.array([-0.5, -0.5, 50.0])
    bound = 2.0 * math.sqrt(2.0)
    tukey_hits = 0
    projection_hits = 0
    worst_norm = 0.0
    for k in range(20):
        ss = spawn_seeds(1000 + k, 2)
        emp = hs.sample_population(population, 2000, ss[0])
        tukey = hs.median_candidates(emp, engine="oracle")
        if np.linalg.norm(tukey.point - apex) <= 1.0:
            tukey_hits += 1
        res = hs.project_estimate(emp, family, starts=2, budget=512, steps=48, rng=ss[1])
        norm = float(np.linalg.norm(res.mu_hat))
        worst_norm = max(worst_norm, norm)
        if norm <= bound:
            projection_hits += 1
    ok = tukey_hits == 20 and projection_hits >= 18
    _report(4, ok, f"tukey maximizer at the apex in {tukey_hits}/20 seeds; "
                   f"projection within 2*sqrt(2) in {projection_hits}/20 (worst {worst_norm:.2f})",
            time.perf_counter() - start, 60.0)


def test_criterion_5_gaussian_bias_bounds():
    start = time.perf_counter()
    eps, n, d = 0.1, 5000, 3
    dist = hs.NamedDistribution.gaussian(np.zeros(d), 1.0)
    family = hs.TemplateFamily(dist, DecayProfile.gaussian(1.0), np.array([[-4.0, 4.0]] * d))
    attack = hs.AttackSpec("shift_cluster", eps, 50.0)
    cfg_tukey = ExperimentConfig("tukey", dist, attack, "adaptive_samples", n=n, trials=1,
                                 seed=0, budget=256, midpoint_cap=2000, refine_steps=0)
    cfg_proj = ExperimentConfig("projection", dist, attack, "adaptive_samples", n=n, trials=1,
                                seed=0, budget=48, template=family, proj_starts=0,
                                proj_steps=8, proj_tukey_start=False)
    e_tilde = hs.epsilon_tilde(eps, n, d, delta=0.05, c_vc=0.5)
    h = DecayProfile.gaussian(1.0)
    tukey_bound = h.inverse(0.5 - 2.0 * e_tilde)
    proj_bound = 2.0 * h.inverse(0.5 - e_tilde)
    worst_tukey = worst_proj = 0.0
    for k in range(20):
        ss = spawn_seeds(7000 + k, 2)
        rng = make_rng(ss[0])
        point, _ = estimate_location(realize_trial(cfg_tukey, eps, rng), cfg_tukey, rng)
        worst_tukey = max(worst_tukey, float(np.linalg.norm(point)))
        rng = make_rng(ss[1])
        point, _ = estimate_location(realize_trial(cfg_proj, eps, rng), cfg_proj, rng)
        worst_proj = max(worst_proj, float(np.linalg.norm(point)))
    ok = worst_tukey <= tukey_bound and worst_proj <= proj_bound
    _report(5, ok, f"worst tukey {worst_tukey:.3f} <= {tukey_bound:.3f}; "
                   f"worst projection {worst_proj:.3f} <= {proj_bound:.3f} (20 seeds)",
            time.perf_counter() - start, 180.0)


def test_criterion_6_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = make_rng(42)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        p = WeightedPointSet.from_points(rng.standard_normal((n, 2)))
        mu = p.points[int(rng.integers(0, n))] if rng.random() < 0.3 else rng.standard_normal(2)
        assert hs.depth_2d_sweep(p, mu).value == hs.depth_oracle(p, mu).value
    rng = make_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, 11))
        p = WeightedPointSet.from_points(rng.standard_normal((n, d)))
        mu = rng.standard_normal(d)
        assert hs.depth_sampled(p, mu, budget=64, rng=rng).value \
            >= hs.depth_oracle(p, mu).value - 1e-12
    rng = make_rng(17)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        trio = [WeightedPointSet.from_points(rng.standard_normal((int(rng.integers(2, 8)), d)))
                for _ in range(3)]
        m01 = hs.halfspace_metric(trio[0], trio[1])
        m12 = hs.halfspace_metric(trio[1], trio[2])
        m02 = hs.halfspace_metric(trio[0], trio[2])
        assert m01 <= hs.tv_distance(trio[0], trio[1]) + 1e-12
        assert m02 <= m01 + m12 + 1e-10
    _report(6, True, "sweep == oracle (200), sampled >= oracle (200), "
                     "metric <= TV and triangle inequality (200 triples)",
            time.perf_counter() - start, 30.0)


def test_criterion_7_finite_sample_scaling():
    start = time.perf_counter()
    dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
    cfg = ExperimentConfig("tukey", dist, hs.AttackSpec(), "adaptive_samples", n=250,
                           trials=20, seed=42, budget=256, midpoint_cap=2000, refine_steps=8)
    report = hs.run_scaling(cfg, [250, 1000, 4000])
    medians = hs.median_errors_by_n(report)
    decreasing = medians[250] > medians[1000] > medians[4000]
    ratio = medians[250] / medians[4000]
    ok = decreasing and 2.0 <= ratio <= 8.0
    _report(7, ok, f"median errors {medians[250]:.4f} > {medians[1000]:.4f} > "
                   f"{medians[4000]:.4f}; 250->4000 ratio {ratio:.2f} in [2, 8]",
            time.perf_counter() - start, 120.0)


def test_criterion_8_byte_identical_reruns():
    start = time.perf_counter()
    dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
    cfg = ExperimentConfig("tukey", dist, hs.AttackSpec("shift_cluster", 0.1, 30.0),
                           "adaptive_samples", n=300, trials=3, seed=9, budget=64,
                           midpoint_cap=300, refine_steps=2)
    first = run_bias_sweep(cfg, [0.0, 0.1, 0.2]).to_csv()
    second = run_bias_sweep(cfg, [0.0, 0.1, 0.2]).to_csv()
    ok = first == second
    _report(8, ok, f"rerun CSV identical ({len(first)} bytes)",
            time.perf_counter() - start, 60.0)
