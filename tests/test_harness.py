import json
from pathlib import Path
import math

import numpy as np
import pytest

import halfspace as hs
from halfspace.cli import main
from halfspace.depth import direction_lines
from halfspace.harness import (ConfigError, ExperimentConfig, ExperimentReport,
                               ReportRow, run_bias_sweep, run_breakdown_sweep,
                               run_scaling)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def gaussian_config(**overrides) -> ExperimentConfig:
    base = dict(estimator="tukey",
                distribution=hs.NamedDistribution.gaussian(np.zeros(3), 1.0),
                attack=hs.AttackSpec("shift_cluster", 0.1, 50.0),
                mode="adaptive_samples", n=400, trials=2, seed=7,
                budget=96, midpoint_cap=500, refine_steps=4)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            gaussian_config(estimator="noesuch")
        with pytest.raises(ConfigError):
            gaussian_config(trials=0)
        with pytest.raises(ConfigError):
            gaussian_config(estimator="projection")  # needs a template
        with pytest.raises(ConfigError):
            gaussian_config(mode="tv_population")  # needs discrete distribution

    def test_from_json(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "estimator": "cwise_median",
            "distribution": {"variant": "gaussian_isotropic", "center": [0, 0], "scale": 1.0},
            "attack": {"variant": "shift_cluster", "epsilon": 0.05, "z": 10.0},
            "mode": "adaptive_samples", "n": 50, "trials": 1, "seed": 1}))
        assert cfg.estimator == "cwise_median" and cfg.n == 50

    def test_budget_below_one_is_refused_at_load(self, tmp_path, capsys):
        obj = json.loads((CONFIGS / "gaussian_adaptive.json").read_text())
        obj["budget"] = 0
        with pytest.raises(ConfigError, match="field budget must be at least 1, got 0"):
            ExperimentConfig.from_json(obj)
        path = tmp_path / "zero_budget.json"
        path.write_text(json.dumps(obj))
        assert main(["sweep-bias", "--config", str(path), "--eps-grid", "0.1"]) == 2
        assert "field budget" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("proj_steps", -1), ("proj_starts", -1), ("midpoint_cap", 0), ("refine_steps", -1),
        ("budget", 2.5), ("c_vc", -1.0), ("delta", 0.0), ("delta", 1.5), ("n", 2.5),
        ("trials", True), ("seed", -1)])
    def test_bad_field_is_refused_at_load(self, tmp_path, capsys, field, value):
        obj = json.loads((CONFIGS / "gaussian_adaptive.json").read_text())
        obj[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["sweep-bias", "--config", str(path), "--eps-grid", "0.1"]) == 2
        assert f"config field {field} " in capsys.readouterr().err

    def test_decay_key_is_refused_as_unknown(self, tmp_path, capsys):
        # the bound reads the template's or the population's decay profile
        obj = json.loads((CONFIGS / "gaussian_adaptive.json").read_text())
        obj["decay"] = hs.DecayProfile.gaussian(1.0).to_json_dict()
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(obj))
        assert main(["sweep-bias", "--config", str(path), "--eps-grid", "0.1"]) == 2
        assert "'decay'" in capsys.readouterr().err

    def test_bad_json_raises_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{\"estimator\": \"tukey\"}")


class TestBiasSweep:
    def test_empty_grid(self):
        report = run_bias_sweep(gaussian_config(), [])
        assert report.rows == []

    def test_clean_gaussian_errors_small(self):
        cfg = gaussian_config(n=2000, trials=5, budget=128, midpoint_cap=1000,
                              refine_steps=0, seed=3)
        report = run_bias_sweep(cfg, [0.0])
        assert all(row.error <= 0.2 for row in report.rows)

    def test_errors_below_bound_for_projection(self):
        dist = hs.NamedDistribution.gaussian(np.zeros(3), 1.0)
        fam = hs.TemplateFamily(dist, hs.DecayProfile.gaussian(1.0),
                                np.array([[-4.0, 4.0]] * 3))
        cfg = gaussian_config(estimator="projection", template=fam, n=1000, trials=2,
                              budget=48, proj_starts=0, proj_steps=8,
                              proj_tukey_start=False, seed=11)
        report = run_bias_sweep(cfg, [0.05, 0.1, 0.2])
        for row in report.rows:
            assert row.error <= row.bound

    def test_rows_record_matching_eps_tilde(self):
        cfg = gaussian_config(trials=1, seed=5)
        report = run_bias_sweep(cfg, [0.1])
        row = report.rows[0]
        assert row.eps_tilde == pytest.approx(hs.epsilon_tilde(0.1, 400, 3, 0.05, 0.5))

    def test_tv_population_mode_is_corruption_exact(self):
        cfg = ExperimentConfig(estimator="tukey", distribution=hs.square_distribution(),
                               attack=hs.AttackSpec("tetrahedron_tv", 0.25, 20.0),
                               mode="tv_population", n=1, trials=1, seed=2)
        report = run_bias_sweep(cfg, [0.25])
        row = report.rows[0]
        assert row.eps_tilde == 0.25           # population level, no sampling slack
        assert row.score == 0.25               # the tetrahedron depth plateau
        assert math.isinf(row.bound)           # beyond the TV breakdown point

    def test_oblivious_mode_samples_corrupted_population(self):
        cfg = ExperimentConfig(estimator="cwise_median",
                               distribution=hs.NamedDistribution.ball(np.zeros(3), 1.0),
                               attack=hs.AttackSpec("shift_cluster", 0.3, 25.0),
                               mode="oblivious_samples", n=2000, trials=1, seed=6)
        report = run_bias_sweep(cfg, [0.3])
        # 30 percent of the mass sits at distance 25, dragging the x median
        assert 0.05 <= report.rows[0].error <= 25.0


class TestBreakdownSweep:
    def test_tetrahedron_tukey_certified_bias(self):
        report = run_breakdown_sweep("tukey", "tetrahedron", [10.0, 100.0])
        for row, z in zip(report.rows, [10.0, 100.0]):
            assert row.score == 0.25
            assert row.error >= 0.75 * z
            assert row.bound == math.inf

    def test_tetrahedron_projection_bounded(self):
        report = run_breakdown_sweep("projection", "tetrahedron", [10.0, 100.0])
        for row in report.rows:
            assert row.error <= 2 * math.sqrt(2.0)
            assert row.bound == pytest.approx(2 * math.sqrt(2.0))

    def test_pointmass_median_tracks_z(self):
        report = run_breakdown_sweep("tukey", "pointmass_1d", [10.0, 1e6])
        errors = [row.error for row in report.rows]
        assert errors[1] > errors[0] >= 1.0

    def test_unknown_construction(self):
        with pytest.raises(ConfigError):
            run_breakdown_sweep("tukey", "nope", [1.0])


class TestScaling:
    def test_requires_ascending_grid(self):
        with pytest.raises(ConfigError):
            run_scaling(gaussian_config(), [100, 50])

    def test_single_row(self):
        cfg = gaussian_config(trials=1, attack=hs.AttackSpec())
        report = run_scaling(cfg, [120])
        assert len(report.rows) == 1


class TestReportSerialization:
    def test_csv_round_trip(self):
        cfg = gaussian_config(n=60, trials=2, budget=32, midpoint_cap=100, refine_steps=2)
        report = run_bias_sweep(cfg, [0.0, 0.1])
        parsed = ExperimentReport.from_csv(report.to_csv())
        assert parsed == report

    def test_csv_header_schema(self):
        report = ExperimentReport(rows=[], meta={"c_vc": "0.5"})
        lines = report.to_csv().splitlines()
        assert lines[-1] == "trial,estimator,attack,mode,eps,eps_tilde,n,d,error,score,bound,seed,ms"

    def test_inf_bound_survives_round_trip(self):
        row = ReportRow(0, "tukey", "none", "adaptive_samples", 0.3, 0.3, 10, 3,
                        1.5, 0.25, math.inf, 12345, 0)
        back = ReportRow.from_csv_line(row.to_csv_line())
        assert back == row and back.bound == math.inf

    def test_byte_identical_reruns(self):
        cfg = gaussian_config(n=80, trials=2, budget=32, midpoint_cap=100, refine_steps=2)
        a = run_bias_sweep(cfg, [0.0, 0.2]).to_csv()
        b = run_bias_sweep(cfg, [0.0, 0.2]).to_csv()
        assert a == b

    def test_meta_carries_c_vc(self):
        report = run_bias_sweep(gaussian_config(n=50, trials=1, budget=16,
                                                midpoint_cap=50, refine_steps=0), [0.0])
        assert report.meta["c_vc"] == "0.5"


class TestCli:
    def test_bounds_tv_breakdown_prints_inf(self, capsys):
        assert main(["bounds", "--model", "tv", "--d", "3", "--eps", "0.25",
                     "--decay", "gaussian:1.0"]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_attack_then_depth(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["attack", "--variant", "tetrahedron", "--z", "100",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5  # header + 4 atoms
        assert main(["depth", "--dist", str(out), "--point", "-0.5,-0.5,75",
                     "--engine", "oracle"]) == 0
        assert capsys.readouterr().out.strip() == "0.25"

    def test_depth_of_single_atom(self, tmp_path, capsys):
        path = tmp_path / "atom.csv"
        path.write_text(hs.WeightedPointSet.delta([1.0, 2.0]).to_csv())
        assert main(["depth", "--dist", str(path), "--point", "1,2"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_exits_2(self, capsys):
        assert main(["sweep-bias", "--eps-grid", "0.1"]) == 2

    def test_median_subcommand(self, tmp_path, capsys):
        path = tmp_path / "sq.csv"
        path.write_text(hs.square_distribution().atoms_absolute().to_csv())
        assert main(["median", "--dist", str(path), "--engine", "oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"] == [0.0, 0.0, 0.0]

    def test_median_unknown_engine_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sq.csv"
        path.write_text(hs.square_distribution().atoms_absolute().to_csv())
        assert main(["median", "--dist", str(path), "--engine", "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["nan,0,0", "0,inf,0", "-inf,0,0", "1,x,0"])
    def test_depth_bad_point_exits_2(self, tmp_path, capsys, point):
        path = tmp_path / "sq.csv"
        path.write_text(hs.square_distribution().atoms_absolute().to_csv())
        assert main(["depth", "--dist", str(path), "--point", point]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["depth", "--point", "0,0,0", "--engine", "sweep2d"],
        ["median", "--engine", "exact1d"],
        ["median", "--engine", "sweep2d"],
        ["depth", "--point", "0,0"],
        ["depth", "--point", "0,0,0", "--engine", "sampled", "--budget", "0"],
    ])
    def test_depth_and_median_misconfiguration_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "sq.csv"
        path.write_text(hs.square_distribution().atoms_absolute().to_csv())
        assert main([*argv, "--dist", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--model", "tv", "--d", "3", "--eps", "0.1", "--decay", "gaussian:abc"],
        ["bounds", "--model", "tv", "--d", "3", "--eps", "0.1", "--decay", "gaussian:-1"],
        ["bounds", "--model", "tv", "--d", "3", "--eps", "0.1", "--decay", "ball:1:x"],
        ["bounds", "--model", "tv", "--d", "3", "--eps", "1.5", "--decay", "gaussian:1"],
        ["sweep-bias", "--config", str(CONFIGS / "gaussian_planar.json"), "--eps-grid", "abc"],
        ["sweep-scaling", "--config", str(CONFIGS / "gaussian_planar.json"), "--n-grid", "x"],
        ["sweep-breakdown", "--estimator", "tukey", "--construction", "tetrahedron",
         "--z-grid", "x"],
        ["sweep-breakdown", "--estimator", "tukey", "--construction", "tetrahedron",
         "--z-grid", "-5"],
        ["sweep-breakdown", "--estimator", "tukey", "--construction", "ball_additive",
         "--z-grid", "5", "--n", "0"],
        ["attack", "--variant", "tetrahedron", "--z", "-1"],
    ])
    def test_bad_setting_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("no bound")
        monkeypatch.setattr(hs.cli, "bias_bound_tv", fail)
        assert main(["bounds", "--model", "tv", "--d", "3", "--eps", "0.1",
                     "--decay", "gaussian:1"]) == 1
        assert "error: no bound" in capsys.readouterr().err

    def test_median_above_the_scorer_memory_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hs.depth, "_RESIDENT_BYTES_CAP", 0)
        path = tmp_path / "g.csv"
        path.write_text(hs.sample(hs.NamedDistribution.gaussian(np.zeros(3), 1.0), 50,
                                  rng=1).to_csv())
        assert main(["median", "--dist", str(path), "--engine", "sampled", "--budget", "8"]) == 2
        assert "lower budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, ignored", [
        (["depth", "--dist", "{sq}", "--point", "0,0,0", "--engine", "oracle"], ["--out", "x"]),
        (["median", "--dist", "{sq}", "--engine", "oracle"], ["--format", "json"]),
        (["estimate", "--dist", "{sq}", "--template", "{fam}", "--budget", "16",
          "--starts", "0", "--steps", "1"], ["--timing"]),
        (["attack", "--variant", "tetrahedron", "--out", "{tmp}/a.csv"], ["--seed", "5"]),
        (["bounds", "--model", "tv", "--d", "3", "--eps", "0.1", "--decay", "gaussian:1"],
         ["--config", "{cfg}"]),
        (["sweep-bias", "--eps-grid", "0.1", "--config", "{cfg}", "--out", "{tmp}/b.csv"],
         ["--seed", "5"]),
        (["sweep-breakdown", "--estimator", "cwise_median", "--construction", "pointmass_1d",
          "--z-grid", "10", "--n", "50", "--out", "{tmp}/c.csv"], ["--config", "{cfg}"]),
        (["sweep-scaling", "--n-grid", "50", "--config", "{cfg}", "--out", "{tmp}/d.csv"],
         ["--seed", "5"]),
    ])
    def test_flag_the_subcommand_ignores_exits_2(self, tmp_path, capsys, argv, ignored):
        # each subcommand registers only the shared flags it reads, so one
        # it would ignore is refused instead of silently accepted
        paths = {"sq": tmp_path / "sq.csv", "fam": tmp_path / "fam.json",
                 "cfg": tmp_path / "cfg.json", "tmp": tmp_path}
        paths["sq"].write_text(hs.square_distribution().atoms_absolute().to_csv())
        paths["fam"].write_text(json.dumps(hs.square_template_family().to_json_dict()))
        paths["cfg"].write_text(json.dumps({
            "estimator": "cwise_median",
            "distribution": {"variant": "gaussian_isotropic", "center": [0, 0, 0], "scale": 1.0},
            "attack": {"variant": "shift_cluster", "epsilon": 0.1, "z": 20.0},
            "mode": "adaptive_samples", "n": 50, "trials": 1, "seed": 3}))
        argv = [a.format(**paths) for a in argv]
        assert main(argv) == 0
        assert main(argv + [a.format(**paths) for a in ignored]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_bias_end_to_end(self, tmp_path):
        cfg = {"estimator": "cwise_median",
               "distribution": {"variant": "gaussian_isotropic", "center": [0, 0, 0],
                                "scale": 1.0},
               "attack": {"variant": "shift_cluster", "epsilon": 0.1, "z": 20.0},
               "mode": "adaptive_samples", "n": 200, "trials": 2, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.csv"
        assert main(["sweep-bias", "--eps-grid", "0.0,0.1", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        report = ExperimentReport.from_csv(out.read_text())
        assert len(report.rows) == 4

    def test_estimate_subcommand(self, tmp_path, capsys):
        dist = tmp_path / "sq.csv"
        dist.write_text(hs.square_distribution().atoms_absolute().to_csv())
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(hs.square_template_family().to_json_dict()))
        assert main(["estimate", "--dist", str(dist), "--template", str(fam),
                     "--budget", "128", "--steps", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_hat"] == [0.0, 0.0, 0.0]
        atoms = hs.WeightedPointSet.from_csv(dist.read_text()).consolidate()
        battery = hs.direction_battery(atoms.points, 128, hs.make_rng(0), anchor="difference")
        assert payload["lines"] == len(direction_lines(battery)[0])
        assert payload["searches"] == 1

    def test_estimate_starts_parse_and_a_discrete_template_ignores_them(self, tmp_path, capsys):
        dist = tmp_path / "tetra.csv"
        dist.write_text(hs.attack_tetrahedron(10.0)[1].to_csv())
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(hs.square_template_family().to_json_dict()))
        argv = ["estimate", "--dist", str(dist), "--template", str(fam), "--budget", "64",
                "--steps", "8", "--seed", "3"]
        outs = []
        for starts in ("0", "2", "7"):
            assert main([*argv, "--starts", starts]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["searches"] == 1
        assert main([*argv, "--starts", "two"]) == 2

    @pytest.mark.parametrize("flag, value", [("--starts", "-1"), ("--steps", "-1"),
                                             ("--budget", "0")])
    def test_estimate_refuses_a_setting_the_config_refuses(self, tmp_path, capsys, flag, value):
        # ExperimentConfig refuses proj_starts < 0, proj_steps < 0 and
        # budget < 1; project_estimate refuses them too, so the CLI exits 2
        dist = tmp_path / "tetra.csv"
        dist.write_text(hs.attack_tetrahedron(10.0)[1].to_csv())
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(hs.square_template_family().to_json_dict()))
        assert main(["estimate", "--dist", str(dist), "--template", str(fam), "--steps", "4",
                     flag, value]) == 2
        assert f"config error: {flag} must be at least" in capsys.readouterr().err

    def test_estimate_with_an_experiment_config_as_template_exits_2(self, tmp_path, capsys):
        # an experiment config holds its family under "template": the file
        # itself lacks the TemplateFamily keys
        dist = tmp_path / "tetra.csv"
        dist.write_text(hs.attack_tetrahedron(10.0)[1].to_csv())
        config = Path(__file__).resolve().parents[1] / "configs" / "square_projection.json"
        assert main(["estimate", "--dist", str(dist), "--template", str(config)]) == 2
        assert "config error: --template" in capsys.readouterr().err

    def test_bounds_with_a_bad_piecewise_decay_file_exits_2(self, capsys):
        config = Path(__file__).resolve().parents[1] / "configs" / "square_projection.json"
        assert main(["bounds", "--model", "projection", "--d", "3", "--eps", "0.1",
                     "--decay", f"piecewise:{config}"]) == 2
        assert "config error: --decay" in capsys.readouterr().err

    def test_estimate_with_a_bad_dist_header_exits_2(self, tmp_path, capsys):
        dist = tmp_path / "bad.csv"
        dist.write_text("x,y,z\n1,2,3\n")
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(hs.square_template_family().to_json_dict()))
        assert main(["estimate", "--dist", str(dist), "--template", str(fam)]) == 2
        assert "config error: --dist" in capsys.readouterr().err

    def test_sweep_breakdown_cli(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["sweep-breakdown", "--estimator", "tukey", "--construction",
                     "tetrahedron", "--z-grid", "10", "--out", str(out)]) == 0
        report = ExperimentReport.from_csv(out.read_text())
        assert report.rows[0].score == 0.25

    def test_json_report_format(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["sweep-breakdown", "--estimator", "tukey", "--construction",
                     "pointmass_1d", "--z-grid", "10,100", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2 and payload["meta"]["kind"] == "breakdown"

    @pytest.mark.parametrize("name", ["gaussian_adaptive.json", "gaussian_planar.json",
                                      "gaussian_projection.json", "square_projection.json"])
    def test_shipped_configs_load_and_run(self, name, tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        cfg = ExperimentConfig.from_json(path.read_text())
        small = json.loads(path.read_text())
        small.update({"n": 200, "trials": 1, "budget": 48, "midpoint_cap": 200,
                      "refine_steps": 2, "proj_steps": 8})
        report = run_bias_sweep(ExperimentConfig.from_json(small), [cfg.attack.epsilon])
        assert len(report.rows) == 1 and report.rows[0].error <= report.rows[0].bound

    def test_piecewise_decay_spec(self, tmp_path, capsys):
        decay = tmp_path / "square.json"
        decay.write_text(json.dumps(hs.square_decay_profile().to_json_dict()))
        assert main(["bounds", "--model", "projection", "--d", "3", "--eps", "0.3",
                     "--decay", f"piecewise:{decay}"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2 * math.sqrt(2.0))
