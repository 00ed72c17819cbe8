import json

import numpy as np
import pytest

from geoglmb.cli import main
from geoglmb.errors import ConfigError
from geoglmb.experiment import (
    ExperimentConfig,
    read_estimates_csv,
    read_scenario_csv,
    run_experiment,
    run_monte_carlo,
    run_trial,
    write_estimates_csv,
)
from geoglmb.scenario import bundled_records

FAST = dict(
    trunc_method="ranked", requested_hypotheses=24, min_weight=1e-5, max_hypotheses=60
)


class TestExperimentConfig:
    def test_defaults_match_reference_setup(self):
        config = ExperimentConfig()
        assert config.p_detect == 0.5
        assert config.sigma_m == 10.0
        assert config.sigma_p == 0.3

    def test_validation_catches_bad_probabilities(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p_detect=1.5).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(mc_trials=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="both").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(clutter_region=(5.0, 1.0)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(max_hypotheses=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(birth_offsets=(1.0,)).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sigma_q": 1.0})

    def test_roundtrip(self):
        config = ExperimentConfig(site="taipei", seed=9, birth_offsets=(1.0, 2.0, 3.0))
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_site_is_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(site="atlantis").resolve_site()


class TestRunExperiment:
    def test_artifact_set_and_row_counts(self, tmp_path):
        config = ExperimentConfig(
            site="onsoy", mode="independent", seed=1, mc_trials=2,
            out_dir=str(tmp_path / "out"), **FAST,
        )
        written = run_experiment(config)
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "metrics.csv").exists()
        for prop in ("LL", "PI", "w"):
            assert (out / f"plot_{prop}.svg").exists()
        for t in range(2):
            assert (out / "trials" / f"trial_{t:03d}" / "scenario.csv").exists()
            assert (out / "trials" / f"trial_{t:03d}" / "estimates.csv").exists()

        report = json.loads((out / "report.json").read_text())
        assert report["n_trials"] == 2
        # every property recovered at the full 36 depths
        for prop in ("LL", "PI", "w"):
            assert report["per_property"][prop]["recovery_rate"] == 1.0
        est_lines = (out / "trials" / "trial_000" / "estimates.csv").read_text().splitlines()
        assert est_lines[0] == "step,depth,label,property,mean,variance"
        assert len(est_lines) == 1 + 3 * 36

    def test_second_site_depth_count(self, tmp_path):
        config = ExperimentConfig(
            site="taipei", mode="independent", seed=1, out_dir=str(tmp_path), **FAST
        )
        run_experiment(config)
        est_lines = (tmp_path / "trials" / "trial_000" / "estimates.csv").read_text().splitlines()
        assert len(est_lines) == 1 + 3 * 23

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            config = ExperimentConfig(
                site="onsoy", mode="joint", seed=42, mc_trials=1,
                out_dir=str(tmp_path / d), **FAST,
            )
            run_experiment(config)
        for name in ("trials/trial_000/estimates.csv", "trials/trial_000/scenario.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        reports = []
        for d in ("a", "b"):
            doc = json.loads((tmp_path / d / "report.json").read_text())
            doc["config"].pop("out_dir")
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_parallel_jobs_match_serial(self, tmp_path):
        base = dict(site="onsoy", mode="independent", seed=7, mc_trials=3, **FAST)
        _, serial = run_monte_carlo(ExperimentConfig(**base, jobs=1))
        _, parallel = run_monte_carlo(ExperimentConfig(**base, jobs=2))
        assert serial.mc_summary == parallel.mc_summary

    def test_joint_mode_produces_all_properties(self, tmp_path):
        records = bundled_records("onsoy")
        config = ExperimentConfig(mode="joint", seed=2, **FAST)
        scenario, series = run_trial(records, config, seed=2, site_name="onsoy")
        assert len(series.tracks) == 3
        assert series.map_cardinality == 3
        for track in series.tracks:
            assert len(track.steps) == 36


class TestCsvRoundTrip:
    def test_scenario_and_estimates_readers(self, tmp_path):
        records = bundled_records("onsoy")
        config = ExperimentConfig(mode="joint", seed=5, **FAST)
        scenario, series = run_trial(records, config, seed=5, site_name="onsoy")

        from geoglmb.scenario import scenario_to_csv

        scenario_to_csv(scenario, tmp_path / "scenario.csv")
        write_estimates_csv(scenario, series, tmp_path / "estimates.csv")

        loaded_scenario = read_scenario_csv(tmp_path / "scenario.csv")
        np.testing.assert_array_equal(
            loaded_scenario.detection_flags, scenario.detection_flags
        )
        np.testing.assert_allclose(
            loaded_scenario.truth_matrix(), scenario.truth_matrix()
        )
        loaded_series = read_estimates_csv(tmp_path / "estimates.csv")
        assert len(loaded_series.tracks) == len(series.tracks)
        for a, b in zip(loaded_series.tracks, sorted(series.tracks, key=lambda t: t.label)):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-9)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main([
            "run", "--site", "onsoy", "--mode", "independent", "--seed", "3",
            "--out", str(tmp_path), "--trunc", "ranked", "--hyps", "24",
        ])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert "report.json" in capsys.readouterr().out

    def test_synth_subcommand(self, tmp_path):
        code = main(["synth", "--site", "taipei", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "scenario.csv").read_text().splitlines()
        assert lines[0] == "step,depth,kind,property_or_unknown,value,seed"
        assert sum(1 for l in lines if ",truth," in l) == 3 * 23

    def test_eval_and_plot_subcommands(self, tmp_path):
        main([
            "run", "--site", "onsoy", "--mode", "independent", "--seed", "3",
            "--out", str(tmp_path / "run"), "--trunc", "ranked", "--hyps", "24",
        ])
        trial = tmp_path / "run" / "trials" / "trial_000"
        code = main([
            "eval", "--scenario", str(trial / "scenario.csv"),
            "--estimates", str(trial / "estimates.csv"), "--out", str(tmp_path / "eval"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert set(report["per_property"]) == {"LL", "PI", "w"}

        code = main([
            "plot", "--scenario", str(trial / "scenario.csv"),
            "--estimates", str(trial / "estimates.csv"), "--out", str(tmp_path / "plots"),
        ])
        assert code == 0
        svg = (tmp_path / "plots" / "plot_LL.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--site", "onsoy", "--pd", "1.5", "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert main(["run", "--site", "onsoy", "--hyps", "0", "--out", str(tmp_path)]) == 2

    def test_missing_site_exit_code(self, tmp_path):
        assert main(["run", "--site", "nowhere.csv", "--out", str(tmp_path)]) == 2
        site = tmp_path / "site.csv"
        site.write_text("depth,LL,PI,w\n1.0,10,20,30\n2.0,nan,20,30\n")
        assert main(["run", "--site", str(site), "--out", str(tmp_path / "out")]) == 2

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # births disabled: nothing can ever exist, so there is no estimate
        # series to report on
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "site": "onsoy", "mode": "independent", "r_birth": 0.0, "seed": 1,
            "out_dir": str(tmp_path / "out"),
        }))
        code = main(["run", "--config", str(config_file)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "site": "onsoy", "mode": "independent", "seed": 11, "mc_trials": 1,
            "trunc_method": "ranked", "requested_hypotheses": 24,
            "min_weight": 1e-5, "max_hypotheses": 60,
            "out_dir": str(tmp_path / "from_config"),
        }))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "flag_wins")])
        assert code == 0
        assert (tmp_path / "flag_wins" / "report.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEOGLMB_SEED", "777")
        code = main([
            "synth", "--site", "onsoy", "--mode", "joint", "--out", str(tmp_path)
        ])
        assert code == 0
        text = (tmp_path / "scenario.csv").read_text()
        assert text.splitlines()[1].endswith(",777")

    def test_flag_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEOGLMB_SEED", "777")
        main(["synth", "--site", "onsoy", "--seed", "5", "--out", str(tmp_path)])
        assert (tmp_path / "scenario.csv").read_text().splitlines()[1].endswith(",5")
