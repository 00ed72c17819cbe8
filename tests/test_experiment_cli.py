import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoglmb
from geoglmb import cli, experiment
from geoglmb.cli import _build_config, build_parser, main
from geoglmb.errors import ConfigError, FilterDivergenceError
from geoglmb.evaluation import aggregate_report, trial_metrics
from geoglmb.experiment import (
    ExperimentConfig,
    birth_model_for,
    read_estimates_csv,
    run_experiment,
    run_monte_carlo,
    run_trial,
    write_estimates_csv,
)
from geoglmb.lrfs import DensityArrays
from geoglmb.scenario import PROPERTIES, bundled_records, bundled_site_path, read_scenario_csv
from geoglmb.svgplot import profile_plot
from test_assignment import compensated_sum

FAST = dict(
    trunc_method="ranked", requested_hypotheses=24, min_weight=1e-5, max_hypotheses=60
)

# Config documents of up to four fields.  A value is the field's default, an
# ordinary value of its default's type, a number at or past a bound (a list
# of 0-4 of them for a tuple field), or a value of the wrong type.
_EXTREMES = st.sampled_from([
    1e150, -1e150, math.nextafter(1e150, math.inf), math.nextafter(-1e150, -math.inf),
    0, 0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 2**53, 10**400,
])
_NUMBERS = st.one_of(st.floats(-2.0, 300.0), st.integers(-2, 300), _EXTREMES)
_WRONG = st.sampled_from(["1", True, False, None, {}])
_BY_TYPE = {
    float: (st.floats(0.0, 1.0), _NUMBERS),
    int: (st.integers(1, 300), _NUMBERS),
    str: (st.sampled_from(["onsoy", "taipei", "independent", "gibbs"]), _NUMBERS),
    tuple: (st.lists(st.floats(0.0, 120.0), min_size=2, max_size=3),
            st.lists(_NUMBERS, max_size=4)),
}
_VALUES = {
    f.name: st.one_of(st.just(f.default), *_BY_TYPE[type(f.default)], _WRONG)
    for f in dataclasses.fields(ExperimentConfig)
}
_CONFIG_DOCS = st.lists(st.sampled_from(sorted(_VALUES)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: _VALUES[name] for name in names})
)


def test_import_leaves_scipy_unloaded():
    # scipy is imported at first use, so a cold start does not pay for it
    src = str(Path(geoglmb.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, geoglmb, geoglmb.cli; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for the process pool with one that runs each job in this
    process at submit, on four usable CPUs; returns the list of the sizes
    of the pools made."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return sizes


@pytest.fixture(scope="module")
def exported_trial(tmp_path_factory):
    """The trial directory of one exported independent-mode run."""
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--site", "onsoy", "--mode", "independent", "--seed", "3",
                 "--out", str(out)]) == 0
    return out / "trials" / "trial_000"


def _argv_of(command, trial):
    """A ``command`` argv without --out: run and synth on onsoy, eval and plot
    on ``trial``'s exported tables."""
    if command == "run":
        return ["run", "--site", "onsoy", "--mode", "independent", "--seed", "1", "--mc", "2",
                "--jobs", "1"]
    if command == "synth":
        return ["synth", "--site", "onsoy"]
    return [command, "--scenario", str(trial / "scenario.csv"),
            "--estimates", str(trial / "estimates.csv")]


class TestExperimentConfig:
    def test_defaults_match_reference_setup(self):
        config = ExperimentConfig()
        assert config.p_detect == 0.5
        assert config.sigma_m == 10.0
        assert config.sigma_p == 0.3

    def test_validation_catches_bad_probabilities(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p_detect=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(mc_trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="both")
        with pytest.raises(ConfigError):
            ExperimentConfig(clutter_region=(5.0, 1.0))
        with pytest.raises(ConfigError):
            ExperimentConfig(max_hypotheses=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(birth_offsets=(1.0,))
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(sigma_p=nan),
            dict(sigma_p=inf),
            dict(sigma_m=nan),
            dict(clutter_rate=nan),
            dict(clutter_rate=inf),
            dict(clutter_region=(0.0, inf), clutter_rate=1.0),
            dict(birth_offsets=(nan, 0.0, 0.0)),
            dict(birth_offsets=(inf, 0.0, 0.0)),
            dict(min_weight=nan),
            dict(min_weight=2.0),
        ):
            with pytest.raises(ConfigError, match="finite"):
                ExperimentConfig(**bad)

    def test_counts_are_bounded_at_their_limits(self):
        ExperimentConfig(requested_hypotheses=16384, gibbs_iterations=20_000)
        for field, value in (("requested_hypotheses", 16385), ("gibbs_iterations", 20_001)):
            with pytest.raises(ConfigError, match=f"{field}={value} above"):
                ExperimentConfig(**{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sigma_q": 1.0})

    def test_roundtrip(self):
        config = ExperimentConfig(site="taipei", seed=9, birth_offsets=(1.0, 2.0, 3.0))
        again = ExperimentConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(config))))
        assert again == config

    def test_unknown_site_is_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(site="atlantis").site_records()

    @pytest.mark.parametrize("field, value", [
        ("birth_offsets", (1.0,)),
        ("birth_offsets", (1e300, 0.0, 0.0)),
        ("sigma_m", 1e-200),
        ("clutter_region", (1, 2, 3)),
    ])
    def test_building_names_the_field(self, field, value):
        # Each of these would crash run_trial with an error that names no field.
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_CONFIG_DOCS)
    def test_a_built_config_builds_its_models(self, doc):
        try:
            config = ExperimentConfig.from_dict(doc)
        except ConfigError:
            return
        records = bundled_records("onsoy")
        groups = [PROPERTIES] if config.mode == "joint" else [(p,) for p in PROPERTIES]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config.sensor()
            config.motion()
            config.truncation(config.seed)
            for properties in groups:
                birth_model_for(records, config, properties)


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
        serial = run_monte_carlo(ExperimentConfig(**base, jobs=1))
        parallel = run_monte_carlo(ExperimentConfig(**base, jobs=2))
        assert serial.mc_summary == parallel.mc_summary

    def test_job_counts_write_identical_trees(self, tmp_path):
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_experiment(ExperimentConfig(
                site="onsoy", mode="independent", seed=4, mc_trials=3, jobs=jobs,
                out_dir=str(out), **FAST,
            ))
            files = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            report = json.loads(files.pop("report.json"))
            for key in ("out_dir", "jobs"):
                report["config"].pop(key)
            trees.append((files, report))
        (files, report), (pooled_files, pooled_report) = trees
        assert sorted(files) == sorted(
            [f"trials/trial_{t:03d}/{name}" for t in range(3)
             for name in ("estimates.csv", "scenario.csv")]
            + ["metrics.csv", "plot_LL.svg", "plot_PI.svg", "plot_w.svg"]
        )
        assert pooled_files == files
        assert pooled_report == report

    @pytest.mark.parametrize("mode,jobs", [("joint", 1), ("independent", 2)])
    def test_worker_metrics_aggregate_to_build_report(self, mode, jobs):
        config = ExperimentConfig(
            site="onsoy", mode=mode, seed=6, mc_trials=3, jobs=jobs, **FAST
        )
        report = run_monte_carlo(config)
        records = bundled_records("onsoy")
        trials = [run_trial(records, config, seed, "onsoy") for seed in (6, 7, 8)]
        rebuilt = aggregate_report("onsoy", mode, [trial_metrics(s, e) for s, e in trials])
        # JSON text compares NaN with NaN, and every float by its repr
        assert json.dumps(dataclasses.asdict(report), sort_keys=True) == json.dumps(
            dataclasses.asdict(rebuilt), sort_keys=True
        )

    def test_pool_has_no_more_workers_than_trials(self, in_process_pool):
        base = dict(site="onsoy", mode="independent", seed=7, mc_trials=2, **FAST)
        pooled = run_monte_carlo(ExperimentConfig(**base, jobs=64))
        serial = run_monte_carlo(ExperimentConfig(**base, jobs=1))
        assert in_process_pool == [2]
        assert pooled.mc_summary == serial.mc_summary

    @pytest.mark.parametrize("affinity, cpu_count, sizes", [
        ({0, 1, 2}, 8, [3]),
        (None, 3, [3]),
        (None, None, []),
        ({5}, 8, []),
    ])
    def test_pool_has_no_more_workers_than_usable_cpus(
        self, monkeypatch, in_process_pool, affinity, cpu_count, sizes
    ):
        # None: the platform has no sched_getaffinity, or no CPU count
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        base = dict(site="onsoy", mode="independent", seed=7, mc_trials=4, **FAST)
        pooled = run_monte_carlo(ExperimentConfig(**base, jobs=500))
        assert in_process_pool == sizes
        serial = run_monte_carlo(ExperimentConfig(**base, jobs=1))
        assert pooled.mc_summary == serial.mc_summary

    def test_main_process_holds_a_bounded_number_of_trials(self, monkeypatch, in_process_pool):
        # The in-process pool hands back the very Trial objects the worker
        # made, so weak references to them count those still alive.
        refs, counts = [], []
        worker = experiment._trial_worker

        def counted(args):
            trial = worker(args)
            refs.append(weakref.ref(trial))
            counts.append(sum(ref() is not None for ref in refs))
            return trial

        monkeypatch.setattr(experiment, "_trial_worker", counted)
        held = {}
        for jobs in (1, 2):
            for mc in (8, 32):
                refs.clear()
                counts.clear()
                run_monte_carlo(ExperimentConfig(
                    site="onsoy", mode="independent", seed=1, mc_trials=mc, jobs=jobs, **FAST
                ))
                held[jobs, mc] = max(counts)
        assert in_process_pool == [2, 2]
        # serial: the trial just made; pooled: a full window of results
        # waiting to be taken
        assert held[1, 8] == held[1, 32] == 1
        assert held[2, 8] == held[2, 32] == 2 * experiment._WINDOW_PER_WORKER

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
        loaded_series = read_estimates_csv(tmp_path / "estimates.csv", scenario.depths)
        assert len(loaded_series.tracks) == len(series.tracks)
        for a, b in zip(loaded_series.tracks, sorted(series.tracks, key=lambda t: t.label)):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-9)


class TestTrialSeries:
    # recorded before independent mode ran through joint mode's trial path
    PINNED = {
        "joint": ("-0x1.e0db9d3e9d6e6p+1", 3, (9, 23, 33) + (60,) * 33),
        "independent": (
            "-0x1.966e96d4123b5p-4",
            3,
            (4, 4, 4, 5, 6, 4, 5, 3, 5, 7, 6, 8, 11, 8, 4, 4, 6, 9,
             8, 3, 4, 4, 6, 6, 5, 8, 3, 3, 4, 3, 3, 4, 7, 8, 4, 7),
        ),
    }

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_merged_series_pinned(self, mode):
        config = ExperimentConfig(mode=mode, **FAST)
        _, series = run_trial(bundled_records("onsoy"), config, 0, "onsoy")
        log_weight, cardinality, counts = self.PINNED[mode]
        assert series.map_log_weight.hex() == log_weight
        assert series.map_cardinality == cardinality
        assert series.hypothesis_counts == counts

    def test_merged_log_weight_adds_left_to_right(self, monkeypatch):
        # Three groups' MAP log-weights 0.1, 0.2 and 0.3 merge to
        # 0.6000000000000001 left to right; Python 3.12's compensated sum
        # would give 0.6.
        weights = iter([0.1, 0.2, 0.3])
        real = experiment.extract_map_trajectories

        def extract(history, depths):
            return dataclasses.replace(real(history, depths), map_log_weight=next(weights))

        monkeypatch.setattr(experiment, "extract_map_trajectories", extract)
        monkeypatch.setattr(experiment, "sum", compensated_sum, raising=False)
        config = ExperimentConfig(mode="independent", **FAST)
        _, series = run_trial(bundled_records("onsoy"), config, 0, "onsoy")
        assert series.map_log_weight == 0.6000000000000001

    def test_joint_returns_the_readout_itself(self, monkeypatch):
        readouts, original = [], experiment.extract_map_trajectories

        def extract(history, schedule):
            readouts.append(original(history, schedule))
            return readouts[-1]

        monkeypatch.setattr(experiment, "extract_map_trajectories", extract)
        _, series = run_trial(bundled_records("onsoy")[:6], ExperimentConfig(**FAST), 0, "onsoy")
        assert len(readouts) == 1 and series is readouts[0]


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main([
            "run", "--site", "onsoy", "--mode", "independent", "--seed", "3",
            "--out", str(tmp_path), "--trunc", "ranked", "--hyps", "24",
        ])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert "report.json" in capsys.readouterr().out

    def test_long_run_with_an_exact_map_tie(self, tmp_path, monkeypatch):
        # LL = PI = w at every depth: relabeled hypotheses weigh the same to
        # the bit, so the MAP readout builds hypothesis objects 600 steps deep.
        site = tmp_path / "tied.csv"
        site.write_text("depth,LL,PI,w\n" + "".join(
            f"{1.0 + 0.1 * i:.2f},40.00,40.00,40.00\n" for i in range(600)))
        built = []
        build = DensityArrays._build
        monkeypatch.setattr(DensityArrays, "_build", lambda a, i: built.append(i) or build(a, i))
        out = tmp_path / "run"
        assert main(["run", "--site", str(site), "--out", str(out)]) == 0
        assert (out / "report.json").exists() and len(built) > 600

    def test_plots_parse_when_the_site_name_holds_markup(self, tmp_path):
        # The site name, the table's file name, goes into every plot title.
        site = tmp_path / "a&b<c>d.csv"
        site.write_bytes(bundled_site_path("onsoy").read_bytes())
        out = tmp_path / "run"
        assert main(["run", "--site", str(site), "--mode", "independent", "--out", str(out)]) == 0
        for prop in ("LL", "PI", "w"):
            title = ET.parse(out / f"plot_{prop}.svg").getroot().find("{http://www.w3.org/2000/svg}text")
            assert title.text == f"a&b<c>d: {prop}"

    @pytest.mark.parametrize("site, mode, flags", [
        ("onsoy", "joint", []),
        ("onsoy", "independent", []),
        ("taipei", "joint", []),
        ("taipei", "independent", []),
        ("taipei", "joint", ["--clutter", "9"]),  # the golden clutter-9 run
    ])
    def test_run_plots_are_plot_of_its_first_trial(self, tmp_path, site, mode, flags):
        # Only the titles differ: run's names the site, plot's the CSV's stem.
        run_out, plot_out = tmp_path / "run", tmp_path / "plot"
        assert main(["run", "--site", site, "--mode", mode, "--seed", "3", "--mc", "2",
                     "--jobs", "1", *flags, "--out", str(run_out)]) == 0
        trial = run_out / "trials" / "trial_000"
        assert main(["plot", "--scenario", str(trial / "scenario.csv"),
                     "--estimates", str(trial / "estimates.csv"), "--out", str(plot_out)]) == 0
        for prop in ("LL", "PI", "w"):
            ran, plotted = ((out / f"plot_{prop}.svg").read_text().splitlines()
                            for out in (run_out, plot_out))
            assert ran.pop(2).replace(f">{site}: ", ">scenario: ") == plotted.pop(2)
            assert ran == plotted

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

    def test_eval_reproduces_joint_run_metrics_with_non_default_sensor(self, tmp_path):
        # The scenario CSV keeps no sensor settings, and the metrics eval
        # computes from its rebuilt scenario must not depend on them.
        # The independent run is one whose labels least total RMSE would pair
        # otherwise: eval must pair them as the run did, from estimates.csv.
        runs = {
            "joint": ["--site", "taipei", "--mode", "joint", "--seed", "5", "--mc", "1",
                      "--pd", "0.75", "--sigma-m", "6", "--clutter", "0.6",
                      "--trunc", "ranked", "--hyps", "24"],
            "independent": ["--site", "onsoy", "--mode", "independent", "--p-survival", "1",
                            "--seed", "5", "--mc", "1"],
        }
        for mode, flags in runs.items():
            out = tmp_path / mode
            assert main(["run", *flags, "--out", str(out / "run")]) == 0
            trial = out / "run" / "trials" / "trial_000"
            code = main([
                "eval", "--scenario", str(trial / "scenario.csv"),
                "--estimates", str(trial / "estimates.csv"), "--out", str(out / "eval"),
            ])
            assert code == 0
            run = json.loads((out / "run" / "report.json").read_text())
            evaluated = json.loads((out / "eval" / "report.json").read_text())
            if mode == "joint":
                assert run["config"]["p_detect"] == 0.75 and run["config"]["sigma_m"] == 6.0
            assert run["mode"] == mode and evaluated["mode"] == "joint"
            assert set(evaluated["per_property"]) == set(run["per_property"]) == {"LL", "PI", "w"}
            for prop, metrics in run["per_property"].items():
                got = evaluated["per_property"][prop]
                assert got["n_detections"] == metrics["n_detections"]
                # the CSVs hold 10 significant digits
                for metric in ("rmse_estimate", "rmse_observation", "recovery_rate"):
                    assert got[metric] == pytest.approx(metrics[metric], rel=1e-8), (mode, prop)

    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch):
        code = main(["run", "--site", "onsoy", "--pd", "1.5", "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert main(["run", "--site", "onsoy", "--hyps", "0", "--out", str(tmp_path)]) == 2
        for doc in ({"birth_offsets": 5}, {"p_detect": "high"}):
            config_file = tmp_path / "config.json"
            config_file.write_text(json.dumps(doc))
            assert main(["run", "--config", str(config_file), "--out", str(tmp_path)]) == 2
        base = ["run", "--site", "onsoy", "--mc", "1", "--seed", "0", "--out", str(tmp_path)]
        for flags in (
            ["--sigma-p", "nan"],
            ["--sigma-p", "inf"],
            ["--sigma-m", "nan"],
            ["--clutter", "nan"],
            ["--clutter", "inf"],
        ):
            assert main(base + flags) == 2, flags
        # json.dumps writes NaN and Infinity, which json.loads reads back
        for doc in (
            {"birth_offsets": [float("nan"), 0, 0]},
            {"birth_offsets": [float("inf"), 0, 0]},
            {"min_weight": float("nan")},
            {"clutter_region": [0, float("inf")], "clutter_rate": 1.0},
        ):
            config_file = tmp_path / "config.json"
            config_file.write_text(json.dumps(doc))
            assert main(base + ["--config", str(config_file)]) == 2, doc
        assert "finite" in capsys.readouterr().err
        # negative seeds: a flag, the environment fallback and a config file
        assert main(["run", "--site", "onsoy", "--mc", "1", "--seed", "-1",
                     "--out", str(tmp_path)]) == 2
        monkeypatch.setenv("GEOGLMB_SEED", "-4")
        assert main(["run", "--site", "onsoy", "--mc", "1", "--out", str(tmp_path)]) == 2
        monkeypatch.delenv("GEOGLMB_SEED")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"seed": -2}))
        assert main(["run", "--mc", "1", "--config", str(config_file), "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err
        # a config file must hold a JSON object; clutter_region needs lo and hi
        for text in ("[1, 2]", "3", "null", '"x"'):
            config_file.write_text(text)
            assert main(base + ["--config", str(config_file)]) == 2, text
            assert "JSON object" in capsys.readouterr().err, text
        config_file.write_text(json.dumps({"clutter_region": [1.0]}))
        assert main(base + ["--config", str(config_file)]) == 2
        assert "clutter_region" in capsys.readouterr().err

    def test_seed_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        # scenario.csv reads its seed back through a float, exact below
        # 2**53: a run whose last trial seed would reach it exits 2 naming
        # seed, from a flag or the environment fallback.
        base = ["run", "--site", "onsoy", "--out", str(tmp_path / "out")]
        for flags in (["--seed", "9007199254740992"], ["--seed", "9007199254740991", "--mc", "2"]):
            assert main(base + flags) == 2, flags
            assert "seed=" in capsys.readouterr().err
        monkeypatch.setenv("GEOGLMB_SEED", "9007199254740992")
        assert main(base) == 2
        assert "seed=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        ExperimentConfig(seed=2**53 - 2, mc_trials=2)

    def test_broken_covariance_exit_code(self, tmp_path, capsys):
        # No process noise and sigma_m 1e-9: rounding leaves a posterior
        # variance below zero, so a later step has no innovation variance.
        code = main(["run", "--site", "onsoy", "--mode", "independent", "--sigma-m", "1e-9",
                     "--sigma-p", "0", "--seed", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "trial seed 1: innovation covariance" in err, err
        config = ExperimentConfig(site="onsoy", mode="independent", sigma_m=1e-9, sigma_p=0.0)
        with pytest.raises(FilterDivergenceError, match="innovation covariance"):
            run_trial(bundled_records("onsoy"), config, 1, "onsoy")

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_overflowing_model_inputs_exit_code(self, tmp_path, capsys, command):
        # Each would overflow a double: sigma_m ** 2 in the birth model,
        # sigma_p ** 2 in the transition, the region's width in the clutter
        # draw.  Each is named, with no traceback, and nothing is written.
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"clutter_region": [-1e308, 1e308], "clutter_rate": 1.0}))
        out = tmp_path / "out"
        for flags, name in (
            (["--sigma-m", "1e300"], "sigma_m"),
            (["--sigma-p", "1e200"], "sigma_p"),
            (["--config", str(config_file)], "clutter_region"),
        ):
            assert main([command, "--site", "taipei", *flags, "--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert name in err and "Traceback" not in err, err
            assert not out.exists()

    def test_values_the_filter_squares_beyond_the_bound_exit_code(self, tmp_path, capsys):
        # Finite doubles whose squares, once the filter or the RMSE doubles
        # and sums them, are not: a noise scale's in the prediction and the
        # RMSE, a clutter reading's and a property value's in an innovation.
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"clutter_region": [0.0, 1e155], "clutter_rate": 3.0}))
        rows = bundled_site_path("onsoy").read_text().splitlines()
        rows[3] = ",".join(["1e200" if col == "LL" else cell
                            for col, cell in zip(rows[0].split(","), rows[3].split(","))])
        site = tmp_path / "site.csv"
        site.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("earlier")
        for argv, parts in (
            (["--site", "onsoy", "--sigma-m", "3e153"], ["sigma_m"]),
            (["--site", "taipei", "--sigma-m", "1.3e154"], ["sigma_m"]),
            (["--site", "onsoy", "--config", str(config_file)], ["clutter_region"]),
            (["--site", str(site)], [str(site), "row 3", "column LL", "'1e200'"]),
        ):
            assert main(["run", *argv, "--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert all(part in err for part in parts) and "Traceback" not in err, err
            assert [p.name for p in out.iterdir()] == ["report.json"]
            assert (out / "report.json").read_text() == "earlier"

    def test_sigma_m_whose_square_underflows_exit_code(self, tmp_path, capsys):
        # Squared, these are 0.0 or subnormal: no usable innovation variance.
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("earlier")
        for flags in (["--sigma-m", "1e-200"], ["--sigma-m", "1e-170", "--mode", "independent"],
                      ["--sigma-m", "1.49e-154"]):
            assert main(["run", "--site", "onsoy", *flags, "--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert "sigma_m" in err and "Traceback" not in err, err
            assert [p.name for p in out.iterdir()] == ["report.json"]
            assert (out / "report.json").read_text() == "earlier"

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_sigma_m_with_a_normal_square_runs_clean(self, tmp_path, mode):
        # pyproject makes any numpy RuntimeWarning, such as an underflow, an error
        assert main(["run", "--site", "onsoy", "--mode", mode, "--sigma-m", "1.5e-154",
                     "--out", str(tmp_path / "out")]) == 0

    def test_clutter_rate_above_its_limit_exit_code(self, tmp_path, capsys):
        # At 1e12 synthesis would ask numpy for terabytes of clutter readings.
        out = tmp_path / "out"
        for rate in ("1e12", repr(math.nextafter(1e4, math.inf))):
            assert main(["synth", "--site", "onsoy", "--clutter", rate, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "clutter_rate" in err and "Traceback" not in err, err
            assert not out.exists()
        assert main(["synth", "--site", "onsoy", "--clutter", "1e4", "--out", str(out)]) == 0

    def test_min_weight_above_one_exit_code(self, tmp_path, capsys):
        # No child's weight exceeds 1, so such a prune keeps only its fallback child.
        config_file = tmp_path / "config.json"
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("earlier")
        base = ["run", "--site", "onsoy", "--mode", "independent", "--mc", "1",
                "--config", str(config_file), "--out", str(out)]
        for value in (2.0, math.nextafter(1.0, 2.0)):
            config_file.write_text(json.dumps({"min_weight": value}))
            assert main(base) == 2, value
            err = capsys.readouterr().err
            assert "min_weight" in err and "Traceback" not in err, err
            assert [p.name for p in out.iterdir()] == ["report.json"]
            assert (out / "report.json").read_text() == "earlier"
        config_file.write_text(json.dumps({"min_weight": 1.0}))
        assert main(base[:-1] + [str(tmp_path / "fresh")]) == 0

    def test_readout_beyond_a_double_exit_code(self, tmp_path, capsys):
        # A gap of 1e80 m overflows the process noise, so the estimates'
        # variances after it are infinite; no reader would take that file.
        site = tmp_path / "site.csv"
        site.write_text("depth,LL,PI,w\n1,40,20,30\n2,41,21,31\n1e80,42,22,32\n")
        out = tmp_path / "out"
        assert main(["run", "--site", str(site), "--mode", "independent", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "trial seed 0: a MAP estimate is not finite" in err, err
        assert list(tmp_path.iterdir()) == [site]

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_process_noise_past_a_double_exit_code(self, tmp_path, capsys, mode):
        # sigma_p**2 * delta**4 / 4 is past the largest double on the last
        # interval: the noise is inf with no numpy overflow warning (an error
        # under pyproject), and the run exits 3 as for the gap above.
        site = tmp_path / "site.csv"
        site.write_text("depth,LL,PI,w\n1,40,20,30\n3001,42,22,32\n")
        out = tmp_path / "out"
        assert main(["run", "--site", str(site), "--mode", mode, "--sigma-p", "1e150",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "trial seed 0: a MAP estimate is not finite" in err, err
        assert list(tmp_path.iterdir()) == [site]

    @pytest.mark.parametrize("site", ["onsoy", "taipei"])
    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_values_at_the_bound_run_clean(self, tmp_path, site, mode):
        # pyproject makes any numpy RuntimeWarning, such as an overflow, an error
        runs = [["--sigma-m", "1e150", "--sigma-p", "1e150"]]
        for k, region in enumerate(([-1e150, 1e150], [1e149, 1e150])):
            config_file = tmp_path / f"config{k}.json"
            config_file.write_text(json.dumps({"clutter_region": region, "clutter_rate": 3.0}))
            runs.append(["--config", str(config_file)])
        for flags in runs:
            assert main(["run", "--site", site, "--mode", mode, *flags,
                         "--out", str(tmp_path / "out")]) == 0, flags

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_malformed_csv_exit_code(self, tmp_path, capsys, command):
        assert main(["run", "--site", "onsoy", "--mode", "independent", "--seed", "3",
                     "--out", str(tmp_path / "run")]) == 0
        trial = tmp_path / "run" / "trials" / "trial_000"
        scenario, estimates = trial / "scenario.csv", trial / "estimates.csv"
        no_depth = tmp_path / "no_depth.csv"
        no_depth.write_text(scenario.read_text().replace("step,depth,", "step,dpth,", 1))
        rows = [line.split(",") for line in estimates.read_text().splitlines()]
        rows[2][rows[0].index("mean")] = "abc"
        bad_mean = tmp_path / "bad_mean.csv"
        bad_mean.write_text("".join(",".join(row) + "\n" for row in rows))
        for pair, expected in (
            ((no_depth, estimates), ["no_depth.csv", "header row", "'depth'"]),
            ((scenario, bad_mean), ["bad_mean.csv", "row 2", "column mean", "'abc'"]),
        ):
            code = main([command, "--scenario", str(pair[0]), "--estimates", str(pair[1]),
                         "--out", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert all(part in err for part in expected), err

    BAD_CELLS = [
        ("estimates", "label", "x"),
        ("estimates", "label", "1:-3"),
        ("scenario", "depth", "-1"),
        ("estimates", "step", "1.5"),
        ("estimates", "step", "0"),
        ("estimates", "step", "999"),
        # row 2 is at depth 1.42
        ("estimates", "depth", "5.89"),
        ("scenario", "kind", "guess"),
        ("scenario", "property_or_unknown", "LLL"),
        ("estimates", "property", "clay"),
        # label 1:0 is LL on row 1
        ("estimates", "property", "PI"),
    ]

    @pytest.mark.parametrize("command", ["eval", "plot"])
    @pytest.mark.parametrize("table, column, text", BAD_CELLS)
    def test_bad_cell_exit_code(self, exported_trial, tmp_path, capsys, command, table,
                                column, text):
        paths = {name: exported_trial / f"{name}.csv" for name in ("scenario", "estimates")}
        rows = [line.split(",") for line in paths[table].read_text().splitlines()]
        rows[2][rows[0].index(column)] = text
        paths[table] = tmp_path / f"bad_{table}.csv"
        paths[table].write_text("".join(",".join(row) + "\n" for row in rows))
        code = main([command, "--scenario", str(paths["scenario"]),
                     "--estimates", str(paths["estimates"]), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in (f"bad_{table}.csv", "row 2", f"column {column}", repr(text)):
            assert part in err, err

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_estimates_of_another_schedule_exit_code(self, exported_trial, tmp_path, capsys,
                                                     command):
        # taipei's first depth is 5.89, onsoy's 1.03
        assert main(["run", "--site", "taipei", "--mode", "independent", "--seed", "3",
                     "--out", str(tmp_path / "taipei")]) == 0
        estimates = tmp_path / "taipei" / "trials" / "trial_000" / "estimates.csv"
        code = main([command, "--scenario", str(exported_trial / "scenario.csv"),
                     "--estimates", str(estimates), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in (str(estimates), "row 1", "column depth", "depth 1.03", "'5.89'"):
            assert part in err, err

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_header_only_scenario_exit_code(self, exported_trial, tmp_path, capsys, command):
        header_only = tmp_path / "header_only.csv"
        header_only.write_text((exported_trial / "scenario.csv").read_text().splitlines()[0] + "\n")
        code = main([command, "--scenario", str(header_only),
                     "--estimates", str(exported_trial / "estimates.csv"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in ("header_only.csv", "header row", "column kind"):
            assert part in err, err

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_property_of_two_labels_exit_code(self, exported_trial, tmp_path, capsys, command):
        text = (exported_trial / "estimates.csv").read_text().replace(",PI,", ",LL,")
        row = next(i for i, line in enumerate(text.splitlines()) if ",1:1," in line)
        estimates = tmp_path / "two_labels.csv"
        estimates.write_text(text)
        code = main([command, "--scenario", str(exported_trial / "scenario.csv"),
                     "--estimates", str(estimates), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in ("two_labels.csv", f"row {row}", "column property", "'LL'", "label 1:0"):
            assert part in err, err

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_missing_truth_row_exit_code(self, exported_trial, tmp_path, capsys, command):
        lines = (exported_trial / "scenario.csv").read_text().splitlines(keepends=True)
        assert lines[1].startswith("1,1.03,truth,LL,")
        scenario = tmp_path / "no_truth.csv"
        scenario.write_text("".join(lines[:1] + lines[2:]))
        code = main([command, "--scenario", str(scenario),
                     "--estimates", str(exported_trial / "estimates.csv"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in ("no_truth.csv", "['LL']", "depth 1.03"):
            assert part in err, err

    # (form, rewrite of a scenario.csv row's cells, parts of the message): the
    # step column deleted, every step not a number, every step shifted by 5
    BAD_STEPS = [
        ("deleted", lambda cells: cells[1:], ["header row", "column 'step'"]),
        ("x", lambda cells: ["x"] + cells[1:], ["row 1", "column step", "'x'"]),
        ("shifted", lambda cells: [str(int(cells[0]) + 5)] + cells[1:],
         ["row 1", "column step", "depth 1.03 is step 1", "'6'"]),
    ]

    @pytest.mark.parametrize("command", ["eval", "plot"])
    @pytest.mark.parametrize("form, rewrite, expected", BAD_STEPS, ids=[f for f, *_ in BAD_STEPS])
    def test_scenario_step_exit_code(self, exported_trial, tmp_path, capsys, command, form,
                                     rewrite, expected):
        header, *rows = (exported_trial / "scenario.csv").read_text().splitlines()
        lines = [",".join(header.split(",")[1:] if form == "deleted" else header.split(","))]
        lines += [",".join(rewrite(row.split(","))) for row in rows]
        scenario = tmp_path / "bad_steps.csv"
        scenario.write_text("\n".join(lines) + "\n")
        code = main([command, "--scenario", str(scenario),
                     "--estimates", str(exported_trial / "estimates.csv"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in ("bad_steps.csv", *expected):
            assert part in err, err

    # (seed cells of the first rows, the rest reading 3, parts of the
    # message): seeds that differ between rows, a fraction, a negative seed
    BAD_SEEDS = [
        (["1", "99", "3.7"], ["row 2", "(row 1: '1')", "'99'"]),
        (["3", "3", "4"], ["row 3", "(row 1: '3')", "'4'"]),
        (["3.7"], ["row 1", "whole number >= 0", "'3.7'"]),
        (["-3"], ["row 1", "whole number >= 0", "'-3'"]),
        (["9007199254740993"], ["row 1", "below 2**53", "'9007199254740993'"]),
    ]

    @pytest.mark.parametrize("seeds, expected", BAD_SEEDS, ids=["mixed", "last", "fraction",
                                                                "negative", "2**53"])
    def test_scenario_seed_exit_code(self, exported_trial, tmp_path, capsys, seeds, expected):
        header, *rows = (exported_trial / "scenario.csv").read_text().splitlines()
        assert all(row.endswith(",3") for row in rows)
        seeds = seeds + ["3"] * (len(rows) - len(seeds))
        scenario = tmp_path / "bad_seed.csv"
        scenario.write_text("\n".join(
            [header] + [row.rsplit(",", 1)[0] + "," + seed for row, seed in zip(rows, seeds)]
        ) + "\n")
        code = main(["eval", "--scenario", str(scenario),
                     "--estimates", str(exported_trial / "estimates.csv"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in ("bad_seed.csv", "column seed", *expected):
            assert part in err, err

    # (header rewrite, row rewrite, parts of the message): a column named
    # twice, once only after stripping, a cell beyond the header, and a cell
    # under a blank header name, inside the header and trailing it
    BAD_SHAPES = [
        (lambda h: h + ",kind", lambda r: r + ",truth", ["header row", "'kind' appears twice"]),
        (lambda h: h + ", seed", lambda r: r + ",3", ["header row", "'seed' appears twice"]),
        (lambda h: h, lambda r: r + ",99", ["row 1", "column 7", "'99'"]),
        (lambda h: h.replace(",", ",,", 1), lambda r: r.replace(",", ",77,", 1),
         ["row 1", "column 2", "'77'", "blank header name"]),
        (lambda h: h + ",", lambda r: r + ",99", ["row 1", "column 7", "'99'", "blank header name"]),
    ]

    @pytest.mark.parametrize("header_to, row_to, expected", BAD_SHAPES,
                             ids=["twice", "twice-stripped", "beyond", "blank-name",
                                  "blank-trailing-name"])
    def test_scenario_shape_exit_code(self, exported_trial, tmp_path, capsys, header_to,
                                      row_to, expected):
        header, *rows = (exported_trial / "scenario.csv").read_text().splitlines()
        scenario = tmp_path / "bad_shape.csv"
        scenario.write_text("\n".join([header_to(header), *map(row_to, rows)]) + "\n")
        code = main(["eval", "--scenario", str(scenario),
                     "--estimates", str(exported_trial / "estimates.csv"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in ("bad_shape.csv", *expected):
            assert part in err, err

    # (table, appended row, column named): a repeated truth or obs row for
    # one (depth, property), obs and clutter rows at a depth without truth
    # rows, and a repeated (label, step) row
    EXTRA_ROWS = [
        ("scenario", "1,1.03,truth,LL,10,3", "property_or_unknown"),
        ("scenario", "1,1.03,obs,PI,50,3", "property_or_unknown"),
        ("scenario", "99,99.5,obs,LL,50,3", "depth"),
        ("scenario", "99,99.5,clutter,unknown,50,3", "depth"),
        ("estimates", "1,1.03,1:0,LL,0,50", "step"),
    ]

    @pytest.mark.parametrize("command", ["eval", "plot"])
    @pytest.mark.parametrize("table, extra, column", EXTRA_ROWS)
    def test_extra_row_exit_code(self, exported_trial, tmp_path, capsys, command, table,
                                 extra, column):
        paths = {name: exported_trial / f"{name}.csv" for name in ("scenario", "estimates")}
        lines = paths[table].read_text().splitlines()
        paths[table] = tmp_path / f"extra_{table}.csv"
        paths[table].write_text("\n".join(lines + [extra]) + "\n")
        code = main([command, "--scenario", str(paths["scenario"]),
                     "--estimates", str(paths["estimates"]), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        for part in (f"extra_{table}.csv", f"row {len(lines)}", f"column {column}"):
            assert part in err, err

    CONFIG_FLAGS = [
        ("--site", "taipei", "site", "taipei"),
        ("--mode", "independent", "mode", "independent"),
        ("--pd", "0.7", "p_detect", 0.7),
        ("--sigma-m", "7", "sigma_m", 7.0),
        ("--sigma-p", "0.5", "sigma_p", 0.5),
        ("--p-survival", "0.9", "p_survival", 0.9),
        ("--clutter", "0.5", "clutter_rate", 0.5),
        ("--seed", "5", "seed", 5),
        ("--mc", "3", "mc_trials", 3),
        ("--jobs", "2", "jobs", 2),
        ("--out", "elsewhere", "out_dir", "elsewhere"),
        ("--trunc", "gibbs", "trunc_method", "gibbs"),
        ("--hyps", "12", "requested_hypotheses", 12),
    ]

    @pytest.mark.parametrize("command", ["run", "synth"])
    @pytest.mark.parametrize("flag, text, field, value", CONFIG_FLAGS)
    def test_flag_reaches_config(self, monkeypatch, command, flag, text, field, value):
        monkeypatch.delenv("GEOGLMB_SEED", raising=False)
        assert getattr(ExperimentConfig(), field) != value
        config = _build_config(build_parser().parse_args([command, flag, text]))
        assert getattr(config, field) == value
        assert config == dataclasses.replace(ExperimentConfig(), **{field: value})

    # (command, flag, input): a directory, a file that is not UTF-8 text
    # (the flag's usual contents plus one Latin-1 byte) and no file
    UNREADABLE = [
        ("run", "--site", "directory"),
        ("run", "--site", "latin-1"),
        ("run", "--config", "latin-1"),
        *((command, flag, kind) for command in ("eval", "plot")
          for flag in ("--scenario", "--estimates")
          for kind in ("directory", "latin-1", "missing")),
    ]

    @pytest.mark.parametrize("command, flag, kind", UNREADABLE)
    def test_unreadable_input_exit_code(self, exported_trial, tmp_path, capsys, command, flag,
                                        kind):
        contents = {
            "--site": bundled_site_path("onsoy").read_bytes(),
            "--config": b'{"seed": 1}\n',
            "--scenario": (exported_trial / "scenario.csv").read_bytes(),
            "--estimates": (exported_trial / "estimates.csv").read_bytes(),
        }
        target = tmp_path / "input.csv"
        if kind == "directory":
            target.mkdir()
        elif kind == "latin-1":
            target.write_bytes(contents[flag] + "caf\xe9\n".encode("latin-1"))
        out = ["--out", str(tmp_path / "out")]
        if command == "run":
            argv = [command, flag, str(target), *out]
        else:
            paths = {f: str(exported_trial / f"{f[2:]}.csv") for f in ("--scenario", "--estimates")}
            paths[flag] = str(target)
            argv = [command, *(part for item in paths.items() for part in item), *out]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(target) in err, err

    @pytest.mark.parametrize("command, written", [
        ("eval", ("report.json", "metrics.csv")),
        ("plot", ("plot_LL.svg", "plot_PI.svg", "plot_w.svg")),
    ])
    @pytest.mark.parametrize("table", ["scenario", "estimates"])
    @pytest.mark.parametrize("quirk", ["bom", "padded"])
    def test_quirky_csv_gives_the_same_artifacts(self, exported_trial, tmp_path, command,
                                                 written, table, quirk):
        # a byte-order mark, or header names padded with spaces
        def rewrite(text):
            if quirk == "bom":
                return "\ufeff" + text
            header, rows = text.split("\n", 1)
            return ",".join(f" {name} " for name in header.split(",")) + "\n" + rows

        plain = {name: exported_trial / f"{name}.csv" for name in ("scenario", "estimates")}
        # same file name, since the scenario's name goes into the artifacts
        quirky = dict(plain, **{table: tmp_path / quirk / f"{table}.csv"})
        quirky[table].parent.mkdir()
        quirky[table].write_text(rewrite(plain[table].read_text()), encoding="utf-8")
        outputs = []
        for paths, out in ((plain, tmp_path / "plain"), (quirky, tmp_path / "quirky")):
            assert main([command, "--scenario", str(paths["scenario"]),
                         "--estimates", str(paths["estimates"]), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in written])
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("below", [False, True])
    def test_out_naming_a_file_fails_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                      below):
        calls, original = [], experiment.run_trial

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_trial", spy)
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub" if below else afile
        code = main(["run", "--site", "onsoy", "--mode", "independent", "--mc", "2",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(out) in err and "output directory" in err, err
        assert calls == []
        with pytest.raises(ConfigError, match="output directory"):
            run_experiment(ExperimentConfig(mode="independent", out_dir=str(out)))
        assert calls == []

    @pytest.mark.parametrize("command", ["synth", "eval", "plot"])
    def test_out_naming_a_file_fails_before_any_input_is_read(self, exported_trial, tmp_path,
                                                             capsys, monkeypatch, command):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        for module, name in ((experiment, "load_site_table"), (experiment, "read_scenario_csv"),
                             (experiment, "read_estimates_csv")):
            monkeypatch.setattr(module, name, unread)
        afile = tmp_path / "afile"
        afile.write_text("")
        if command == "synth":
            argv = [command, "--site", "onsoy"]
        else:
            argv = [command, "--scenario", str(exported_trial / "scenario.csv"),
                    "--estimates", str(exported_trial / "estimates.csv")]
        code = main(argv + ["--out", str(afile)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(afile) in err and "output directory" in err, err
        assert afile.read_text() == ""

    def test_out_check_creates_nothing(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert experiment.check_out_dir(str(out)) == out
        assert not (tmp_path / "a").exists()
        assert experiment.check_out_dir(tmp_path) == tmp_path

    def test_count_beyond_its_limit_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--hyps", "16385", "--out", str(out)]) == 2
        assert "requested_hypotheses=16385" in capsys.readouterr().err
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"trunc_method": "gibbs", "gibbs_iterations": 10**10}))
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
        assert "gibbs_iterations=10000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_site_exit_code(self, tmp_path):
        assert main(["run", "--site", "nowhere.csv", "--out", str(tmp_path)]) == 2
        site = tmp_path / "site.csv"
        site.write_text("depth,LL,PI,w\n1.0,10,20,30\n2.0,nan,20,30\n")
        assert main(["run", "--site", str(site), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_short_site_table_exit_code(self, tmp_path, capsys, command):
        for rows in ("", "1.0,10,20,30\n"):
            site = tmp_path / "short.csv"
            site.write_text("depth,LL,PI,w\n" + rows)
            out = tmp_path / "out"
            assert main([command, "--site", str(site), "--out", str(out)]) == 2, rows
            err = capsys.readouterr().err
            assert "short.csv" in err and "at least two" in err, err
            assert not out.exists()

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # No process noise and sigma_m 1e-9: the first trial diverges (as in
        # test_broken_covariance_exit_code)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "site": "onsoy", "mode": "independent", "sigma_m": 1e-9, "sigma_p": 0.0,
            "seed": 1, "out_dir": str(tmp_path / "out"),
        }))
        code = main(["run", "--config", str(config_file)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, jobs):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "site": "onsoy", "mode": "independent", "sigma_m": 1e-9, "sigma_p": 0.0,
            "seed": 1, "mc_trials": 3, "jobs": jobs,
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 3
        assert "trial seed 1: innovation covariance" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(tmp_path.iterdir()) == [config_file]  # no staging entry left

    def test_run_with_an_empty_first_trial(self, tmp_path, capsys):
        # Taipei independent at clutter 2, seed 5, reads out no track.  The
        # run reports it as any trial (recovery 0, RMSE NaN, OSPA at the
        # cutoff), and eval reads the files it wrote.
        out = tmp_path / "out"
        assert main(["run", "--site", "taipei", "--mode", "independent", "--clutter", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        trial = out / "trials" / "trial_000"
        assert (trial / "estimates.csv").read_text().count("\n") == 1  # the header
        assert main(["eval", "--scenario", str(trial / "scenario.csv"),
                     "--estimates", str(trial / "estimates.csv"),
                     "--out", str(tmp_path / "eval")]) == 0
        for doc in (out / "report.json", tmp_path / "eval" / "report.json"):
            report = json.loads(doc.read_text())
            for prop in ("LL", "PI", "w"):
                assert report["per_property"][prop]["recovery_rate"] == 0.0
            assert set(report["ospa_per_depth"]) == {20.0}

    def test_run_over_an_earlier_run(self, tmp_path, capsys):
        # A run into an existing directory replaces the files it writes and
        # leaves the rest; every path it prints names the output directory.
        argv = ["run", "--site", "onsoy", "--mode", "independent", "--trunc", "ranked",
                "--hyps", "24"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(argv + ["--seed", "5", "--mc", "2", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        capsys.readouterr()
        assert main(argv + ["--seed", "6", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert main(argv + ["--seed", "6", "--out", str(fresh)]) == 0
        assert sorted(tmp_path.iterdir()) == [fresh, out]
        assert printed == [
            f"wrote {out / p.relative_to(fresh)}" for p in
            [fresh / "trials" / "trial_000" / "scenario.csv",
             fresh / "trials" / "trial_000" / "estimates.csv",
             fresh / "report.json", fresh / "metrics.csv",
             *(fresh / f"plot_{prop}.svg" for prop in ("LL", "PI", "w"))]
        ]
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == sorted(
            [p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file()]
            + [Path("notes.txt"), Path("trials/trial_001/scenario.csv"),
               Path("trials/trial_001/estimates.csv")]
        )
        for p in fresh.rglob("*"):
            if p.is_file() and p.name != "report.json":
                assert (out / p.relative_to(fresh)).read_bytes() == p.read_bytes(), p
        assert (out / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_trial_leaves_no_trace(self, tmp_path, monkeypatch, capsys, jobs):
        # Trials 0 and 1 are staged before trial 2 fails.
        argv = ["run", "--site", "onsoy", "--mode", "independent", "--trunc", "ranked",
                "--hyps", "24", "--jobs", str(jobs)]
        earlier = tmp_path / "earlier"
        assert main(argv + ["--seed", "20", "--mc", "3", "--out", str(earlier)]) == 0

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in earlier.rglob("*")}

        before = tree()
        real = experiment.run_trial

        def run_trial(records, config, seed, site_name=""):
            if seed == config.seed + 2:
                raise FilterDivergenceError("diverged on purpose")
            return real(records, config, seed, site_name)

        monkeypatch.setattr(experiment, "run_trial", run_trial)
        entries = sorted(tmp_path.iterdir())
        for out in (tmp_path / "fresh", earlier):
            capsys.readouterr()
            assert main(argv + ["--seed", "5", "--mc", "4", "--out", str(out)]) == 3
            assert "trial seed 7: diverged on purpose" in capsys.readouterr().err
            assert sorted(tmp_path.iterdir()) == entries
        assert tree() == before

    @pytest.mark.parametrize("command, name, kind, older", [
        ("run", "trials", "file", "metrics.csv"),
        ("run", "report.json", "directory", "metrics.csv"),
        ("synth", "scenario.csv", "directory", "notes.txt"),
        ("eval", "metrics.csv", "directory", "report.json"),
        ("plot", "plot_PI.svg", "directory", "plot_LL.svg"),
    ])
    def test_entry_of_the_other_kind_in_out_leaves_no_trace(self, exported_trial, tmp_path,
                                                            capsys, command, name, kind, older):
        # run writes a directory trials/ and a file report.json, synth a file
        # scenario.csv, eval report.json then metrics.csv, plot plot_LL.svg then
        # plot_PI.svg: an entry of the other kind under any of those names stops
        # the command before it moves anything into --out, so ``older``, a file
        # it would otherwise replace or leave, keeps its bytes.
        out = tmp_path / "out"
        out.mkdir()
        (out / older).write_text("earlier")
        if kind == "file":
            (out / name).write_text("in the way")
        else:
            (out / name).mkdir()
            (out / name / "inside.txt").write_text("in the way")

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = tree()
        code = main(_argv_of(command, exported_trial) + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(out / name) in err, err
        assert tree() == before
        assert not list(tmp_path.rglob(".geoglmb-run-*"))

    @pytest.mark.parametrize("command, module, name, fail_at", [
        ("eval", cli, "write_metrics_csv", 1),
        ("plot", experiment, "profile_plot", 2),
    ], ids=["eval", "plot"])
    def test_failed_write_leaves_no_trace(self, exported_trial, tmp_path, capsys, monkeypatch,
                                          command, module, name, fail_at):
        # eval's report.json and plot's plot_LL.svg are staged before the
        # patched writer fails.
        real = getattr(module, name)
        calls = []

        def writer(*args, **kwargs):
            calls.append(args)
            if len(calls) == fail_at:
                raise OSError("failed on purpose")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, writer)
        out = tmp_path / "out"
        out.mkdir()
        for older in ("report.json", "metrics.csv", "plot_LL.svg", "plot_PI.svg"):
            (out / older).write_text("earlier")

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = tree()
        code = main(_argv_of(command, exported_trial) + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "failed on purpose" in err, err
        assert tree() == before
        assert not list(tmp_path.rglob(".geoglmb-run-*"))

    @pytest.mark.parametrize("ll", [("1e17",) * 4, ("1e17", "100000000000000016") * 2],
                             ids=["flat", "one-ulp"])
    def test_plot_of_a_span_lost_to_rounding(self, tmp_path, ll):
        # LL's span is 0 or one unit in the last place of 1e17: a pad of a
        # fixed 0.08 would vanish, leaving no axis to tick.
        site = tmp_path / "site.csv"
        site.write_text("depth,LL,PI,w\n" + "".join(
            f"{depth},{value},20,30\n" for depth, value in enumerate(ll, start=1)))
        out = tmp_path / "out"
        assert main(["run", "--site", str(site), "--pd", "0", "--out", str(out)]) == 0
        for prop in ("LL", "PI", "w"):
            # the value axis' tick labels, in the row below the plot area
            ticks = [t.text for t in ET.parse(out / f"plot_{prop}.svg").iter()
                     if t.tag.endswith("text") and t.get("y") == "530"]
            assert len(set(ticks)) == len(ticks) >= 2, (prop, ticks)

    def test_profile_of_a_one_ulp_span_ticks(self, tmp_path):
        # run and plot read truth back at 6 significant digits, where the
        # one-ulp LL above is flat: draw that span itself.
        lo = 1e17
        pairs = [(depth, (lo, np.nextafter(lo, np.inf))[depth % 2]) for depth in range(1, 5)]
        profile_plot("site: LL", pairs, [], [], tmp_path / "plot.svg")
        ticks = [t.text for t in ET.parse(tmp_path / "plot.svg").iter()
                 if t.tag.endswith("text") and t.get("y") == "530"]
        assert len(set(ticks)) == len(ticks) >= 2, ticks

    @pytest.mark.parametrize("depth", [1e-12, 1e-300])
    def test_profile_of_tiny_depths_ticks(self, tmp_path, depth):
        # Ticks are whole multiples of a step, however small the step.
        site = tmp_path / "site.csv"
        site.write_text(f"depth,LL,PI,w\n{depth!r},40,20,30\n{2 * depth!r},41,21,31\n")
        out = tmp_path / "out"
        assert main(["run", "--site", str(site), "--mode", "independent", "--out", str(out)]) == 0
        labels = [t.text for t in ET.parse(out / "plot_LL.svg").iter()
                  if t.tag.endswith("text") and t.get("text-anchor") == "end"]
        assert 2 <= len(labels) <= 10 and len(set(labels)) == len(labels), labels

    def test_plot_wider_than_a_double_exit_code(self, exported_trial, tmp_path, capsys):
        # LL means of 1.5e308 and -1.5e308 are finite, but their span is not.
        text = (exported_trial / "estimates.csv").read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.splitlines()]
        ll_rows = [row for row in rows if row[3] == "LL"]
        for k, row in enumerate(ll_rows):
            row[4] = ("1.5e308", "-1.5e308")[k % 2]
        assert len(ll_rows) > 1
        estimates = tmp_path / "estimates.csv"
        estimates.write_text("\n".join(map(",".join, rows)) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "plot_LL.svg").write_text("earlier")
        code = main(["plot", "--scenario", str(exported_trial / "scenario.csv"),
                     "--estimates", str(estimates), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "plot 'scenario: LL'" in err and "Traceback" not in err, err
        assert [p.name for p in out.iterdir()] == ["plot_LL.svg"]
        assert (out / "plot_LL.svg").read_text() == "earlier"

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
