"""The benchmark in ``glmbbench/`` reaches into the program by module
attribute: it wraps functions for tracing and samples solver results for
its brute-force checks.  These tests keep those hooks working."""
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import simple_birth
from geoglmb import experiment
from geoglmb.cli import main
from geoglmb.filter import TruncationConfig, run_sequence
from geoglmb.gaussian import MotionModel, SensorModel
from geoglmb.lrfs import Label
from geoglmb.scenario import bundled_records, synthesize_observations

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "glmbbench"))
import oracle  # noqa: E402
import workload  # noqa: E402
from spans import Tracer, patched, summarize  # noqa: E402


def test_patched_names_resolve():
    patches = (
        workload.tracer_patches(Tracer())
        + workload.Capture().patches()
        + workload.SolverSampler().patches()
    )
    for module, attr, _ in patches:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


def test_sampler_sees_ranked_and_gibbs_solutions_of_a_joint_run():
    birth = simple_birth([(Label(1, 0), np.array([40.0, 0.0])), (Label(1, 1), np.array([60.0, 0.0]))])
    motion = MotionModel(sigma_p=0.3, p_survival=0.95)
    sensor = SensorModel(sigma_m=6.0, p_detect=0.7, clutter_rate=0.5, clutter_region=(0.0, 100.0))
    deltas = [1.0, 0.5, 0.8]
    sets = [[42.0, 61.0], [58.5], [39.0, 44.0, 80.0]]
    sampler = workload.SolverSampler()
    with patched(sampler.patches()):
        for method in ("ranked", "gibbs"):
            trunc = TruncationConfig(method=method, requested_hypotheses=20, gibbs_iterations=50)
            run_sequence(deltas, sets, birth, motion, sensor, trunc)
    counts = sampler.counts()
    assert counts["ranked"] >= 1 and counts["gibbs"] >= 1
    assert sampler.check() == []


def test_traced_trial_counts_filter_steps():
    # Independent mode: three one-property groups, one step per depth each.
    records = bundled_records("onsoy")[:6]
    config = experiment.ExperimentConfig(site="onsoy", mode="independent", trunc_method="ranked")
    tracer = Tracer()
    with patched(workload.tracer_patches(tracer)):
        experiment.run_trial(records, config, 0)
    metrics = workload.layer_metrics(tracer, 0, 0.0)
    assert metrics["filter.joint_predict_update.calls"][0] == 3 * len(records)
    assert metrics["filter.hyps_in"][0] >= 3 * len(records)
    assert metrics["filter.hyps_out"][0] >= 3 * len(records)


def test_traced_monte_carlo_labels_trial_spans_with_seeds():
    # The tracer takes a trial's seed from the last item of its job tuple.
    config = experiment.ExperimentConfig(
        site="onsoy", mode="independent", trunc_method="ranked", seed=11, mc_trials=2, jobs=1
    )
    tracer = Tracer()
    with patched(workload.tracer_patches(tracer)):
        experiment.run_monte_carlo(config)
    for name in ("experiment.trial_worker", "experiment.run_trial"):
        assert [span[4] for span in tracer.spans if span[0] == name] == [11, 12], name


def test_traced_cli_run_sees_its_report_and_plot_writes(tmp_path):
    # experiment.write_s and svgplot.profile_plot.s time the writes that run
    # makes in the main process: report.json, metrics.csv and three plots.
    # Reading trial 0's tables back for the plots adds no traced call: the
    # site table is still loaded once.
    tracer = Tracer()
    with patched(workload.tracer_patches(tracer)):
        assert main(["run", "--site", "onsoy", "--mode", "independent", "--seed", "1",
                     "--jobs", "1", "--out", str(tmp_path / "out")]) == 0
    spans = summarize(tracer.spans)
    assert spans["experiment.write"]["calls"] == 2
    assert spans["svgplot.profile_plot"]["calls"] == 3
    assert spans["scenario.load_site_table"]["calls"] == 1


@pytest.mark.parametrize("mode", ["joint", "independent"])
def test_oracle_reads_each_scenarios_readings_by_depth_and_property(mode):
    # oracle.scenario_tables indexes detection_flags and property_observations
    # as [d, p]; clutter must not show among the readings it takes.
    records = bundled_records("taipei")
    sensor = SensorModel(sigma_m=10.0, p_detect=0.5, clutter_rate=3.0, clutter_region=(0.0, 500.0))
    scenario = synthesize_observations(records, sensor, mode, seed=4)
    n_readings = sum(len(per_depth) for g in scenario.groups for per_depth in g.readings)
    assert n_readings > scenario.detection_flags.sum()
    truth, observations = oracle.scenario_tables(scenario)
    assert truth == scenario.truth_matrix().tolist()
    expected = [
        [None if math.isnan(v) else v for v in row]
        for row in scenario.property_observations.tolist()
    ]
    assert observations == expected
    assert any(v is None for row in observations for v in row)
