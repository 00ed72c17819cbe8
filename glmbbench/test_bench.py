"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q glmbbench
"""
import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import solvers
from spans import Tracer, childless, format_spans, parse_spans, summarize

NEG = -math.inf


# --- spans ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0, (2, 3)),
        ("child", 1.0, 4.0, 0, 0, None),
        ("grandchild", 2.0, 3.5, 1, 0, None),
        ("child", 5.0, 6.0, 0, 0, None),
        ("root", 20.0, 21.0, -1, 1, (1, 1)),
    ]
    agg = summarize(spans)
    assert agg["root"]["calls"] == 2
    assert agg["root"]["s"] == pytest.approx(11.0)
    assert agg["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 + 1.0)
    assert agg["child"]["self_s"] == pytest.approx(3.0 - 1.5 + 1.0)
    assert agg["grandchild"]["self_s"] == pytest.approx(1.5)
    assert agg["root"]["data"] == (3, 4)
    assert childless(spans, "root", "child") == (1, pytest.approx(1.0))


def test_wrapped_calls_record_nesting_and_round_trip():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, data=lambda args, r: (args[0], r))
    assert outer(3) == 8
    (name_i, _, _, parent_i, _, _), (name_o, start, end, parent_o, _, data) = [
        tracer.spans[1], tracer.spans[0]
    ]
    assert (name_o, parent_o, data) == ("outer", -1, (3, 8))
    assert (name_i, parent_i) == ("inner", 0)
    assert end >= start
    assert parse_spans(format_spans(tracer.spans)) == tracer.spans


# --- brute-force solver -------------------------------------------------------------


def test_brute_force_on_hand_checked_matrix():
    # Two rows, one measurement: both rows may not take column 2.
    cost = [[0.0, -1.0, 5.0], [-2.0, 0.5, 4.0]]
    got = solvers.brute_force(cost)
    assert got[:2] == [((2, 1), 5.5), ((0, 2), 4.0)]
    assert {sol for sol, _ in got[2:4]} == {(1, 2), (2, 0)}  # tied at 3.0
    assert got[4:] == [((0, 1), 0.5), ((1, 1), -0.5), ((0, 0), -2.0), ((1, 0), -3.0)]


def test_brute_force_skips_forbidden_entries():
    cost = [[NEG, 0.0, 1.0]]
    assert solvers.brute_force(cost) == [((2,), 1.0), ((1,), 0.0)]


def test_check_ranked_accepts_exact_and_flags_errors():
    cost = [[0.0, -1.0, 5.0, 2.0], [-2.0, 0.5, 4.0, 1.0]]
    exact = solvers.brute_force(cost)[:3]
    assert solvers.check_ranked(cost, 3, exact) == []
    swapped = [exact[0], exact[2], exact[1]]  # 6.0, 5.5, 6.0
    assert solvers.check_ranked(cost, 3, swapped)
    wrong_score = [(exact[0][0], exact[0][1] + 1e-6)] + exact[1:]
    assert solvers.check_ranked(cost, 3, wrong_score)
    assert solvers.check_ranked(cost, 3, exact[:2])
    assert solvers.check_sampled(cost, [((2, 2), 9.0)])
    assert solvers.check_sampled(cost, [exact[0], exact[0]])


def test_ranked_ties_may_come_in_either_order():
    cost = [[0.0, 0.0, 1.0, 1.0]]
    assert solvers.check_ranked(cost, 2, [((3,), 1.0), ((2,), 1.0)]) == []
    assert solvers.check_ranked(cost, 2, [((2,), 1.0), ((3,), 1.0)]) == []


# --- filter oracle ----------------------------------------------------------------


def test_kalman_track_by_hand():
    # Prior value 50, variance 100; reading 60 with sigma_m 10 halves the gap.
    # Then two depth units with no process noise add 2^2 * rate variance 1.
    rows = oracle.kalman_track(50.0, 10.0, 0.0, [1.0, 2.0, 1.0], 1, [1, 0, -1], [[60.0], [], []])
    assert rows == [(1, 55.0, 0.0, 50.0), (2, 55.0, 0.0, 54.0)]


def test_ospa_and_rmse_by_hand():
    assert oracle.ospa([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert oracle.ospa([0.0, 100.0], [1.0]) == pytest.approx((1.0 + 20.0) / 2)
    assert oracle.ospa([], [5.0]) == 20.0
    assert oracle.rmse([(0.0, 3.0), (0.0, 4.0)]) == pytest.approx(math.sqrt(12.5))


@pytest.fixture(scope="module")
def short_run():
    geoglmb = pytest.importorskip("geoglmb")
    from geoglmb import experiment

    records = geoglmb.bundled_records("onsoy")[:8]
    config = geoglmb.ExperimentConfig(mode="joint")
    runs = []
    original = experiment.run_sequence

    def capture(*args, **kwargs):
        history = original(*args, **kwargs)
        runs.append((args[1], history))
        return history

    experiment.run_sequence = capture
    try:
        _, series = experiment.run_trial(records, config, 4, "onsoy")
    finally:
        experiment.run_sequence = original
    readings, history = runs[0]
    model = {
        "sigma_m": config.sigma_m,
        "sigma_p": config.sigma_p,
        "deltas": geoglmb.depth_intervals(records),
        "max_hypotheses": config.max_hypotheses,
    }
    priors = [records[0].values[p] for p in oracle.PROPERTIES]
    return history, series, readings, priors, model


def test_oracle_passes_on_program_output(short_run):
    assert oracle.check_filter_run(*short_run) == []


def test_oracle_reports_perturbed_track(short_run):
    history, series, readings, priors, model = short_run
    track = series.tracks[0]
    values = track.values.copy()
    values[-1] += 1e-6
    bad = dataclasses.replace(
        series, tracks=(dataclasses.replace(track, values=values),) + series.tracks[1:]
    )
    assert any("values" in p for p in oracle.check_filter_run(history, bad, readings, priors, model))


def test_oracle_reports_perturbed_weight(short_run):
    history, series, readings, priors, model = short_run
    last = history[-1]
    first = last.hypotheses[0]
    hyps = (dataclasses.replace(first, log_weight=first.log_weight + 1e-4),) + last.hypotheses[1:]
    bad = list(history[:-1]) + [dataclasses.replace(last, hypotheses=hyps)]
    assert any("weights sum" in p for p in oracle.check_filter_run(bad, series, readings, priors, model))


def test_oracle_reports_hypothesis_cap(short_run):
    history, series, readings, priors, model = short_run
    tight = dict(model, max_hypotheses=1)
    assert any("hypotheses" in p for p in oracle.check_filter_run(history, series, readings, priors, tight))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", "onsoy-joint-ranked", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
