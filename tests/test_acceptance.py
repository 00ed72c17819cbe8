"""Acceptance gate: one test per criterion, each printing a pass line.

Criteria are exercised at their stated tolerances; statistical criteria use
fixed seeds so the whole gate is deterministic.
"""
import math
import time

import numpy as np
import pytest

from conftest import enumeration_oracle, gaussians, kf_oracle, random_scenario, simple_birth
from geoglmb.assignment import gibbs_solutions, ranked_solutions
from geoglmb.evaluation import compare_reports
from geoglmb.experiment import ExperimentConfig, run_monte_carlo
from geoglmb.filter import TruncationConfig, extract_map_trajectories, run_sequence
from geoglmb.gaussian import Gaussian, MotionModel, SensorModel, kalman_update
from geoglmb.lrfs import Label, cardinality_distribution
from geoglmb.scenario import (
    bundled_records,
    depth_intervals,
    load_site_table,
    synthesize_observations,
)

EXHAUSTIVE = TruncationConfig(
    method="ranked", requested_hypotheses=10**6, min_weight=0.0, max_hypotheses=10**9
)

FAST_MC = dict(
    mode="independent",
    p_survival=1.0,  # profiles span the whole depth range; survival is not a
    # reference-pinned parameter and a property column cannot cease to exist
    trunc_method="ranked",
    requested_hypotheses=32,
    min_weight=1e-5,
    max_hypotheses=100,
)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def test_criterion_1_kalman_reduction_oracle(announce):
    """Single certain object on the first site's LL column reduces to a
    standalone Kalman filter within 1e-9 at all 36 depths, in under 1 s."""
    records = bundled_records("onsoy")
    deltas = depth_intervals(records)
    depths = [r.depth for r in records]
    sensor = SensorModel(
        sigma_m=10.0, p_detect=1.0, clutter_rate=1e-12, clutter_region=(0.0, 120.0)
    )
    motion = MotionModel(sigma_p=0.3, p_survival=1.0)
    scenario = synthesize_observations(records, sensor, mode="independent", seed=11)
    zs = [z for (z,) in scenario.groups[0].readings]

    prior_mean = np.array([records[0].values["LL"], 0.0])
    prior_cov = np.diag([sensor.sigma_m**2, 1.0])
    birth = simple_birth([(Label(1, 0), prior_mean)], r_birth=0.98, cov=prior_cov)

    t0 = time.perf_counter()
    history = run_sequence(deltas, [[z] for z in zs], birth, motion, sensor, EXHAUSTIVE)
    series = extract_map_trajectories(history, depths)
    elapsed = time.perf_counter() - t0

    means, covs = kf_oracle(prior_mean, prior_cov, deltas, zs, 0.3, 10.0)
    track = {t.label: t for t in series.tracks}[Label(1, 0)]
    assert len(track.values) == 36
    worst = float(np.max(np.abs(track.values - [m[0] for m in means])))
    assert worst < 1e-9
    np.testing.assert_allclose(track.variances, [c[0, 0] for c in covs], atol=1e-9)
    assert elapsed < 1.0
    announce(
        f"[PASS] criterion 1: GLMB = Kalman on 36 LL depths "
        f"(max |diff| {worst:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_2_brute_force_equivalence(announce):
    """Exhaustively truncated recursion matches full enumeration of the
    joint prediction-update children within 1e-9 relative error."""
    rng = np.random.default_rng(2001)
    t0 = time.perf_counter()
    n_weights = 0
    cases = []
    for case in range(10):
        n_labels = [1, 2, 2, 2, 1, 2, 2, 1, 2, 2][case]
        p_d = float(rng.uniform(0.3, 1.0)) if case != 4 else 1.0
        p_s = float(rng.uniform(0.75, 1.0)) if case != 5 else 1.0
        clutter = float(rng.uniform(0.2, 1.5)) if case != 6 else 0.0
        cases.append((n_labels, p_d, p_s, clutter))

    for case_idx, (n_labels, p_d, p_s, clutter) in enumerate(cases):
        entries = [
            (Label(1, i), np.array([float(rng.uniform(20, 80)), 0.0]))
            for i in range(n_labels)
        ]
        birth = simple_birth(entries, r_birth=float(rng.uniform(0.5, 0.98)))
        sensor = SensorModel(
            sigma_m=8.0, p_detect=p_d, clutter_rate=clutter, clutter_region=(0.0, 100.0)
        )
        motion = MotionModel(sigma_p=0.4, p_survival=p_s)
        deltas = [1.0, 0.7, 1.3]
        dense = case_idx < 2  # cover the largest class (incl. two labels)
        sets = [
            [
                float(rng.uniform(5, 95))
                for _ in range(3 if dense else int(rng.integers(0, 4)))
            ]
            for _ in deltas
        ]
        if clutter == 0.0:
            # keep full assignment feasible so the no-clutter limit is exact
            sets = [s[:n_labels] for s in sets]
        history = run_sequence(deltas, sets, birth, motion, sensor, EXHAUSTIVE)
        got = {
            (h.label_set, h.history): math.exp(h.log_weight)
            for h in history[-1].hypotheses
        }
        expected = enumeration_oracle(
            birth.entries, sets, deltas, p_s, p_d, clutter, (0.0, 100.0), 0.4, 8.0
        )
        # the filter may carry identities whose weight underflows the
        # oracle's raw float products; they must be negligible
        extra = set(got) - set(expected)
        assert all(got[key] < 1e-250 for key in extra)
        assert set(expected) <= set(got)
        for key, w in expected.items():
            assert got[key] == pytest.approx(w, rel=1e-9, abs=1e-250)
        n_weights += len(expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(
        f"[PASS] criterion 2: {len(cases)} three-step scenarios, "
        f"{n_weights} hypothesis weights vs enumeration (rel 1e-9, {elapsed:.1f}s)"
    )


def test_criterion_3_gibbs_ranked_agreement(announce):
    """Gibbs truncation at 1e4 iterations recovers the exhaustive feasible
    map set on 2-label x 4-measurement steps in at least 99 of 100 trials."""
    rng = np.random.default_rng(3003)
    hits = 0
    for trial in range(100):
        values = rng.normal(0.0, 1.0, size=(2, 6))
        exhaustive = {sol for sol, _ in ranked_solutions(values, 6**2)}  # every combination
        got = {sol for sol, _ in gibbs_solutions(values, 10_000, np.random.default_rng(trial))}
        hits += got == exhaustive
    assert hits >= 99
    announce(f"[PASS] criterion 3: gibbs found the exhaustive map set in {hits}/100 trials")


def test_criterion_4_first_site_reproduction(announce):
    """With the reference setup (detection 0.5, noise 10, process 0.3),
    estimates beat raw observations on every property over 100 trials and
    exist at all 36 depths, within 2 minutes."""
    t0 = time.perf_counter()
    config = ExperimentConfig(site="onsoy", seed=0, mc_trials=100, **FAST_MC)
    report = run_monte_carlo(config)
    elapsed = time.perf_counter() - t0

    lines = []
    for prop in ("LL", "PI", "w"):
        est = report.mc_summary[f"rmse_estimate_{prop}"]["mean"]
        obs = report.mc_summary[f"rmse_observation_{prop}"]["mean"]
        recovery = report.mc_summary[f"recovery_rate_{prop}"]["mean"]
        assert est < obs, f"{prop}: estimate RMSE {est} not below observation RMSE {obs}"
        assert recovery == 1.0, f"{prop}: estimates missing at some depths"
        lines.append(f"{prop} {est:.2f}<{obs:.2f}")
    assert elapsed < 120.0
    announce(
        f"[PASS] criterion 4: 100-trial mean estimate RMSE beats observations "
        f"({', '.join(lines)}; recovery 100%; {elapsed:.1f}s)"
    )


def test_criterion_4_joint_mode_reproduction(announce):
    """Criterion 4 for the unlabeled multi-object filter: joint mode with
    the default truncation, every property surviving, estimates beat raw
    observations on every property over 100 trials and exist at all 36
    depths."""
    config = ExperimentConfig(
        site="onsoy", mode="joint", p_survival=1.0, seed=0, mc_trials=100, jobs=2
    )
    report = run_monte_carlo(config)

    lines = []
    for prop in ("LL", "PI", "w"):
        est = report.mc_summary[f"rmse_estimate_{prop}"]["mean"]
        obs = report.mc_summary[f"rmse_observation_{prop}"]["mean"]
        recovery = report.mc_summary[f"recovery_rate_{prop}"]["mean"]
        assert est < obs, f"{prop}: estimate RMSE {est} not below observation RMSE {obs}"
        assert recovery == 1.0, f"{prop}: estimates missing at some depths"
        lines.append(f"{prop} {est:.2f}<{obs:.2f} recovery {recovery:.0%}")
    announce(
        f"[PASS] criterion 4 (joint mode): 100-trial mean estimate RMSE beats "
        f"observations ({', '.join(lines)})"
    )


def test_criterion_5_cross_site_check(announce):
    """Sparser site is less accurate: over paired-seed 100-trial batches the
    second site's LL and PI estimate RMSE is at least the first site's in
    >= 8 of 10 batches."""
    wins = {"LL": 0, "PI": 0}
    flagged = 0
    for b in range(10):
        reports = {}
        for site in ("onsoy", "taipei"):
            config = ExperimentConfig(
                site=site, seed=10_000 * b, mc_trials=100, jobs=2, **FAST_MC
            )
            reports[site] = run_monte_carlo(config)
        comparison = compare_reports(reports["onsoy"], reports["taipei"])
        for prop in wins:
            wins[prop] += comparison["per_property"][prop]["other_less_accurate"]
        flagged += all(
            comparison["per_property"][p]["other_less_accurate"] for p in wins
        )
    assert wins["LL"] >= 8, f"LL: taipei >= onsoy in only {wins['LL']}/10 batches"
    assert wins["PI"] >= 8, f"PI: taipei >= onsoy in only {wins['PI']}/10 batches"
    announce(
        f"[PASS] criterion 5: sparser-site RMSE >= reference in "
        f"{wins['LL']}/10 (LL) and {wins['PI']}/10 (PI) batches"
    )


def test_criterion_6_invariant_suite(announce):
    """Randomized invariants, >= 1e3 cases each: normalization after every
    step, cardinality pmf mass, covariance PSD, and seeded determinism."""
    rng = np.random.default_rng(606)

    # posterior PSD on direct updates
    psd_cases = 0
    for _ in range(1000):
        mean = rng.normal(0.0, 30.0, size=2)
        a = rng.normal(0.0, 3.0, size=(2, 2))
        cov = a @ a.T + 0.1 * np.eye(2)
        comp = Gaussian(mean, cov)
        post, _ = kalman_update(
            comp, float(rng.normal(0, 30)), SensorModel(sigma_m=float(rng.uniform(0.5, 15)))
        )
        assert np.all(np.linalg.eigvalsh(post.covariance) >= -1e-9)
        psd_cases += 1

    norm_cases = 0
    card_cases = 0
    det_cases = 0
    for scenario_idx in range(340):
        birth, sensor, motion, deltas, sets, trunc = random_scenario(rng, scenario_idx)
        runs = []
        for _ in range(2):
            history = run_sequence(deltas, sets, birth, motion, sensor, trunc)
            runs.append(history)
        for density in runs[0]:
            assert abs(np.exp(density.hypotheses.log_weights).sum() - 1.0) < 1e-9
            norm_cases += 1
            assert abs(cardinality_distribution(density).sum() - 1.0) < 1e-9
            card_cases += 1
            for i in range(len(density.hypotheses)):
                for g in gaussians(density, i).values():
                    assert np.all(np.linalg.eigvalsh(g.covariance) >= -1e-9)
                    psd_cases += 1
        for da, db in zip(runs[0], runs[1]):
            assert da.hypotheses.log_weights.tolist() == db.hypotheses.log_weights.tolist()
            for ha, hb in zip(da.hypotheses, db.hypotheses):
                assert ha.label_set == hb.label_set and ha.history == hb.history
            det_cases += 1

    assert norm_cases >= 1000 and card_cases >= 1000
    assert psd_cases >= 1000 and det_cases >= 1000
    announce(
        f"[PASS] criterion 6: invariants green on {norm_cases} normalization, "
        f"{card_cases} cardinality, {psd_cases} PSD, {det_cases} determinism cases"
    )


def test_criterion_7_data_fidelity(announce, table_file):
    """Bundled tables round-trip through the parser and match the published
    spot values exactly."""
    onsoy = bundled_records("onsoy")
    taipei = bundled_records("taipei")
    spots = {
        ("onsoy", 1): (1.03, 56.20, 19.96, 66.99),
        ("onsoy", 18): (7.63, 66.32, 31.49, 62.32),
        ("onsoy", 36): (16.28, 72.67, 34.73, 64.46),
        ("taipei", 1): (5.89, 33.00, 12.56, 30.10),
        ("taipei", 12): (20.92, 40.77, 21.51, 33.86),
        ("taipei", 23): (32.33, 25.38, 10.49, 27.58),
    }
    tables = {"onsoy": onsoy, "taipei": taipei}
    for (site, row), (depth, ll, pi, w) in spots.items():
        rec = tables[site][row - 1]
        assert rec.depth == depth
        assert rec.values["LL"] == ll
        assert rec.values["PI"] == pi
        assert rec.values["w"] == w

    # round-trip: serialize records back to CSV and reload
    for site, records in tables.items():
        text = "depth,LL,PI,w\n" + "\n".join(
            f"{r.depth},{r.values['LL']},{r.values['PI']},{r.values['w']}"
            for r in records
        )
        again = load_site_table(table_file(text.encode()))
        assert again == records
    announce(
        "[PASS] criterion 7: bundled tables (36 + 23 rows) round-trip and "
        "match published spot values exactly"
    )
