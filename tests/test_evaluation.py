import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoglmb.evaluation import (
    OSPA_CUTOFF,
    aggregate_report,
    build_report,
    compare_reports,
    label_property_matching,
    ospa,
    report_to_dict,
    rmse,
    track_values_on_schedule,
    trial_metrics,
    write_metrics_csv,
    write_report_json,
)
from geoglmb.experiment import ExperimentConfig, run_trial
from geoglmb.filter import EstimateSeries, TrackEstimate
from geoglmb.gaussian import SensorModel
from geoglmb.lrfs import Label
from geoglmb.scenario import PROPERTIES, bundled_records, synthesize_observations

finite_values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
small_sets = st.lists(finite_values, min_size=0, max_size=6)


class TestRmse:
    def test_identical_lists(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a, b = rng.normal(size=n) * 50, rng.normal(size=n) * 50
            explicit = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)) / n)
            assert rmse(a, b) == pytest.approx(explicit, rel=1e-12)

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])

    @given(st.lists(finite_values, min_size=1, max_size=20), st.randoms())
    def test_invariant_under_joint_permutation(self, values, rand):
        truth = values
        est = [v + 1.0 for v in values]
        order = list(range(len(values)))
        rand.shuffle(order)
        assert rmse(truth, est) == pytest.approx(
            rmse([truth[i] for i in order], [est[i] for i in order]), rel=1e-12
        )


class TestOspa:
    def test_equal_sets(self):
        assert ospa([1.0, 5.0], [1.0, 5.0], 10.0, 1) == 0.0

    def test_pure_cardinality_penalty(self):
        assert ospa([], [5.0], cutoff=10.0, order=1) == 10.0

    def test_empty_sets(self):
        assert ospa([], [], 10.0, 1) == 0.0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.uniform(0, 100, size=3)
            y = rng.uniform(0, 100, size=3)
            c, p = 20.0, 1.0
            best = min(
                sum(min(abs(a - b), c) ** p for a, b in zip(x, perm))
                for perm in itertools.permutations(y)
            )
            expected = (best / 3) ** (1 / p)
            assert ospa(x, y, c, p) == pytest.approx(expected, rel=1e-12)

    def test_unequal_sizes_include_cardinality_term(self):
        # one perfect match, one unmatched element at cutoff 10
        assert ospa([0.0], [0.0, 50.0], cutoff=10.0, order=1) == pytest.approx(5.0)

    @given(small_sets, small_sets)
    @settings(max_examples=300)
    def test_symmetric_and_bounded(self, x, y):
        d_xy = ospa(x, y, 20.0, 1)
        d_yx = ospa(y, x, 20.0, 1)
        assert d_xy == pytest.approx(d_yx, abs=1e-9)
        assert 0.0 <= d_xy <= 20.0 + 1e-12

    @given(small_sets)
    @settings(max_examples=200)
    def test_identity_of_indiscernibles(self, x):
        assert ospa(x, x, 20.0, 1) == pytest.approx(0.0, abs=1e-12)
        if x:
            shifted = [v + 1.0 for v in x]
            assert ospa(x, shifted, 20.0, 1) > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ospa([1.0], [1.0], cutoff=0.0)
        with pytest.raises(ValueError):
            ospa([1.0], [1.0], cutoff=10.0, order=0.5)


def series_from_matrix(depths, values, labels=None, variances=None):
    """EstimateSeries with one track per column of values."""
    n, k = values.shape
    tracks = []
    for j in range(k):
        col = values[:, j]
        mask = ~np.isnan(col)
        steps = np.nonzero(mask)[0] + 1
        tracks.append(
            TrackEstimate(
                label=labels[j] if labels else Label(1, j),
                steps=steps,
                depths=np.asarray(depths)[mask],
                values=col[mask],
                rates=np.zeros(mask.sum()),
                variances=np.ones(mask.sum()) if variances is None else variances[mask, j],
            )
        )
    return EstimateSeries(
        tracks=tuple(tracks),
        map_cardinality=k,
        map_log_weight=0.0,
        hypothesis_counts=(),
    )


class TestBuildReport:
    def _scenario(self, seed=0, p_detect=0.5, mode="joint"):
        records = bundled_records("onsoy")
        sensor = SensorModel(sigma_m=10.0, p_detect=p_detect, clutter_rate=0.0)
        return synthesize_observations(records, sensor, mode, seed=seed, site_name="onsoy")

    def test_degenerate_noise_run_is_nearly_exact(self):
        # p_survival = 1 keeps the certain-detection limit well posed: with
        # near-zero sensor noise a model-mismatch innovation must not be
        # escapable by killing the track
        records = bundled_records("onsoy")
        config = ExperimentConfig(
            mode="independent", p_detect=1.0, sigma_m=1e-6, clutter_rate=1e-12,
            p_survival=1.0, seed=5,
        )
        scenario, series = run_trial(records, config, seed=5, site_name="onsoy")
        report = build_report(scenario, series)
        for prop, metrics in report.per_property.items():
            assert metrics.rmse_estimate < 0.1
            assert metrics.recovery_rate == 1.0
        truth = scenario.truth_matrix()
        for track in series.tracks:
            worst = np.max(np.abs(track.values - truth[:, track.label.index]))
            assert worst < 0.1

    def test_recovery_rate_is_detection_fraction_for_obs_only_estimates(self):
        scenario = self._scenario(seed=7, mode="joint")
        truth = scenario.truth_matrix()
        est = np.where(scenario.detection_flags, scenario.property_observations, np.nan)
        series = series_from_matrix(scenario.depths, est)
        report = build_report(scenario, series)
        for p_idx, prop in enumerate(("LL", "PI", "w")):
            detected_fraction = scenario.detection_flags[:, p_idx].mean()
            assert report.per_property[prop].recovery_rate == pytest.approx(
                detected_fraction
            )
            # estimates equal the observations exactly where both exist
            assert report.per_property[prop].rmse_estimate == pytest.approx(
                report.per_property[prop].rmse_observation
            )

    def test_identical_trials_have_zero_std(self):
        scenario = self._scenario(seed=3)
        est = scenario.truth_matrix() + 1.0
        series = series_from_matrix(scenario.depths, est)
        metrics = trial_metrics(scenario, series)
        report = aggregate_report(scenario, [metrics, metrics])
        assert report.n_trials == 2
        for key, summary in report.mc_summary.items():
            assert summary["std"] == pytest.approx(0.0, abs=1e-12)
        assert report.mc_summary["rmse_estimate_LL"]["mean"] == pytest.approx(1.0)

    def test_matching_invariant_to_label_relabeling(self):
        scenario = self._scenario(seed=9)
        truth = scenario.truth_matrix()
        est = truth + np.array([0.5, -0.3, 0.8])
        a = build_report(scenario, series_from_matrix(scenario.depths, est))
        relabeled = series_from_matrix(
            scenario.depths, est[:, ::-1], labels=[Label(4, 9), Label(2, 2), Label(3, 0)]
        )
        b = build_report(scenario, relabeled)
        for prop in ("LL", "PI", "w"):
            assert a.per_property[prop].rmse_estimate == pytest.approx(
                b.per_property[prop].rmse_estimate
            )

    def test_ospa_zero_when_estimates_equal_truth(self):
        scenario = self._scenario(seed=2)
        series = series_from_matrix(scenario.depths, scenario.truth_matrix())
        report = build_report(scenario, series)
        assert max(report.ospa_per_depth) == pytest.approx(0.0, abs=1e-12)

    def test_missing_track_charges_ospa_cardinality(self):
        scenario = self._scenario(seed=2)
        truth = scenario.truth_matrix()
        est = truth.copy()
        est[:, 2] = np.nan  # drop one property's track entirely
        report = build_report(scenario, series_from_matrix(scenario.depths, est))
        assert min(report.ospa_per_depth) >= 20.0 / 3 - 1e-9

    def test_compare_reports_flags_less_accurate_site(self):
        scenario = self._scenario(seed=4)
        good = series_from_matrix(scenario.depths, scenario.truth_matrix() + 0.5)
        bad = series_from_matrix(scenario.depths, scenario.truth_matrix() + 5.0)
        r_good = build_report(scenario, good)
        r_bad = build_report(scenario, bad)
        comparison = compare_reports(r_good, r_bad)
        for prop in ("LL", "PI", "w"):
            assert comparison["per_property"][prop]["other_less_accurate"] is True

    def test_no_estimates_report_as_a_trial_with_nothing_recovered(self):
        scenario = self._scenario(seed=1)
        empty = EstimateSeries(
            tracks=(), map_cardinality=0, map_log_weight=0.0, hypothesis_counts=(),
        )
        report = build_report(scenario, empty)
        for pm in report.per_property.values():
            assert pm.recovery_rate == 0.0 and math.isnan(pm.rmse_estimate)
        assert report.ospa_per_depth == (OSPA_CUTOFF,) * len(scenario.depths)
        assert report.mc_summary["ospa_mean"] == {"mean": OSPA_CUTOFF, "std": 0.0}

    def test_report_serialization(self, tmp_path):
        scenario = self._scenario(seed=1)
        series = series_from_matrix(scenario.depths, scenario.truth_matrix() + 1.0)
        report = build_report(scenario, series)
        doc = report_to_dict(report)
        assert doc["site_name"] == "onsoy"
        assert set(doc["per_property"]) == {"LL", "PI", "w"}
        write_report_json(report, tmp_path / "report.json")
        write_metrics_csv(report, tmp_path / "metrics.csv")
        text = (tmp_path / "metrics.csv").read_text()
        assert text.splitlines()[0] == "site,property,metric,value,mc_mean,mc_std"
        assert (tmp_path / "report.json").read_text().startswith("{")


def two_loop_matching(truth, series, aligned):
    """label_property_matching as it read while it searched in two loops,
    one per side being the smaller: the reference for the single search."""
    carried = {track.prop: track.label for track in series.tracks if track.prop is not None}
    labels = sorted(aligned)
    if carried or not labels:
        return carried
    n_props = truth.shape[1]
    prop_idx = range(n_props)

    def pair_cost(lbl, p):
        vals = aligned[lbl]
        mask = ~np.isnan(vals)
        if not mask.any():
            return 0.0
        return rmse(truth[mask, p], vals[mask])

    best, best_cost = None, math.inf
    if len(labels) <= n_props:
        for props in itertools.permutations(prop_idx, len(labels)):
            cost = sum(pair_cost(l, p) for l, p in zip(labels, props))
            if cost < best_cost:
                best_cost, best = cost, dict(zip(props, labels))
    else:
        for subset in itertools.permutations(labels, n_props):
            cost = sum(pair_cost(l, p) for p, l in enumerate(subset))
            if cost < best_cost:
                best_cost, best = cost, dict(enumerate(subset))
    return {PROPERTIES[p]: lbl for p, lbl in best.items()}


@st.composite
def matching_cases(draw):
    """Truth and 1-6 labels over a few depths, all values from three levels
    so that pair costs tie exactly; labels have NaN gaps and may be NaN
    throughout."""
    n_depths = draw(st.integers(1, 6))
    levels = st.sampled_from([10.0, 20.0, 30.0])
    truth = np.array([draw(st.lists(levels, min_size=3, max_size=3)) for _ in range(n_depths)])
    labels = draw(st.lists(st.builds(Label, st.integers(1, 3), st.integers(0, 3)),
                           min_size=1, max_size=6, unique=True))
    cells = st.one_of(st.just(math.nan), levels)
    columns = [draw(st.lists(cells, min_size=n_depths, max_size=n_depths)) for _ in labels]
    for j in draw(st.sets(st.integers(0, len(labels) - 1), max_size=2)):
        columns[j] = [math.nan] * n_depths
    values = np.array(columns, dtype=float).T
    return truth, series_from_matrix(np.arange(1.0, n_depths + 1), values, labels)


@settings(max_examples=400, deadline=None)
@given(matching_cases())
def test_single_search_pairs_as_the_two_loops_did(case):
    truth, series = case
    aligned = track_values_on_schedule(series, truth.shape[0])
    expected = two_loop_matching(truth, series, aligned)
    assert list(label_property_matching(truth, series, aligned).items()) == list(expected.items())
