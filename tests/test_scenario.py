import hashlib
import io
import math

import numpy as np
import pytest

from geoglmb.errors import SiteTableError
from geoglmb.gaussian import SensorModel
from geoglmb.scenario import (
    SiteRecord,
    bundled_records,
    bundled_site_path,
    depth_intervals,
    load_site_table,
    read_scenario_csv,
    scenario_to_csv,
    synthesize_observations,
)

# Bundled tables are the only ground truth; lock them down.
BUNDLED_SHA256 = {
    "onsoy": "ca3a19ab3124d772967b938a371756d5845d9d6fa462c196e3fce3b061c3219f",
    "taipei": "7dd10fe30baefa5b07022926813244c1d5d44fffb10c966d1d54847070ef0d7b",
}


class TestLoadSiteTable:
    def test_first_bundled_site_first_row(self):
        rec = bundled_records("onsoy")[0]
        assert rec.depth == 1.03
        assert rec.values == {"LL": 56.20, "PI": 19.96, "w": 66.99}

    def test_second_bundled_site_last_row(self):
        rec = bundled_records("taipei")[-1]
        assert rec.depth == 32.33
        assert rec.values == {"LL": 25.38, "PI": 10.49, "w": 27.58}

    def test_row_counts(self):
        assert len(bundled_records("onsoy")) == 36
        assert len(bundled_records("taipei")) == 23

    def test_empty_file_gives_empty_list(self):
        assert load_site_table(b"") == []
        assert load_site_table(b"   \n  ") == []

    def test_accepts_text_and_binary_streams(self):
        text = "depth,LL,PI,w\n1.0,10,20,30\n"
        assert load_site_table(io.StringIO(text))[0].depth == 1.0
        assert load_site_table(io.BytesIO(text.encode()))[0].values["PI"] == 20.0

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with one
        plain = bundled_site_path("onsoy").read_bytes()
        marked = "\ufeff".encode() + plain
        path = tmp_path / "onsoy.csv"
        path.write_bytes(marked)
        want = load_site_table(plain)
        assert load_site_table(marked) == want
        assert load_site_table(path) == want
        assert load_site_table(io.StringIO(marked.decode())) == want

    def test_rows_sorted_by_depth(self):
        text = "depth,LL,PI,w\n2.0,1,1,1\n1.0,2,2,2\n"
        records = load_site_table(text.encode())
        assert [r.depth for r in records] == [1.0, 2.0]

    def test_header_names_are_stripped(self):
        rows = "1.0,10,20,30\n2.0,11,21,31\n"
        spaced = load_site_table(("depth, LL, PI, w\n" + rows).encode())
        assert spaced == load_site_table(("depth,LL,PI,w\n" + rows).encode())
        assert len(spaced) == 2

    def test_column_named_twice_rejected(self):
        rows = "1,10,20,30,99\n2,11,21,31,98\n"
        for header in ("depth,LL,PI,w,LL", "depth,LL,PI,w, LL"):
            with pytest.raises(SiteTableError, match="header row: column 'LL' appears twice"):
                load_site_table(f"{header}\n{rows}".encode())

    def test_cell_beyond_the_header_rejected(self):
        text = b"depth,LL,PI,w\n1,10,20,30\n2,11,21,31,99\n"
        with pytest.raises(SiteTableError, match="row 2, column 5: cell '99' lies beyond"):
            load_site_table(text)

    def test_blank_trailing_names_and_cells_accepted(self):
        # as a spreadsheet export writes them
        want = load_site_table(b"depth,LL,PI,w\n1,10,20,30\n2,11,21,31\n")
        assert load_site_table(b"depth,LL,PI,w,,\n1,10,20,30,,\n2,11,21,31\n") == want
        assert load_site_table(b"depth,LL,PI,w\n1,10,20,30,, \n2,11,21,31,\n") == want

    def test_missing_column_named(self):
        with pytest.raises(SiteTableError, match="missing column 'PI'"):
            load_site_table(b"depth,LL,w\n1.0,10,30\n")

    def test_non_numeric_cell_names_row_and_column(self):
        with pytest.raises(SiteTableError, match="row 2, column LL"):
            load_site_table(b"depth,LL,PI,w\n1.0,10,20,30\n2.0,bad,20,30\n")
        with pytest.raises(SiteTableError, match="row 2, column PI"):
            load_site_table(b"depth,LL,PI,w\n1.0,10,20,30\n2.0,11,nan,30\n")
        with pytest.raises(SiteTableError, match="row 1, column w"):
            load_site_table(b"depth,LL,PI,w\n1.0,10,20,inf\n")
        with pytest.raises(SiteTableError, match="row 1, column depth"):
            load_site_table(b"depth,LL,PI,w\nnan,10,20,30\n")

    def test_duplicate_depth_rejected(self):
        with pytest.raises(SiteTableError, match="duplicate depth"):
            load_site_table(b"depth,LL,PI,w\n1.0,10,20,30\n1.0,11,21,31\n")

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(SiteTableError, match="row 1, column depth"):
            load_site_table(b"depth,LL,PI,w\n0.0,10,20,30\n")

    def test_bundled_checksums(self):
        for site, expected in BUNDLED_SHA256.items():
            digest = hashlib.sha256(bundled_site_path(site).read_bytes()).hexdigest()
            assert digest == expected, f"bundled {site} table was modified"


class TestDepthIntervals:
    def test_first_bundled_site_leading_intervals(self):
        deltas = depth_intervals(bundled_records("onsoy"))
        assert deltas[0] == pytest.approx(1.03)
        assert deltas[1] == pytest.approx(0.39)

    def test_second_bundled_site_interval(self):
        deltas = depth_intervals(bundled_records("taipei"))
        assert deltas[2] == pytest.approx(12.87 - 7.42)

    def test_uniform_schedule(self):
        records = [
            SiteRecord(d, {"LL": 1.0, "PI": 1.0, "w": 1.0}) for d in (1.0, 2.0, 3.0)
        ]
        assert depth_intervals(records) == pytest.approx([1.0, 1.0, 1.0])

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            depth_intervals([SiteRecord(1.0, {"LL": 1, "PI": 1, "w": 1})])

    def test_non_increasing_rejected(self):
        records = [
            SiteRecord(2.0, {"LL": 1, "PI": 1, "w": 1}),
            SiteRecord(1.0, {"LL": 1, "PI": 1, "w": 1}),
        ]
        records = sorted(records, key=lambda r: -r.depth)
        with pytest.raises(ValueError):
            depth_intervals(records)


class TestSynthesize:
    def test_full_detection_zero_noise_reproduces_truth(self):
        records = bundled_records("onsoy")
        sensor = SensorModel(sigma_m=0.0, p_detect=1.0, clutter_rate=0.0)
        scenario = synthesize_observations(records, sensor, mode="independent", seed=1)
        assert scenario.detection_flags.all()
        np.testing.assert_array_equal(
            scenario.property_observations, scenario.truth_matrix()
        )

    def test_zero_detection_gives_empty_sets(self):
        records = bundled_records("onsoy")
        sensor = SensorModel(sigma_m=10.0, p_detect=0.0, clutter_rate=0.0)
        scenario = synthesize_observations(records, sensor, mode="joint", seed=1)
        assert all(len(s) == 0 for s in scenario.measurement_sets)
        assert not scenario.detection_flags.any()

    def test_detection_count_matches_binomial_oracle(self):
        # 36 depths x 3 properties at p = 0.5: per-run mean 54, variance 27
        records = bundled_records("onsoy")
        sensor = SensorModel(sigma_m=10.0, p_detect=0.5, clutter_rate=0.0)
        counts = [
            synthesize_observations(records, sensor, "joint", seed).detection_flags.sum()
            for seed in range(1000)
        ]
        mean = float(np.mean(counts))
        se = math.sqrt(108 * 0.25 / 1000)
        assert abs(mean - 54.0) < 4 * se
        # also well inside the single-run 3-sigma band
        assert abs(mean - 54.0) < 3 * math.sqrt(108 * 0.25)

    def test_same_seed_reproduces_identical_scenario(self):
        records = bundled_records("taipei")
        sensor = SensorModel()
        a = synthesize_observations(records, sensor, "joint", seed=99)
        b = synthesize_observations(records, sensor, "joint", seed=99)
        assert a.measurement_sets == b.measurement_sets
        np.testing.assert_array_equal(a.detection_flags, b.detection_flags)
        np.testing.assert_array_equal(
            a.property_observations, b.property_observations, strict=True
        )

    def test_modes_share_per_property_streams(self):
        records = bundled_records("onsoy")
        sensor = SensorModel(sigma_m=10.0, p_detect=0.5, clutter_rate=0.0)
        joint = synthesize_observations(records, sensor, "joint", seed=5)
        indep = synthesize_observations(records, sensor, "independent", seed=5)
        np.testing.assert_array_equal(joint.detection_flags, indep.detection_flags)
        np.testing.assert_array_equal(
            joint.property_observations, indep.property_observations, strict=True
        )

    def test_joint_sets_pool_all_detections(self):
        records = bundled_records("onsoy")
        sensor = SensorModel(sigma_m=10.0, p_detect=0.5, clutter_rate=0.0)
        scenario = synthesize_observations(records, sensor, "joint", seed=5)
        for d_idx, per_depth in enumerate(scenario.measurement_sets):
            expected = sorted(
                scenario.property_observations[d_idx, p]
                for p in range(3)
                if scenario.detection_flags[d_idx, p]
            )
            assert sorted(per_depth) == pytest.approx(expected)

    def test_noise_standard_deviation_matches_sensor(self):
        records = bundled_records("onsoy")[:3]
        sensor = SensorModel(sigma_m=10.0, p_detect=1.0, clutter_rate=0.0)
        deviations = []
        for seed in range(10_000):
            s = synthesize_observations(records, sensor, "independent", seed=seed)
            deviations.append(s.property_observations[0, 0] - records[0].values["LL"])
        sd = float(np.std(deviations))
        assert abs(sd - 10.0) / 10.0 < 0.02

    def test_clutter_counts_are_poisson(self):
        records = bundled_records("onsoy")[:5]
        sensor = SensorModel(sigma_m=10.0, p_detect=0.0, clutter_rate=2.0, clutter_region=(0, 100))
        total = 0
        n_runs = 300
        for seed in range(n_runs):
            s = synthesize_observations(records, sensor, "joint", seed=seed)
            total += sum(len(m) for m in s.measurement_sets)
        rate = total / (n_runs * 5)
        assert abs(rate - 2.0) < 4 * math.sqrt(2.0 / (n_runs * 5))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            synthesize_observations(bundled_records("onsoy"), SensorModel(), "both", 0)

    def test_unsorted_records_rejected(self):
        records = list(reversed(bundled_records("onsoy")[:3]))
        with pytest.raises(ValueError, match="strictly increasing"):
            synthesize_observations(records, SensorModel(), "joint", 0)


class TestScenarioExport:
    def test_csv_schema_and_rows(self, tmp_path):
        records = bundled_records("onsoy")[:2]
        sensor = SensorModel(sigma_m=5.0, p_detect=1.0, clutter_rate=0.0)
        scenario = synthesize_observations(records, sensor, "joint", seed=3, site_name="onsoy")
        target = tmp_path / "scenario.csv"
        scenario_to_csv(scenario, target)
        lines = target.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "step,depth,kind,property_or_unknown,value,seed"
        truth_lines = [l for l in lines if ",truth," in l]
        obs_lines = [l for l in lines if ",obs," in l]
        assert len(truth_lines) == 6 and len(obs_lines) == 6
        assert lines[1] == "1,1.03,truth,LL,56.2,3"

    def test_clutter_rows_marked_unknown(self, tmp_path):
        records = bundled_records("onsoy")[:2]
        sensor = SensorModel(sigma_m=5.0, p_detect=0.0, clutter_rate=3.0, clutter_region=(0, 50))
        scenario = synthesize_observations(records, sensor, "joint", seed=8)
        target = tmp_path / "scenario.csv"
        scenario_to_csv(scenario, target)
        clutter_lines = [l for l in target.read_text(encoding="utf-8").splitlines() if ",clutter," in l]
        assert clutter_lines, "expected clutter at rate 3.0"
        assert all(",unknown," in l for l in clutter_lines)

    @pytest.mark.parametrize("site", ["onsoy", "taipei"])
    @pytest.mark.parametrize("mode", ["joint", "independent"])
    @pytest.mark.parametrize("clutter_rate", [1e-6, 9.0])
    def test_read_back_writes_the_same_bytes(self, tmp_path, site, mode, clutter_rate):
        sensor = SensorModel(clutter_rate=clutter_rate)
        scenario = synthesize_observations(bundled_records(site), sensor, mode, seed=4)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        scenario_to_csv(scenario, first)
        scenario_to_csv(read_scenario_csv(first), second)
        assert second.read_bytes() == first.read_bytes()
