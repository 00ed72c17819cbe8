import hashlib
import itertools
import math

import numpy as np
import pytest

from geoglmb.cli import main
from geoglmb.errors import SiteTableError
from geoglmb.gaussian import SensorModel
from geoglmb.scenario import (
    PROPERTIES,
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

    def test_blank_file_lacks_the_depth_column(self, table_file, tmp_path, capsys):
        for data in (b"", b"   \n  "):
            path = table_file(data)
            with pytest.raises(SiteTableError) as err:
                load_site_table(path)
            assert str(err.value) == f"{path}: header row: missing column 'depth'"
        out = tmp_path / "out"
        assert main(["run", "--site", str(path), "--out", str(out)]) == 2
        assert f"{path}: header row: missing column 'depth'" in capsys.readouterr().err
        assert not out.exists()

    def test_leading_byte_order_mark_is_dropped(self, table_file):
        # a spreadsheet's "CSV UTF-8" export starts with one
        plain = bundled_site_path("onsoy").read_bytes()
        marked = "\ufeff".encode() + plain
        path = table_file(marked)
        want = load_site_table(table_file(plain))
        assert load_site_table(path) == want

    def test_rows_sorted_by_depth(self, table_file):
        text = "depth,LL,PI,w\n2.0,1,1,1\n1.0,2,2,2\n"
        records = load_site_table(table_file(text.encode()))
        assert [r.depth for r in records] == [1.0, 2.0]

    def test_header_names_are_stripped(self, table_file):
        rows = "1.0,10,20,30\n2.0,11,21,31\n"
        spaced = load_site_table(table_file(("depth, LL, PI, w\n" + rows).encode()))
        assert spaced == load_site_table(table_file(("depth,LL,PI,w\n" + rows).encode()))
        assert len(spaced) == 2

    def test_column_named_twice_rejected(self, table_file):
        rows = "1,10,20,30,99\n2,11,21,31,98\n"
        for header in ("depth,LL,PI,w,LL", "depth,LL,PI,w, LL"):
            with pytest.raises(SiteTableError, match="header row: column 'LL' appears twice"):
                load_site_table(table_file(f"{header}\n{rows}".encode()))

    def test_cell_beyond_the_header_rejected(self, table_file):
        text = b"depth,LL,PI,w\n1,10,20,30\n2,11,21,31,99\n"
        with pytest.raises(SiteTableError, match="row 2, column 5: cell '99' lies beyond"):
            load_site_table(table_file(text))

    def test_cell_under_a_blank_header_name_rejected(self, table_file):
        # a blank name inside the header, and a trailing one
        for text, pos, cell in ((b"depth,LL,,PI,w\n1,10,77,20,30\n", 3, "77"),
                                (b"depth,LL,PI,w,\n1,10,20,30,99\n", 5, "99")):
            with pytest.raises(SiteTableError, match=f"row 1, column {pos}: cell '{cell}' "
                                                     "lies under a blank header name"):
                load_site_table(table_file(text))

    def test_blank_names_over_blank_cells_accepted(self, table_file):
        want = load_site_table(table_file(b"depth,LL,PI,w\n1,10,20,30\n"))
        assert load_site_table(table_file(b"depth,LL,,PI,w\n1,10,,20,30\n")) == want
        assert load_site_table(table_file(b"depth,LL, ,PI,w\n1,10, ,20,30\n")) == want

    def test_blank_trailing_names_and_cells_accepted(self, table_file):
        # as a spreadsheet export writes them
        want = load_site_table(table_file(b"depth,LL,PI,w\n1,10,20,30\n2,11,21,31\n"))
        assert load_site_table(table_file(b"depth,LL,PI,w,,\n1,10,20,30,,\n2,11,21,31\n")) == want
        assert load_site_table(table_file(b"depth,LL,PI,w\n1,10,20,30,, \n2,11,21,31,\n")) == want

    def test_missing_column_named(self, table_file):
        with pytest.raises(SiteTableError, match="missing column 'PI'"):
            load_site_table(table_file(b"depth,LL,w\n1.0,10,30\n"))
        # a record built without the loader checks its values itself
        with pytest.raises(ValueError, match=r"depth 1.0 missing \['PI'\]"):
            SiteRecord(1.0, {"LL": 10.0, "w": 30.0})

    def test_non_numeric_cell_names_row_and_column(self, table_file):
        with pytest.raises(SiteTableError, match="row 2, column LL"):
            load_site_table(table_file(b"depth,LL,PI,w\n1.0,10,20,30\n2.0,bad,20,30\n"))
        with pytest.raises(SiteTableError, match="row 2, column PI"):
            load_site_table(table_file(b"depth,LL,PI,w\n1.0,10,20,30\n2.0,11,nan,30\n"))
        with pytest.raises(SiteTableError, match="row 1, column w"):
            load_site_table(table_file(b"depth,LL,PI,w\n1.0,10,20,inf\n"))
        with pytest.raises(SiteTableError, match="row 1, column depth"):
            load_site_table(table_file(b"depth,LL,PI,w\nnan,10,20,30\n"))
        with pytest.raises(ValueError, match="depth 2.0 has non-finite PI"):
            SiteRecord(2.0, {"LL": 11.0, "PI": math.nan, "w": 30.0})

    def test_duplicate_depth_rejected(self, table_file):
        with pytest.raises(SiteTableError, match="duplicate depth"):
            load_site_table(table_file(b"depth,LL,PI,w\n1.0,10,20,30\n1.0,11,21,31\n"))

    def test_nonpositive_depth_rejected(self, table_file):
        with pytest.raises(SiteTableError, match="row 1, column depth"):
            load_site_table(table_file(b"depth,LL,PI,w\n0.0,10,20,30\n"))
        for depth in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="depth must be > 0"):
                SiteRecord(depth, {"LL": 10.0, "PI": 20.0, "w": 30.0})

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
        assert all(len(s) == 0 for s in scenario.groups[0].readings)
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
        assert a.groups == b.groups
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
        for d_idx, per_depth in enumerate(scenario.groups[0].readings):
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
            total += sum(len(m) for m in s.groups[0].readings)
        rate = total / (n_runs * 5)
        assert abs(rate - 2.0) < 4 * math.sqrt(2.0 / (n_runs * 5))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            synthesize_observations(bundled_records("onsoy"), SensorModel(), "both", 0)

    def test_unsorted_records_rejected(self):
        records = list(reversed(bundled_records("onsoy")[:3]))
        with pytest.raises(ValueError, match="strictly increasing"):
            synthesize_observations(records, SensorModel(), "joint", 0)


def two_branch_synthesis(records, sensor, mode, seed):
    """synthesize_observations as it read while each mode had its own branch
    and a scenario stored its readings in a mode-shaped field: the reference
    for the one loop over filter groups.  Returns (readings, detected,
    property observations); joint readings are one tuple per depth,
    independent readings one tuple per property per depth."""
    from geoglmb.scenario import _TAG_CLUTTER, _TAG_DETECT, _TAG_SHUFFLE

    n, n_props = len(records), len(PROPERTIES)
    detected = np.zeros((n, n_props), dtype=bool)
    prop_obs = np.full((n, n_props), np.nan)
    for p_idx in range(n_props):
        rng = np.random.default_rng([seed, _TAG_DETECT, p_idx])
        for d_idx, rec in enumerate(records):
            truth = rec.values[PROPERTIES[p_idx]]
            if rng.random() < sensor.p_detect:
                detected[d_idx, p_idx] = True
                prop_obs[d_idx, p_idx] = truth + rng.normal(0.0, sensor.sigma_m)

    lo, hi = sensor.clutter_region
    sets = []
    if mode == "joint":
        clutter_rng = np.random.default_rng([seed, _TAG_CLUTTER])
        shuffle_rng = np.random.default_rng([seed, _TAG_SHUFFLE])
        for d_idx in range(n):
            vals = [prop_obs[d_idx, p] for p in range(n_props) if detected[d_idx, p]]
            n_clutter = int(clutter_rng.poisson(sensor.clutter_rate))
            if n_clutter:
                vals.extend(clutter_rng.uniform(lo, hi, size=n_clutter).tolist())
            order = shuffle_rng.permutation(len(vals))
            sets.append(tuple(float(vals[i]) for i in order))
    else:
        clutter_rngs = [
            np.random.default_rng([seed, _TAG_CLUTTER, p_idx]) for p_idx in range(n_props)
        ]
        for d_idx in range(n):
            per_prop = []
            for p_idx in range(n_props):
                vals = [float(prop_obs[d_idx, p_idx])] if detected[d_idx, p_idx] else []
                n_clutter = int(clutter_rngs[p_idx].poisson(sensor.clutter_rate))
                if n_clutter:
                    vals.extend(clutter_rngs[p_idx].uniform(lo, hi, size=n_clutter).tolist())
                per_prop.append(tuple(vals))
            sets.append(tuple(per_prop))
    return tuple(sets), detected, prop_obs


def _hexes(readings):
    return [[v.hex() for v in per_depth] for per_depth in readings]


@pytest.mark.parametrize("mode", ["joint", "independent"])
def test_groups_draw_as_the_two_branches_did(mode):
    # No golden run covers independent-mode clutter: this is its guard.
    records = bundled_records("taipei")
    for p_detect, rate, region, seed in itertools.product(
        (0.0, 0.5, 1.0), (0.0, 1e-6, 3.0), ((0.0, 120.0), (0.0, 500.0)), range(40)
    ):
        sensor = SensorModel(
            sigma_m=10.0, p_detect=p_detect, clutter_rate=rate, clutter_region=region
        )
        sets, detected, prop_obs = two_branch_synthesis(records, sensor, mode, seed)
        scenario = synthesize_observations(records, sensor, mode, seed)
        if mode == "joint":
            expected = [(PROPERTIES, sets)]
        else:
            expected = [((prop,), [per_depth[p] for per_depth in sets])
                        for p, prop in enumerate(PROPERTIES)]
        assert [g.properties for g in scenario.groups] == [props for props, _ in expected]
        for group, (_, readings) in zip(scenario.groups, expected):
            assert all(type(v) is float for per_depth in group.readings for v in per_depth)
            assert _hexes(group.readings) == _hexes(readings)
        assert scenario.property_observations.tobytes() == prop_obs.tobytes()
        assert scenario.detection_flags.tobytes() == detected.tobytes()


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
