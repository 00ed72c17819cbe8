import contextlib
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import geoglmb.assignment
import geoglmb.experiment
import geoglmb.filter
from conftest import (
    build_density,
    enumeration_oracle,
    gaussians,
    kf_oracle,
    make_density,
    make_gaussian,
    simple_birth,
)
from geoglmb.assignment import RankedBatch, gibbs_solutions, ranked_solutions
from geoglmb.errors import (
    FilterDivergenceError,
    InfeasibleAssociationError,
    WeightCollapseError,
)
from geoglmb.experiment import ExperimentConfig, run_trial
from geoglmb.filter import (
    BirthEntry,
    BirthModel,
    TruncationConfig,
    build_log_cost,
    extract_map_trajectories,
    joint_predict_update,
    run_sequence,
)
from geoglmb.gaussian import (
    Gaussian,
    MotionModel,
    SensorModel,
    kalman_predict,
    kalman_update,
    transition_matrices,
)
from geoglmb.lrfs import (
    ABSENT,
    DEAD,
    UNDETECTED,
    DensityArrays,
    Label,
    cardinality_distribution,
    empty_density,
)
from geoglmb.scenario import bundled_records
from test_assignment import reference_gibbs_solutions

EXHAUSTIVE = TruncationConfig(
    method="ranked",
    requested_hypotheses=10**6,
    min_weight=0.0,
    max_hypotheses=10**9,
)


def one_label_prior(mean=(50.0, 0.0), cov=None, step=1):
    lbl = Label(1, 0)
    cov = np.diag([25.0, 1.0]) if cov is None else cov
    return build_density([0.0], [{lbl: Gaussian(np.array(mean), cov)}], step), lbl


def result_weights(glmb):
    return {(h.label_set, h.history): math.exp(h.log_weight) for h in glmb.hypotheses}


class TestBuildLogCost:
    def test_zero_detection_kills_measurement_columns(self):
        glmb, _ = one_label_prior()
        cost = build_log_cost(
            glmb,
            BirthModel(),
            [48.0, 60.0],
            MotionModel(p_survival=0.9),
            SensorModel(sigma_m=5.0, p_detect=0.0),
            delta=0.5,
        )
        assert np.all(np.isinf(cost[:, 2:]))
        assert np.all(cost[:, 2:] < 0)

    def test_certain_survival_kills_death_column(self):
        glmb, _ = one_label_prior()
        cost = build_log_cost(
            glmb,
            BirthModel(),
            [48.0],
            MotionModel(p_survival=1.0),
            SensorModel(sigma_m=5.0, p_detect=0.5),
            delta=0.5,
        )
        assert cost[0, 0] == -math.inf

    def test_selected_entries_sum_to_direct_factor_product(self):
        # direct product oracle: per-label factors from first principles
        glmb, lbl = one_label_prior(mean=(50.0, 1.0))
        birth_lbl = Label(2, 0)
        birth = simple_birth([(birth_lbl, np.array([30.0, 0.0]))], r_birth=0.7)
        motion = MotionModel(sigma_p=0.4, p_survival=0.95)
        sensor = SensorModel(
            sigma_m=6.0, p_detect=0.6, clutter_rate=0.8, clutter_region=(0.0, 100.0)
        )
        z = [51.0, 29.0]
        delta = 0.8
        cost = build_log_cost(glmb, birth, z, motion, sensor, delta)
        assert cost.shape == (2, 4)  # rows: the parent's label, then the birth

        f, q = transition_matrices(motion, delta)
        prior = gaussians(glmb, 0)[lbl]
        pred_mean = f @ prior.mean
        pred_cov = f @ prior.covariance @ f.T + q
        kappa = 0.8 / 100.0
        s_surv = pred_cov[0, 0] + 36.0
        s_birth = 25.0 + 36.0

        # map: surviving label takes z1, birth label takes z2
        expected = math.log(
            0.95 * 0.6 * norm.pdf(z[0], pred_mean[0], math.sqrt(s_surv)) / kappa
        ) + math.log(0.7 * 0.6 * norm.pdf(z[1], 30.0, math.sqrt(s_birth)) / kappa)
        got = cost[0, 2] + cost[1, 3]
        assert abs(got - expected) < 1e-10

        # map: survivor undetected, birth not born
        expected = math.log(0.95 * 0.4) + math.log(0.3)
        assert abs(cost[0, 1] + cost[1, 0] - expected) < 1e-12

    def test_a_density_of_one_hypothesis_only(self):
        args = (BirthModel(), [48.0], MotionModel(), SensorModel(), 1.0)
        for glmb in (make_density(np.random.default_rng(3), n_hypotheses=2), build_density([], [])):
            with pytest.raises(ValueError, match="one hypothesis"):
                build_log_cost(glmb, *args)

    def test_rows_skip_the_labels_the_hypothesis_lacks(self):
        # Label b died in the step that made the density: it is in the
        # label table, but the hypothesis has no row for it.
        a, b = Label(1, 0), Label(1, 1)
        g = Gaussian([40.0, 0.0], np.diag([25.0, 1.0]))
        glmb = build_density([0.0], [{a: g}], prior=empty_density(0), outcomes=[{a: 1, b: DEAD}])
        assert glmb.hypotheses.labels == (a, b)
        args = (BirthModel(), [48.0, 30.0], MotionModel(), SensorModel(), 1.0)
        cost = build_log_cost(glmb, *args)
        assert cost.tobytes() == build_log_cost(build_density([0.0], [{a: g}]), *args).tobytes()

    def test_rows_equal_single_object_code_bit_for_bit(self):
        # The step predicts and scores all densities as arrays; every entry
        # must round exactly as kalman_predict + kalman_update do.
        rng = np.random.default_rng(4)
        for trial in range(200):
            labels = tuple(Label(1, i) for i in range(int(rng.integers(1, 4))))
            densities = {}
            for lbl in labels:
                a = rng.normal(0.0, 3.0, size=(2, 2))
                densities[lbl] = Gaussian(
                    rng.normal([50.0, 0.0], [30.0, 2.0]), a @ a.T + 0.1 * np.eye(2)
                )
            parent = build_density([0.0], [densities])
            birth = simple_birth([(Label(2, 0), np.array([rng.uniform(0, 100), 0.0]))], r_birth=0.6)
            motion = MotionModel(sigma_p=float(rng.uniform(0.1, 2.0)), p_survival=0.9)
            sensor = SensorModel(
                sigma_m=float(rng.uniform(1.0, 12.0)), p_detect=0.7, clutter_rate=0.5,
                clutter_region=(0.0, 100.0),
            )
            zs = [float(z) for z in rng.uniform(0.0, 100.0, size=int(rng.integers(0, 5)))]
            delta = float(rng.uniform(0.05, 6.0))
            cost = build_log_cost(parent, birth, zs, motion, sensor, delta)

            f, q = transition_matrices(motion, delta)
            log_kappa = math.log(0.5 / 100.0)
            rows = [(math.log(0.9), kalman_predict(densities[lbl], f, q)) for lbl in labels]
            rows.append((math.log(0.6), birth.entries[0].density))
            for got, (log_alive, g) in zip(cost.tolist(), rows, strict=True):
                assert got[1] == log_alive + math.log(1.0 - 0.7)
                for z, value in zip(zs, got[2:]):
                    _, ll = kalman_update(g, z, sensor)
                    assert value == log_alive + math.log(0.7) + ll - log_kappa, trial


class TestAssignmentWrappers:
    """The solvers on a one-label cost matrix: columns [dead, undetected,
    z1, z2]."""

    def _cost(self):
        glmb, _ = one_label_prior()
        return build_log_cost(
            glmb, BirthModel(), [48.0, 53.0],
            MotionModel(p_survival=0.95), SensorModel(sigma_m=5.0, p_detect=0.5),
            delta=0.5,
        )

    def test_ranked_returns_all_feasible_maps_sorted(self):
        sols = ranked_solutions(self._cost(), 10)
        assert sorted(sol for sol, _ in sols) == [(0,), (1,), (2,), (3,)]
        assert sols.scores.tolist() == sorted(sols.scores.tolist(), reverse=True)

    def test_gibbs_deterministic_and_distinct(self):
        cost = self._cost()
        a = gibbs_solutions(cost, 300, np.random.default_rng(7))
        b = gibbs_solutions(cost, 300, np.random.default_rng(7))
        assert list(a) == list(b)
        keys = [sol for sol, _ in a]
        assert len(set(keys)) == len(keys)

    def test_gibbs_one_label_no_measurements_finds_both_maps(self):
        glmb, _ = one_label_prior()
        cost = build_log_cost(
            glmb, BirthModel(), [],
            MotionModel(p_survival=0.9), SensorModel(sigma_m=5.0, p_detect=0.5),
            delta=0.5,
        )
        sols = gibbs_solutions(cost, 200, np.random.default_rng(2))
        assert {sol for sol, _ in sols} == {(0,), (1,)}  # dead, undetected


class TestJointPredictUpdate:
    def test_solution_columns_become_outcomes(self):
        # Column 0 is DEAD, 1 UNDETECTED and c >= 2 reading c - 1, whose
        # posterior the child's state row holds.
        glmb, lbl = one_label_prior()
        motion, sensor, zs = MotionModel(p_survival=0.9), SensorModel(), [48.0, 52.0]
        out = joint_predict_update(glmb, BirthModel(), zs, motion, sensor, 0.5, EXHAUSTIVE)
        a = out.hypotheses
        assert a.labels == (lbl,)
        assert sorted(a.outcome[:, 0].tolist()) == [DEAD, UNDETECTED, 1, 2]
        pred = kalman_predict(gaussians(glmb, 0)[lbl], *transition_matrices(motion, 0.5))
        for outcome, row in zip(a.outcome[:, 0].tolist(), a.state[:, 0].tolist()):
            assert (row >= 0) == (outcome != DEAD)
            if outcome >= 1:
                post, _ = kalman_update(pred, zs[outcome - 1], sensor)
                np.testing.assert_allclose(a.means[row], post.mean, rtol=1e-12)

    def test_nothing_exists_nothing_observed(self):
        birth = simple_birth(
            [(Label(1, 0), np.array([50.0, 0.0])), (Label(1, 1), np.array([20.0, 0.0]))],
            r_birth=0.0,
        )
        out = joint_predict_update(
            empty_density(0), birth, [], MotionModel(), SensorModel(), 1.0, EXHAUSTIVE
        )
        assert len(out.hypotheses) == 1
        assert out.hypotheses[0].label_set == ()
        assert abs(math.exp(out.hypotheses[0].log_weight) - 1.0) < 1e-12

    def test_certain_single_object_reduces_to_kalman(self):
        glmb, lbl = one_label_prior(mean=(50.0, 0.5))
        motion = MotionModel(sigma_p=0.3, p_survival=1.0)
        sensor = SensorModel(
            sigma_m=5.0, p_detect=1.0, clutter_rate=1e-12, clutter_region=(0.0, 120.0)
        )
        z = 53.0
        out = joint_predict_update(glmb, BirthModel(), [z], motion, sensor, 0.7, EXHAUSTIVE)
        assert len(out.hypotheses) == 1
        assert abs(math.exp(out.hypotheses[0].log_weight) - 1.0) < 1e-9

        f, q = transition_matrices(motion, 0.7)
        prior = gaussians(glmb, 0)[lbl]
        expected, _ = kalman_update(kalman_predict(prior, f, q), z, sensor)
        got = gaussians(out, 0)[lbl]
        np.testing.assert_allclose(got.mean, expected.mean, atol=1e-12)
        np.testing.assert_allclose(got.covariance, expected.covariance, atol=1e-12)

    def test_single_step_weights_match_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            n_birth = int(rng.integers(1, 3))
            entries = [
                (Label(1, i), np.array([rng.uniform(10, 90), rng.normal(0, 1)]))
                for i in range(n_birth)
            ]
            birth = simple_birth(entries, r_birth=float(rng.uniform(0.3, 0.95)))
            p_d = float(rng.uniform(0.2, 0.9))
            p_s = float(rng.uniform(0.7, 1.0))
            clutter = float(rng.uniform(0.1, 2.0))
            zs = [float(rng.uniform(0, 100)) for _ in range(int(rng.integers(0, 4)))]
            sensor = SensorModel(
                sigma_m=6.0, p_detect=p_d, clutter_rate=clutter,
                clutter_region=(0.0, 100.0),
            )
            motion = MotionModel(sigma_p=0.4, p_survival=p_s)

            out = joint_predict_update(
                empty_density(0), birth, zs, motion, sensor, 1.0, EXHAUSTIVE
            )
            got = result_weights(out)
            expected = enumeration_oracle(
                birth.entries, [zs], [1.0], p_s, p_d, clutter, (0.0, 100.0), 0.4, 6.0
            )
            assert set(got) == set(expected)
            for key, w in expected.items():
                assert got[key] == pytest.approx(w, rel=1e-9, abs=1e-300)

    def test_three_step_weights_match_enumeration_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            entries = [
                (Label(1, 0), np.array([40.0, 0.0])),
                (Label(1, 1), np.array([70.0, 0.0])),
            ]
            birth = simple_birth(entries, r_birth=0.85)
            sensor = SensorModel(
                sigma_m=7.0, p_detect=0.55, clutter_rate=0.7, clutter_region=(0.0, 110.0)
            )
            motion = MotionModel(sigma_p=0.5, p_survival=0.92)
            deltas = [1.0, 0.6, 1.4]
            sets = [
                [float(rng.uniform(10, 100)) for _ in range(int(rng.integers(0, 4)))]
                for _ in deltas
            ]
            history = run_sequence(deltas, sets, birth, motion, sensor, EXHAUSTIVE)
            got = result_weights(history[-1])
            expected = enumeration_oracle(
                birth.entries, sets, deltas, 0.92, 0.55, 0.7, (0.0, 110.0), 0.5, 7.0
            )
            assert set(got) == set(expected)
            for key, w in expected.items():
                assert got[key] == pytest.approx(w, rel=1e-9, abs=1e-250)

    def test_gibbs_and_ranked_agree_when_exhaustive(self):
        glmb, _ = one_label_prior()
        birth = simple_birth([(Label(2, 0), np.array([20.0, 0.0]))], r_birth=0.6)
        sensor = SensorModel(
            sigma_m=5.0, p_detect=0.5, clutter_rate=0.5, clutter_region=(0.0, 100.0)
        )
        motion = MotionModel(p_survival=0.9)
        zs = [22.0, 48.0]
        ranked = joint_predict_update(glmb, birth, zs, motion, sensor, 0.5, EXHAUSTIVE)
        gibbs = joint_predict_update(
            glmb, birth, zs, motion, sensor, 0.5,
            TruncationConfig(
                method="gibbs", gibbs_iterations=3000, seed=5,
                requested_hypotheses=10**6, min_weight=0.0, max_hypotheses=10**9,
            ),
        )
        wr, wg = result_weights(ranked), result_weights(gibbs)
        # sampling may skip negligible maps, but must find everything that
        # matters and agree on relative weights wherever both routes kept a map
        assert set(wg) <= set(wr)
        assert sum(wr[k] for k in wg) > 0.999
        anchor = max(wg, key=wg.get)
        for key in wg:
            assert wg[key] / wg[anchor] == pytest.approx(wr[key] / wr[anchor], rel=1e-9)

    def test_monotone_ranked_truncation(self):
        glmb, _ = one_label_prior()
        birth = simple_birth([(Label(2, 0), np.array([45.0, 0.0]))], r_birth=0.5)
        sensor = SensorModel(
            sigma_m=8.0, p_detect=0.5, clutter_rate=1.0, clutter_region=(0.0, 100.0)
        )
        motion = MotionModel(p_survival=0.9)
        zs = [40.0, 55.0, 70.0]
        oracle = enumeration_oracle(
            birth.entries, [zs], [0.5], 0.9, 0.5, 1.0, (0.0, 100.0), 0.3, 8.0
        )
        # note: the oracle births at step 1 from an empty prior; rebuild with
        # the same existing-label prior by reusing identities from the filter
        prev_keys: set = set()
        prev_mass = -1.0
        for k in (1, 2, 4, 8, 32):
            trunc = TruncationConfig(
                method="ranked", requested_hypotheses=k,
                min_weight=0.0, max_hypotheses=10**9,
            )
            out = joint_predict_update(glmb, birth, zs, motion, sensor, 0.5, trunc)
            keys = set(result_weights(out))
            assert prev_keys <= keys
            # retained pre-normalization mass, via an independent scoring of
            # each returned identity
            mass = sum(
                _identity_mass(key, glmb, birth, zs, motion, sensor, 0.5)
                for key in keys
            )
            assert mass >= prev_mass - 1e-15
            prev_keys, prev_mass = keys, mass

    def test_empty_prior_is_error(self):
        with pytest.raises(WeightCollapseError):
            joint_predict_update(
                build_density([], [], step=0), BirthModel(), [], MotionModel(),
                SensorModel(), 1.0, EXHAUSTIVE,
            )

    def test_infeasible_configuration_is_error(self):
        # certain survival and certain detection, but nothing to detect
        glmb, _ = one_label_prior()
        with pytest.raises(InfeasibleAssociationError):
            joint_predict_update(
                glmb, BirthModel(), [],
                MotionModel(p_survival=1.0), SensorModel(p_detect=1.0),
                0.5, EXHAUSTIVE,
            )

    def test_birth_step_mismatch_is_error(self):
        birth = simple_birth([(Label(5, 0), np.array([50.0, 0.0]))])
        with pytest.raises(ValueError):
            joint_predict_update(
                empty_density(0), birth, [], MotionModel(), SensorModel(), 1.0, EXHAUSTIVE
            )

    def test_birth_of_a_held_label_is_error(self):
        # The label carries the next step, but the density already holds it.
        glmb, lbl = one_label_prior(step=0)
        birth = simple_birth([(lbl, np.array([50.0, 0.0]))])
        for method in ("ranked", "gibbs"):
            with pytest.raises(ValueError, match=f"birth label {lbl} is already"):
                joint_predict_update(glmb, birth, [48.0], MotionModel(), SensorModel(), 1.0,
                                     TruncationConfig(method=method))

    def test_birth_sorting_before_a_held_label_is_error(self):
        # Label (1, 1) is held, so a birth (1, 0) would not follow the
        # density's labels in the step's label table.
        held = Label(1, 1)
        glmb = build_density([0.0], [{held: make_gaussian(np.random.default_rng(0))}], step=0)
        birth = simple_birth([(Label(1, 0), np.array([50.0, 0.0]))])
        args = (birth, [48.0], MotionModel(), SensorModel(), 1.0)
        with pytest.raises(ValueError, match="birth label 1:0 sorts before label 1:1"):
            joint_predict_update(glmb, *args, EXHAUSTIVE)
        with pytest.raises(ValueError, match="birth label 1:0 sorts before label 1:1"):
            build_log_cost(glmb, *args)

    def test_build_log_cost_rejects_a_held_birth_label(self):
        glmb, lbl = one_label_prior()
        birth = simple_birth([(lbl, np.array([50.0, 0.0]))])
        with pytest.raises(ValueError, match=f"birth label {lbl} is already"):
            build_log_cost(glmb, birth, [48.0], MotionModel(), SensorModel(), 1.0)

    def test_births_follow_the_prior_labels(self):
        prior = make_density(np.random.default_rng(3), n_hypotheses=6)
        assert prior.hypotheses.labels  # a non-empty prior
        born = [Label(2, 1), Label(2, 0)]
        birth = simple_birth([(lbl, np.array([10.0 * i, 0.0])) for i, lbl in enumerate(born)])
        out = joint_predict_update(prior, birth, [1.0, 20.0], MotionModel(), SensorModel(),
                                   0.5, EXHAUSTIVE)
        assert out.hypotheses.labels == prior.hypotheses.labels + (Label(2, 0), Label(2, 1))

    def test_birthless_step_rows_are_the_prior_state(self):
        prior = make_density(np.random.default_rng(3), n_hypotheses=6).hypotheses
        costs = geoglmb.filter._StepCosts(prior, BirthModel(), [1.0], MotionModel(),
                                          SensorModel(), 0.5)
        assert costs.rows is prior.state
        assert costs.labels == prior.labels

    def test_non_finite_measurement_is_error(self):
        birth = simple_birth([(Label(1, 0), np.array([50.0, 0.0]))])
        for bad in ([math.nan], [48.0, math.inf], [-math.inf]):
            with pytest.raises(ValueError, match="finite"):
                joint_predict_update(
                    empty_density(0), birth, bad, MotionModel(), SensorModel(), 1.0,
                    EXHAUSTIVE,
                )

    @pytest.mark.parametrize("switch", [10**9, 0], ids=["floats", "arrays"])
    @pytest.mark.parametrize("p00", [-500.0, math.nan], ids=["negative", "nan"])
    def test_broken_prior_variance_is_divergence(self, switch, p00):
        # A prior variance below -r (rounding can leave one there) or NaN
        # leaves no innovation variance to take the log of, on either path
        # of the cost table.
        rng = np.random.default_rng(3)
        broken = Gaussian(np.array([10.0, 0.0]), np.array([[p00, 0.0], [0.0, 1.0]]))
        prior = build_density([math.log(0.5)] * 2,
                              [{Label(1, 0): make_gaussian(rng)}, {Label(1, 0): broken}])
        with patch.object(geoglmb.filter, "_ROWS_AS_ARRAYS", switch), \
                pytest.raises(FilterDivergenceError, match=r"innovation covariance \S+ <= 0"):
            geoglmb.filter._StepCosts(prior.hypotheses, BirthModel(), [1.0], MotionModel(),
                                      SensorModel(), 0.5)

    def test_child_densities_equal_single_object_code_bit_for_bit(self):
        rng = np.random.default_rng(9)
        la, lb = Label(1, 0), Label(1, 1)
        motion = MotionModel(sigma_p=0.7, p_survival=0.9)
        sensor = SensorModel(sigma_m=8.0, p_detect=0.6, clutter_rate=0.5, clutter_region=(0.0, 100.0))
        for _ in range(20):
            shared = Gaussian(rng.normal([50.0, 0.0], [20.0, 1.0]), np.diag([30.0, 0.5]))
            other = Gaussian(rng.normal([40.0, 0.0], [20.0, 1.0]), np.diag([12.0, 2.0]))
            parents = build_density([math.log(0.6), math.log(0.4)],
                                    [{la: shared, lb: other}, {la: shared}])
            zs = [float(z) for z in rng.uniform(20.0, 70.0, size=2)]
            delta = float(rng.uniform(0.1, 3.0))
            out = joint_predict_update(
                parents, BirthModel(), zs, motion, sensor, delta, EXHAUSTIVE
            )
            f, q = transition_matrices(motion, delta)
            for i, h in enumerate(out.hypotheses):
                for lbl, outcome in h.history[-1]:
                    if outcome == DEAD:
                        continue
                    prior = shared if lbl == la else other
                    want = kalman_predict(prior, f, q)
                    if outcome != UNDETECTED:
                        want, _ = kalman_update(want, zs[outcome - 1], sensor)
                    got = gaussians(out, i)[lbl]
                    assert got.mean.tobytes() == want.mean.tobytes()
                    assert got.covariance.tobytes() == want.covariance.tobytes()

    def test_output_invariants_on_random_scenarios(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            entries = [
                (Label(1, i), np.array([rng.uniform(10, 90), 0.0]))
                for i in range(int(rng.integers(1, 3)))
            ]
            birth = simple_birth(entries, r_birth=float(rng.uniform(0.4, 0.99)))
            sensor = SensorModel(
                sigma_m=float(rng.uniform(2, 12)),
                p_detect=float(rng.uniform(0.2, 0.95)),
                clutter_rate=float(rng.uniform(0.0, 1.5)),
                clutter_region=(0.0, 100.0),
            )
            motion = MotionModel(
                sigma_p=float(rng.uniform(0.05, 1.0)),
                p_survival=float(rng.uniform(0.8, 1.0)),
            )
            deltas = [float(rng.uniform(0.2, 2.0)) for _ in range(3)]
            sets = [
                [float(rng.uniform(0, 100)) for _ in range(int(rng.integers(0, 3)))]
                for _ in deltas
            ]
            trunc = TruncationConfig(
                method="ranked", requested_hypotheses=50,
                min_weight=1e-10, max_hypotheses=100,
            )
            for density in run_sequence(deltas, sets, birth, motion, sensor, trunc):
                w = np.exp(density.hypotheses.log_weights)
                assert abs(w.sum() - 1.0) < 1e-9
                rho = cardinality_distribution(density)
                assert abs(rho.sum() - 1.0) < 1e-9
                identities = {(h.label_set, h.history) for h in density.hypotheses}
                assert len(identities) == len(density.hypotheses)
                for i in range(len(density.hypotheses)):
                    for g in gaussians(density, i).values():
                        eig = np.linalg.eigvalsh(g.covariance)
                        assert np.all(eig >= -1e-9)

    def test_deterministic_for_fixed_seed(self):
        entries = [(Label(1, 0), np.array([40.0, 0.0])), (Label(1, 1), np.array([60.0, 0.0]))]
        birth = simple_birth(entries, r_birth=0.9)
        sensor = SensorModel(sigma_m=6.0, p_detect=0.6, clutter_rate=0.4, clutter_region=(0.0, 100.0))
        motion = MotionModel(sigma_p=0.3, p_survival=0.95)
        deltas = [1.0, 0.5, 0.8]
        sets = [[42.0, 61.0], [58.5], [39.0, 44.0, 80.0]]
        trunc = TruncationConfig(method="gibbs", gibbs_iterations=100, seed=17)
        a = run_sequence(deltas, sets, birth, motion, sensor, trunc)
        b = run_sequence(deltas, sets, birth, motion, sensor, trunc)
        for da, db in zip(a, b):
            assert da.hypotheses.log_weights.tolist() == db.hypotheses.log_weights.tolist()
            for ha, hb in zip(da.hypotheses, db.hypotheses):
                assert ha.label_set == hb.label_set and ha.history == hb.history

    def test_gibbs_run_equals_per_draw_reference_sampler(self, monkeypatch):
        # The library sampler against the per-draw reference sampler of
        # test_assignment, end to end: every hypothesis of every step.
        entries = [
            (Label(1, 0), np.array([30.0, 0.0])),
            (Label(1, 1), np.array([50.0, 0.0])),
            (Label(1, 2), np.array([70.0, 0.0])),
        ]
        birth = simple_birth(entries, r_birth=0.85)
        sensor = SensorModel(sigma_m=5.0, p_detect=0.7, clutter_rate=0.8, clutter_region=(0.0, 100.0))
        motion = MotionModel(sigma_p=0.4, p_survival=0.95)
        deltas = [1.0, 0.6, 0.9, 1.3, 0.7, 1.1]
        sets = [
            [31.0, 52.0, 69.0], [49.0, 71.5, 12.0], [29.0, 68.0],
            [33.0, 51.0, 70.0, 88.0], [47.5], [30.5, 53.0, 72.0],
        ]
        trunc = TruncationConfig(
            method="gibbs", gibbs_iterations=150, requested_hypotheses=40,
            max_hypotheses=120, seed=23,
        )
        got = run_sequence(deltas, sets, birth, motion, sensor, trunc)

        calls = []

        def reference(cost, iterations, rng):
            calls.append(cost.shape)
            return reference_gibbs_solutions(cost, iterations, rng)

        monkeypatch.setattr(geoglmb.filter, "gibbs_solutions", reference)
        want = run_sequence(deltas, sets, birth, motion, sensor, trunc)

        assert len(calls) > len(deltas) and max(calls)[0] == 3
        assert max(len(d.hypotheses) for d in want) > 10
        for dg, dw in zip(got, want, strict=True):
            assert len(dg.hypotheses) == len(dw.hypotheses)
            for hg, hw in zip(dg.hypotheses, dw.hypotheses):
                assert hg.label_set == hw.label_set
                assert hg.history == hw.history
                assert hg.log_weight.hex() == hw.log_weight.hex()


_FINITE = st.floats(-1e3, 1e3)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestBoundaryProperties:
    @pytest.mark.parametrize("field, bad", [
        ("r_birth", True), ("r_birth", "0.5"), ("r_birth", None), ("r_birth", 1.5),
        ("birth_step", 1.5), ("birth_step", True), ("birth_step", "1"),
        ("index", 2.0), ("index", False), ("index", -2),
    ])
    def test_bool_and_non_whole_birth_values_rejected(self, field, bad):
        # a bool would pass as 0 or 1, a fraction would print as a label
        # no estimates.csv reader accepts, and a string would fail with
        # TypeError; each is a ValueError naming the field
        values = {"birth_step": 1, "index": 0, "r_birth": 0.5, field: bad}
        with pytest.raises(ValueError, match=re.escape(f"{field}={bad!r}")):
            BirthEntry(Label(values["birth_step"], values["index"]), values["r_birth"],
                       Gaussian(np.zeros(2), np.eye(2)))
        assert Label(np.int64(2), np.int64(1)) == Label(2, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_non_finite_measurement_is_rejected(self, data):
        zs = data.draw(st.lists(_FINITE, max_size=4))
        zs.insert(data.draw(st.integers(0, len(zs))), data.draw(_NON_FINITE))
        birth = simple_birth([(Label(1, 0), np.array([50.0, 0.0]))])
        with pytest.raises(ValueError, match="finite"):
            joint_predict_update(
                empty_density(0), birth, zs, MotionModel(), SensorModel(), 1.0, EXHAUSTIVE
            )
        # at a later step of a whole run as well
        step = data.draw(st.integers(0, 2))
        sets = [[48.0], [51.0], [50.0]]
        sets[step] = zs
        with pytest.raises(ValueError, match="finite"):
            run_sequence([1.0, 0.5, 0.8], sets, birth, MotionModel(), SensorModel(), EXHAUSTIVE)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.floats(max_value=0.0, allow_nan=False), _NON_FINITE),
        st.integers(0, 2),
    )
    def test_any_non_positive_or_non_finite_interval_is_rejected(self, delta, step):
        with pytest.raises(ValueError, match="interval"):
            transition_matrices(MotionModel(), delta)
        deltas = [1.0, 0.5, 0.8]
        deltas[step] = delta
        birth = simple_birth([(Label(1, 0), np.array([50.0, 0.0]))])
        with pytest.raises(ValueError, match="interval"):
            run_sequence(deltas, [[48.0], [51.0], [50.0]], birth, MotionModel(),
                         SensorModel(), EXHAUSTIVE)

    @pytest.mark.parametrize("name, value", [
        ("requested_hypotheses", 2.5),
        ("max_hypotheses", 1.5),
        ("gibbs_iterations", 2.5),
        ("seed", -1),
        ("requested_hypotheses", True),
    ])
    def test_truncation_rejects_non_integer_counts_and_negative_seeds(self, name, value):
        # each fails at construction, not deep in the first step
        with pytest.raises(ValueError, match=name):
            TruncationConfig(**{name: value})


_DENSITY_FIELDS = ("log_weights", "state", "outcome", "parent", "means", "covs")


def _outcome(step):
    """``step()``, or the error it raises as its type and message."""
    try:
        return step()
    except (InfeasibleAssociationError, WeightCollapseError) as exc:
        return type(exc), str(exc)


def _under_switch(switch, step):
    """``_outcome(step)`` with the float/array switch of the filter at
    ``switch``."""
    with patch.object(geoglmb.filter, "_ROWS_AS_ARRAYS", switch):
        return _outcome(step)


def assert_same_densities(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.step == b.step and a.hypotheses.labels == b.hypotheses.labels
        for name in _DENSITY_FIELDS:
            x, y = getattr(a.hypotheses, name), getattr(b.hypotheses, name)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name


class TestFloatAndArrayStepsAgree:
    """A step whose phases run on Python floats (switch raised above every
    row count) or as numpy arrays (switch at 0) gives the bits of the
    default, which picks per phase."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_runs_and_steps_equal_bit_for_bit(self, data):
        draw = data.draw
        n_births = draw(st.integers(1, 3))
        birth = BirthModel(tuple(
            BirthEntry(
                Label(1, i),
                draw(st.sampled_from([0.3, 0.9, 1.0])),  # 1.0: a -inf death cell
                Gaussian([draw(st.floats(0.0, 100.0)), draw(st.floats(-2.0, 2.0))],
                         np.diag([draw(st.floats(1.0, 400.0)), 1.0])),
            )
            for i in range(n_births)
        ))
        motion = MotionModel(sigma_p=draw(st.floats(0.0, 1.0)),
                             p_survival=draw(st.sampled_from([1.0, 0.99, 0.7])))
        sensor = SensorModel(sigma_m=draw(st.floats(1.0, 20.0)),
                             p_detect=draw(st.sampled_from([0.5, 0.95, 1.0])),
                             clutter_rate=draw(st.sampled_from([0.0, 1e-6, 3.0])))
        trunc = TruncationConfig(
            method=draw(st.sampled_from(["ranked", "gibbs"])),
            requested_hypotheses=draw(st.sampled_from([2, 8, 64])),
            gibbs_iterations=20,
            min_weight=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
            max_hypotheses=draw(st.sampled_from([3, 40])),
        )
        n_steps = draw(st.integers(1, 4))
        deltas = draw(st.lists(st.floats(0.1, 2.0), min_size=n_steps, max_size=n_steps))
        readings = st.lists(st.floats(0.0, 120.0), max_size=3)
        sets = draw(st.lists(readings, min_size=n_steps, max_size=n_steps))

        def run():
            return run_sequence(deltas, sets, birth, motion, sensor, trunc)

        # one step from a prior of several parents sharing no rows, with births
        prior = make_density(np.random.default_rng(draw(st.integers(0, 2**16))),
                             n_hypotheses=draw(st.integers(1, 8)))
        later_birth = BirthModel(tuple(
            BirthEntry(Label(2, e.label.index), e.r_birth, e.density) for e in birth.entries
        ))

        def step():
            return [joint_predict_update(prior, later_birth, sets[0], motion, sensor,
                                         deltas[0], trunc)]

        for job in (run, step):
            want = _under_switch(geoglmb.filter._ROWS_AS_ARRAYS, job)
            for switch in (0, 10**9):
                assert_same_densities(_under_switch(switch, job), want)

    @pytest.mark.parametrize("cap", [1, 5, 6, 7, 23, 10**6])
    def test_cap_inside_runs_of_tied_weights(self, cap):
        # Six identical parents: every child's weight is tied with a child of
        # each other parent, so most caps cut a run of ties.  The kept
        # children and their order are the loop's stable sort.
        rng = np.random.default_rng(3)
        labels = {Label(1, i): make_gaussian(rng) for i in range(2)}
        prior = build_density([math.log(1 / 6)] * 6, [labels] * 6)
        trunc = TruncationConfig(method="ranked", requested_hypotheses=8, min_weight=0.0,
                                 max_hypotheses=cap)
        motion, sensor = MotionModel(p_survival=0.9), SensorModel(clutter_rate=1.0)

        def step():
            return [joint_predict_update(prior, BirthModel(), [1.0, -4.0], motion, sensor, 0.5,
                                         trunc)]

        want = _under_switch(10**9, step)
        assert len(want[0].hypotheses) == min(cap, 48)
        assert_same_densities(_under_switch(0, step), want)


def _children_both_ways(costs, parent, solutions):
    """``costs.children`` by the loop (switch above every child count) and
    as array gathers (switch at 0), which must agree in bytes, dtype and
    shape; returns the loop's arrays."""
    parent = np.array(parent, dtype=np.intp)
    solutions = np.array(solutions, dtype=np.intp).reshape(len(parent), len(costs.labels))
    loop, arrays = (_under_switch(s, lambda: costs.children(parent, solutions)) for s in (10**9, 0))
    for name, x, y in zip(("outcome", "state", "means", "covs"), loop, arrays):
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    return loop


class TestChildrenPathsAgree:
    """``_StepCosts.children`` numbers state rows in order of first use and
    writes no outcome for a label a parent lacks, on both of its paths."""

    MOTION = MotionModel(sigma_p=0.5, p_survival=0.9)

    def test_hand_built_step(self):
        a, b = Label(1, 0), Label(1, 1)
        g = Gaussian([40.0, 0.5], np.diag([30.0, 2.0]))
        prior = build_density([math.log(0.6), math.log(0.4)], [{a: g, b: g}, {a: g}])
        birth = simple_birth([(Label(2, 0), np.array([20.0, 0.0]))])
        costs = geoglmb.filter._StepCosts(prior.hypotheses, birth, [10.0, 30.0], self.MOTION,
                                          SensorModel(sigma_m=5.0), 1.0)
        # table rows: a of parent 0, b of parent 0, a of parent 1, the birth;
        # (row, column) keys in first use 11, 14, 1, 6, 13, 7, unlike sorted
        outcome, state, means, covs = _children_both_ways(
            costs, [1, 0, 1, 0], [[3, 0, 2], [1, 2, 0], [3, 1, 1], [0, 3, 2]]
        )
        assert outcome.tolist() == [[2, ABSENT, 1], [0, 1, DEAD], [2, ABSENT, 0], [DEAD, 2, 1]]
        assert state.tolist() == [[0, -1, 1], [2, 3, -1], [0, -1, 4], [-1, 5, 1]]
        assert means.shape == (6, 2) and covs.shape == (6, 2, 2)
        assert means[4].tolist() == costs._means[3].tolist()  # undetected birth: predicted

    @pytest.mark.parametrize("zs", [[], [5.0]])
    def test_steps_without_labels_or_readings(self, zs):
        costs = geoglmb.filter._StepCosts(empty_density(1).hypotheses, BirthModel(), zs, self.MOTION,
                                          SensorModel(sigma_m=5.0), 1.0)
        outcome, state, means, _ = _children_both_ways(costs, [0, 0, 0], np.zeros((3, 0)))
        assert outcome.shape == state.shape == (3, 0) and means.shape == (0, 2)
        prior = make_density(np.random.default_rng(3), n_hypotheses=4).hypotheses
        costs = geoglmb.filter._StepCosts(prior, BirthModel(), zs, self.MOTION,
                                          SensorModel(sigma_m=5.0), 1.0)
        n_labels = len(costs.labels)
        _children_both_ways(costs, [3, 1, 3, 0, 2], [[1, 0, 1][:n_labels]] * 5)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_steps(self, data):
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        prior = make_density(rng, n_hypotheses=draw(st.integers(1, 6)),
                             max_labels=draw(st.integers(0, 3))).hypotheses
        birth = simple_birth([(Label(2, i), np.array([float(rng.uniform(0, 100)), 0.0]))
                              for i in range(draw(st.integers(0, 2)))])
        zs = draw(st.lists(st.floats(0.0, 120.0), max_size=3))
        sensor = SensorModel(sigma_m=draw(st.floats(1.0, 20.0)))
        costs = geoglmb.filter._StepCosts(prior, birth, zs, self.MOTION, sensor,
                                          draw(st.floats(0.1, 2.0)))
        n, n_labels = draw(st.integers(1, 40)), len(costs.labels)
        parent = draw(st.lists(st.integers(0, len(prior.log_weights) - 1), min_size=n, max_size=n))
        column = st.integers(0, 1 + len(zs))
        solutions = draw(st.lists(st.lists(column, min_size=n_labels, max_size=n_labels),
                                  min_size=n, max_size=n))
        _children_both_ways(costs, parent, solutions)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_keys(self, data):
        # Hypotheses that share state rows, labels that every hypothesis
        # lacks, and children whose kept cells repeat keys, are all one key
        # shared by every parent, or are none.
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        n_hyps, n_labels, n_rows = (draw(st.integers(1, n)) for n in (6, 3, 4))
        state = rng.integers(-1, n_rows, size=(n_hyps, n_labels))
        state[:, draw(st.lists(st.integers(0, n_labels - 1), max_size=2))] = -1
        kind = draw(st.sampled_from(["repeats", "one key", "none kept"]))
        if kind == "one key":  # label 0 at row 0 in every hypothesis, the rest lacked
            state[:, 0], state[:, 1:] = 0, -1
        rows = [make_gaussian(rng) for _ in range(n_rows)]
        prior = DensityArrays(np.full(n_hyps, -math.log(n_hyps)),
                              tuple(Label(1, i) for i in range(n_labels)), state,
                              np.array([g.mean for g in rows]),
                              np.array([g.covariance for g in rows]))
        birth = simple_birth([(Label(2, i), np.array([float(rng.uniform(0, 100)), 0.0]))
                              for i in range(draw(st.integers(0, 2)))])
        zs = draw(st.lists(st.floats(0.0, 120.0), max_size=3))
        costs = geoglmb.filter._StepCosts(prior, birth, zs, self.MOTION,
                                          SensorModel(sigma_m=5.0), 1.0)
        n, width = draw(st.integers(0, 40)), 2 + len(zs)
        parent = draw(st.lists(st.integers(0, n_hyps - 1), min_size=n, max_size=n))
        # few columns, so that keys repeat
        solutions = rng.integers(0, min(width, 3), size=(n, len(costs.labels)))
        if kind != "repeats":  # every birth dies
            solutions[:] = 0
        if kind == "one key":
            solutions[:, 0] = draw(st.integers(1, width - 1))
        outcome, state, means, _ = _children_both_ways(costs, parent, solutions)
        if kind == "none kept":
            assert (state == -1).all() and means.shape == (0, 2)
        if kind == "one key" and n:
            assert (state[:, 0] == 0).all() and (state[:, 1:] == -1).all() and len(means) == 1


def _array_path_calls(config, seed):
    """Kept child counts of the steps of one onsoy trial that reached the
    array path of ``_StepCosts.children``, and the trial's readout."""
    calls = []
    gather = geoglmb.filter._StepCosts._children_as_arrays

    def spy(costs, parent, solutions):
        calls.append(len(parent))
        return gather(costs, parent, solutions)

    with patch.object(geoglmb.filter._StepCosts, "_children_as_arrays", spy):
        _, series = run_trial(bundled_records("onsoy"), config, seed, "onsoy")
    return calls, series


def test_children_reach_the_array_path_from_the_kept_child_count():
    config = ExperimentConfig(site="onsoy", mode="joint", trunc_method="ranked")
    calls, series = _array_path_calls(config, 0)
    wide = [n for n in series.hypothesis_counts if n >= geoglmb.filter._ROWS_AS_ARRAYS]
    assert calls == wide and len(wide) >= len(series.hypothesis_counts) - 2
    calls, _ = _array_path_calls(ExperimentConfig(site="onsoy", mode="independent"), 0)
    assert calls == []


def _stack_gathers(config, seed):
    """Per step of one trial: the entry count and narrowing of its
    ``ranked_batch`` stack (empty: none), the rows of each column gather
    made on a ``RankedBatch``, and the children the step kept."""
    steps, stack, gathers = [], [], []
    real_step, real_batch, real_columns = (
        joint_predict_update, geoglmb.filter.ranked_batch, RankedBatch.columns)

    def batch(costs, k):
        ranked = real_batch(costs, k)
        stack.append((len(ranked.scores), ranked.kept is not None))
        return ranked

    def columns(ranked, index=None):
        cols = real_columns(ranked, index)
        gathers.append(len(cols))
        return cols

    def step(*args):
        stack.clear()
        gathers.clear()
        density = real_step(*args)
        steps.append((list(stack), list(gathers), len(density.hypotheses)))
        return density

    with patch.object(geoglmb.filter, "joint_predict_update", step), \
            patch.object(geoglmb.filter, "ranked_batch", batch), \
            patch.object(RankedBatch, "columns", columns):
        run_trial(bundled_records(config.site), config, seed, config.site)
    return steps


@pytest.mark.parametrize("config, seed, bounded", [
    (ExperimentConfig(site="onsoy", mode="joint", trunc_method="ranked"), 0, False),
    # the golden taipei-joint-ranked-clutter9 config, its first trial: every
    # stack is wide enough for the column bound
    (ExperimentConfig(site="taipei", mode="joint", trunc_method="ranked", clutter_rate=9.0), 3,
     True),
], ids=["onsoy-joint", "taipei-clutter9"])
def test_a_stacked_step_gathers_columns_once_for_its_kept_children(config, seed, bounded):
    # A stacked step enumerates up to k children per parent (12,800 at 200
    # parents) and gathers columns once, for the children it keeps.
    steps = _stack_gathers(config, seed)
    stacked = [(entries, narrowed, gathers, kept)
               for stack, gathers, kept in steps for entries, narrowed in stack]
    assert len(stacked) >= len(steps) - 2
    for entries, narrowed, gathers, kept in stacked:
        assert gathers == [kept] and kept <= entries and narrowed == bounded
    assert max(entries - kept for entries, _, _, kept in stacked) >= 12_000


def test_a_narrowed_stack_is_as_wide_as_its_widest_problem():
    # The golden taipei-joint-ranked-clutter9 config, both trials: a narrowed
    # stack is enumerated over the union of its problems' kept columns, and
    # on this traffic no union is wider than the widest problem's kept set.
    keeps, widths = [], []  # widths: (enumerated, widest problem's, stack's)
    real_kept, real_kernel = geoglmb.assignment._kept_columns, geoglmb.assignment._ranked_kernel

    def kept_columns(costs, k):
        keeps.append(real_kept(costs, k))
        return keeps[-1]

    def kernel(costs, k):
        if keeps:  # narrowed: the chunks' keeps of this stack
            widths.append((costs.shape[2], max(int(keep.sum(axis=1).max()) for keep in keeps),
                           keeps[0].shape[1]))
            keeps.clear()
        return real_kernel(costs, k)

    config = ExperimentConfig(site="taipei", mode="joint", trunc_method="ranked",
                              clutter_rate=9.0)
    with patch.object(geoglmb.assignment, "_kept_columns", kept_columns), \
            patch.object(geoglmb.assignment, "_ranked_kernel", kernel):
        for seed in (3, 4):
            run_trial(bundled_records(config.site), config, seed, config.site)
    assert len(widths) >= 40
    assert all(enumerated == widest for enumerated, widest, _ in widths)
    assert any(enumerated < full for enumerated, _, full in widths)


@pytest.mark.parametrize("survival", [{"p_survival": 1.0}, {}], ids=["p_survival-1", "default"])
def test_every_ranked_step_of_two_or_more_parents_is_one_stack(survival):
    # Independent mode steps one or two parents of one label at a time.
    config = ExperimentConfig(site="onsoy", mode="independent", trunc_method="ranked",
                              **survival)
    parents = []
    real_step = joint_predict_update

    def step(*args):
        parents.append(len(args[0].hypotheses))
        return real_step(*args)

    with patch.object(geoglmb.filter, "joint_predict_update", step), \
            patch.object(geoglmb.filter, "ranked_batch",
                         wraps=geoglmb.filter.ranked_batch) as stacks, \
            patch.object(geoglmb.filter, "ranked_solutions",
                         wraps=geoglmb.filter.ranked_solutions) as alone:
        run_trial(bundled_records(config.site), config, 0, config.site)
    assert parents.count(1) > 0 and len(parents) - parents.count(1) > 0
    assert stacks.call_count == len(parents) - parents.count(1)
    assert alone.call_count == parents.count(1)


def test_gibbs_work_counts():
    # The Gibbs work of the benchmark's taipei joint Gibbs trials: sampler
    # calls and distinct solutions per row count.  A path that loses or adds
    # a chain state changes them.
    config = ExperimentConfig(site="taipei", mode="joint", trunc_method="gibbs")
    calls, distinct = {}, {}
    real = geoglmb.filter.gibbs_solutions

    def sampler(cost, iterations, rng):
        sols = real(cost, iterations, rng)
        n_rows = cost.shape[0]
        calls[n_rows] = calls.get(n_rows, 0) + 1
        distinct[n_rows] = distinct.get(n_rows, 0) + len(sols)
        return sols

    with patch.object(geoglmb.filter, "gibbs_solutions", sampler):
        for seed in (0, 1, 3, 7):
            run_trial(bundled_records(config.site), config, seed, config.site)
    assert calls == {0: 28, 1: 318, 2: 506, 3: 100}
    assert distinct == {0: 28, 1: 887, 2: 1999, 3: 404}


@contextlib.contextmanager
def _per_parent():
    """Every ranked parent solved by its own ``ranked_solutions`` call: the
    block must make no ``ranked_batch`` stack."""
    with patch.object(geoglmb.filter, "batch_enumerable", lambda *shape: False), \
            patch.object(geoglmb.filter, "ranked_batch",
                         wraps=geoglmb.filter.ranked_batch) as spy:
        yield
    assert spy.call_count == 0


# Chunk budgets of a stack: one problem per chunk, all at once, the default.
_BATCH_BUDGETS = (1, 10**9, geoglmb.assignment._BATCH_CELLS)


class TestBatchedStepsAgree:
    """A ranked step enumerated as one stack, in chunks of any size, gives
    the bits of the per-parent path."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mixed_row_counts_equal_the_per_parent_path(self, data):
        # Parents of 0-3 labels plus 0-2 births: several row counts in one
        # step, up to 5 rows of 10 columns (beyond the enumeration limit).
        draw = data.draw
        prior = make_density(np.random.default_rng(draw(st.integers(0, 2**16))),
                             n_hypotheses=draw(st.integers(2, 12)))
        birth = BirthModel(tuple(
            BirthEntry(Label(2, i), draw(st.sampled_from([0.3, 1.0])),
                       Gaussian([draw(st.floats(-20.0, 20.0)), 0.0], np.diag([100.0, 1.0])))
            for i in range(draw(st.integers(0, 2)))
        ))
        motion = MotionModel(sigma_p=0.3, p_survival=draw(st.sampled_from([1.0, 0.9])))
        sensor = SensorModel(sigma_m=draw(st.floats(1.0, 20.0)),
                             p_detect=draw(st.sampled_from([0.5, 1.0])),
                             clutter_rate=draw(st.sampled_from([0.0, 3.0])))
        trunc = TruncationConfig(
            method="ranked",
            requested_hypotheses=draw(st.sampled_from([1, 5, 64])),
            min_weight=draw(st.sampled_from([0.0, 1e-6])),
            max_hypotheses=draw(st.sampled_from([3, 1000])),
        )
        readings = draw(st.lists(st.floats(-30.0, 30.0), max_size=draw(st.sampled_from([3, 8]))))

        def step():
            return [joint_predict_update(prior, birth, readings, motion, sensor, 0.5, trunc)]

        with _per_parent():
            want = _outcome(step)
        for budget in _BATCH_BUDGETS:
            with patch.object(geoglmb.assignment, "_BATCH_CELLS", budget):
                assert_same_densities(_outcome(step), want)

    def test_a_ranked_step_is_at_most_one_stack(self):
        # Two parents each of 1, 2 and 3 labels and one of none, interleaved:
        # every parent is posed over the step's 3 labels.
        rng = np.random.default_rng(5)
        densities = [{Label(1, i): make_gaussian(rng) for i in range(n_labels)}
                     for n_labels in [1, 3, 2, 0, 1, 2, 3]]
        prior = build_density([math.log(1 / 7)] * 7, densities)
        motion, sensor = MotionModel(p_survival=0.9), SensorModel(clutter_rate=1.0)
        trunc = TruncationConfig(method="ranked", requested_hypotheses=6, min_weight=0.0)

        def step():
            zs = [1.0, -5.0, 12.0]
            return [joint_predict_update(prior, BirthModel(), zs, motion, sensor, 0.5, trunc)]

        with _per_parent():
            want = _outcome(step)
        for budget in _BATCH_BUDGETS:
            with patch.object(geoglmb.assignment, "_BATCH_CELLS", budget), \
                    patch.object(geoglmb.filter, "ranked_batch",
                                 wraps=geoglmb.filter.ranked_batch) as spy:
                got = _outcome(step)
            assert_same_densities(got, want)
            assert [call.args[0].shape for call in spy.call_args_list] == [(7, 3, 5)]
            assert got[0].hypotheses.parent.tolist().count(3) == 1  # the empty parent


# (method, stacked): ranked steps stacked whenever they are enumerable,
# ranked steps solved parent by parent, and Gibbs steps.
_SOLVE_PATHS = (("ranked", True), ("ranked", False), ("gibbs", True))


@pytest.mark.parametrize("method, stacked", _SOLVE_PATHS, ids=["stacked", "per-parent", "gibbs"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_step_outcomes_are_association_maps(method, stacked, data):
    # Each child's outcome row is one association map of its parent: labels
    # the parent lacks and nobody bears are ABSENT, readings are used at most
    # once, a label has a state row unless it is dead or absent, and no two
    # children of a parent share a map.
    draw = data.draw
    prior = make_density(np.random.default_rng(draw(st.integers(0, 2**16))),
                         n_hypotheses=draw(st.integers(1, 8)))
    birth = BirthModel(tuple(
        BirthEntry(Label(2, i), draw(st.sampled_from([0.3, 1.0])),
                   Gaussian([draw(st.floats(-20.0, 20.0)), 0.0], np.diag([100.0, 1.0])))
        for i in range(draw(st.integers(0, 2)))
    ))
    motion = MotionModel(p_survival=draw(st.sampled_from([1.0, 0.9])))
    sensor = SensorModel(sigma_m=draw(st.floats(1.0, 20.0)),
                         p_detect=draw(st.sampled_from([0.5, 0.9])),
                         clutter_rate=draw(st.sampled_from([0.0, 3.0])))
    zs = draw(st.lists(st.floats(-30.0, 30.0), max_size=4))
    trunc = TruncationConfig(method=method, requested_hypotheses=draw(st.sampled_from([1, 5, 64])),
                             gibbs_iterations=30, min_weight=0.0, max_hypotheses=10**6)
    with contextlib.nullcontext() if stacked else _per_parent():
        a = joint_predict_update(prior, birth, zs, motion, sensor, 0.5, trunc).hypotheses

    n_held = len(prior.hypotheses.labels)
    assert a.labels[:n_held] == prior.hypotheses.labels and len(a.labels) == n_held + len(birth.entries)
    lacks = np.zeros(a.outcome.shape, dtype=bool)
    lacks[:, :n_held] = prior.hypotheses.state[a.parent] < 0
    np.testing.assert_array_equal(a.outcome == ABSENT, lacks)
    np.testing.assert_array_equal(a.state >= 0, a.outcome >= UNDETECTED)
    assert set(a.outcome.ravel().tolist()) <= {ABSENT, DEAD, UNDETECTED, *range(1, len(zs) + 1)}
    for row in a.outcome.tolist():
        used = [o for o in row if o >= 1]
        assert len(set(used)) == len(used)
    maps = {(p, tuple(row)) for p, row in zip(a.parent.tolist(), a.outcome.tolist())}
    assert len(maps) == len(a.parent)


@pytest.mark.parametrize("method", ["ranked", "gibbs"])
def test_step_without_labels_keeps_each_parent(method):
    # No parent holds a label and nothing is born: each parent has the one
    # empty solution, so each keeps its weight.
    prior = build_density([math.log(0.25), math.log(0.75)], [{}, {}])
    out = joint_predict_update(prior, BirthModel(), [1.0], MotionModel(),
                               SensorModel(), 0.5, TruncationConfig(method=method))
    assert out.hypotheses.state.shape == (2, 0) and out.hypotheses.outcome.shape == (2, 0)
    assert sorted(out.hypotheses.parent.tolist()) == [0, 1]
    np.testing.assert_allclose(np.exp(out.hypotheses.log_weights), [0.75, 0.25], rtol=1e-15)


def _identity_mass(key, glmb, birth, zs, motion, sensor, delta):
    """Unnormalized child weight of one (label_set, history) identity, scored
    directly off the parent cost matrix."""
    label_set, history = key
    entry = dict(history[-1])
    parent = glmb.hypotheses[0]
    cost = build_log_cost(glmb, birth, zs, motion, sensor, delta)
    labels = sorted(parent.label_set) + sorted(e.label for e in birth.entries)
    total = parent.log_weight
    for i, lbl in enumerate(labels):
        total += cost[i, entry[lbl] + 1]  # outcome o is column o + 1
    return math.exp(total)


class TestKalmanReductionOverSchedule:
    def test_long_run_matches_standalone_filter(self):
        rng = np.random.default_rng(4)
        depths = np.cumsum(rng.uniform(0.3, 1.2, size=14))
        deltas = [float(depths[0])] + np.diff(depths).tolist()
        truth = 50.0 + np.cumsum(rng.normal(0, 1.0, size=len(depths)))
        zs = (truth + rng.normal(0, 3.0, size=len(depths))).tolist()

        prior_mean = np.array([50.0, 0.0])
        prior_cov = np.diag([9.0, 1.0])
        birth = BirthModel(
            (simple_birth([(Label(1, 0), prior_mean)], r_birth=0.98, cov=prior_cov).entries)
        )
        motion = MotionModel(sigma_p=0.3, p_survival=1.0)
        sensor = SensorModel(
            sigma_m=3.0, p_detect=1.0, clutter_rate=1e-12, clutter_region=(0.0, 120.0)
        )
        history = run_sequence(
            deltas, [[z] for z in zs], birth, motion, sensor, EXHAUSTIVE
        )
        series = extract_map_trajectories(history, depths.tolist())
        track = series.tracks[0]

        means, covs = kf_oracle(prior_mean, prior_cov, deltas, zs, 0.3, 3.0)
        np.testing.assert_allclose(track.values, [m[0] for m in means], atol=1e-9)
        np.testing.assert_allclose(track.variances, [c[0, 0] for c in covs], atol=1e-9)


class TestExtractMapTrajectories:
    def test_single_step_single_hypothesis(self):
        glmb, lbl = one_label_prior(mean=(42.0, 0.3))
        series = extract_map_trajectories([glmb], [1.5])
        assert series.map_cardinality == 1
        track = series.tracks[0]
        assert track.label == lbl
        np.testing.assert_allclose(track.values, [42.0])
        np.testing.assert_allclose(track.rates, [0.3])
        np.testing.assert_allclose(track.depths, [1.5])

    def test_map_cardinality_selects_hypothesis(self):
        l0, l1 = Label(1, 0), Label(1, 1)
        glmb = build_density(
            [math.log(0.9), math.log(0.1)],
            [
                {l0: Gaussian([10.0, 0.0], np.eye(2))},
                {l0: Gaussian([11.0, 0.0], np.eye(2)), l1: Gaussian([20.0, 0.0], np.eye(2))},
            ],
        )
        series = extract_map_trajectories([glmb], [2.0])
        assert series.map_cardinality == 1
        assert len(series.tracks) == 1
        np.testing.assert_allclose(series.tracks[0].values, [10.0])

    def test_gap_depths_filled_by_prediction(self):
        birth = simple_birth([(Label(1, 0), np.array([50.0, 0.0]))], r_birth=0.98)
        motion = MotionModel(sigma_p=0.3, p_survival=0.99)
        sensor = SensorModel(sigma_m=4.0, p_detect=0.5, clutter_rate=1e-6)
        deltas = [1.0, 1.0, 1.0, 1.0]
        sets = [[49.0], [], [52.0], []]
        history = run_sequence(deltas, sets, birth, motion, sensor, EXHAUSTIVE)
        series = extract_map_trajectories(history, [1.0, 2.0, 3.0, 4.0])
        track = series.tracks[0]
        assert len(track.values) == 4  # estimates exist at undetected depths too
        assert np.all(np.isfinite(track.values))
        assert np.all(track.variances[[1, 3]] > track.variances[[0, 2]])

    def test_empty_history_is_error(self):
        with pytest.raises(ValueError):
            extract_map_trajectories([], [])

    def test_mismatched_schedule_is_error(self):
        glmb, _ = one_label_prior()
        with pytest.raises(ValueError):
            extract_map_trajectories([glmb], [1.0, 2.0])

    def test_foreign_densities_are_error(self):
        a, _ = one_label_prior()
        b = build_density([0.0], [{Label(1, 1): Gaussian([1.0, 0.0], np.eye(2))}], step=2)
        with pytest.raises(ValueError):
            extract_map_trajectories([a, b], [1.0, 2.0])


class TestLazyHypotheses:
    def test_objects_are_built_only_on_access(self, monkeypatch):
        built = []
        build = DensityArrays._build

        def counted(self, i):
            built.append(1)
            return build(self, i)

        monkeypatch.setattr(DensityArrays, "_build", counted)
        runs = []
        original = geoglmb.experiment.run_sequence

        def capture(*args):
            runs.append(original(*args))
            return runs[-1]

        monkeypatch.setattr(geoglmb.experiment, "run_sequence", capture)
        config = ExperimentConfig(site="onsoy", mode="joint", trunc_method="ranked")
        _, series = run_trial(bundled_records("onsoy"), config, 0, "onsoy")
        assert len(built) == 0
        (history,) = runs
        assert [len(d.hypotheses) for d in history] == list(series.hypothesis_counts)
        assert len(built) == 0

        # a hypothesis needs its ancestors, one per step plus the initial
        # empty hypothesis, and each is built once
        final = history[-1]
        h = final.hypotheses[7]
        assert len(built) == len(history) + 1
        assert final.hypotheses[7] is h
        parent = history[-2].hypotheses[final.hypotheses.parent[7]]
        assert len(built) == len(history) + 1
        assert h.history[:-1] == parent.history
