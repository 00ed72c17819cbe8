import dataclasses
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np
import pytest

from conftest import make_density, make_gaussian
from geoglmb.errors import WeightCollapseError
from geoglmb.lrfs import (
    DensityArrays,
    GlmbDensity,
    GlmbHypothesis,
    Label,
    best_hypothesis_with_cardinality,
    cardinality_distribution,
    empty_density,
    log_sum_weights,
)


@dataclass(frozen=True, eq=False)
class LabeledState:
    """A label paired with its 2D state [value (%), rate of change (%/m)]."""

    label: Label
    state: np.ndarray

    def __post_init__(self):
        state = np.asarray(self.state, dtype=float)
        if state.shape != (2,):
            raise ValueError(f"state must have dimension 2, got shape {state.shape}")
        object.__setattr__(self, "state", state)


def distinct_label_indicator(states) -> int:
    """1 if all labels in the set are distinct, else 0 (empty set gives 1)."""
    states = list(states)
    return int(len({s.label for s in states}) == len(states))


def normalize(glmb: GlmbDensity) -> GlmbDensity:
    """Rescale hypothesis weights to sum to one, in log space via max-shift."""
    if not glmb.hypotheses:
        raise WeightCollapseError("cannot normalize a density with no hypotheses")
    logw = glmb.arrays.log_weights
    total = log_sum_weights(logw)
    if not np.isfinite(total):
        raise WeightCollapseError("total weight collapsed: all log-weights are -inf")
    hyps = tuple(
        GlmbHypothesis(h.label_set, h.history, lw - total, h.densities)
        for h, lw in zip(glmb.hypotheses, logw)
    )
    return GlmbDensity(hypotheses=hyps, step=glmb.step)


def hyp(labels, log_weight, history_tag=0, rng=None):
    rng = rng or np.random.default_rng(history_tag)
    densities = {lbl: make_gaussian(rng) for lbl in labels}
    return GlmbHypothesis(
        label_set=tuple(labels),
        history=(((Label(0, history_tag), 0),),),
        log_weight=log_weight,
        densities=densities,
    )


class TestLabel:
    def test_ordering_is_lexicographic(self):
        assert Label(1, 0) < Label(1, 1) < Label(2, 0)
        assert sorted([Label(2, 0), Label(1, 1)]) == [Label(1, 1), Label(2, 0)]

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            Label(-1, 0)
        with pytest.raises(ValueError):
            Label(0, -2)

    def test_str(self):
        assert str(Label(3, 1)) == "3:1"


class TestDistinctLabelIndicator:
    def test_empty_set(self):
        assert distinct_label_indicator([]) == 1

    def test_two_distinct(self):
        states = [
            LabeledState(Label(1, 0), np.array([1.0, 0.0])),
            LabeledState(Label(1, 1), np.array([2.0, 0.0])),
        ]
        assert distinct_label_indicator(states) == 1

    def test_duplicate_label(self):
        states = [
            LabeledState(Label(1, 0), np.array([1.0, 0.0])),
            LabeledState(Label(1, 0), np.array([2.0, 0.0])),
        ]
        assert distinct_label_indicator(states) == 0

    def test_hypothesis_label_set_always_distinct(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            glmb = make_density(rng)
            for h in glmb.hypotheses:
                states = [
                    LabeledState(lbl, np.zeros(2)) for lbl in h.label_set
                ]
                assert distinct_label_indicator(states) == 1


class TestNormalize:
    def test_equal_rescale(self):
        glmb = GlmbDensity(
            (hyp([], math.log(2.0), 0), hyp([], math.log(2.0), 1)), step=1
        )
        out = normalize(glmb)
        np.testing.assert_allclose(np.exp(out.arrays.log_weights), [0.5, 0.5], rtol=1e-15)

    def test_single_hypothesis(self):
        out = normalize(GlmbDensity((hyp([], math.log(0.3), 0),), step=1))
        np.testing.assert_allclose(np.exp(out.arrays.log_weights), [1.0], rtol=1e-15)

    def test_extreme_log_weights_match_high_precision_oracle(self):
        # Oracle: shifted evaluation with 50-digit decimals.
        getcontext().prec = 50
        e1 = Decimal(-1).exp()
        expected = [float(1 / (1 + e1)), float(e1 / (1 + e1))]
        glmb = GlmbDensity((hyp([], -1000.0, 0), hyp([], -1001.0, 1)), step=1)
        out = normalize(glmb)
        np.testing.assert_allclose(np.exp(out.arrays.log_weights), expected, rtol=1e-12)

    def test_all_minus_inf_collapses(self):
        glmb = GlmbDensity((hyp([], -math.inf, 0),), step=1)
        with pytest.raises(WeightCollapseError):
            normalize(glmb)

    def test_no_hypotheses_collapses(self):
        with pytest.raises(WeightCollapseError):
            normalize(GlmbDensity((), step=0))

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            once = normalize(make_density(rng))
            twice = normalize(once)
            np.testing.assert_allclose(
                twice.arrays.log_weights, once.arrays.log_weights, atol=1e-12
            )

    def test_preserves_relative_weights(self):
        glmb = GlmbDensity(
            (hyp([], math.log(1.0), 0), hyp([], math.log(3.0), 1)), step=1
        )
        out = normalize(glmb)
        np.testing.assert_allclose(np.exp(out.arrays.log_weights), [0.25, 0.75], rtol=1e-14)


class TestGlmbDensity:
    def test_objects_are_packed_at_construction(self):
        objs = (hyp([Label(1, 0)], math.log(0.6), 0), hyp([], math.log(0.4), 1))
        d = GlmbDensity(objs, 1)
        assert isinstance(d.hypotheses, DensityArrays)
        assert d.arrays is d.hypotheses
        assert all(d.hypotheses[i] is objs[i] for i in range(len(objs)))
        np.testing.assert_array_equal(d.arrays.log_weights, [h.log_weight for h in objs])

    def test_replace_packs_again(self):
        objs = (hyp([Label(1, 0)], math.log(0.6), 0), hyp([Label(1, 1)], math.log(0.4), 1))
        d = dataclasses.replace(GlmbDensity(objs, 1), hypotheses=objs[1:])
        assert isinstance(d.hypotheses, DensityArrays)
        assert len(d.hypotheses) == 1 and d.hypotheses[0] is objs[1]
        assert d.arrays.labels == (Label(1, 1),)
        assert dataclasses.replace(d, step=2).hypotheses is d.hypotheses


class TestCardinalityDistribution:
    def test_point_mass(self):
        labels = [Label(1, 0), Label(1, 1), Label(1, 2)]
        glmb = normalize(GlmbDensity((hyp(labels, 0.0, 0),), step=1))
        np.testing.assert_allclose(
            cardinality_distribution(glmb), [0, 0, 0, 1.0], atol=1e-15
        )

    def test_direct_weight_sum(self):
        glmb = GlmbDensity(
            (
                hyp([Label(1, 0)], math.log(0.6), 0),
                hyp([Label(1, 0), Label(1, 1)], math.log(0.4), 1),
            ),
            step=1,
        )
        np.testing.assert_allclose(
            cardinality_distribution(glmb), [0.0, 0.6, 0.4], rtol=1e-12
        )

    def test_matches_exhaustive_sum_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            glmb = make_density(rng, n_hypotheses=5)
            rho = cardinality_distribution(glmb)
            # brute force: group the weights by label-set size
            expected = np.zeros(max(len(h.label_set) for h in glmb.hypotheses) + 1)
            for h in glmb.hypotheses:
                expected[len(h.label_set)] += math.exp(h.log_weight)
            np.testing.assert_allclose(rho, expected, atol=1e-12)
            assert abs(rho.sum() - 1.0) < 1e-9

    def test_empty_density_is_cardinality_zero(self):
        rho = cardinality_distribution(empty_density())
        np.testing.assert_allclose(rho, [1.0])


class TestBestHypothesisWithCardinality:
    def test_single_candidate(self):
        h = hyp([Label(1, 0), Label(1, 1)], 0.0, 0)
        assert best_hypothesis_with_cardinality(GlmbDensity((h,), 1), 2) == 0

    def test_argmax(self):
        lo = hyp([Label(1, 0)], math.log(0.3), 0)
        hi = hyp([Label(1, 1)], math.log(0.7), 1)
        glmb = GlmbDensity((lo, hi), 1)
        assert glmb.hypotheses[best_hypothesis_with_cardinality(glmb, 1)] is hi

    def test_tie_breaks_on_smaller_label_set(self):
        a = hyp([Label(1, 1)], math.log(0.5), 0)
        b = hyp([Label(1, 0)], math.log(0.5), 1)
        glmb = GlmbDensity((a, b), 1)
        best = glmb.hypotheses[best_hypothesis_with_cardinality(glmb, 1)]
        assert best.label_set == (Label(1, 0),)

    def test_missing_cardinality_is_error(self):
        with pytest.raises(ValueError):
            best_hypothesis_with_cardinality(empty_density(), 2)

    def test_argmax_invariant_under_log_weight_shift(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            glmb = make_density(rng, n_hypotheses=6)
            sizes = {len(h.label_set) for h in glmb.hypotheses}
            shifted = GlmbDensity(
                tuple(
                    GlmbHypothesis(h.label_set, h.history, h.log_weight + 123.45, h.densities)
                    for h in glmb.hypotheses
                ),
                step=glmb.step,
            )
            for n in sizes:
                a = glmb.hypotheses[best_hypothesis_with_cardinality(glmb, n)]
                b = shifted.hypotheses[best_hypothesis_with_cardinality(shifted, n)]
                assert a.label_set == b.label_set and a.history == b.history


class TestHypothesisInvariants:
    def test_duplicate_labels_rejected(self):
        rng = np.random.default_rng(0)
        g = make_gaussian(rng)
        with pytest.raises(ValueError):
            GlmbHypothesis(
                label_set=(Label(1, 0), Label(1, 0)),
                history=(),
                log_weight=0.0,
                densities={Label(1, 0): g},
            )

    def test_densities_must_cover_label_set(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GlmbHypothesis(
                label_set=(Label(1, 0), Label(1, 1)),
                history=(),
                log_weight=0.0,
                densities={Label(1, 0): make_gaussian(rng)},
            )

    def test_label_set_stored_sorted(self):
        rng = np.random.default_rng(0)
        labels = (Label(2, 0), Label(1, 1))
        h = GlmbHypothesis(
            label_set=labels,
            history=(),
            log_weight=0.0,
            densities={lbl: make_gaussian(rng) for lbl in labels},
        )
        assert h.label_set == (Label(1, 1), Label(2, 0))
