import dataclasses
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np
import pytest

from conftest import build_density, gaussians, make_density, make_gaussian
from geoglmb.errors import WeightCollapseError
from geoglmb.gaussian import Gaussian
from geoglmb.lrfs import (
    UNDETECTED,
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
    logw = glmb.hypotheses.log_weights
    total = log_sum_weights(logw)
    if not np.isfinite(total):
        raise WeightCollapseError("total weight collapsed: all log-weights are -inf")
    return GlmbDensity(dataclasses.replace(glmb.hypotheses, log_weights=logw - total), glmb.step)


def density(*hypotheses):
    """A step-1 density of (labels, log-weight) pairs; the Gaussians of the
    h-th pair are drawn from seed h."""
    densities = []
    for h, (labels, _) in enumerate(hypotheses):
        rng = np.random.default_rng(h)
        densities.append({lbl: make_gaussian(rng) for lbl in labels})
    return build_density([w for _, w in hypotheses], densities)


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
        glmb = density(([], math.log(2.0)), ([], math.log(2.0)))
        out = normalize(glmb)
        np.testing.assert_allclose(np.exp(out.hypotheses.log_weights), [0.5, 0.5], rtol=1e-15)

    def test_single_hypothesis(self):
        out = normalize(density(([], math.log(0.3))))
        np.testing.assert_allclose(np.exp(out.hypotheses.log_weights), [1.0], rtol=1e-15)

    def test_extreme_log_weights_match_high_precision_oracle(self):
        # Oracle: shifted evaluation with 50-digit decimals.
        getcontext().prec = 50
        e1 = Decimal(-1).exp()
        expected = [float(1 / (1 + e1)), float(e1 / (1 + e1))]
        glmb = density(([], -1000.0), ([], -1001.0))
        out = normalize(glmb)
        np.testing.assert_allclose(np.exp(out.hypotheses.log_weights), expected, rtol=1e-12)

    def test_all_minus_inf_collapses(self):
        glmb = density(([], -math.inf))
        with pytest.raises(WeightCollapseError):
            normalize(glmb)

    def test_no_hypotheses_collapses(self):
        with pytest.raises(WeightCollapseError):
            normalize(build_density([], [], step=0))

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            once = normalize(make_density(rng))
            twice = normalize(once)
            np.testing.assert_allclose(
                twice.hypotheses.log_weights, once.hypotheses.log_weights, atol=1e-12
            )

    def test_preserves_relative_weights(self):
        glmb = density(([], math.log(1.0)), ([], math.log(3.0)))
        out = normalize(glmb)
        np.testing.assert_allclose(np.exp(out.hypotheses.log_weights), [0.25, 0.75], rtol=1e-14)


class TestGlmbDensity:
    def test_stores_what_it_is_given(self):
        arrays = make_density(np.random.default_rng(0)).hypotheses
        glmb = GlmbDensity(arrays, 2)
        assert glmb.hypotheses is arrays and not hasattr(glmb, "arrays")
        objects = tuple(glmb.hypotheses)
        assert dataclasses.replace(glmb, hypotheses=objects).hypotheses is objects

    def test_a_long_chain_builds_its_last_object(self):
        # Each object extends its parent's history, 2,000 steps deep.
        lbl, g = Label(1, 0), Gaussian([40.0, 0.0], np.eye(2))
        glmb = empty_density()
        for step in range(1, 2001):
            glmb = build_density([0.0], [{lbl: g}], step, prior=glmb,
                                 outcomes=[{lbl: UNDETECTED}])
        h = glmb.hypotheses[0]
        assert h.history == (((lbl, UNDETECTED),),) * 2000
        assert glmb.hypotheses.prior.hypotheses[0].history == h.history[:-1]
        assert gaussians(glmb, 0)[lbl].mean.tolist() == [40.0, 0.0]

    def test_a_hypothesis_object_is_its_label_set_history_and_weight(self):
        # A label's Gaussian lives only in the arrays, read through ``state``.
        glmb = make_density(np.random.default_rng(1))
        names = [f.name for f in dataclasses.fields(GlmbHypothesis)]
        assert names == ["label_set", "history", "log_weight"]
        a = glmb.hypotheses
        for i, h in enumerate(glmb.hypotheses):
            assert h.label_set == tuple(lbl for lbl, row in zip(a.labels, a.state[i]) if row >= 0)
        assert not hasattr(a, "_views") and not hasattr(Gaussian, "_view")


class TestCardinalityDistribution:
    def test_point_mass(self):
        labels = [Label(1, 0), Label(1, 1), Label(1, 2)]
        glmb = normalize(density((labels, 0.0)))
        np.testing.assert_allclose(
            cardinality_distribution(glmb), [0, 0, 0, 1.0], atol=1e-15
        )

    def test_direct_weight_sum(self):
        glmb = density(([Label(1, 0)], math.log(0.6)), ([Label(1, 0), Label(1, 1)], math.log(0.4)))
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
        glmb = density(([Label(1, 0), Label(1, 1)], 0.0))
        assert best_hypothesis_with_cardinality(glmb, 2) == 0

    def test_argmax(self):
        glmb = density(([Label(1, 0)], math.log(0.3)), ([Label(1, 1)], math.log(0.7)))
        assert best_hypothesis_with_cardinality(glmb, 1) == 1

    def test_tie_breaks_on_smaller_label_set(self):
        glmb = density(([Label(1, 1)], math.log(0.5)), ([Label(1, 0)], math.log(0.5)))
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
                dataclasses.replace(glmb.hypotheses, log_weights=glmb.hypotheses.log_weights + 123.45),
                glmb.step,
            )
            for n in sizes:
                assert (best_hypothesis_with_cardinality(glmb, n)
                        == best_hypothesis_with_cardinality(shifted, n))
