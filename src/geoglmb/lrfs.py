"""Labeled multi-object states and weighted-hypothesis densities.

A labeled multi-object density is carried as a list of hypotheses, each a
label set together with one single-object Gaussian per label and a
log-domain weight.  All weight arithmetic stays in log space; products of
many small likelihoods underflow doubles long before they stop mattering.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .gaussian import Gaussian

__all__ = [
    "Label",
    "GlmbHypothesis",
    "GlmbDensity",
    "empty_density",
    "log_sum_weights",
    "cardinality_distribution",
    "best_hypothesis_with_cardinality",
]


@dataclass(frozen=True, order=True)
class Label:
    """Discrete identity (birth step, index within that step) of one tracked profile.

    Ordering is lexicographic on ``(birth_step, index)``, so sorted label
    sequences are canonical.
    """

    birth_step: int
    index: int

    def __post_init__(self):
        if self.birth_step < 0 or self.index < 0:
            raise ValueError(f"label fields must be non-negative, got {self}")

    def __str__(self):
        return f"{self.birth_step}:{self.index}"


# Association outcome codes used in hypothesis histories.  Measurement
# assignments are 1-based so that 0 can stand for a missed detection.
DEAD = -1  # not born / no longer surviving
UNDETECTED = 0


@dataclass(frozen=True)
class GlmbHypothesis:
    """One weighted hypothesis: a label set plus one Gaussian per label.

    ``history`` is a hashable per-step record of association outcomes: one
    tuple per filter step, each a sorted tuple of ``(label, outcome)`` pairs
    with outcome in {DEAD, UNDETECTED, measurement index >= 1}.  Together
    with ``label_set`` it identifies the hypothesis.  A filter step extends
    each parent's history by distinct association solutions, so the
    hypotheses of one density never share an identity.

    Instances (including the densities mapping) are shared across
    hypotheses and steps; treat them as immutable.
    """

    label_set: tuple[Label, ...]
    history: tuple[tuple[tuple[Label, int], ...], ...]
    log_weight: float
    densities: Mapping[Label, Gaussian] = field(default_factory=dict)

    def __post_init__(self):
        ordered = tuple(sorted(self.label_set))
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate labels in hypothesis label set {ordered}")
        object.__setattr__(self, "label_set", ordered)
        if set(self.densities.keys()) != set(ordered):
            raise ValueError("densities must carry exactly one Gaussian per label")

    @property
    def cardinality(self) -> int:
        return len(self.label_set)


@dataclass(frozen=True)
class GlmbDensity:
    """Weighted set of hypotheses at one step; weights live in log space."""

    hypotheses: tuple[GlmbHypothesis, ...]
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))

    def log_weights(self) -> np.ndarray:
        return np.array([h.log_weight for h in self.hypotheses], dtype=float)

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights())


def empty_density(step: int = 0) -> GlmbDensity:
    """The density certain of 'nothing exists': one empty hypothesis, weight 1."""
    return GlmbDensity(
        hypotheses=(GlmbHypothesis(label_set=(), history=(), log_weight=0.0),),
        step=step,
    )


def log_sum_weights(log_weights: np.ndarray) -> float:
    """Max-shifted log of the summed weights; -inf entries contribute zero."""
    shift = float(log_weights.max())
    if shift == -np.inf:
        return -np.inf
    return shift + float(np.log(np.exp(log_weights - shift).sum()))


def cardinality_distribution(glmb: GlmbDensity) -> np.ndarray:
    """Probability of each object count n = 0..max cardinality present.

    Entry n sums the weights of hypotheses whose label set has size n.
    Assumes a normalized density.
    """
    n_max = max((h.cardinality for h in glmb.hypotheses), default=0)
    rho = np.zeros(n_max + 1)
    for h in glmb.hypotheses:
        rho[h.cardinality] += np.exp(h.log_weight)
    return rho


def best_hypothesis_with_cardinality(glmb: GlmbDensity, n: int) -> GlmbHypothesis:
    """Highest-weight hypothesis among those with exactly n labels.

    Ties break deterministically: lexicographically smallest label set,
    then smallest history encoding.
    """
    candidates = [h for h in glmb.hypotheses if h.cardinality == n]
    if not candidates:
        raise ValueError(f"no hypothesis with cardinality {n}")
    return min(candidates, key=lambda h: (-h.log_weight, h.label_set, h.history))
