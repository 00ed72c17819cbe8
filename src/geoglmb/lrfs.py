"""Labeled multi-object states and weighted-hypothesis densities.

A labeled multi-object density is a weighted set of hypotheses, each a
label set with one single-object Gaussian per label and a log-domain
weight.  A density is held as arrays (``DensityArrays``) over one sorted
label table: the log-weights, and for every hypothesis and label an index
into the step's rows of Gaussian means and covariances.  A density made by
a filter step also points back at the density it was stepped from: each
hypothesis keeps its parent's index and its own association outcome per
label, so its history is its parent's history plus one outcome row.
Arrays are the only way to build a density.  A ``GlmbHypothesis`` object
holds a label set, a history and a weight, built from the arrays on every
read and kept nowhere; a label's Gaussian lives only in the arrays.
All weight arithmetic stays in log space; products of many small
likelihoods underflow doubles long before they stop mattering.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .gaussian import is_number

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
        if not all(is_number(v, whole=True) and v >= 0 for v in (self.birth_step, self.index)):
            raise ValueError(f"label fields must be integers >= 0, got {self!r}")

    def __str__(self):
        return f"{self.birth_step}:{self.index}"


# Association outcome codes used in hypothesis histories.  Measurement
# assignments are 1-based so that 0 can stand for a missed detection.
DEAD = -1  # not born / no longer surviving
UNDETECTED = 0
ABSENT = -2  # in DensityArrays.outcome only: the label had no row in the step


@dataclass(frozen=True)
class GlmbHypothesis:
    """One weighted hypothesis, as ``DensityArrays`` reads it out: a label
    set, its association history and its log-weight.

    ``label_set`` is sorted.  ``history`` is a hashable per-step record of
    association outcomes: one tuple per filter step, each a sorted tuple of
    ``(label, outcome)`` pairs with outcome in {DEAD, UNDETECTED,
    measurement index >= 1}.  Together with ``label_set`` it identifies the
    hypothesis.  A filter step extends each parent's history by distinct
    association solutions, so the hypotheses of one density never share an
    identity.

    Only ``DensityArrays`` builds instances, afresh on every read: the
    history is one outcome row per step, read back through the parents.  A
    label's Gaussian is read from the arrays, through ``state``.
    """

    label_set: tuple[Label, ...]
    history: tuple[tuple[tuple[Label, int], ...], ...]
    log_weight: float


@dataclass(eq=False)
class DensityArrays(Sequence):
    """A density of H hypotheses as arrays over the sorted label table ``labels``.

    ``state[h, c]`` indexes the rows of ``means`` [S, 2] and ``covs``
    [S, 2, 2] that hold label c's Gaussian in hypothesis h, or is -1 where
    h lacks the label.  A density made by a filter step also has ``prior``,
    the density it was stepped from, ``parent[h]``, an index into the
    prior, and ``outcome[h, c]``: label c's association outcome in that
    step, or ABSENT where c was neither a label of the parent nor a birth.
    The arrays are taken as given, unchecked.

    As a sequence it is a read-only view of the hypothesis objects, each
    built from the arrays on every read and kept nowhere; ``len`` builds
    none, and a slice is a tuple.
    """

    log_weights: np.ndarray
    labels: tuple[Label, ...]
    state: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    prior: GlmbDensity | None = None
    parent: np.ndarray | None = None
    outcome: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.log_weights)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        label_set = tuple(lbl for lbl, row in zip(self.labels, self.state[i].tolist()) if row >= 0)
        # One outcome row per step, read back through the parents: a loop,
        # so a long run does not recurse once per step.
        history, arrays, j = [], self, i
        while arrays.prior is not None:
            entry = zip(arrays.labels, arrays.outcome[j].tolist())
            history.append(tuple((lbl, o) for lbl, o in entry if o != ABSENT))
            arrays, j = arrays.prior.hypotheses, int(arrays.parent[j])
        return GlmbHypothesis(label_set, tuple(reversed(history)), float(self.log_weights[i]))


@dataclass(frozen=True)
class GlmbDensity:
    """Weighted set of hypotheses at one step; weights live in log space.

    ``hypotheses`` is a ``DensityArrays``, stored as given: a filter step
    makes it.  Indexing or iterating it reads the hypotheses out as objects.
    """

    hypotheses: DensityArrays
    step: int = 0


def empty_density(step: int = 0) -> GlmbDensity:
    """The density certain of 'nothing exists': one empty hypothesis, weight 1."""
    empty = DensityArrays(np.zeros(1), (), np.empty((1, 0), int), np.empty((0, 2)), np.empty((0, 2, 2)))
    return GlmbDensity(empty, step)


def log_sum_weights(log_weights: np.ndarray) -> float:
    """Max-shifted log of the summed weights of a 1-D array; -inf entries
    contribute zero."""
    shift = float(np.maximum.reduce(log_weights))
    if shift == -np.inf:
        return -np.inf
    return shift + float(np.log(np.add.reduce(np.exp(log_weights - shift))))


def cardinality_distribution(glmb: GlmbDensity) -> np.ndarray:
    """Probability of each object count n = 0..max cardinality present.

    Entry n sums the weights of hypotheses whose label set has size n, in
    hypothesis order.  Assumes a normalized density.
    """
    a = glmb.hypotheses
    return np.bincount((a.state >= 0).sum(axis=1), np.exp(a.log_weights), minlength=1)


def best_hypothesis_with_cardinality(glmb: GlmbDensity, n: int) -> int:
    """Index in ``glmb.hypotheses`` of the highest-weight hypothesis among
    those with exactly n labels.

    Ties break deterministically: lexicographically smallest label set,
    then smallest history.  Only tied hypotheses are built as objects,
    each once.
    """
    a = glmb.hypotheses
    logw = a.log_weights.tolist()
    candidates = ((a.state >= 0).sum(axis=1) == n).nonzero()[0].tolist()
    if not candidates:
        raise ValueError(f"no hypothesis with cardinality {n}")
    best = max(logw[i] for i in candidates)
    tied = [i for i in candidates if logw[i] == best]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda i: attrgetter("label_set", "history")(a[i]))
