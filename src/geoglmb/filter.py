"""Joint prediction and update of labeled multi-Bernoulli densities.

One filter step maps the current density and a new scalar measurement set to
the next density over the enlarged label space (survivors plus births).  A
child hypothesis is one association map applied to one parent; its weight is
the parent weight times per-label survival/death, birth/not-born, and
detection factors, where an assigned measurement contributes its predicted
likelihood against the clutter intensity.  The exponentially many children
are truncated by Gibbs sampling or exact ranked assignment, pruned, capped,
and renormalized.  Every child extends exactly one parent's history by one
distinct solution of that parent's cost matrix, so the children of a step
never share an identity and are never merged.

Trajectories are read out by maximum a posteriori: pick the most probable
cardinality, the best hypothesis of that cardinality, and follow its
association history backward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .assignment import gibbs_solutions, ranked_solutions
from .errors import InfeasibleAssociationError, WeightCollapseError
from .gaussian import (
    GaussianMixture,
    MotionModel,
    SensorModel,
    mixture_log_likelihood,
    mixture_reduce,
    predict_mixture,
    transition_matrices,
    update_mixture,
)
from .lrfs import (
    DEAD,
    UNDETECTED,
    GlmbDensity,
    GlmbHypothesis,
    Label,
    best_hypothesis_with_cardinality,
    cardinality_distribution,
    empty_density,
    log_sum_weights,
)

__all__ = [
    "BirthEntry",
    "BirthModel",
    "AssociationMap",
    "TruncationConfig",
    "LogCostMatrix",
    "build_log_cost",
    "gibbs_assignments",
    "ranked_assignments",
    "joint_predict_update",
    "run_sequence",
    "extract_map_trajectories",
    "EstimateSeries",
    "TrackEstimate",
]

# Clutter intensity is floored at the smallest positive double so that
# zero-clutter configurations stay numerically defined: maps leaving a
# measurement unexplained then carry a ~ -708 log penalty and vanish.
_LOG_KAPPA_FLOOR = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class BirthEntry:
    label: Label
    r_birth: float
    density: GaussianMixture

    def __post_init__(self):
        if not 0.0 <= self.r_birth <= 1.0:
            raise ValueError("r_birth must lie in [0, 1]")


@dataclass(frozen=True)
class BirthModel:
    """Bernoulli birth components injected at one step."""

    entries: tuple[BirthEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("birth labels must be distinct")

    def labels(self) -> tuple[Label, ...]:
        return tuple(e.label for e in self.entries)


EMPTY_BIRTH = BirthModel()


@dataclass(frozen=True)
class AssociationMap:
    """Outcome per label: DEAD (-1), UNDETECTED (0), or measurement index >= 1.

    Measurement indices are 1-based and used by at most one label.
    """

    assignment: tuple[tuple[Label, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(self.assignment))
        object.__setattr__(self, "assignment", pairs)
        labels = [lbl for lbl, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ValueError("association map assigns a label twice")
        meas = [o for _, o in pairs if o >= 1]
        if len(set(meas)) != len(meas):
            raise ValueError("association map reuses a measurement index")

    @classmethod
    def from_dict(cls, assignment: Mapping[Label, int]) -> "AssociationMap":
        return cls(tuple(assignment.items()))

    def outcome(self, label: Label) -> int:
        for lbl, o in self.assignment:
            if lbl == label:
                return o
        raise KeyError(label)

    def assigned_measurements(self) -> set[int]:
        return {o for _, o in self.assignment if o >= 1}

    def key(self) -> tuple[tuple[Label, int], ...]:
        return self.assignment


@dataclass(frozen=True)
class TruncationConfig:
    """How the per-parent child space is truncated."""

    method: str = "gibbs"
    requested_hypotheses: int = 1000
    gibbs_iterations: int = 1000
    seed: int = 0
    min_weight: float = 1e-6
    max_hypotheses: int = 1000

    def __post_init__(self):
        if self.method not in ("gibbs", "ranked"):
            raise ValueError(f"unknown truncation method {self.method!r}")
        if self.requested_hypotheses < 1 or self.gibbs_iterations < 1:
            raise ValueError("requested_hypotheses and gibbs_iterations must be >= 1")
        if self.min_weight < 0:
            raise ValueError("min_weight must be >= 0")
        if self.max_hypotheses < 1:
            raise ValueError("max_hypotheses must be >= 1")


@dataclass(frozen=True)
class LogCostMatrix:
    """Per-label log factors for one parent hypothesis.

    Row order is sorted surviving labels then sorted birth labels; columns
    are [death/not-born, undetected, one per measurement].  The score of an
    association map is the sum of its selected entries.
    """

    values: np.ndarray
    labels: tuple[Label, ...]
    n_measurements: int

    def solution_to_map(self, solution: tuple[int, ...]) -> AssociationMap:
        return AssociationMap(_outcomes(self.labels, solution))


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _log1m_exp(log_p: float) -> float:
    """log(1 - exp(log_p)) for log_p <= 0, stable near log_p = 0."""
    if log_p == -math.inf:
        return 0.0
    return _log(-math.expm1(log_p))


def _outcomes(
    labels: Sequence[Label], solution: Sequence[int]
) -> tuple[tuple[Label, int], ...]:
    """Sorted (label, outcome) pairs of one cost-matrix solution: column 0 is
    DEAD, column 1 UNDETECTED and column c >= 2 measurement index c - 1."""
    return tuple(
        sorted(
            (lbl, DEAD if col == 0 else UNDETECTED if col == 1 else col - 1)
            for lbl, col in zip(labels, solution)
        )
    )


def _reduce(mix: GaussianMixture) -> GaussianMixture:
    return mix if len(mix) <= 1 else mixture_reduce(mix)


class _StepCosts:
    """Cost matrices of one filter step, one per parent hypothesis.

    Mixtures reappear in many hypotheses (same object identity), so
    prediction, per-measurement likelihoods and posteriors are computed once
    per distinct mixture and shared across parents.  Predicted and updated
    mixtures are reduced by ``mixture_reduce`` at its defaults; birth
    densities enter as given.
    """

    def __init__(
        self,
        birth: BirthModel,
        measurements: Sequence[float],
        motion: MotionModel,
        sensor: SensorModel,
        delta: float,
    ):
        self.z = np.asarray(measurements, dtype=float)
        if not np.all(np.isfinite(self.z)):
            raise ValueError(f"measurements must be finite, got {self.z.tolist()}")
        self.f, self.q = transition_matrices(motion, delta)
        self.sensor = sensor
        self.log_ps = _log(motion.p_survival)
        self.log_pd = _log(sensor.p_detect)
        self.log_qd = _log(1.0 - sensor.p_detect)
        self.log_kappa = max(sensor.log_clutter_intensity(), _LOG_KAPPA_FLOOR)
        self._predicted: dict[int, tuple[GaussianMixture, np.ndarray]] = {}
        self._posteriors: dict[tuple[int, int], GaussianMixture] = {}
        # (label, log alive probability, predicted mixture, log-likelihoods)
        self.birth_rows = [
            (e.label, _log(e.r_birth), e.density, self._likelihoods(e.density))
            for e in sorted(birth.entries, key=lambda e: e.label)
        ]

    def _likelihoods(self, pm: GaussianMixture) -> np.ndarray:
        return np.array([mixture_log_likelihood(pm, float(zj), self.sensor) for zj in self.z])

    def _predict(self, mix: GaussianMixture) -> tuple[GaussianMixture, np.ndarray]:
        hit = self._predicted.get(id(mix))
        if hit is None:
            pm = _reduce(predict_mixture(mix, self.f, self.q))
            hit = self._predicted[id(mix)] = (pm, self._likelihoods(pm))
        return hit

    def parent_cost(
        self, hypothesis: GlmbHypothesis
    ) -> tuple[LogCostMatrix, list[GaussianMixture]]:
        """The parent's cost matrix and the predicted mixture of each row."""
        rows = [
            (lbl, self.log_ps, *self._predict(hypothesis.densities[lbl]))
            for lbl in hypothesis.label_set
        ] + self.birth_rows
        values = np.empty((len(rows), 2 + len(self.z)))
        for i, (_, log_alive, _, liks) in enumerate(rows):
            values[i, 0] = _log1m_exp(log_alive)
            values[i, 1] = log_alive + self.log_qd
            values[i, 2:] = log_alive + self.log_pd + liks - self.log_kappa
        cost = LogCostMatrix(values, tuple(row[0] for row in rows), len(self.z))
        return cost, [row[2] for row in rows]

    def posterior(self, pm: GaussianMixture, j: int) -> GaussianMixture:
        """A predicted mixture updated by measurement j (0-based)."""
        key = (id(pm), j)
        mix = self._posteriors.get(key)
        if mix is None:
            mix, _ = update_mixture(pm, float(self.z[j]), self.sensor)
            mix = self._posteriors[key] = _reduce(mix)
        return mix


def build_log_cost(
    hypothesis: GlmbHypothesis,
    birth: BirthModel,
    measurements: Sequence[float],
    motion: MotionModel,
    sensor: SensorModel,
    delta: float,
) -> LogCostMatrix:
    """Association cost matrix for one parent hypothesis, as the filter scores it.

    Surviving labels' mixtures are predicted over the interval before the
    measurement likelihoods are evaluated; birth densities enter as given.
    """
    return _StepCosts(birth, measurements, motion, sensor, delta).parent_cost(hypothesis)[0]


def ranked_assignments(cost: LogCostMatrix, k: int) -> list[AssociationMap]:
    """The k highest-score association maps, exact and sorted."""
    sols = ranked_solutions(cost.values, k)
    return [cost.solution_to_map(sol) for sol, _ in sols]


def gibbs_assignments(cost: LogCostMatrix, trunc: TruncationConfig) -> list[AssociationMap]:
    """Distinct association maps visited by a seeded Gibbs sweep."""
    rng = np.random.default_rng(trunc.seed)
    sols = gibbs_solutions(cost.values, trunc.gibbs_iterations, rng)
    return [cost.solution_to_map(sol) for sol, _ in sols]


def _truncate(values: np.ndarray, trunc: TruncationConfig, rng_key) -> list[tuple[tuple[int, ...], float]]:
    if trunc.method == "ranked":
        try:
            return ranked_solutions(values, trunc.requested_hypotheses)
        except InfeasibleAssociationError:
            return []
    rng = np.random.default_rng(rng_key)
    try:
        sols = gibbs_solutions(values, trunc.gibbs_iterations, rng)
    except InfeasibleAssociationError:
        return []
    sols.sort(key=lambda item: (-item[1], item[0]))
    return sols[: trunc.requested_hypotheses]


def joint_predict_update(
    glmb: GlmbDensity,
    birth: BirthModel,
    measurements: Sequence[float],
    motion: MotionModel,
    sensor: SensorModel,
    delta: float,
    trunc: TruncationConfig,
) -> GlmbDensity:
    """One filter step: predict over the interval and absorb the measurements.

    Returns a normalized density at step + 1 whose hypotheses carry the
    extended association histories.  Each child appends one solution of its
    parent's cost matrix to that parent's history.  The solvers return every
    solution at most once and distinct parents carry distinct histories, so
    no two children share an identity and none need merging.  Parents are
    processed in stored order, so the result does not depend on scheduling.
    Non-finite measurements raise ValueError.
    """
    if not glmb.hypotheses:
        raise WeightCollapseError("cannot step a density with no hypotheses")
    next_step = glmb.step + 1
    for entry in birth.entries:
        if entry.label.birth_step != next_step:
            raise ValueError(
                f"birth label {entry.label} does not carry birth step {next_step}"
            )
    costs = _StepCosts(birth, measurements, motion, sensor, delta)

    parent_costs: list[tuple[LogCostMatrix, list[GaussianMixture]]] = []
    children: list[tuple[int, tuple[int, ...]]] = []  # (parent index, solution)
    child_logw: list[float] = []
    for p_idx, parent in enumerate(glmb.hypotheses):
        cost, predicted = costs.parent_cost(parent)
        parent_costs.append((cost, predicted))
        for solution, score in _truncate(cost.values, trunc, (trunc.seed, glmb.step, p_idx)):
            children.append((p_idx, solution))
            child_logw.append(parent.log_weight + score)

    if not children:
        raise InfeasibleAssociationError(
            "truncation produced no valid association map; "
            "check clutter rate, detection and survival probabilities"
        )

    logw = np.array(child_logw)
    norm = logw - log_sum_weights(logw)
    keep = np.nonzero(np.exp(norm) >= trunc.min_weight)[0]
    if keep.size == 0:
        keep = np.array([int(np.argmax(norm))])
    order = keep[np.argsort(-norm[keep], kind="stable")][: trunc.max_hypotheses]
    final_logw = norm[order] - log_sum_weights(norm[order])

    hyps = []
    for child_idx, log_weight in zip(order, final_logw):
        p_idx, solution = children[child_idx]
        cost, predicted = parent_costs[p_idx]
        densities: dict[Label, GaussianMixture] = {}
        for lbl, pm, col in zip(cost.labels, predicted, solution):
            if col >= 1:
                densities[lbl] = pm if col == 1 else costs.posterior(pm, col - 2)
        hyps.append(
            GlmbHypothesis(
                label_set=tuple(densities),
                history=glmb.hypotheses[p_idx].history + (_outcomes(cost.labels, solution),),
                log_weight=float(log_weight),
                densities=densities,
            )
        )
    return GlmbDensity(tuple(hyps), step=next_step)


def run_sequence(
    deltas: Sequence[float],
    measurement_sets: Sequence[Sequence[float]],
    birth: BirthModel,
    motion: MotionModel,
    sensor: SensorModel,
    trunc: TruncationConfig,
) -> list[GlmbDensity]:
    """Filter a whole depth schedule; births enter at step 1.

    Returns one normalized density per step (steps are 1-based; the initial
    'nothing exists' density is not included).
    """
    if len(deltas) != len(measurement_sets):
        raise ValueError("need one interval per measurement set")
    density = empty_density(step=0)
    out = []
    for k, (delta, zs) in enumerate(zip(deltas, measurement_sets), start=1):
        step_birth = birth if k == 1 else EMPTY_BIRTH
        density = joint_predict_update(density, step_birth, zs, motion, sensor, delta, trunc)
        out.append(density)
    return out


@dataclass(frozen=True)
class TrackEstimate:
    """Per-depth state readout for one label along the MAP hypothesis."""

    label: Label
    steps: np.ndarray
    depths: np.ndarray
    values: np.ndarray
    rates: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class EstimateSeries:
    """MAP trajectory readout plus run metrics."""

    depths: np.ndarray
    tracks: tuple[TrackEstimate, ...]
    map_cardinality: int
    map_log_weight: float
    hypothesis_counts: tuple[int, ...]

    def track(self, label: Label) -> TrackEstimate:
        for t in self.tracks:
            if t.label == label:
                return t
        raise KeyError(label)


def extract_map_trajectories(
    history: Sequence[GlmbDensity], schedule: Sequence[float]
) -> EstimateSeries:
    """Maximum a posteriori trajectory readout over a filtered run.

    Picks the most probable cardinality at the final step (smallest count on
    ties), the best hypothesis of that cardinality, and follows its history
    prefix backward to the per-label mixtures at every earlier step.  Each
    label reports the mean and variance of the value coordinate of its
    highest-weight component at every depth where it is alive, so gaps left
    by missed detections are filled by the predicted density.
    """
    history = list(history)
    if not history:
        raise ValueError("empty filter history")
    if len(history) != len(schedule):
        raise ValueError("need exactly one density per scheduled depth")

    final = history[-1]
    rho = cardinality_distribution(final)
    n_star = int(np.argmax(rho))
    chosen = best_hypothesis_with_cardinality(final, n_star)

    per_label: dict[Label, list[tuple[int, float, float, float, float]]] = {}
    for t, density in enumerate(history):
        prefix = chosen.history[: t + 1]
        ancestor = None
        for h in density.hypotheses:
            if h.history == prefix:
                ancestor = h
                break
        if ancestor is None:
            raise ValueError(
                f"history prefix of the MAP hypothesis missing at step {t + 1}; "
                "densities were not produced by one filter run"
            )
        for lbl in ancestor.label_set:
            comp = ancestor.densities[lbl].dominant()
            per_label.setdefault(lbl, []).append(
                (
                    t + 1,
                    float(schedule[t]),
                    float(comp.mean[0]),
                    float(comp.mean[1]),
                    float(comp.covariance[0, 0]),
                )
            )

    tracks = []
    for lbl in sorted(per_label):
        rows = per_label[lbl]
        steps, depths, values, rates, variances = (np.array(col) for col in zip(*rows))
        tracks.append(
            TrackEstimate(
                label=lbl,
                steps=steps.astype(int),
                depths=depths,
                values=values,
                rates=rates,
                variances=variances,
            )
        )
    return EstimateSeries(
        depths=np.asarray(schedule, dtype=float),
        tracks=tuple(tracks),
        map_cardinality=n_star,
        map_log_weight=chosen.log_weight,
        hypothesis_counts=tuple(len(d.hypotheses) for d in history),
    )
