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

Every label carries one Gaussian, and a density is held as arrays (see
``lrfs.DensityArrays``).  The prior density's state rows are predicted and
scored in one table.  A label is (birth step, index) and a step's births
carry the next step, so they sort after every label the prior holds: the
step's label table is the prior's labels followed by the births, and a
parent's table row per label is its prior state row, widened by the birth
rows on a birth step (Vo & Vo 2013).  Under ranked truncation, a step of
two or more parents over at least one label, within the enumeration limit
(``batch_enumerable``), poses every parent over all labels of the step and
is enumerated as one stack by ``ranked_batch``: the parents share the
step's readings, so the numpy overhead is paid once per step, not once per
parent (Vo, Vo & Hoang 2017).  A label a parent lacks gets an absent row
whose only finite cell is 0.0 in column 0, which adds nothing to any score
and keeps the order of the parent's combinations.  Otherwise each parent
gets its own ``ranked_solutions`` call over the rows of its labels (a
single parent, no label, or beyond the enumeration limit), and Gibbs
parents their own ``gibbs_solutions`` call, whose generator is keyed on the
parent.  All children, as parent and score arrays in parent order, are
weighed, pruned and capped together.  Only then are solution columns
gathered, for the kept children alone: a stack's children are (problem,
combo) pairs until then, up to k per parent, of which the prune and cap
keep at most ``max_hypotheses``.  The kept children become the next
density's parent, outcome and state arrays.  No hypothesis object is built
unless a caller asks for one.

A numpy call costs about as much as a dozen float operations in Python, and
a one-label filter (independent mode) makes steps of one parent, one label
and at most one reading.  So three phases switch at ``_ROWS_AS_ARRAYS``:
the cost table on its row count, the prune and cap order on the children
generated, and the kept children's arrays on the kept child count.  Below
it, the table is filled row by row, the order is chosen, and the kept
children's cells are numbered and their posteriors written one by one, all
on Python floats; at or above it, they run as numpy arrays.  Both sides
apply the same operations in the same order, so they agree to the bit, and
both number state rows in order of first use.  Two phases stay in numpy at
every size.  Prediction does, because Python floats do not round
F P F' + Q as numpy's stacked matrix product does.  Weights do, because
``math.exp`` and ``np.exp`` differ in the last bit on some inputs and numpy
sums short arrays neither left to right nor first-plus-rest, so the
exponentials, logarithms and sums of ``log_sum_weights`` and the pruning
threshold keep their array calls.

Trajectories are read out by maximum a posteriori: pick the most probable
cardinality, the best hypothesis of that cardinality, and follow its parent
indices backward through the densities.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import Solutions, batch_enumerable, gibbs_solutions, ranked_batch, ranked_solutions
from .errors import FilterDivergenceError, InfeasibleAssociationError, WeightCollapseError
from .gaussian import (
    BROKEN_INNOVATION,
    LOG_2PI,
    Gaussian,
    MotionModel,
    SensorModel,
    _joseph,
    _measurement_variance,
    check_real,
    is_number,
    kalman_predict,
    kalman_update,
    kalman_update_rows,
    symmetrize,
    transition_matrices,
)
from .lrfs import (
    ABSENT,
    DensityArrays,
    GlmbDensity,
    Label,
    best_hypothesis_with_cardinality,
    cardinality_distribution,
    empty_density,
    log_sum_weights,
)

__all__ = [
    "BirthEntry",
    "BirthModel",
    "TruncationConfig",
    "build_log_cost",
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

# The row or child count at which the three phases the module docstring
# names move from Python floats to numpy arrays.  A pass over arrays makes
# some 10-30 numpy calls whatever its row count, as costly as about 15 rows
# of a loop over floats.  Most steps of a one-label filter fall below it,
# most joint-mode steps above.
_ROWS_AS_ARRAYS = 16

# Only the benchmark's tracer reads these names; the step calls none of them.
predict_mixture, mixture_log_likelihood, update_mixture, mixture_reduce = (
    kalman_predict, kalman_update, kalman_update, kalman_update
)


@dataclass(frozen=True)
class BirthEntry:
    label: Label
    r_birth: float
    density: Gaussian

    def __post_init__(self):
        if not is_number(self.r_birth) or not 0.0 <= self.r_birth <= 1.0:
            raise ValueError(f"r_birth={self.r_birth!r} must be a real number in [0, 1]")


@dataclass(frozen=True)
class BirthModel:
    """Bernoulli birth components injected at one step."""

    entries: tuple[BirthEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("birth labels must be distinct")


EMPTY_BIRTH = BirthModel()


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
        for name, low in (("requested_hypotheses", 1), ("gibbs_iterations", 1),
                          ("max_hypotheses", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_number(value, whole=True) or value < low:
                raise ValueError(f"{name}={value!r} must be an integer >= {low}")
        check_real(min_weight=self.min_weight)
        if not 0.0 <= self.min_weight <= 1.0:
            raise ValueError(f"min_weight must be finite and lie in [0, 1], got {self.min_weight}")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _log1m_exp(log_p: float) -> float:
    """log(1 - exp(log_p)) for log_p <= 0, stable near log_p = 0."""
    if log_p == -math.inf:
        return 0.0
    return _log(-math.expm1(log_p))


class _StepCosts:
    """Cost matrices of one filter step, each gathered from one table.

    The table has one row of [death, undetected, one per measurement] log
    factors per state row of the prior density (rows that several parents
    share are scored once), then one per birth.  One numpy pass predicts
    all prior rows over the interval; births enter as given.  The means go
    through ``einsum`` and the covariances through one stacked F P F' + Q
    product, which round as ``kalman_predict`` does (a matrix product on
    the stacked means does not, and neither do Python floats); the
    covariances are then symmetrized once, as the ``Gaussian`` constructor
    does.  A table of fewer than ``_ROWS_AS_ARRAYS`` rows is then filled
    row by row on Python floats, a larger one as numpy columns; both apply
    the same operations in the same order, so they agree to the bit.
    ``children`` switches the same way on the kept child count.

    The step's labels are the prior's labels followed by the births, sorted
    among themselves.  ``rows`` [H, L] holds each parent's table row per
    label of the step, or -1 where the parent lacks the label: on a
    birthless step it is the prior's state array itself, and on a birth
    step each prior row is followed by the birth rows.  A parent's cost
    matrix is a gather of its present rows.  A birth label that the prior
    holds, or that sorts before one of its labels, raises ValueError.
    """

    def __init__(
        self,
        prior: DensityArrays,
        birth: BirthModel,
        measurements: Sequence[float],
        motion: MotionModel,
        sensor: SensorModel,
        delta: float,
    ):
        self.z = [float(v) for v in measurements]
        if not all(map(math.isfinite, self.z)):
            raise ValueError(f"measurements must be finite, got {self.z}")
        self.f, self.q = transition_matrices(motion, delta)
        self.sensor = sensor

        births = sorted(birth.entries, key=lambda e: e.label)
        for e in births:
            if prior.labels and e.label <= prior.labels[-1]:
                if e.label in prior.labels:
                    raise ValueError(f"birth label {e.label} is already a label of the density")
                raise ValueError(
                    f"birth label {e.label} sorts before label {prior.labels[-1]} of the density"
                )
        n_prior, n_held = len(prior.means), len(prior.labels)
        self.labels = prior.labels + tuple(e.label for e in births)
        self.rows = prior.state
        if births:  # each prior row widened by the birth rows
            self.rows = np.empty((len(prior.state), len(self.labels)), dtype=int)
            self.rows[:, :n_held] = prior.state
            self.rows[:, n_held:] = range(n_prior, n_prior + len(births))

        means = np.einsum("ij,nj->ni", self.f, prior.means)
        covs = symmetrize(self.f @ prior.covs @ self.f.T + self.q)
        survive = _log(motion.p_survival)
        birth_alive = [_log(e.r_birth) for e in births]
        log_alive = [survive] * n_prior + birth_alive
        log_dead = [_log1m_exp(survive)] * n_prior + list(map(_log1m_exp, birth_alive))
        if births:
            means = np.concatenate([means, [e.density.mean for e in births]])
            covs = np.concatenate([covs, [e.density.covariance for e in births]])
        self._means, self._covs = means, covs
        log_miss = _log(1.0 - sensor.p_detect)
        log_detect = _log(sensor.p_detect)
        r = sensor.sigma_m**2
        log_kappa = max(sensor.log_clutter_intensity(), _LOG_KAPPA_FLOOR)
        width = 2 + len(self.z)
        # math.log, not np.log, on both paths: it rounds as the single-object
        # code does.
        if len(means) < _ROWS_AS_ARRAYS:
            table = []
            for alive, dead, (m0, _), ((p00, _), _) in zip(
                log_alive, log_dead, means.tolist(), covs.tolist()
            ):
                table.append([dead, alive + log_miss])
                if self.z:
                    s = p00 + r
                    if not s > 0:  # NaN too
                        raise FilterDivergenceError(BROKEN_INNOVATION.format(s))
                    log_s = math.log(s)
                    log_hit = alive + log_detect
                    table[-1] += [
                        log_hit + -0.5 * ((z - m0) * (z - m0) / s + LOG_2PI + log_s) - log_kappa
                        for z in self.z
                    ]
            self.table = np.array(table).reshape(-1, width)
        else:
            alive = np.array(log_alive)[:, None]
            self.table = np.empty((len(means), width))
            self.table[:, :1] = np.array(log_dead)[:, None]
            self.table[:, 1:2] = alive + log_miss
            if self.z:
                s = covs[:, 0, 0] + r
                low = s.min(initial=math.inf)  # NaN if any is; no rows: inf
                if not low > 0:
                    raise FilterDivergenceError(BROKEN_INNOVATION.format(low))
                log_s = np.array([math.log(v) for v in s.tolist()])
                innov = np.array(self.z) - means[:, :1]
                ll = -0.5 * (innov * innov / s[:, None] + LOG_2PI + log_s[:, None])
                self.table[:, 2:] = alive + log_detect + ll - log_kappa

    def children(
        self, parent: np.ndarray, solutions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Outcome and state arrays [H, L] of the children, given as parent
        indices [H] and solution columns [H, L] per label of the step (a
        column where the parent lacks the label is ignored), and the means
        [S, 2] and covariances [S, 2, 2] of the state.

        Solution column c of a row is outcome c - 1: column 0 is DEAD,
        column 1 UNDETECTED and keeps the row's predicted density, and
        column c >= 2 takes its posterior under measurement c - 2.  Every
        distinct (row, column) with a density is one state row, numbered in
        order of first use over the [H, L] cells in row-major order.  Fewer
        than ``_ROWS_AS_ARRAYS`` children are numbered by a loop over their
        cells and their state rows written one by one on Python floats, the
        posteriors by ``_joseph``; more go to ``_children_as_arrays``.  Both
        round as ``kalman_update`` does.
        """
        if len(parent) >= _ROWS_AS_ARRAYS:
            return self._children_as_arrays(parent, solutions)
        n_labels, width = len(self.labels), self.table.shape[1]
        slots: dict[int, int] = {}  # row * width + column -> state row
        # the [H, L] cells in row-major order
        n_cells = len(parent) * n_labels
        outcome, state = [ABSENT] * n_cells, [-1] * n_cells
        bases = range(0, n_cells, n_labels or 1)  # no labels: no cells to write
        rows = self.rows.tolist()
        for base, p_idx, solution in zip(bases, parent.tolist(), solutions.tolist()):
            for cell, row, col in zip(range(base, base + n_labels), rows[p_idx], solution):
                if row >= 0:
                    outcome[cell] = col - 1
                    if col >= 1:
                        state[cell] = slots.setdefault(row * width + col, len(slots))
        pred_means, pred_covs = self._means.tolist(), self._covs.tolist()
        # sigma_m is checked only where a posterior is taken, as kalman_update_rows does
        r = _measurement_variance(self.sensor) if any(k % width >= 2 for k in slots) else 0.0
        means, covs = [], []  # flat, row after row
        for key in slots:
            row, col = divmod(key, width)
            (m0, m1), ((p00, p01), (p10, p11)) = pred_means[row], pred_covs[row]
            if col >= 2:
                m0, m1, p00, p01, p11 = _joseph(r, m0, m1, p00, p01, p11, self.z[col - 2])
                p10 = p01
            means += (m0, m1)
            covs += (p00, p01, p10, p11)
        shape = (len(parent), n_labels)
        outcome, state = np.array(outcome, dtype=int), np.array(state, dtype=int)
        means, covs = np.array(means).reshape(-1, 2), np.array(covs).reshape(-1, 2, 2)
        return outcome.reshape(shape), state.reshape(shape), means, covs

    def _children_as_arrays(self, parent: np.ndarray, solutions: np.ndarray):
        """``children`` as array gathers: a scratch array the table's size holds
        each (row, column) key's first cell, a running count of first uses
        numbers the state rows, and one ``kalman_update_rows`` takes the posteriors."""
        rows = self.rows.take(parent, axis=0)
        width = self.table.shape[1]
        present = rows >= 0
        outcome = np.where(present, solutions - 1, ABSENT)
        kept = present & (solutions >= 1)
        cells = (rows * width + solutions)[kept]
        at = np.arange(cells.size)
        first = np.full(self.table.size, cells.size)
        np.minimum.at(first, cells, at)  # defined on repeated keys, unlike ``first[cells] = at``
        first = first[cells]  # each cell's key's first cell
        is_first = first == at
        state = np.full(rows.shape, -1)
        state[kept] = (np.cumsum(is_first) - 1)[first]
        rows, cols = np.divmod(cells[is_first], width)
        means, covs = self._means[rows], self._covs[rows]
        post = (cols >= 2).nonzero()[0]
        if post.size:
            z = np.array(self.z)[cols[post] - 2]
            means[post], covs[post] = kalman_update_rows(means[post], covs[post], z, self.sensor)
        return outcome, state, means, covs


def build_log_cost(
    glmb: GlmbDensity,
    birth: BirthModel,
    measurements: Sequence[float],
    motion: MotionModel,
    sensor: SensorModel,
    delta: float,
) -> np.ndarray:
    """Association cost matrix of a density's one hypothesis, as the filter
    scores it.

    Rows are the hypothesis's labels sorted, then the births sorted;
    columns are [death/not-born, undetected, one per measurement], as
    ``ranked_solutions`` and ``gibbs_solutions`` take them.  Surviving
    labels' densities are predicted over the interval before the
    measurement likelihoods are evaluated; birth densities enter as given.
    A density of any other hypothesis count, or a birth label that the
    density holds or that sorts before one of its labels, raises ValueError.
    """
    if len(glmb.hypotheses) != 1:
        raise ValueError(f"need a density of one hypothesis, got {len(glmb.hypotheses)}")
    costs = _StepCosts(glmb.hypotheses, birth, measurements, motion, sensor, delta)
    rows = costs.rows[0]
    return costs.table.take(rows[rows >= 0], axis=0)


def _truncate(values: np.ndarray, trunc: TruncationConfig, rng_key) -> Solutions:
    if trunc.method == "ranked":
        return ranked_solutions(values, trunc.requested_hypotheses)
    sols = gibbs_solutions(values, trunc.gibbs_iterations, np.random.default_rng(rng_key))
    # best first, ties broken on the solution's columns
    order = np.lexsort((*sols.cols.T[::-1], -sols.scores))[: trunc.requested_hypotheses]
    return Solutions(sols.cols[order], sols.scores[order])


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
    solved as one stack or one by one (see the module docstring), to the
    same solutions.  Children are weighed as one array in parent order, then
    pruned and capped, on Python floats when they are fewer than
    ``_ROWS_AS_ARRAYS``; the array cap sorts only the children that reach
    its last weight.  The kept ones, and only they, get solution columns and
    become the arrays of the returned density, which points back at
    ``glmb``.  The result does not depend on
    scheduling.  Non-finite measurements, and birth labels that do not carry
    the next step, that the density already holds or that sort before one
    of its labels, raise ValueError.
    """
    if not glmb.hypotheses:
        raise WeightCollapseError("cannot step a density with no hypotheses")
    next_step = glmb.step + 1
    prior = glmb.hypotheses
    for entry in birth.entries:
        if entry.label.birth_step != next_step:
            raise ValueError(
                f"birth label {entry.label} does not carry birth step {next_step}"
            )
    costs = _StepCosts(prior, birth, measurements, motion, sensor, delta)

    n_labels, width = len(costs.labels), costs.table.shape[1]
    # The children's parent and score arrays, and ``columns``, which gathers
    # the solution columns (per label of the step) of the children at the
    # given indices; it is called for the kept children only.
    if trunc.method == "ranked" and batch_enumerable(len(costs.rows), n_labels, width):
        absent = [0.0] + [-math.inf] * (width - 1)  # row -1, for labels a parent lacks
        table = np.concatenate([costs.table, [absent]])
        stack = ranked_batch(table.take(costs.rows, axis=0), trunc.requested_hypotheses)
        parent, scores, columns = stack.problem, stack.scores, stack.columns
    else:
        blocks = []  # (parent, score, columns) of each parent's children, parents ascending
        for p_idx, rows in enumerate(costs.rows.tolist()):
            present = [c for c, row in enumerate(rows) if row >= 0]
            values = costs.table.take([rows[c] for c in present], axis=0)
            try:
                sols = _truncate(values, trunc, (trunc.seed, glmb.step, p_idx))
            except InfeasibleAssociationError:
                continue
            cols = sols.cols
            if len(present) < n_labels:  # widen; ``children`` ignores absent labels' columns
                cols = np.zeros((len(sols), n_labels), dtype=cols.dtype)
                cols[:, present] = sols.cols
            blocks.append((np.array([p_idx] * len(sols)), sols.scores, cols))
        if len(blocks) > 1:
            blocks = [tuple(np.concatenate(part) for part in zip(*blocks))]
        parent, scores, cols = blocks[0] if blocks else (np.zeros(0, dtype=int),) * 3
        columns = functools.partial(cols.take, axis=0)
    if not len(parent):
        raise InfeasibleAssociationError(
            "truncation produced no valid association map; "
            "check clutter rate, detection and survival probabilities"
        )
    logw = prior.log_weights.take(parent) + scores
    norm = logw - log_sum_weights(logw)
    weights = np.exp(norm)
    if len(norm) < _ROWS_AS_ARRAYS:
        norm_l = norm.tolist()
        keep = [c for c, w in enumerate(weights.tolist()) if w >= trunc.min_weight]
        if not keep:
            keep = [max(range(len(norm_l)), key=norm_l.__getitem__)]
        order = sorted(keep, key=lambda c: -norm_l[c])[: trunc.max_hypotheses]
        kept = np.array([norm_l[c] for c in order])
    else:
        keep = (weights >= trunc.min_weight).nonzero()[0]
        if keep.size == 0:
            keep = np.array([int(np.argmax(norm))])
        top = norm[keep]
        cut = keep.size - trunc.max_hypotheses
        if cut > 0:  # only children at or above the cap's last weight, ties too, can stay
            best = top >= np.partition(top, cut)[cut]
            keep, top = keep[best], top[best]
        order = keep[np.argsort(-top, kind="stable")][: trunc.max_hypotheses]
        kept = norm[order]
    final_logw = kept - log_sum_weights(kept)

    parent = parent.take(order)
    outcome, state, means, covs = costs.children(parent, columns(order))
    arrays = DensityArrays(
        log_weights=final_logw,
        labels=costs.labels,
        state=state,
        means=means,
        covs=covs,
        prior=glmb,
        parent=parent,
        outcome=outcome,
    )
    return GlmbDensity(arrays, next_step)


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
    """Per-depth state readout for one label along the MAP hypothesis, and
    the property the run paired the label with (None: paired by value)."""

    label: Label
    steps: np.ndarray
    depths: np.ndarray
    values: np.ndarray
    rates: np.ndarray
    variances: np.ndarray
    prop: str | None = None


@dataclass(frozen=True)
class EstimateSeries:
    """MAP trajectory readout, each track on its own steps, plus run metrics."""

    tracks: tuple[TrackEstimate, ...]
    map_cardinality: int
    map_log_weight: float
    hypothesis_counts: tuple[int, ...]


def extract_map_trajectories(
    history: Sequence[GlmbDensity], schedule: Sequence[float]
) -> EstimateSeries:
    """Maximum a posteriori trajectory readout over a filtered run.

    Picks the most probable cardinality at the final step (smallest count on
    ties) and the best hypothesis of that cardinality, then follows parent
    indices backward to its ancestor, and that ancestor's per-label
    Gaussians, at every earlier step.  Each label reports the mean and
    variance of the value coordinate of its Gaussian at every depth where it
    is alive, so gaps left by missed detections are filled by the predicted
    density.
    """
    history = list(history)
    if not history:
        raise ValueError("empty filter history")
    if len(history) != len(schedule):
        raise ValueError("need exactly one density per scheduled depth")

    final = history[-1]
    rho = cardinality_distribution(final)
    n_star = int(np.argmax(rho))
    index = best_hypothesis_with_cardinality(final, n_star)
    map_log_weight = float(final.hypotheses.log_weights[index])

    per_label: dict[Label, list[tuple[int, float, float, float, float]]] = {}
    for t in range(len(history) - 1, -1, -1):
        a = history[t].hypotheses
        for lbl, row in zip(a.labels, a.state[index].tolist()):
            if row >= 0:
                (value, rate), (variance, _) = a.means[row].tolist(), a.covs[row, 0].tolist()
                per_label.setdefault(lbl, []).append(
                    (t + 1, float(schedule[t]), value, rate, variance)
                )
        if t:
            if a.prior is not history[t - 1]:
                raise ValueError(
                    f"the density of step {t + 1} was not stepped from the one before it; "
                    "densities were not produced by one filter run"
                )
            index = a.parent[index]

    tracks = []
    for lbl in sorted(per_label):
        rows = per_label[lbl][::-1]
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
        tracks=tuple(tracks),
        map_cardinality=n_star,
        map_log_weight=map_log_weight,
        hypothesis_counts=tuple(len(d.hypotheses) for d in history),
    )
