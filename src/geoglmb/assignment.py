"""Ranked and sampled solutions of the per-step association problem.

A problem instance is a log-score matrix with one row per label and columns
[0] death/not-born, [1] undetected, [2+j] measurement j.  A solution picks
one column per row, measurement columns at most once; its score is the sum
of the picked entries (maximize).  Entries of -inf mark forbidden outcomes.
Ranked truncation enumerates stacks of problems (``ranked_batch``), a wide
stack narrowed first by an exact bound on each problem's k-th best score,
as Miller, Stone & Cox (1997) bound Murty's subproblems.

The solvers return ``Solutions``: arrays of one row of column indices and
one score per solution, best first for the ranked solvers.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleAssociationError

__all__ = ["Solutions", "murty_kbest", "ranked_solutions", "gibbs_solutions"]

# Ranked truncation enumerates up to this many combinations (n_cols **
# n_rows), Murty beyond.  Single random problems near it at k = 64 (2-core
# x86): enumeration 0.4-1.6 ms at 3-5 rows, Murty 1.7-3.4 ms; at 2 x 128 its
# sort took 1.5-1.9 ms, Murty 1.1-1.7.  No workload poses such a problem.
# Same-shape problems within it may be enumerated as one stack.
_ENUMERATION_LIMIT = 16384

# A problem enumerated alone scores fewer valid combinations than this one
# by one on Python floats.  At k = 64 (2-core x86) the array pass (about 15
# numpy calls, two more per row) took 19-25 us at 6 to 44 combinations, and
# the loop about 0.7 us per combination: 6-16 us at 6-22, 22 us at 1 x 30
# (30) and at 3 x 3 (20), but 20.5 against 19.2 us at 2 x 6 (32).
_FEW_COMBOS = 32

# ``ranked_batch`` scores a stack in chunks of at most this many scores
# (problems x combinations), which bounds its memory: a chunk's score and
# cell buffers are allocated once per stack and refilled chunk after chunk.
_BATCH_CELLS = 2**14

# ``ranked_batch`` bounds wider stacks from their rows' top this-many columns.
# On 3 rows at k = 64, 4 left most problems unbounded: slower than no bound.
_BOUND_WIDTH = 5

# The Gibbs chain draws its uniforms in blocks of at most this many doubles.
_BLOCK = 4096
# Gibbs table entry of a row whose candidates all weigh 0; falsy, like an
# entry not yet built.
_SKIP = ()


class Solutions:
    """Solutions of one problem as arrays: ``cols`` (K x rows, intp) holds
    each solution's column per row and ``scores`` (K,) its score.

    Iterates as ``(tuple of columns, score)`` pairs of Python ints and
    floats; read anything else from the arrays.
    """

    __slots__ = ("cols", "scores")

    def __init__(self, cols: np.ndarray, scores: np.ndarray):
        self.cols = cols
        self.scores = scores

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return zip(map(tuple, self.cols.tolist()), self.scores.tolist())


def solution_score(cost, solution) -> float:
    """0.0 plus the solution's cells added left to right in row order, as
    ``ranked_batch`` adds them; ``cost`` is the matrix or its ``tolist()``.  A
    loop: from Python 3.12 the builtin ``sum`` compensates floats (Neumaier)."""
    score = 0.0
    for row, c in zip(cost, solution):
        score += row[c]
    return score


# Valid column combinations depend only on the matrix shape; cache them.
@functools.cache
def _valid_combos(n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, N) table of the combinations in which no two rows share a
    measurement column (>= 2), in lexicographic product order.  No rows: one
    empty combination, (0, 1)."""
    grid = np.indices((n_cols,) * n_rows, dtype=np.intp).reshape(n_rows, n_cols**n_rows)
    valid = np.ones(grid.shape[1], dtype=bool)
    for i in range(1, n_rows):
        for j in range(i):
            valid &= (grid[i] < 2) | (grid[i] != grid[j])
    return grid.compress(valid, axis=1)


def _from_pairs(pairs: list[tuple[tuple[int, ...], float]], n_rows: int) -> Solutions:
    cols = np.array([sol for sol, _ in pairs], dtype=np.intp).reshape(len(pairs), n_rows)
    return Solutions(cols, np.array([score for _, score in pairs], dtype=float))


def _enumerate_scored(cost: np.ndarray, k: int) -> Solutions:
    """The k best feasible combos, best first, as ``ranked_batch`` picks
    them.  Fewer than ``_FEW_COMBOS`` combos are each scored on Python floats
    by ``solution_score`` and stably sorted, to the same result.
    """
    table = _valid_combos(*cost.shape)
    if table.shape[1] < _FEW_COMBOS:
        rows = cost.tolist()
        sums = [solution_score(rows, combo) for combo in table.T.tolist()]
        feasible = [i for i, score in enumerate(sums) if math.isfinite(score)]
        order = sorted(feasible, key=lambda i: -sums[i])[:k]
        return Solutions(table.T.take(order, axis=0), np.array([sums[i] for i in order]))
    ranked = ranked_batch(cost[None], k)
    return Solutions(ranked.columns(), ranked.scores)


def batch_enumerable(n_problems: int, n_rows: int, n_cols: int) -> bool:
    """Whether ``ranked_batch`` solves these same-shape problems (a step's
    parents, each over the step's labels) as one stack rather than one
    ``ranked_solutions`` call each: two or more problems of at least one
    row, within the enumeration limit."""
    return n_problems >= 2 and n_rows >= 1 and n_cols**n_rows <= _ENUMERATION_LIMIT


class RankedBatch(NamedTuple):
    """``ranked_batch``'s entries: flat problem index ``problem`` [N], score
    ``scores`` [N] and ``combo`` [N], the entry's column of ``table``, the
    combo table [R, n] of the width enumerated.  ``kept`` [width] holds a
    narrowed stack's enumerated columns, ascending (None: not narrowed).
    ``columns`` gathers entries' columns."""

    problem: np.ndarray
    scores: np.ndarray
    combo: np.ndarray
    table: np.ndarray
    kept: np.ndarray | None = None

    def columns(self, index=None) -> np.ndarray:
        """Columns [len(index), R] (intp) of the entries at ``index``, in any
        order and with repeats (every entry if None)."""
        combo = self.combo if index is None else self.combo.take(index)
        cols = self.table.T.take(combo, axis=0)
        return cols if self.kept is None else self.kept.take(cols)


def ranked_batch(costs: np.ndarray, k: int) -> RankedBatch:
    """The k best feasible combos of each matrix of a stack [P, R, C]: flat
    problem index, score and combo of each, problem by problem, best first
    within each.  A problem with no feasible combo has no entry.  Columns
    [R] are gathered only for the entries a caller asks for
    (``RankedBatch.columns``).

    A combo scores 0.0 plus its cells in row order, as ``solution_score``
    sums them.  A problem's entries are the first k of one stable sort of
    all its combos on descending score, -inf dropped, so ties keep the
    lexicographic product order and do not depend on the rest of the stack.
    Problems are scored in chunks of at most ``_BATCH_CELLS``, in buffers
    that live for the stack, and each chunk's picks are written into the
    stack's [P, min(k, combos)] arrays.

    A stack wider than ``_BOUND_WIDTH`` columns, if ``_BOUND_WIDTH ** R >= k``,
    is narrowed first.  A problem's bound is its k-th best feasible combo over
    its rows' top ``_BOUND_WIDTH`` columns (score descending, then column),
    if it has k.  A column stays if its cell in some row plus the other rows'
    maxima reaches the bound less a slack far above rounding, as do columns
    0 and 1.  The union of kept columns, ascending, with each problem's own
    dropped ones at -inf, enumerates to the same picks, order and score bits.
    """
    n_problems, n_rows, n_cols = costs.shape
    if n_cols <= _BOUND_WIDTH or _BOUND_WIDTH**n_rows < k:
        return _ranked_kernel(costs, k)
    size = max(1, _BATCH_CELLS // _BOUND_WIDTH**n_rows)
    keep = np.concatenate([_kept_columns(costs[lo : lo + size], k)
                           for lo in range(0, n_problems, size)])
    kept = keep.any(axis=0).nonzero()[0]
    narrow = np.where(keep[:, None, kept], costs.take(kept, axis=2), -np.inf)
    return _ranked_kernel(narrow, k)._replace(kept=kept)


def _kept_columns(costs: np.ndarray, k: int) -> np.ndarray:
    """Which columns [P, C] a combo reaching its problem's bound may use."""
    n_problems, n_rows, _ = costs.shape
    top = np.argsort(-costs, axis=2, kind="stable")[:, :, :_BOUND_WIDTH]
    cells = np.take_along_axis(costs, top, axis=2)
    # The top columns' combos, one axis per row, scored as 0.0 plus their cells
    # in row order; one whose row i repeats an earlier row's measurement is -inf.
    scores, placed = np.zeros(n_problems), []  # placed: earlier rows' columns
    for i in range(n_rows):
        shape = (n_problems,) + (1,) * i + (-1,)
        scores = scores[..., None] + cells[:, i].reshape(shape)
        col = top[:, i].reshape(shape)
        placed = [c[..., None] for c in placed]
        np.copyto(scores, -np.inf, where=(col >= 2) & (sum(c == col for c in placed) > 0))
        placed.append(col)
    bound = np.partition(scores.reshape(n_problems, -1), -k, axis=1)[:, -k]  # -inf: none
    rowmax = costs.max(axis=2)
    floor = bound - 1e-9 * (1.0 + np.abs(rowmax).sum(axis=1) + np.abs(bound))
    # The other rows' maxima are summed, not all rows' less this one's: a
    # whole -inf row makes that NaN.
    reach = np.max([costs[:, r] + np.delete(rowmax, r, axis=1).sum(axis=1, keepdims=True)
                    for r in range(n_rows)], axis=0)
    keep = reach >= floor[:, None]
    keep[:, :2] = True
    return keep


def _ranked_kernel(costs: np.ndarray, k: int) -> RankedBatch:
    """``ranked_batch`` over every column of the stack.  A chunk's scores
    are negated in place for the sort and its picks negated back, both
    exact."""
    n_problems, n_rows, n_cols = costs.shape
    table = _valid_combos(n_rows, n_cols)
    n_combos = table.shape[1]
    size = max(1, min(n_problems, _BATCH_CELLS // n_combos))
    width = min(k, n_combos)
    neg, cells = np.empty((size, n_combos)), np.empty((size, n_combos))
    order, top = np.empty((n_problems, width), dtype=np.intp), np.empty((n_problems, width))
    for lo in range(0, n_problems, size):
        chunk = costs[lo : lo + size]
        scores, row = neg[: len(chunk)], cells[: len(chunk)]
        scores.fill(0.0)
        for i, cols in enumerate(table):
            # mode="clip" (the indices are in range): with "raise", np.take
            # writes through a temporary copy of ``out``
            np.take(chunk[:, i], cols, axis=1, out=row, mode="clip")
            scores += row
        np.negative(scores, out=scores)
        picks = order[lo : lo + size]
        picks[:] = np.argsort(scores, axis=1, kind="stable")[:, :width]
        np.negative(np.take_along_axis(scores, picks, axis=1), out=top[lo : lo + size])
    del neg, cells, scores, row  # the chunk buffers go before the picks are compacted
    feasible = top > -np.inf
    return RankedBatch(feasible.nonzero()[0], top[feasible], order[feasible], table)


def _extended_matrix(cost: np.ndarray) -> np.ndarray:
    """Rectangular form with per-row copies of the two shared outcome columns.

    Row i may use column i (death), n+i (undetected), or 2n+j (measurement j);
    every column is then exclusive and the Hungarian algorithm applies.
    """
    n, n_cols = cost.shape
    m = n_cols - 2
    ext = np.full((n, 2 * n + m), -np.inf)
    idx = np.arange(n)
    ext[idx, idx] = cost[:, 0]
    ext[idx, n + idx] = cost[:, 1]
    ext[:, 2 * n :] = cost[:, 2:]
    return ext


def _collapse(ext_solution: np.ndarray, n: int) -> tuple[int, ...]:
    return tuple(0 if c < n else 1 if c < 2 * n else c - 2 * n + 2 for c in ext_solution.tolist())


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False):
    """scipy's solver, imported at first call: that import is most of
    ``import geoglmb``.  Murty and ``evaluation._ospa_of_distances`` call it;
    runs reach the latter through each trial's metrics.  A CLI run's pool
    workers compute each trial's OSPA, so every worker imports it unless the
    main process did before the pool forked them, as glmbbench's untimed CLI
    warm-up run does."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost, maximize=maximize)


def _best_assignment(work: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Optimal row-to-column assignment of work avoiding its -inf cells and
    its ``solution_score``, or None when every assignment uses one."""
    try:
        _, cols = linear_sum_assignment(work, maximize=True)  # rows: every row, ascending
    except ValueError:  # scipy: "cost matrix is infeasible"
        return None
    return cols, solution_score(work, cols)


def murty_kbest(cost: np.ndarray, k: int) -> Solutions:
    """The k best solutions by Murty's partitioning of the assignment space.

    Exact and sorted by descending score; ties break on the lexicographic
    encoding of the solution tuple.  Returns fewer than k entries when the
    feasible set is smaller.  Forbidden (non-finite) cells stay -inf in every
    subproblem, and scipy reports a subproblem that cannot avoid them infeasible.
    """
    n = cost.shape[0]
    ext = _extended_matrix(cost)
    finite = np.isfinite(ext)
    root = np.where(finite, ext, -np.inf)
    # A Hungarian optimum can miss its subproblem's best row-order sum by
    # rounding, so a found solution is final only once it beats every queued
    # optimum by more than a slack far above that rounding (inf with no finite cell).
    lo, hi = float(ext[finite].min(initial=np.inf)), float(ext[finite].max(initial=-np.inf))
    slack = 1e-9 * abs(lo - (hi - lo + 1.0) * (n + 1))
    queue, counter = [], itertools.count()

    def push(node: np.ndarray) -> None:  # queue node's optimum, if it has one
        best = _best_assignment(node)
        if best is not None:
            cols, score = best
            heapq.heappush(queue, (-score, _collapse(cols, n), next(counter), node, cols))

    push(root)
    found: list[tuple[float, tuple[int, ...]]] = []
    out: list[tuple[tuple[int, ...], float]] = []
    while len(out) < k and (queue or found):
        if found and (not queue or found[0][0] < queue[0][0] - slack):
            neg, encoded = heapq.heappop(found)
            out.append((encoded, -neg))
            continue
        neg, encoded, _, node, sol_cols = heapq.heappop(queue)
        heapq.heappush(found, (neg, encoded))
        # Child t forbids this solution's cell in row t and keeps its cells
        # in rows before t.
        fixed = node.copy()
        for t in range(n):
            child = fixed.copy()
            child[t, sol_cols[t]] = -np.inf
            push(child)
            keep = fixed[t, sol_cols[t]]
            fixed[t, :] = -np.inf
            fixed[t, sol_cols[t]] = keep
    return _from_pairs(out, n)


def ranked_solutions(cost: np.ndarray, k: int) -> Solutions:
    """Exact k-best solutions; enumerates outright when the space is small."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_rows, n_cols = cost.shape
    if n_cols**n_rows <= _ENUMERATION_LIMIT:
        sols = _enumerate_scored(cost, k)
    else:
        sols = murty_kbest(cost, k)
    if not sols:
        raise InfeasibleAssociationError("no feasible association for cost matrix")
    return sols


def gibbs_solutions(
    cost: np.ndarray, iterations: int, rng: np.random.Generator
) -> Solutions:
    """Distinct solutions visited by a Gibbs sweep over rows, in first-visit order.

    Each row is resampled in turn from its conditional (candidate columns =
    both shared outcomes plus measurements unused by other rows), so the
    chain targets the normalized solution scores; every state the chain
    passes through is recorded.  The initializing solution (per-row best of
    death/undetected columns, else the best ranked one) is always part of the
    output.  A row whose candidates all weigh 0 keeps its column and uses no
    draw.

    The chain runs over integer state ids.  A row's conditional depends only
    on the current state, so it is built the first time the chain reaches
    that (state, row) pair and cached: the cumulative candidate weights,
    summed in column order, and each candidate's successor state once a
    draw has picked it.  Later draws there are a bisection and a lookup.

    A one-row chain never takes a column, so its conditional never depends
    on the state: its visited columns are one search of the same uniforms
    over one cumulative-weight list, block by block.  Its total is at least
    1 (the best finite cell weighs exp(0)), so no visit is skipped.

    The output is fixed by the generator state on entry: the k-th uniform
    used is the k-th double the generator yields.  Uniforms are drawn in
    blocks, so the generator's state after the call is not part of the
    contract.  ``filter._truncate`` seeds a fresh generator per call, so the
    filter never reuses it.
    """
    n, n_cols = cost.shape
    rows = cost.tolist()
    no_meas = np.argmax(cost[:, :2], axis=1)  # picks a NaN cell; Python comparisons do not
    init = tuple(no_meas.tolist())
    if not math.isfinite(solution_score(rows, init)):
        init = tuple(ranked_solutions(cost, 1).cols[0].tolist())

    # Row-wise max-shifted exponentials, precomputed; -inf maps to 0 weight.
    exp_rows = []
    for row in rows:
        finite = [v for v in row if math.isfinite(v)]
        shift = max(finite) if finite else 0.0
        exp_rows.append([math.exp(v - shift) if math.isfinite(v) else 0.0 for v in row])

    if n == 1:
        # The chain's sums (0.0 + w0 is w0); a draw landing on the total by
        # rounding picks the last column, as the chain's repeated last entry.
        cum = list(itertools.accumulate(exp_rows[0]))
        search, total = np.array(cum), cum[-1]
        seen = dict.fromkeys(init)
        steps = max(iterations, 0)
        while steps:
            block = rng.random(min(steps, _BLOCK))
            steps -= len(block)
            picks = np.searchsorted(search, block * total, side="right")
            seen.update(dict.fromkeys(np.minimum(picks, n_cols - 1).tolist()))
        visited = [(c,) for c in seen]
    else:
        visited = _gibbs_chain(exp_rows, init, n_cols, iterations, rng)
    return _from_pairs([(sol, solution_score(rows, sol)) for sol in visited], n)


def _gibbs_chain(
    exp_rows: list[list[float]],
    init: tuple[int, ...],
    n_cols: int,
    iterations: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """The distinct states of the Gibbs chain from ``init``, in first-visit
    order, for every row count but one (``gibbs_solutions`` samples one row).

    A chain position is ``key = sid * n + i``: state ``sid`` about to
    resample row ``i``.  ``table[key]`` is None until built, ``_SKIP`` when
    the row's candidates all weigh 0 (the state stays, no uniform is used),
    else (cumulative weights, total, next keys, candidate columns).  A next
    key is -1 until a draw first picks that candidate.  The next lists
    repeat their last entry, so a draw landing on the total by rounding
    picks the last candidate.  States are numbered as the chain first
    enters them, so ``states`` is the output.
    """
    n = len(init)
    states = [init]
    state_id = {init: 0}
    table: list = [None] * n

    def conditional(key: int):
        sid, i = divmod(key, n)
        taken = {c for j, c in enumerate(states[sid]) if j != i and c >= 2}
        weights = exp_rows[i]
        total = 0.0
        cum, cols = [], []
        for c in range(n_cols):  # taken holds measurement columns only
            if c not in taken:
                total += weights[c]
                cum.append(total)
                cols.append(c)
        if total <= 0.0:
            return _SKIP
        cols.append(cols[-1])
        return cum, total, [-1] * len(cols), cols

    def enter(key: int, c: int) -> int:
        sid, i = divmod(key, n)
        state = states[sid]
        nxt = state[:i] + (c,) + state[i + 1 :]
        k = state_id.get(nxt)
        if k is None:
            k = state_id[nxt] = len(states)
            states.append(nxt)
            table.extend([None] * n)
        return k * n + (i + 1) % n

    key = 0
    steps = max(iterations, 0) * n  # row visits not yet covered by a drawn uniform
    while steps:
        block = rng.random(min(steps, _BLOCK)).tolist()
        steps -= len(block)
        for pos, u in enumerate(block):
            entry = table[key]
            while not entry:
                if entry is None:
                    entry = table[key] = conditional(key)
                    continue
                # Skipped row: one row visit, no uniform.  It is paid from
                # the visits beyond this block, else by the block's last
                # uniform; with none left for this one, the chain is done.
                key = key + 1 if (key + 1) % n else key + 1 - n
                entry = table[key]
                if steps:
                    steps -= 1
                else:
                    block.pop()
                    if pos == len(block):
                        return states
            cum, total, keys, cols = entry
            j = bisect.bisect_right(cum, u * total)
            nxt = keys[j]
            if nxt < 0:
                nxt = keys[j] = enter(key, cols[j])
            key = nxt
    return states
