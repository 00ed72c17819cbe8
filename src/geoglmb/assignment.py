"""Ranked and sampled solutions of the per-step association problem.

A problem instance is a log-score matrix with one row per label and columns
[0] death/not-born, [1] undetected, [2+j] measurement j.  A solution picks
one column per row, measurement columns at most once; its score is the sum
of the picked entries (maximize).  Entries of -inf mark forbidden outcomes.

The solvers return a ``Solutions`` sequence: one row of column indices per
solution and one score per solution, best first for the ranked solvers.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections.abc import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InfeasibleAssociationError

__all__ = ["Solutions", "murty_kbest", "ranked_solutions", "gibbs_solutions"]

# Ranked truncation enumerates up to this many combinations (n_cols **
# n_rows), Murty beyond: at k = 64, 2-5 rows, warm enumeration won at every
# size up to here on every machine measured, as Murty's fixed cost per
# subproblem dominates small problems (Miller, Stone & Cox 1997).
# Same-shape problems within it may be enumerated as one stack.
_ENUMERATION_LIMIT = 16384

# A problem enumerated alone scores fewer valid combinations than this one
# by one on Python floats: a dozen numpy calls cost as much as about 8
# combinations of that loop (one- and two-label problems with few readings).
_FEW_COMBOS = 8

# ``ranked_batch`` takes a step's problems, all posed over the step's labels,
# from this many scores (problems x combinations) on.  A stack of up to a few
# hundred scores costs about as much as two or three problems solved alone
# (its two dozen numpy calls), so a pair of one-label problems (independent
# mode) is solved alone.  A stack is scored in chunks of at most _BATCH_CELLS
# scores, which bounds its memory.
_BATCH_MIN_CELLS = 24
_BATCH_CELLS = 2**14

# The Gibbs chain draws its uniforms in blocks of at most this many doubles.
_BLOCK = 4096
# Gibbs table entry of a row whose candidates all weigh 0; falsy, like an
# entry not yet built.
_SKIP = ()


class Solutions(Sequence):
    """Solutions of one problem as arrays: ``cols`` (K x rows, intp) holds
    each solution's column per row and ``scores`` (K,) its score.

    Indexes and iterates as ``(tuple of columns, score)`` pairs of Python
    ints and floats, slices to ``Solutions``, and compares equal to the list
    of those pairs.
    """

    __slots__ = ("cols", "scores")

    def __init__(self, cols: np.ndarray, scores: np.ndarray):
        self.cols = cols
        self.scores = scores

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Solutions(self.cols[i], self.scores[i])
        return tuple(self.cols[i].tolist()), float(self.scores[i])

    def __iter__(self):
        return zip(map(tuple, self.cols.tolist()), self.scores.tolist())

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, Solutions) else other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Solutions({list(self)!r})"


def solution_score(cost: np.ndarray, solution: tuple[int, ...]) -> float:
    return float(sum(cost[i, c] for i, c in enumerate(solution)))


# Valid column combinations depend only on the matrix shape; cache them.
_combo_cache: dict[tuple[int, int], np.ndarray] = {}


def _valid_combos(n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, N) table of the combinations in which no two rows share a
    measurement column (>= 2), in lexicographic product order."""
    key = (n_rows, n_cols)
    hit = _combo_cache.get(key)
    if hit is None:
        grid = np.indices((n_cols,) * n_rows, dtype=np.intp).reshape(n_rows, -1)
        valid = np.ones(grid.shape[1], dtype=bool)
        for i in range(1, n_rows):
            for j in range(i):
                valid &= (grid[i] < 2) | (grid[i] != grid[j])
        hit = _combo_cache[key] = grid.compress(valid, axis=1)
    return hit


def _pack(pairs: list[tuple[tuple[int, ...], float]], n_rows: int) -> Solutions:
    cols = np.array([sol for sol, _ in pairs], dtype=np.intp).reshape(len(pairs), n_rows)
    return Solutions(cols, np.array([score for _, score in pairs], dtype=float))


def _enumerate_scored(cost: np.ndarray, k: int) -> Solutions:
    """The k best feasible combos, best first, as ``ranked_batch`` picks
    them.  Fewer than ``_FEW_COMBOS`` combos, when k takes them all, are
    summed on Python floats in the same order and stably sorted, to the
    same result.
    """
    table = _valid_combos(*cost.shape)
    if table.shape[1] < _FEW_COMBOS and table.shape[1] <= k:
        rows = cost.tolist()
        sums = []
        for combo in table.T.tolist():
            score = 0.0
            for row, col in zip(rows, combo):
                score += row[col]
            sums.append(score)
        feasible = [i for i, score in enumerate(sums) if math.isfinite(score)]
        order = sorted(feasible, key=lambda i: -sums[i])
        return Solutions(table.T.take(order, axis=0), np.array([sums[i] for i in order]))
    _, scores, cols = ranked_batch(cost[None], k)
    return Solutions(cols, scores)


def batch_enumerable(n_problems: int, n_rows: int, n_cols: int) -> bool:
    """Whether ``ranked_batch`` should solve these same-shape problems (a
    step's parents, each over the step's labels) together rather than one
    ``ranked_solutions`` call each."""
    if n_problems < 2 or n_rows < 1 or n_cols**n_rows > _ENUMERATION_LIMIT:
        return False
    return n_problems * _valid_combos(n_rows, n_cols).shape[1] >= _BATCH_MIN_CELLS


def ranked_batch(costs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k best feasible combos of each matrix of a stack [P, R, C]: flat
    problem index, score and columns [R] of each, problem by problem, best
    first within each.  A problem with no feasible combo has no entry.

    A combo scores 0.0 plus its cells in row order, as ``solution_score``
    sums them.  Ties break on the lexicographic product order, as a stable
    sort on descending score over all combos would: the top k are picked
    with a partition, ties at the k-th score filled in combo order, then
    sorted.  So a problem's entries do not depend on the others in the
    stack.  Problems are scored in chunks of at most ``_BATCH_CELLS``.
    """
    n_problems, n_rows, n_cols = costs.shape
    table = _valid_combos(n_rows, n_cols)
    n_combos = table.shape[1]
    size = max(1, _BATCH_CELLS // n_combos)
    parts = []
    for lo in range(0, n_problems, size):
        chunk = costs[lo : lo + size]
        scores = np.zeros((len(chunk), n_combos))
        for i, cols in enumerate(table):
            scores += chunk[:, i].take(cols, axis=1)
        top = scores > -np.inf
        if k < n_combos:
            kth = np.partition(scores, n_combos - k, axis=1)[:, n_combos - k, None]
            ties = top & (scores == kth)
            top &= scores > kth
            top |= ties & (ties.cumsum(axis=1) <= k - top.sum(axis=1)[:, None])
        # Each problem's picks, packed into a row padded with +inf, are
        # ordered by one stable row-wise sort of their negated scores.
        picked = np.flatnonzero(top)
        counts = top.sum(axis=1)
        starts = counts.cumsum() - counts
        local = picked // n_combos
        packed = np.full((len(chunk), counts.max()), np.inf)
        packed[local, np.arange(len(picked)) - starts.take(local)] = -scores.take(picked)
        order = packed.argsort(axis=1, kind="stable") + starts[:, None]
        picked = picked.take(order[np.arange(packed.shape[1]) < counts[:, None]])
        parts.append((picked // n_combos + lo, scores.take(picked), picked % n_combos))
    problem, scores, combo = (np.concatenate(part) for part in zip(*parts))
    return problem, scores, table.T.take(combo, axis=0)


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


def _best_assignment(work: np.ndarray, sentinel: float) -> tuple[np.ndarray, float] | None:
    """Optimal row-to-column assignment of work and its cells' sum in row
    order, or None when it uses a forbidden (sentinel) cell."""
    rows, cols = linear_sum_assignment(work, maximize=True)
    picked = work[rows, cols].tolist()
    return None if sentinel in picked else (cols, sum(picked))


def murty_kbest(cost: np.ndarray, k: int) -> Solutions:
    """The k best solutions by Murty's partitioning of the assignment space.

    Exact and sorted by descending score; ties break on the lexicographic
    encoding of the solution tuple.  Returns fewer than k entries when the
    feasible set is smaller.
    """
    n = cost.shape[0]
    if n == 0:
        return _pack([((), 0.0)], 0)
    ext = _extended_matrix(cost)
    finite = np.isfinite(ext)
    if not finite.any():
        return _pack([], n)
    lo, hi = float(ext[finite].min()), float(ext[finite].max())
    # Forbidden cells hold a sentinel so low that any assignment using one
    # scores below every assignment of finite cells.  Subproblems only
    # forbid more cells, so the root's sentinel serves them all.
    sentinel = lo - (hi - lo + 1.0) * (n + 1)
    root = np.where(finite, ext, sentinel)
    first = _best_assignment(root, sentinel)
    if first is None:
        return _pack([], n)
    # A Hungarian optimum can miss its subproblem's best row-order sum by
    # rounding, so a found solution is final only once it beats every queued
    # optimum by more than a slack far above that rounding.
    slack = 1e-9 * abs(sentinel)
    cols, score = first
    queue = [(-score, _collapse(cols, n), 0, root, cols)]
    counter = itertools.count(1)
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
            child[t, sol_cols[t]] = sentinel
            best = _best_assignment(child, sentinel)
            if best is not None:
                c_cols, c_score = best
                entry = (-c_score, _collapse(c_cols, n), next(counter), child, c_cols)
                heapq.heappush(queue, entry)
            keep = fixed[t, sol_cols[t]]
            fixed[t, :] = sentinel
            fixed[t, sol_cols[t]] = keep
    return _pack(out, n)


def ranked_solutions(cost: np.ndarray, k: int) -> Solutions:
    """Exact k-best solutions; enumerates outright when the space is small."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_rows, n_cols = cost.shape
    if n_rows == 0:
        return _pack([((), 0.0)], 0)
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
    death/undetected columns, else the overall best) is always part of the
    output.  A row whose candidates all weigh 0 keeps its column and uses no
    draw.

    The chain runs over integer state ids.  A row's conditional depends only
    on the current state, so it is built the first time the chain reaches
    that (state, row) pair and cached: the cumulative candidate weights,
    summed in column order, and each candidate's successor state once a
    draw has picked it.  Later draws there are a bisection and a lookup.

    The output is fixed by the generator state on entry: the k-th uniform
    used is the k-th double the generator yields.  Uniforms are drawn in
    blocks, so the generator's state after the call is not part of the
    contract.  ``filter._truncate`` seeds a fresh generator per call, so the
    filter never reuses it.
    """
    n, n_cols = cost.shape
    if n == 0:
        return _pack([((), 0.0)], 0)

    no_meas = np.argmax(cost[:, :2], axis=1)
    init = tuple(int(c) for c in no_meas)
    if not math.isfinite(solution_score(cost, init)):
        best = murty_kbest(cost, 1)
        if not best:
            raise InfeasibleAssociationError("no feasible association for cost matrix")
        init = best[0][0]

    # Row-wise max-shifted exponentials, precomputed; -inf maps to 0 weight.
    exp_rows = []
    for i in range(n):
        finite = [v for v in cost[i] if math.isfinite(v)]
        shift = max(finite) if finite else 0.0
        exp_rows.append([math.exp(v - shift) if math.isfinite(v) else 0.0 for v in cost[i]])

    visited = _gibbs_chain(exp_rows, init, n_cols, iterations, rng)
    return _pack([(sol, solution_score(cost, sol)) for sol in visited], n)


def _gibbs_chain(
    exp_rows: list[list[float]],
    init: tuple[int, ...],
    n_cols: int,
    iterations: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """The distinct states of the Gibbs chain from ``init``, in first-visit order.

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
