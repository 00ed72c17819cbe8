"""Brute-force reference for the association problems the filter solves.

A problem is a log-score matrix with one row per label and columns
[0] death/not-born, [1] undetected, [2+j] measurement j; a solution picks one
column per row, each measurement column at most once, and scores the sum of
the picked entries (higher is better, -inf forbids an entry).  Everything
here is written from that definition alone.
"""
from __future__ import annotations

import itertools
import math

SCORE_TOL = 1e-9


def score(cost, solution) -> float:
    return math.fsum(float(cost[i][c]) for i, c in enumerate(solution))


def is_valid(cost, solution) -> bool:
    """One column per row, in range, measurement columns used at most once."""
    n_rows, n_cols = len(cost), len(cost[0]) if len(cost) else 2
    if len(solution) != n_rows or any(not 0 <= c < n_cols for c in solution):
        return False
    used = [c for c in solution if c >= 2]
    return len(used) == len(set(used))


def brute_force(cost) -> list[tuple[tuple[int, ...], float]]:
    """Every valid solution of finite score, best first."""
    n_rows = len(cost)
    if n_rows == 0:
        return [((), 0.0)]
    n_cols = len(cost[0])
    out = []
    for sol in itertools.product(range(n_cols), repeat=n_rows):
        if is_valid(cost, sol):
            s = score(cost, sol)
            if math.isfinite(s):
                out.append((sol, s))
    out.sort(key=lambda item: -item[1])
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_TOL * max(1.0, abs(a), abs(b))


def check_ranked(cost, k: int, solutions) -> list[str]:
    """Problems with ``solutions`` as the k best of ``cost``; [] when exact.

    Scores must match the brute-force ranking position by position, so the
    order may differ only among solutions of equal score.
    """
    problems = []
    reference = brute_force(cost)
    if len(solutions) != min(k, len(reference)):
        problems.append(f"{len(solutions)} solutions, expected {min(k, len(reference))}")
    problems += _check_solutions(cost, solutions)
    for pos, ((_, got), (_, want)) in enumerate(zip(solutions, reference)):
        if not _close(got, want):
            problems.append(f"rank {pos}: score {got!r}, brute force {want!r}")
            break
    return problems


def check_sampled(cost, solutions) -> list[str]:
    """Problems with a sampled solution list: distinct, valid, true scores."""
    return _check_solutions(cost, solutions)


def _check_solutions(cost, solutions) -> list[str]:
    problems = []
    seen = set()
    for sol, reported in solutions:
        sol = tuple(int(c) for c in sol)
        if sol in seen:
            problems.append(f"duplicate solution {sol}")
        seen.add(sol)
        if not is_valid(cost, sol):
            problems.append(f"invalid solution {sol}")
            continue
        actual = score(cost, sol)
        if not math.isfinite(actual) or not _close(reported, actual):
            problems.append(f"solution {sol}: reported {reported!r}, recomputed {actual!r}")
    return problems
