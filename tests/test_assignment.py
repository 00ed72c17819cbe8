import itertools
import math

import numpy as np
import pytest

from geoglmb.assignment import (
    enumerate_solutions,
    gibbs_solutions,
    murty_kbest,
    ranked_solutions,
    solution_score,
)
from geoglmb.errors import InfeasibleAssociationError


def brute_force(cost):
    """Test-local exhaustive reference, sorted (-score, solution)."""
    n, n_cols = cost.shape
    out = []
    for combo in itertools.product(range(n_cols), repeat=n):
        meas = [c for c in combo if c >= 2]
        if len(set(meas)) != len(meas):
            continue
        score = sum(cost[i, c] for i, c in enumerate(combo))
        if math.isfinite(score):
            out.append((combo, float(score)))
    out.sort(key=lambda item: (-item[1], item[0]))
    return out


class TestRankedSolutions:
    def test_single_row_picks_argmax(self):
        cost = np.array([[0.1, 0.7, 0.4]])
        sols = ranked_solutions(cost, 1)
        assert sols[0][0] == (1,)
        assert abs(sols[0][1] - 0.7) < 1e-15

    def test_matches_enumeration_on_two_by_two(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cost = rng.normal(0.0, 2.0, size=(2, 4))
            assert ranked_solutions(cost, 100) == brute_force(cost)

    def test_saturates_when_k_exceeds_feasible(self):
        cost = np.array([[0.5, 0.2]])  # no measurements: 2 feasible maps
        sols = ranked_solutions(cost, 50)
        assert [s for s, _ in sols] == [(0,), (1,)]

    def test_respects_minus_inf(self):
        cost = np.array([[-np.inf, 0.0, 1.0], [0.2, -np.inf, 2.0]])
        sols = ranked_solutions(cost, 100)
        assert all(math.isfinite(s) for _, s in sols)
        combos = [c for c, _ in sols]
        assert (0, 0) not in combos  # row 0 cannot die
        assert (2, 2) not in combos  # measurement used twice

    def test_all_infeasible_raises(self):
        cost = np.full((2, 3), -np.inf)
        with pytest.raises(InfeasibleAssociationError):
            ranked_solutions(cost, 3)

    def test_empty_problem_has_single_empty_solution(self):
        cost = np.zeros((0, 5))
        assert ranked_solutions(cost, 3) == [((), 0.0)]

    def test_deterministic_tie_break_is_lexicographic(self):
        cost = np.zeros((2, 3))
        sols = ranked_solutions(cost, 100)
        assert [c for c, _ in sols] == sorted(c for c, _ in sols)


class TestMurty:
    def test_agrees_with_enumeration_beyond_small_limit(self):
        # 3 rows x (2 + 15) columns exceeds the enumeration threshold inside
        # ranked_solutions, so this exercises the Murty queue.
        rng = np.random.default_rng(7)
        cost = rng.normal(0.0, 3.0, size=(3, 17))
        expected = brute_force(cost)[:25]
        got = murty_kbest(cost, 25)
        assert len({c for c, _ in got}) == len(got)
        for (ce, se), (cg, sg) in zip(expected, got):
            assert ce == cg
            assert abs(se - sg) < 1e-10

    def test_top_one_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cost = rng.normal(0.0, 5.0, size=(2, 5))
            assert murty_kbest(cost, 1)[0][0] == brute_force(cost)[0][0]

    def test_handles_partial_infeasibility(self):
        rng = np.random.default_rng(11)
        cost = rng.normal(size=(3, 5))
        cost[0, :2] = -np.inf  # row 0 must take a measurement
        expected = brute_force(cost)
        got = murty_kbest(cost, len(expected) + 10)
        assert [c for c, _ in got] == [c for c, _ in expected]

    def test_full_ordering_with_ties_and_random_infeasibility(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            # quantized entries force score ties; random -inf entries force
            # partition pruning
            cost = np.round(rng.normal(0.0, 1.0, size=(3, 6)) * 2) / 2
            cost[rng.random(size=cost.shape) < 0.25] = -np.inf
            expected = brute_force(cost)
            got = murty_kbest(cost, 10_000)
            assert len({c for c, _ in got}) == len(got)
            assert [c for c, _ in got] == [c for c, _ in expected]
            for (_, se), (_, sg) in zip(expected, got):
                assert abs(se - sg) < 1e-12


class TestGibbs:
    def test_deterministic_for_fixed_seed(self):
        rng_cost = np.random.default_rng(5)
        cost = rng_cost.normal(size=(2, 6))
        a = gibbs_solutions(cost, 500, np.random.default_rng(99))
        b = gibbs_solutions(cost, 500, np.random.default_rng(99))
        assert a == b

    def test_tiny_case_visits_both_no_measurement_maps(self):
        cost = np.array([[math.log(0.4), math.log(0.6)]])
        sols = {s for s, _ in gibbs_solutions(cost, 200, np.random.default_rng(1))}
        assert sols == {(0,), (1,)}

    def test_converges_to_exhaustive_set(self):
        rng = np.random.default_rng(2)
        hits = 0
        for trial in range(10):
            cost = rng.normal(0.0, 1.0, size=(2, 6))
            expected = {c for c, _ in brute_force(cost)}
            got = {s for s, _ in gibbs_solutions(cost, 10_000, np.random.default_rng(trial))}
            hits += got == expected
        assert hits == 10

    def test_includes_initializing_map(self):
        # detection overwhelmingly favored: the chain leaves the all-missed
        # init immediately, but the init must still be reported
        cost = np.array([[math.log(1e-8), math.log(1e-8), 10.0]])
        sols = [s for s, _ in gibbs_solutions(cost, 50, np.random.default_rng(0))]
        assert (1,) in sols or (0,) in sols

    def test_falls_back_to_ranked_best_when_no_missed_init(self):
        # both no-measurement outcomes are impossible for row 0
        cost = np.array([[-np.inf, -np.inf, 1.0, 0.5]])
        sols = [s for s, _ in gibbs_solutions(cost, 100, np.random.default_rng(0))]
        assert sols[0] == (2,)
        assert all(math.isfinite(solution_score(cost, s)) for s in sols)

    def test_empty_problem(self):
        assert gibbs_solutions(np.zeros((0, 4)), 10, np.random.default_rng(0)) == [((), 0.0)]

    def test_infeasible_raises(self):
        cost = np.full((1, 4), -np.inf)
        with pytest.raises(InfeasibleAssociationError):
            gibbs_solutions(cost, 10, np.random.default_rng(0))

    def test_all_maps_valid(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            cost = rng.normal(size=(3, 7))
            sols = gibbs_solutions(cost, 300, np.random.default_rng(trial))
            assert len({s for s, _ in sols}) == len(sols)
            for sol, _ in sols:
                meas = [c for c in sol if c >= 2]
                assert len(set(meas)) == len(meas)


class TestEnumerate:
    def test_sorted_descending_with_lexicographic_ties(self):
        cost = np.array([[1.0, 1.0, 0.0], [0.5, 0.5, 0.5]])
        sols = enumerate_solutions(cost)
        assert len({c for c, _ in sols}) == len(sols)
        scores = [s for _, s in sols]
        assert scores == sorted(scores, reverse=True)
        top = [c for c, s in sols if abs(s - 1.5) < 1e-12]
        assert top == sorted(top)
