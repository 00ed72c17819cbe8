import itertools
import math
import sys
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoglmb.assignment
from geoglmb.assignment import (
    _ENUMERATION_LIMIT,
    Solutions,
    _BOUND_WIDTH,
    _enumerate_scored,
    _kept_columns,
    _ranked_kernel,
    _valid_combos,
    batch_enumerable,
    gibbs_solutions,
    murty_kbest,
    ranked_batch,
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


def reference_combos(n_rows, n_cols):
    """Test-local combo table: the itertools product, rows sharing a
    measurement column dropped, one combination per row."""
    combos = [
        combo for combo in itertools.product(range(n_cols), repeat=n_rows)
        if len({c for c in combo if c >= 2}) == sum(c >= 2 for c in combo)
    ]
    return np.array(combos, dtype=np.intp).reshape(len(combos), n_rows)


def reference_gibbs_solutions(cost, iterations, rng):
    """Test-local per-draw Gibbs sampler: one ``rng.random()`` per row draw,
    candidates and cumulative weights rebuilt at every draw.  The library's
    sampler must return exactly what this one returns for the same seed."""
    n, n_cols = cost.shape
    if n == 0:
        return Solutions(np.zeros((1, 0), dtype=np.intp), np.zeros(1))

    no_meas = np.argmax(cost[:, :2], axis=1)
    init = tuple(int(c) for c in no_meas)
    if not math.isfinite(solution_score(cost, init)):
        best = murty_kbest(cost, 1)
        if not best:
            raise InfeasibleAssociationError("no feasible association for cost matrix")
        init = tuple(best.cols[0].tolist())

    exp_rows = []
    for i in range(n):
        finite = [v for v in cost[i] if math.isfinite(v)]
        shift = max(finite) if finite else 0.0
        exp_rows.append([math.exp(v - shift) if math.isfinite(v) else 0.0 for v in cost[i]])

    current = list(init)
    taken = {c for c in current if c >= 2}
    seen = {init}
    ordered = [init]
    for _ in range(iterations):
        for i in range(n):
            own = current[i]
            if own >= 2:
                taken.discard(own)
            weights = exp_rows[i]
            cands = [0, 1] + [c for c in range(2, n_cols) if c not in taken]
            total = 0.0
            cum = []
            for c in cands:
                total += weights[c]
                cum.append(total)
            if total <= 0.0:
                if own >= 2:
                    taken.add(own)
                continue
            u = rng.random() * total
            for c, acc in zip(cands, cum):
                if u < acc:
                    current[i] = c
                    break
            else:
                current[i] = cands[-1]
            if current[i] >= 2:
                taken.add(current[i])
            visited = tuple(current)
            if visited not in seen:
                seen.add(visited)
                ordered.append(visited)
    cols = np.array(ordered, dtype=np.intp).reshape(len(ordered), n)
    return Solutions(cols, np.array([solution_score(cost, sol) for sol in ordered]))


def assert_same_solutions(got, want):
    assert np.array_equal(got.cols, want.cols)
    assert got.cols.dtype == want.cols.dtype
    assert got.scores.tobytes() == want.scores.tobytes()


def assert_empty_solution(sols):
    """The one solution of a problem of no rows: no columns, score 0.0."""
    assert sols.cols.shape == (1, 0) and sols.cols.dtype == np.intp
    assert sols.scores.dtype == np.float64
    assert sols.scores.tobytes() == np.zeros(1).tobytes()


class CountingGenerator:
    """Generator stand-in that counts scalar ``random()`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.scalar_draws = 0

    def random(self, size=None):
        if size is None:
            self.scalar_draws += 1
        return self.rng.random(size)


class TestRankedSolutions:
    def test_single_row_picks_argmax(self):
        cost = np.array([[0.1, 0.7, 0.4]])
        ((cols, score),) = ranked_solutions(cost, 1)
        assert cols == (1,)
        assert abs(score - 0.7) < 1e-15

    def test_matches_enumeration_on_two_by_two(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cost = rng.normal(0.0, 2.0, size=(2, 4))
            assert list(ranked_solutions(cost, 100)) == brute_force(cost)

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
        assert list(ranked_solutions(cost, 3)) == [((), 0.0)]
        assert_empty_solution(ranked_solutions(cost, 3))

    def test_deterministic_tie_break_is_lexicographic(self):
        cost = np.zeros((2, 3))
        sols = ranked_solutions(cost, 100)
        assert [c for c, _ in sols] == sorted(c for c, _ in sols)


class TestMurty:
    def test_agrees_with_enumeration_beyond_small_limit(self):
        # 3 rows x (2 + 15) columns, solved by the Murty queue directly: more
        # combinations than the small cases below.
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
            assert murty_kbest(cost, 1).cols[0].tolist() == list(brute_force(cost)[0][0])

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

    def test_exact_order_when_the_hungarian_optimum_is_an_ulp_short(self):
        # (7, 8, 4, 5) sums 4 - ulp, 0, 1 and 1.89... in that row order, and
        # (7, 1, 8, 4) the same values as 4 - ulp, 0, 1.89... and 1, which
        # rounds 1 ulp lower.  The Hungarian solver cannot tell such sums
        # apart, yet the first must come out before the second.
        inf = math.inf
        cost = np.array([
            [0.0, 0.0, 0.0, 0.0, -inf, -inf, -inf, 3.9999999999999996, 0.0, 0.0],
            [-inf, 0.0, -inf, 0.0, -inf, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -inf, 0.0, 0.0, 1.0, 0.0, -inf, 0.0, 1.8926912713212038, -inf],
            [0.0, -inf, 0.0, 0.0, 1.0, 1.8926912713212038, -inf, 0.0, 0.0, -inf],
        ])
        expected = brute_force(cost)[:12]
        assert ((7, 8, 4, 5), 6.892691271321204) in expected
        assert list(murty_kbest(cost, 12)) == expected

    def test_empty_problem_has_single_empty_solution(self):
        for n_cols in (2, 5):
            assert_empty_solution(murty_kbest(np.zeros((0, n_cols)), 3))

    def test_all_forbidden_has_no_solution(self):
        # (3, 26) is past the enumeration limit, so ranked_solutions asks Murty
        for shape in ((2, 4), (3, 26)):
            cost = np.full(shape, -np.inf)
            assert len(murty_kbest(cost, 5)) == 0
            with pytest.raises(InfeasibleAssociationError):
                ranked_solutions(cost, 5)

    def test_nan_and_plus_inf_cells_are_forbidden_as_minus_inf(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            cost = rng.normal(size=(3, 7))
            draw = rng.random(size=cost.shape)
            forbidden = cost.copy()
            forbidden[draw < 0.3] = -np.inf
            cost[draw < 0.2] = np.nan
            cost[(draw >= 0.2) & (draw < 0.3)] = np.inf
            assert_same_solutions(murty_kbest(cost, 50), murty_kbest(forbidden, 50))

    def test_infeasible_child_subproblem(self):
        # Row 0 may die or take measurement 0, which row 1 alone must take:
        # the best solution's child forbidding row 0's death has no
        # assignment, and scipy reports it as infeasible.
        inf = math.inf
        cost = np.array([
            [0.5, -inf, 1.0, -inf, -inf],
            [-inf, -inf, 2.0, -inf, -inf],
            [0.1, 0.3, -inf, 0.7, 0.2],
        ])
        results = []
        real = geoglmb.assignment._best_assignment

        def best_assignment(work):
            results.append(real(work))
            return results[-1]

        with patch.object(geoglmb.assignment, "_best_assignment", best_assignment):
            got = murty_kbest(cost, 10)
        assert None in results
        expected = brute_force(cost)
        assert len(expected) == 4
        want = Solutions(np.array([c for c, _ in expected], dtype=np.intp),
                         np.array([score for _, score in expected]))
        assert_same_solutions(got, want)


class TestGibbs:
    def test_deterministic_for_fixed_seed(self):
        rng_cost = np.random.default_rng(5)
        cost = rng_cost.normal(size=(2, 6))
        a = gibbs_solutions(cost, 500, np.random.default_rng(99))
        b = gibbs_solutions(cost, 500, np.random.default_rng(99))
        assert list(a) == list(b)

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
        assert list(gibbs_solutions(np.zeros((0, 4)), 10, np.random.default_rng(0))) == [((), 0.0)]
        assert_empty_solution(gibbs_solutions(np.zeros((0, 4)), 10, np.random.default_rng(0)))

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

    def test_row_without_weight_keeps_its_column_and_uses_no_draw(self):
        # Certain survival and detection (-inf death and undetected cells):
        # the all-missed init is infeasible, so the chain starts at Murty's
        # best (2, 3).  Row 1's only candidate then weighs exp(-1000) == 0,
        # so each of its visits is skipped without a draw, across the
        # boundaries of the uniform blocks too.
        cost = np.array([[-np.inf, -np.inf, 0.0, -1000.0]] * 2)
        for iterations in (1, 7, 5000):
            counting = CountingGenerator(4)
            want = reference_gibbs_solutions(cost, iterations, counting)
            assert counting.scalar_draws == iterations
            assert list(want) == [((2, 3), -1000.0)]
            assert_same_solutions(gibbs_solutions(cost, iterations, np.random.default_rng(4)), want)

    def test_skipped_rows_between_draws_keep_the_draw_sequence(self):
        # Row 1 always holds measurement 1, so every visit of row 2 is
        # skipped, the last visit of each sweep included.  Row 0 keeps
        # exploring rare measurements long after the first uniform block.
        cost = np.array([
            [0.0, 0.0, -np.inf] + [-8.0] * 5,
            [-np.inf, -np.inf, 0.0] + [-np.inf] * 5,
            [-1000.0, -1000.0, 0.0] + [-np.inf] * 5,
        ])
        for iterations in (1, 2, 5000):
            for seed in range(8):
                counting = CountingGenerator(seed)
                want = reference_gibbs_solutions(cost, iterations, counting)
                assert counting.scalar_draws == 2 * iterations
                got = gibbs_solutions(cost, iterations, np.random.default_rng(seed))
                assert_same_solutions(got, want)


class TestEnumerate:
    def test_sorted_descending_with_lexicographic_ties(self):
        cost = np.array([[1.0, 1.0, 0.0], [0.5, 0.5, 0.5]])
        sols = ranked_solutions(cost, 3**2)  # every combination
        assert len({c for c, _ in sols}) == len(sols)
        scores = [s for _, s in sols]
        assert scores == sorted(scores, reverse=True)
        top = [c for c, s in sols if abs(s - 1.5) < 1e-12]
        assert top == sorted(top)

    def test_combo_table_equals_product_reference(self):
        for n_rows in range(0, 5):
            for n_cols in range(1, 12):
                table = _valid_combos(n_rows, n_cols)
                want = reference_combos(n_rows, n_cols)
                assert table.dtype == want.dtype
                assert np.array_equal(table.T, want), (n_rows, n_cols)

    def test_scores_equal_fancy_index_sum_bit_for_bit(self):
        # Up to 7 rows numpy's row sum adds the cells in order, as the kernel
        # does; -0.0 cells check that both start from +0.0.
        rng = np.random.default_rng(31)
        for n_rows, n_cols in [(1, 2), (1, 9), (2, 7), (3, 5), (3, 12), (4, 6), (5, 4), (7, 3)]:
            cost = rng.normal(0.0, 1e3, size=(n_rows, n_cols)) + rng.normal(size=(n_rows, n_cols))
            cost[rng.random(size=cost.shape) < 0.2] = -0.0
            combos = reference_combos(n_rows, n_cols)
            want = cost[np.arange(n_rows), combos].sum(axis=1)
            got = _enumerate_scored(cost, len(combos))
            order = np.argsort(-want, kind="stable")
            assert np.array_equal(got.cols, combos[order])
            assert got.scores.tobytes() == want[order].tobytes()

    def test_scores_sum_in_row_order_beyond_seven_rows(self):
        # From 8 terms numpy sums pairwise; every solver here sums a solution
        # in row order, as solution_score does, so ranked and Murty agree.
        # 8 x 3 is enumerated, 9 x 3 goes to Murty.
        rng = np.random.default_rng(37)
        for n_rows in (8, 9):
            cost = rng.normal(0.0, 1e3, size=(n_rows, 3)) + rng.normal(size=(n_rows, 3))
            got = ranked_solutions(cost, 40)
            assert [s for _, s in got] == [solution_score(cost, c) for c, _ in got]
            assert_same_solutions(got, murty_kbest(cost, 40))


def compensated_sum(iterable, start=0):
    """The builtin ``sum`` of CPython 3.12 and later, on Python floats: from
    the first float on, each float is added with Neumaier's compensation,
    which is added to the total once at the end if it is finite.  Items of
    other types are added plainly."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total += x
    return total + comp if comp and math.isfinite(comp) else total


def test_every_solver_scores_left_to_right_whatever_sum_does():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, as the ranked
    # kernel adds, but 0.6 compensated, as Python 3.12's sum adds.  With
    # ``sum`` compensated, every solver still scores left to right.
    assert compensated_sum([0.1, 0.2, 0.3]) == 0.6
    if sys.version_info >= (3, 12):
        draws = np.random.default_rng(41).normal(0.0, 1e3, size=(200, 5)).tolist()
        assert [compensated_sum(x) for x in draws] == [sum(x) for x in draws]
    cost = np.array([[0.1, -math.inf], [0.2, -math.inf], [0.3, -math.inf]])
    with patch.object(geoglmb.assignment, "sum", compensated_sum, create=True):
        for sols in (gibbs_solutions(cost, 10, np.random.default_rng(0)),
                     ranked_solutions(cost, 5), murty_kbest(cost, 5)):
            assert list(sols) == [((0, 0, 0), 0.6000000000000001)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ranked_is_prefix_of_enumeration(data):
    # Tie-heavy integer scores and forbidden entries: the top-k selection
    # must return exactly the first k of the full stable ranking, for every k.
    n_rows = data.draw(st.integers(1, 3))
    n_cols = data.draw(st.integers(2, 6))
    entry = st.one_of(st.integers(-2, 2).map(float), st.just(-math.inf))
    cost = np.array(
        data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                           min_size=n_rows, max_size=n_rows))
    )
    try:  # every combination
        full = list(ranked_solutions(cost, _valid_combos(n_rows, n_cols).shape[1]))
    except InfeasibleAssociationError:
        full = []
    if not full:
        with pytest.raises(InfeasibleAssociationError):
            ranked_solutions(cost, 1)
        return
    for k in range(1, len(full) + 2):
        assert list(ranked_solutions(cost, k)) == full[:k]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ranked_equals_murty_across_the_enumeration_limit(data):
    # 3 x 16-30 and 4 x 8-12 columns: product spaces on both sides of the
    # limit, so ranked_solutions enumerates some and runs Murty on others.
    n_rows, n_cols = data.draw(st.one_of(
        st.tuples(st.just(3), st.integers(16, 30)),
        st.tuples(st.just(4), st.integers(8, 12)),
    ))
    entry = st.one_of(st.floats(-4.0, 4.0), st.integers(-2, 2).map(float), st.just(-math.inf))
    cost = np.array(
        data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                           min_size=n_rows, max_size=n_rows))
    )
    k = data.draw(st.integers(1, 64))
    expected = brute_force(cost)[:k]
    murty = murty_kbest(cost, k)
    if not expected:
        assert not murty
        with pytest.raises(InfeasibleAssociationError):
            ranked_solutions(cost, k)
        return
    got = ranked_solutions(cost, k)
    assert_same_solutions(got, murty)
    assert list(got) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_few_combinations_on_floats_equal_the_array_pass(data):
    # 1-3 rows of 2-6 columns hold 2 to 152 valid combinations, on both
    # sides of _FEW_COMBOS; integer entries tie, -0.0 checks the +0.0 start,
    # and a row may be all -inf.  k runs below, at and above the combination
    # count.
    n_rows = data.draw(st.integers(1, 3))
    n_cols = data.draw(st.integers(2, 6))
    entry = st.one_of(st.integers(-2, 2).map(float), st.floats(-4.0, 4.0),
                      st.just(-0.0), st.just(-math.inf))
    cost = np.array(
        data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                           min_size=n_rows, max_size=n_rows))
    )
    if data.draw(st.booleans()):
        cost[data.draw(st.integers(0, n_rows - 1))] = -math.inf
    n_combos = _valid_combos(n_rows, n_cols).shape[1]
    k = data.draw(st.integers(1, n_combos + 2))
    with patch.object(geoglmb.assignment, "_FEW_COMBOS", 0):
        arrays = _enumerate_scored(cost, k)
    with patch.object(geoglmb.assignment, "_FEW_COMBOS", 10**9):
        floats = _enumerate_scored(cost, k)
    for got in (floats, _enumerate_scored(cost, k)):
        assert got.cols.shape == arrays.cols.shape
        assert got.scores.dtype == arrays.scores.dtype
        assert_same_solutions(got, arrays)


def test_few_combinations_switch_keeps_bytes_on_random_matrices():
    # Every shape from 1 x 1 to 3 x 7 (1 to 248 valid combinations), with
    # the switch forced to each extreme: small-integer ties, -0.0 and +0.0,
    # scattered -inf and all-(-inf) rows give the same array bytes.
    rng = np.random.default_rng(20)
    pool = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, -math.inf])
    for n_rows, n_cols, trial in itertools.product(range(1, 4), range(1, 8), range(12)):
        if trial % 3 == 0:
            cost = rng.normal(size=(n_rows, n_cols)).round(1)
        else:
            cost = rng.choice(pool, size=(n_rows, n_cols))
        if trial % 4 == 3:
            cost[rng.integers(n_rows)] = -math.inf
        for k in (1, 3, 64):
            with patch.object(geoglmb.assignment, "_FEW_COMBOS", 0):
                arrays = _enumerate_scored(cost, k)
            with patch.object(geoglmb.assignment, "_FEW_COMBOS", 10**9):
                floats = _enumerate_scored(cost, k)
            for got in (arrays, floats):
                assert got.cols.dtype == np.intp and got.scores.dtype == np.float64
            assert floats.cols.shape == arrays.cols.shape
            assert floats.cols.tobytes() == arrays.cols.tobytes()
            assert floats.scores.tobytes() == arrays.scores.tobytes()


def _picks(ranked):
    """A ``ranked_batch`` result as (problem, scores, columns of every entry)."""
    return ranked.problem, ranked.scores, ranked.columns()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_equals_per_problem_solutions(data):
    # A stack of 1-7 same-shape problems: tied integer, -0.0 and -inf cells,
    # whole -inf rows, and problems with no feasible combo among feasible
    # ones.  Each problem's slice of the batch must be its own
    # ranked_solutions call, and the brute-force ranking, bit for bit, for
    # k from 1 to beyond the combination count and any chunk size.
    n_rows = data.draw(st.integers(1, 3))
    n_cols = data.draw(st.integers(2, 5))
    n_problems = data.draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-2, 2).map(float), st.floats(-4.0, 4.0),
                      st.just(-0.0), st.just(-math.inf))
    costs = np.array(data.draw(st.lists(
        st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                 min_size=n_rows, max_size=n_rows),
        min_size=n_problems, max_size=n_problems)))
    for p in data.draw(st.lists(st.integers(0, n_problems - 1), max_size=2)):
        costs[p, data.draw(st.integers(0, n_rows - 1))] = -math.inf
    n_combos = _valid_combos(n_rows, n_cols).shape[1]
    k = data.draw(st.one_of(st.just(1), st.integers(1, n_combos + 2)))
    budget = data.draw(st.sampled_from([1, geoglmb.assignment._BATCH_CELLS, 10**9]))
    with patch.object(geoglmb.assignment, "_BATCH_CELLS", budget):
        problem, scores, cols = _picks(ranked_batch(costs, k))
    assert problem.dtype == cols.dtype == np.intp and scores.dtype == float
    assert np.all(np.diff(problem) >= 0)
    for p in range(n_problems):
        got = Solutions(cols[problem == p], scores[problem == p])
        want = brute_force(costs[p])[:k]
        assert [(c, s) for c, s in got] == want
        assert got.scores.tobytes() == np.array([s for _, s in want]).tobytes()
        if not want:
            with pytest.raises(InfeasibleAssociationError):
                ranked_solutions(costs[p], k)
            continue
        assert_same_solutions(got, ranked_solutions(costs[p], k))
    assert batch_enumerable(n_problems, n_rows, n_cols) == (n_problems > 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bounded_batch_equals_the_full_enumeration(data):
    # Stacks of 1-5 problems of 1-3 rows over 6-14 columns, wide enough for
    # the bound.  Tied integer, -0.0 and -inf cells, clutter-like cells far
    # below the rest (the columns the bound drops), whole -inf rows and
    # absent rows [0.0, -inf, ...], which leave a problem unbounded beside
    # bounded ones.  k runs from 1 to beyond the feasible count, mostly
    # within the bound's reach, under any chunk size.  The stack must equal
    # the unpruned kernel and the brute-force ranking, bit for bit.
    costs, k, budget = _draw_stack(data, _BOUND_WIDTH + 1)
    n_problems = len(costs)
    with patch.object(geoglmb.assignment, "_BATCH_CELLS", budget):
        got = _picks(ranked_batch(costs, k))
        want = _picks(_ranked_kernel(costs, k))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    problem, scores, cols = got
    for p in range(n_problems):
        brute = brute_force(costs[p])[:k]
        assert [(tuple(c), s) for c, s in zip(cols[problem == p].tolist(),
                                              scores[problem == p].tolist())] == brute
        assert scores[problem == p].tobytes() == np.array([s for _, s in brute]).tobytes()


def _draw_stack(data, min_cols):
    """A stack of 1-5 problems of 1-3 rows over ``min_cols``-14 columns as
    the bounded-batch test draws it, a k and a chunk budget."""
    n_rows = data.draw(st.integers(1, 3))
    n_cols = data.draw(st.integers(min_cols, 14))
    n_problems = data.draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-2, 2).map(float), st.floats(-4.0, 4.0),
                      st.just(-0.0), st.just(-math.inf), st.floats(-60.0, -30.0))
    costs = np.array(data.draw(st.lists(
        st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                 min_size=n_rows, max_size=n_rows),
        min_size=n_problems, max_size=n_problems)))
    for p in data.draw(st.lists(st.integers(0, n_problems - 1), max_size=2)):
        row = data.draw(st.integers(0, n_rows - 1))
        costs[p, row] = -math.inf
        costs[p, row, 0] = data.draw(st.sampled_from([0.0, -math.inf]))  # absent or -inf
    n_combos = _valid_combos(n_rows, n_cols).shape[1]
    k = data.draw(st.one_of(st.integers(1, min(_BOUND_WIDTH**n_rows, n_combos + 2)),
                            st.integers(1, n_combos + 2)))
    budget = data.draw(st.sampled_from([1, geoglmb.assignment._BATCH_CELLS, 10**9]))
    return costs, k, budget


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_columns_of_any_entries_are_those_rows_of_the_full_gather(data):
    # Plain stacks (2-5 columns) and stacks wide enough to be narrowed, drawn
    # as above.  Columns gathered for any entries, none, unsorted or repeated,
    # given as a list or an intp array, are those rows of the gather of every
    # entry, in bytes and as intp.
    costs, k, budget = _draw_stack(data, 2)
    with patch.object(geoglmb.assignment, "_BATCH_CELLS", budget):
        ranked = ranked_batch(costs, k)
    full = ranked.columns()
    n = len(ranked.scores)
    assert full.dtype == np.intp and full.shape == (n, costs.shape[1])
    index = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n + 2) if n else st.just([]))
    want = full[np.array(index, dtype=np.intp)]
    for chosen in (index, np.array(index, dtype=np.intp)):
        got = ranked.columns(chosen)
        assert got.dtype == np.intp and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _cluttered_stack():
    """Three problems of 3 rows over 20 columns: the readings 2-4 score near
    a missed detection, the other 15 far below it (clutter); problem 2 lacks
    a label (an absent row), so it has no bound at k = 64."""
    rng = np.random.default_rng(5)
    costs = rng.normal(-60.0, 5.0, size=(3, 3, 20))
    costs[:, :, :5] = rng.normal(-2.0, 1.0, size=(3, 3, 5))
    costs[2, 1] = [0.0] + [-math.inf] * 19
    costs[1, 2, 7] = costs[1, 2, 3]  # a clutter reading tied with a good one
    return costs


def test_wide_stack_reaches_the_kernel_narrowed():
    # Problem 2 keeps every column, and so the whole stack's width; without
    # it the stack must reach the kernel narrower than it entered.
    costs = _cluttered_stack()[:2]
    want = _picks(_ranked_kernel(costs, 64))
    with patch.object(geoglmb.assignment, "_ranked_kernel",
                      wraps=geoglmb.assignment._ranked_kernel) as spy:
        got = _picks(ranked_batch(costs, 64))
    (narrow, k), _ = spy.call_args
    assert spy.call_count == 1 and k == 64
    assert narrow.shape[:2] == (2, 3) and narrow.shape[2] < costs.shape[2]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_kept_columns_drop_clutter_only_where_bounded():
    keep = _kept_columns(_cluttered_stack(), 64)
    assert keep.shape == (3, 20) and keep[:, :2].all()
    assert not keep[0].all() and not keep[1].all()
    assert keep[1, 7]  # tied with a kept reading
    assert keep[2].all()  # unbounded: every column kept


def test_bound_keeps_every_column_of_a_problem_with_no_feasible_combo():
    costs = _cluttered_stack()
    costs[0, 0] = -math.inf  # a whole -inf row
    assert _kept_columns(costs, 64)[0].all()
    for a, b in zip(_picks(ranked_batch(costs, 64)), _picks(_ranked_kernel(costs, 64))):
        assert a.tobytes() == b.tobytes()


def test_a_stack_is_narrowed_to_the_union_of_its_problems_kept_columns():
    # Two problems of 3 rows over 11 columns: the first's readings score in
    # columns 2-5, the second's in 6-9, all else far below (clutter).  Each
    # keeps its own readings; the stack is enumerated over their union, with
    # each problem's dropped columns at -inf, to the full kernel's bytes.
    rng = np.random.default_rng(7)
    costs = rng.normal(-60.0, 5.0, size=(2, 3, 11))
    costs[:, :, :2] = rng.normal(-2.0, 1.0, size=(2, 3, 2))
    costs[0, :, 2:6] = rng.normal(-2.0, 1.0, size=(3, 4))
    costs[1, :, 6:10] = rng.normal(-2.0, 1.0, size=(3, 4))
    keep = _kept_columns(costs, 64)
    assert keep[0].nonzero()[0].tolist() == [0, 1, 2, 3, 4, 5]
    assert keep[1].nonzero()[0].tolist() == [0, 1, 6, 7, 8, 9]
    ranked = ranked_batch(costs, 64)
    assert ranked.kept.dtype == np.intp
    assert ranked.kept.tolist() == keep.any(axis=0).nonzero()[0].tolist()
    for a, b in zip(_picks(ranked), _picks(_ranked_kernel(costs, 64))):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_batch_skips_shapes_beyond_the_enumeration_limit():
    assert batch_enumerable(2, 3, 25) and not batch_enumerable(2, 3, 26)
    assert not batch_enumerable(2, 0, 5) and not batch_enumerable(1, 1, 2)


def test_limit_splits_the_hypothesis_shapes():
    # The shapes drawn above straddle the limit.
    assert 25**3 <= _ENUMERATION_LIMIT < 26**3
    assert 11**4 <= _ENUMERATION_LIMIT < 12**4


_GIBBS_ENTRY = st.one_of(
    st.integers(-2, 2).map(float),  # ties
    st.floats(-4.0, 4.0),
    st.just(-math.inf),
    st.just(-1000.0),  # underflows to weight 0 beside a finite entry near 0
)


def test_one_row_gibbs_equals_per_draw_reference():
    # A one-row chain's draws cross the 4096-uniform block boundary.  Rows
    # whose death and undetected cells are both -inf start from the ranked
    # best; -1000 beside 0.0 weighs 0 and is never picked.
    costs = [
        [math.log(0.4), math.log(0.6)],
        [-1.0, 0.5, -2.0, 0.0, -0.5],
        [-np.inf, -np.inf, 1.0, 0.5, -3.0],
        [-np.inf, -np.inf, -1000.0, 0.0],
        [0.0, -1000.0, -np.inf, -1000.0, -0.25],
    ]
    for row in costs:
        cost = np.array([row])
        for iterations in (4095, 4096, 4097, 9000):
            for seed in (0, 5):
                want = reference_gibbs_solutions(cost, iterations, np.random.default_rng(seed))
                got = gibbs_solutions(cost, iterations, np.random.default_rng(seed))
                assert_same_solutions(got, want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gibbs_equals_per_draw_reference(data):
    n_rows = data.draw(st.integers(0, 3))
    n_cols = data.draw(st.integers(2, 9))
    rows = []
    for _ in range(n_rows):
        row = data.draw(st.lists(_GIBBS_ENTRY, min_size=n_cols, max_size=n_cols))
        if data.draw(st.booleans()):
            row[0] = row[1] = -math.inf  # p_survival = p_detect = 1
        rows.append(row)
    cost = np.array(rows, dtype=float).reshape(n_rows, n_cols)
    # 2100 sweeps of 2 or 3 rows cross the 4096-uniform block boundary.
    iterations = data.draw(st.sampled_from([0, 1, 3, 40, 2100]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    try:
        want = reference_gibbs_solutions(cost, iterations, np.random.default_rng(seed))
    except InfeasibleAssociationError:
        with pytest.raises(InfeasibleAssociationError):
            gibbs_solutions(cost, iterations, np.random.default_rng(seed))
        return
    assert_same_solutions(gibbs_solutions(cost, iterations, np.random.default_rng(seed)), want)
