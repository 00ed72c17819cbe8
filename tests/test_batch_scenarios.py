"""The benchmark's brute-force sampler sees only per-parent solver calls made
through ``geoglmb.filter.ranked_solutions``, and the filter now enumerates
most ranked parents of a joint-mode step as stacks.  This test stands in for
it: it steps the benchmark's two ranked scenarios through their first
depths and checks every stacked parent's solutions against its own
``ranked_solutions`` call, and every 37th against the benchmark's
brute-force ranking, as the sampler checks every 37th solver call."""
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import geoglmb.filter
from geoglmb.assignment import ranked_batch, ranked_solutions
from geoglmb.errors import InfeasibleAssociationError
from geoglmb.experiment import ExperimentConfig, birth_model_for
from geoglmb.filter import run_sequence
from geoglmb.scenario import depth_intervals, synthesize_observations

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "glmbbench"))
import solvers  # noqa: E402

SAMPLE_EVERY = 37

SCENARIOS = {
    # (config, trial seed, depths stepped)
    "onsoy-joint-ranked": (ExperimentConfig(site="onsoy", mode="joint"), 0, 12),
    "taipei-clutter-ranked": (
        ExperimentConfig(site="taipei", mode="joint", clutter_rate=9.0,
                         clutter_region=(0.0, 500.0)),
        4,
        8,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stacked_parents_equal_their_own_calls_and_brute_force(name):
    config, seed, n_depths = SCENARIOS[name]
    _, records = config.site_records()
    scenario = synthesize_observations(records, config.sensor(), mode="joint", seed=seed)
    stacks = []

    def recording(costs, k):
        result = ranked_batch(costs, k)
        stacks.append((costs, k, result))
        return result

    with patch.object(geoglmb.filter, "ranked_batch", recording):
        run_sequence(
            depth_intervals(records)[:n_depths],
            scenario.groups[0].readings[:n_depths],
            birth_model_for(records, config),
            config.motion(),
            config.sensor(),
            config.truncation(seed),
        )

    checked, sampled = 0, 0
    for costs, k, result in stacks:
        problem, scores, cols = result.problem, result.scores, result.columns()
        for p, cost in enumerate(costs):
            mine = problem == p
            try:
                own = ranked_solutions(cost, k)
            except InfeasibleAssociationError:
                assert not mine.any()
                continue
            assert np.array_equal(cols[mine], own.cols)
            assert scores[mine].tobytes() == own.scores.tobytes()
            checked += 1
            if checked % SAMPLE_EVERY == 1:
                found = list(zip(map(tuple, cols[mine].tolist()), scores[mine].tolist()))
                assert solvers.check_ranked(cost.tolist(), k, found) == []
                sampled += 1
    assert len(stacks) >= n_depths - 2
    assert sampled >= 10, (checked, sampled)
