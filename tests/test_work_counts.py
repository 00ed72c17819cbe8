"""The work the filter does on each golden config's trials, pinned exactly.

Wall-clock time is too noisy on a shared host to witness a speed change,
but the work a trial does is a deterministic count.  For each of the
golden configs (``test_golden_runs.CASES``) and each of its two trial seeds,
``work_counts`` records:

- ``children``: children generated before the prune and the cap;
- ``kept``: hypotheses kept, summed over the steps;
- ``state_rows``: state rows (Gaussians) of the kept densities, summed;
- ``stacks``, ``stack_width``, ``stack_width_kept``: ``ranked_batch``
  stacks, and their summed widths before and after the column bound;
- ``ranked_calls``, ``gibbs_calls``: per-parent ``ranked_solutions`` and
  ``gibbs_solutions`` calls;
- ``gibbs_distinct``: distinct solutions the sampler returned;
- ``lsa_calls``: ``linear_sum_assignment`` calls (Murty's solves).

A change that only reorganizes how a step computes leaves every count as it
is; one that moves a count on purpose re-records ``work_counts.json`` with
``PYTHONPATH=src python tests/test_work_counts.py`` and says why.
"""
import json
import pathlib
from collections import Counter
from unittest.mock import patch

import geoglmb.assignment
import geoglmb.filter
from geoglmb.experiment import ExperimentConfig, run_trial
from geoglmb.scenario import bundled_records
from test_golden_runs import CASES

RECORDED = pathlib.Path(__file__).with_name("work_counts.json")
SEEDS = (3, 4)  # the trials of the golden runs: seed 3, two Monte Carlo trials


def work_counts(settings: dict, seed: int) -> dict[str, int]:
    """The counts of one trial of the config ``settings`` at ``seed``."""
    config = ExperimentConfig(**settings)
    counts = Counter()
    filt, assign = geoglmb.filter, geoglmb.assignment
    real_step, real_batch, real_truncate = filt.joint_predict_update, filt.ranked_batch, filt._truncate
    real_ranked, real_gibbs, real_lsa = (filt.ranked_solutions, filt.gibbs_solutions,
                                         assign.linear_sum_assignment)

    def step(*args):
        density = real_step(*args)
        counts["kept"] += len(density.hypotheses)
        counts["state_rows"] += len(density.hypotheses.means)
        return density

    def batch(costs, k):
        stack = real_batch(costs, k)
        counts["stacks"] += 1
        counts["stack_width"] += costs.shape[2]
        counts["stack_width_kept"] += costs.shape[2] if stack.kept is None else len(stack.kept)
        counts["children"] += len(stack.problem)
        return stack

    def truncate(*args):
        sols = real_truncate(*args)
        counts["children"] += len(sols)
        return sols

    def ranked(*args):
        counts["ranked_calls"] += 1
        return real_ranked(*args)

    def gibbs(*args):
        sols = real_gibbs(*args)
        counts["gibbs_calls"] += 1
        counts["gibbs_distinct"] += len(sols)
        return sols

    def lsa(*args, **kwargs):
        counts["lsa_calls"] += 1
        return real_lsa(*args, **kwargs)

    with patch.object(filt, "joint_predict_update", step), \
            patch.object(filt, "ranked_batch", batch), \
            patch.object(filt, "_truncate", truncate), \
            patch.object(filt, "ranked_solutions", ranked), \
            patch.object(filt, "gibbs_solutions", gibbs), \
            patch.object(assign, "linear_sum_assignment", lsa):
        run_trial(bundled_records(config.site), config, seed, config.site)
    names = ("children", "kept", "state_rows", "stacks", "stack_width", "stack_width_kept",
             "ranked_calls", "gibbs_calls", "gibbs_distinct", "lsa_calls")
    return {name: counts[name] for name in names}


def all_work_counts() -> dict[str, dict[str, dict[str, int]]]:
    return {case: {str(seed): work_counts(settings, seed) for seed in SEEDS}
            for case, settings in CASES.items()}


def test_golden_configs_do_the_recorded_work():
    assert all_work_counts() == json.loads(RECORDED.read_text())


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(all_work_counts(), indent=1, sort_keys=True) + "\n")
