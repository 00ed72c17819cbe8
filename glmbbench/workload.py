"""Run one benchmark workload in this process and print its raw result.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 glmbbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed``, ``metrics`` and ``problems``.  ``run.py`` starts
this script in a fresh process per workload and adds the set-up time.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path

import geoglmb
import geoglmb.cli
import geoglmb.experiment as experiment
from geoglmb.errors import GeoGlmbError

import oracle
import solvers
import speed
from spans import Tracer, childless, patched, summarize

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# A run passes over its workload's fixed list several times, in an order
# shuffled from --seed, and reports each item's median pass, each pass
# normalized by the machine's speed at that moment (see speed.py).
# ``pass_s`` is one pass on the reference machine, calibration included;
# --seconds S asks for about S seconds of passes, at least two.
WORKLOADS = {
    # The paper's headline path: joint mode, ranked truncation, default
    # config on the dense site.  Enumeration, not Murty, solves every step.
    "onsoy-joint-ranked": {
        "site": "onsoy",
        "config": {"mode": "joint", "trunc_method": "ranked"},
        "seeds": [0],
        "pass_s": 3.1,
        "accuracy_gate": True,
    },
    # Gibbs truncation on the sparse site.
    "taipei-joint-gibbs": {
        "site": "taipei",
        "config": {"mode": "joint", "trunc_method": "gibbs"},
        "seeds": [0, 1, 3, 7],
        "pass_s": 3.4,
        "accuracy_gate": False,
    },
    # Heavy clutter spread over 0-500 % so some depths carry more than 14
    # readings, beyond the enumeration limit: Murty and the Hungarian
    # solver do most of the work.  Seed 4 peaks at 17 readings at a depth.
    "taipei-clutter-ranked": {
        "site": "taipei",
        "config": {
            "mode": "joint",
            "trunc_method": "ranked",
            "clutter_rate": 9.0,
            "clutter_region": (0.0, 500.0),
        },
        "seeds": [4],
        "pass_s": 3.75,
        "accuracy_gate": False,
    },
    # Thousands of one-label problems through the CLI with two pool
    # workers; one pass is one invocation of 200 trials.
    "onsoy-independent-cli": {
        "site": "onsoy",
        "cli": ["run", "--site", "onsoy", "--mode", "independent", "--p-survival", "1"],
        "base_seed": 0,
        "mc": 200,
        "jobs": 2,
        "pass_s": 4.1,
        "accuracy_gate": True,
    },
}

# Solver calls sampled during the untimed warm-up: every n-th call, at most
# this many samples.
SAMPLE_EVERY = {"ranked": 37, "gibbs": 37, "murty": 7}
SAMPLE_MAX = {"ranked": 60, "gibbs": 60, "murty": 25}


class Capture:
    """Keeps what the oracle needs from each filtered run: the readings and
    intervals given to ``run_sequence``, its densities, and the MAP readout."""

    def __init__(self):
        self.runs: list[dict] = []

    def patches(self):
        def run_sequence(fn):
            def wrapper(deltas, measurement_sets, *rest, **kwargs):
                history = fn(deltas, measurement_sets, *rest, **kwargs)
                self.runs.append(
                    {"deltas": list(deltas), "readings": measurement_sets, "history": history}
                )
                return history

            return wrapper

        def extract(fn):
            def wrapper(history, schedule):
                series = fn(history, schedule)
                self.runs[-1]["series"] = series
                return series

            return wrapper

        return [
            ("geoglmb.experiment", "run_sequence", run_sequence),
            ("geoglmb.experiment", "extract_map_trajectories", extract),
        ]

    def take(self) -> list[dict]:
        runs, self.runs = self.runs, []
        return runs


class SolverSampler:
    """Copies of cost matrices and solver results met during a trial."""

    def __init__(self):
        self.seen = {kind: 0 for kind in SAMPLE_EVERY}
        self.samples = {kind: [] for kind in SAMPLE_EVERY}

    def _keep(self, kind) -> bool:
        self.seen[kind] += 1
        return (
            self.seen[kind] % SAMPLE_EVERY[kind] == 1
            and len(self.samples[kind]) < SAMPLE_MAX[kind]
        )

    def patches(self):
        def sampled(kind, k_arg):
            def factory(fn):
                def wrapper(cost, *args, **kwargs):
                    result = fn(cost, *args, **kwargs)
                    if self._keep(kind):
                        k = args[0] if k_arg else None
                        self.samples[kind].append((cost.tolist(), k, list(result)))
                    return result

                return wrapper

            return factory

        return [
            ("geoglmb.filter", "ranked_solutions", sampled("ranked", True)),
            ("geoglmb.filter", "gibbs_solutions", sampled("gibbs", False)),
            ("geoglmb.assignment", "murty_kbest", sampled("murty", True)),
        ]

    def check(self) -> list[str]:
        problems = []
        for kind, samples in self.samples.items():
            for cost, k, result in samples:
                if kind == "gibbs":
                    found = solvers.check_sampled(cost, result)
                else:
                    found = solvers.check_ranked(cost, k, result)
                problems += [f"{kind} {len(cost)}x{len(cost[0])}: {p}" for p in found]
        return problems

    def counts(self) -> dict:
        return {kind: len(s) for kind, s in self.samples.items()}


# --- tracing ----------------------------------------------------------------------


def _cells_solutions(args, result):
    return (int(args[0].size), len(result))


def _gibbs_data(args, result):
    cost, iterations = args[0], args[1]
    return (int(cost.size), len(result), int(iterations) * int(cost.shape[0]))


def _jpu_data(args, result):
    parents = args[0].hypotheses
    return (len(parents), len(result.hypotheses), sum(len(h.label_set) for h in parents))


TRACED = [
    # (module the caller looks the name up in, attribute, span name, data)
    ("geoglmb.filter", "predict_mixture", "gaussian.predict_mixture", None),
    ("geoglmb.filter", "mixture_log_likelihood", "gaussian.mixture_log_likelihood", None),
    ("geoglmb.filter", "update_mixture", "gaussian.update_mixture", None),
    ("geoglmb.filter", "mixture_reduce", "gaussian.mixture_reduce", None),
    ("geoglmb.filter", "ranked_solutions", "assignment.ranked_solutions", _cells_solutions),
    ("geoglmb.filter", "gibbs_solutions", "assignment.gibbs_solutions", _gibbs_data),
    ("geoglmb.assignment", "murty_kbest", "assignment.murty_kbest", None),
    ("geoglmb.assignment", "linear_sum_assignment", "assignment.linear_sum_assignment", None),
    ("geoglmb.filter", "log_sum_weights", "lrfs.log_sum_weights", None),
    ("geoglmb.filter", "cardinality_distribution", "lrfs.map_select", None),
    ("geoglmb.filter", "best_hypothesis_with_cardinality", "lrfs.map_select", None),
    ("geoglmb.filter", "joint_predict_update", "filter.joint_predict_update", _jpu_data),
    ("geoglmb.experiment", "extract_map_trajectories", "filter.extract_map_trajectories", None),
    ("geoglmb.experiment", "synthesize_observations", "scenario.synthesize_observations", None),
    ("geoglmb.experiment", "load_site_table", "scenario.load_site_table", None),
    ("geoglmb.experiment", "build_report", "evaluation.build_report", None),
    ("geoglmb.evaluation", "ospa", "evaluation.ospa", None),
    ("geoglmb.experiment", "run_trial", "experiment.run_trial", None),
    ("geoglmb.experiment", "run_monte_carlo", "experiment.run_monte_carlo", None),
    ("geoglmb.experiment", "scenario_to_csv", "experiment.write", None),
    ("geoglmb.experiment", "write_estimates_csv", "experiment.write", None),
    ("geoglmb.experiment", "write_report_json", "experiment.write", None),
    ("geoglmb.experiment", "write_metrics_csv", "experiment.write", None),
    ("geoglmb.experiment", "profile_plot", "svgplot.profile_plot", None),
]


def tracer_patches(tracer: Tracer):
    patches = [
        (module, attr, lambda fn, n=name, d=data: tracer.wrap(n, fn, d))
        for module, attr, name, data in TRACED
    ]
    patches.append(
        ("geoglmb.experiment", "_trial_worker",
         lambda fn: tracer.wrap_trial_worker("experiment.trial_worker", fn))
    )
    return patches


def layer_metrics(tracer: Tracer, bytes_written: int, overhead_s: float) -> dict:
    spans = tracer.spans
    agg = summarize(spans)

    def get(name, field="calls"):
        return agg.get(name, {}).get(field, 0)

    def data(name, i):
        d = agg.get(name, {}).get("data")
        return d[i] if d else 0

    out = {}
    for name in ("predict_mixture", "mixture_log_likelihood", "update_mixture", "mixture_reduce"):
        out[f"gaussian.{name}.calls"] = (get(f"gaussian.{name}"), "count")
        out[f"gaussian.{name}.s"] = (get(f"gaussian.{name}", "s"), "s")
    label_rows = data("filter.joint_predict_update", 2)
    predict_calls = get("gaussian.predict_mixture")
    out["gaussian.predict_reuse"] = (1.0 - predict_calls / label_rows if label_rows else 0.0, "ratio")

    enum_calls, enum_s = childless(spans, "assignment.ranked_solutions", "assignment.murty_kbest")
    out["assignment.enumeration.calls"] = (enum_calls, "count")
    out["assignment.enumeration.s"] = (enum_s, "s")
    out["assignment.murty_kbest.calls"] = (get("assignment.murty_kbest"), "count")
    out["assignment.murty_kbest.s"] = (get("assignment.murty_kbest", "s"), "s")
    out["assignment.linear_sum_assignment.calls"] = (get("assignment.linear_sum_assignment"), "count")
    out["assignment.gibbs_solutions.calls"] = (get("assignment.gibbs_solutions"), "count")
    out["assignment.gibbs_solutions.s"] = (get("assignment.gibbs_solutions", "s"), "s")
    draws = data("assignment.gibbs_solutions", 2)
    out["assignment.gibbs_distinct_per_draw"] = (
        data("assignment.gibbs_solutions", 1) / draws if draws else 0.0, "ratio")
    solutions = data("assignment.ranked_solutions", 1) + data("assignment.gibbs_solutions", 1)
    out["assignment.solutions"] = (solutions, "count")
    out["assignment.cells"] = (
        data("assignment.ranked_solutions", 0) + data("assignment.gibbs_solutions", 0), "count")

    out["filter.joint_predict_update.calls"] = (get("filter.joint_predict_update"), "count")
    out["filter.joint_predict_update.s"] = (get("filter.joint_predict_update", "s"), "s")
    out["filter.joint_predict_update.self_s"] = (get("filter.joint_predict_update", "self_s"), "s")
    hyps_out = data("filter.joint_predict_update", 1)
    out["filter.hyps_in"] = (data("filter.joint_predict_update", 0), "count")
    out["filter.hyps_out"] = (hyps_out, "count")
    out["filter.kept_per_solution"] = (hyps_out / solutions if solutions else 0.0, "ratio")
    out["filter.extract_map_trajectories.s"] = (get("filter.extract_map_trajectories", "s"), "s")

    out["lrfs.log_sum_weights.calls"] = (get("lrfs.log_sum_weights"), "count")
    out["lrfs.log_sum_weights.s"] = (get("lrfs.log_sum_weights", "s"), "s")
    out["lrfs.map_select.s"] = (get("lrfs.map_select", "s"), "s")

    out["scenario.synthesize_observations.s"] = (get("scenario.synthesize_observations", "s"), "s")
    out["scenario.load_site_table.calls"] = (get("scenario.load_site_table"), "count")
    out["scenario.load_site_table.s"] = (get("scenario.load_site_table", "s"), "s")

    out["evaluation.build_report.s"] = (get("evaluation.build_report", "s"), "s")
    out["evaluation.ospa.calls"] = (get("evaluation.ospa"), "count")
    out["experiment.run_trial.s"] = (get("experiment.run_trial", "s"), "s")
    out["experiment.write_s"] = (get("experiment.write", "s"), "s")
    out["experiment.bytes_written"] = (bytes_written, "bytes")
    out["experiment.pool_wait_s"] = (get("experiment.run_monte_carlo", "self_s"), "s")
    out["svgplot.profile_plot.s"] = (get("svgplot.profile_plot", "s"), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# --- joint-mode trial workloads -------------------------------------------------------


def _fingerprint(series) -> tuple:
    return (
        series.map_cardinality,
        series.map_log_weight,
        tuple(series.hypothesis_counts),
        tuple(
            (str(t.label), t.steps.tobytes(), t.values.tobytes(), t.rates.tobytes(),
             t.variances.tobytes())
            for t in series.tracks
        ),
    )


class TrialRunner:
    def __init__(self, spec: dict, seed: int, passes: int):
        self.site = spec["site"]
        self.records = geoglmb.bundled_records(self.site)
        self.config = geoglmb.ExperimentConfig(site=self.site, **spec["config"])
        seeds = spec["seeds"]
        shuffler = random.Random(seed)
        self.order = []
        for _ in range(passes):
            batch = list(seeds)
            shuffler.shuffle(batch)
            self.order.append(batch)
        self.repeat_seed = seeds[seed % len(seeds)]
        self.capture = Capture()
        self.tracer = None
        self.problems: list[str] = []
        self.per_trial: dict[int, dict] = {}
        self.fingerprints: dict[int, tuple] = {}
        self.failed = 0
        self.model = {
            "sigma_m": self.config.sigma_m,
            "sigma_p": self.config.sigma_p,
            "deltas": geoglmb.depth_intervals(self.records),
            "max_hypotheses": self.config.max_hypotheses,
        }
        first = self.records[0].values
        self.prior_means = [
            first[p] + off for p, off in zip(oracle.PROPERTIES, self.config.birth_offsets)
        ]

    def _trial(self, trial_seed: int):
        """One trial: normalized time, or None when the program raised."""
        gc.collect()
        if self.tracer is not None:
            self.tracer.trial = trial_seed
        try:
            (scenario, series), normalized = speed.timed(
                experiment.run_trial, self.records, self.config, trial_seed, self.site
            )
        except GeoGlmbError as exc:
            self.problems.append(f"trial {trial_seed}: {exc}")
            self.capture.take()
            return None
        self._check(trial_seed, scenario, series)
        return normalized

    def _check(self, trial_seed, scenario, series):
        """Filter oracle on every trial; metrics once per seed; estimates of
        a seed must repeat bit for bit across passes."""
        (run,) = self.capture.take()
        if run["series"] is not series:
            self.problems.append(f"trial {trial_seed}: readout is not the filtered run's")
        found = oracle.check_filter_run(
            run["history"], series, run["readings"], self.prior_means, self.model
        )
        self.problems += [f"trial {trial_seed}: {p}" for p in found]
        fingerprint = _fingerprint(series)
        if self.fingerprints.setdefault(trial_seed, fingerprint) != fingerprint:
            self.problems.append(f"trial {trial_seed}: estimates differ on repeat")
        if trial_seed not in self.per_trial:
            truth, observations = oracle.scenario_tables(scenario)
            tracks = oracle.series_tracks(series, len(truth))
            matching = oracle.match_by_rmse(truth, tracks)
            self.per_trial[trial_seed] = oracle.trial_metrics(truth, observations, tracks, matching)

    def warm_up(self):
        """The repeated seed, untimed, with solver calls sampled."""
        sampler = SolverSampler()
        with patched(self.capture.patches() + sampler.patches()):
            self._trial(self.repeat_seed)
        self.problems += sampler.check()
        self.samples = sampler.counts()

    def timed_passes(self, extra_patches=()) -> dict[int, float]:
        """Median normalized time of each seed over the passes."""
        times: dict[int, list[float]] = {}
        with patched(self.capture.patches() + list(extra_patches)):
            for batch in self.order:
                for trial_seed in batch:
                    normalized = self._trial(trial_seed)
                    if normalized is None:
                        self.failed += 1
                    else:
                        times.setdefault(trial_seed, []).append(normalized)
        return {s: statistics.median(t) for s, t in times.items()}

    def attempted(self) -> int:
        return sum(len(b) for b in self.order)


def _accuracy(spec, per_trial: list[dict], problems: list[str]) -> dict:
    summary = oracle.batch_summary(per_trial)
    if spec["accuracy_gate"] and not summary["rmse_est"] < summary["rmse_obs"]:
        problems.append(
            f"estimate RMSE {summary['rmse_est']:.3f} does not beat reading RMSE "
            f"{summary['rmse_obs']:.3f}"
        )
    return summary


def run_trials(name: str, seed: int, passes: int, trace: bool) -> dict:
    spec = WORKLOADS[name]
    runner = TrialRunner(spec, seed, passes)
    runner.warm_up()
    per_seed = runner.timed_passes()
    summary = _accuracy(spec, list(runner.per_trial.values()), runner.problems)
    result = {"samples": runner.samples, "attempted": runner.attempted()}
    if trace:
        runner.tracer = Tracer()
        traced = runner.timed_passes(tracer_patches(runner.tracer))
        runner.tracer.write(OUT_DIR / f"spans-{name}.tsv")
        overhead = sum(traced.values()) - sum(per_seed.values())
        result["metrics"] = layer_metrics(runner.tracer, 0, overhead)
        result["attempted"] *= 2
    else:
        run_s = sum(per_seed.values())
        result["metrics"] = {
            "trial_s": (statistics.median(per_seed.values()), "s"),
            "run_s": (run_s, "s"),
            "trials_per_s": (len(per_seed) / run_s, "1/s"),
            "rmse_est": (summary["rmse_est"], "pp"),
            "ospa_mean": (summary["ospa_mean"], "pp"),
        }
    result.update(failed=runner.failed, problems=runner.problems)
    return result


# --- the CLI workload -----------------------------------------------------------------


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return geoglmb.cli.main(argv)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cli_oracle(spec, argv, problems) -> dict:
    """Run ``argv`` in this process and check its filtered runs and solvers."""
    capture, sampler = Capture(), SolverSampler()
    with patched(capture.patches() + sampler.patches()):
        code = _cli(argv)
    if code != 0:
        problems.append(f"in-process invocation exited {code}")
    records = geoglmb.bundled_records(spec["site"])
    config = geoglmb.ExperimentConfig(p_survival=1.0)
    model = {
        "sigma_m": config.sigma_m,
        "sigma_p": config.sigma_p,
        "deltas": geoglmb.depth_intervals(records),
        "max_hypotheses": config.max_hypotheses,
    }
    prior_means = [records[0].values[p] for p in oracle.PROPERTIES]
    for run in capture.take():
        problems += oracle.check_filter_run(
            run["history"], run["series"], run["readings"], prior_means, model
        )
    problems += sampler.check()
    return sampler.counts()


def run_cli(name: str, seed: int, passes: int, trace: bool) -> dict:
    spec = WORKLOADS[name]
    mc = spec["mc"]
    work = OUT_DIR / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []

    # Untimed warm-up: the repeated trial alone, in this process, so the
    # filter oracle and the solver checks can see it.
    repeat_seed = seed % mc
    repeat_dir = work / "repeat"
    samples = _cli_oracle(
        spec,
        spec["cli"] + ["--seed", str(spec["base_seed"] + repeat_seed), "--mc", "1",
                       "--jobs", "1", "--out", str(repeat_dir)],
        problems,
    )
    base = spec["cli"] + ["--seed", str(spec["base_seed"]), "--mc", str(mc),
                          "--jobs", str(spec["jobs"])]
    state = {"failed": 0, "bytes": 0, "per_trial": []}

    def invocation(index: int) -> float | None:
        out = work / f"run{index}"
        gc.collect()
        code, normalized = speed.timed(_cli, base + ["--out", str(out)])
        if code != 0:
            problems.append(f"invocation {index} exited {code}")
            state["failed"] += mc
            return None
        state["bytes"] += _dir_bytes(out)
        state["per_trial"], found = oracle.check_cli_artifacts(out, mc)
        problems.extend(found)
        for csv_name in ("scenario.csv", "estimates.csv"):
            again = (repeat_dir / "trials" / "trial_000" / csv_name).read_bytes()
            if (out / "trials" / f"trial_{repeat_seed:03d}" / csv_name).read_bytes() != again:
                problems.append(f"invocation {index}: {csv_name} of trial {repeat_seed} differs on repeat")
        shutil.rmtree(out)
        return normalized

    times = [t for t in map(invocation, range(passes)) if t is not None]
    result = {"samples": samples, "attempted": passes * mc}
    if trace:
        tracer = Tracer(worker_dir=work / "workers")
        tracer.worker_dir.mkdir()
        state["bytes"] = 0
        with patched(tracer_patches(tracer)):
            traced = [t for t in map(invocation, range(passes, 2 * passes)) if t is not None]
        tracer.collect_workers()
        tracer.write(OUT_DIR / f"spans-{name}.tsv")
        overhead = statistics.median(traced) - statistics.median(times)
        result["metrics"] = layer_metrics(tracer, state["bytes"], overhead)
        result["attempted"] *= 2
    else:
        summary = _accuracy(spec, state["per_trial"], problems)
        run_s = statistics.median(times)
        result["metrics"] = {
            "trial_s": (run_s / mc, "s"),
            "run_s": (run_s, "s"),
            "trials_per_s": (mc / run_s, "1/s"),
            "rmse_est": (summary["rmse_est"], "pp"),
            "ospa_mean": (summary["ospa_mean"], "pp"),
        }
    shutil.rmtree(work)
    result.update(failed=state["failed"], problems=problems)
    return result


def peak_rss_mb() -> float:
    """This process's peak plus the largest peak among its finished children
    (the pool workers; no other child is started here)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    speed.warm_up()
    spec = WORKLOADS[args.workload]
    passes = max(2, round(args.seconds / spec["pass_s"]))
    run = run_cli if "cli" in spec else run_trials
    result = run(args.workload, args.seed, passes, bool(args.trace))
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result["correct"] = not result["problems"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
