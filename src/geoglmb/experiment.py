"""End-to-end experiment harness: synthesis, filtering, metrics, artifacts.

A trial synthesizes one observation sequence from a site table, filters it,
and extracts the MAP trajectory readout.  Monte Carlo batches repeat trials
under derived seeds (seed + trial index); each trial's metrics and tables are
made where it ran, the tables are staged to disk as trials arrive, and the
batch aggregates one report from the metrics.
``read_trial`` reads a trial's scenario.csv and estimates.csv back through
``scenario.read_csv_rows``, the reader of every input table; ``run``,
``eval`` and ``plot`` draw and score a trial from its files alone.
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .assignment import _ENUMERATION_LIMIT
from .errors import ConfigError, FilterDivergenceError, GeoGlmbError, SiteTableError
# glmbbench traces build_report and scenario_to_csv as attributes of this
# module, which no longer calls them.
from .evaluation import (
    RunReport,
    TrialMetrics,
    aggregate_report,
    build_report,
    label_property_matching,
    track_values_on_schedule,
    trial_metrics,
    write_metrics_csv,
    write_report_json,
)
from .filter import (
    BirthEntry,
    BirthModel,
    EstimateSeries,
    TrackEstimate,
    TruncationConfig,
    extract_map_trajectories,
    run_sequence,
)
from .gaussian import MAX_MAGNITUDE, Gaussian, MotionModel, SensorModel, is_number
from .lrfs import Label
from .scenario import (
    PROPERTIES,
    SEED_LIMIT,
    Scenario,
    SiteRecord,
    bundled_site_path,
    depth_intervals,
    load_site_table,
    read_csv_rows,
    read_scenario_csv,
    scenario_csv_text,
    scenario_to_csv,
    synthesize_observations,
)
from .svgplot import profile_plot

__all__ = [
    "ExperimentConfig",
    "Trial",
    "birth_model_for",
    "run_trial",
    "run_monte_carlo",
    "run_experiment",
    "read_estimates_csv",
    "read_trial",
    "staged",
    "write_estimates_csv",
    "write_plots",
]

# 100x the default: one joint Gibbs trial takes 6-9 s at 20,000 (2-core x86).
_GIBBS_ITERATION_LIMIT = 20_000

ESTIMATES_HEADER = ("step", "depth", "label", "property", "mean", "variance")


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", tuple: "a list of numbers"}


def _has_type(value, kind: type) -> bool:
    """Whether a config value fits the type of its field's default."""
    if kind in (float, int):
        return is_number(value, whole=kind is int)
    if kind is tuple:
        return isinstance(value, (tuple, list)) and all(map(is_number, value))
    return isinstance(value, kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults reproduce the reference setup
    (detection probability 0.5, observation noise 10, process noise 0.3).
    Building one checks its fields: ConfigError lists every problem, including
    those the sensor, motion and truncation models reject."""

    site: str = "onsoy"
    mode: str = "joint"
    p_detect: float = 0.5
    sigma_m: float = 10.0
    sigma_p: float = 0.3
    p_survival: float = 0.99
    clutter_rate: float = 1e-6
    clutter_region: tuple[float, float] = (0.0, 120.0)
    birth_offsets: tuple[float, float, float] = (0.0, 0.0, 0.0)
    r_birth: float = 0.98
    trunc_method: str = "ranked"
    requested_hypotheses: int = 64
    gibbs_iterations: int = 200
    min_weight: float = 1e-5
    max_hypotheses: int = 200
    seed: int = 0
    mc_trials: int = 1
    jobs: int = 1
    out_dir: str = "out"

    def __post_init__(self) -> None:
        issues = [
            f"{f.name}={getattr(self, f.name)!r} is not {_TYPE_NAMES[type(f.default)]}"
            for f in dataclasses.fields(self)
            if not _has_type(getattr(self, f.name), type(f.default))
        ]
        if not issues and len(self.clutter_region) != 2:
            issues.append(f"clutter_region={list(self.clutter_region)} needs 2 values, lo and hi")
        if issues:
            raise ConfigError("; ".join(issues))
        for build in (self.sensor, self.motion, lambda: self.truncation(self.seed)):
            try:
                build()
            except ValueError as exc:
                issues.append(str(exc))
        if 0.0 <= self.sigma_m <= MAX_MAGNITUDE and self.sigma_m**2 < sys.float_info.min:
            issues.append(f"sigma_m={self.sigma_m} must be > 0, with a square of at least "
                          "2.2e-308 (the least normal double), for the sensor model")
        if not 0.0 <= self.r_birth <= 1.0:
            issues.append(f"r_birth={self.r_birth} outside [0, 1]")
        if len(self.birth_offsets) != len(PROPERTIES):
            issues.append(f"birth_offsets needs {len(PROPERTIES)} values, one per property")
        if not all(abs(v) <= MAX_MAGNITUDE for v in self.birth_offsets):
            issues.append(f"birth_offsets={list(self.birth_offsets)} must be finite and "
                          "within +-1e150")
        if self.mode not in ("joint", "independent"):
            issues.append(f"mode={self.mode!r} not in {{joint, independent}}")
        if self.requested_hypotheses > _ENUMERATION_LIMIT:
            issues.append(f"requested_hypotheses={self.requested_hypotheses} above {_ENUMERATION_LIMIT}")
        if self.gibbs_iterations > _GIBBS_ITERATION_LIMIT:
            issues.append(f"gibbs_iterations={self.gibbs_iterations} above {_GIBBS_ITERATION_LIMIT}")
        if self.mc_trials < 1:
            issues.append("mc_trials must be >= 1")
        if self.seed + self.mc_trials - 1 >= SEED_LIMIT:
            issues.append(f"seed={self.seed}: the last trial seed, seed + mc_trials - 1, "
                          "must be below 2**53")
        if self.jobs < 1:
            issues.append("jobs must be >= 1")
        if issues:
            raise ConfigError("; ".join(issues))

    def sensor(self) -> SensorModel:
        return SensorModel(
            sigma_m=self.sigma_m,
            p_detect=self.p_detect,
            clutter_rate=self.clutter_rate,
            clutter_region=self.clutter_region,
        )

    def motion(self) -> MotionModel:
        return MotionModel(sigma_p=self.sigma_p, p_survival=self.p_survival)

    def truncation(self, seed: int) -> TruncationConfig:
        return TruncationConfig(
            method=self.trunc_method,
            requested_hypotheses=self.requested_hypotheses,
            gibbs_iterations=self.gibbs_iterations,
            seed=seed,
            min_weight=self.min_weight,
            max_hypotheses=self.max_hypotheses,
        )

    def site_records(self) -> tuple[Path, list[SiteRecord]]:
        """The site table's path and records.  A site that is neither a file
        nor a bundled name raises ConfigError; a malformed or unreadable
        table, or one of fewer than two depth rows, raises SiteTableError
        naming the file."""
        path = Path(self.site)
        if not path.is_file():
            try:
                path = bundled_site_path(self.site)
            except ValueError:
                raise ConfigError(f"site {self.site!r} is neither a file nor a bundled name")
        records = load_site_table(path)
        if len(records) < 2:
            raise SiteTableError(
                f"{path}: {len(records)} depth rows, need at least two to form intervals"
            )
        return path, records

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("clutter_region", "birth_offsets"):
            if isinstance(coerced.get(key), list):
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)


def birth_model_for(
    records: Sequence[SiteRecord],
    config: ExperimentConfig,
    properties: Sequence[str] = PROPERTIES,
) -> BirthModel:
    """One Bernoulli birth per tracked property at step 1.

    The prior mean is the first ground-truth row shifted by the configured
    offset; the rate coordinate starts at 0 with unit variance and the value
    coordinate at sensor variance.
    """
    entries = []
    for prop in properties:
        p_idx = PROPERTIES.index(prop)
        mean = np.array(
            [records[0].values[prop] + config.birth_offsets[p_idx], 0.0]
        )
        cov = np.diag([config.sigma_m**2, 1.0])
        entries.append(
            BirthEntry(
                label=Label(1, p_idx),
                r_birth=config.r_birth,
                density=Gaussian(mean, cov),
            )
        )
    return BirthModel(tuple(entries))


def run_trial(
    records: Sequence[SiteRecord],
    config: ExperimentConfig,
    seed: int,
    site_name: str = "",
) -> tuple[Scenario, EstimateSeries]:
    """Synthesize, filter, and extract one trial at one seed.

    Each of the scenario's filter groups is filtered alone.  Several groups'
    readouts merge in group order: tracks concatenate, each carrying its
    one-property group's property; MAP cardinalities, MAP log-weights and
    per-step hypothesis counts add.
    """
    sensor = config.sensor()
    motion = config.motion()
    scenario = synthesize_observations(
        records, sensor, mode=config.mode, seed=seed, site_name=site_name
    )
    deltas = depth_intervals(records)
    depths = [r.depth for r in records]
    trunc = config.truncation(seed)

    parts = []
    for properties, readings in scenario.groups:
        birth = birth_model_for(records, config, properties)
        history = run_sequence(deltas, readings, birth, motion, sensor, trunc)
        parts.append(extract_map_trajectories(history, depths))
    if len(parts) == 1:
        return scenario, parts[0]
    return scenario, EstimateSeries(
        tracks=tuple(
            dataclasses.replace(track, prop=prop)
            for ((prop,), _), part in zip(scenario.groups, parts)
            for track in part.tracks
        ),
        map_cardinality=sum(part.map_cardinality for part in parts),
        map_log_weight=sum(part.map_log_weight for part in parts),
        hypothesis_counts=tuple(map(sum, zip(*(part.hypothesis_counts for part in parts)))),
    )


@dataclass(frozen=True)
class Trial:
    """One finished trial: its share of the report, and the text of its
    scenario.csv and estimates.csv by file name."""

    metrics: TrialMetrics
    tables: dict[str, str]


# The running batch's site records, config and site name, which every trial
# shares.  A pool worker's initializer sets them once, as does a serial
# batch in the main process, so a job carries only its seed.  One process
# runs one serial batch at a time.
_batch: tuple = ()

# Jobs in flight per pool worker: enough to keep each worker busy while the
# main process writes, few enough that held results stay a handful.
_WINDOW_PER_WORKER = 2


def _share_batch(*batch) -> None:
    global _batch
    _batch = batch


def _trial_worker(args) -> Trial:
    """The trial of seed ``args[-1]`` in the batch ``_share_batch`` set, as
    its metrics and tables.  A MAP mean or variance that is not finite
    raises FilterDivergenceError."""
    records, config, site_name = _batch
    seed = args[-1]
    try:
        scenario, series = run_trial(records, config, seed, site_name)
    except GeoGlmbError as exc:
        raise FilterDivergenceError(f"trial seed {seed}: {exc}") from exc
    # its estimates.csv would hold a cell that no reader takes
    if not all(np.isfinite(t.values).all() and np.isfinite(t.variances).all()
               for t in series.tracks):
        raise FilterDivergenceError(f"trial seed {seed}: a MAP estimate is not finite")
    metrics = trial_metrics(scenario, series)
    return Trial(metrics, {
        "scenario.csv": scenario_csv_text(scenario),
        "estimates.csv": _estimates_csv_text(series, metrics.matching),
    })


def _usable_cpus() -> int:
    """The CPUs this process may run on; all of the host's where the
    platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_monte_carlo(
    config: ExperimentConfig, on_trial: Callable[[int, Trial], None] | None = None
) -> RunReport:
    """The report of the trials at seeds seed+0 .. seed+mc_trials-1.

    The site table is parsed once; each pool worker receives it, the config
    and the site name once, through the pool's initializer, and each job
    carries only its seed.  The pool has min(config.jobs, mc_trials, usable
    CPUs) workers, as a forked pool starts every worker at its first job,
    and at most ``_WINDOW_PER_WORKER`` jobs per worker are in flight.
    Trials are taken in trial order as they complete; each goes to
    ``on_trial(index, trial)`` and is then dropped, so the main process
    holds a bounded number of trials whatever mc_trials is.
    Each trial's metrics and CSV text are made by the worker that ran it;
    the report aggregates the metrics in trial order, so it does not depend
    on scheduling.
    """
    site_path, records = config.site_records()
    batch = (records, config, site_path.stem)
    seeds = range(config.seed, config.seed + config.mc_trials)
    workers = min(config.jobs, config.mc_trials, _usable_cpus())
    metrics = []

    def take(trial: Trial) -> None:
        if on_trial is not None:
            on_trial(len(metrics), trial)
        metrics.append(trial.metrics)

    try:
        if workers == 1:
            _share_batch(*batch)
            for seed in seeds:
                take(_trial_worker((seed,)))
        else:
            with ProcessPoolExecutor(workers, initializer=_share_batch, initargs=batch) as pool:
                pending = deque()
                try:
                    for seed in seeds:
                        if len(pending) == workers * _WINDOW_PER_WORKER:
                            take(pending.popleft().result())
                        pending.append(pool.submit(_trial_worker, (seed,)))
                    while pending:
                        take(pending.popleft().result())
                finally:
                    for future in pending:
                        future.cancel()
    finally:
        _share_batch()
    return aggregate_report(site_path.stem, config.mode, metrics)


def _estimates_csv_text(series: EstimateSeries, matching: dict[str, Label]) -> str:
    """`step,depth,label,property,mean,variance` rows of one trial, each
    track under the property ``matching`` pairs it with, each row ended by
    CRLF as ``csv.writer`` ends them; no field needs quoting."""
    label_to_prop = {lbl: prop for prop, lbl in matching.items()}
    lines = [",".join(ESTIMATES_HEADER)]
    for track in series.tracks:
        at = f"{track.label},{label_to_prop.get(track.label, 'unknown')}"
        lines += [
            f"{int(step)},{depth:.6g},{at},{value:.10g},{var:.10g}"
            for step, depth, value, var in zip(
                track.steps.tolist(), track.depths.tolist(),
                track.values.tolist(), track.variances.tolist(),
            )
        ]
    lines.append("")
    return "\r\n".join(lines)


def write_estimates_csv(scenario: Scenario, series: EstimateSeries, target) -> None:
    """Write `step,depth,label,property,mean,variance` rows for one trial to
    the path ``target``."""
    aligned = track_values_on_schedule(series, len(scenario.records))
    matching = label_property_matching(scenario.truth_matrix(), series, aligned)
    _write_text(target, _estimates_csv_text(series, matching))


def _write_text(target, text: str) -> None:
    Path(target).write_text(text, encoding="utf-8", newline="")


def write_plots(scenario: Scenario, series: EstimateSeries, out_dir: Path) -> list[Path]:
    """One SVG profile per property: truth line, observation crosses,
    estimate circles."""
    depths = scenario.depths
    truth = scenario.truth_matrix()
    detected = scenario.detection_flags
    aligned = track_values_on_schedule(series, len(depths))
    matching = label_property_matching(truth, series, aligned)

    written = []
    for p_idx, prop in enumerate(PROPERTIES):
        truth_pairs = list(zip(depths, truth[:, p_idx]))
        obs_pairs = [
            (depths[d], scenario.property_observations[d, p_idx])
            for d in range(len(depths))
            if detected[d, p_idx]
        ]
        est_pairs = []
        lbl = matching.get(prop)
        if lbl is not None:
            vals = aligned[lbl]
            est_pairs = [
                (depths[d], vals[d]) for d in range(len(depths)) if not np.isnan(vals[d])
            ]
        path = out_dir / f"plot_{prop}.svg"
        profile_plot(
            f"{scenario.site_name or 'site'}: {prop}", truth_pairs, obs_pairs, est_pairs, path
        )
        written.append(path)
    return written


def _nearest_existing(path: Path) -> Path:
    return next(p for p in (path, *path.absolute().parents) if os.path.lexists(p))


def check_out_dir(path) -> Path:
    """``path`` as a Path, once it is a directory or one can be made there;
    otherwise ConfigError names it.  Nothing is created."""
    out = Path(path)
    nearest = _nearest_existing(out)
    if not nearest.is_dir() or not os.access(nearest, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {path}: {nearest} is not a writable directory")
    return out


def _moves(src: Path, dst: Path) -> list[tuple[Path, Path]]:
    """The (entry, target) renames that move every entry of ``src`` into ``dst``:
    a directory merges into its namesake there, anything else replaces it.
    ConfigError names the first target of the other kind (file or directory)."""
    moves = []
    for entry in sorted(src.iterdir()):
        target = dst / entry.name
        if entry.is_dir() and target.is_dir():
            moves += _moves(entry, target)
        elif entry.is_dir() and os.path.lexists(target):
            raise ConfigError(f"{target} is not a directory, and a directory is to be moved there")
        elif target.is_dir() and not target.is_symlink():
            raise ConfigError(f"{target} is a directory, and a file is to be moved there")
        else:
            moves.append((entry, target))
    return moves


@contextmanager
def staged(out_dir):
    """Yield a staging directory, made in the nearest existing ancestor of
    ``out_dir`` once ``check_out_dir`` passes it.  When the block ends without
    error, every staged entry moves into ``out_dir``, created if needed, and
    replaces its namesake (ConfigError before any move where a file meets a
    directory).  The staging directory is always removed, so a failed block
    leaves nothing and changes no existing file."""
    out_dir = check_out_dir(out_dir)
    stage = Path(tempfile.mkdtemp(prefix=".geoglmb-run-", dir=_nearest_existing(out_dir)))
    try:
        yield stage
        moves = _moves(stage, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry, target in moves:
            os.replace(entry, target)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run_experiment(config: ExperimentConfig) -> dict[str, list[str]]:
    """Run the configured experiment and write all artifacts through
    ``staged``; return the written paths by group, each under ``config.out_dir``.

    Produces per-trial scenario/estimate tables under trials/, staged as each
    trial arrives, the aggregated report.json and metrics.csv, and one SVG
    profile per property, drawn from the first trial's staged tables as
    ``plot`` draws them.
    """
    written: dict[str, list[Path]] = {"scenario": [], "estimates": [], "report": [], "plots": []}
    with staged(config.out_dir) as stage:
        def write_trial(t: int, trial: Trial) -> None:
            trial_dir = Path("trials", f"trial_{t:03d}")
            (stage / trial_dir).mkdir(parents=True)
            for name, text in trial.tables.items():
                _write_text(stage / trial_dir / name, text)
                written[name.removesuffix(".csv")].append(trial_dir / name)

        report = run_monte_carlo(config, write_trial)
        write_report_json(report, stage / "report.json", extra={"config": dataclasses.asdict(config)})
        write_metrics_csv(report, stage / "metrics.csv")
        written["report"] = [Path("report.json"), Path("metrics.csv")]
        scenario, series = read_trial(stage / written["scenario"][0],
                                      stage / written["estimates"][0])
        scenario = dataclasses.replace(scenario, site_name=report.site_name)
        written["plots"] = [p.relative_to(stage) for p in write_plots(scenario, series, stage)]
    return {group: [str(Path(config.out_dir, p)) for p in paths] for group, paths in written.items()}


def read_trial(scenario_path, estimates_path) -> tuple[Scenario, EstimateSeries]:
    """The scenario.csv at ``scenario_path`` and the estimates.csv at
    ``estimates_path`` on its schedule."""
    scenario = read_scenario_csv(scenario_path)
    return scenario, read_estimates_csv(estimates_path, scenario.depths)


def read_estimates_csv(path, depths: Sequence[float]) -> EstimateSeries:
    """Rebuild an estimate series from an exported estimates.csv.

    A step must be a whole number from 1 to ``len(depths)`` (``depths`` is
    the run's depth schedule, as its scenario.csv gives it), its depth the
    schedule's depth at that step to the 6 significant digits the file
    holds, and a label must read ``<birth step>:<index>`` in non-negative
    integers.  A property is one of LL, PI, w or unknown (the track carries
    None), the same on every row of a label, and no two labels name one
    property.  A label has one row per step.  Otherwise, as for a missing
    column or a bad number, SiteTableError names the file, the row and the
    column.
    """
    per_label: dict[Label, list[tuple[float, float, float, float]]] = {}
    props: dict[Label, str] = {}
    owners: dict[str, Label] = {}
    numeric = ("step", "depth", "mean", "variance")
    for where, row, values in read_csv_rows(path, ("label", "property"), numeric):
        step = values[0]
        if not step.is_integer() or not 1 <= step <= len(depths):
            raise SiteTableError(
                f"{where}, column step: must be a whole number from 1 to {len(depths)}, "
                f"got {row['step']!r}"
            )
        if f"{values[1]:.6g}" != f"{depths[int(step) - 1]:.6g}":
            raise SiteTableError(
                f"{where}, column depth: step {step:g} is at depth "
                f"{depths[int(step) - 1]:.6g} in the scenario, got {row['depth']!r}"
            )
        parts = row["label"].split(":")
        if len(parts) != 2 or not all(part.isdecimal() for part in parts):
            raise SiteTableError(
                f"{where}, column label: must read <birth step>:<index> in non-negative "
                f"integers, got {row['label']!r}"
            )
        label = Label(int(parts[0]), int(parts[1]))
        prop = row["property"]
        if prop not in (*PROPERTIES, "unknown"):
            raise SiteTableError(
                f"{where}, column property: must be one of {', '.join(PROPERTIES)} "
                f"or unknown, got {prop!r}"
            )
        if props.setdefault(label, prop) != prop:
            raise SiteTableError(
                f"{where}, column property: label {label} is {props[label]!r} on an "
                f"earlier row, got {prop!r}"
            )
        if prop != "unknown" and owners.setdefault(prop, label) != label:
            raise SiteTableError(
                f"{where}, column property: {prop!r} is already label {owners[prop]}'s"
            )
        rows = per_label.setdefault(label, [])
        if any(r[0] == step for r in rows):
            raise SiteTableError(f"{where}, column step: label {label} has a row at step {step:g}")
        rows.append(tuple(values))
    tracks = []
    for label, rows in sorted(per_label.items()):
        steps, track_depths, means, variances = (np.array(c) for c in zip(*sorted(rows)))
        tracks.append(
            TrackEstimate(
                label=label,
                steps=steps.astype(int),
                depths=track_depths,
                values=means,
                rates=np.zeros_like(means),
                variances=variances,
                prop=None if props[label] == "unknown" else props[label],
            )
        )
    return EstimateSeries(
        tracks=tuple(tracks),
        map_cardinality=len(tracks),
        map_log_weight=0.0,
        hypothesis_counts=(),
    )
