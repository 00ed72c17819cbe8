"""End-to-end experiment harness: synthesis, filtering, metrics, artifacts.

A trial synthesizes one observation sequence from a site table, filters it,
and extracts the MAP trajectory readout.  Monte Carlo batches repeat trials
under derived seeds (seed + trial index) and aggregate one report.
"""
from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, FilterDivergenceError, GeoGlmbError
from .evaluation import (
    RunReport,
    build_report,
    label_property_matching,
    track_values_on_schedule,
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
from .gaussian import MotionModel, SensorModel, single_gaussian
from .lrfs import Label
from .scenario import (
    PROPERTIES,
    Scenario,
    SiteRecord,
    bundled_site_path,
    depth_intervals,
    load_site_table,
    scenario_to_csv,
    synthesize_observations,
)
from .svgplot import profile_plot

__all__ = [
    "ExperimentConfig",
    "birth_model_for",
    "run_trial",
    "run_monte_carlo",
    "run_experiment",
    "read_scenario_csv",
    "read_estimates_csv",
    "write_estimates_csv",
    "write_plots",
]

ESTIMATES_HEADER = ("step", "depth", "label", "property", "mean", "variance")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults reproduce the reference setup
    (detection probability 0.5, observation noise 10, process noise 0.3)."""

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

    def validate(self) -> None:
        """Raise ConfigError listing every problem, including those the
        sensor, motion and truncation models reject when built."""
        issues = []
        for build in (self.sensor, self.motion, lambda: self.truncation(self.seed)):
            try:
                build()
            except ValueError as exc:
                issues.append(str(exc))
        if self.sigma_m == 0:
            issues.append("sigma_m must be > 0 for the sensor model")
        if not 0.0 <= self.r_birth <= 1.0:
            issues.append(f"r_birth={self.r_birth} outside [0, 1]")
        if len(self.birth_offsets) != len(PROPERTIES):
            issues.append(f"birth_offsets needs {len(PROPERTIES)} values, one per property")
        if self.mode not in ("joint", "independent"):
            issues.append(f"mode={self.mode!r} not in {{joint, independent}}")
        if self.mc_trials < 1:
            issues.append("mc_trials must be >= 1")
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

    def resolve_site(self) -> Path:
        path = Path(self.site)
        if path.exists():
            return path
        try:
            return bundled_site_path(self.site)
        except ValueError:
            raise ConfigError(f"site {self.site!r} is neither a file nor a bundled name")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("clutter_region", "birth_offsets"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["clutter_region"] = list(self.clutter_region)
        doc["birth_offsets"] = list(self.birth_offsets)
        return doc


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
                density=single_gaussian(mean, cov),
            )
        )
    return BirthModel(tuple(entries))


def run_trial(
    records: Sequence[SiteRecord],
    config: ExperimentConfig,
    seed: int,
    site_name: str = "",
) -> tuple[Scenario, EstimateSeries]:
    """Synthesize, filter, and extract one trial at one seed."""
    sensor = config.sensor()
    motion = config.motion()
    scenario = synthesize_observations(
        records, sensor, mode=config.mode, seed=seed, site_name=site_name
    )
    deltas = depth_intervals(records)
    depths = [r.depth for r in records]
    trunc = config.truncation(seed)

    if config.mode == "joint":
        history = run_sequence(
            deltas,
            scenario.measurement_sets,
            birth_model_for(records, config),
            motion,
            sensor,
            trunc,
        )
        series = extract_map_trajectories(history, depths)
    else:
        all_tracks: list[TrackEstimate] = []
        counts = np.zeros(len(depths), dtype=int)
        logw = 0.0
        cardinality = 0
        for prop in PROPERTIES:
            birth = birth_model_for(records, config, properties=[prop])
            history = run_sequence(
                deltas,
                scenario.property_measurements(prop),
                birth,
                motion,
                sensor,
                trunc,
            )
            sub = extract_map_trajectories(history, depths)
            all_tracks.extend(sub.tracks)
            counts += np.array(sub.hypothesis_counts)
            logw += sub.map_log_weight
            cardinality += sub.map_cardinality
        series = EstimateSeries(
            depths=np.asarray(depths, dtype=float),
            tracks=tuple(all_tracks),
            map_cardinality=cardinality,
            map_log_weight=logw,
            hypothesis_counts=tuple(int(c) for c in counts),
        )
    return scenario, series


def _trial_worker(args) -> tuple[Scenario, EstimateSeries]:
    records, config, site_name, seed = args
    try:
        return run_trial(records, config, seed, site_name)
    except GeoGlmbError as exc:
        raise FilterDivergenceError(f"trial seed {seed}: {exc}") from exc


def run_monte_carlo(
    config: ExperimentConfig,
) -> tuple[list[tuple[Scenario, EstimateSeries]], RunReport]:
    """All trials (seeds seed+0 .. seed+mc_trials-1) plus one report.

    The site table is parsed once and shared by every trial.  Trials may run
    in parallel up to config.jobs; results are aggregated in trial order, so
    the report does not depend on scheduling.
    """
    config.validate()
    site_path = config.resolve_site()
    records = load_site_table(site_path)
    jobs = [
        (records, config, site_path.stem, config.seed + t)
        for t in range(config.mc_trials)
    ]
    if config.jobs > 1 and config.mc_trials > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            trials = list(pool.map(_trial_worker, jobs))
    else:
        trials = [_trial_worker(j) for j in jobs]
    scenario0, series0 = trials[0]
    report = build_report(scenario0, series0, mc_runs=trials[1:])
    return trials, report


def write_estimates_csv(
    scenario: Scenario, series: EstimateSeries, target
) -> None:
    """Write `step,depth,label,property,mean,variance` rows for one trial."""
    matching = label_property_matching(scenario, series)
    label_to_prop = {lbl: prop for prop, lbl in matching.items()}

    def rows():
        yield ESTIMATES_HEADER
        for track in series.tracks:
            prop = label_to_prop.get(track.label, "unknown")
            for step, depth, value, var in zip(
                track.steps, track.depths, track.values, track.variances
            ):
                yield (
                    int(step),
                    f"{depth:.6g}",
                    str(track.label),
                    prop,
                    f"{value:.10g}",
                    f"{var:.10g}",
                )

    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows())
    else:
        csv.writer(target).writerows(rows())


def write_plots(scenario: Scenario, series: EstimateSeries, out_dir: Path) -> list[Path]:
    """One SVG profile per property: truth line, observation crosses,
    estimate circles."""
    depths = scenario.depths
    truth = scenario.truth_matrix()
    aligned = track_values_on_schedule(series, len(depths))
    matching = label_property_matching(scenario, series)

    written = []
    for p_idx, prop in enumerate(PROPERTIES):
        truth_pairs = list(zip(depths, truth[:, p_idx]))
        obs_pairs = [
            (depths[d], scenario.property_observations[d, p_idx])
            for d in range(len(depths))
            if scenario.detection_flags[d, p_idx]
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


def run_experiment(config: ExperimentConfig) -> dict[str, list[str]]:
    """Run the configured experiment and write all artifacts.

    Produces per-trial scenario/estimate tables under trials/, the
    aggregated report.json and metrics.csv, and one SVG profile per
    property rendered from the first trial.
    """
    trials, report = run_monte_carlo(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    written: dict[str, list[str]] = {"scenario": [], "estimates": [], "report": [], "plots": []}
    for t, (scenario, series) in enumerate(trials):
        trial_dir = out_dir / "trials" / f"trial_{t:03d}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        scenario_to_csv(scenario, trial_dir / "scenario.csv")
        write_estimates_csv(scenario, series, trial_dir / "estimates.csv")
        written["scenario"].append(str(trial_dir / "scenario.csv"))
        written["estimates"].append(str(trial_dir / "estimates.csv"))

    write_report_json(report, out_dir / "report.json", extra={"config": config.to_dict()})
    write_metrics_csv(report, out_dir / "metrics.csv")
    written["report"] = [str(out_dir / "report.json"), str(out_dir / "metrics.csv")]
    written["plots"] = [str(p) for p in write_plots(trials[0][0], trials[0][1], out_dir)]
    return written


def read_scenario_csv(path) -> Scenario:
    """Rebuild a Scenario from an exported scenario.csv (joint-mode view)."""
    truth_rows: dict[float, dict[str, float]] = {}
    obs: dict[float, dict[str, float]] = {}
    clutter: dict[float, list[float]] = {}
    seed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            depth = float(row["depth"])
            kind = row["kind"]
            seed = int(row["seed"])
            if kind == "truth":
                truth_rows.setdefault(depth, {})[row["property_or_unknown"]] = float(
                    row["value"]
                )
            elif kind == "obs":
                obs.setdefault(depth, {})[row["property_or_unknown"]] = float(row["value"])
            elif kind == "clutter":
                clutter.setdefault(depth, []).append(float(row["value"]))

    records = tuple(
        SiteRecord(depth=d, values=vals) for d, vals in sorted(truth_rows.items())
    )
    n = len(records)
    detected = np.zeros((n, len(PROPERTIES)), dtype=bool)
    prop_obs = np.full((n, len(PROPERTIES)), np.nan)
    sets = []
    for d_idx, rec in enumerate(records):
        vals = []
        for p_idx, prop in enumerate(PROPERTIES):
            if prop in obs.get(rec.depth, {}):
                detected[d_idx, p_idx] = True
                prop_obs[d_idx, p_idx] = obs[rec.depth][prop]
                vals.append(obs[rec.depth][prop])
        vals.extend(clutter.get(rec.depth, []))
        sets.append(tuple(vals))
    return Scenario(
        site_name=Path(path).stem,
        records=records,
        mode="joint",
        measurement_sets=tuple(sets),
        detection_flags=detected,
        property_observations=prop_obs,
        seed=seed,
        sensor=SensorModel(),
    )


def read_estimates_csv(path) -> EstimateSeries:
    """Rebuild an estimate series from an exported estimates.csv."""
    per_label: dict[str, list[tuple[int, float, float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            per_label.setdefault(row["label"], []).append(
                (
                    int(row["step"]),
                    float(row["depth"]),
                    float(row["mean"]),
                    float(row["variance"]),
                )
            )
    tracks = []
    depths_all: set[float] = set()
    for label_text, rows in sorted(per_label.items()):
        rows.sort()
        birth, idx = label_text.split(":")
        steps, depths, means, variances = (np.array(c) for c in zip(*rows))
        depths_all.update(depths.tolist())
        tracks.append(
            TrackEstimate(
                label=Label(int(birth), int(idx)),
                steps=steps.astype(int),
                depths=depths,
                values=means,
                rates=np.zeros_like(means),
                variances=variances,
            )
        )
    return EstimateSeries(
        depths=np.array(sorted(depths_all)),
        tracks=tuple(tracks),
        map_cardinality=len(tracks),
        map_log_weight=0.0,
        hypothesis_counts=(),
    )
