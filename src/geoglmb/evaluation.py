"""Estimation quality metrics and run reports.

Per-property accuracy is root-mean-square error on the value coordinate;
set-level accuracy per depth is the optimal-subpattern-assignment distance.
A run report aggregates both over Monte Carlo trials.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .assignment import linear_sum_assignment, solution_score
from .filter import EstimateSeries
from .lrfs import Label
from .scenario import PROPERTIES, Scenario

__all__ = [
    "rmse",
    "ospa",
    "PropertyMetrics",
    "RunReport",
    "TrialMetrics",
    "aggregate_report",
    "build_report",
    "compare_reports",
    "label_property_matching",
    "track_values_on_schedule",
    "trial_metrics",
    "write_report_json",
    "write_metrics_csv",
]

OSPA_CUTOFF = 20.0
OSPA_ORDER = 1.0


def rmse(truth: Sequence[float], estimate: Sequence[float]) -> float:
    """Root of the mean squared difference of two equally long sequences."""
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimate, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError(f"length mismatch: {t.shape} vs {e.shape}")
    if t.size == 0:
        raise ValueError("rmse needs at least one point")
    return float(np.sqrt(np.mean((t - e) ** 2)))


def ospa(
    x: Sequence[float],
    y: Sequence[float],
    cutoff: float = OSPA_CUTOFF,
    order: float = OSPA_ORDER,
) -> float:
    """Optimal-subpattern-assignment distance between two scalar sets.

    Pairs min(|X|,|Y|) elements optimally with per-pair distance capped at
    the cutoff, charges the cutoff for each unmatched element, and averages
    in the order-p norm over the larger set size.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be > 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    xs = np.asarray(list(x), dtype=float)
    ys = np.asarray(list(y), dtype=float)
    d = _capped_distances(xs[:, None], ys[None, :], cutoff, order)
    return _ospa_of_distances(d, cutoff, order)


def _capped_distances(x: np.ndarray, y: np.ndarray, cutoff: float, order: float) -> np.ndarray:
    """min(|x - y|, cutoff) ** order, broadcast."""
    return np.minimum(np.abs(x - y), cutoff) ** order


def _ospa_of_distances(d: np.ndarray, cutoff: float, order: float) -> float:
    """``ospa`` of two sets from their capped distances ``d`` [|X|, |Y|]."""
    n, m = d.shape
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(cutoff)
    rows, cols = linear_sum_assignment(d)
    cost = float(d[rows, cols].sum())
    big = max(n, m)
    return float(((cutoff**order) * abs(n - m) + cost) ** (1.0 / order) / big ** (1.0 / order))


@dataclass(frozen=True)
class PropertyMetrics:
    rmse_estimate: float
    rmse_observation: float
    recovery_rate: float
    n_detections: int


@dataclass(frozen=True)
class RunReport:
    """Metrics of one primary trial plus a Monte Carlo summary."""

    site_name: str
    mode: str
    per_property: dict[str, PropertyMetrics]
    ospa_per_depth: tuple[float, ...]
    ospa_cutoff: float
    ospa_order: float
    mc_summary: dict[str, dict[str, float]]
    n_trials: int


def track_values_on_schedule(series: EstimateSeries, n_depths: int) -> dict:
    """Per-label value arrays aligned to the schedule (NaN where not alive)."""
    out = {}
    for track in series.tracks:
        vals = np.full(n_depths, np.nan)
        vals[track.steps - 1] = track.values
        out[track.label] = vals
    return out


def label_property_matching(truth: np.ndarray, series: EstimateSeries, aligned: dict) -> dict:
    """Which estimated label carries which property column.

    Tracks that carry the property their run paired them with keep it.  When
    none does, labels are matched to the columns of ``truth`` by least total
    value-RMSE on ``aligned`` (from track_values_on_schedule), so the result
    is invariant to how labels are numbered: one search over every injection
    of the smaller side (sorted labels, or the columns) into the larger keeps
    the first least total, summed and returned in the smaller side's order.
    """
    carried = {track.prop: track.label for track in series.tracks if track.prop is not None}
    labels = sorted(aligned)
    if carried or not labels:
        return carried

    def pair_cost(lbl, p):
        vals = aligned[lbl]
        mask = ~np.isnan(vals)
        return rmse(truth[mask, p], vals[mask]) if mask.any() else 0.0

    # (label, column) cells of the label x column table; rows: the smaller side
    table = [[(lbl, p) for p in range(truth.shape[1])] for lbl in labels]
    if len(table) > len(table[0]):
        table = list(zip(*table))
    costs = [[pair_cost(lbl, p) for lbl, p in row] for row in table]
    best = min(itertools.permutations(range(len(table[0])), len(table)),  # first least total
               key=lambda cols: solution_score(costs, cols))
    return {PROPERTIES[p]: lbl for lbl, p in (row[c] for row, c in zip(table, best))}


@dataclass(frozen=True)
class TrialMetrics:
    """One trial's share of a run report: its per-property metrics, its
    OSPA per depth, and the label paired with each property."""

    per_property: dict[str, PropertyMetrics]
    ospa_per_depth: tuple[float, ...]
    matching: dict[str, Label]


def trial_metrics(scenario: Scenario, series: EstimateSeries) -> TrialMetrics:
    """Metrics of one trial, its labels paired with property columns by
    label_property_matching."""
    truth = scenario.truth_matrix()
    n_depths = truth.shape[0]
    aligned = track_values_on_schedule(series, n_depths)
    matching = label_property_matching(truth, series, aligned)

    per_property = {}
    for p_idx, prop in enumerate(PROPERTIES):
        det = scenario.detection_flags[:, p_idx]
        if det.any():
            rmse_obs = rmse(
                truth[det, p_idx], scenario.property_observations[det, p_idx]
            )
        else:
            rmse_obs = math.nan
        lbl = matching.get(prop)
        if lbl is None:
            rmse_est, recovery = math.nan, 0.0
        else:
            vals = aligned[lbl]
            mask = ~np.isnan(vals)
            rmse_est = rmse(truth[mask, p_idx], vals[mask]) if mask.any() else math.nan
            recovery = float(mask.mean())
        per_property[prop] = PropertyMetrics(
            rmse_estimate=rmse_est,
            rmse_observation=rmse_obs,
            recovery_rate=recovery,
            n_detections=int(det.sum()),
        )

    # Each depth's truth against its estimates (label order, NaN where a
    # label is not alive), distances taken for all depths at once.
    estimates = np.array(list(aligned.values())).reshape(-1, n_depths).T
    capped = _capped_distances(
        truth[:, :, None], estimates[:, None, :], OSPA_CUTOFF, OSPA_ORDER
    )
    ospa_per_depth = tuple(
        _ospa_of_distances(d[:, alive], OSPA_CUTOFF, OSPA_ORDER)
        for d, alive in zip(capped, ~np.isnan(estimates))
    )
    return TrialMetrics(per_property, ospa_per_depth, matching)


def aggregate_report(site_name: str, mode: str, metrics: Sequence[TrialMetrics]) -> RunReport:
    """Report for the primary trial, whose metrics come first in
    ``metrics``, with mc_summary over every trial's metrics.  A trial with
    no estimates has recovery 0, RMSE NaN and OSPA at the cutoff per depth."""
    samples: dict[str, list[float]] = {}
    for m in metrics:
        for prop, pm in m.per_property.items():
            samples.setdefault(f"rmse_estimate_{prop}", []).append(pm.rmse_estimate)
            samples.setdefault(f"rmse_observation_{prop}", []).append(pm.rmse_observation)
            samples.setdefault(f"recovery_rate_{prop}", []).append(pm.recovery_rate)
        samples.setdefault("ospa_mean", []).append(
            float(np.mean(m.ospa_per_depth)) if m.ospa_per_depth else math.nan
        )
    mc_summary = {}
    for key, vals in samples.items():
        finite = [v for v in vals if not math.isnan(v)]
        mc_summary[key] = {
            "mean": float(np.mean(finite)) if finite else math.nan,
            "std": float(np.std(finite)) if finite else math.nan,
        }

    primary = metrics[0]
    return RunReport(
        site_name=site_name,
        mode=mode,
        per_property=primary.per_property,
        ospa_per_depth=primary.ospa_per_depth,
        ospa_cutoff=OSPA_CUTOFF,
        ospa_order=OSPA_ORDER,
        mc_summary=mc_summary,
        n_trials=len(metrics),
    )


def build_report(scenario: Scenario, estimates: EstimateSeries) -> RunReport:
    """Report for one trial, its mc_summary over that trial alone.  For
    several trials, pass each one's ``trial_metrics`` to
    ``aggregate_report``."""
    return aggregate_report(scenario.site_name, scenario.mode, [trial_metrics(scenario, estimates)])


def compare_reports(baseline: RunReport, other: RunReport) -> dict:
    """Cross-site accuracy comparison on mean estimate RMSE per property."""
    out = {
        "baseline_site": baseline.site_name,
        "other_site": other.site_name,
        "per_property": {},
    }
    for prop in PROPERTIES:
        base = baseline.mc_summary[f"rmse_estimate_{prop}"]["mean"]
        oth = other.mc_summary[f"rmse_estimate_{prop}"]["mean"]
        out["per_property"][prop] = {
            "baseline_mean_rmse": base,
            "other_mean_rmse": oth,
            "other_less_accurate": bool(oth >= base),
        }
    return out


def write_report_json(report: RunReport, target, extra: dict | None = None) -> None:
    """Write the report, updated with ``extra``, as JSON to the path ``target``."""
    doc = asdict(report)
    if extra:
        doc.update(extra)
    text = json.dumps(doc, indent=2, allow_nan=True, sort_keys=True)
    Path(target).write_text(text + "\n", encoding="utf-8")


def write_metrics_csv(report: RunReport, target) -> None:
    """Write a flat metric table, one row per (property, metric), to the
    path ``target``."""

    def rows():
        yield ("site", "property", "metric", "value", "mc_mean", "mc_std")
        for prop, pm in report.per_property.items():
            for metric in ("rmse_estimate", "rmse_observation", "recovery_rate"):
                summary = report.mc_summary[f"{metric}_{prop}"]
                yield (
                    report.site_name,
                    prop,
                    metric,
                    f"{getattr(pm, metric):.6g}",
                    f"{summary['mean']:.6g}",
                    f"{summary['std']:.6g}",
                )
        summary = report.mc_summary["ospa_mean"]
        mean_ospa = float(np.mean(report.ospa_per_depth)) if report.ospa_per_depth else math.nan
        yield (
            report.site_name,
            "all",
            "ospa_mean",
            f"{mean_ospa:.6g}",
            f"{summary['mean']:.6g}",
            f"{summary['std']:.6g}",
        )

    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows())
