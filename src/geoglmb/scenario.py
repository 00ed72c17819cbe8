"""Site ground-truth tables and synthesized degraded observations.

Ground truths are depth-indexed rows of three clay properties (liquid
limit, plasticity index, natural water content, all in percent).  An
observation set keeps each property with probability p_detect, perturbs
kept values with Gaussian noise, and optionally adds uniform clutter; in
joint mode the per-depth values are pooled and shuffled so the filter sees
an unlabeled measurement set.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import SiteTableError
from .gaussian import SensorModel

__all__ = [
    "PROPERTIES",
    "SiteRecord",
    "Scenario",
    "load_site_table",
    "depth_intervals",
    "synthesize_observations",
    "scenario_to_csv",
    "bundled_records",
    "bundled_site_path",
]

PROPERTIES = ("LL", "PI", "w")

# Substream tags keep detection/noise draws per property independent of the
# clutter and shuffle draws, so joint and independent runs of one seed see
# identical per-property streams.
_TAG_DETECT = 11
_TAG_CLUTTER = 7919
_TAG_SHUFFLE = 433


@dataclass(frozen=True)
class SiteRecord:
    """One depth with its three measured clay properties (percent)."""

    depth: float
    values: dict[str, float]

    def __post_init__(self):
        if not self.depth > 0:
            raise ValueError(f"depth must be > 0, got {self.depth}")
        missing = [p for p in PROPERTIES if p not in self.values]
        if missing:
            raise ValueError(f"record at depth {self.depth} missing {missing}")
        for p in PROPERTIES:
            if not np.isfinite(self.values[p]):
                raise ValueError(f"record at depth {self.depth} has non-finite {p}")

    def vector(self) -> np.ndarray:
        return np.array([self.values[p] for p in PROPERTIES])


@dataclass(frozen=True)
class Scenario:
    """Ground truth plus one synthesized observation sequence."""

    site_name: str
    records: tuple[SiteRecord, ...]
    mode: str
    # joint: one unlabeled value list per depth; independent: one list per
    # property per depth (empty = missed).
    measurement_sets: tuple
    detection_flags: np.ndarray  # (n_depths, n_properties) bool
    property_observations: np.ndarray  # (n_depths, n_properties), NaN = missed
    seed: int
    sensor: SensorModel

    def __post_init__(self):
        depths = [r.depth for r in self.records]
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError("records must be strictly increasing in depth")

    @property
    def depths(self) -> np.ndarray:
        return np.array([r.depth for r in self.records])

    def truth_matrix(self) -> np.ndarray:
        return np.array([r.vector() for r in self.records])

    def property_measurements(self, prop: str) -> list[list[float]]:
        """Per-depth measurement lists for one property (independent mode)."""
        if self.mode != "independent":
            raise ValueError("per-property measurement sets exist in independent mode")
        idx = PROPERTIES.index(prop)
        return [list(per_depth[idx]) for per_depth in self.measurement_sets]


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise SiteTableError(
            f"row {row}, column {column}: non-numeric value {text!r}"
        ) from None
    if not np.isfinite(value):
        raise SiteTableError(f"row {row}, column {column}: non-finite value {text!r}")
    return value


def load_site_table(source) -> list[SiteRecord]:
    """Parse a `depth,LL,PI,w` CSV into depth-ascending site records.

    Accepts a path, bytes, or a readable (binary or text) stream; a leading
    UTF-8 byte-order mark is dropped.  An empty source yields an empty list;
    a missing column, non-numeric or non-finite cell, or duplicate depth
    raises SiteTableError naming the row and column.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    text = text.removeprefix("\ufeff")
    if not text.strip():
        return []

    reader = csv.DictReader(io.StringIO(text))
    reader.fieldnames = [h.strip() for h in reader.fieldnames or []]
    for column in ("depth", *PROPERTIES):
        if column not in reader.fieldnames:
            raise SiteTableError(f"header row: missing column {column!r}")

    records: list[SiteRecord] = []
    seen_depths: dict[float, int] = {}
    for row_num, row in enumerate(reader, start=1):
        depth = _parse_float(row["depth"], row_num, "depth")
        if depth <= 0:
            raise SiteTableError(f"row {row_num}, column depth: must be > 0")
        if depth in seen_depths:
            raise SiteTableError(
                f"row {row_num}, column depth: duplicate depth {depth} "
                f"(first seen at row {seen_depths[depth]})"
            )
        seen_depths[depth] = row_num
        values = {p: _parse_float(row[p], row_num, p) for p in PROPERTIES}
        records.append(SiteRecord(depth=depth, values=values))
    records.sort(key=lambda r: r.depth)
    return records


def depth_intervals(records: Sequence[SiteRecord]) -> list[float]:
    """Per-step interval lengths; the first step spans surface to first depth."""
    if len(records) < 2:
        raise ValueError("need at least two records to form intervals")
    depths = [r.depth for r in records]
    deltas = [depths[0]]
    for prev, cur in zip(depths, depths[1:]):
        if cur <= prev:
            raise ValueError(f"depths not strictly increasing at {cur}")
        deltas.append(cur - prev)
    return deltas


def synthesize_observations(
    records: Sequence[SiteRecord],
    sensor: SensorModel,
    mode: str = "joint",
    seed: int = 0,
    site_name: str = "",
) -> Scenario:
    """Degrade ground truth into an observation sequence, reproducibly.

    Each (depth, property) is detected independently with probability
    p_detect and perturbed by zero-mean Gaussian noise of standard deviation
    sigma_m.  Clutter counts are Poisson(clutter_rate) per depth, uniform
    over the clutter region.  All draws derive from per-purpose substreams
    of the seed, so a property's stream is identical across modes.
    """
    if mode not in ("joint", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    records = tuple(records)
    n = len(records)
    n_props = len(PROPERTIES)

    detected = np.zeros((n, n_props), dtype=bool)
    prop_obs = np.full((n, n_props), np.nan)
    for p_idx in range(n_props):
        rng = np.random.default_rng([seed, _TAG_DETECT, p_idx])
        for d_idx, rec in enumerate(records):
            truth = rec.values[PROPERTIES[p_idx]]
            if rng.random() < sensor.p_detect:
                detected[d_idx, p_idx] = True
                prop_obs[d_idx, p_idx] = truth + rng.normal(0.0, sensor.sigma_m)

    lo, hi = sensor.clutter_region
    if mode == "joint":
        clutter_rng = np.random.default_rng([seed, _TAG_CLUTTER])
        shuffle_rng = np.random.default_rng([seed, _TAG_SHUFFLE])
        sets = []
        for d_idx in range(n):
            vals = [prop_obs[d_idx, p] for p in range(n_props) if detected[d_idx, p]]
            n_clutter = int(clutter_rng.poisson(sensor.clutter_rate))
            if n_clutter:
                vals.extend(clutter_rng.uniform(lo, hi, size=n_clutter).tolist())
            order = shuffle_rng.permutation(len(vals))
            sets.append(tuple(float(vals[i]) for i in order))
        measurement_sets = tuple(sets)
    else:
        clutter_rngs = [
            np.random.default_rng([seed, _TAG_CLUTTER, p_idx]) for p_idx in range(n_props)
        ]
        sets = []
        for d_idx in range(n):
            per_prop = []
            for p_idx in range(n_props):
                vals = [float(prop_obs[d_idx, p_idx])] if detected[d_idx, p_idx] else []
                n_clutter = int(clutter_rngs[p_idx].poisson(sensor.clutter_rate))
                if n_clutter:
                    vals.extend(clutter_rngs[p_idx].uniform(lo, hi, size=n_clutter).tolist())
                per_prop.append(tuple(vals))
            sets.append(tuple(per_prop))
        measurement_sets = tuple(sets)

    return Scenario(
        site_name=site_name,
        records=records,
        mode=mode,
        measurement_sets=measurement_sets,
        detection_flags=detected,
        property_observations=prop_obs,
        seed=seed,
        sensor=sensor,
    )


def scenario_to_csv(scenario: Scenario, target) -> None:
    """Write truth/observation/clutter rows as
    `step,depth,kind,property_or_unknown,value,seed` to the path ``target``."""

    def rows():
        yield ("step", "depth", "kind", "property_or_unknown", "value", "seed")
        for d_idx, rec in enumerate(scenario.records):
            step = d_idx + 1
            for p_idx, prop in enumerate(PROPERTIES):
                yield (step, rec.depth, "truth", prop, f"{rec.values[prop]:.6g}", scenario.seed)
            for p_idx, prop in enumerate(PROPERTIES):
                if scenario.detection_flags[d_idx, p_idx]:
                    yield (
                        step,
                        rec.depth,
                        "obs",
                        prop,
                        f"{scenario.property_observations[d_idx, p_idx]:.10g}",
                        scenario.seed,
                    )
            for value in _clutter_values(scenario, d_idx):
                yield (step, rec.depth, "clutter", "unknown", f"{value:.10g}", scenario.seed)

    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows())


def _clutter_values(scenario: Scenario, d_idx: int) -> list[float]:
    """Measurement values at one depth that no detection accounts for."""
    if scenario.mode == "joint":
        pool = list(scenario.measurement_sets[d_idx])
    else:
        pool = [v for per_prop in scenario.measurement_sets[d_idx] for v in per_prop]
    for p_idx in range(len(PROPERTIES)):
        if scenario.detection_flags[d_idx, p_idx]:
            pool.remove(scenario.property_observations[d_idx, p_idx])
    return pool


def bundled_records(site: str) -> list[SiteRecord]:
    """Records of a bundled site table ('onsoy' or 'taipei')."""
    return load_site_table(bundled_site_path(site))


def bundled_site_path(site: str) -> Path:
    name = site.lower()
    if name not in ("onsoy", "taipei"):
        raise ValueError(f"unknown bundled site {site!r}")
    return Path(str(resources.files("geoglmb").joinpath("data", f"{name}.csv")))
