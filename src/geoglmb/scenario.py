"""Site ground-truth tables and synthesized degraded observations.

Ground truths are depth-indexed rows of three clay properties (liquid
limit, plasticity index, natural water content, all in percent).  An
observation set keeps each property with probability p_detect, perturbs
kept values with Gaussian noise, and optionally adds uniform clutter; in
joint mode the per-depth values are pooled and shuffled so the filter sees
an unlabeled measurement set.

Every CSV table the program reads goes through ``read_csv_rows``.  A
run's scenario.csv is rendered by ``scenario_csv_text`` and read back by
``read_scenario_csv``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
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
    "read_csv_rows",
    "load_site_table",
    "depth_intervals",
    "synthesize_observations",
    "scenario_csv_text",
    "scenario_to_csv",
    "read_scenario_csv",
    "bundled_records",
    "bundled_site_path",
]

PROPERTIES = ("LL", "PI", "w")

# Seeds stay below this: scenario.csv's seed cell is read as a float, exact up to it.
SEED_LIMIT = 2**53

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

    def __post_init__(self):
        depths = [r.depth for r in self.records]
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError("records must be strictly increasing in depth")

    @property
    def depths(self) -> np.ndarray:
        return np.array([r.depth for r in self.records])

    def truth_matrix(self) -> np.ndarray:
        return np.array([[r.values[p] for p in PROPERTIES] for r in self.records])

    def property_measurements(self, prop: str) -> list[list[float]]:
        """Per-depth measurement lists for one property (independent mode)."""
        if self.mode != "independent":
            raise ValueError("per-property measurement sets exist in independent mode")
        idx = PROPERTIES.index(prop)
        return [list(per_depth[idx]) for per_depth in self.measurement_sets]


def _parse_float(text, where: str, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise SiteTableError(f"{where}, column {column}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise SiteTableError(f"{where}, column {column}: non-finite value {text!r}")
    return value


def read_csv_rows(source, columns: Sequence[str], numeric: Sequence[str],
                  allow_blank: bool = False):
    """Yield (where, row, its ``numeric`` cells as floats) for each row of a
    CSV table, ``where`` naming the row as ``row N`` (from 1 after the
    header), after the file when ``source`` is a path.

    ``source`` is a path, bytes, or a readable (binary or text) stream of
    UTF-8 text.  A leading byte-order mark is dropped and header names are
    stripped.  A missing column of ``columns`` or ``numeric``, a header
    name given twice, a non-blank cell under a blank header name or beyond
    the header's columns, a bad number, or a source that cannot be read as
    UTF-8 text raises SiteTableError naming the file, and the row and the
    column where there is one.  Blank cells under blank header names or
    beyond the header, as spreadsheet exports write them, are ignored.  A
    blank source yields no rows when ``allow_blank``; else it lacks every column.
    """
    name = f"{source}: " if isinstance(source, (str, Path)) else ""
    try:
        if name:
            with open(source, newline="", encoding="utf-8") as fh:
                text = fh.read()
        else:
            raw = source if isinstance(source, bytes) else source.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except (OSError, UnicodeDecodeError) as exc:
        raise SiteTableError(f"{name}{exc}") from None
    text = text.removeprefix("\ufeff")
    if allow_blank and not text.strip():
        return
    rows = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(rows, ())]
    for column in header:
        if column and header.count(column) > 1:
            raise SiteTableError(f"{name}header row: column {column!r} appears twice")
    for column in (*columns, *numeric):
        if column not in header:
            raise SiteTableError(f"{name}header row: missing column {column!r}")
    for row_num, cells in enumerate(filter(None, rows), start=1):  # blank lines skipped
        where = f"{name}row {row_num}"
        for pos, (column, cell) in enumerate(zip(header + [None] * len(cells), cells), start=1):
            if not column and cell.strip():
                place = ("under a blank header name" if column == "" else
                         f"beyond the {len(header)} columns of the header row")
                raise SiteTableError(f"{where}, column {pos}: cell {cell!r} lies {place}")
        row = dict(zip(header, cells + [None] * len(header)))  # a short row's cells: None
        yield where, row, [_parse_float(row[c], where, c) for c in numeric]


def load_site_table(source) -> list[SiteRecord]:
    """Parse a `depth,LL,PI,w` CSV, read by ``read_csv_rows``, into
    depth-ascending site records.

    A blank source yields an empty list.  A depth that is not positive or
    repeats an earlier row's raises SiteTableError naming the row and the
    column, as the reader's own errors do.
    """
    records: list[SiteRecord] = []
    first_rows: dict[float, str] = {}
    numeric = ("depth", *PROPERTIES)
    for where, _, (depth, *values) in read_csv_rows(source, (), numeric, allow_blank=True):
        if depth <= 0:
            raise SiteTableError(f"{where}, column depth: must be > 0")
        if depth in first_rows:
            raise SiteTableError(f"{where}, column depth: duplicate depth {depth} "
                                 f"(first seen at {first_rows[depth]})")
        first_rows[depth] = where
        records.append(SiteRecord(depth=depth, values=dict(zip(PROPERTIES, values))))
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
    )


def scenario_csv_text(scenario: Scenario) -> str:
    """Truth/observation/clutter rows as
    `step,depth,kind,property_or_unknown,value,seed`, each ended by CRLF as
    ``csv.writer`` ends them; no field needs quoting."""
    lines = ["step,depth,kind,property_or_unknown,value,seed"]
    seed = scenario.seed
    observed = zip(scenario.detection_flags.tolist(), scenario.property_observations.tolist())
    for d_idx, (rec, (hits, values)) in enumerate(zip(scenario.records, observed)):
        at = f"{d_idx + 1},{rec.depth!r}"
        lines += [f"{at},truth,{prop},{rec.values[prop]:.6g},{seed}" for prop in PROPERTIES]
        pool = list(scenario.measurement_sets[d_idx])
        if scenario.mode != "joint":
            pool = [v for per_prop in pool for v in per_prop]
        for prop, hit, value in zip(PROPERTIES, hits, values):
            if hit:
                lines.append(f"{at},obs,{prop},{value:.10g},{seed}")
                pool.remove(value)
        # What no detection accounts for is clutter.
        lines += [f"{at},clutter,unknown,{value:.10g},{seed}" for value in pool]
    lines.append("")
    return "\r\n".join(lines)


def scenario_to_csv(scenario: Scenario, target) -> None:
    """Write ``scenario_csv_text`` to the path ``target``."""
    Path(target).write_text(scenario_csv_text(scenario), encoding="utf-8", newline="")


def read_scenario_csv(path) -> Scenario:
    """Rebuild a Scenario from an exported scenario.csv.

    The file is read by ``read_csv_rows``.  It holds truth, observations,
    clutter and the seed, not the run's settings, so the rebuilt scenario
    has ``mode="joint"`` whatever the run used.  Metrics and plots do not
    read it, but ``report.json`` states mode "joint" for any run.  A depth
    that is not positive, a kind other than truth, obs or clutter, or a
    truth or obs row naming no property raises SiteTableError naming the
    file, the row and the column; so does a second truth or obs row for one
    depth and property, an obs or clutter row at a depth without truth rows,
    a file with no truth row, a depth short of a truth row for each
    property, or a step other than its depth's 1-based place in the
    depth-ascending schedule, or a seed other than row 1's whole number >= 0
    below ``SEED_LIMIT``.
    """
    first_seed = None
    truth_rows: dict[float, dict[str, float]] = {}
    obs: dict[float, dict[str, float]] = {}
    clutter: dict[float, list[float]] = {}
    readings: dict[float, str] = {}  # depth -> its first obs or clutter row
    steps: list[tuple[str, float, float, str]] = []  # where, depth, step, its cell
    columns = ("kind", "property_or_unknown")
    numeric = ("step", "depth", "value", "seed")
    for where, row, (step, depth, value, seed) in read_csv_rows(path, columns, numeric):
        steps.append((where, depth, step, row["step"]))
        if depth <= 0:
            raise SiteTableError(f"{where}, column depth: must be > 0, got {row['depth']!r}")
        first_seed = first_seed or (seed, row["seed"])
        if not seed.is_integer() or not 0 <= seed < SEED_LIMIT or seed != first_seed[0]:
            raise SiteTableError(
                f"{where}, column seed: must be a whole number >= 0 below 2**53, the same on "
                f"every row (row 1: {first_seed[1]!r}), got {row['seed']!r}"
            )
        kind, prop = row["kind"], row["property_or_unknown"]
        if kind not in ("truth", "obs", "clutter"):
            raise SiteTableError(
                f"{where}, column kind: must be truth, obs or clutter, got {kind!r}"
            )
        if kind != "clutter" and prop not in PROPERTIES:
            raise SiteTableError(
                f"{where}, column property_or_unknown: a {kind} row must name "
                f"{', '.join(PROPERTIES)}, got {prop!r}"
            )
        if kind == "clutter":
            clutter.setdefault(depth, []).append(value)
        else:
            cells = (truth_rows if kind == "truth" else obs).setdefault(depth, {})
            if prop in cells:
                raise SiteTableError(
                    f"{where}, column property_or_unknown: a second {kind} row for {prop} "
                    f"at depth {depth:g}"
                )
            cells[prop] = value
        if kind != "truth":
            readings.setdefault(depth, where)

    if not truth_rows:
        raise SiteTableError(f"{path}: no row after the header row has 'truth' in column kind")
    for depth, where in readings.items():
        if depth not in truth_rows:
            raise SiteTableError(f"{where}, column depth: no truth row at depth {depth:g}")
    for depth, values in truth_rows.items():
        missing = [p for p in PROPERTIES if p not in values]
        if missing:
            raise SiteTableError(f"{path}: no truth row for {missing} at depth {depth:g}")
    records = tuple(SiteRecord(depth=d, values=v) for d, v in sorted(truth_rows.items()))
    place = {rec.depth: k for k, rec in enumerate(records, start=1)}
    for where, depth, step, text in steps:
        if step != place[depth]:
            raise SiteTableError(
                f"{where}, column step: depth {depth:g} is step {place[depth]} "
                f"of the schedule, got {text!r}"
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
        seed=int(first_seed[0]),
    )


def bundled_records(site: str) -> list[SiteRecord]:
    """Records of a bundled site table ('onsoy' or 'taipei')."""
    return load_site_table(bundled_site_path(site))


def bundled_site_path(site: str) -> Path:
    name = site.lower()
    if name not in ("onsoy", "taipei"):
        raise ValueError(f"unknown bundled site {site!r}")
    return Path(str(resources.files("geoglmb").joinpath("data", f"{name}.csv")))
