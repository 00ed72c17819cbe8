"""Site ground-truth tables and synthesized degraded observations.

Ground truths are depth-indexed rows of three clay properties (liquid
limit, plasticity index, natural water content, all in percent).  An
observation set keeps each property with probability p_detect, perturbs
kept values with Gaussian noise, and optionally adds uniform clutter.  A
scenario holds one reading list per filter group: joint mode pools and
shuffles all properties' readings, independent mode has one group each.

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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SiteTableError
from .gaussian import MAX_MAGNITUDE, SensorModel

__all__ = [
    "PROPERTIES",
    "SiteRecord",
    "FilterGroup",
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


class FilterGroup(NamedTuple):
    """Properties filtered together; their readings, one tuple per depth."""

    properties: tuple[str, ...]
    readings: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class Scenario:
    """Ground truth plus one synthesized observation sequence."""

    site_name: str
    records: tuple[SiteRecord, ...]
    mode: str
    # joint: one group of all properties; independent: one per property
    groups: tuple[FilterGroup, ...]
    property_observations: np.ndarray  # (n_depths, n_properties), NaN = missed
    seed: int

    def __post_init__(self):
        depths = [r.depth for r in self.records]
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError("records must be strictly increasing in depth")

    @property
    def depths(self) -> np.ndarray:
        return np.array([r.depth for r in self.records])

    @property
    def detection_flags(self) -> np.ndarray:
        """(n_depths, n_properties) bool: where a property was read."""
        return ~np.isnan(self.property_observations)

    def truth_matrix(self) -> np.ndarray:
        return np.array([[r.values[p] for p in PROPERTIES] for r in self.records])


def _parse_float(text, where: str, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise SiteTableError(f"{where}, column {column}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise SiteTableError(f"{where}, column {column}: non-finite value {text!r}")
    return value


def read_csv_rows(path, columns: Sequence[str], numeric: Sequence[str]):
    """Yield (where, row, its ``numeric`` cells as floats) for each row of the
    CSV table at ``path`` (a str or a Path), ``where`` naming the file and
    the row as ``row N`` (from 1 after the header).

    The file is read as UTF-8 text.  A leading byte-order mark is dropped
    and header names are stripped.  A missing column of ``columns`` or
    ``numeric`` (so in a blank file, the first of them), a header name given
    twice, a non-blank cell under a blank header name or beyond the header's
    columns, a bad number, or a file that cannot be read as UTF-8 text
    raises SiteTableError whose message starts with the path, then names
    the row and the column where there is one.  Blank cells under blank
    header names or beyond the header, as spreadsheet exports write them,
    are ignored.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise SiteTableError(f"{path}: {exc}") from None
    rows = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(rows, ())]
    for column in header:
        if column and header.count(column) > 1:
            raise SiteTableError(f"{path}: header row: column {column!r} appears twice")
    for column in (*columns, *numeric):
        if column not in header:
            raise SiteTableError(f"{path}: header row: missing column {column!r}")
    for row_num, cells in enumerate(filter(None, rows), start=1):  # blank lines skipped
        where = f"{path}: row {row_num}"
        for pos, (column, cell) in enumerate(zip(header + [None] * len(cells), cells), start=1):
            if not column and cell.strip():
                place = ("under a blank header name" if column == "" else
                         f"beyond the {len(header)} columns of the header row")
                raise SiteTableError(f"{where}, column {pos}: cell {cell!r} lies {place}")
        row = dict(zip(header, cells + [None] * len(header)))  # a short row's cells: None
        yield where, row, [_parse_float(row[c], where, c) for c in numeric]


def load_site_table(path) -> list[SiteRecord]:
    """Parse the `depth,LL,PI,w` CSV at ``path``, read by ``read_csv_rows``,
    into depth-ascending site records.

    A header with no rows yields an empty list; a blank file lacks the
    header's columns.  A depth that is not positive or repeats an earlier
    row's, or a property value beyond +-1e150 (``MAX_MAGNITUDE``), raises
    SiteTableError naming the file, the row and the column, as the reader's
    own errors do.
    """
    records: list[SiteRecord] = []
    first_rows: dict[float, str] = {}
    numeric = ("depth", *PROPERTIES)
    for where, row, (depth, *values) in read_csv_rows(path, (), numeric):
        if depth <= 0:
            raise SiteTableError(f"{where}, column depth: must be > 0")
        for prop, value in zip(PROPERTIES, values):
            if abs(value) > MAX_MAGNITUDE:
                raise SiteTableError(f"{where}, column {prop}: must lie within +-1e150, "
                                     f"got {row[prop]!r}")
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
    # Joint mode: one group, whose readings at a depth are pooled with one
    # clutter stream's and shuffled.  Independent mode: one group and one
    # clutter stream per property.
    joint = mode == "joint"
    records = tuple(records)
    names = [PROPERTIES] if joint else [(prop,) for prop in PROPERTIES]
    pools = [[[] for _ in records] for _ in names]  # per group, per depth
    prop_obs = np.full((len(records), len(PROPERTIES)), np.nan)
    for p_idx, prop in enumerate(PROPERTIES):
        rng = np.random.default_rng([seed, _TAG_DETECT, p_idx])
        pool = pools[0 if joint else p_idx]
        for d_idx, rec in enumerate(records):
            if rng.random() < sensor.p_detect:
                prop_obs[d_idx, p_idx] = rec.values[prop] + rng.normal(0.0, sensor.sigma_m)
                pool[d_idx].append(float(prop_obs[d_idx, p_idx]))

    shuffle_rng = np.random.default_rng([seed, _TAG_SHUFFLE]) if joint else None
    groups = []
    for g_idx, (properties, pool) in enumerate(zip(names, pools)):
        key = [seed, _TAG_CLUTTER] if joint else [seed, _TAG_CLUTTER, g_idx]
        clutter_rng = np.random.default_rng(key)
        for vals in pool:
            n_clutter = int(clutter_rng.poisson(sensor.clutter_rate))
            if n_clutter:
                vals.extend(clutter_rng.uniform(*sensor.clutter_region, size=n_clutter).tolist())
            if joint:
                vals[:] = [vals[i] for i in shuffle_rng.permutation(len(vals))]
        groups.append(FilterGroup(properties, tuple(map(tuple, pool))))

    return Scenario(
        site_name=site_name,
        records=records,
        mode=mode,
        groups=tuple(groups),
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
        pool = [v for group in scenario.groups for v in group.readings[d_idx]]
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
    prop_obs = np.array(
        [[obs.get(rec.depth, {}).get(prop, np.nan) for prop in PROPERTIES] for rec in records]
    )
    readings = tuple(
        (*(v for v in row if not math.isnan(v)), *clutter.get(rec.depth, []))
        for rec, row in zip(records, prop_obs.tolist())
    )
    return Scenario(
        site_name=Path(path).stem,
        records=records,
        mode="joint",
        groups=(FilterGroup(PROPERTIES, readings),),
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
