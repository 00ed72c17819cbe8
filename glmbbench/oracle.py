"""Output checks and accuracy metrics computed apart from the program.

Nothing here imports ``geoglmb``.  The Kalman filter is written from the
model definition (constant-rate state [value, rate], white-noise-acceleration
process noise over each depth interval, a scalar sensor reading the value),
and the metrics follow their published definitions: per-property RMSE over
the depths a matched track covers, and per-depth OSPA with cutoff 20 and
order 1.  Program objects are only read through their attributes.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

PROPERTIES = ("LL", "PI", "w")
DEAD = -1
OSPA_CUTOFF = 20.0
TRACK_TOL = 1e-9
WEIGHT_TOL = 1e-9


# --- single-object Kalman filter -------------------------------------------------


def kf_predict(state, delta, sigma_p):
    (m0, m1), (p00, p01, p11) = state
    q = sigma_p * sigma_p
    d2 = delta * delta
    return (
        (m0 + delta * m1, m1),
        (
            p00 + 2.0 * delta * p01 + d2 * p11 + q * d2 * d2 / 4.0,
            p01 + delta * p11 + q * d2 * delta / 2.0,
            p11 + q * d2,
        ),
    )


def kf_update(state, z, sigma_m):
    (m0, m1), (p00, p01, p11) = state
    s = p00 + sigma_m * sigma_m
    k0, k1 = p00 / s, p01 / s
    innov = z - m0
    return (
        (m0 + k0 * innov, m1 + k1 * innov),
        ((1.0 - k0) * p00, (1.0 - k0) * p01, p11 - k1 * p01),
    )


def kalman_track(prior_mean, sigma_m, sigma_p, deltas, first_step, outcomes, readings):
    """(step, value, rate, variance) at each step from ``first_step`` while alive.

    ``outcomes[t]`` is the outcome at step t+1: DEAD ends the track, 0 leaves
    the prediction, j >= 1 updates with ``readings[t][j - 1]``.  The prior
    enters at the birth step without a prediction.
    """
    state = ((float(prior_mean), 0.0), (sigma_m * sigma_m, 0.0, 1.0))
    rows = []
    for t in range(first_step - 1, len(outcomes)):
        outcome = outcomes[t]
        if outcome == DEAD:
            break
        if t > first_step - 1:
            state = kf_predict(state, deltas[t], sigma_p)
        if outcome >= 1:
            state = kf_update(state, float(readings[t][outcome - 1]), sigma_m)
        (m0, m1), (p00, _, _) = state
        rows.append((t + 1, m0, m1, p00))
    return rows


# --- the MAP hypothesis, chosen from the densities ------------------------------


def _label_key(label):
    return (label.birth_step, label.index)


def map_hypothesis(density):
    """Most probable cardinality (smallest on ties), then its best hypothesis."""
    mass: dict[int, float] = {}
    for h in density.hypotheses:
        n = len(h.label_set)
        mass[n] = mass.get(n, 0.0) + math.exp(h.log_weight)
    top = max(mass.values())
    n_star = min(n for n, m in mass.items() if m == top)
    candidates = [h for h in density.hypotheses if len(h.label_set) == n_star]

    def order(h):
        history = tuple(
            tuple((_label_key(lbl), o) for lbl, o in entry) for entry in h.history
        )
        return (-h.log_weight, tuple(_label_key(lbl) for lbl in h.label_set), history)

    return min(candidates, key=order)


def check_filter_run(history, series, readings, prior_means, model) -> list[str]:
    """Problems with one filtered run; [] when every check holds.

    ``history`` is the density list the filter returned, ``series`` the MAP
    readout, ``readings[t]`` the measurement list of step t+1,
    ``prior_means[label index]`` the birth value, and ``model`` a dict with
    sigma_m, sigma_p, deltas and max_hypotheses.
    """
    problems = []
    for t, density in enumerate(history, start=1):
        total = math.fsum(math.exp(h.log_weight) for h in density.hypotheses)
        if abs(total - 1.0) > WEIGHT_TOL:
            problems.append(f"step {t}: weights sum to {total!r}")
        if len(density.hypotheses) > model["max_hypotheses"]:
            problems.append(f"step {t}: {len(density.hypotheses)} hypotheses")
    counts = tuple(len(d.hypotheses) for d in history)
    if tuple(series.hypothesis_counts) != counts:
        problems.append("hypothesis counts differ from the densities")

    chosen = map_hypothesis(history[-1])
    if series.map_cardinality != len(chosen.label_set):
        problems.append(f"MAP cardinality {series.map_cardinality}, expected {len(chosen.label_set)}")
    outcomes: dict = {}
    for t, entry in enumerate(chosen.history):
        for lbl, outcome in entry:
            outcomes.setdefault(lbl, [DEAD] * len(chosen.history))[t] = outcome
    expected = {}
    for lbl, per_step in outcomes.items():
        rows = kalman_track(
            prior_means[lbl.index],
            model["sigma_m"],
            model["sigma_p"],
            model["deltas"],
            lbl.birth_step,
            per_step,
            readings,
        )
        if rows:
            expected[_label_key(lbl)] = rows
    got = {_label_key(tr.label): tr for tr in series.tracks}
    if sorted(got) != sorted(expected):
        return problems + [f"track labels {sorted(got)}, expected {sorted(expected)}"]
    for key, rows in expected.items():
        track = got[key]
        if [int(s) for s in track.steps] != [r[0] for r in rows]:
            problems.append(f"track {key}: steps differ")
            continue
        for col, name in ((1, "values"), (2, "rates"), (3, "variances")):
            for t, (row, actual) in enumerate(zip(rows, getattr(track, name))):
                want = row[col]
                if not abs(float(actual) - want) <= TRACK_TOL * max(1.0, abs(want)):
                    problems.append(f"track {key} {name}[{t}] = {actual!r}, Kalman {want!r}")
                    break
    return problems


# --- accuracy metrics --------------------------------------------------------------


def rmse(pairs) -> float:
    pairs = list(pairs)
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in pairs) / len(pairs))


def ospa(xs, ys, cutoff=OSPA_CUTOFF) -> float:
    """Order-1 OSPA between two scalar sets by exhaustive pairing."""
    xs, ys = list(xs), list(ys)
    if len(xs) > len(ys):
        xs, ys = ys, xs
    if not ys:
        return 0.0
    if not xs:
        return cutoff
    best = min(
        sum(min(abs(x - ys[j]), cutoff) for x, j in zip(xs, perm))
        for perm in itertools.permutations(range(len(ys)), len(xs))
    )
    return (best + cutoff * (len(ys) - len(xs))) / len(ys)


def _pair_rmse(truth_col, track):
    pairs = [(truth_col[d], v) for d, v in enumerate(track) if v is not None]
    return rmse(pairs) if pairs else 0.0


def match_by_rmse(truth, tracks: dict) -> dict:
    """Property index -> label key, by the smallest total value RMSE."""
    labels = sorted(tracks)
    cols = [[row[p] for row in truth] for p in range(len(PROPERTIES))]
    best, best_cost = {}, math.inf
    if len(labels) <= len(PROPERTIES):
        for props in itertools.permutations(range(len(PROPERTIES)), len(labels)):
            cost = sum(_pair_rmse(cols[p], tracks[l]) for l, p in zip(labels, props))
            if cost < best_cost:
                best_cost, best = cost, dict(zip(props, labels))
    else:
        for chosen in itertools.permutations(labels, len(PROPERTIES)):
            cost = sum(_pair_rmse(cols[p], tracks[l]) for p, l in enumerate(chosen))
            if cost < best_cost:
                best_cost, best = cost, dict(enumerate(chosen))
    return best


def trial_metrics(truth, observations, tracks, matching) -> dict:
    """Per-property RMSE of estimates and readings, recovery, and OSPA.

    ``truth[d][p]`` is the true value, ``observations[d][p]`` the reading or
    None, ``tracks[label]`` a per-depth list of estimates (None where the
    label is not alive), ``matching`` property index -> label.  A property
    without a matched track has no estimate RMSE (None).
    """
    n = len(truth)
    per_property = {}
    for p, prop in enumerate(PROPERTIES):
        obs = [(truth[d][p], observations[d][p]) for d in range(n) if observations[d][p] is not None]
        est, recovery = None, 0.0
        if p in matching:
            track = tracks[matching[p]]
            pairs = [(truth[d][p], v) for d, v in enumerate(track) if v is not None]
            est = rmse(pairs) if pairs else None
            recovery = len(pairs) / n
        per_property[prop] = {
            "rmse_estimate": est,
            "rmse_observation": rmse(obs) if obs else None,
            "recovery_rate": recovery,
        }
    per_depth = [
        ospa(truth[d], [t[d] for t in tracks.values() if t[d] is not None]) for d in range(n)
    ]
    return {"per_property": per_property, "ospa_per_depth": per_depth}


def series_tracks(series, n_depths) -> dict:
    out = {}
    for track in series.tracks:
        vals = [None] * n_depths
        for step, value in zip(track.steps, track.values):
            vals[int(step) - 1] = float(value)
        out[_label_key(track.label)] = vals
    return out


def scenario_tables(scenario):
    """Truth rows and per-property readings (None when missed)."""
    truth = [[float(r.values[p]) for p in PROPERTIES] for r in scenario.records]
    observations = [
        [
            float(scenario.property_observations[d, p]) if scenario.detection_flags[d, p] else None
            for p in range(len(PROPERTIES))
        ]
        for d in range(len(truth))
    ]
    return truth, observations


def batch_summary(per_trial: list[dict]) -> dict:
    """Run-level means: estimate RMSE, reading RMSE and OSPA."""
    est = [m["rmse_estimate"] for t in per_trial for m in t["per_property"].values()]
    obs = [m["rmse_observation"] for t in per_trial for m in t["per_property"].values()]
    est = [v for v in est if v is not None]
    obs = [v for v in obs if v is not None]
    return {
        "rmse_est": math.fsum(est) / len(est),
        "rmse_obs": math.fsum(obs) / len(obs),
        "ospa_mean": math.fsum(
            math.fsum(t["ospa_per_depth"]) / len(t["ospa_per_depth"]) for t in per_trial
        )
        / len(per_trial),
    }


# --- CLI artifacts ------------------------------------------------------------------


def read_trial_csvs(trial_dir: Path):
    """Truth, readings and per-label estimates from one trial's CSV files."""
    truth_rows: dict[int, list] = {}
    obs_rows: dict[int, list] = {}
    with open(trial_dir / "scenario.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            step = int(row["step"])
            truth_rows.setdefault(step, [None] * 3)
            obs_rows.setdefault(step, [None] * 3)
            if row["kind"] == "truth":
                truth_rows[step][PROPERTIES.index(row["property_or_unknown"])] = float(row["value"])
            elif row["kind"] == "obs":
                obs_rows[step][PROPERTIES.index(row["property_or_unknown"])] = float(row["value"])
    steps = sorted(truth_rows)
    truth = [truth_rows[s] for s in steps]
    observations = [obs_rows[s] for s in steps]
    tracks: dict[str, list] = {}
    properties: dict[str, str] = {}
    with open(trial_dir / "estimates.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            vals = tracks.setdefault(row["label"], [None] * len(steps))
            vals[int(row["step"]) - 1] = float(row["mean"])
            properties[row["label"]] = row["property"]
    return truth, observations, tracks, properties


def check_cli_artifacts(out_dir: Path, n_trials: int) -> tuple[list[dict], list[str]]:
    """Recompute every trial's metrics from the written CSVs and compare them
    with report.json and metrics.csv.  Independent mode carries property i
    on label ``1:i``; the estimates file must say so."""
    problems = []
    per_trial = []
    trial_dirs = sorted((out_dir / "trials").iterdir())
    if len(trial_dirs) != n_trials:
        problems.append(f"{len(trial_dirs)} trial directories, expected {n_trials}")
    for trial_dir in trial_dirs:
        truth, observations, tracks, properties = read_trial_csvs(trial_dir)
        matching = {}
        for label, prop in properties.items():
            index = int(label.split(":")[1])
            if prop != PROPERTIES[index]:
                problems.append(f"{trial_dir.name}: label {label} written as {prop}")
            matching[index] = label
        per_trial.append(trial_metrics(truth, observations, tracks, matching))

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    summary = {}
    for prop in PROPERTIES:
        for metric in ("rmse_estimate", "rmse_observation", "recovery_rate"):
            values = [t["per_property"][prop][metric] for t in per_trial]
            summary[f"{metric}_{prop}"] = _mean_std(values)
            want = per_trial[0]["per_property"][prop][metric]
            _compare(problems, f"report {prop} {metric}", report["per_property"][prop][metric], want, 1e-7)
    summary["ospa_mean"] = _mean_std([math.fsum(t["ospa_per_depth"]) / len(t["ospa_per_depth"]) for t in per_trial])
    for key, (mean, std) in summary.items():
        _compare(problems, f"report mc {key} mean", report["mc_summary"][key]["mean"], mean, 1e-7)
        _compare(problems, f"report mc {key} std", report["mc_summary"][key]["std"], std, 1e-6)
    for d, (got, want) in enumerate(zip(report["ospa_per_depth"], per_trial[0]["ospa_per_depth"])):
        _compare(problems, f"report ospa depth {d}", got, want, 1e-7)
    if report["n_trials"] != n_trials:
        problems.append(f"report n_trials {report['n_trials']}")

    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    primary_ospa = math.fsum(per_trial[0]["ospa_per_depth"]) / len(per_trial[0]["ospa_per_depth"])
    if len(rows) != 3 * len(PROPERTIES) + 1:
        problems.append(f"metrics.csv has {len(rows)} rows")
    for row in rows:
        prop, metric = row["property"], row["metric"]
        if metric == "ospa_mean":
            value, key = primary_ospa, "ospa_mean"
        else:
            value, key = per_trial[0]["per_property"][prop][metric], f"{metric}_{prop}"
        mean, std = summary[key]
        for column, want in (("value", value), ("mc_mean", mean), ("mc_std", std)):
            _compare(problems, f"metrics.csv {prop} {metric} {column}", float(row[column]), want, 2e-5)
    return per_trial, problems


def _mean_std(values):
    finite = [v for v in values if v is not None and not math.isnan(v)]
    if not finite:
        return math.nan, math.nan
    mean = math.fsum(finite) / len(finite)
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in finite) / len(finite))


def _compare(problems, what, got, want, rel):
    want = math.nan if want is None else want
    got = math.nan if got is None else float(got)
    if math.isnan(want) or math.isnan(got):
        if not (math.isnan(want) and math.isnan(got)):
            problems.append(f"{what}: {got!r}, recomputed {want!r}")
        return
    if abs(got - want) > rel * max(1.0, abs(want)):
        problems.append(f"{what}: {got!r}, recomputed {want!r}")
