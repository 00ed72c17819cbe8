"""The array-backed MAP readout against the prefix-scan readout it replaced,
and the lazily built hypotheses against the objects the filter used to
build eagerly.

The references below are the readout as it stood when every step built
each kept hypothesis as an object: the cardinality distribution summed over
the objects, the MAP hypothesis chosen by one ``min`` over them, and its
ancestors found by scanning every earlier density for a prefix of its
history.  ``OBJECT_DIGESTS`` are sha256 digests of every hypothesis of every
density of the same runs (label set, history, ``log_weight.hex()``, and the
bytes of every mean and covariance), recorded with that eager filter and
numpy 2.4.6.
"""
import hashlib
import math

import numpy as np
import pytest

import geoglmb.experiment as experiment
from conftest import build_density, gaussians, random_scenario, simple_birth
from geoglmb.experiment import ExperimentConfig
from geoglmb.filter import (
    TruncationConfig,
    extract_map_trajectories,
    run_sequence,
)
from geoglmb.gaussian import Gaussian, MotionModel, SensorModel
from geoglmb.lrfs import (
    UNDETECTED,
    Label,
    best_hypothesis_with_cardinality,
    cardinality_distribution,
    empty_density,
)
from geoglmb.scenario import bundled_records

CONFIGS = {
    f"{site}-{mode}-{method}": dict(site=site, mode=mode, trunc_method=method)
    for site in ("onsoy", "taipei")
    for mode in ("joint", "independent")
    for method in ("ranked", "gibbs")
}

OBJECT_DIGESTS = {
    "onsoy-independent-gibbs": "c8d139c77d941725a2025b50db77f16bd68d55b58e8382914b6c8fbababa96e8",
    "onsoy-independent-ranked": "c8d139c77d941725a2025b50db77f16bd68d55b58e8382914b6c8fbababa96e8",
    "onsoy-joint-gibbs": "a0f3327abe165f2f2598511c4d9163c588ff8f8e99b6930d23b043b138fec051",
    "onsoy-joint-ranked": "adb04f73e13dd7e65eb5093e37e1f07875c888614075a6a82645947739f798f2",
    "taipei-independent-gibbs": "09673d98c4d2f4095c279e5003412986b99869a09c75579c122cc62be2fbdc88",
    "taipei-independent-ranked": "09673d98c4d2f4095c279e5003412986b99869a09c75579c122cc62be2fbdc88",
    "taipei-joint-gibbs": "5be1f1a1d6a8b766bf147707a096c86b80ecf540bb2ccc3c09526e5269595a12",
    "taipei-joint-ranked": "5dc42d8833dda1bbf508afcfa149c48e8947c09cc0c33ca749555f0c0cab28e0",
    "random-scenarios": "e3f9a3bd09caa91f6bdad8c3c2fd1a29ec9d63dee7e25f67c026f1edd9213475",
}


def reference_cardinality_distribution(glmb):
    n_max = max((len(h.label_set) for h in glmb.hypotheses), default=0)
    rho = np.zeros(n_max + 1)
    for h in glmb.hypotheses:
        rho[len(h.label_set)] += np.exp(h.log_weight)
    return rho


def reference_best_hypothesis_with_cardinality(glmb, n):
    candidates = [h for h in glmb.hypotheses if len(h.label_set) == n]
    if not candidates:
        raise ValueError(f"no hypothesis with cardinality {n}")
    return min(candidates, key=lambda h: (-h.log_weight, h.label_set, h.history))


def reference_extract_map_trajectories(history, schedule):
    """The MAP readout by history-prefix scan: (map cardinality, map
    log-weight, hypothesis counts, {label: (steps, depths, values, rates,
    variances)})."""
    final = history[-1]
    n_star = int(np.argmax(reference_cardinality_distribution(final)))
    chosen = reference_best_hypothesis_with_cardinality(final, n_star)
    per_label = {}
    for t, density in enumerate(history):
        prefix = chosen.history[: t + 1]
        ancestor = next(
            (i for i, h in enumerate(density.hypotheses) if h.history == prefix), None
        )
        if ancestor is None:
            raise ValueError(f"history prefix of the MAP hypothesis missing at step {t + 1}")
        for lbl, g in gaussians(density, ancestor).items():
            per_label.setdefault(lbl, []).append(
                (t + 1, float(schedule[t]), float(g.mean[0]), float(g.mean[1]),
                 float(g.covariance[0, 0]))
            )
    tracks = {}
    for lbl in sorted(per_label):
        steps, depths, values, rates, variances = (np.array(c) for c in zip(*per_label[lbl]))
        tracks[lbl] = (steps.astype(int), depths, values, rates, variances)
    counts = tuple(len(d.hypotheses) for d in history)
    return n_star, chosen.log_weight, counts, tracks


def assert_readouts_equal(history, schedule):
    series = extract_map_trajectories(history, schedule)
    n_star, log_weight, counts, tracks = reference_extract_map_trajectories(history, schedule)
    assert series.map_cardinality == n_star
    assert series.map_log_weight.hex() == log_weight.hex()
    assert series.hypothesis_counts == counts
    assert cardinality_distribution(history[-1]).tobytes() == (
        reference_cardinality_distribution(history[-1]).tobytes()
    )
    assert [t.label for t in series.tracks] == list(tracks)
    for track in series.tracks:
        want = tracks[track.label]
        got = (track.steps, track.depths, track.values, track.rates, track.variances)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return series


def objects_digest(histories) -> str:
    """sha256 over every hypothesis object of every density, in order."""
    sha = hashlib.sha256()
    for history in histories:
        for density in history:
            sha.update(f"density {density.step} {len(density.hypotheses)}\n".encode())
            for i, h in enumerate(density.hypotheses):
                sha.update(repr((h.label_set, h.history, h.log_weight.hex())).encode())
                for g in gaussians(density, i).values():
                    sha.update(g.mean.tobytes() + g.covariance.tobytes())
    return sha.hexdigest()


def trial_histories(monkeypatch, config):
    """Run one seed-3 trial; return every run_sequence history and schedule."""
    runs = []
    original = experiment.run_sequence

    def capture(deltas, *args):
        history = original(deltas, *args)
        runs.append(history)
        return history

    monkeypatch.setattr(experiment, "run_sequence", capture)
    records = bundled_records(config.site)
    experiment.run_trial(records, config, 3, config.site)
    return runs, [r.depth for r in records]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_readout_and_objects_on_fixed_seed_trials(name, monkeypatch):
    runs, depths = trial_histories(monkeypatch, ExperimentConfig(**CONFIGS[name]))
    for history in runs:
        assert_readouts_equal(history, depths)
    assert objects_digest(runs) == OBJECT_DIGESTS[name]


def test_readout_and_objects_on_random_scenarios():
    rng = np.random.default_rng(6061)
    runs = []
    for index in range(340):
        birth, sensor, motion, deltas, sets, trunc = random_scenario(rng, index)
        history = run_sequence(deltas, sets, birth, motion, sensor, trunc)
        assert_readouts_equal(history, np.cumsum(deltas).tolist())
        runs.append(history)
    assert objects_digest(runs) == OBJECT_DIGESTS["random-scenarios"]


def test_filtered_exact_tie_breaks_on_history():
    # Two births with one density and one reading: "0 takes it,
    # 1 missed" and "1 takes it, 0 missed" weigh the same to the last bit,
    # and readingless later steps keep their descendants tied.
    l0, l1 = Label(1, 0), Label(1, 1)
    birth = simple_birth([(l0, np.array([50.0, 0.0])), (l1, np.array([50.0, 0.0]))], r_birth=0.99)
    sensor = SensorModel(sigma_m=5.0, p_detect=0.6, clutter_rate=0.5, clutter_region=(0.0, 100.0))
    motion = MotionModel(sigma_p=0.3, p_survival=1.0)
    trunc = TruncationConfig(method="ranked", requested_hypotheses=16, min_weight=0.0)
    history = run_sequence([1.0, 0.5, 0.8], [[52.0], [], []], birth, motion, sensor, trunc)
    final = history[-1]
    top = final.hypotheses.log_weights.max()
    assert np.count_nonzero(final.hypotheses.log_weights == top) >= 2
    series = assert_readouts_equal(history, [1.0, 1.5, 2.3])
    assert series.map_cardinality == 2
    chosen = final.hypotheses[best_hypothesis_with_cardinality(final, 2)]
    assert chosen.history[0] == ((l0, UNDETECTED), (l1, 1))
    tracks = {t.label: t for t in series.tracks}
    assert tracks[l1].variances[0] < tracks[l0].variances[0]


def test_hand_built_exact_tie_breaks_on_label_set_then_history():
    l0, l1, l2 = Label(1, 0), Label(1, 1), Label(1, 2)
    hyps = [  # labels, their outcomes in the one step, weight, first value
        ((l0,), (1,), 0.1, 10.0),
        ((l0, l2), (1, 0), 0.3, 20.0),  # tied, larger label set
        ((l0, l1), (0, 1), 0.3, 30.0),  # tied, larger history
        ((l0, l1), (0, 0), 0.3, 40.0),  # the MAP hypothesis
    ]

    def density(hyps):
        return build_density(
            [math.log(weight) for _, _, weight, _ in hyps],
            [{lbl: Gaussian([value + i, 0.0], np.eye(2)) for i, lbl in enumerate(labels)}
             for labels, _, _, value in hyps],
            prior=empty_density(0),
            outcomes=[dict(zip(labels, outcomes)) for labels, outcomes, _, _ in hyps],
        )

    final = density(hyps)
    assert final.hypotheses[1].history == (((l0, 1), (l2, 0)),)
    assert best_hypothesis_with_cardinality(final, 2) == 3
    series = assert_readouts_equal([final], [1.0])
    assert {t.label: t for t in series.tracks}[l0].values.tolist() == [40.0]
    assert best_hypothesis_with_cardinality(density(hyps[::-1]), 2) == 0
