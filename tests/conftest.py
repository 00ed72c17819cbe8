"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
single-object filter uses raw matrix formulas, and the multi-object
enumeration oracle computes hypothesis weights as plain float products over
explicitly enumerated association maps.
"""
import itertools
import math

import numpy as np
import pytest

from geoglmb.filter import BirthEntry, BirthModel, TruncationConfig
from geoglmb.gaussian import Gaussian, MotionModel, SensorModel
from geoglmb.lrfs import ABSENT, DEAD, UNDETECTED, DensityArrays, GlmbDensity, Label


@pytest.fixture
def table_file(tmp_path):
    """A function that writes bytes to a new file under ``tmp_path`` and
    returns its path, for tests of the path-only CSV reader."""
    names = itertools.count()

    def write(data: bytes):
        path = tmp_path / f"table_{next(names)}.csv"
        path.write_bytes(data)
        return path

    return write


def make_gaussian(rng):
    mean = rng.normal(0.0, 10.0, size=2)
    a = rng.normal(0.0, 1.0, size=(2, 2))
    return Gaussian(mean, a @ a.T + 0.5 * np.eye(2))


def build_density(log_weights, densities, step=1, prior=None, outcomes=None):
    """A hand-made density, held as ``DensityArrays`` as the filter holds one.

    Hypothesis h has log-weight ``log_weights[h]`` and one Gaussian per
    label in ``densities[h]`` (a dict), each its own state row, in
    hypothesis and then label order.  Given a ``prior`` density, every h
    steps from the prior's hypothesis 0, and ``outcomes[h]`` maps labels to
    h's association outcomes in that step, so h's history is that parent's
    plus one entry; every other label of the table is ABSENT.
    """
    outcomes = outcomes or ()
    labels = tuple(sorted({lbl for d in (*densities, *outcomes) for lbl in d}))
    column = {lbl: c for c, lbl in enumerate(labels)}
    state = np.full((len(densities), len(labels)), -1)
    gaussians = []
    for h, d in enumerate(densities):
        for lbl in sorted(d):
            state[h, column[lbl]] = len(gaussians)
            gaussians.append(d[lbl])
    stepped = {}
    if prior is not None:
        stepped = dict(
            prior=prior,
            parent=np.zeros(len(densities), dtype=int),
            outcome=np.array([[o.get(lbl, ABSENT) for lbl in labels] for o in outcomes],
                             dtype=int).reshape(state.shape),
        )
    arrays = DensityArrays(
        log_weights=np.array(log_weights, dtype=float),
        labels=labels,
        state=state,
        means=np.array([g.mean for g in gaussians]).reshape(-1, 2),
        covs=np.array([g.covariance for g in gaussians]).reshape(-1, 2, 2),
        **stepped,
    )
    return GlmbDensity(arrays, step)


def gaussians(density, i):
    """Hypothesis i's Gaussian per label, read from ``density``'s arrays."""
    a = density.hypotheses
    return {lbl: Gaussian(a.means[row], a.covs[row])
            for lbl, row in zip(a.labels, a.state[i].tolist()) if row >= 0}


def make_density(rng, n_hypotheses=5, max_labels=3, step=1):
    """Random normalized density of hand-made hypotheses, without history."""
    log_weights, densities = [], []
    for _ in range(n_hypotheses):
        n_labels = int(rng.integers(0, max_labels + 1))
        densities.append({Label(1, i): make_gaussian(rng) for i in range(n_labels)})
        log_weights.append(float(rng.normal(0.0, 2.0)))
    logw = np.array(log_weights)
    shift = logw.max()
    total = shift + np.log(np.exp(logw - shift).sum())
    return build_density([w - total for w in log_weights], densities, step)


# ---------------------------------------------------------------------------
# Independent single-object Kalman filter oracle (plain matrix formulas).


def kf_oracle(prior_mean, prior_cov, deltas, measurements, sigma_p, sigma_m):
    """Means/covariances of a standalone Kalman filter over a depth schedule.

    Births carry the prior at the first depth, so step 1 is update-only;
    later steps predict over the interval and update.  A measurement of None
    skips the update (prediction only).
    """
    h = np.array([[1.0, 0.0]])
    r = sigma_m**2
    means, covs = [], []
    mean = np.asarray(prior_mean, dtype=float).copy()
    cov = np.asarray(prior_cov, dtype=float).copy()
    for k, (delta, z) in enumerate(zip(deltas, measurements), start=1):
        if k > 1:
            f = np.array([[1.0, delta], [0.0, 1.0]])
            q = sigma_p**2 * np.array(
                [
                    [delta**4 / 4.0, delta**3 / 2.0],
                    [delta**3 / 2.0, delta**2],
                ]
            )
            mean = f @ mean
            cov = f @ cov @ f.T + q
        if z is not None:
            s = float((h @ cov @ h.T).item()) + r
            k_gain = cov @ h.T / s
            mean = mean + (k_gain * (z - float((h @ mean).item()))).ravel()
            joseph = np.eye(2) - k_gain @ h
            cov = joseph @ cov @ joseph.T + k_gain @ k_gain.T * r
        means.append(mean.copy())
        covs.append(cov.copy())
    return means, covs


# ---------------------------------------------------------------------------
# Independent multi-object enumeration oracle.


def _norm_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _oracle_predict(track, delta, sigma_p):
    mean, cov = track
    f = np.array([[1.0, delta], [0.0, 1.0]])
    q = sigma_p**2 * np.array(
        [[delta**4 / 4.0, delta**3 / 2.0], [delta**3 / 2.0, delta**2]]
    )
    return f @ mean, f @ cov @ f.T + q


def _oracle_update(track, z, sigma_m):
    mean, cov = track
    s = cov[0, 0] + sigma_m**2
    lik = _norm_pdf(z, mean[0], s)
    k = cov[:, 0] / s
    new_mean = mean + k * (z - mean[0])
    joseph = np.eye(2) - np.outer(k, [1.0, 0.0])
    new_cov = joseph @ cov @ joseph.T + np.outer(k, k) * sigma_m**2
    return (new_mean, new_cov), lik


def enumeration_oracle(
    birth_entries,
    measurement_sets,
    deltas,
    p_survival,
    p_detect,
    clutter_rate,
    clutter_region,
    sigma_p,
    sigma_m,
):
    """Exhaustive multi-step posterior: weights as raw per-map products.

    Hypotheses are dicts keyed like the library's identities: the label set
    and the per-step sorted (label, outcome) tuples.  An assigned measurement
    contributes p_detect times its likelihood, an unassigned one contributes
    the clutter intensity, so no ratio form is involved anywhere.
    """
    kappa = clutter_rate / (clutter_region[1] - clutter_region[0])
    birth_by_label = {e.label: e for e in birth_entries}
    birth_labels = sorted(birth_by_label)

    # hypothesis: (weight, history, {label: (mean, cov)})
    hypotheses = [(1.0, (), {})]
    for step_idx, (delta, zs) in enumerate(zip(deltas, measurement_sets)):
        step = step_idx + 1
        births = birth_labels if step == 1 else []
        new_hypotheses = []
        for weight, history, tracks in hypotheses:
            survivors = sorted(tracks)
            rows = survivors + list(births)
            predicted = {}
            for lbl in survivors:
                predicted[lbl] = _oracle_predict(tracks[lbl], delta, sigma_p)
            for lbl in births:
                density = birth_by_label[lbl].density
                predicted[lbl] = (density.mean.copy(), density.covariance.copy())

            outcome_space = [DEAD, UNDETECTED] + list(range(1, len(zs) + 1))
            for combo in itertools.product(outcome_space, repeat=len(rows)):
                meas = [o for o in combo if o >= 1]
                if len(set(meas)) != len(meas):
                    continue
                w = weight
                new_tracks = {}
                for lbl, outcome in zip(rows, combo):
                    alive_p = (
                        p_survival if lbl in tracks else birth_by_label[lbl].r_birth
                    )
                    if outcome == DEAD:
                        w *= 1.0 - alive_p
                        continue
                    if outcome == UNDETECTED:
                        w *= alive_p * (1.0 - p_detect)
                        new_tracks[lbl] = predicted[lbl]
                    else:
                        post, lik = _oracle_update(
                            predicted[lbl], zs[outcome - 1], sigma_m
                        )
                        w *= alive_p * p_detect * lik
                        new_tracks[lbl] = post
                for j in range(1, len(zs) + 1):
                    if j not in combo:
                        w *= kappa
                entry = tuple(sorted(zip(rows, combo)))
                new_hypotheses.append((w, history + (entry,), new_tracks))
        hypotheses = new_hypotheses

    total = math.fsum(w for w, _, _ in hypotheses)
    out = {}
    for w, history, tracks in hypotheses:
        if w == 0.0:
            continue  # impossible associations are not children
        key = (tuple(sorted(tracks)), history)
        out[key] = out.get(key, 0.0) + w / total
    return out


def simple_birth(labels_means, r_birth=0.9, cov=None):
    cov = np.diag([25.0, 1.0]) if cov is None else cov
    entries = tuple(
        BirthEntry(label=lbl, r_birth=r_birth, density=Gaussian(mean, cov))
        for lbl, mean in labels_means
    )
    return BirthModel(entries)


def random_scenario(rng, index):
    """One three-step scenario of criterion 6: (birth, sensor, motion,
    deltas, measurement sets, truncation); odd indices truncate by Gibbs."""
    entries = [
        (Label(1, i), np.array([float(rng.uniform(10, 90)), 0.0]))
        for i in range(int(rng.integers(1, 3)))
    ]
    birth = simple_birth(entries, r_birth=float(rng.uniform(0.5, 0.99)))
    sensor = SensorModel(
        sigma_m=float(rng.uniform(3, 12)),
        p_detect=float(rng.uniform(0.3, 0.9)),
        clutter_rate=float(rng.uniform(0.0, 1.0)),
        clutter_region=(0.0, 100.0),
    )
    motion = MotionModel(
        sigma_p=float(rng.uniform(0.1, 0.8)),
        p_survival=float(rng.uniform(0.85, 1.0)),
    )
    deltas = [float(rng.uniform(0.3, 1.5)) for _ in range(3)]
    sets = [
        [float(rng.uniform(0, 100)) for _ in range(int(rng.integers(0, 3)))]
        for _ in deltas
    ]
    method = "gibbs" if index % 2 else "ranked"
    trunc = TruncationConfig(
        method=method, requested_hypotheses=40, gibbs_iterations=60,
        seed=index, min_weight=1e-8, max_hypotheses=80,
    )
    return birth, sensor, motion, deltas, sets, trunc
