"""Linear-Gaussian single-object machinery.

State is the 2-vector [property value (%), depth rate of change (%/m)] with
constant-rate dynamics over a variable depth interval, and a scalar sensor
that reads the value coordinate only (H = [1, 0]).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FilterDivergenceError

__all__ = [
    "GaussianComponent",
    "GaussianMixture",
    "MotionModel",
    "SensorModel",
    "transition_matrices",
    "kalman_predict",
    "kalman_update",
    "mixture_reduce",
]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    """One (weight, mean, covariance) term of a single-object density."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("component must have 2D mean and 2x2 covariance")
        if self.weight < 0:
            raise ValueError(f"component weight must be >= 0, got {self.weight}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", symmetrize(cov))


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted sum of Gaussian components; weights sum to 1 as a density."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def __len__(self):
        return len(self.components)

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def means(self) -> np.ndarray:
        return np.array([c.mean for c in self.components]).reshape(-1, 2)

    def covariances(self) -> np.ndarray:
        return np.array([c.covariance for c in self.components]).reshape(-1, 2, 2)

    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.components))

    def dominant(self) -> GaussianComponent:
        """Highest-weight component (first one on ties)."""
        if not self.components:
            raise ValueError("empty mixture has no dominant component")
        return max(self.components, key=lambda c: c.weight)

    def mean(self) -> np.ndarray:
        """Weight-averaged mean of the mixture."""
        w = self.weights()
        return (w[:, None] * self.means()).sum(axis=0) / w.sum()


def single_gaussian(mean, covariance) -> GaussianMixture:
    return GaussianMixture((GaussianComponent(1.0, mean, covariance),))


@dataclass(frozen=True)
class MotionModel:
    """Constant-rate motion with white-noise-acceleration process noise.

    sigma_p is in percent per interval squared; survival probability applies
    per step regardless of interval length.
    """

    sigma_p: float = 0.3
    p_survival: float = 0.99

    def __post_init__(self):
        if self.sigma_p < 0:
            raise ValueError("sigma_p must be >= 0")
        if not 0.0 <= self.p_survival <= 1.0:
            raise ValueError("p_survival must lie in [0, 1]")


@dataclass(frozen=True)
class SensorModel:
    """Scalar sensor reading the value coordinate.

    sigma_m is in percentage points (absolute).  Set relative_noise to treat
    it as a percentage of the true value instead; only observation synthesis
    honors that flag, the filter always uses the absolute interpretation.
    Clutter is Poisson with uniform intensity over clutter_region.
    """

    sigma_m: float = 10.0
    p_detect: float = 0.5
    clutter_rate: float = 1e-6
    clutter_region: tuple[float, float] = (0.0, 120.0)
    relative_noise: bool = False

    def __post_init__(self):
        # sigma_m = 0 is allowed for noiseless observation synthesis; the
        # Kalman update itself insists on a positive value.
        if self.sigma_m < 0:
            raise ValueError("sigma_m must be >= 0")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError("p_detect must lie in [0, 1]")
        if self.clutter_rate < 0:
            raise ValueError("clutter_rate must be >= 0")
        lo, hi = self.clutter_region
        if not lo < hi:
            raise ValueError("clutter_region must satisfy lo < hi")

    def clutter_intensity(self) -> float:
        lo, hi = self.clutter_region
        return self.clutter_rate / (hi - lo)

    def log_clutter_intensity(self) -> float:
        kappa = self.clutter_intensity()
        return math.log(kappa) if kappa > 0 else -math.inf


def symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def transition_matrices(motion: MotionModel, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and process noise for a depth interval of length delta.

    Discretized white-noise-acceleration form: the rate coordinate receives a
    random kick of standard deviation sigma_p over the interval, integrated
    into the value coordinate.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"interval length must be finite and > 0, got {delta}")
    f = np.array([[1.0, delta], [0.0, 1.0]])
    d2 = delta * delta
    q = motion.sigma_p**2 * np.array(
        [[d2 * d2 / 4.0, d2 * delta / 2.0], [d2 * delta / 2.0, d2]]
    )
    return f, q


def kalman_predict(comp: GaussianComponent, f: np.ndarray, q: np.ndarray) -> GaussianComponent:
    """Propagate one component through linear dynamics; weight unchanged."""
    mean = f @ comp.mean
    cov = symmetrize(f @ comp.covariance @ f.T + q)
    return GaussianComponent(comp.weight, mean, cov)


def kalman_update(
    comp: GaussianComponent, z: float, sensor: SensorModel
) -> tuple[GaussianComponent, float]:
    """Bayes update of one component with a scalar value measurement.

    Returns the posterior component (weight unchanged) and the log marginal
    likelihood of z.  Joseph-form covariance keeps the result PSD.
    """
    if sensor.sigma_m <= 0:
        raise ValueError("kalman_update needs sigma_m > 0")
    p = comp.covariance
    r = sensor.sigma_m**2
    s = p[0, 0] + r
    if s <= 0:
        raise FilterDivergenceError(
            f"innovation covariance {s} <= 0: covariance broken upstream"
        )
    k = np.array([p[0, 0], p[0, 1]]) / s
    innov = z - comp.mean[0]
    mean = comp.mean + k * innov
    # Joseph form, written out for H = [1, 0]: A = I - K H
    a0 = 1.0 - k[0]
    b = -k[1]
    p00, p01, p11 = p[0, 0], p[0, 1], p[1, 1]
    j00 = a0 * a0 * p00 + r * k[0] * k[0]
    j01 = a0 * (b * p00 + p01) + r * k[0] * k[1]
    j11 = b * b * p00 + 2.0 * b * p01 + p11 + r * k[1] * k[1]
    cov = np.array([[j00, j01], [j01, j11]])
    log_lik = -0.5 * (innov * innov / s + LOG_2PI + math.log(s))
    return GaussianComponent(comp.weight, mean, cov), log_lik


def predict_mixture(mix: GaussianMixture, f: np.ndarray, q: np.ndarray) -> GaussianMixture:
    """kalman_predict applied component-wise."""
    return GaussianMixture(tuple(kalman_predict(c, f, q) for c in mix.components))


def _lse(terms: Sequence[float]) -> float:
    """Max-shifted log-sum-exp for short Python sequences."""
    m = max(terms)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(t - m) for t in terms))


def mixture_log_likelihood(mix: GaussianMixture, z: float, sensor: SensorModel) -> float:
    """Log marginal likelihood of a scalar measurement under a predicted mixture."""
    r = sensor.sigma_m**2
    terms = []
    for c in mix.components:
        if c.weight <= 0:
            terms.append(-math.inf)
            continue
        cov = c.covariance
        s = cov[0, 0] + r
        innov = z - c.mean[0]
        terms.append(math.log(c.weight) - 0.5 * (innov * innov / s + LOG_2PI + math.log(s)))
    return _lse(terms)


def update_mixture(
    mix: GaussianMixture, z: float, sensor: SensorModel
) -> tuple[GaussianMixture, float]:
    """Bayes update of a mixture: per-component updates, weights re-balanced
    by component likelihoods.  Returns (posterior, log marginal likelihood)."""
    posts = []
    logw = []
    for c in mix.components:
        post, ll = kalman_update(c, z, sensor)
        posts.append(post)
        logw.append((math.log(c.weight) if c.weight > 0 else -math.inf) + ll)
    total = _lse(logw)
    comps = []
    for lw, p in zip(logw, posts):
        w = math.exp(lw - total)
        comps.append(p if w == p.weight else GaussianComponent(w, p.mean, p.covariance))
    return GaussianMixture(tuple(comps)), total


def mixture_reduce(
    mix: GaussianMixture,
    prune_threshold: float = 1e-5,
    merge_distance: float = 4.0,
    max_components: int = 10,
) -> GaussianMixture:
    """Prune, merge, and cap a mixture while preserving its overall mass.

    Components below prune_threshold are dropped; components whose squared
    Mahalanobis distance to the current strongest component is strictly
    below merge_distance are merged moment-preservingly; at most
    max_components (largest weights) survive.  Weights are rescaled back to
    the input total, so a normalized mixture stays normalized.
    """
    if prune_threshold < 0 or merge_distance < 0:
        raise ValueError("thresholds must be >= 0")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    if not mix.components:
        return mix

    total_in = mix.total_weight()
    alive = [c for c in mix.components if c.weight >= prune_threshold] or [mix.dominant()]

    merged: list[GaussianComponent] = []
    remaining = list(alive)
    while remaining:
        pivot = max(remaining, key=lambda c: c.weight)
        p_inv = np.linalg.inv(pivot.covariance)
        group, rest = [], []
        for c in remaining:
            d = c.mean - pivot.mean
            if c is pivot or float(d @ p_inv @ d) < merge_distance:
                group.append(c)
            else:
                rest.append(c)
        if len(group) == 1:
            merged.append(group[0])
        else:
            w = sum(c.weight for c in group)
            mean = sum(c.weight * c.mean for c in group) / w
            cov = sum(
                c.weight * (c.covariance + np.outer(c.mean - mean, c.mean - mean))
                for c in group
            ) / w
            merged.append(GaussianComponent(w, mean, symmetrize(cov)))
        remaining = rest

    merged.sort(key=lambda c: -c.weight)
    merged = merged[:max_components]
    total_out = sum(c.weight for c in merged)
    scale = total_in / total_out if total_out > 0 else 1.0
    if scale == 1.0:
        return GaussianMixture(tuple(merged))
    return GaussianMixture(
        tuple(GaussianComponent(c.weight * scale, c.mean, c.covariance) for c in merged)
    )
