"""Linear-Gaussian single-object model.

State is the 2-vector [property value (%), depth rate of change (%/m)] with
constant-rate dynamics over a variable depth interval, and a scalar sensor
that reads the value coordinate only (H = [1, 0]).  Every label's density is
one Gaussian.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FilterDivergenceError

__all__ = [
    "Gaussian",
    "MotionModel",
    "SensorModel",
    "transition_matrices",
    "kalman_predict",
    "kalman_update",
    "kalman_update_rows",
]

LOG_2PI = math.log(2.0 * math.pi)
# The largest magnitude of a noise scale, a clutter bound or a property value.
# The filter squares such values, then doubles and sums the squares; from
# 1e150 that stays below the largest double (about 1.8e308).
MAX_MAGNITUDE = 1e150
# The largest clutter rate, in expected false readings per depth; synthesis
# draws that many values per depth.
MAX_CLUTTER_RATE = 1e4


def is_number(value, whole: bool = False) -> bool:
    """Whether ``value`` is a real number (whole if ``whole``), numpy's too, not a bool."""
    kind = numbers.Integral if whole else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def check_real(**values) -> None:
    """Raise ValueError naming the first value that ``is_number`` rejects."""
    for name, value in values.items():
        if not is_number(value):
            raise ValueError(f"{name}={value!r} must be a real number")


@dataclass(frozen=True, eq=False, slots=True)
class Gaussian:
    """One single-object density: a 2D mean and its 2x2 covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("a Gaussian needs a 2D mean and a 2x2 covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", 0.5 * (cov + cov.T))


@dataclass(frozen=True)
class MotionModel:
    """Constant-rate motion with white-noise-acceleration process noise.

    sigma_p is in percent per interval squared; survival probability applies
    per step regardless of interval length.
    """

    sigma_p: float = 0.3
    p_survival: float = 0.99

    def __post_init__(self):
        check_real(sigma_p=self.sigma_p, p_survival=self.p_survival)
        if not 0.0 <= self.sigma_p <= MAX_MAGNITUDE:
            raise ValueError(f"sigma_p must be finite, >= 0 and <= 1e150, got {self.sigma_p}")
        if not 0.0 <= self.p_survival <= 1.0:
            raise ValueError("p_survival must lie in [0, 1]")


@dataclass(frozen=True)
class SensorModel:
    """Scalar sensor reading the value coordinate.

    sigma_m is in percentage points (absolute).  Clutter is Poisson with
    uniform intensity over clutter_region.
    """

    sigma_m: float = 10.0
    p_detect: float = 0.5
    clutter_rate: float = 1e-6
    clutter_region: tuple[float, float] = (0.0, 120.0)

    def __post_init__(self):
        # sigma_m = 0 is allowed for noiseless observation synthesis; the
        # Kalman update itself insists on a positive value.
        check_real(
            sigma_m=self.sigma_m, p_detect=self.p_detect, clutter_rate=self.clutter_rate
        )
        if not 0.0 <= self.sigma_m <= MAX_MAGNITUDE:
            raise ValueError(f"sigma_m must be finite, >= 0 and <= 1e150, got {self.sigma_m}")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError("p_detect must lie in [0, 1]")
        if not 0.0 <= self.clutter_rate <= MAX_CLUTTER_RATE:
            raise ValueError(
                f"clutter_rate must be finite, >= 0 and <= 1e4, got {self.clutter_rate}"
            )
        lo, hi = self.clutter_region
        if not -MAX_MAGNITUDE <= lo < hi <= MAX_MAGNITUDE:
            raise ValueError(
                f"clutter_region must be finite with -1e150 <= lo < hi <= 1e150, "
                f"got {self.clutter_region}"
            )

    def clutter_intensity(self) -> float:
        lo, hi = self.clutter_region
        return self.clutter_rate / (hi - lo)

    def log_clutter_intensity(self) -> float:
        kappa = self.clutter_intensity()
        return math.log(kappa) if kappa > 0 else -math.inf


@functools.lru_cache(maxsize=256)
def transition_matrices(motion: MotionModel, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and process noise for a depth interval of length delta.

    Discretized white-noise-acceleration form: the rate coordinate receives a
    random kick of standard deviation sigma_p over the interval, integrated
    into the value coordinate.  The pair is cached per (motion, delta), since
    a filter meets the same intervals at every run, and is read-only.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"interval length must be finite and > 0, got {delta}")
    f = np.array([[1.0, delta], [0.0, 1.0]])
    # Python floats: a product past the largest double is inf, with no warning
    d2, s2 = delta * delta, float(motion.sigma_p**2)
    q = np.array([[s2 * (d2 * d2 / 4.0), s2 * (d2 * delta / 2.0)],
                  [s2 * (d2 * delta / 2.0), s2 * d2]])
    f.flags.writeable = q.flags.writeable = False
    return f, q


def kalman_predict(g: Gaussian, f: np.ndarray, q: np.ndarray) -> Gaussian:
    """Propagate one Gaussian through linear dynamics."""
    return Gaussian(f @ g.mean, f @ g.covariance @ f.T + q)


def _measurement_variance(sensor: SensorModel) -> float:
    """sigma_m squared; a Kalman update needs it positive."""
    if sensor.sigma_m <= 0:
        raise ValueError("kalman_update needs sigma_m > 0")
    return sensor.sigma_m**2


BROKEN_INNOVATION = "innovation covariance {} <= 0: covariance broken upstream"


def kalman_update(g: Gaussian, z: float, sensor: SensorModel) -> tuple[Gaussian, float]:
    """Bayes update of one Gaussian with a scalar value measurement.

    Returns the posterior and the log marginal likelihood of z.  Joseph-form
    covariance keeps the result PSD.
    """
    r = _measurement_variance(sensor)
    p = g.covariance
    s = p[0, 0] + r
    if s <= 0:
        raise FilterDivergenceError(BROKEN_INNOVATION.format(s))
    k = np.array([p[0, 0], p[0, 1]]) / s
    innov = z - g.mean[0]
    mean = g.mean + k * innov
    # Joseph form, written out for H = [1, 0]: A = I - K H
    a0 = 1.0 - k[0]
    b = -k[1]
    p00, p01, p11 = p[0, 0], p[0, 1], p[1, 1]
    j00 = a0 * a0 * p00 + r * k[0] * k[0]
    j01 = a0 * (b * p00 + p01) + r * k[0] * k[1]
    j11 = b * b * p00 + 2.0 * b * p01 + p11 + r * k[1] * k[1]
    cov = np.array([[j00, j01], [j01, j11]])
    log_lik = -0.5 * (innov * innov / s + LOG_2PI + math.log(s))
    return Gaussian(mean, cov), log_lik


def _joseph(r, m0, m1, p00, p01, p11, z):
    """The posterior (mean0, mean1, cov00, cov01, cov11) of ``kalman_update``
    with the same operations in the same order, on floats or on arrays."""
    s = p00 + r
    k0, k1 = p00 / s, p01 / s
    innov = z - m0
    a0, b = 1.0 - k0, -k1
    return (
        m0 + k0 * innov,
        m1 + k1 * innov,
        a0 * a0 * p00 + r * k0 * k0,
        a0 * (b * p00 + p01) + r * k0 * k1,
        b * b * p00 + 2.0 * b * p01 + p11 + r * k1 * k1,
    )


def kalman_update_rows(
    means: np.ndarray, covs: np.ndarray, z: np.ndarray, sensor: SensorModel
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means [N,2] and covariances [N,2,2] of N Gaussians, row i
    updated by measurement z[i], as one pass over arrays.

    Every row rounds as ``kalman_update`` does.  The Joseph-form covariance
    is symmetric by construction and is not symmetrized.
    """
    r = _measurement_variance(sensor)
    cols = (means[:, 0], means[:, 1], covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1], z)
    post = np.stack(_joseph(r, *cols), axis=1)
    return post[:, :2], post[:, [2, 3, 3, 4]].reshape(-1, 2, 2)
