import math

import numpy as np
import pytest

from geoglmb.filter import TruncationConfig
from geoglmb.gaussian import (
    MAX_CLUTTER_RATE,
    MAX_MAGNITUDE,
    Gaussian,
    MotionModel,
    SensorModel,
    kalman_predict,
    kalman_update,
    kalman_update_rows,
    transition_matrices,
)


def random_component(rng):
    mean = rng.normal(0.0, 20.0, size=2)
    a = rng.normal(0.0, 2.0, size=(2, 2))
    cov = a @ a.T + 0.3 * np.eye(2)
    return Gaussian(mean, cov)


class TestTransitionMatrices:
    def test_degenerate_interval_limit(self):
        f, q = transition_matrices(MotionModel(sigma_p=0.3), delta=1e-9)
        np.testing.assert_allclose(f, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(q, np.zeros((2, 2)), atol=1e-18)

    def test_hand_evaluated_noise(self):
        # sigma_p = 0.3, delta = 1: q = 0.09 * [[1/4, 1/2], [1/2, 1]]
        _, q = transition_matrices(MotionModel(sigma_p=0.3), delta=1.0)
        np.testing.assert_allclose(q, [[0.0225, 0.045], [0.045, 0.09]], rtol=1e-14)

    def test_first_site_interval(self):
        # depths 1.03 and 1.42 of the first bundled site
        f, _ = transition_matrices(MotionModel(), delta=0.39)
        np.testing.assert_allclose(f, [[1.0, 0.39], [0.0, 1.0]], rtol=1e-15)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan, math.inf])
    def test_nonpositive_interval_rejected(self, delta):
        with pytest.raises(ValueError):
            transition_matrices(MotionModel(), delta)

    def test_noise_psd_over_interval_grid(self):
        for delta in [1e-4, 0.05, 0.39, 1.0, 5.45, 20.0]:
            for sigma_p in [0.0, 0.3, 2.0]:
                _, q = transition_matrices(MotionModel(sigma_p=sigma_p), delta)
                assert np.all(np.linalg.eigvalsh(q) >= -1e-12)
                np.testing.assert_allclose(q, q.T)


class TestKalmanPredict:
    def test_identity_dynamics(self):
        rng = np.random.default_rng(0)
        comp = random_component(rng)
        out = kalman_predict(comp, np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(out.mean, comp.mean)
        np.testing.assert_allclose(out.covariance, comp.covariance)

    def test_matrix_product(self):
        comp = Gaussian([1.0, 2.0], np.eye(2))
        out = kalman_predict(comp, np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)))
        np.testing.assert_allclose(out.mean, [3.0, 2.0])

    def test_monte_carlo_propagation_oracle(self):
        rng = np.random.default_rng(42)
        comp = random_component(rng)
        f, q = transition_matrices(MotionModel(sigma_p=0.5), delta=0.7)
        out = kalman_predict(comp, f, q)

        n = 1_000_000
        samples = rng.multivariate_normal(comp.mean, comp.covariance, size=n) @ f.T
        samples += rng.multivariate_normal(np.zeros(2), q, size=n)
        se_mean = np.sqrt(np.diag(out.covariance) / n)
        assert np.all(np.abs(samples.mean(axis=0) - out.mean) < 3.0 * se_mean)
        # covariance agreement, loose: sample covariance error ~ cov/sqrt(n)
        np.testing.assert_allclose(
            np.cov(samples.T), out.covariance, atol=6.0 * np.abs(out.covariance).max() / math.sqrt(n)
        )


class TestKalmanUpdate:
    def test_hand_computed_conjugate_product(self):
        comp = Gaussian([0.0, 0.0], np.eye(2))
        post, ll = kalman_update(comp, 2.0, SensorModel(sigma_m=1.0))
        np.testing.assert_allclose(post.mean, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(post.covariance, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)
        expected_ll = -0.5 * (4.0 / 2.0) - 0.5 * math.log(2.0 * math.pi * 2.0)
        assert abs(ll - expected_ll) < 1e-14

    def test_zero_innovation_keeps_mean(self):
        rng = np.random.default_rng(1)
        for sigma_m in [0.1, 1.0, 25.0]:
            comp = random_component(rng)
            post, _ = kalman_update(comp, float(comp.mean[0]), SensorModel(sigma_m=sigma_m))
            np.testing.assert_allclose(post.mean, comp.mean, atol=1e-12)

    def test_quadrature_oracle(self):
        # 1D grid quadrature over the value coordinate: posterior moments and
        # the log marginal likelihood of the scalar measurement.
        rng = np.random.default_rng(9)
        for _ in range(10):
            comp = random_component(rng)
            sigma_m = float(rng.uniform(0.5, 8.0))
            z = float(comp.mean[0] + rng.normal(0.0, 2.0 * sigma_m))
            post, ll = kalman_update(comp, z, SensorModel(sigma_m=sigma_m))

            mu0, var0 = comp.mean[0], comp.covariance[0, 0]
            lo = min(mu0, z) - 12.0 * math.sqrt(var0 + sigma_m**2)
            hi = max(mu0, z) + 12.0 * math.sqrt(var0 + sigma_m**2)
            grid = np.linspace(lo, hi, 400_001)
            prior = np.exp(-0.5 * (grid - mu0) ** 2 / var0) / math.sqrt(2 * math.pi * var0)
            lik = np.exp(-0.5 * (z - grid) ** 2 / sigma_m**2) / math.sqrt(
                2 * math.pi * sigma_m**2
            )
            joint = prior * lik
            evidence = np.trapezoid(joint, grid)
            posterior = joint / evidence
            mean_quad = np.trapezoid(grid * posterior, grid)
            var_quad = np.trapezoid((grid - mean_quad) ** 2 * posterior, grid)

            assert abs(math.log(evidence) - ll) < 1e-6
            assert abs(mean_quad - post.mean[0]) < 1e-6
            assert abs(var_quad - post.covariance[0, 0]) < 1e-6

    def test_uninformative_measurement_returns_prediction(self):
        rng = np.random.default_rng(3)
        comp = random_component(rng)
        f, q = transition_matrices(MotionModel(sigma_p=0.3), 0.5)
        pred = kalman_predict(comp, f, q)
        post, _ = kalman_update(pred, 5.0, SensorModel(sigma_m=1e9))
        np.testing.assert_allclose(post.mean, pred.mean, atol=1e-6)
        np.testing.assert_allclose(post.covariance, pred.covariance, atol=1e-6)

    def test_posterior_psd_and_measured_variance_never_grows(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            comp = random_component(rng)
            sigma_m = float(rng.uniform(0.05, 30.0))
            z = float(rng.normal(0.0, 40.0))
            post, _ = kalman_update(comp, z, SensorModel(sigma_m=sigma_m))
            assert np.all(np.linalg.eigvalsh(post.covariance) >= -1e-12)
            assert post.covariance[0, 0] <= comp.covariance[0, 0] + 1e-12

    def test_zero_sigma_rejected(self):
        comp = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            kalman_update(comp, 1.0, SensorModel(sigma_m=0.0))


class TestKalmanUpdateRows:
    @pytest.mark.parametrize("n_rows", [1, 5, 15, 16, 200])
    def test_rows_equal_kalman_update_bit_for_bit(self, n_rows):
        # row counts below and above the filter's float/array switch
        rng = np.random.default_rng(23 + n_rows)
        for _ in range(10):
            comps = [random_component(rng) for _ in range(n_rows)]
            z = rng.normal(0.0, 40.0, size=len(comps))
            sensor = SensorModel(sigma_m=float(rng.uniform(0.05, 30.0)))
            means, covs = kalman_update_rows(
                np.array([c.mean for c in comps]), np.array([c.covariance for c in comps]), z, sensor
            )
            for comp, zi, mean, cov in zip(comps, z.tolist(), means, covs):
                want, _ = kalman_update(comp, zi, sensor)
                assert mean.tobytes() == want.mean.tobytes()
                assert cov.tobytes() == want.covariance.tobytes()

    def test_zero_sigma_rejected_as_kalman_update_does(self):
        comp = Gaussian([0.0, 0.0], np.eye(2))
        sensor = SensorModel(sigma_m=0.0)
        with pytest.raises(ValueError) as single:
            kalman_update(comp, 1.0, sensor)
        with pytest.raises(ValueError) as rows:
            kalman_update_rows(comp.mean[None], comp.covariance[None], np.array([1.0]), sensor)
        assert str(rows.value) == str(single.value)


class TestModelValidation:
    def test_sensor_bounds(self):
        with pytest.raises(ValueError):
            SensorModel(sigma_m=-1.0)
        with pytest.raises(ValueError):
            SensorModel(p_detect=1.5)
        with pytest.raises(ValueError):
            SensorModel(clutter_rate=-0.1)
        with pytest.raises(ValueError):
            SensorModel(clutter_region=(5.0, 5.0))

    def test_motion_bounds(self):
        with pytest.raises(ValueError):
            MotionModel(sigma_p=-0.1)
        with pytest.raises(ValueError):
            MotionModel(p_survival=1.1)

    def test_component_shape_checks(self):
        with pytest.raises(ValueError):
            Gaussian(np.zeros(3), np.eye(2))
        with pytest.raises(ValueError):
            Gaussian(np.zeros(2), np.eye(3))

    def test_gaussian_symmetrizes_its_covariance(self):
        g = Gaussian([1, 2], [[2.0, 0.25], [0.75, 1.0]])
        assert g.mean.dtype == float
        np.testing.assert_array_equal(g.covariance, [[2.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_model_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MotionModel(sigma_p=bad)
        for kwargs in (
            dict(sigma_m=bad),
            dict(clutter_rate=bad),
            dict(clutter_region=(0.0, bad)),
            dict(clutter_region=(bad, 120.0)),
        ):
            with pytest.raises(ValueError, match="finite"):
                SensorModel(**kwargs)

    def test_scales_and_regions_beyond_a_double_rejected(self):
        # A variance is a scale squared, the filter doubles and sums such
        # squares, and the clutter intensity divides by the region's width:
        # each stays a finite double below MAX_MAGNITUDE.
        top = MAX_MAGNITUDE
        assert math.isfinite(sum([4 * top * top] * 1000))
        MotionModel(sigma_p=top)
        SensorModel(sigma_m=top, clutter_region=(-top, top))
        above = math.nextafter(top, math.inf)
        for model, kwargs, name in (
            (SensorModel, dict(sigma_m=above), "sigma_m"),
            (SensorModel, dict(sigma_m=3e153), "sigma_m"),
            (SensorModel, dict(sigma_m=1e300), "sigma_m"),
            (SensorModel, dict(sigma_m=10**200), "sigma_m"),
            (MotionModel, dict(sigma_p=above), "sigma_p"),
            (MotionModel, dict(sigma_p=1e200), "sigma_p"),
            (SensorModel, dict(clutter_region=(0.0, 1e155)), "clutter_region"),
            (SensorModel, dict(clutter_region=(-above, 0.0)), "clutter_region"),
            (SensorModel, dict(clutter_region=(-1e308, 1e308)), "clutter_region"),
            (SensorModel, dict(clutter_region=(np.float64(-1e308), np.float64(1e308))),
             "clutter_region"),
            (SensorModel, dict(clutter_region=(0, 10**400)), "clutter_region"),
        ):
            with pytest.raises(ValueError, match=name):
                model(**kwargs)

    def test_clutter_rate_above_its_limit_rejected(self):
        # synthesis draws about clutter_rate readings per depth
        SensorModel(clutter_rate=MAX_CLUTTER_RATE)
        for rate in (math.nextafter(MAX_CLUTTER_RATE, math.inf), 1e12):
            with pytest.raises(ValueError, match="clutter_rate"):
                SensorModel(clutter_rate=rate)

    @pytest.mark.parametrize("model, name, bad", [
        (MotionModel, "p_survival", True),
        (MotionModel, "sigma_p", True),
        (MotionModel, "sigma_p", "1"),
        (SensorModel, "p_detect", "0.5"),
        (SensorModel, "p_detect", False),
        (SensorModel, "clutter_rate", True),
        (SensorModel, "sigma_m", True),
        (SensorModel, "sigma_m", None),
        (TruncationConfig, "min_weight", True),
        (TruncationConfig, "min_weight", "0.1"),
    ])
    def test_bool_and_non_real_model_values_rejected(self, model, name, bad):
        # a bool would pass as 0 or 1 and a string would fail the range
        # check with TypeError; both are a ValueError naming the field
        with pytest.raises(ValueError, match=f"{name}={bad!r} must be a real number"):
            model(**{name: bad})

    def test_clutter_intensity(self):
        sensor = SensorModel(clutter_rate=2.0, clutter_region=(0.0, 100.0))
        assert abs(sensor.clutter_intensity() - 0.02) < 1e-15
        assert SensorModel(clutter_rate=0.0).log_clutter_intensity() == -math.inf
