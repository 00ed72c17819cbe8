import math

import numpy as np
import pytest

from geoglmb.gaussian import (
    GaussianComponent,
    GaussianMixture,
    MotionModel,
    SensorModel,
    kalman_predict,
    kalman_update,
    mixture_log_likelihood,
    mixture_reduce,
    predict_mixture,
    transition_matrices,
    update_mixture,
)


def random_component(rng, weight=1.0):
    mean = rng.normal(0.0, 20.0, size=2)
    a = rng.normal(0.0, 2.0, size=(2, 2))
    cov = a @ a.T + 0.3 * np.eye(2)
    return GaussianComponent(weight, mean, cov)


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
        assert out.weight == comp.weight

    def test_matrix_product(self):
        comp = GaussianComponent(1.0, [1.0, 2.0], np.eye(2))
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
        comp = GaussianComponent(1.0, [0.0, 0.0], np.eye(2))
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
        comp = GaussianComponent(1.0, [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            kalman_update(comp, 1.0, SensorModel(sigma_m=0.0))


class TestMixtureOps:
    def test_mixture_log_likelihood_matches_single_component(self):
        rng = np.random.default_rng(5)
        comp = random_component(rng)
        sensor = SensorModel(sigma_m=3.0)
        _, ll = kalman_update(comp, 4.2, sensor)
        mix = GaussianMixture((comp,))
        assert abs(mixture_log_likelihood(mix, 4.2, sensor) - ll) < 1e-12

    def test_update_mixture_weights_follow_likelihood(self):
        sensor = SensorModel(sigma_m=1.0)
        near = GaussianComponent(0.5, [0.0, 0.0], np.eye(2))
        far = GaussianComponent(0.5, [50.0, 0.0], np.eye(2))
        post, _ = update_mixture(GaussianMixture((near, far)), 0.0, sensor)
        assert post.components[0].weight > 0.999
        assert abs(post.total_weight() - 1.0) < 1e-9


class TestMixtureReduce:
    def test_single_component_unchanged(self):
        rng = np.random.default_rng(2)
        mix = GaussianMixture((random_component(rng),))
        out = mixture_reduce(mix)
        assert out.components[0] is mix.components[0]

    def test_exact_merge_of_identical_components(self):
        mean = np.array([1.0, 2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        mix = GaussianMixture(
            (GaussianComponent(0.5, mean, cov), GaussianComponent(0.5, mean, cov))
        )
        out = mixture_reduce(mix)
        assert len(out) == 1
        assert abs(out.components[0].weight - 1.0) < 1e-15
        np.testing.assert_allclose(out.components[0].mean, mean, rtol=1e-14)
        np.testing.assert_allclose(out.components[0].covariance, cov, rtol=1e-14)

    def test_noop_configuration_is_identity(self):
        rng = np.random.default_rng(8)
        comps = tuple(random_component(rng, weight=0.1) for _ in range(10))
        mix = GaussianMixture(comps)
        out = mixture_reduce(mix, prune_threshold=0.0, merge_distance=0.0, max_components=10)
        assert len(out) == 10
        for a, b in zip(
            sorted(out.components, key=lambda c: tuple(c.mean)),
            sorted(comps, key=lambda c: tuple(c.mean)),
        ):
            assert a.weight == b.weight
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_merging_preserves_mixture_mean(self):
        rng = np.random.default_rng(12)
        comps = tuple(random_component(rng, weight=float(rng.uniform(0.05, 1.0))) for _ in range(6))
        total = sum(c.weight for c in comps)
        comps = tuple(GaussianComponent(c.weight / total, c.mean, c.covariance) for c in comps)
        mix = GaussianMixture(comps)
        out = mixture_reduce(mix, prune_threshold=0.0, merge_distance=1e9, max_components=6)
        assert len(out) == 1
        np.testing.assert_allclose(out.mean(), mix.mean(), atol=1e-9)

    def test_cap_keeps_largest_weights(self):
        rng = np.random.default_rng(4)
        comps = tuple(
            GaussianComponent(w, rng.normal(size=2) * 100, np.eye(2))
            for w in (0.4, 0.3, 0.2, 0.1)
        )
        out = mixture_reduce(
            GaussianMixture(comps), prune_threshold=0.0, merge_distance=0.0, max_components=2
        )
        assert len(out) == 2
        np.testing.assert_allclose(sorted(c.weight for c in out.components), [3 / 7, 4 / 7])
        assert abs(out.total_weight() - 1.0) < 1e-12

    def test_empty_mixture_passes_through(self):
        out = mixture_reduce(GaussianMixture(()))
        assert len(out) == 0

    def test_prune_drops_small_weights(self):
        rng = np.random.default_rng(6)
        big = random_component(rng, weight=0.99)
        small = random_component(rng, weight=0.01)
        out = mixture_reduce(
            GaussianMixture((big, small)),
            prune_threshold=0.05,
            merge_distance=0.0,
            max_components=10,
        )
        assert len(out) == 1
        assert abs(out.total_weight() - 1.0) < 1e-12

    def test_predict_then_reduce_roundtrip(self):
        rng = np.random.default_rng(13)
        mix = GaussianMixture(tuple(random_component(rng, 0.25) for _ in range(4)))
        f, q = transition_matrices(MotionModel(sigma_p=0.3), 0.4)
        out = mixture_reduce(predict_mixture(mix, f, q), 1e-5, 4.0, 10)
        assert abs(out.total_weight() - 1.0) < 1e-9


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
            GaussianComponent(1.0, np.zeros(3), np.eye(2))
        with pytest.raises(ValueError):
            GaussianComponent(-0.5, np.zeros(2), np.eye(2))

    def test_clutter_intensity(self):
        sensor = SensorModel(clutter_rate=2.0, clutter_region=(0.0, 100.0))
        assert abs(sensor.clutter_intensity() - 0.02) < 1e-15
        assert SensorModel(clutter_rate=0.0).log_clutter_intensity() == -math.inf
