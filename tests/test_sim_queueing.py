"""Tests for repro.sim.queueing — and the analytic latency model's shape.

The headline test pins the closed-form ``t0 / (1 - knee * rho)`` tail
model against discrete-event ground truth: same monotone blow-up, a
calibratable knee, SLO-scale latencies near capacity.
"""

import pytest

from repro.apps.latency import LatencySlo, TailLatencyModel
from repro.errors import ConfigError
from repro.sim.queueing import (
    QueueingConfig,
    calibrate_knee,
    p99_curve,
    simulate_queue,
)


class TestConfig:
    def test_rho(self):
        config = QueueingConfig(arrival_rate=50.0, service_rate_total=100.0)
        assert config.rho == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            QueueingConfig(arrival_rate=-1.0, service_rate_total=100.0)
        with pytest.raises(ConfigError):
            QueueingConfig(arrival_rate=1.0, service_rate_total=0.0)
        with pytest.raises(ConfigError):
            QueueingConfig(arrival_rate=1.0, service_rate_total=10.0, workers=0)


class TestSimulateQueue:
    def test_light_load_latency_is_service_time(self):
        config = QueueingConfig(arrival_rate=1.0, service_rate_total=100.0,
                                workers=2, seed=1)
        result = simulate_queue(config, num_requests=5_000)
        # At rho = 0.01 there is essentially no queueing: mean latency is
        # the mean service time, 2 workers / 100 rps = 20 ms.
        assert result.mean_latency_s == pytest.approx(0.02, rel=0.1)

    def test_latency_grows_with_utilization(self):
        p99s = []
        for rho in (0.3, 0.6, 0.9):
            config = QueueingConfig(arrival_rate=rho * 100.0,
                                    service_rate_total=100.0, workers=4, seed=2)
            p99s.append(simulate_queue(config, num_requests=20_000).p99_s)
        assert p99s == sorted(p99s)
        assert p99s[-1] > 2 * p99s[0]

    def test_overload_explodes(self):
        stable = simulate_queue(
            QueueingConfig(arrival_rate=80.0, service_rate_total=100.0,
                           workers=4, seed=3), num_requests=20_000)
        overloaded = simulate_queue(
            QueueingConfig(arrival_rate=130.0, service_rate_total=100.0,
                           workers=4, seed=3), num_requests=20_000)
        assert overloaded.p99_s > 10 * stable.p99_s

    def test_percentiles_ordered(self):
        config = QueueingConfig(arrival_rate=70.0, service_rate_total=100.0,
                                workers=4, seed=4)
        result = simulate_queue(config, num_requests=10_000)
        assert result.p50_s <= result.p95_s <= result.p99_s
        assert result.completed > 0
        assert result.max_queue_len >= 1

    def test_deterministic_by_seed(self):
        config = QueueingConfig(arrival_rate=50.0, service_rate_total=100.0,
                                workers=2, seed=9)
        a = simulate_queue(config, num_requests=2_000)
        b = simulate_queue(config, num_requests=2_000)
        assert a.p99_s == b.p99_s

    def test_more_workers_same_rate_changes_distribution(self):
        one = simulate_queue(
            QueueingConfig(arrival_rate=50.0, service_rate_total=100.0,
                           workers=1, seed=5), num_requests=10_000)
        many = simulate_queue(
            QueueingConfig(arrival_rate=50.0, service_rate_total=100.0,
                           workers=8, seed=5), num_requests=10_000)
        # Same total rate but longer individual service times: mean
        # latency rises with worker count at fixed total capacity.
        assert many.mean_latency_s > one.mean_latency_s

    def test_validation(self):
        config = QueueingConfig(arrival_rate=1.0, service_rate_total=10.0)
        with pytest.raises(ConfigError):
            simulate_queue(config, num_requests=10)

    def test_percentile_accessor(self):
        config = QueueingConfig(arrival_rate=10.0, service_rate_total=100.0,
                                seed=0)
        result = simulate_queue(config, num_requests=2_000)
        assert result.percentile(99.0) == result.p99_s
        with pytest.raises(ConfigError):
            result.percentile(90.0)


class TestAnalyticModelValidation:
    """The reason this module exists: validate the closed-form tail model."""

    def test_knee_model_fits_measured_curve(self):
        curve = p99_curve(
            service_rate_total=100.0,
            rhos=[0.2, 0.4, 0.6, 0.8, 0.9],
            num_requests=30_000, seed=7,
        )
        t0, knee = calibrate_knee(curve)
        assert t0 > 0
        assert 0.5 < knee < 1.05
        # The fitted hyperbola reproduces the measured p99s reasonably.
        for rho, measured in curve:
            predicted = t0 / (1.0 - knee * rho)
            assert predicted == pytest.approx(measured, rel=0.5)

    def test_analytic_model_and_queue_agree_on_shape(self):
        """Both latency curves are monotone and convex over rho."""
        curve = p99_curve(
            service_rate_total=100.0,
            rhos=[0.3, 0.5, 0.7, 0.9],
            num_requests=30_000, seed=8,
        )
        measured = [p for _, p in curve]
        slo = LatencySlo(p95_s=measured[-1] * 0.8, p99_s=measured[-1])
        model = TailLatencyModel(slo=slo)
        analytic = [model.p99_s(rho * 100.0, 100.0 / 0.9) for rho, _ in curve]
        # Monotone.
        assert measured == sorted(measured)
        assert analytic == sorted(analytic)
        # Convex: increments grow.
        for series in (measured, analytic):
            increments = [b - a for a, b in zip(series, series[1:])]
            assert increments == sorted(increments)

    def test_calibrate_knee_validation(self):
        with pytest.raises(ConfigError):
            calibrate_knee([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(ConfigError):
            calibrate_knee([(0.1, 1.0), (0.2, 0.0), (0.3, 2.0)])

    def test_curve_validation(self):
        with pytest.raises(ConfigError):
            p99_curve(100.0, rhos=[-0.1])
