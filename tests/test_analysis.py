"""Figure 7 / Figure 8 analysis drivers and statistics helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    count_error_trials,
    expected_misrevocations,
    figure8,
    mean,
    misrevocation_trials,
    percentile,
    smallest_safe_theta,
    summarize,
)
from repro.analysis.approximation import protocol_count_trial
from repro.analysis.stats import standard_error
from repro.config import KeyConfig
from repro.errors import ConfigError

PAPER_KEYS = KeyConfig()  # r=250, u=100,000


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_interpolation(self):
        values = [0.0, 10.0]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 10.0
        assert percentile(values, 50) == 5.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0], percentiles=(50, 90))
        assert set(summary) == {"mean", "p50", "p90"}

    def test_standard_error(self):
        assert standard_error([1.0, 1.0, 1.0]) == 0.0
        with pytest.raises(ValueError):
            standard_error([1.0])


class TestFigure7:
    def test_monotone_decreasing_in_theta(self):
        series = misrevocation_trials(1000, 5, range(1, 25), trials=20, seed=3)
        curve = [series.avg_misrevoked[t] for t in series.theta_values]
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_paper_claim_f1_theta7(self):
        """'with a single malicious sensor, we can identify that
        malicious sensor after it exposes roughly 7 edge keys, while
        incurring close-to-zero probability of mis-revoking'."""
        for n in (1_000, 10_000):
            series = misrevocation_trials(n, 1, range(1, 10), trials=30, seed=1)
            assert series.avg_misrevoked[7] < 0.2
            assert series.smallest_theta_below(1.0) <= 7

    def test_paper_claim_f20_theta27(self):
        """'to keep the average number of mis-revoked honest sensors
        below 1, θ needs to be 27 for 20 malicious sensors'."""
        series = misrevocation_trials(10_000, 20, range(20, 33), trials=15, seed=1)
        safe = series.smallest_theta_below(1.0)
        assert 24 <= safe <= 30  # the paper reads 27 off its plot

    def test_theta_an_order_of_magnitude_below_ring_size(self):
        safe = smallest_safe_theta(10_000, 20, PAPER_KEYS)
        assert safe < PAPER_KEYS.ring_size / 5  # ">90% reduction" claim

    def test_more_malicious_needs_larger_theta(self):
        assert smallest_safe_theta(10_000, 20) > smallest_safe_theta(10_000, 1)

    def test_monte_carlo_matches_closed_form(self):
        n, f, theta = 1_000, 5, 10
        series = misrevocation_trials(n, f, [theta], trials=60, seed=7)
        analytic = expected_misrevocations(n, f, theta)
        mc = series.avg_misrevoked[theta]
        # Poisson-ish counts: compare within a few standard errors.
        tolerance = 4 * math.sqrt(max(analytic, mc, 0.2) / 60) + 0.3
        assert abs(mc - analytic) <= max(tolerance, 0.5 * max(analytic, 0.2))

    def test_pure_python_fallback_agrees(self):
        """The same seed gives an identical ``per_trial``.  (The pure-Python
        fallback this once compared against is gone; the name is kept so
        the test keeps its identity.)"""
        a = misrevocation_trials(300, 2, [4, 8], trials=10, seed=5)
        b = misrevocation_trials(300, 2, [4, 8], trials=10, seed=5)
        assert a.per_trial == b.per_trial
        assert misrevocation_trials(300, 2, [4, 8], trials=10, seed=6).per_trial != a.per_trial

    def test_rejects_degenerate_population(self):
        with pytest.raises(ConfigError):
            misrevocation_trials(5, 5, [1], trials=1)

    def test_smallest_theta_below_raises_when_sweep_too_short(self):
        series = misrevocation_trials(10_000, 20, [1, 2], trials=5, seed=1)
        with pytest.raises(ConfigError):
            series.smallest_theta_below(0.0001)


class TestFigure8:
    def test_average_error_below_10_percent_at_m100(self):
        """The paper's headline: 100 synopses give <10% average error."""
        series = count_error_trials([100, 1_000], num_synopses=100, trials=200, seed=2)
        for count in (100, 1_000):
            assert series.average(count) < 0.10

    def test_error_roughly_flat_in_count(self):
        # The estimator's relative error does not depend on the count —
        # the flat curves of Figure 8.
        series = figure8(counts=(10, 100, 1_000, 10_000), trials=150, seed=3)
        averages = [series.average(c) for c in series.counts]
        assert max(averages) / min(averages) < 1.8

    def test_percentiles_ordered(self):
        series = count_error_trials([500], trials=100, seed=4)
        assert series.percentile(500, 50) <= series.percentile(500, 90)
        assert series.percentile(500, 90) <= series.percentile(500, 99)

    def test_more_synopses_reduce_error(self):
        small = count_error_trials([200], num_synopses=25, trials=150, seed=5)
        large = count_error_trials([200], num_synopses=400, trials=150, seed=5)
        assert large.average(200) < small.average(200)

    def test_rows_structure(self):
        series = count_error_trials([10], trials=20, seed=6)
        rows = series.rows(percentiles=(50, 90))
        assert rows[0]["count"] == 10.0
        assert {"average", "p50", "p90"} <= set(rows[0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            count_error_trials([0], trials=10)
        with pytest.raises(ConfigError):
            count_error_trials([10], trials=0)

    def test_end_to_end_protocol_matches_model(self):
        """The deployed pipeline (PRF synopses, MACs, tree, SOF) should
        show the same error scale as the distributional model."""
        errors = [
            protocol_count_trial(35, 12, num_synopses=60, seed=seed)[1]
            for seed in range(3)
        ]
        assert all(e < 0.6 for e in errors)
        assert sum(errors) / len(errors) < 0.35
