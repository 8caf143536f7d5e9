"""Connectivity-under-revocation analysis (§IX closing remark)."""

from __future__ import annotations

import pytest

from repro.analysis import link_survival_probability, revocation_sweep
from repro.config import ExperimentConfig, KeyConfig, ProtocolConfig
from repro.errors import ConfigError


class TestLinkSurvival:
    def test_no_revocation_full_survival(self):
        assert link_survival_probability(KeyConfig(), 0.0) == pytest.approx(1.0)

    def test_full_revocation_zero_survival(self):
        assert link_survival_probability(KeyConfig(), 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_fraction(self):
        values = [
            link_survival_probability(KeyConfig(), phi)
            for phi in (0.0, 0.25, 0.5, 0.75, 0.99)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_denser_rings_survive_better(self):
        sparse = KeyConfig(pool_size=10_000, ring_size=50)
        dense = KeyConfig(pool_size=10_000, ring_size=400)
        assert link_survival_probability(dense, 0.5) > link_survival_probability(
            sparse, 0.5
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            link_survival_probability(KeyConfig(), 1.5)


class TestRevocationSweep:
    def test_sweep_shape(self):
        config = ExperimentConfig(
            keys=KeyConfig(pool_size=500, ring_size=50),
            protocol=ProtocolConfig(depth_bound=10),
        )
        series = revocation_sweep(40, [0.0, 0.5, 0.95], config=config, trials=2, seed=2)
        assert series.connected_share[0.0] == 1.0
        assert series.connected_share[0.95] < series.connected_share[0.0]

    def test_collapse_fraction_none_when_robust(self):
        series = revocation_sweep(30, [0.0, 0.1], trials=1, seed=3)
        assert series.collapse_fraction(threshold=0.5) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            revocation_sweep(30, [1.0], trials=1)
        with pytest.raises(ConfigError):
            revocation_sweep(30, [0.5], trials=0)
