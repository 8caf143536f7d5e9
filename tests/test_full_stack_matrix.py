"""Full-stack scenario matrix: topologies x adversaries x queries.

The broad sanity sweep a release gate would run: every combination must
uphold the three global invariants (safety, correctness-of-results,
progress) — whatever the topology shape, attack and query type."""

from __future__ import annotations

import pytest

from repro import (
    CountQuery,
    MaxQuery,
    MinQuery,
    VMATProtocol,
    build_deployment,
    small_test_config,
)
from repro.adversary import (
    Adversary,
    DropMinimumStrategy,
    JunkMinimumStrategy,
    PassiveStrategy,
    SpuriousVetoStrategy,
)
from repro.topology import cluster_topology, grid_topology, random_geometric_topology
from repro.topology.generators import recommended_radius

from tests.conftest import assert_only_malicious_revoked
from tests.golden_digests import assert_pinned

TOPOLOGIES = {
    "grid": lambda: (grid_topology(4, 4), 10, {6}),
    "geometric": lambda: (
        random_geometric_topology(24, recommended_radius(24), seed=31),
        8,
        {5},
    ),
    "clusters": lambda: (cluster_topology(3, 5, seed=31), 8, {6}),
}

STRATEGIES = {
    "passive": lambda: PassiveStrategy(),
    "drop": lambda: DropMinimumStrategy(predtest="deny"),
    "junk": lambda: JunkMinimumStrategy(),
    "spurious-veto": lambda: SpuriousVetoStrategy(),
}

QUERIES = {
    "min": lambda: MinQuery(),
    "max": lambda: MaxQuery(),
    "count": lambda: CountQuery(predicate=lambda r: r > 50, num_synopses=40),
}


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_matrix_invariants(topology_name, strategy_name, query_name):
    topology, depth, malicious = TOPOLOGIES[topology_name]()
    deployment = build_deployment(
        config=small_test_config(depth_bound=depth),
        topology=topology,
        malicious_ids=malicious,
        seed=31,
    )
    adversary = Adversary(deployment.network, STRATEGIES[strategy_name](), seed=31)
    protocol = VMATProtocol(deployment.network, adversary=adversary)
    query = QUERIES[query_name]()
    readings = {i: float(30 + (i * 13) % 60) for i in topology.sensor_ids}

    result = protocol.execute(query, readings)

    # Safety: never any honest collateral.
    assert_only_malicious_revoked(deployment, malicious)
    # Progress: a result or a revocation, never a stall.
    assert result.produced_result or result.revocations
    # Correctness where the query admits exact statements.
    if result.produced_result and query_name in ("min", "max"):
        lo = min(result.overall_true_value, result.honest_true_value)
        hi = max(result.overall_true_value, result.honest_true_value)
        assert lo <= result.estimate <= hi
    if result.produced_result and query_name == "count" and strategy_name == "passive":
        truth = query.true_value(list(readings.values()))
        if truth > 0:
            assert abs(result.estimate - truth) / truth < 0.8


@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
def test_matrix_bit_identical_with_caches_disabled(strategy_name):
    """The repro.perf caches are observability-free: a full-stack run
    with caches warm and with every cache bypassed lands on the digest
    of outcomes, estimates, revocations and metrics pinned from the
    retired cache-disabled reference path (the CI ``matrix-nocache``
    leg re-runs the digests under REPRO_DISABLE_PERF_CACHES=1 to check
    the env-var path too)."""
    assert_pinned(f"matrix-grid-min-{strategy_name}")
