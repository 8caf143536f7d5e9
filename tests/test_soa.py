"""The struct-of-arrays simulation kernel.

Covers the three SoA layers (keys table, column transport, phase column
state) plus the sharding and cache-sizing machinery around them:

* bit-identity matrix — full executions over line / grid / flood-heavy
  multipath topologies, honest and attacked, must land on the golden
  digests recorded from the retired object reference path
  (``tests/golden_digests.py``), with caches warm and bypassed;
* one kernel — the cache-disable switch bypasses caches only: the phase
  loops, node class and ring backend stay the same;
* arrival-order preservation — the column store's stable grouping must
  replay the per-receiver deposit order of the plain list store
  (:class:`~repro.net.transport.SimTransport`) exactly;
* region sharding edge cases (empty, singleton, more shards than items);
* ring-table rows / intersections / bulk edge keys vs the reference
  sampler, and rejection of malformed explicit rows;
* revocation parity — the explicit-ring revocation digests pinned from
  the retired dict backend, and the holder index vs a scan of the rows;
* cache autosizing (grow-only) and the large-build ring-cache bypass.
"""

import os

import numpy as np
import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.errors import ConfigError, KeyManagementError
from repro.keys.revocation import RevocationState
from repro.keys.ring import RingTable, ring_caches_fit, ring_indices_from_seed, ring_seed
from repro.net.node import HonestNode
from repro.net.soa import SoATransport
from repro.net.transport import SimTransport
from repro.perf.cache import (
    LRUCache,
    autosize_caches,
    cache_stats,
    caching_enabled,
    clear_caches,
    disabled,
)
from repro.perf.shard import delivery_region_geometry, fork_map, regions, shard_count
from repro.topology.generators import grid_topology, line_topology

from tests.golden_digests import assert_pinned


# ----------------------------------------------------------------------
# End-to-end bit identity: SoA kernel vs the pinned reference digests
# ----------------------------------------------------------------------
class TestBitIdentityMatrix:
    @pytest.mark.parametrize(
        "kind,nodes",
        [("grid", 100), ("line", 100), ("grid", 400)],
        ids=["grid-100", "line-100", "grid-400"],
    )
    def test_scale_cells_bit_identical(self, kind, nodes):
        # Flood-heavy multipath cells (the scale bench's configuration).
        assert_pinned(f"scale-{kind}-{nodes}")

    def test_single_path_line_bit_identical(self):
        # Non-multipath, default key config — exercises the column tree
        # path with single-parent acceptance.
        assert_pinned("single-path-line-30")


# ----------------------------------------------------------------------
# Arrival-order preservation under the column frame store
# ----------------------------------------------------------------------
class TestTransportOrder:
    def _phase(self):
        deployment = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=line_topology(8),
            seed=3,
        )
        net = deployment.network
        return net, net.new_phase("t", 3)

    def _send_pattern(self, net, phase):
        from repro.net.message import TreeBeacon

        phase.begin_interval(1)
        # Interleaved senders targeting overlapping receivers: per
        # receiver, frames must come back in send order.
        phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=1), interval=1)
        phase.send(4, [3, 5], TreeBeacon(origin=4, hop_count=1), interval=1)
        phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=2), interval=1)
        phase.send(0, [1], TreeBeacon(origin=0, hop_count=1), interval=1)

    def _orders(self, phase, receivers):
        return {
            r: [(d.sender, d.payload.hop_count) for d in phase.inbox(r, 1)]
            for r in receivers
        }

    def _reference_orders(self):
        # The plain per-receiver list store, installed through the
        # transport seam the service runtime uses.
        net, _ = self._phase()
        net.transport_factory = lambda phase: SimTransport()
        phase = net.new_phase("t", 3)
        assert type(phase.transport) is SimTransport
        self._send_pattern(net, phase)
        return self._orders(phase, (1, 3, 5))

    def test_soa_store_replays_reference_deposit_order(self):
        assert caching_enabled()
        net, phase = self._phase()
        assert type(phase.transport) is SoATransport
        self._send_pattern(net, phase)
        warm = self._orders(phase, (1, 3, 5))
        assert warm == self._reference_orders()
        assert warm[3] == [(2, 1), (4, 1), (2, 2)]

    def test_arrival_map_iterates_every_receiver(self):
        net, phase = self._phase()
        self._send_pattern(net, phase)
        arrived = phase.arrival_map(1)
        assert sorted(arrived) == [1, 3, 5]
        assert all(arrived[r] for r in arrived)
        assert 7 not in arrived
        with pytest.raises(KeyError):
            arrived[7]

    def test_multi_region_store_replays_reference_deposit_order(self, monkeypatch):
        # Force the region-partitioned store on an 8-id topology (3
        # regions instead of the automatic 1) and replay against the
        # reference transport at zero tolerance: per receiver, frames
        # must come back in the exact reference deposit order even when
        # senders straddle region boundaries.
        assert caching_enabled()
        monkeypatch.setenv("REPRO_DELIVERY_REGIONS", "3")
        net, phase = self._phase()
        assert type(phase.transport) is SoATransport
        self._send_pattern(net, phase)
        warm = self._orders(phase, (1, 3, 5))
        monkeypatch.delenv("REPRO_DELIVERY_REGIONS")
        assert warm == self._reference_orders()

    def test_multi_region_full_execution_bit_identical(self, monkeypatch):
        # End-to-end with the fanout forced multi-region: the run must
        # land on the single-region cell's pinned digest.
        monkeypatch.setenv("REPRO_DELIVERY_REGIONS", "4")
        assert_pinned("scale-grid-100")


def _square(x):
    # Module-level so the fork pool can pickle it.
    return x * x


# ----------------------------------------------------------------------
# Region sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_regions_cover_contiguously(self):
        parts = regions(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]

    def test_regions_edge_cases(self):
        assert regions(0, 4) == []
        assert regions(1, 4) == [(0, 1)]  # singleton: one region, no empties
        assert regions(3, 8) == [(0, 1), (1, 2), (2, 3)]  # shards > items
        assert regions(5, 0) == []

    def test_shard_count_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_SHARDS", "3")
        assert shard_count(1_000_000) == 3
        monkeypatch.setenv("REPRO_BUILD_SHARDS", "1")
        assert shard_count(1_000_000) == 1
        monkeypatch.delenv("REPRO_BUILD_SHARDS")
        assert shard_count(10) == 1  # below the auto-shard minimum

    def test_fork_map_matches_inline(self):
        args = list(range(7))
        assert fork_map(_square, args, shards=1) == [x * x for x in args]
        assert fork_map(_square, args, shards=4) == [x * x for x in args]

    def test_delivery_region_geometry_auto(self):
        # Below the 20k-id threshold the store stays unpartitioned.
        assert delivery_region_geometry(0) == (1, 1)
        assert delivery_region_geometry(100) == (100, 1)
        assert delivery_region_geometry(19_999) == (19_999, 1)
        # At scale: one region per 20k ids, capped at 16.
        assert delivery_region_geometry(100_000) == (20_000, 5)
        assert delivery_region_geometry(1_000_000) == (62_500, 16)

    def test_delivery_region_geometry_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DELIVERY_REGIONS", "5")
        assert delivery_region_geometry(100) == (20, 5)
        monkeypatch.setenv("REPRO_DELIVERY_REGIONS", "1")
        assert delivery_region_geometry(100_000) == (100_000, 1)
        # More regions than ids clamps to one region per id.
        monkeypatch.setenv("REPRO_DELIVERY_REGIONS", "64")
        assert delivery_region_geometry(8) == (1, 8)
        monkeypatch.setenv("REPRO_DELIVERY_REGIONS", "junk")
        assert delivery_region_geometry(100) == (100, 1)


# ----------------------------------------------------------------------
# Ring table vs the reference sampler
# ----------------------------------------------------------------------
class TestRingTable:
    SECRET = b"soa-parity-secret"

    def _config(self):
        return small_test_config(pool_size=200, ring_size=40).keys

    def test_rows_match_reference_sampler(self):
        config = self._config()
        table = RingTable(self.SECRET, num_nodes=12, config=config)
        for sensor_id in range(1, 12):
            seed = ring_seed(self.SECRET, sensor_id, cache=False)
            reference = ring_indices_from_seed(seed, config, cache=False)
            assert table.row_list(sensor_id) == list(reference)
            assert all(isinstance(i, int) for i in table.row_list(sensor_id))

    def test_intersect_and_holds(self):
        config = self._config()
        table = RingTable(self.SECRET, num_nodes=12, config=config)
        a, b = set(table.row_list(3)), set(table.row_list(7))
        assert table.intersect(3, 7) == tuple(sorted(a & b))
        for index in sorted(a)[:5]:
            assert table.holds(3, index)
        assert not table.holds(3, min(set(range(200)) - a))

    def test_bulk_edge_keys_match_per_edge(self):
        config = self._config()
        table = RingTable(self.SECRET, num_nodes=12, config=config)
        heads = [0, 1, 2, 5]
        tails = [3, 2, 9, 11]
        bulk = table.edge_keys(heads, tails).tolist()
        for position, (a, b) in enumerate(zip(heads, tails)):
            if a == 0:
                expected = table.row_list(b)[0]
            elif b == 0:
                expected = table.row_list(a)[0]
            else:
                shared = table.intersect(a, b)
                expected = shared[0] if shared else -1
            assert bulk[position] == expected

    @staticmethod
    def _reference_rows(secret, num_sensors, config):
        return [
            ring_indices_from_seed(ring_seed(secret, s, cache=False), config, cache=False)
            for s in range(1, num_sensors + 1)
        ]

    def test_cached_rows_mix_hits_and_batched_misses(self):
        # Set-branch config, so the misses take the batched word-stream path.
        clear_caches()
        config = small_test_config(pool_size=2_000, ring_size=60).keys
        RingTable(self.SECRET, num_nodes=12, config=config)
        before = cache_stats()["ring-selections"]
        table = RingTable(self.SECRET, num_nodes=20, config=config)
        after = cache_stats()["ring-selections"]
        assert after["hits"] - before["hits"] == 11
        assert after["misses"] - before["misses"] == 8
        assert table.rows.tolist() == self._reference_rows(self.SECRET, 19, config)

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_large_table_matches_reference_sampler(self, monkeypatch, shards):
        # Past the ring-cache bound the rows come from id regions: one
        # inline region at REPRO_BUILD_SHARDS=1, two forked ones at 2.
        monkeypatch.setenv("REPRO_BUILD_SHARDS", shards)
        config = small_test_config(pool_size=512, ring_size=8).keys
        num_sensors = 4_200
        assert not ring_caches_fit(num_sensors)
        table = RingTable(self.SECRET, num_nodes=num_sensors + 1, config=config)
        assert table.rows.dtype == np.int32
        assert table.rows.tolist() == self._reference_rows(self.SECRET, num_sensors, config)

    def _explicit(self, rows, ring_size=3):
        config = small_test_config(pool_size=10, ring_size=ring_size).keys
        return RingTable(
            self.SECRET, len(rows) + 1, config, ring_indices_factory=rows.__getitem__
        )

    def test_explicit_rows_are_sorted(self):
        table = self._explicit({1: [7, 2, 5], 2: (9, 0, 1)})
        assert table.row_list(1) == [2, 5, 7]
        assert table.row_list(2) == [0, 1, 9]

    def test_rejects_ragged_rows(self):
        with pytest.raises(KeyManagementError, match="ring_size"):
            self._explicit({1: [1, 2, 3], 2: [4, 5]})

    def test_rejects_duplicate_indices(self):
        with pytest.raises(KeyManagementError, match="repeats"):
            self._explicit({1: [1, 2, 3], 2: [4, 4, 5]})

    @pytest.mark.parametrize("bad", [-1, 10, 10**12])
    def test_rejects_out_of_range_indices(self, bad):
        with pytest.raises(KeyManagementError, match="pool"):
            self._explicit({1: [1, 2, 3], 2: [4, 5, bad]})

    def test_rejects_rows_of_the_wrong_length(self):
        with pytest.raises(KeyManagementError, match="ring_size"):
            self._explicit({1: [1, 2], 2: [4, 5]})
        with pytest.raises(KeyManagementError, match="ring_size"):
            self._explicit({1: [1, 2, 3, 4], 2: [4, 5, 6, 7]})


# ----------------------------------------------------------------------
# Revocation parity: pinned explicit-ring digests, holder index
# ----------------------------------------------------------------------
class TestRevocationParity:
    @pytest.mark.parametrize("cascade", [False, True])
    def test_event_logs_identical(self, cascade):
        """The explicit-ring revocation script lands on the digest pinned
        from the retired dict backend (events, log, counts, holders)."""
        assert_pinned(
            f"explicit-rings-revocation-{'cascade' if cascade else 'nocascade'}"
        )

    def test_holders_identical(self):
        """The holder index matches a brute-force scan of the table rows."""
        config = small_test_config(pool_size=60, ring_size=12).keys
        table = RingTable(b"revocation-parity", num_nodes=10, config=config)
        state = RevocationState(table)
        rows = {s: table.row_list(s) for s in range(1, 10)}
        for index in range(60):
            expected = tuple(s for s, row in rows.items() if index in row)
            assert state.holders_of(index) == expected
            assert all(isinstance(s, int) for s in state.holders_of(index))


# ----------------------------------------------------------------------
# Cache autosizing and the large-build ring-cache bypass
# ----------------------------------------------------------------------
class TestCacheSizing:
    def test_autosize_grows_and_never_shrinks(self):
        applied = autosize_caches(5_000, pool_size=16_384)
        assert applied["hmac-keyed-states"] >= 5_000 + 2048
        # Power-of-two rounded.
        assert all(size & (size - 1) == 0 for size in applied.values())
        # Grow-only: a smaller deployment later keeps the larger sizing.
        again = autosize_caches(10, pool_size=10)
        for name, size in applied.items():
            assert again.get(name, size) >= size

    def test_autosized_build_stops_hmac_evictions(self):
        clear_caches()
        deployment = build_deployment(
            config=small_test_config(depth_bound=30, pool_size=2_048, ring_size=60),
            topology=grid_topology(12, 12),
            seed=5,
        )
        readings = {i: 1.0 + i for i in deployment.topology.sensor_ids}
        result = VMATProtocol(deployment.network).execute(MinQuery(), readings)
        assert result.produced_result
        stats = cache_stats()["hmac-keyed-states"]
        assert stats["evictions"] == 0
        assert stats["hits"] > 0

    def test_ring_cache_fit_threshold(self):
        from repro.keys.ring import _RING_SELECTIONS

        assert ring_caches_fit(_RING_SELECTIONS.maxsize)
        assert not ring_caches_fit(_RING_SELECTIONS.maxsize + 1)

    def test_uncached_ring_derivation_matches_cached(self):
        clear_caches()
        config = small_test_config(pool_size=300, ring_size=25).keys
        cached_seed = ring_seed(b"bypass-parity", 4)
        direct_seed = ring_seed(b"bypass-parity", 4, cache=False)
        assert cached_seed == direct_seed
        assert ring_indices_from_seed(direct_seed, config, cache=False) == (
            ring_indices_from_seed(cached_seed, config)
        )

    def test_resize_evicts_down_and_validates(self):
        cache = LRUCache("soa-test-resize", maxsize=8)
        for i in range(8):
            cache.put(i, i)
        cache.resize(2)
        assert len(cache.view()) == 2
        assert cache.evictions == 6
        with pytest.raises(ConfigError):
            cache.resize(0)


# ----------------------------------------------------------------------
# One kernel: the disable switch bypasses caches, nothing else
# ----------------------------------------------------------------------
class TestColumnGating:
    """Every inline run — honest, attacked or traced, caches warm or
    bypassed — takes the column loops; the only other route through a
    phase is a service driver (node state on host processes)."""

    def _observe(self, monkeypatch, malicious=frozenset(), traced=False):
        """Run one execution; return the phase-state classes its phases
        built plus the kernel pieces the build chose."""
        from repro.adversary import Adversary, make_strategy
        from repro.core import aggregation, confirmation, tree
        from repro.tracing import Tracer

        built = set()
        for module, name in (
            (tree, "TreeColumns"),
            (aggregation, "SlotSchedule"),
            (confirmation, "VetoSchedule"),
        ):
            original = getattr(module, name)
            monkeypatch.setattr(
                module,
                name,
                lambda *args, _cls=original, **kw: built.add(_cls.__name__)
                or _cls(*args, **kw),
            )
        deployment = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(10),
            malicious_ids=set(malicious),
            seed=13,
        )
        network = deployment.network
        adversary = None
        if malicious:
            adversary = Adversary(network, make_strategy("drop-minimum"), seed=13)
        if traced:
            Tracer.attach(network)
        readings = {i: 100.0 + i for i in deployment.topology.sensor_ids}
        VMATProtocol(network, adversary=adversary).execute(MinQuery(), readings)
        nodes = network.nodes.values()
        return (
            sorted(built),
            type(network.new_phase("probe", 1).transport),
            {type(node) for node in nodes},
            all(node._columns is network.node_columns for node in nodes),
            type(deployment.registry.ring_table),
            type(deployment.registry.revocation),
        )

    COLUMN_KERNEL = (
        ["SlotSchedule", "TreeColumns", "VetoSchedule"],
        SoATransport,
        {HonestNode},
        True,
        RingTable,
        RevocationState,
    )

    def test_honest_inline_run_engages_columns(self, monkeypatch):
        assert self._observe(monkeypatch) == self.COLUMN_KERNEL

    def test_columns_cover_attacked_runs(self, monkeypatch):
        assert self._observe(monkeypatch, malicious={4}) == self.COLUMN_KERNEL

    def test_columns_cover_traced_runs(self, monkeypatch):
        assert self._observe(monkeypatch, traced=True) == self.COLUMN_KERNEL

    def test_disable_switch_and_driver_disengage_columns(self, monkeypatch):
        """The disable switch does NOT disengage the columns; only a
        service driver does.  (The name predates the single kernel and is
        kept so the test keeps its identity.)  With caches bypassed the
        column kernel, node class and ring backend are unchanged; a
        driver on ``network.honest_driver`` takes ``form_tree`` off
        :class:`TreeColumns`."""
        from repro.core import tree

        with disabled():
            bypassed = self._observe(monkeypatch, malicious={4}, traced=True)
        assert bypassed == self.COLUMN_KERNEL

        class StubDriver:
            def __init__(self):
                self.phases = []

            def phase_begin(self, kind, phase, **kwargs):
                self.phases.append(kind)

            def tick(self, k):
                pass

            def deliver(self, k):
                pass

            def phase_end(self):
                pass

        built = []
        original = tree.TreeColumns
        monkeypatch.setattr(
            tree,
            "TreeColumns",
            lambda *args, **kw: built.append(1) or original(*args, **kw),
        )
        network = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(10),
            seed=13,
        ).network
        network.honest_driver = driver = StubDriver()
        try:
            tree.form_tree(network, None, 12)
        finally:
            network.honest_driver = None
        assert driver.phases == ["tree"]
        assert built == []
        tree.form_tree(network, None, 12)
        assert built == [1]

    def test_attacked_run_bit_identical_warm_vs_disabled(self):
        assert_pinned("attacked-line-10-drop-minimum")


# ----------------------------------------------------------------------
# Adversarial bit-identity matrix: zoo x tracer x topology
# ----------------------------------------------------------------------
class TestAdversarialBitIdentityMatrix:
    """The hybrid kernel's equality contract under active adversaries.

    Every cell runs the same two-execution campaign with the perf
    caches warm and bypassed; outcome sequence, ``Metrics.to_dict()``
    and, when a tracer is attached, the full event stream must land on
    the digest pinned from the retired object reference path.  The
    matrix spans a single-node zoo strategy (relay-drop) and a colluding
    one (cover-accomplice), tracer on/off, and line/grid topologies.
    """

    @pytest.mark.parametrize("topo", ["line", "grid"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("strategy", ["relay-drop", "cover-accomplice"])
    def test_warm_matches_disabled(self, strategy, traced, topo):
        assert_pinned(f"zoo-{strategy}-{'traced' if traced else 'untraced'}-{topo}")


# ----------------------------------------------------------------------
# Registry backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_warm_build_uses_table_backend(self):
        assert caching_enabled()
        deployment = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=line_topology(6),
            seed=1,
        )
        assert type(deployment.registry.ring_table) is RingTable
        assert type(deployment.registry.revocation) is RevocationState

    def test_disabled_build_uses_object_backend(self):
        """Every registry, cache-bypassed or explicit-ring, keeps its
        rings in the ring table with one :class:`RevocationState`.  (The
        name predates the single key store and is kept so the test keeps
        its identity.)"""
        from repro.keys.registry import KeyRegistry

        config = small_test_config(depth_bound=10)
        with disabled():
            deployment = build_deployment(
                config=config, topology=line_topology(6), seed=1
            )
            explicit = KeyRegistry(
                b"explicit-rings",
                6,
                config.keys,
                config.revocation,
                ring_indices_factory=deployment.registry.ring_table.row_list,
            )
            pairwise = build_deployment(num_nodes=6, seed=1, key_scheme="pairwise")
        for registry in (deployment.registry, explicit, pairwise.registry):
            assert type(registry.ring_table) is RingTable
            assert type(registry.revocation) is RevocationState

    def test_backends_agree_on_registry_api(self):
        """A registry over explicit rows, fed the seed draw's own
        Eschenauer–Gligor rows, answers every registry query exactly like
        the seed-built registry."""
        from repro.keys.registry import KeyRegistry

        topology = line_topology(6)
        config = small_test_config(depth_bound=10)
        secret = b"backend-parity"
        warm = build_deployment(
            config=config, topology=topology, seed=2, master_secret=secret
        ).registry
        ref = KeyRegistry(
            secret,
            6,
            config.keys,
            config.revocation,
            ring_indices_factory=lambda s: ring_indices_from_seed(
                ring_seed(secret, s, cache=False), config.keys, cache=False
            ),
        )
        for sensor in range(1, 6):
            assert warm.ring(sensor) == ref.ring(sensor)
            warm_mat = warm.sensor_deployment_material(sensor)
            ref_mat = ref.sensor_deployment_material(sensor)
            assert warm_mat.ring_indices == ref_mat.ring_indices
            assert warm_mat.sensor_key == ref_mat.sensor_key
            assert warm_mat.all_keys == ref_mat.all_keys
        for index in range(config.keys.pool_size):
            assert warm.holders(index) == ref.holders(index)
        for a in range(6):
            for b in range(a + 1, 6):
                assert warm.shared_key_indices(a, b) == ref.shared_key_indices(a, b)
                assert warm.edge_key_index(a, b) == ref.edge_key_index(a, b)
