"""Key pool, rings, registry: Eschenauer–Gligor pre-distribution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_deployment
from repro.config import KeyConfig, RevocationConfig
from repro.errors import KeyManagementError, RevocationError
from repro.keys import KeyPool, KeyRegistry, ring_seed
from repro.keys.ring import ring_indices_from_seed

CFG = KeyConfig(pool_size=200, ring_size=40)


@pytest.fixture
def pool():
    return KeyPool(b"master", CFG)


@pytest.fixture
def registry():
    return KeyRegistry(b"master", num_nodes=12, key_config=CFG,
                       revocation_config=RevocationConfig(theta=5))


class TestKeyPool:
    def test_pool_keys_deterministic_and_distinct(self, pool):
        assert pool.pool_key(3) == pool.pool_key(3)
        assert pool.pool_key(3) != pool.pool_key(4)

    def test_sensor_keys_distinct_from_pool_keys(self, pool):
        assert pool.sensor_key(3) != pool.pool_key(3)

    def test_key_length(self, pool):
        assert len(pool.pool_key(0)) == CFG.key_length

    def test_rejects_out_of_range_index(self, pool):
        with pytest.raises(KeyManagementError):
            pool.pool_key(CFG.pool_size)
        with pytest.raises(KeyManagementError):
            pool.pool_key(-1)

    def test_rejects_empty_master(self):
        with pytest.raises(KeyManagementError):
            KeyPool(b"", CFG)


class TestKeyRing:
    """Ring selection (:func:`ring_indices_from_seed`) and a sensor's ring
    as the registry and its deployment material expose it."""

    def test_ring_selection_from_seed(self, pool):
        """The seed draw yields ``ring_size`` distinct, sorted indices."""
        ring = ring_indices_from_seed(ring_seed(b"master", 1), CFG)
        assert len(ring) == CFG.ring_size
        assert ring == sorted(set(ring))

    def test_same_seed_same_ring(self, pool):
        """A ring is a function of its seed alone, not of the sensor id."""
        seed = ring_seed(b"master", 1)
        assert ring_indices_from_seed(seed, CFG) == ring_indices_from_seed(
            seed, CFG, cache=False
        )
        registry = KeyRegistry(b"master", num_nodes=3, key_config=CFG)
        assert list(registry.ring(1)) == ring_indices_from_seed(seed, CFG)

    def test_different_sensors_different_rings(self, pool):
        """Different sensors' seeds select different rings."""
        a = ring_indices_from_seed(ring_seed(b"master", 1), CFG)
        b = ring_indices_from_seed(ring_seed(b"master", 2), CFG)
        assert a != b

    def test_holds_and_key_access(self, registry, pool):
        """Registry membership and material key bytes agree with the pool."""
        index = registry.ring(1)[0]
        assert registry.node_holds(1, index)
        assert registry.sensor_deployment_material(1).key(index) == pool.pool_key(index)

    def test_key_access_denied_outside_ring(self, registry):
        """Material refuses a pool key outside the sensor's ring."""
        outside = next(i for i in range(CFG.pool_size) if i not in registry.ring(1))
        assert not registry.node_holds(1, outside)
        with pytest.raises(KeyManagementError):
            registry.sensor_deployment_material(1).key(outside)

    def test_shared_indices_symmetric(self, registry):
        """Shared indices are symmetric and held by both endpoints."""
        assert registry.shared_key_indices(1, 2) == registry.shared_key_indices(2, 1)
        for index in registry.shared_key_indices(1, 2):
            assert index in registry.ring(1) and index in registry.ring(2)

    def test_rank_of(self, registry):
        """A ring is the sorted index tuple, so position is rank."""
        ring = registry.ring(1)
        assert isinstance(ring, tuple)
        assert list(ring) == sorted(ring)
        assert ring.index(ring[5]) == 5


class TestKeyRegistry:
    def test_holders_consistent_with_rings(self, registry):
        for index in registry.ring(1):
            assert 1 in registry.holders(index)

    def test_holders_sorted(self, registry):
        index = registry.ring(1)[0]
        holders = registry.holders(index)
        assert list(holders) == sorted(holders)

    def test_node_holds_base_station_holds_all(self, registry):
        assert registry.node_holds(0, 123)

    def test_edge_key_is_lowest_shared(self, registry):
        shared = registry.shared_key_indices(1, 2)
        if shared:
            assert registry.edge_key_index(1, 2) == shared[0]

    def test_edge_key_with_base_station_uses_sensor_ring(self, registry):
        assert registry.edge_key_index(0, 3) == registry.ring(3)[0]

    def test_edge_key_skips_revoked(self, registry):
        shared = registry.shared_key_indices(1, 2)
        assert len(shared) >= 2, "test config should give many shared keys"
        registry.revoke_key(shared[0])
        assert registry.edge_key_index(1, 2) == shared[1]

    def test_link_unusable_when_endpoint_revoked(self, registry):
        assert registry.link_usable(1, 2)
        registry.revoke_sensor(2)
        assert not registry.link_usable(1, 2)

    def test_link_unusable_when_all_shared_keys_revoked(self, registry):
        for index in registry.shared_key_indices(0, 1):
            registry.revocation._apply_key(index, exposed=False)  # bypass θ noise
        assert registry.edge_key_index(0, 1) is None
        assert not registry.link_usable(0, 1)

    def test_no_edge_key_with_self(self, registry):
        with pytest.raises(KeyManagementError):
            registry.edge_key_index(3, 3)

    def test_deployment_material_matches_registry(self, registry):
        material = registry.sensor_deployment_material(4)
        assert material.sensor_key == registry.sensor_key(4)
        assert material.ring_indices == registry.ring(4)
        for index in material.ring_indices:
            assert material.key(index) == registry.pool_key(index)

    def test_material_denies_unheld_keys(self, registry):
        material = registry.sensor_deployment_material(4)
        outside = next(i for i in range(CFG.pool_size) if not material.holds(i))
        with pytest.raises(KeyManagementError):
            material.key(outside)

    @pytest.mark.parametrize("index", [10**9, -5])
    def test_revoke_key_rejects_out_of_range_index(self, index):
        registry = build_deployment(num_nodes=10, seed=1).registry
        with pytest.raises(RevocationError):
            registry.revoke_key(index)
        assert registry.revocation_epoch == 0
        assert registry.revoked_keys == frozenset()

    def test_rejects_tiny_deployment(self):
        with pytest.raises(KeyManagementError):
            KeyRegistry(b"m", num_nodes=1, key_config=CFG)

    @settings(max_examples=15, deadline=None)
    @given(a=st.integers(1, 11), b=st.integers(1, 11))
    def test_edge_key_symmetric(self, a, b):
        # Fresh, unmutated registry (module-level cache) — hypothesis
        # forbids function-scoped fixtures.
        registry = _symmetry_registry()
        if a != b:
            assert registry.edge_key_index(a, b) == registry.edge_key_index(b, a)


_SYMMETRY_REGISTRY = None


def _symmetry_registry():
    global _SYMMETRY_REGISTRY
    if _SYMMETRY_REGISTRY is None:
        _SYMMETRY_REGISTRY = KeyRegistry(b"master", num_nodes=12, key_config=CFG)
    return _SYMMETRY_REGISTRY
