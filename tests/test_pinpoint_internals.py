"""Unit tests of the pinpointing binary searches with a scripted test
oracle — every failure branch of Figures 5 and 6, deterministically.

The searches only interact with the world through
``Pinpointer._test(key_ref, predicate)``; stubbing that method lets us
script arbitrary (adversarial) answer sequences and check each decision
branch without running the network."""

from __future__ import annotations

from typing import Callable, List, Tuple

import pytest

from repro import build_deployment, small_test_config
from repro.core.pinpoint import Pinpointer
from repro.core.predicate_test import AggForwarded, AggReceived
from repro.crypto.nonce import NonceSource


@pytest.fixture
def pinpointer():
    dep = build_deployment(num_nodes=12, seed=5)
    pin = Pinpointer(dep.network, None, depth_bound=8, nonce_source=NonceSource(b"t"))
    return dep, pin


def script(pin, answer: Callable[[Tuple[str, int], object], bool]):
    """Replace the network round-trip with a deterministic oracle."""
    calls: List[Tuple[Tuple[str, int], object]] = []

    def fake_test(key_ref, predicate):
        calls.append((key_ref, predicate))
        return answer(key_ref, predicate)

    pin._test = fake_test  # type: ignore[method-assign]
    return calls


class TestRingBinarySearch:
    def test_finds_the_single_satisfying_key(self, pinpointer):
        dep, pin = pinpointer
        ring = dep.registry.ring(3)
        target = ring[len(ring) // 3]

        calls = script(
            pin, lambda ref, p: p.key_low <= target <= p.key_high
        )
        found = pin._ring_binary_search(
            3, lambda low, high: AggForwarded(1, 5.0, low, high)
        )
        assert found == target
        # log2(|ring|) + final confirm
        import math

        assert len(calls) <= math.ceil(math.log2(len(ring))) + 1

    def test_all_no_answers_returns_none(self, pinpointer):
        dep, pin = pinpointer
        script(pin, lambda ref, p: False)
        assert pin._ring_binary_search(
            3, lambda low, high: AggForwarded(1, 5.0, low, high)
        ) is None

    def test_inconsistent_yes_then_refuse_confirm_returns_none(self, pinpointer):
        dep, pin = pinpointer
        # Say yes to wide ranges, no to the final single-key confirm.
        script(pin, lambda ref, p: p.key_low != p.key_high)
        assert pin._ring_binary_search(
            3, lambda low, high: AggForwarded(1, 5.0, low, high)
        ) is None

    def test_revoked_keys_excluded_from_domain(self, pinpointer):
        dep, pin = pinpointer
        ring = dep.registry.ring(3)
        target = ring[0]
        dep.registry.revoke_key(target, reason="test")
        seen_ranges = []

        def answer(ref, p):
            seen_ranges.append((p.key_low, p.key_high))
            return p.key_low <= target <= p.key_high

        script(pin, answer)
        found = pin._ring_binary_search(
            3, lambda low, high: AggForwarded(1, 5.0, low, high)
        )
        # The revoked key can no longer be identified; the search must
        # not even consider it (converges elsewhere, confirm fails).
        assert found != target

    def test_empty_domain_returns_none(self, pinpointer):
        dep, pin = pinpointer
        for index in dep.registry.ring(3):
            dep.registry.revocation._apply_key(index, exposed=False)
        script(pin, lambda ref, p: True)
        assert pin._ring_binary_search(
            3, lambda low, high: AggForwarded(1, 5.0, low, high)
        ) is None


class TestHoldersBinarySearch:
    def _shared_key(self, dep):
        """A pool key with at least 3 sensor holders (for real searches)."""
        for index in range(dep.config.keys.pool_size):
            if len(dep.registry.holders(index)) >= 3:
                return index
        pytest.skip("test config yielded no 3-holder key")

    def make_predicate(self, key):
        return lambda lo, hi: AggReceived(lo, hi, 5.0, 2, key)

    def test_finds_truthful_admitter(self, pinpointer):
        dep, pin = pinpointer
        key = self._shared_key(dep)
        holders = dep.registry.holders(key)
        admitter = holders[-1]

        def answer(ref, p):
            if ref[0] == "sensor":
                return ref[1] == admitter
            return p.id_low <= admitter <= p.id_high

        script(pin, answer)
        assert pin._holders_binary_search(key, self.make_predicate(key)) == admitter

    def test_step2_nobody_admits(self, pinpointer):
        dep, pin = pinpointer
        key = self._shared_key(dep)
        calls = script(pin, lambda ref, p: False)
        assert pin._holders_binary_search(key, self.make_predicate(key)) is None
        assert len(calls) == 1  # fails straight at step 2

    def test_step12_inconsistent_halves(self, pinpointer):
        dep, pin = pinpointer
        key = self._shared_key(dep)
        holders = dep.registry.holders(key)

        def answer(ref, p):
            # Admit on the full range, then deny both halves.
            return (p.id_low, p.id_high) == (holders[0], holders[-1])

        script(pin, answer)
        assert pin._holders_binary_search(key, self.make_predicate(key)) is None

    def test_step6_confirm_failure(self, pinpointer):
        dep, pin = pinpointer
        key = self._shared_key(dep)
        holders = dep.registry.holders(key)
        liar = holders[0]

        def answer(ref, p):
            if ref[0] == "sensor":
                return False  # the candidate refuses to re-confirm
            return p.id_low <= liar <= p.id_high

        script(pin, answer)
        assert pin._holders_binary_search(key, self.make_predicate(key)) is None

    def test_revoked_sensors_excluded(self, pinpointer):
        dep, pin = pinpointer
        key = self._shared_key(dep)
        holders = dep.registry.holders(key)
        dep.registry.revoke_sensor(holders[0], reason="test")
        admitter = holders[-1]

        def answer(ref, p):
            if ref[0] == "sensor":
                return ref[1] == admitter
            return p.id_low <= admitter <= p.id_high

        script(pin, answer)
        # Still finds the live admitter, never consulting the revoked id.
        assert pin._holders_binary_search(key, self.make_predicate(key)) == admitter

    def test_no_unrevoked_holders_returns_none(self, pinpointer):
        dep, pin = pinpointer
        key = self._shared_key(dep)
        for holder in dep.registry.holders(key):
            dep.registry.revocation._revoked_sensors.add(holder)
        script(pin, lambda ref, p: True)
        assert pin._holders_binary_search(key, self.make_predicate(key)) is None
