"""Layer spans recorded from outside the program.

A :class:`SpanTracer` replaces the public callables the VMAT protocol calls
into (``repro.core.protocol.form_tree``, ``Network.authenticated_flood``,
...) with thin timing wrappers, and puts every original back when its
``with`` block exits.  Nothing under ``src/`` knows it is being traced.

Spans nest: a predicate test floods, pinpointing runs predicate tests and
revokes keys, tree formation floods.  Each wrapper keeps a stack of child
time, so a layer is charged only its *self* time — its span minus the
part of that interval its child spans cover.  The self times of one
operation therefore add up to at most its wall time; the remainder is
reported as ``other_s``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
import repro.core.pinpoint
import repro.core.protocol
from repro.core.pinpoint import Pinpointer
from repro.keys.revocation import RevocationState
from repro.net.network import Network

#: (layer, owner, attribute) for every wrapped callable.  The topology,
#: key-registry and network constructors are looked up on the ``repro``
#: package because that is where the workloads and ``build_deployment``
#: resolve them at call time.
SPAN_POINTS: Tuple[Tuple[str, Any, str], ...] = (
    ("topology.build", repro, "grid_topology"),
    ("topology.build", repro, "random_geometric_topology"),
    ("keys.build", repro, "KeyRegistry"),
    ("net.build", repro, "Network"),
    ("core.sign", repro.core.protocol, "sign_instance_values"),
    ("core.tree", repro.core.protocol, "form_tree"),
    ("core.aggregation", repro.core.protocol, "run_aggregation"),
    ("core.confirmation", repro.core.protocol, "run_confirmation"),
    ("net.flood", Network, "authenticated_flood"),
    ("core.pinpoint", Pinpointer, "veto_triggered"),
    ("core.pinpoint", Pinpointer, "junk_aggregation"),
    ("core.pinpoint", Pinpointer, "junk_confirmation"),
    ("core.predicate_test", repro.core.pinpoint, "run_keyed_predicate_test"),
    ("keys.revocation", RevocationState, "revoke_key"),
    ("keys.revocation", RevocationState, "revoke_sensor"),
)

BUILD_LAYERS = ("topology.build", "keys.build", "net.build")
OP_LAYERS = tuple(
    dict.fromkeys(layer for layer, _, _ in SPAN_POINTS if layer not in BUILD_LAYERS)
)


class Ledger:
    """Self time and call counts per layer over one traced interval."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # Revocation events by kind ("key" / "sensor"), cascades included.
        self.revocations: Counter = Counter()
        self._children: List[float] = []

    def enter(self) -> None:
        self._children.append(0.0)

    def leave(self, layer: str, elapsed: float) -> None:
        self.self_s[layer] += elapsed - self._children.pop()
        self.calls[layer] += 1
        if self._children:
            self._children[-1] += elapsed


class SpanTracer:
    """Context manager that installs the span wrappers and restores them.

    Spans are charged to :attr:`ledger`; callers swap in a fresh
    :class:`Ledger` to separate intervals (one build, one operation).
    """

    def __init__(self) -> None:
        self.ledger = Ledger()
        self._originals: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "SpanTracer":
        try:
            for layer, owner, attr in SPAN_POINTS:
                original = owner.__dict__[attr]
                on_result = _count_revocations if layer == "keys.revocation" else None
                setattr(owner, attr, self._wrap(layer, original, on_result))
                self._originals.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(
        self,
        layer: str,
        original: Callable,
        on_result: Optional[Callable[[Ledger, Any], None]],
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def span(*args, **kwargs):
            ledger = tracer.ledger
            ledger.enter()
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ledger.leave(layer, time.perf_counter() - started)
            if on_result is not None:
                on_result(ledger, result)
            return result

        return span


def _count_revocations(ledger: Ledger, events) -> None:
    for event in events:
        ledger.revocations[event.kind] += 1
