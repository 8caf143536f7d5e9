"""Golden digests: the execution kernel's observable output, pinned.

Each *cell* below is one fixed, seeded run — a deployment, an optional
adversary, fault plan or tracer, and a few protocol executions.  Its
digest is a SHA-256 hash chain over everything the run makes
observable, in order:

1. every trace event (kind + fields), when the cell attaches a tracer;
2. the execution outcome sequence;
3. the estimates;
4. the revocation log (kind, target, reason, trigger per entry);
5. canonical ``Metrics.to_dict()``;

plus cell-specific extras (tree-formation levels, a scenario's metric
dict).  Every record is canonical JSON (sorted keys, no whitespace),
and each chain link is ``sha256(previous || record)``, so a change to
any single field, or to the order of events, changes the digest.

The digests in ``golden_digests.json`` were recorded from the
cache-disabled reference implementation and double as its oracle:
every cell runs on fixed seeds, so a pinned digest carries the exact
verdict a live reference comparison gave.  The ``pairwise-*`` and
``explicit-rings-*`` cells were recorded the same way from the
explicit-ring key store (per-sensor ring objects and the dict
revocation backend) that the pairwise scheme used before every key
scheme moved onto the ring table.

Re-record (only when an output change is intended, and say so in the
change log)::

    PYTHONPATH=src python -m tests.golden_digests --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

_CHAIN_SEED = hashlib.sha256(b"vmat-golden-digest-v1").digest()


def _canonical(value: Any) -> Any:
    """JSON-safe canonical form: mappings get string keys, floats are
    pinned by their IEEE-754 hex so no rounding can hide a change."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex() if math.isfinite(value) else repr(value)
    if isinstance(value, bytes):
        return value.hex()
    if hasattr(value, "value") and hasattr(type(value), "__members__"):  # Enum
        return _canonical(value.value)
    raise TypeError(f"no canonical form for {type(value).__name__}: {value!r}")


class DigestChain:
    """Append-only SHA-256 hash chain over canonical JSON records."""

    def __init__(self) -> None:
        self._head = _CHAIN_SEED
        self.records = 0

    def add(self, tag: str, value: Any) -> None:
        record = json.dumps(
            [tag, _canonical(value)], sort_keys=True, separators=(",", ":")
        ).encode()
        self._head = hashlib.sha256(self._head + record).digest()
        self.records += 1

    def hexdigest(self) -> str:
        return self._head.hex()


def _revocation_log(network) -> List[Tuple[Any, ...]]:
    return [
        (event.kind, event.target, event.reason, event.triggered_by_key)
        for event in network.registry.revocation.log
    ]


def run_digest(
    network,
    results: Iterable[Any],
    tracer=None,
    extras: Optional[Dict[str, Any]] = None,
) -> str:
    """Chain one finished run: trace, outcomes, estimates, revocations,
    metrics, then ``extras`` in key order."""
    results = list(results)
    chain = DigestChain()
    if tracer is not None:
        for event in tracer:
            chain.add("trace", [event.kind, event.fields])
    chain.add("outcomes", [r.outcome.value for r in results])
    chain.add("estimates", [r.estimate for r in results])
    chain.add("revocations", _revocation_log(network))
    chain.add("metrics", network.metrics.to_dict())
    for key in sorted(extras or {}):
        chain.add(key, extras[key])
    return chain.hexdigest()


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
_SCALE_SEED = 2011  # repro.perf.scale's fixed seed


def _scale_honest(kind: str, nodes: int) -> str:
    """``repro.perf.scale.reference_equality``'s leg: multipath,
    paper-scale rings, two honest MinQuery executions."""
    from repro import MinQuery, VMATProtocol
    from repro.perf.scale import _build_deployment

    deployment = _build_deployment(kind, nodes, _SCALE_SEED)
    network = deployment.network
    protocol = VMATProtocol(network)
    readings = {i: 10.0 + (i % 9) for i in deployment.topology.sensor_ids}
    results = [protocol.execute(MinQuery(), readings) for _ in range(2)]
    return run_digest(network, results)


def _scale_attacked(strategy: str) -> str:
    """``repro.perf.scale.attacked_reference_equality``'s grid-100 leg."""
    from repro import MinQuery, VMATProtocol
    from repro.adversary import Adversary, make_strategy
    from repro.perf.scale import _build_deployment

    nodes = 100
    malicious = {max(1, nodes // 3), max(2, nodes // 2)}
    deployment = _build_deployment("grid", nodes, _SCALE_SEED, malicious_ids=malicious)
    network = deployment.network
    adversary = Adversary(network, make_strategy(strategy), seed=_SCALE_SEED)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 10.0 + (i % 9) for i in deployment.topology.sensor_ids}
    results = [protocol.execute(MinQuery(), readings) for _ in range(2)]
    return run_digest(network, results)


def _single_path_line() -> str:
    """Non-multipath line, default key config: single-parent tree."""
    from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
    from repro.topology.generators import line_topology

    deployment = build_deployment(
        config=small_test_config(depth_bound=40), topology=line_topology(30), seed=9
    )
    network = deployment.network
    readings = {i: 5.0 + i for i in deployment.topology.sensor_ids}
    results = [VMATProtocol(network).execute(MinQuery(), readings)]
    return run_digest(network, results)


def _attacked_line() -> str:
    """A drop-minimum sensor on a 10-node line, two executions."""
    from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
    from repro.adversary import Adversary, make_strategy
    from repro.topology.generators import line_topology

    deployment = build_deployment(
        config=small_test_config(depth_bound=12),
        topology=line_topology(10),
        malicious_ids={4},
        seed=13,
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy("drop-minimum"), seed=13)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 100.0 + i for i in deployment.topology.sensor_ids}
    readings[7] = 1.0
    results = [protocol.execute(MinQuery(), readings) for _ in range(2)]
    return run_digest(network, results)


def _zoo(strategy: str, traced: bool, topo: str) -> str:
    """Zoo strategy x tracer x line/grid, two colluders, two executions."""
    from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
    from repro.adversary import Adversary, make_strategy
    from repro.topology.generators import grid_topology, line_topology
    from repro.tracing import Tracer

    topology = line_topology(10) if topo == "line" else grid_topology(4, 4)
    deployment = build_deployment(
        config=small_test_config(depth_bound=20),
        topology=topology,
        malicious_ids={3, 5},
        seed=17,
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy(strategy), seed=17)
    tracer = Tracer.attach(network) if traced else None
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 50.0 + i for i in deployment.topology.sensor_ids}
    results = [protocol.execute(MinQuery(), readings) for _ in range(2)]
    return run_digest(network, results, tracer=tracer)


def _matrix(strategy: str) -> str:
    """``tests/test_full_stack_matrix.py``'s grid x MIN cell."""
    from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
    from repro.adversary import (
        Adversary,
        DropMinimumStrategy,
        JunkMinimumStrategy,
        PassiveStrategy,
        SpuriousVetoStrategy,
    )
    from repro.topology import grid_topology

    make = {
        "passive": lambda: PassiveStrategy(),
        "drop": lambda: DropMinimumStrategy(predtest="deny"),
        "junk": lambda: JunkMinimumStrategy(),
        "spurious-veto": lambda: SpuriousVetoStrategy(),
    }[strategy]
    topology = grid_topology(4, 4)
    deployment = build_deployment(
        config=small_test_config(depth_bound=10),
        topology=topology,
        malicious_ids={6},
        seed=31,
    )
    network = deployment.network
    adversary = Adversary(network, make(), seed=31)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: float(30 + (i * 13) % 60) for i in topology.sensor_ids}
    results = [protocol.execute(MinQuery(), readings)]
    return run_digest(network, results)


def _e2e_chaos() -> str:
    """``repro bench``'s e2e ``chaos`` cell: a mixed fault plan on a
    16-node grid, two executions (scenario metrics at the bench seed)."""
    from repro.campaign.registry import get_scenario
    from repro.perf.bench import _E2E_SEED, E2E_CELLS

    import repro.campaign.scenarios  # noqa: F401  (registers the scenarios)

    params = dict(E2E_CELLS)["chaos"]
    chain = DigestChain()
    chain.add("chaos", get_scenario("chaos").run(dict(params), _E2E_SEED))
    return chain.hexdigest()


def _tree(variant: str, wormhole: Optional[Tuple[int, int]], multipath: bool) -> str:
    """One traced tree-formation phase on a 5x5 grid (L = 10), as in
    ``benchmarks/bench_ablation_tree.py``; ``wormhole`` is the
    (entry, exit) pair tunnelling beacons with hop count +25."""
    from dataclasses import replace

    from repro import build_deployment, small_test_config
    from repro.adversary import Adversary, WormholeStrategy
    from repro.core.tree import form_tree
    from repro.topology import grid_topology
    from repro.tracing import Tracer

    depth = 10
    config = small_test_config(depth_bound=depth)
    config = replace(config, network=replace(config.network, multipath=multipath))
    entry, exit = wormhole if wormhole is not None else (None, None)
    seed = entry if entry is not None else 0
    deployment = build_deployment(
        config=config,
        topology=grid_topology(5, 5),
        malicious_ids=set(wormhole or ()),
        seed=seed,
    )
    network = deployment.network
    adversary = None
    if wormhole is not None:
        adversary = Adversary(
            network, WormholeStrategy(entry=entry, exit=exit, inflation=25), seed=seed
        )
    tracer = Tracer.attach(network)
    result = form_tree(network, adversary, depth, variant=variant)
    nodes = {
        node_id: [node.level, list(node.parents), node.forwarded_beacon]
        for node_id, node in sorted(network.nodes.items())
    }
    return run_digest(
        network,
        [],
        tracer=tracer,
        extras={
            "tree": {
                "levels": result.levels,
                "parents": result.parents,
                "invalid": result.invalid_level_sensors,
            },
            "nodes": nodes,
        },
    )


def _pairwise_honest() -> str:
    """One honest MIN query on a 15-node pairwise-key deployment, as in
    ``tests/test_pairwise_scheme.py``."""
    from repro import MinQuery, VMATProtocol, build_deployment

    deployment = build_deployment(num_nodes=15, seed=4, key_scheme="pairwise")
    network = deployment.network
    readings = {i: 40.0 + i for i in deployment.topology.sensor_ids}
    readings[9] = 2.0
    results = [VMATProtocol(network).execute(MinQuery(), readings)]
    return run_digest(network, results)


def _pairwise_attacked() -> str:
    """``tests/test_pairwise_scheme.py``'s attacked line: 8 pairwise-key
    nodes, sensor 3 drops the minimum and denies predicate tests; θ = 2,
    traced executions until one produces a result (at most 30)."""
    from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
    from repro.adversary import Adversary, DropMinimumStrategy
    from repro.topology import line_topology
    from repro.tracing import Tracer

    deployment = build_deployment(
        config=small_test_config(depth_bound=12),
        topology=line_topology(8),
        malicious_ids={3},
        seed=4,
        key_scheme="pairwise",
    )
    network = deployment.network
    deployment.registry.revocation.theta = 2
    adversary = Adversary(network, DropMinimumStrategy(predtest="deny"), seed=4)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 40.0 + i for i in deployment.topology.sensor_ids}
    readings[7] = 1.0
    results = []
    for _ in range(30):
        results.append(protocol.execute(MinQuery(), readings))
        if results[-1].produced_result:
            break
    return run_digest(network, results, tracer=tracer)


_EXPLICIT_NODES = 10


def _explicit_rings_revocation(cascade: bool) -> str:
    """A registry over explicit rings (``ring_indices_factory``, fixed
    seed-derived rows: pool 60, ring 12, 9 sensors, θ = 3) driven by a
    fixed script of key and sensor revocations, idempotent repeats
    included.  Chains each call's events, then the log, the revoked
    sets, per-sensor revoked/exposed counts, pending sensors, the holders
    of every pool index and every pair's edge key."""
    from repro.config import KeyConfig, RevocationConfig
    from repro.keys.registry import KeyRegistry
    from repro.keys.ring import ring_indices_from_seed, ring_seed

    config = KeyConfig(pool_size=60, ring_size=12)
    rows = {
        sensor: ring_indices_from_seed(
            ring_seed(b"revocation-parity", sensor, cache=False), config, cache=False
        )
        for sensor in range(1, _EXPLICIT_NODES)
    }
    registry = KeyRegistry(
        b"explicit-rings",
        _EXPLICIT_NODES,
        config,
        RevocationConfig(theta=3),
        cascade=cascade,
        ring_indices_factory=rows.__getitem__,
    )
    script = (
        [("key", index) for index in rows[1][:4]]
        + [("key", index) for index in rows[2][:2]]
        + [("sensor", 5), ("key", rows[1][0]), ("sensor", 5)]
        + [("key", index) for index in rows[7][-3:]]
    )
    chain = DigestChain()

    def events_of(events) -> List[Tuple[Any, ...]]:
        return [(e.kind, e.target, e.reason, e.triggered_by_key) for e in events]

    for kind, target in script:
        revoke = registry.revoke_key if kind == "key" else registry.revoke_sensor
        chain.add("events", [kind, target, events_of(revoke(target))])
    state = registry.revocation
    sensors = range(1, _EXPLICIT_NODES)
    chain.add("log", events_of(state.log))
    chain.add("revoked", [registry.revoked_keys, registry.revoked_sensors])
    chain.add(
        "counts",
        [[state.revoked_ring_count(s), state.exposed_ring_count(s)] for s in sensors],
    )
    chain.add("pending", state.threshold_pending())
    chain.add("holders", [registry.holders(i) for i in range(config.pool_size)])
    chain.add(
        "edge-keys",
        [
            registry.edge_key_index(a, b)
            for a in range(_EXPLICIT_NODES)
            for b in range(a + 1, _EXPLICIT_NODES)
        ],
    )
    return chain.hexdigest()


def _cells() -> Dict[str, Callable[[], str]]:
    cells: Dict[str, Callable[[], str]] = {}
    for kind, nodes in (("grid", 100), ("line", 100), ("grid", 400)):
        cells[f"scale-{kind}-{nodes}"] = lambda k=kind, n=nodes: _scale_honest(k, n)
    for strategy in ("relay-drop", "cover-accomplice"):
        cells[f"scale-attacked-grid-100-{strategy}"] = lambda s=strategy: _scale_attacked(s)
    cells["single-path-line-30"] = _single_path_line
    cells["attacked-line-10-drop-minimum"] = _attacked_line
    for strategy in ("relay-drop", "cover-accomplice"):
        for traced in (False, True):
            for topo in ("line", "grid"):
                name = f"zoo-{strategy}-{'traced' if traced else 'untraced'}-{topo}"
                cells[name] = lambda s=strategy, t=traced, g=topo: _zoo(s, t, g)
    for strategy in ("drop", "junk", "passive", "spurious-veto"):
        cells[f"matrix-grid-min-{strategy}"] = lambda s=strategy: _matrix(s)
    cells["e2e-chaos"] = _e2e_chaos
    for variant in ("timestamp", "hopcount"):
        cells[f"tree-{variant}-honest"] = lambda v=variant: _tree(v, None, False)
        for entry, exit in ((1, 18), (5, 23), (6, 19)):
            for multipath in (False, True):
                shape = "-multipath" if multipath else ""
                cells[f"tree-{variant}{shape}-wormhole-{entry}-{exit}"] = (
                    lambda v=variant, w=(entry, exit), m=multipath: _tree(v, w, m)
                )
    cells["pairwise-honest"] = _pairwise_honest
    cells["pairwise-attacked"] = _pairwise_attacked
    for cascade in (False, True):
        name = f"explicit-rings-revocation-{'cascade' if cascade else 'nocascade'}"
        cells[name] = lambda c=cascade: _explicit_rings_revocation(c)
    return cells


CELLS = _cells()


def load_digests() -> Dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


def compute(cell: str) -> str:
    """Digest of one cell, run from cold caches."""
    from repro.perf.cache import clear_caches

    clear_caches()
    return CELLS[cell]()


def assert_pinned(cell: str) -> None:
    """Assert ``cell`` lands on its pinned digest with the perf caches
    warm and with every cache bypassed."""
    from repro.perf.cache import disabled

    pinned = load_digests()[cell]
    assert compute(cell) == pinned, f"{cell}: warm run diverges from its pinned digest"
    with disabled():
        assert compute(cell) == pinned, (
            f"{cell}: cache-bypassed run diverges from its pinned digest"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {DIGEST_FILE.name}"
    )
    args = parser.parse_args(argv)
    names = sorted(CELLS)
    digests = {name: compute(name) for name in names}
    if args.record:
        DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} digests to {DIGEST_FILE}")
        return 0
    pinned = load_digests()
    mismatched = [name for name in names if pinned.get(name) != digests[name]]
    for name in names:
        print(f"{'ok  ' if name not in mismatched else 'DIFF'} {name} {digests[name]}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
