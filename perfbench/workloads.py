"""The benchmark's workloads: fixed deployments, seeded inputs, checked outputs.

Each workload fixes its topology, key configuration and adversary.  The
seed generates only what a query consumes: the sensor readings and the
base station's nonce secret.  Every operation's output is checked
against an oracle computed outside the protocol, and summarised as a
digest of ``Metrics.to_dict()``, the outcome sequence, the estimates and
the revoked keys and sensors.

``honest-grid-10k`` and ``count-synopses-1k`` answer back-to-back
queries on one warm deployment.  ``attacked-session-144`` builds a fresh
deployment from cleared caches for every operation and runs one
``run_session`` to a result on it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Sequence

import repro
from repro import (
    CountQuery,
    ExecutionOutcome,
    ExperimentConfig,
    MinQuery,
    VMATProtocol,
    build_deployment,
    small_test_config,
)
from repro.adversary import Adversary, make_strategy
from repro.config import RevocationConfig
from repro.core.synopses import _SYNOPSIS_DOMAIN, ABSENT
from repro.crypto.nonce import NonceSource
from repro.crypto.prf import prf_uniform
from repro.topology.generators import recommended_radius

#: Readings are integers in [1, READING_MAX], as in the paper's domain.
READING_MAX = 10_000

#: Master-secret seed shared by every deployment: the key material is
#: part of the fixed deployment, not of the seeded inputs.
DEPLOYMENT_SEED = 2011

#: Placement seed of the fixed random geometric deployment.
PLACEMENT_SEED = 7


class OpFailure(Exception):
    """An operation finished but its output failed the oracle."""


@dataclass
class OpRecord:
    """What one operation produced, for timing and checking."""

    wall_s: float
    executions: int
    radio_bytes: int
    flooding_rounds: float
    frames: int
    digest: str


def readings_for(workload: str, seed: int, sensor_ids: Sequence[int]) -> Dict[int, float]:
    """The seeded readings of one workload: the same seed, the same readings.

    A field of integer readings around the middle of the domain, so the
    minimum is rarely shared and moves with the seed.
    """
    rng = random.Random(f"perfbench:{workload}:readings:{seed}")
    centre, spread = READING_MAX // 2, READING_MAX // 10
    return {
        i: float(min(READING_MAX, max(1, round(rng.gauss(centre, spread)))))
        for i in sensor_ids
    }


def nonce_secret_for(workload: str, seed: int) -> bytes:
    """The seeded secret of the base station's nonce source."""
    return f"perfbench:{workload}:nonce:{seed}".encode()


def digest_of(network, executions: Sequence, revoked_keys, revoked_sensors) -> str:
    """SHA-256 over the canonical JSON of one operation's observable output."""
    doc = {
        "metrics": network.metrics.to_dict(),
        "outcomes": [e.outcome.value for e in executions],
        "estimates": [e.estimate for e in executions],
        "revoked_keys": sorted(revoked_keys),
        "revoked_sensors": sorted(revoked_sensors),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def above_half(reading: float) -> bool:
    """The COUNT predicate: readings in the upper half of the domain."""
    return reading > READING_MAX // 2


def _grid_config(rows: int, cols: int) -> ExperimentConfig:
    # The ``bench scale`` deployment: paper-scale rings (r = 250) over a
    # pool of 16,384 keys, multipath rings (Section IV-D), L = grid depth.
    config = small_test_config(
        depth_bound=rows + cols - 2, pool_size=16_384, ring_size=250
    )
    return replace(config, network=replace(config.network, multipath=True))


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def check_min(query, readings, result, nonce: bytes) -> None:
    if result.outcome is not ExecutionOutcome.RESULT:
        raise OpFailure(f"honest execution ended {result.outcome.value}")
    truth = min(readings.values())
    if result.estimate != truth:
        raise OpFailure(f"MIN estimate {result.estimate} != true minimum {truth}")


def check_count(query, readings, result, nonce: bytes) -> None:
    """Recompute every instance's minimum synopsis from the PRF directly.

    ``CountQuery`` sends ``e_i / 1`` with ``e_i = -ln(prf_uniform(...))``
    for each qualifying sensor; the base station must hold exactly the
    per-instance minimum over all of them.  The draws are made here
    without the synopsis-draw cache, so a cache fault cannot agree with
    itself.
    """
    if result.outcome is not ExecutionOutcome.RESULT:
        raise OpFailure(f"honest execution ended {result.outcome.value}")
    expected = [ABSENT] * query.num_instances
    for sensor_id, reading in readings.items():
        if not query.predicate(reading):
            continue
        for instance in range(query.num_instances):
            value = -math.log(prf_uniform(_SYNOPSIS_DOMAIN, nonce, sensor_id, instance))
            if value < expected[instance]:
                expected[instance] = value
    if result.minima != expected:
        wrong = sum(1 for a, b in zip(result.minima, expected) if a != b)
        raise OpFailure(f"COUNT minima differ from the oracle on {wrong} instances")
    if result.estimate != query.estimate(expected):
        raise OpFailure(f"COUNT estimate {result.estimate} != oracle estimate")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HonestWorkload:
    """Back-to-back honest queries on one warm deployment."""

    name: str
    make_topology: Callable[[], "repro.Topology"]
    config: ExperimentConfig
    query: object
    check: Callable
    #: Timed builds per session (``setup_s`` samples); the last is used.
    builds_per_session: int = 1
    warm_ops_per_session = 2

    def build(self):
        return build_deployment(
            config=self.config, topology=self.make_topology(), seed=DEPLOYMENT_SEED
        )

    def session(self, deployment, seed: int) -> "HonestSession":
        return HonestSession(self, deployment, seed)


class HonestSession:
    """One client issuing queries against a built deployment."""

    def __init__(self, workload: HonestWorkload, deployment, seed: int) -> None:
        self.workload = workload
        self.network = deployment.network
        secret = nonce_secret_for(workload.name, seed)
        self.protocol = VMATProtocol(self.network, nonce_seed=secret)
        # Lockstep replica of the protocol's nonce source, for the oracle:
        # one honest execution draws exactly one nonce.
        self._nonces = NonceSource(secret)
        self.readings = readings_for(
            workload.name, seed, deployment.topology.sensor_ids
        )

    def operate(self) -> OpRecord:
        metrics = self.network.metrics
        bytes_before = metrics.total_bytes()
        frames_before = metrics.total_messages()
        started = time.perf_counter()
        result = self.protocol.execute(self.workload.query, self.readings)
        wall = time.perf_counter() - started
        self.workload.check(
            self.workload.query, self.readings, result, self._nonces.next()
        )
        registry = self.network.registry
        return OpRecord(
            wall_s=wall,
            executions=1,
            radio_bytes=metrics.total_bytes() - bytes_before,
            flooding_rounds=result.flooding_rounds,
            frames=metrics.total_messages() - frames_before,
            digest=digest_of(
                self.network, [result], registry.revoked_keys, registry.revoked_sensors
            ),
        )


@dataclass(frozen=True)
class AttackedWorkload:
    """One ``run_session`` to a result per operation, on a fresh deployment."""

    name: str
    rows: int
    cols: int
    config: ExperimentConfig
    malicious_ids: frozenset
    strategy: str
    predtest: str
    builds_per_session = 5
    warm_ops_per_session = 0

    def build(self):
        return build_deployment(
            config=self.config,
            topology=repro.grid_topology(self.rows, self.cols),
            seed=DEPLOYMENT_SEED,
            malicious_ids=self.malicious_ids,
        )

    def session(self, deployment, seed: int) -> "AttackedSession":
        return AttackedSession(self, deployment, seed)


class AttackedSession:
    """One compromised deployment, run to a result once."""

    def __init__(self, workload: AttackedWorkload, deployment, seed: int) -> None:
        self.workload = workload
        self.network = deployment.network
        adversary = Adversary(
            self.network,
            make_strategy(workload.strategy, predtest=workload.predtest),
            seed=DEPLOYMENT_SEED,
        )
        self.protocol = VMATProtocol(
            self.network,
            adversary=adversary,
            nonce_seed=nonce_secret_for(workload.name, seed),
        )
        self.readings = readings_for(
            workload.name, seed, deployment.topology.sensor_ids
        )

    def operate(self) -> OpRecord:
        started = time.perf_counter()
        session = self.protocol.run_session(MinQuery(), self.readings)
        wall = time.perf_counter() - started
        registry = self.network.registry
        malicious = self.workload.malicious_ids
        final = session.executions[-1]
        if final.outcome is not ExecutionOutcome.RESULT:
            raise OpFailure(f"session ended {final.outcome.value}")
        truth = min(v for i, v in self.readings.items() if i not in malicious)
        if session.final_estimate != truth:
            raise OpFailure(
                f"session estimate {session.final_estimate} != honest minimum {truth}"
            )
        honest_revoked = set(registry.revoked_sensors) - malicious
        if honest_revoked:
            raise OpFailure(f"honest sensors revoked: {sorted(honest_revoked)}")
        metrics = self.network.metrics
        return OpRecord(
            wall_s=wall,
            executions=len(session.executions),
            radio_bytes=metrics.total_bytes(),
            flooding_rounds=sum(e.flooding_rounds for e in session.executions),
            frames=metrics.total_messages(),
            digest=digest_of(
                self.network,
                session.executions,
                registry.revoked_keys,
                registry.revoked_sensors,
            ),
        )


def _geometric_1k():
    return repro.random_geometric_topology(
        1_000, recommended_radius(1_000), seed=PLACEMENT_SEED
    )


def _geometric_config() -> ExperimentConfig:
    # L must bound the honest depth: 30 hops clears the fixed placement's
    # BFS depth (12 hops from the centred base station) with margin.
    return small_test_config(
        depth_bound=30, pool_size=16_384, ring_size=250, num_synopses=100
    )


def _attacked_config() -> ExperimentConfig:
    config = small_test_config(depth_bound=22, pool_size=2_000, ring_size=60)
    return replace(config, revocation=RevocationConfig(theta=10))


#: The benchmark's workloads; BENCHMARK.json gates the grid and attacked
#: ones, in this order.  README.md says why each was chosen, which layers
#: it should move, and why ``count-synopses-1k`` is not gated.
WORKLOADS = {
    w.name: w
    for w in (
        HonestWorkload(
            name="honest-grid-10k",
            make_topology=lambda: repro.grid_topology(100, 100),
            config=_grid_config(100, 100),
            query=MinQuery(),
            check=check_min,
        ),
        HonestWorkload(
            name="count-synopses-1k",
            make_topology=_geometric_1k,
            config=_geometric_config(),
            query=CountQuery(predicate=above_half, num_synopses=100),
            check=check_count,
            builds_per_session=3,
        ),
        AttackedWorkload(
            name="attacked-session-144",
            rows=12,
            cols=12,
            config=_attacked_config(),
            malicious_ids=frozenset({20, 120}),
            strategy="spurious-veto",
            predtest="deny",
        ),
    )
}
