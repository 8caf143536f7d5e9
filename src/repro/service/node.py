"""The node-host process: honest sensors as an asyncio service replica.

One host process owns a *shard* of the honest sensors (round-robin over
the spec) but holds a full deterministic replica of the deployment —
rebuilding topology, key rings and clocks from the spec means only
frames and control events ever cross the wire.

Execution model (driven by the coordinator's :class:`~repro.service.
runtime.ServiceRuntime` over the control channel, in lockstep with the
unmodified phase functions in :mod:`repro.core`):

* ``phase-begin`` — create the replica phase and run the phase's honest
  *setup* for hosted sensors (tree reset, aggregation slotting, initial
  vetoes, predicate-holder evaluation over the **local** audit stores).
* ``tick k`` — run the hosted sensors' sends for interval ``k`` through
  the real :meth:`PhaseContext.send` path (capacity, faults, metrics,
  edge HMACs), ship frames to peer hosts over TCP and report every frame
  up to the coordinator's mirror store.
* ``deliver k`` — ingest coordinator frames (base station + adversary),
  run the hosted sensors' acceptance logic — the same module-level
  functions the in-process simulator uses — and report state deltas
  (tree levels, veto adoptions) for the coordinator's mirror.

Frames are ordered by the ``(band, order, subseq)`` key (see
:mod:`repro.service.wire`), which reproduces the simulator's chronological
per-inbox deposit order exactly; everything downstream is byte-identical.

SIGTERM is trapped from before the host is built until the process
exits (see :class:`SigtermLatch`): the host flushes its metrics (to
``<metrics_dir>/host-<i>.metrics.json`` when configured) and exits 0, so
a supervisor teardown never loses accounting and never leaves orphans.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Dict, List, Optional, Tuple

from ..core.aggregation import _honest_collect, _honest_transmit
from ..core.confirmation import _adopt_first_veto, _make_veto, _transmit_veto
from ..core.predicate_test import decode_predicate, node_key, reply_mac_for
from ..core.protocol import sign_instance_values
from ..core.queries import MaxQuery, MinQuery
from ..core.tree import _accept_hopcount, _accept_timestamp
from ..crypto.hash import oneway_hash
from ..errors import ConfigError, ServiceError
from ..faults import FaultInjector
from ..faults.plan import FaultPlan, NodeCrash
from ..net.message import PredicateReply, TreeBeacon
from .resilience import (
    CHAOS_REFUSE_ENV,
    DEGRADE_HORIZON,
    ControlTimeouts,
    RetryPolicy,
    control_timeout,
)
from .spec import METRICS_DIR_ENV, ServiceSpec
from .wire import AsyncRecordStream, delivery_envelope, ingest_envelope


def _query_by_name(name: str):
    if name == "min":
        return MinQuery()
    if name == "max":
        return MaxQuery()
    raise ConfigError(
        f"query {name!r} is not reconstructible on node hosts; "
        f"service v1 supports: min, max"
    )


class ReplicaTransport:
    """Per-phase frame store on a node host.

    Locally-hosted receivers get the frame directly; remote-hosted
    receivers get it shipped over TCP; *every* frame is also reported up
    so the coordinator's mirror store (read by the base station and the
    adversary) stays complete.  Buckets sort on the shared envelope key,
    reproducing the simulator's chronological inbox order.
    """

    __slots__ = ("host", "phase", "_buckets", "_seq", "_ingested")

    def __init__(self, host: "NodeHost", phase) -> None:
        self.host = host
        self.phase = phase
        # interval -> receiver -> [(sort_key, delivery)]
        self._buckets: Dict[int, Dict[int, List[tuple]]] = {}
        self._seq = 0
        # Envelopes already ingested this phase.  A full envelope tuple is
        # globally unique (band-1 frames carry the sending host's monotone
        # per-phase sequence), so dropping exact repeats makes every
        # recovery path idempotent: a restarted host's catch-up re-ships
        # the same batches its dead incarnation may have partially
        # delivered, and receivers keep exactly one copy.
        self._ingested: set = set()

    def deposit(self, interval, receiver, delivery) -> None:
        host = self.host
        self._seq += 1
        key = (1, delivery.sender, self._seq)
        env = delivery_envelope(delivery, 1, delivery.sender, self._seq)
        host.up_outbox.append(env)
        if receiver in host.hosted_set:
            bucket = self._buckets.setdefault(interval, {}).setdefault(receiver, [])
            bucket.append((key, delivery))
            return
        peer = host.host_of.get(receiver)
        if peer is not None and peer != host.host_index:
            host.peer_outbox.setdefault(peer, []).append(env)
        # Base-station / malicious receivers live on the coordinator; the
        # up-report above is their delivery.

    def ingest(self, env) -> None:
        if env in self._ingested:
            return
        interval, receiver, key, delivery = ingest_envelope(self.phase, env)
        if receiver not in self.host.hosted_set:
            raise ServiceError(
                f"host {self.host.host_index} received a frame for "
                f"non-hosted sensor {receiver}"
            )
        self._ingested.add(env)
        bucket = self._buckets.setdefault(interval, {}).setdefault(receiver, [])
        bucket.append((key, delivery))

    def _sorted(self, pairs: List[tuple]) -> List[object]:
        pairs.sort(key=lambda pair: pair[0])
        return [delivery for _, delivery in pairs]

    def frames(self, interval: int, receiver: int) -> List[object]:
        pairs = self._buckets.get(interval, {}).get(receiver)
        return self._sorted(pairs) if pairs else []

    def arrivals(self, interval: int):
        per_receiver = self._buckets.get(interval)
        if not per_receiver:
            return {}
        return {r: self._sorted(pairs) for r, pairs in per_receiver.items()}


class NodeHost:
    """One node-host process: replica state + control/peer protocol."""

    def __init__(self, spec: ServiceSpec, host_index: int) -> None:
        spec.validate()
        self.spec = spec
        self.host_index = host_index
        self.hosted = sorted(spec.hosted_ids(host_index))
        self.hosted_set = frozenset(self.hosted)
        self.host_of = spec.host_of_map()

        deployment = spec.build_deployment()
        self.deployment = deployment
        self.network = deployment.network
        self.network.service_replica = True
        self.network.transport_factory = lambda phase: ReplicaTransport(self, phase)
        plan = spec.plan()
        if plan is not None:
            FaultInjector(plan, seed=spec.fault_seed).attach(self.network)

        self.phase = None
        self.transport: Optional[ReplicaTransport] = None
        self.up_outbox: List[tuple] = []
        self.peer_outbox: Dict[int, List[tuple]] = {}
        self.peer_ports: Tuple[int, ...] = ()
        self._peer_streams: Dict[int, AsyncRecordStream] = {}
        self._batch_counter: Dict[int, int] = {}  # retry-schedule identity
        self._ctx: Dict[str, object] = {}
        self._phase_kind: Optional[str] = None
        self.own_messages: Dict[int, list] = {}
        self._stopping = False
        self.timeouts = ControlTimeouts.from_spec(spec)
        self.retry = RetryPolicy.from_spec(spec)
        self._hb_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Wire accounting (merged into the coordinator's metrics at shutdown)
    # ------------------------------------------------------------------
    def _count_wire(self, nbytes: int, frames: int) -> None:
        self.network.metrics.record_wire(nbytes, frames)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    async def run(self, stop: "SigtermLatch") -> None:
        """Serve the coordinator until shutdown, SIGTERM or disconnect.

        ``stop`` is the process's installed :class:`SigtermLatch`
        (:func:`run_node_host` installs it before construction).
        """
        if stop.requested:  # terminated while the host was being built
            stop.disarm()
            self._flush_metrics()
            return
        spec = self.spec
        main_task = asyncio.current_task()
        stop.arm(asyncio.get_running_loop(), lambda: self._on_sigterm(main_task))
        server = control = None
        try:
            server = await asyncio.start_server(self._serve_peer, spec.host, 0)
            peer_port = server.sockets[0].getsockname()[1]
            reader, writer = await self._connect_control()
            control = AsyncRecordStream(reader, writer, on_wire=self._count_wire)
            await control.send("hello", self.host_index, peer_port)
            self._hb_task = asyncio.create_task(self._heartbeat(control))
            while True:
                try:
                    record = await control.recv()
                except (ConnectionError, OSError):
                    break  # coordinator gone (or chaos reset): exit cleanly
                if record is None or self._stopping:
                    break
                try:
                    reply = await self._dispatch(record)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # reported, not fatal to the wire
                    reply = ("error", f"{type(exc).__name__}: {exc}")
                try:
                    await control.send(*reply)
                except (ConnectionError, OSError):
                    break
                if record[0] == "shutdown":
                    break
        except asyncio.CancelledError:
            pass  # SIGTERM: fall through to the flush below
        finally:
            # The host is exiting either way now: a supervisor SIGTERM
            # racing this teardown must not turn a clean exit into -15.
            stop.disarm()
            if self._hb_task is not None:
                self._hb_task.cancel()
            self._flush_metrics()
            if control is not None:
                control.close()
            for stream in self._peer_streams.values():
                stream.close()
            if server is not None:
                server.close()
                await server.wait_closed()

    async def _heartbeat(self, control: AsyncRecordStream) -> None:
        """Periodic liveness keep-alive on the control channel.

        Heartbeats flow whenever the event loop is free — between
        dispatches and during retry sleeps — so the coordinator's
        detection window distinguishes "busy or waiting" (heartbeats
        arriving) from "hung or stopped" (total silence)."""
        try:
            while True:
                await asyncio.sleep(self.timeouts.heartbeat_interval)
                await control.send("hb")
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass  # channel gone or host exiting; the main loop owns that

    async def _connect_control(self):
        """Dial the coordinator, retrying while it is still coming up.

        In loopback runs the coordinator listens before spawning hosts,
        so the first attempt succeeds; under an external supervisor
        (compose) start order is arbitrary and hosts must wait.  The
        first ``retry_attempts`` tries follow the seed-derived backoff
        schedule (so induced failures produce identical retry traces);
        past the schedule the host keeps polling at ``retry_max_s`` until
        the control timeout expires.  The chaos harness injects
        connection refusals via ``REPRO_SERVICE_CHAOS_REFUSE``.
        """
        spec = self.spec
        refuse = int(os.environ.get(CHAOS_REFUSE_ENV, "0"))
        delays = self.retry.schedule("control-connect", self.host_index)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + control_timeout(spec)
        attempt = 0
        while True:
            try:
                if attempt < refuse:
                    raise ConnectionRefusedError("chaos: synthetic refusal")
                return await asyncio.open_connection(spec.host, spec.control_port)
            except OSError:
                self.network.metrics.record_host_event(
                    f"host-{self.host_index}.retry:control-connect"
                )
                if loop.time() >= deadline:
                    raise ServiceError(
                        f"coordinator at {spec.host}:{spec.control_port} "
                        "unreachable within the control timeout"
                    ) from None
                delay = delays[attempt] if attempt < len(delays) else self.retry.max_delay
                attempt += 1
                await asyncio.sleep(delay)

    def _on_sigterm(self, main_task) -> None:
        self._stopping = True
        main_task.cancel()

    def _flush_metrics(self) -> None:
        metrics_dir = self.spec.metrics_dir or os.environ.get(METRICS_DIR_ENV)
        if not metrics_dir:
            return
        try:
            os.makedirs(metrics_dir, exist_ok=True)
            path = os.path.join(metrics_dir, f"host-{self.host_index}.metrics.json")
            with open(path, "w") as handle:
                json.dump(self.network.metrics.to_dict(), handle, sort_keys=True)
                handle.write("\n")
        except OSError:
            pass  # a failed flush must not turn shutdown into a crash loop

    # ------------------------------------------------------------------
    # Peer frame server
    # ------------------------------------------------------------------
    async def _serve_peer(self, reader, writer) -> None:
        stream = AsyncRecordStream(reader, writer, on_wire=self._count_wire)
        try:
            while True:
                record = await stream.recv()
                if record is None:
                    break
                if record[0] != "frames":
                    raise ServiceError(f"unexpected peer record {record[0]!r}")
                transport = self.transport
                if transport is None:
                    raise ServiceError("peer frame outside any phase")
                for env in record[1]:
                    transport.ingest(env)
                await stream.send("ack")
        except asyncio.CancelledError:
            pass  # loop teardown on host exit; ending quietly is correct
        except (ConnectionError, OSError):
            pass  # peer died mid-stream (chaos/restart); it will redial
        finally:
            stream.close()

    async def _peer_stream(self, peer_index: int) -> AsyncRecordStream:
        stream = self._peer_streams.get(peer_index)
        if stream is None:
            reader, writer = await asyncio.open_connection(
                self.spec.host, self.peer_ports[peer_index]
            )
            stream = AsyncRecordStream(reader, writer, on_wire=self._count_wire)
            self._peer_streams[peer_index] = stream
        return stream

    def _drop_peer_stream(self, peer_index: int) -> None:
        stream = self._peer_streams.pop(peer_index, None)
        if stream is not None:
            stream.close()

    async def _ship_frames(self, peer_index: int, envelopes: tuple) -> bool:
        """Ship one frame batch to a peer host, with seeded retry.

        Each attempt is dial + send + bounded ack wait (a stopped peer
        accepts connections but never acks, so the wait must be bounded).
        After a failed attempt the cached stream is dropped — a late ack
        from it must not be mistaken for a later batch's.  A batch that
        exhausts its schedule is *dropped*, not fatal: every frame is
        also mirrored up to the coordinator, which re-delivers it to a
        restarted receiver during catch-up; a receiver that never
        restarts is on its way to degradation anyway.
        """
        dial_seq = self._batch_counter[peer_index] = (
            self._batch_counter.get(peer_index, 0) + 1
        )
        delays = (0.0,) + self.retry.schedule(
            "peer-send", self.host_index, peer_index, dial_seq
        )
        for attempt, delay in enumerate(delays):
            if delay:
                await asyncio.sleep(delay)
            if attempt:
                self.network.metrics.record_host_event(
                    f"host-{self.host_index}.retry:peer-send"
                )
            try:
                stream = await self._peer_stream(peer_index)
                await stream.send("frames", envelopes)
                ack = await asyncio.wait_for(
                    stream.recv(), timeout=self.spec.peer_ack_timeout_s
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                self._drop_peer_stream(peer_index)
                continue
            if ack is None:
                self._drop_peer_stream(peer_index)
                continue
            if ack[0] != "ack":
                raise ServiceError(f"peer {peer_index} sent {ack[0]!r}, not ack")
            return True
        self.network.metrics.record_host_event(
            f"host-{self.host_index}.peer-undeliverable"
        )
        return False

    async def _flush_peer_outbox(self) -> None:
        for peer_index, envelopes in sorted(self.peer_outbox.items()):
            if envelopes:
                await self._ship_frames(peer_index, tuple(envelopes))
        self.peer_outbox = {}

    # ------------------------------------------------------------------
    # Control dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, record) -> tuple:
        kind = record[0]
        if kind == "tick":
            return await self._handle_tick(record[1])
        if kind == "replay-tick":
            return self._handle_replay_tick(record[1], record[2])
        if kind == "catchup-tick":
            return await self._handle_catchup_tick(record[1], record[2])
        if kind == "deliver":
            return self._handle_deliver(record[1], record[2])
        if kind == "degrade":
            return self._handle_degrade(record[1], record[2])
        if kind == "phase-begin":
            return self._handle_phase_begin(record)
        if kind == "phase-end":
            self.phase = None
            self.transport = None
            self._phase_kind = None
            self._ctx = {}
            return ("ok",)
        if kind == "broadcast":
            self.network.authenticated_flood(*record[1])
            return ("ok",)
        if kind == "execution-starting":
            for node in self.network.nodes.values():
                node.crash_suspected = False
            return ("ok",)
        if kind == "begin-execution":
            return self._handle_begin_execution(*record[1:])
        if kind == "revoke":
            _, what, target, reason = record
            if what == "key":
                self.network.registry.revoke_key(target, reason=reason)
            elif what == "sensor":
                self.network.registry.revoke_sensor(target, reason=reason)
            else:
                raise ServiceError(f"unknown revocation kind {what!r}")
            return ("ok",)
        if kind == "peers":
            # Port table refresh.  A restarted peer listens on a fresh
            # ephemeral port, so cached streams are stale: drop them and
            # re-dial lazily on the next ship.
            self.peer_ports = tuple(record[1])
            for stream in self._peer_streams.values():
                stream.close()
            self._peer_streams = {}
            return ("ok",)
        if kind == "shutdown":
            return ("metrics", json.dumps(self.network.metrics.to_dict()))
        raise ServiceError(f"unknown control record {kind!r}")

    # ------------------------------------------------------------------
    # Execution boundary
    # ------------------------------------------------------------------
    def _handle_begin_execution(
        self, reading_pairs, query_name, num_instances, nonce
    ) -> tuple:
        network = self.network
        readings = {int(node_id): float(value) for node_id, value in reading_pairs}
        query = _query_by_name(query_name)
        if query.num_instances != num_instances:
            raise ServiceError(
                f"query {query_name!r} instance mismatch: "
                f"{query.num_instances} != {num_instances}"
            )
        revoked = network.registry.revoked_sensors
        self.own_messages = {}
        # The full honest install loop (not just the hosted shard): the
        # coordinator's execute() installs state on every honest node, and
        # mirror-equality is simplest to audit when replicas do the same.
        for node_id in [i for i in network.nodes if i not in revoked]:
            node = network.nodes[node_id]
            node.begin_execution(reading=readings.get(node_id, 0.0))
            values = query.instance_values(node_id, node.reading, nonce)
            node.query_values = values
            self.own_messages[node_id] = sign_instance_values(
                network.registry, node_id, values, nonce
            )
        return ("ok",)

    # ------------------------------------------------------------------
    # Phase setup
    # ------------------------------------------------------------------
    def _handle_phase_begin(self, record) -> tuple:
        network = self.network
        kind, num_intervals = record[1], record[2]
        self.phase = network.new_phase(kind, num_intervals)
        self.transport = self.phase.transport
        self._phase_kind = kind
        revoked = network.registry.revoked_sensors
        hosted_honest = [i for i in self.hosted if i not in revoked]
        ctx: Dict[str, object] = {
            "hosted_honest": hosted_honest,
            "hosted_honest_set": set(hosted_honest),
            "L": num_intervals,
        }
        self._ctx = ctx
        report: tuple = ()

        if kind == "tree":
            _, _, _, depth_bound, variant = record
            for node in network.nodes.values():
                node.level = None
                node.parents = []
                node.forwarded_beacon = False
            ctx.update(
                depth_bound=depth_bound,
                variant=variant,
                multipath=network.config.network.multipath,
                pending_forward={},
            )
        elif kind == "aggregation":
            _, _, _, nonce, num_instances = record
            L = num_intervals
            participants = [
                i for i in hosted_honest if network.nodes[i].has_valid_level(L)
            ]
            send_slot: Dict[int, List[int]] = {}
            listen_slot: Dict[int, List[int]] = {}
            best: Dict[int, list] = {}
            for node_id in participants:
                level = network.nodes[node_id].level
                send_slot.setdefault(L - level + 1, []).append(node_id)
                if level <= L - 1:
                    listen_slot.setdefault(L - level, []).append(node_id)
                messages = self.own_messages.get(node_id)
                if messages is None or len(messages) != num_instances:
                    raise ServiceError(
                        f"hosted sensor {node_id} is missing its own messages"
                    )
                best[node_id] = list(messages)
            ctx.update(
                nonce=nonce,
                num_instances=num_instances,
                send_slot=send_slot,
                listen_slot=listen_slot,
                best=best,
            )
        elif kind == "confirmation":
            _, _, _, nonce, minima = record
            pending: Dict[int, object] = {}
            vetoers: List[int] = []
            for node_id in hosted_honest:
                node = network.nodes[node_id]
                veto = _make_veto(node, minima, nonce, num_intervals)
                if veto is not None:
                    pending[node_id] = veto
                    vetoers.append(node_id)
                    node.forwarded_veto = True
            ctx.update(nonce=nonce, minima=minima, pending=pending)
            report = tuple(vetoers)
        elif kind == "predicate-reply":
            _, _, _, ref_kind, ref_ident, predicate_bytes, nonce, reply_hash = record
            key_ref = (ref_kind, ref_ident)
            predicate = decode_predicate(predicate_bytes)
            if ref_kind == "sensor":
                holder_ids = [ref_ident]
            elif ref_kind == "pool":
                holder_ids = list(network.registry.holders(ref_ident))
            else:
                raise ServiceError(f"unknown key reference kind {ref_kind!r}")
            pending = {}
            for holder in holder_ids:
                if holder not in ctx["hosted_honest_set"]:
                    continue
                node = network.nodes.get(holder)
                if node is None:
                    continue
                if predicate.evaluate(node, num_intervals):
                    pending[holder] = PredicateReply(
                        mac=reply_mac_for(node_key(network, key_ref, node), nonce)
                    )
            ctx.update(
                reply_hash=reply_hash,
                pending=pending,
                relayed=set(pending),
            )
        else:
            raise ServiceError(f"unknown phase kind {kind!r}")
        return ("phase-begun", report)

    # ------------------------------------------------------------------
    # tick: hosted sends for interval k
    # ------------------------------------------------------------------
    async def _handle_tick(self, k: int) -> tuple:
        phase = self.phase
        if phase is None:
            raise ServiceError("tick outside any phase")
        phase.begin_interval(k)
        self._exec_tick(k)
        await self._flush_peer_outbox()
        up = tuple(self.up_outbox)
        self.up_outbox = []
        return ("tick-done", up)

    def _handle_replay_tick(self, k: int, foreign) -> tuple:
        """Re-execute an already-completed tick during journal replay.

        The hosted sends are recomputed (rebuilding local buckets,
        sequence counters, metrics and per-phase context exactly), but
        nothing leaves the process: the coordinator's mirror already has
        the up-frames and the peers already received their batches.
        ``foreign`` re-delivers the frames other hosts shipped to this
        one for interval ``k``.
        """
        phase = self.phase
        if phase is None:
            raise ServiceError("replay-tick outside any phase")
        phase.begin_interval(k)
        self._exec_tick(k)
        self.peer_outbox = {}
        self.up_outbox = []
        transport = self.transport
        assert transport is not None
        for env in foreign:
            transport.ingest(env)
        return ("ok",)

    async def _handle_catchup_tick(self, k: int, foreign) -> tuple:
        """Execute the in-flight tick live after a restart.

        Like a normal tick — peer batches *are* shipped, because the
        dead incarnation may have died before delivering them (receivers
        drop exact repeats, so partial prior delivery is harmless) — but
        the frames other hosts already reported for this interval arrive
        as ``foreign`` instead of over peer sockets.
        """
        phase = self.phase
        if phase is None:
            raise ServiceError("catchup-tick outside any phase")
        phase.begin_interval(k)
        self._exec_tick(k)
        await self._flush_peer_outbox()
        transport = self.transport
        assert transport is not None
        for env in foreign:
            transport.ingest(env)
        up = tuple(self.up_outbox)
        self.up_outbox = []
        return ("tick-done", up)

    def _handle_degrade(self, now: int, crashed_ids) -> tuple:
        """Map a dead host's sensors onto synthesized crash faults.

        Mirrors what the coordinator did locally: from global interval
        ``now`` (the coordinator's clock — replicas track their own copy
        but the record carries the authoritative value) the dead host's
        sensors are benign-crashed to the horizon, and the presence of a
        fault injector flips pinpointing into benign mode everywhere.
        """
        events = tuple(
            NodeCrash(start=max(1, int(now)), end=DEGRADE_HORIZON, node=int(s))
            for s in crashed_ids
        )
        injector = self.network.fault_injector
        if injector is None:
            injector = FaultInjector(
                FaultPlan(name="host-degradation", events=events),
                seed=self.spec.fault_seed,
            ).attach(self.network)
        else:
            injector.extend_events(events)
        injector.advance_to(int(now))
        return ("ok",)

    def _exec_tick(self, k: int) -> None:
        network, phase, ctx = self.network, self.phase, self._ctx
        kind = self._phase_kind
        if kind == "tree":
            pending_forward = ctx["pending_forward"]
            for node_id, beacon in list(pending_forward.items()):
                neighbors = network.secure_neighbors(node_id)
                phase.send(node_id, neighbors, beacon, interval=k)
                del pending_forward[node_id]
        elif kind == "aggregation":
            for node_id in sorted(ctx["send_slot"].get(k, ())):
                _honest_transmit(network, phase, node_id, ctx["best"][node_id], k)
        elif kind == "confirmation":
            pending = ctx["pending"]
            for node_id, veto in sorted(pending.items()):
                _transmit_veto(network, phase, node_id, veto, k)
            pending.clear()
        elif kind == "predicate-reply":
            pending = ctx["pending"]
            for node_id, reply in sorted(pending.items()):
                neighbors = network.secure_neighbors(node_id)
                if neighbors:
                    phase.send(node_id, neighbors, reply, interval=k)
            pending.clear()

    # ------------------------------------------------------------------
    # deliver: coordinator frames + hosted acceptance for interval k
    # ------------------------------------------------------------------
    def _handle_deliver(self, k: int, envelopes) -> tuple:
        transport = self.transport
        if transport is None:
            raise ServiceError("deliver outside any phase")
        for env in envelopes:
            transport.ingest(env)
        return ("deliver-done", self._exec_deliver(k))

    def _exec_deliver(self, k: int) -> tuple:
        network, phase, ctx = self.network, self.phase, self._ctx
        kind = self._phase_kind
        hosted_honest_set = ctx["hosted_honest_set"]

        if kind == "tree":
            report = []
            arrived = phase.arrival_map(k)
            pending_forward = ctx["pending_forward"]
            for node_id in sorted(arrived) if arrived else ():
                if node_id not in hosted_honest_set:
                    continue
                node = network.nodes[node_id]
                arrivals = phase.verified_inbox(node_id, k)
                beacons = [d for d in arrivals if isinstance(d.payload, TreeBeacon)]
                if not beacons:
                    continue
                if ctx["variant"] == "timestamp":
                    _accept_timestamp(
                        node, beacons, k, ctx["depth_bound"], ctx["multipath"],
                        pending_forward,
                    )
                else:
                    _accept_hopcount(
                        node, beacons, ctx["depth_bound"], ctx["multipath"],
                        pending_forward,
                    )
                if node.level is not None:
                    report.append((node_id, node.level, tuple(node.parents)))
            return tuple(report)

        if kind == "aggregation":
            for node_id in ctx["listen_slot"].get(k, ()):
                node = network.nodes[node_id]
                _honest_collect(
                    network, phase, node, ctx["best"][node_id], k,
                    ctx["num_instances"],
                )
            return ()

        if kind == "confirmation":
            adopted_ids = []
            if k < ctx["L"]:
                arrived = phase.arrival_map(k)
                pending = ctx["pending"]
                for node_id in sorted(arrived) if arrived else ():
                    if node_id not in hosted_honest_set:
                        continue
                    node = network.nodes[node_id]
                    if node.forwarded_veto:
                        continue
                    adopted = _adopt_first_veto(network, phase, node, k)
                    if adopted is not None:
                        pending[node_id] = adopted
                        adopted_ids.append(node_id)
            return tuple(adopted_ids)

        if kind == "predicate-reply":
            pending = ctx["pending"]
            relayed = ctx["relayed"]
            reply_hash = ctx["reply_hash"]
            for node_id in ctx["hosted_honest"]:
                if node_id in relayed:
                    continue
                for delivery in phase.inbox(node_id, k):
                    payload = delivery.payload
                    if (
                        isinstance(payload, PredicateReply)
                        and oneway_hash(payload.mac) == reply_hash
                    ):
                        relayed.add(node_id)
                        pending[node_id] = payload
                        break
            return ()

        raise ServiceError(f"deliver in unknown phase kind {kind!r}")


class SigtermLatch:
    """The node host's SIGTERM handling, for the whole process lifetime.

    Installed with :func:`signal.signal` before the host is built (a
    large spec takes seconds to construct), and replaced only by
    ``SIG_IGN`` in :meth:`disarm`, so no window ever falls back to
    ``SIG_DFL`` — where a supervisor SIGTERM racing host teardown turned
    a clean exit into status -15.  (Interpreter finalization resets a
    Python-level handler to ``SIG_DFL``; ``SIG_IGN`` survives it.)  A
    signal always sets :attr:`requested`; while armed, it also schedules
    the host's stop callback on the event loop (``call_soon_threadsafe``
    wakes a loop blocked in ``select``).  :meth:`disarm` runs on the
    loop, so a callback scheduled just before it finds nothing to do.
    """

    def __init__(self) -> None:
        self.requested = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._callback = None

    @classmethod
    def install(cls) -> "SigtermLatch":
        latch = cls()
        signal.signal(signal.SIGTERM, latch._on_signal)
        return latch

    def _on_signal(self, signum, frame) -> None:
        self.requested = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._fire)

    def _fire(self) -> None:
        if self._callback is not None:
            self._callback()

    def arm(self, loop: asyncio.AbstractEventLoop, callback) -> None:
        self._loop = loop
        self._callback = callback
        if self.requested:
            loop.call_soon(self._fire)

    def disarm(self) -> None:
        """The host is exiting: ignore SIGTERM from here on."""
        self._callback = None
        signal.signal(signal.SIGTERM, signal.SIG_IGN)


def run_node_host(spec: ServiceSpec, host_index: int) -> int:
    """Entry point for ``python -m repro service node``."""
    stop = SigtermLatch.install()
    host = NodeHost(spec, host_index)
    asyncio.run(host.run(stop))
    return 0
