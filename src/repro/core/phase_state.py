"""Struct-of-arrays state for the interval hot loops.

The phase loops in :mod:`repro.core.tree`,
:mod:`repro.core.aggregation` and :mod:`repro.core.confirmation` keep
their per-node phase state in flat columns rather than per-node Python
containers, which at 100k nodes would dominate the interval loop's
allocation churn:

* :class:`TreeColumns` — level as one ``int32`` array, parents in a
  shared ``array('i')`` arena addressed by per-node (start, length)
  cursors, the forward schedule as a plain list;
* :class:`SlotSchedule` — participants grouped by level with one stable
  argsort, best-so-far rows addressed positionally;
* :class:`VetoSchedule` — forwarded flags as one boolean array, the
  pending vetoes as parallel lists.

**Order contract.**  Deposit and visit order is protocol semantics
(honest logic adopts the first verified beacon/veto in inbox order), so
every structure fixes its order explicitly: stable argsort grouping
keeps ascending participant order within a level group, and the
append-only schedules replay ascending arrival-visit order.
``tests/golden_digests.json`` pins the resulting trace streams and
metrics.

**Hybrid kernel.**  Honest *and* adversarial inline runs use the
columns.  Adversary hooks never touch them: malicious state lives in
per-node :class:`~repro.adversary.base.MaliciousNodeState` rows and
every injection goes through the transport, so the honest majority
stays columnar while adversary-adjacent traffic materializes row views
on read.  A tracer rides along too: the transmit path emits each trace
event from scalars (see ``PhaseContext._transmit_one``).  The only
other route through a phase is a service driver, whose node state lives
on host processes.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ProtocolError

_EMPTY: Tuple[int, ...] = ()


def node_id_bound(network) -> int:
    """One past the largest sensor id (array sizing; BS is id 0)."""
    return max(network.nodes) + 1 if network.nodes else 1


class TreeColumns:
    """Tree-formation state: level column + parents arena + forward list.

    Serves both level rules of :mod:`repro.core.tree`: VMAT's timestamp
    rule (level = arrival interval) and the naive hop-count rule (level
    = the hop count claimed inside the first beacon).
    """

    __slots__ = ("depth_bound", "multipath", "hopcount", "level",
                 "parents_arena", "parents_start", "parents_len", "pending")

    def __init__(
        self, num_ids: int, depth_bound: int, multipath: bool, variant: str
    ) -> None:
        self.depth_bound = depth_bound
        self.multipath = multipath
        self.hopcount = variant == "hopcount"
        self.level = np.full(num_ids, -1, dtype=np.int32)
        self.parents_arena = array("i")
        self.parents_start = np.zeros(num_ids, dtype=np.int64)
        # Zero until a node accepts a beacon (it then has >= 1 parent).
        self.parents_len = np.zeros(num_ids, dtype=np.int32)
        # (sensor, hop count) pairs that accepted this interval and
        # forward in the next, in arrival-visit order.
        self.pending: List[Tuple[int, int]] = []

    def accept(self, node_id: int, beacons, interval: int) -> None:
        """One node's first verified beacons: set level and parents and
        schedule the forward.  Later beacons are ignored (a node is
        visited at most once per interval, so under the timestamp rule
        no same-interval parents can arrive after acceptance)."""
        if self.parents_len[node_id]:
            return
        first = beacons[0]
        if self.hopcount:
            # The adversary can inflate the claimed hop count past L; the
            # victim forwards anyway — it learns its level is unusable
            # only when it tries to pick an aggregation slot.
            level = first.payload.hop_count
            senders = {d.sender for d in beacons if d.payload.hop_count == level}
            forward = True
        else:
            level = interval
            senders = {d.sender for d in beacons}
            forward = interval + 1 <= self.depth_bound
        parents = sorted(senders) if self.multipath else [first.sender]
        self.level[node_id] = level
        self.parents_start[node_id] = len(self.parents_arena)
        self.parents_len[node_id] = len(parents)
        self.parents_arena.extend(parents)
        if forward:
            self.pending.append((node_id, level + 1))

    def take_pending(self) -> List[Tuple[int, int]]:
        """Drain the forward schedule."""
        pending = self.pending
        self.pending = []
        return pending

    def install(self, network, honest_ids, result) -> None:
        """Write levels/parents back onto nodes and into ``result``.

        A sensor without a level in ``[1, depth_bound]`` — it heard no
        beacon, or (hop-count rule) it adopted an inflated claim — is
        invalid and gets no level or parents.
        """
        level = self.level
        arena = self.parents_arena
        start = self.parents_start
        length = self.parents_len
        depth_bound = self.depth_bound
        for node_id in honest_ids:
            node = network.nodes[node_id]
            count = int(length[node_id])
            lv = int(level[node_id])
            if count and 1 <= lv <= depth_bound:
                begin = int(start[node_id])
                parents = arena[begin:begin + count].tolist()
                node.level = lv
                node.parents = parents
                result.levels[node_id] = lv
                result.parents[node_id] = list(parents)
            else:
                result.invalid_level_sensors.add(node_id)
                node.level = None
                node.parents = []
            node.forwarded_beacon = bool(count) and (
                self.hopcount or lv + 1 <= depth_bound
            )


class SlotSchedule:
    """Aggregation slots: participants grouped by level via stable argsort.

    ``ids`` keeps participants as Python ints (deployment order, i.e.
    ascending); ``best`` holds each participant's best-so-far messages
    addressed by position.  A level group's positions ascend with
    participant order, so each interval's senders transmit, and its
    listeners collect, in ascending id order.
    """

    __slots__ = ("ids", "best", "_groups")

    def __init__(self, network, participants, depth_bound, own_messages,
                 num_instances) -> None:
        self.ids: List[int] = list(participants)
        self.best: List[List[object]] = []
        count = len(self.ids)
        levels = np.fromiter(
            (network.nodes[i].level for i in self.ids), dtype=np.int32, count=count
        )
        for node_id in self.ids:
            messages = own_messages.get(node_id)
            if messages is None or len(messages) != num_instances:
                raise ProtocolError(f"sensor {node_id} is missing its own messages")
            self.best.append(list(messages))
        self._groups: Dict[int, List[int]] = {}
        if count:
            order = np.argsort(levels, kind="stable")
            grouped = levels[order]
            uniques, starts = np.unique(grouped, return_index=True)
            bounds = starts.tolist() + [count]
            for position, lv in enumerate(uniques.tolist()):
                self._groups[int(lv)] = order[
                    bounds[position]:bounds[position + 1]
                ].tolist()

    def send_positions(self, interval: int, depth_bound: int):
        """Positions transmitting in ``interval`` (level ``L - k + 1``)."""
        return self._groups.get(depth_bound - interval + 1, _EMPTY)

    def listen_positions(self, interval: int, depth_bound: int):
        """Positions listening in ``interval`` (level ``L - k``; level 0
        does not exist, so interval ``L`` naturally has no listeners)."""
        return self._groups.get(depth_bound - interval, _EMPTY)


class VetoSchedule:
    """SOF state: forwarded flags as one bool column + pending lists.

    The pending lists are always in ascending id order: the initial
    vetoer scan and each interval's arrival scan both visit ascending
    ids, and the schedule is fully drained every interval.
    """

    __slots__ = ("forwarded", "_ids", "_vetoes")

    def __init__(self, num_ids: int) -> None:
        self.forwarded = np.zeros(num_ids, dtype=bool)
        self._ids: List[int] = []
        self._vetoes: List[object] = []

    def schedule(self, node_id: int, veto) -> None:
        self.forwarded[node_id] = True
        self._ids.append(node_id)
        self._vetoes.append(veto)

    def drain(self):
        """Yield and clear this interval's (node_id, veto) schedule."""
        pairs = list(zip(self._ids, self._vetoes))
        self._ids.clear()
        self._vetoes.clear()
        return pairs
