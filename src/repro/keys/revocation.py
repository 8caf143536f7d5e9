"""Revocation bookkeeping with the θ-threshold sensor rule (Section VI-C).

Revoking a single edge key does little against a sensor holding ``r = 250``
of them, so VMAT revokes a sensor *in full* (announcing its ring seed)
once ``theta`` of its ring keys have been individually revoked.  The rule
trades speed against safety: honest sensors that happen to share more
than ``theta`` pool keys with the adversary's combined rings can be
framed.  Figure 7 of the paper — reproduced in
:mod:`repro.analysis.misrevocation` — quantifies that trade-off.

State lives beside the deployment's :class:`~repro.keys.ring.RingTable`:
rings are its rows, per-sensor revoked/exposed counters are flat
``int64`` arrays indexed by sensor id, and the inverted holder index is
a CSR built lazily on the first revocation (honest large-scale runs
never pay for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Set, Tuple

import numpy as np

from ..errors import RevocationError
from .ring import RingTable

RevocationKind = Literal["key", "sensor"]


@dataclass(frozen=True)
class RevocationEvent:
    """One revocation action, kept as an auditable log entry."""

    kind: RevocationKind
    target: int  # pool key index for "key", sensor id for "sensor"
    reason: str
    # For sensor revocations triggered by the threshold rule, the key
    # revocation that tipped the count.
    triggered_by_key: Optional[int] = None


class RevocationState:
    """Tracks revoked pool keys and sensors; applies the θ rule.

    Parameters
    ----------
    table:
        The deployment's rings, one sorted row per sensor.
    theta:
        Threshold of *exposed* ring keys at which a sensor is revoked in
        full.  ``None`` disables the rule (pure per-key revocation, the
        ablation baseline).
    cascade:
        Revoking a sensor also revokes its whole ring, but those
        ring-dump revocations are bookkeeping, not evidence: by default
        (``cascade=False``) only keys revoked *individually* — i.e.
        pinpointed in an actual attack — count toward other sensors'
        thresholds.  ``cascade=True`` switches to the unconditional
        reading of the rule (every revoked key counts, transitively),
        the pessimistic variant whose framing risk Figure 7 quantifies.
    """

    def __init__(
        self, table: RingTable, theta: Optional[int] = None, cascade: bool = False
    ) -> None:
        if theta is not None and theta < 1:
            raise RevocationError("theta must be >= 1 when set")
        self.theta = theta
        self.cascade = cascade
        self._table = table
        self._revoked_keys: Set[int] = set()
        self._revoked_sensors: Set[int] = set()
        self.log: List[RevocationEvent] = []
        # Total revoked keys per ring (any reason) vs keys *exposed* by
        # individual revocations — only the latter feed the θ rule when
        # cascade is off.  Slot 0 (the base station) never counts.
        self._revoked_count = np.zeros(table.num_nodes, dtype=np.int64)
        self._exposed_count = np.zeros(table.num_nodes, dtype=np.int64)
        self._csr: "Optional[Tuple[np.ndarray, np.ndarray]]" = None

    def _holder_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            table = self._table
            flat = table.rows.ravel()
            order = np.argsort(flat, kind="stable")
            # Stable sort keeps equal keys in row order, i.e. ascending
            # sensor ids.
            holders = (order // table.ring_size + 1).astype(np.int32)
            indptr = np.searchsorted(flat[order], np.arange(table.pool_size + 1))
            self._csr = (indptr, holders)
        return self._csr

    def _check_sensor(self, sensor_id: int) -> None:
        if not 1 <= sensor_id < self._table.num_nodes:
            raise RevocationError(f"unknown sensor {sensor_id}")

    def _due_sensors(self) -> List[int]:
        """Unrevoked sensors at/over θ by exposed count, ascending."""
        due = np.nonzero(self._exposed_count >= self.theta)[0]
        return [s for s in due.tolist() if s not in self._revoked_sensors]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def revoked_keys(self) -> frozenset[int]:
        return frozenset(self._revoked_keys)

    @property
    def revoked_sensors(self) -> frozenset[int]:
        return frozenset(self._revoked_sensors)

    def is_key_revoked(self, index: int) -> bool:
        return index in self._revoked_keys

    def is_sensor_revoked(self, sensor_id: int) -> bool:
        return sensor_id in self._revoked_sensors

    def revoked_ring_count(self, sensor_id: int) -> int:
        """How many of this sensor's ring keys are currently revoked."""
        self._check_sensor(sensor_id)
        return int(self._revoked_count[sensor_id])

    def exposed_ring_count(self, sensor_id: int) -> int:
        """How many of this sensor's ring keys were individually exposed
        (the count the θ rule uses under no-cascade semantics)."""
        self._check_sensor(sensor_id)
        return int(self._exposed_count[sensor_id])

    def holders_of(self, index: int) -> Tuple[int, ...]:
        """Sorted sensor ids holding pool key ``index`` (revoked or not)."""
        if not 0 <= index < self._table.pool_size:
            return ()
        indptr, holders = self._holder_csr()
        return tuple(holders[indptr[index] : indptr[index + 1]].tolist())

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def revoke_key(self, index: int, reason: str = "pinpointed") -> List[RevocationEvent]:
        """Revoke one pool key; apply the θ rule.  Idempotent.

        Returns the list of events this action produced (possibly empty
        when the key was already revoked).  An index outside the pool is
        rejected.
        """
        if not 0 <= index < self._table.pool_size:
            raise RevocationError(
                f"pool key {index} outside the pool [0, {self._table.pool_size})"
            )
        if index in self._revoked_keys:
            return []
        events = [RevocationEvent(kind="key", target=index, reason=reason)]
        self._apply_key(index, exposed=True)
        self.log.append(events[0])
        events.extend(self._run_threshold(trigger_key=index))
        return events

    def revoke_sensor(
        self,
        sensor_id: int,
        reason: str = "pinpointed",
        triggered_by_key: Optional[int] = None,
    ) -> List[RevocationEvent]:
        """Revoke a sensor in full: mark it revoked and revoke its ring.

        Idempotent.  The induced key revocations trigger further sensor
        revocations only under ``cascade=True``.
        """
        self._check_sensor(sensor_id)
        if sensor_id in self._revoked_sensors:
            return []
        events = self._revoke_sensor_direct(sensor_id, reason, triggered_by_key)
        if self.cascade:
            events.extend(self._run_threshold(trigger_key=triggered_by_key))
        return events

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _revoke_sensor_direct(
        self, sensor_id: int, reason: str, triggered_by_key: Optional[int]
    ) -> List[RevocationEvent]:
        """Mark the sensor revoked and revoke its ring keys, without
        applying the threshold rule to the induced key revocations."""
        event = RevocationEvent(
            kind="sensor", target=sensor_id, reason=reason, triggered_by_key=triggered_by_key
        )
        self._revoked_sensors.add(sensor_id)
        self.log.append(event)
        events = [event]
        for index in self._table.row_list(sensor_id):
            if index not in self._revoked_keys:
                key_event = RevocationEvent(
                    kind="key", target=index, reason=f"ring of sensor {sensor_id}"
                )
                self._apply_key(index, exposed=self.cascade)
                self.log.append(key_event)
                events.append(key_event)
        return events

    def _apply_key(self, index: int, exposed: bool) -> None:
        """Mark ``index`` revoked and count it against every holder."""
        self._revoked_keys.add(index)
        indptr, holders = self._holder_csr()
        ids = holders[indptr[index] : indptr[index + 1]]
        self._revoked_count[ids] += 1
        if exposed:
            self._exposed_count[ids] += 1

    def _run_threshold(self, trigger_key: Optional[int]) -> List[RevocationEvent]:
        """Revoke every sensor whose *exposed* count is at/over θ.

        Without cascade, ring-dump revocations never increment exposed
        counts, so one pass reaches the fixed point.  With cascade every
        revoked key counts and the pass repeats until quiescent.
        """
        if self.theta is None:
            return []
        events: List[RevocationEvent] = []
        while True:
            due = self._due_sensors()
            if not due:
                break
            for sensor in due:
                if sensor in self._revoked_sensors:
                    continue
                events.extend(
                    self._revoke_sensor_direct(
                        sensor,
                        reason=f"threshold theta={self.theta} reached",
                        triggered_by_key=trigger_key,
                    )
                )
            if not self.cascade:
                break
        return events

    def threshold_pending(self) -> Set[int]:
        """Sensors at/over θ (by exposed count) but not yet revoked —
        nonempty only when the rule is disabled (θ=None uses total
        counts for reporting)."""
        if self.theta is None:
            return set()
        return set(self._due_sensors())
