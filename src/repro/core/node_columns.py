"""Parallel per-node state columns behind the column kernel's node views.

At 1M nodes the per-node scalar state — reading, tree level, the two
one-time forward flags, the crash-suspected flag — costs far more as
Python attributes (a boxed float, a boxed int-or-None and three bools
per instance) than as five flat arrays keyed by node id.  This module
holds exactly those five scalars as columns sized by the topology's
contiguous id space (ids are ``range(num_nodes)``; row 0, the base
station, is simply unused):

* ``reading`` — ``float64`` (readings are floats everywhere; the
  protocol driver coerces with ``float()`` before installing them);
* ``level`` — ``int32``, ``-1`` encoding a ``None`` level;
* ``forwarded_veto`` / ``forwarded_beacon`` / ``crash_suspected`` —
  boolean columns.

:class:`~repro.net.node.HonestNode` exposes each column cell through
properties with plain Python types (``float``/``int``/``bool``/
``None``), so every phase loop, adversary hook, fault injector and
service driver reads and writes node state as attributes — the
kernel's row views are these thin property wrappers, not copies.
Containers that are per-node but not scalar (``parents``,
``query_values``, the audit trail) stay object slots on the node
views; the tree phase already arenas ``parents`` during its hot loop
(:class:`~repro.core.phase_state.TreeColumns`).
"""

from __future__ import annotations

import numpy as np


class NodeColumns:
    """Five per-node scalars as parallel arrays keyed by node id."""

    __slots__ = (
        "reading",
        "level",
        "forwarded_veto",
        "forwarded_beacon",
        "crash_suspected",
    )

    def __init__(self, num_ids: int) -> None:
        self.reading = np.zeros(num_ids, dtype=np.float64)
        self.level = np.full(num_ids, -1, dtype=np.int32)
        self.forwarded_veto = np.zeros(num_ids, dtype=bool)
        self.forwarded_beacon = np.zeros(num_ids, dtype=bool)
        self.crash_suspected = np.zeros(num_ids, dtype=bool)
