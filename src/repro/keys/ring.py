"""Per-sensor key rings (Eschenauer–Gligor pre-distribution [7]).

Each sensor is loaded with ``r`` keys drawn uniformly at random (without
replacement) from the global pool of ``u`` keys.  The draw is determined
by a per-sensor *ring seed* derived from the master secret — the detail
the paper leans on for cheap bulk revocation: "To revoke all of A's edge
keys, the base station only needs to announce the associated random seed
used for the selection" (Section VI-A).

Every ring of a deployment lives in one :class:`RingTable`: a single
``(num_sensors, ring_size)`` ``int32`` array, one sorted row per sensor
(4 bytes per held key; at 10k nodes per-sensor tuples, frozensets and
``{index: key}`` dicts cost ~200 MiB).  Rows come from the seed draw or,
for deterministic schemes (:mod:`repro.keys.schemes`), from an explicit
``ring_indices_factory``; either way the rest of the key layer sees the
same table.

Seed draws are built in bulk by
:func:`repro.crypto.prf.sample_distinct_rows`, which reproduces the
single-seed reference :func:`repro.crypto.prf.sample_distinct_indices`
(CPython's ``random.Random(seed).sample``) row for row from one
Mersenne-Twister word stream per sensor.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import KeyConfig
from ..crypto.prf import derive_key, sample_distinct_indices, sample_distinct_rows
from ..errors import KeyManagementError
from ..perf.cache import LRUCache
from ..perf.shard import fork_map, regions, shard_count

#: Ring seeds keyed by ``(master, sensor_id)`` and expanded selections
#: keyed by ``(seed, pool_size, ring_size)``.  Every fresh deployment in
#: a Monte-Carlo sweep re-derives the same rings; the seed is a pure
#: function of its key and the expansion a pure function of (seed,
#: config), so caching is bit-transparent.  Deployments too large to fit
#: (see :func:`ring_caches_fit`) bypass both caches entirely — at 10k+
#: nodes every entry was a one-shot miss (BENCH_scale.json: 12,195
#: misses, 0 hits), pure bookkeeping overhead.
_RING_SEEDS = LRUCache("ring-seeds", maxsize=16384)
_RING_SELECTIONS = LRUCache("ring-selections", maxsize=4096)

#: Read-only state handed to edge-key fork workers by copy-on-write
#: inheritance (set immediately before the pool forks, cleared after).
#: Fork workers see the parent's arrays without pickling them.
_EDGE_STATE: "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]" = None


def ring_caches_fit(num_sensors: int) -> bool:
    """Whether one deployment's rings fit the seed/selection caches.

    Above this the caches cannot produce hits within a single build (the
    working set exceeds the bound, so entries are evicted before reuse)
    and large builds bypass them instead of thrashing them.
    """
    return num_sensors <= _RING_SELECTIONS.maxsize


def ring_seed(master_secret: bytes, sensor_id: int, cache: bool = True) -> bytes:
    """The announceable seed determining one sensor's ring selection."""
    if not cache:
        return derive_key(master_secret, "ring-seed", sensor_id, length=16)
    key = (master_secret, sensor_id)
    seed = _RING_SEEDS.get(key)
    if seed is None:
        seed = derive_key(master_secret, "ring-seed", sensor_id, length=16)
        _RING_SEEDS.put(key, seed)
    return seed


def ring_indices_from_seed(
    seed: bytes, config: KeyConfig, cache: bool = True
) -> List[int]:
    """Expand a ring seed into the sorted pool indices it selects."""
    if not cache:
        return sample_distinct_indices(seed, config.pool_size, config.ring_size)
    key = (seed, config.pool_size, config.ring_size)
    indices = _RING_SELECTIONS.get(key)
    if indices is None:
        indices = tuple(
            sample_distinct_indices(seed, config.pool_size, config.ring_size)
        )
        _RING_SELECTIONS.put(key, indices)
    return list(indices)


def _ring_rows_region(args: Tuple[bytes, int, int, int, int]) -> np.ndarray:
    """Rows for sensors ``[start, stop)`` as an ``int32`` array.

    Pure function of the master secret — it re-derives each ring seed
    directly (no process-global caches, which a fork worker could not
    share back anyway) and runs the batched sampler, whose rows equal
    the reference sampler's, so the rows are identical no matter which
    process computed them.
    """
    master_secret, pool_size, ring_size, start, stop = args
    seeds = [
        derive_key(master_secret, "ring-seed", sensor_id, length=16)
        for sensor_id in range(start, stop)
    ]
    return sample_distinct_rows(seeds, pool_size, ring_size)


def _edge_keys_region(args: Tuple[int, int]) -> bytes:
    """Deployment-time edge keys for edge slots ``[start, stop)``.

    Reads ``_EDGE_STATE`` (rows + endpoint arrays) copy-on-write.  The
    edge key at epoch zero is the lowest shared pool index — for a base
    station link, the sensor's lowest ring index — or ``-1`` when the
    endpoints share nothing.
    """
    start, stop = args
    rows, heads, tails = _EDGE_STATE
    out = np.empty(stop - start, dtype=np.int32)
    for offset, slot in enumerate(range(start, stop)):
        a = heads[slot]
        b = tails[slot]
        if a == 0:
            out[offset] = rows[b - 1, 0]
        elif b == 0:
            out[offset] = rows[a - 1, 0]
        else:
            shared = np.intersect1d(rows[a - 1], rows[b - 1], assume_unique=True)
            out[offset] = shared[0] if shared.size else -1
    return out.tobytes()


class RingTable:
    """All ring selections of one deployment as a single ``int32`` array.

    Row ``sensor_id - 1`` holds sensor ``sensor_id``'s sorted pool
    indices (the base station, id 0, holds every key and has no row).
    ``ring_indices_factory(sensor_id)``, when given, supplies each row
    instead of the seed draw; it must return ``ring_size`` distinct
    indices in ``[0, pool_size)``.
    """

    def __init__(
        self,
        master_secret: bytes,
        num_nodes: int,
        config: KeyConfig,
        ring_indices_factory: Optional[Callable[[int], Sequence[int]]] = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.pool_size = config.pool_size
        self.ring_size = config.ring_size
        if ring_indices_factory is None:
            self.rows = self._seed_rows(master_secret, num_nodes - 1)
        else:
            self.rows = self._explicit_rows(ring_indices_factory, num_nodes - 1)

    def _seed_rows(self, master_secret: bytes, num_sensors: int) -> np.ndarray:
        if num_sensors <= 0:
            return np.empty((0, self.ring_size), dtype=np.int32)
        if ring_caches_fit(num_sensors):
            # Small deployment: go through the seed/selection caches so
            # Monte-Carlo rebuilds of the same master secret still hit;
            # the misses are drawn in one batch.
            out = np.empty((num_sensors, self.ring_size), dtype=np.int32)
            seeds = [ring_seed(master_secret, s) for s in range(1, num_sensors + 1)]
            keys = [(seed, self.pool_size, self.ring_size) for seed in seeds]
            misses = []
            for offset, key in enumerate(keys):
                cached = _RING_SELECTIONS.get(key)
                if cached is None:
                    misses.append(offset)
                else:
                    out[offset] = cached
            if misses:
                drawn = sample_distinct_rows(
                    [seeds[offset] for offset in misses], self.pool_size, self.ring_size
                )
                out[misses] = drawn
                for offset, row in zip(misses, drawn.tolist()):
                    _RING_SELECTIONS.put(keys[offset], tuple(row))
            return out
        # Large deployment: bypass the caches (every lookup would be a
        # one-shot miss) and fan the derivation out over id regions.  A
        # single region runs inline and its array is the table.
        shards = shard_count(num_sensors)
        parts = regions(num_sensors, shards)
        chunks = fork_map(
            _ring_rows_region,
            [
                (master_secret, self.pool_size, self.ring_size, start + 1, stop + 1)
                for start, stop in parts
            ],
            shards,
        )
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def _explicit_rows(
        self, factory: Callable[[int], Sequence[int]], num_sensors: int
    ) -> np.ndarray:
        out = np.empty((num_sensors, self.ring_size), dtype=np.int32)
        for sensor_id in range(1, num_sensors + 1):
            row = sorted(factory(sensor_id))
            if len(row) != self.ring_size:
                raise KeyManagementError(
                    f"ring of sensor {sensor_id} has {len(row)} keys, "
                    f"expected ring_size={self.ring_size}"
                )
            if len(set(row)) != len(row):
                raise KeyManagementError(f"ring of sensor {sensor_id} repeats a key")
            if row[0] < 0 or row[-1] >= self.pool_size:
                raise KeyManagementError(
                    f"ring of sensor {sensor_id} leaves the pool [0, {self.pool_size})"
                )
            out[sensor_id - 1] = row
        return out

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def _row(self, sensor_id: int) -> np.ndarray:
        if not 1 <= sensor_id < self.num_nodes:
            raise KeyManagementError(f"no ring for node {sensor_id}")
        return self.rows[sensor_id - 1]

    def row_list(self, sensor_id: int) -> List[int]:
        """This sensor's sorted ring indices as Python ints."""
        return self._row(sensor_id).tolist()

    def holds(self, sensor_id: int, pool_index: int) -> bool:
        row = self._row(sensor_id)
        position = int(np.searchsorted(row, pool_index))
        return position < self.ring_size and int(row[position]) == pool_index

    def intersect(self, a: int, b: int) -> Tuple[int, ...]:
        """Sorted shared pool indices of two sensors, as Python ints."""
        shared = np.intersect1d(self._row(a), self._row(b), assume_unique=True)
        return tuple(shared.tolist())

    # ------------------------------------------------------------------
    # Bulk edge-key computation (secure-topology build)
    # ------------------------------------------------------------------
    def edge_keys(self, heads: Sequence[int], tails: Sequence[int]) -> np.ndarray:
        """Epoch-zero edge key index per ``(heads[i], tails[i])`` link,
        ``-1`` where the endpoints share no pool key.

        Region-sharded over fork workers; rows and endpoint arrays reach
        the workers copy-on-write, results concatenate in region order.
        Only valid while nothing is revoked (callers with a nonzero
        revocation epoch must use the registry's per-edge path).
        """
        global _EDGE_STATE
        heads_arr = np.ascontiguousarray(heads, dtype=np.int32)
        tails_arr = np.ascontiguousarray(tails, dtype=np.int32)
        count = int(heads_arr.shape[0])
        parts = regions(count, shard_count(count))
        if not parts:
            return np.empty(0, dtype=np.int32)
        _EDGE_STATE = (self.rows, heads_arr, tails_arr)
        try:
            chunks = fork_map(_edge_keys_region, parts, len(parts))
        finally:
            _EDGE_STATE = None
        return np.frombuffer(b"".join(chunks), dtype=np.int32).copy()
