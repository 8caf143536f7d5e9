"""Timed and traced runs of one workload, and the metrics they yield.

One client runs a closed loop: it issues the next operation only after
the previous one returned and its output was checked.  Timings are taken
around the program's own call (``execute`` / ``run_session``); the
oracle, the digest and a ``gc.collect()`` run between operations,
outside the timed region.

A run lasts ``seconds``, set-up included.  It repeats one client
session until it has its minimum samples and another session of the
last one's length would end past the deadline.  A session is:

  ``workload.builds_per_session`` builds, each from cleared caches and
  each a ``setup_s`` sample, then one cold operation on the last build,
  then ``workload.warm_ops_per_session`` warm operations on it.

Sessions are alike, so builds are spread over the whole run (``setup_s``
and the operation times see the same stretch of host time) and peak
memory does not depend on how fast the host ran.  Warm operations are
the steady samples; a workload with none (``attacked-session-144``)
counts its cold operations as steady.  Each session replays one
sequence of inputs, so the digests at one position must agree between
sessions.

``execution_s`` and ``session_s`` are the fastest steady sample of the
run; ``setup_s`` is the median build.  Every steady operation repeats
the same deterministic work, so a change to that work moves every
sample, the fastest included.  What differs between samples is the
host: on a shared host other tenants' load comes in bursts of a few
seconds that slow some operations by up to half, and a run holds only
ten to twenty steady operations, too few for their median to average
the bursts out.  The fastest sample is the one such a burst touched
least (the minimum estimator of Chen and Revels, "Robust benchmarking
in noisy environments", 2016).  The report line lists every steady
sample, so their median stays visible.

A traced run (``--trace 1``) follows the same plan, with every build
traced and the steady operations alternating untraced and traced, so
the traced-minus-untraced median is the tracing overhead.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.perf.cache import cache_stats, clear_caches, diff_cache_stats, sum_cache_stats

from spans import BUILD_LAYERS, OP_LAYERS, Ledger, SpanTracer
from workloads import OpFailure, OpRecord

MIN_STEADY_OPS = 3
MIN_TRACED_OPS = 1

#: Every cache the program registers; one hit-ratio metric each.
CACHE_NAMES = (
    "edge-mac-verdicts",
    "payload-encodings",
    "id-encodings",
    "hmac-keyed-states",
    "broadcast-chain-walks",
    "broadcast-mac-verdicts",
    "derived-keys",
    "ring-seeds",
    "ring-selections",
    "synopsis-draw-vectors",
)

#: Per-layer metric name of each operation layer's self time.
OP_LAYER_METRICS = {
    layer: ("core.pinpoint_self_s" if layer == "core.pinpoint" else f"{layer}_s")
    for layer in OP_LAYERS
}


@dataclass
class RunLog:
    """Everything a run observed, before it is reduced to metrics."""

    setup_s: List[float] = field(default_factory=list)
    cold: List[OpRecord] = field(default_factory=list)
    steady: List[OpRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    # Cache counter deltas over builds and operations, oracles excluded.
    cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Traced run only.
    untraced: List[OpRecord] = field(default_factory=list)
    traced: List[OpRecord] = field(default_factory=list)
    build_ledger: Ledger = field(default_factory=Ledger)
    op_ledger: Ledger = field(default_factory=Ledger)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: operation failed: {message}", file=sys.stderr)


class Runner:
    """Drives one workload for one seed and checks every operation."""

    def __init__(
        self,
        workload,
        seed: int,
        seconds: float,
        golden: Optional[List[str]] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.golden = golden or []
        self.log = RunLog()
        self._digest_at: Dict[int, str] = {}
        self._tracer: Optional[SpanTracer] = None
        self._deadline = 0.0
        self._step_s = 0.0

    # ------------------------------------------------------------------
    def timed(self) -> RunLog:
        self._plan(traced_steady=False)
        return self.log

    def traced(self) -> RunLog:
        self._tracer = SpanTracer()
        self._plan(traced_steady=True)
        return self.log

    # ------------------------------------------------------------------
    def _plan(self, traced_steady: bool) -> None:
        clear_caches()
        self._deadline = time.perf_counter() + self.seconds
        warm_ops = self.workload.warm_ops_per_session
        try:
            while not self._done(traced_steady):
                step = time.perf_counter()
                session = None  # free the previous deployment first
                session = self._session(self.workload.builds_per_session)
                for position in range(1 + warm_ops):
                    steady = position > 0 or warm_ops == 0
                    trace = steady and self._trace_next(traced_steady)
                    self._operate(session, position, steady, trace)
                self._step_s = time.perf_counter() - step
        except Exception:
            # A build that raises ends the run: nothing left to operate on.
            self.log.attempted += 1
            self.log.fail("build raised:\n" + traceback.format_exc())

    def _trace_next(self, traced_steady: bool) -> bool:
        """Steady operations of a traced run alternate untraced and traced."""
        return traced_steady and len(self.log.untraced) > len(self.log.traced)

    def _done(self, traced_steady: bool) -> bool:
        """Stop once the minimum samples are in and another session of the
        last session's length would end past the deadline."""
        out_of_time = time.perf_counter() + self._step_s > self._deadline
        log = self.log
        if log.failed:
            return out_of_time
        if traced_steady:
            enough = min(len(log.traced), len(log.untraced)) >= MIN_TRACED_OPS
        else:
            enough = len(log.steady) >= MIN_STEADY_OPS
        return enough and out_of_time

    def _session(self, builds: int):
        """A client session on the last of ``builds`` timed builds."""
        for _ in range(builds - 1):
            self._build()
        return self.workload.session(self._build(), self.seed)

    def _build(self):
        clear_caches()
        gc.collect()
        ledger = Ledger()
        before = cache_stats()
        started = time.perf_counter()
        if self._tracer is not None:
            self._tracer.ledger = ledger
            with self._tracer:
                deployment = self.workload.build()
        else:
            deployment = self.workload.build()
        elapsed = time.perf_counter() - started
        self._count_caches(before)
        self.log.setup_s.append(elapsed)
        if self._tracer is not None:
            _accumulate(self.log.build_ledger, ledger)
        return deployment

    def _operate(self, session, position: int, steady: bool, trace: bool) -> None:
        log = self.log
        log.attempted += 1
        gc.collect()
        ledger = Ledger()
        before = cache_stats()
        try:
            if trace:
                self._tracer.ledger = ledger
                with self._tracer:
                    record = session.operate()
            else:
                record = session.operate()
        except OpFailure as failure:
            log.fail(f"op {position}: {failure}")
            return
        except Exception:
            log.fail(f"op {position} raised:\n" + traceback.format_exc())
            return
        finally:
            self._count_caches(before)
        if not self._digest_ok(record, position):
            return
        log.digests.append(record.digest)
        if position == 0:
            log.cold.append(record)
        if not steady:
            return
        log.steady.append(record)
        if self._tracer is not None:
            (log.traced if trace else log.untraced).append(record)
            if trace:
                _accumulate(log.op_ledger, ledger)

    def _digest_ok(self, record: OpRecord, position: int) -> bool:
        """Each operation of a session must match the seed's recorded
        digest at its position, and agree with every earlier session's."""
        if position < len(self.golden) and record.digest != self.golden[position]:
            self.log.fail(f"op {position}: digest differs from the recorded digest")
            return False
        if record.digest != self._digest_at.setdefault(position, record.digest):
            self.log.fail(f"op {position}: digest differs between sessions")
            return False
        return True

    def _count_caches(self, before) -> None:
        delta = diff_cache_stats(before, cache_stats())
        self.log.cache = sum_cache_stats(self.log.cache, delta)


def _accumulate(into: Ledger, ledger: Ledger) -> None:
    for layer, seconds in ledger.self_s.items():
        into.self_s[layer] += seconds
    into.calls.update(ledger.calls)
    into.revocations.update(ledger.revocations)


# ----------------------------------------------------------------------
# Reduction to the metrics BENCHMARK.json names
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fastest(values: List[float]) -> float:
    return min(values) if values else 0.0


def end_to_end_metrics(log: RunLog, peak_rss_mb: float) -> Dict[str, Dict[str, object]]:
    steady = log.steady
    values = {
        "setup_s": (_median(log.setup_s), "s"),
        "execution_s": (_fastest([r.wall_s / r.executions for r in steady]), "s"),
        "session_s": (_fastest([r.wall_s for r in steady]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "radio_bytes": (_median([r.radio_bytes for r in steady]), "bytes"),
        "flooding_rounds": (_median([r.flooding_rounds for r in steady]), "rounds"),
        "executions_to_result": (_median([r.executions for r in steady]), "count"),
        "ok_ops_ratio": (
            (log.attempted - log.failed) / log.attempted if log.attempted else 0.0,
            "ratio",
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer_metrics(log: RunLog) -> Dict[str, Dict[str, object]]:
    # A traced run traces every build.
    ops = max(1, len(log.traced))
    builds = max(1, len(log.setup_s))
    op_ledger, build_ledger = log.op_ledger, log.build_ledger
    values: Dict[str, tuple] = {}
    for layer in BUILD_LAYERS:
        values[f"{layer}_s"] = (build_ledger.self_s.get(layer, 0.0) / builds, "s")
    values["setup.other_s"] = (
        (sum(log.setup_s) - sum(build_ledger.self_s.values())) / builds,
        "s",
    )
    for layer, metric in OP_LAYER_METRICS.items():
        values[metric] = (op_ledger.self_s.get(layer, 0.0) / ops, "s")
    traced_wall = sum(r.wall_s for r in log.traced)
    values["other_s"] = ((traced_wall - sum(op_ledger.self_s.values())) / ops, "s")
    values["net.frames"] = (sum(r.frames for r in log.traced) / ops, "count")
    values["net.floods"] = (op_ledger.calls["net.flood"] / ops, "count")
    values["core.predicate_tests"] = (op_ledger.calls["core.predicate_test"] / ops, "count")
    values["keys.key_revocations"] = (op_ledger.revocations["key"] / ops, "count")
    values["keys.sensor_revocations"] = (op_ledger.revocations["sensor"] / ops, "count")
    values["trace.overhead_s"] = (
        _median([r.wall_s for r in log.traced]) - _median([r.wall_s for r in log.untraced]),
        "s",
    )
    for name in CACHE_NAMES:
        stats = log.cache.get(name, {})
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        values[f"perf.cache.{name}.hit_ratio"] = (
            stats.get("hits", 0) / lookups if lookups else 0.0,
            "ratio",
        )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def dominant_layer(log: RunLog) -> Optional[str]:
    """The operation layer with the largest self time, for the report."""
    if not log.op_ledger.self_s:
        return None
    return max(log.op_ledger.self_s, key=log.op_ledger.self_s.get)
