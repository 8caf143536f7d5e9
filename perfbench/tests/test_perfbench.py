"""Tests of the benchmark harness itself, on miniature copies of its workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import repro  # noqa: E402
import repro.core.protocol  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from record_golden import GOLDEN_SEEDS, golden_digests  # noqa: E402
from spans import SPAN_POINTS, Ledger, SpanTracer  # noqa: E402

W = workloads.WORKLOADS


def installed_callables():
    """The callables currently installed at every span point."""
    return {(id(owner), attr): owner.__dict__[attr] for _, owner, attr in SPAN_POINTS}


def tiny_grid():
    return replace(
        W["honest-grid-10k"],
        make_topology=lambda: repro.grid_topology(5, 5),
        config=workloads._grid_config(5, 5),
    )


def tiny_count():
    return replace(
        W["count-synopses-1k"],
        make_topology=lambda: repro.random_geometric_topology(
            30, 0.45, seed=workloads.PLACEMENT_SEED
        ),
    )


def tiny_attacked():
    return replace(
        W["attacked-session-144"], rows=4, cols=4, malicious_ids=frozenset({5, 10})
    )


TINY = {"grid": tiny_grid, "count": tiny_count, "attacked": tiny_attacked}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_same_seed_gives_same_digests(kind):
    workload = TINY[kind]()
    assert golden_digests(workload, 3) == golden_digests(workload, 3)


def test_different_seed_gives_different_inputs():
    ids = list(range(1, 200))
    for name in W:
        assert workloads.readings_for(name, 1, ids) != workloads.readings_for(name, 2, ids)
        assert workloads.nonce_secret_for(name, 1) != workloads.nonce_secret_for(name, 2)
        assert workloads.readings_for(name, 1, ids) == workloads.readings_for(name, 1, ids)
    workload = tiny_grid()
    assert golden_digests(workload, 1) != golden_digests(workload, 2)


class _Probe:
    """Wraps a workload so each operation records the installed callables."""

    def __init__(self, workload):
        self.workload = workload
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def session(self, deployment, seed):
        session = self.workload.session(deployment, seed)
        operate = session.operate

        def probed():
            self.seen.append(installed_callables())
            return operate()

        session.operate = probed
        return session


@pytest.mark.parametrize("kind", ["grid", "attacked"])
def test_untraced_runs_are_unpatched(kind):
    originals = installed_callables()
    probe = _Probe(TINY[kind]())
    log = measure.Runner(probe, seed=1, seconds=0).timed()
    assert log.failed == 0 and log.attempted >= measure.MIN_STEADY_OPS
    assert probe.seen and all(seen == originals for seen in probe.seen)
    assert installed_callables() == originals

    traced_probe = _Probe(TINY[kind]())
    traced = measure.Runner(traced_probe, seed=1, seconds=0).traced()
    assert traced.failed == 0 and traced.traced and traced.untraced
    patched = [seen != originals for seen in traced_probe.seen]
    assert any(patched) and not all(patched)
    assert installed_callables() == originals


def test_tracer_restores_after_an_exception():
    originals = installed_callables()
    with pytest.raises(RuntimeError):
        with SpanTracer():
            assert installed_callables() != originals
            raise RuntimeError("boom")
    assert installed_callables() == originals


def test_nested_spans_report_self_time():
    ledger = Ledger()
    ledger.enter()  # outer
    ledger.enter()  # inner
    ledger.leave("inner", 2.0)
    ledger.leave("outer", 5.0)
    assert ledger.self_s == {"inner": 2.0, "outer": 3.0}
    assert ledger.calls == {"inner": 1, "outer": 1}


def test_traced_layers_account_for_the_wall_time():
    log = measure.Runner(tiny_attacked(), seed=1, seconds=0).traced()
    metrics = measure.per_layer_metrics(log)
    assert set(metrics) >= {"core.predicate_test_s", "other_s", "net.floods"}
    assert metrics["core.predicate_tests"]["value"] > 0
    assert metrics["keys.key_revocations"]["value"] > 0
    layers = sum(metrics[m]["value"] for m in measure.OP_LAYER_METRICS.values())
    wall = sum(r.wall_s for r in log.traced) / len(log.traced)
    assert layers + metrics["other_s"]["value"] == pytest.approx(wall)
    assert 0 <= metrics["other_s"]["value"] < wall


def test_planted_wrong_result_counts_as_failed(monkeypatch):
    execute = repro.core.protocol.VMATProtocol.execute

    def wrong(self, query, readings):
        result = execute(self, query, readings)
        result.estimate = result.estimate + 1
        return result

    monkeypatch.setattr(repro.core.protocol.VMATProtocol, "execute", wrong)
    log = measure.Runner(tiny_grid(), seed=1, seconds=0).timed()
    assert log.attempted > 0 and log.failed == log.attempted
    assert measure.end_to_end_metrics(log, 1.0)["ok_ops_ratio"]["value"] == 0.0


def test_digest_mismatch_counts_as_failed():
    workload = tiny_grid()
    golden = golden_digests(workload, 1)
    good = measure.Runner(workload, seed=1, seconds=0, golden=golden).timed()
    assert good.failed == 0
    planted = ["0" * 64] + golden[1:]
    bad = measure.Runner(workload, seed=1, seconds=0, golden=planted).timed()
    sessions = len(bad.setup_s) // workload.builds_per_session
    assert bad.failed == sessions  # every session's cold operation


def test_golden_pins_every_workload_and_seed_and_warns_beyond(capsys):
    golden = json.loads(run.GOLDEN.read_text())
    assert set(golden) == set(W)
    for seeds in golden.values():
        assert set(seeds) == {str(seed) for seed in range(GOLDEN_SEEDS)}
    assert run.load_golden("honest-grid-10k", GOLDEN_SEEDS - 1)
    assert capsys.readouterr().err == ""
    assert run.load_golden("honest-grid-10k", GOLDEN_SEEDS) == []
    assert "records no digests" in capsys.readouterr().err


def test_digests_must_agree_between_sessions(monkeypatch):
    distinct = iter(range(10**6))
    monkeypatch.setattr(workloads, "digest_of", lambda *args: str(next(distinct)))
    log = measure.Runner(tiny_attacked(), seed=1, seconds=0).timed()
    assert log.attempted >= 2
    assert log.failed == log.attempted - 1  # all but the first


def test_end_to_end_metrics_are_never_zero():
    log = measure.Runner(tiny_count(), seed=1, seconds=0).timed()
    metrics = measure.end_to_end_metrics(log, 1.0)
    assert log.failed == 0
    assert all(m["value"] > 0 for m in metrics.values())


def test_operation_timings_are_the_fastest_steady_sample():
    log = measure.Runner(tiny_grid(), seed=1, seconds=0).timed()
    metrics = measure.end_to_end_metrics(log, 1.0)
    assert metrics["execution_s"]["value"] == min(r.wall_s for r in log.steady)
    assert metrics["session_s"]["value"] == min(r.wall_s for r in log.steady)
    assert metrics["setup_s"]["value"] == statistics.median(log.setup_s)


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honest-grid-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in W if name in gated]
    log = measure.Runner(tiny_attacked(), seed=1, seconds=0).traced()
    assert {m["name"] for m in spec["per_layer"]} == set(measure.per_layer_metrics(log))
    assert {m["name"] for m in spec["end_to_end"]} == set(
        measure.end_to_end_metrics(log, 1.0)
    )
