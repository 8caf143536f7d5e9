"""Built-in scenarios: the paper's figures/claims as registry entries.

Each entry ports one existing experiment (`python -m repro fig7` …,
`benchmarks/bench_*.py`) onto the campaign registry so the parallel
runner, the CLI and the benches share one body of experiment code.
The full ``grid`` reproduces the paper's §IX parameters; the
``reduced_grid`` is the seconds-scale smoke slice used by CI.

Scenario functions are **pure in (params, seed)**: all randomness flows
from the per-cell seed derived in :mod:`repro.campaign.spec`, so any
subset of cells reruns to bit-identical numbers on any worker count.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from .registry import scenario


@scenario(
    "fig7",
    description="Figure 7: honest sensors mis-revoked vs revocation threshold theta",
    grid={
        "nodes": (1_000, 10_000),
        "malicious": (1, 5, 10, 20),
        "trials": (100,),
        "theta_max": (40,),
    },
    reduced_grid={
        "nodes": (300,),
        "malicious": (1, 3),
        "trials": (5,),
        "theta_max": (12,),
    },
)
def fig7_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Monte-Carlo mis-revocation sweep (paper Figure 7, Section IX)."""
    from ..analysis import misrevocation_trials
    from ..config import KeyConfig
    from ..errors import ConfigError

    theta_max = int(params["theta_max"])
    series = misrevocation_trials(
        int(params["nodes"]),
        int(params["malicious"]),
        range(1, theta_max + 1),
        trials=int(params["trials"]),
        key_config=KeyConfig(),
        seed=seed,
    )
    try:
        safe_theta = float(series.smallest_theta_below(1.0))
    except ConfigError:
        safe_theta = -1.0  # no tested theta was safe on this grid slice
    return {
        "safe_theta": safe_theta,
        "misrevoked_at_theta_max": series.avg_misrevoked[theta_max],
        "misrevoked_at_theta_1": series.avg_misrevoked[1],
    }


@scenario(
    "fig8",
    description="Figure 8: relative error of the COUNT synopsis estimator",
    grid={
        "count": (10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000),
        "synopses": (100,),
        "trials": (200,),
    },
    reduced_grid={
        "count": (50, 500),
        "synopses": (50,),
        "trials": (40,),
    },
)
def fig8_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Distributional COUNT-error trials (paper Figure 8, Section IX)."""
    from ..analysis import count_error_trials

    count = int(params["count"])
    series = count_error_trials(
        [count],
        num_synopses=int(params["synopses"]),
        trials=int(params["trials"]),
        seed=seed,
    )
    return {
        "avg_rel_error": series.average(count),
        "p50_rel_error": series.percentile(count, 50),
        "p90_rel_error": series.percentile(count, 90),
        "p99_rel_error": series.percentile(count, 99),
    }


@scenario(
    "comm",
    description="Section IX bottleneck-byte comparison: VMAT vs naive collect-all",
    grid={"nodes": (10_000,), "synopses": (100,)},
    reduced_grid={"nodes": (1_000, 10_000), "synopses": (100,)},
)
def comm_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Closed-form §IX communication comparison (seed-independent)."""
    from ..baselines import vmat_query_cost
    from ..baselines.naive import NAIVE_REPORT_BYTES
    from ..config import ProtocolConfig

    vmat = vmat_query_cost(ProtocolConfig(num_synopses=int(params["synopses"])))
    naive = int(params["nodes"]) * NAIVE_REPORT_BYTES
    return {
        "vmat_bytes": float(vmat),
        "naive_bytes": float(naive),
        "naive_over_vmat": naive / vmat,
    }


@scenario(
    "rounds",
    description="Theorem 2: O(1) flooding rounds vs set-sampling's Omega(log n)",
    grid={"nodes": (50, 100, 200, 400), "trace": (0,)},
    reduced_grid={"nodes": (40, 80), "trace": (0,)},
)
def rounds_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """One honest VMAT execution on a random geometric deployment.

    Measures flooding rounds against the set-sampling cost model and
    snapshots the network's :class:`~repro.metrics.Metrics` accumulator.
    With ``trace=1`` a :class:`~repro.tracing.Tracer` is attached and
    event counts are reported — exercised by the campaign tests to prove
    trace capture works under the parallel runner.
    """
    from .. import MinQuery, VMATProtocol, build_deployment, small_test_config
    from ..baselines import SetSamplingCostModel
    from ..errors import ReproError
    from ..topology import random_geometric_topology
    from ..topology.generators import recommended_radius
    from ..tracing import Tracer

    n = int(params["nodes"])
    topology = random_geometric_topology(n, recommended_radius(n), seed=seed)
    deployment = build_deployment(
        config=small_test_config(depth_bound=12), topology=topology, seed=seed
    )
    tracer = Tracer.attach(deployment.network) if int(params.get("trace", 0)) else None
    protocol = VMATProtocol(deployment.network)
    readings = {i: 10.0 + (i % 9) for i in topology.sensor_ids}
    result = protocol.execute(MinQuery(), readings)
    if not result.produced_result:
        raise ReproError(f"honest execution failed to produce a result at n={n}")

    net = deployment.network.metrics.summary()
    metrics = {
        "vmat_rounds": float(result.flooding_rounds),
        "set_sampling_rounds": float(SetSamplingCostModel().flooding_rounds(n)),
        "net_total_bytes": net["total_bytes"],
        "net_total_messages": net["total_messages"],
    }
    if tracer is not None:
        counts = tracer.counts()
        metrics["trace_events"] = float(len(tracer))
        metrics["trace_transmissions"] = float(counts["transmission"])
        metrics["trace_broadcasts"] = float(counts["authenticated-broadcast"])
    return metrics


@scenario(
    "chaos",
    description=(
        "Benign-failure safety: executions under an injected fault plan "
        "must degrade (lose messages, go inconclusive) but never revoke"
    ),
    grid={
        "nodes": (36, 64),
        "profile": ("crash", "partition", "burst", "clock", "mixed"),
        "executions": (3,),
    },
    reduced_grid={
        "nodes": (16,),
        "profile": ("crash", "burst", "mixed"),
        "executions": (2,),
    },
)
def chaos_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Honest executions on a grid deployment under benign fault injection.

    ``nodes`` must be a perfect square (grid side = sqrt(nodes), base
    station at the corner).  The fault plan comes from the optional
    ``fault_plan`` axis (a :class:`~repro.faults.FaultPlan` as canonical
    JSON — this is what ``campaign run --fault-plan`` injects) or, when
    absent, from the deterministic :func:`~repro.faults.chaos_plan`
    preset named by ``profile``.

    The benign-failure safety property is enforced *inside* the cell:
    any revocation under a benign-only plan raises, failing the cell
    loudly rather than reporting a quietly-poisoned metric.
    """
    import math

    from .. import MinQuery, VMATProtocol, build_deployment, small_test_config
    from ..errors import ConfigError, ReproError
    from ..faults import FaultInjector, FaultPlan, chaos_plan
    from ..topology import grid_topology

    n = int(params["nodes"])
    side = math.isqrt(n)
    if side * side != n or side < 2:
        raise ConfigError(f"chaos 'nodes' must be a perfect square >= 4, got {n}")
    executions = int(params["executions"])
    depth_bound = 2 * (side - 1)  # BFS depth of a grid from its corner

    topology = grid_topology(side, side)
    deployment = build_deployment(
        config=small_test_config(depth_bound=depth_bound), topology=topology, seed=seed
    )
    network = deployment.network

    plan_json = params.get("fault_plan")
    if plan_json:
        plan = FaultPlan.from_json(str(plan_json))
    else:
        plan = chaos_plan(
            str(params["profile"]), topology.num_nodes, depth_bound, seed,
            executions=executions,
        )
    FaultInjector(plan, seed=seed).attach(network)

    protocol = VMATProtocol(network)
    readings = {i: 10.0 + (i % 9) for i in topology.sensor_ids}
    results_produced = inconclusive = 0
    for _ in range(executions):
        result = protocol.execute(MinQuery(), readings)
        if result.revocations:
            raise ReproError(
                f"benign fault plan {plan.name!r} caused revocations "
                f"{[ (e.kind, e.target) for e in result.revocations ]} — "
                "an honest sensor was punished for a failure"
            )
        if result.produced_result:
            results_produced += 1
        else:
            inconclusive += 1

    net = network.metrics.summary()
    return {
        "results_produced": float(results_produced),
        "inconclusive": float(inconclusive),
        "revocations": 0.0,  # enforced above; kept for regression diffs
        "messages_lost": net["messages_lost"],
        "faults_injected": net["faults_injected"],
        "crash_intervals": net["crash_intervals"],
        "partition_intervals": net["partition_intervals"],
        "flooding_rounds": net["flooding_rounds"],
    }


@scenario(
    "scale",
    description=(
        "Bit-identity reference cell for the scale layer: disabled-vs-warm "
        "executions on one deployment must produce identical metrics"
    ),
    grid={
        "kind": ("grid", "line"),
        "nodes": (100,),
        "executions": (2,),
    },
    reduced_grid={
        "kind": ("grid",),
        "nodes": (100,),
        "executions": (2,),
    },
)
def scale_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Zero-tolerance anchor for the large-topology optimization layer.

    Runs :func:`repro.perf.scale.reference_equality` on the issue's
    100-node reference cell: a cache-bypassed leg and a cold-started
    warm leg must agree byte-for-byte on ``Metrics.to_dict()``.  Every
    returned number is deterministic in (params, seed), so campaign
    store diffs gate this cell at zero tolerance — any observable drift
    introduced by a future optimization fails the comparison instead of
    hiding inside a timing threshold.
    """
    from ..perf.scale import reference_equality

    return reference_equality(
        str(params["kind"]), int(params["nodes"]), int(params["executions"]), seed
    )


@scenario(
    "service",
    description=(
        "Service-runtime equivalence: the same seeded session over real "
        "node-host processes vs the in-process simulator, bit-for-bit"
    ),
    grid={
        "nodes": (25,),
        "processes": (2, 3),
        "transport": ("sim", "service"),
        "attack": ("none", "spurious-veto"),
    },
    reduced_grid={
        "nodes": (25,),
        "processes": (2,),
        "transport": ("sim", "service"),
        "attack": ("spurious-veto",),
    },
)
def service_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """One seeded VMAT session driven through the selected transport.

    ``transport="sim"`` runs the session entirely in-process;
    ``transport="service"`` launches a loopback deployment of asyncio
    node-host OS processes *and* the in-process control leg, and the
    bit-for-bit equivalence gate is enforced inside the cell: any
    divergence in estimate, outcomes, revocation set or protocol-level
    metrics raises, failing the cell loudly.  ``theta`` is lowered to 6
    so the attacked cells converge in seconds (the service transport is
    deterministic, so the threshold only affects session length).
    """
    from ..errors import ReproError
    from ..service import ServiceSpec, run_equivalence, run_sim_session

    attack_name = str(params["attack"])
    attack = None if attack_name == "none" else attack_name
    spec = ServiceSpec(
        num_nodes=int(params["nodes"]),
        processes=int(params["processes"]),
        seed=seed,
        malicious_ids=(5,) if attack else (),
        theta=6,
    )
    if str(params["transport"]) == "service":
        report = run_equivalence(spec, attack=attack)
        if not report.matches:
            raise ReproError(
                "service/simulator divergence: " + "; ".join(report.diffs)
            )
        run = report.service
        equivalence_checked = 1.0
    else:
        run = run_sim_session(spec, attack=attack)
        equivalence_checked = 0.0

    summary = run.metrics.summary()
    return {
        "estimate": float(run.estimate) if run.estimate is not None else -1.0,
        "executions": float(run.num_executions),
        "revocations": float(len(run.revocations)),
        "equivalence_checked": equivalence_checked,
        "net_total_messages": summary["total_messages"],
        "net_total_bytes": summary["total_bytes"],
    }


@scenario(
    "service-chaos",
    description=(
        "Service-runtime resilience under injected failures: kill timing x "
        "restart budget x connect flakiness, with in-cell equivalence "
        "(within budget) and benign-degradation gates (past budget)"
    ),
    grid={
        "nodes": (25,),
        "processes": (2,),
        "kill_interval": (3, 7),
        "budget": (0, 1),
        "refuse": (0, 1),
    },
    reduced_grid={
        "nodes": (25,),
        "processes": (2,),
        "kill_interval": (3,),
        "budget": (0, 1),
        "refuse": (1,),
    },
)
def service_chaos_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """One attacked service session with a host killed mid-session.

    Host 0 is SIGKILLed just before the tick of ``kill_interval``;
    ``refuse=1`` additionally makes its first control connect flaky (one
    synthetic refusal, retried on the seeded backoff schedule).  The
    resilience contract is enforced *inside* the cell:

    * ``budget >= 1`` — the session must match the in-process simulator
      bit-for-bit (estimate, outcomes, revocation set, protocol metrics):
      journal-replay recovery is invisible at the protocol level.
    * ``budget == 0`` — the host is degraded to benign crash faults; the
      session must complete INCONCLUSIVE with *zero* revocations and
      honest-node-safety intact (process failure is never malicious).

    The protocol seed is pinned (not the campaign cell seed): θ=6 is a
    fast-cascade setting calibrated for this topology seed.  At an
    arbitrary seed a low θ can mis-revoke an honest sensor through
    adversary-shared ring keys — the paper's §VI-C/Figure 7 phenomenon,
    which the fig7 scenario measures on purpose — and that would trip
    this cell's honest-node-safety gate for reasons unrelated to
    resilience.  Every returned number is deterministic in (params), so
    the campaign store's regression comparison gates this scenario at
    zero tolerance.
    """
    from ..errors import ReproError
    from ..service import (
        ChaosPlan,
        KillHost,
        RefuseConnect,
        ServiceSpec,
        run_chaos,
        run_sim_session,
        strip_runtime_metrics,
    )

    del seed  # see docstring: θ=6 is calibrated for the pinned seed
    budget = int(params["budget"])
    spec = ServiceSpec(
        num_nodes=int(params["nodes"]),
        processes=int(params["processes"]),
        seed=0,
        malicious_ids=(5,),
        theta=6,
        detection_window_s=2.0,
        heartbeat_interval_s=0.2,
        retry_base_s=0.02,
        retry_max_s=0.1,
        peer_ack_timeout_s=0.5,
        restart_budget=budget,
    )
    refusals = ()
    if int(params["refuse"]):
        refusals = (RefuseConnect(host=0, incarnation=1, attempts=1),)
    plan = ChaosPlan(
        name=f"campaign-k{params['kill_interval']}-b{budget}",
        kills=(KillHost(host=0, interval=int(params["kill_interval"])),),
        refusals=refusals,
    )
    report = run_chaos(spec, plan, attack="spurious-veto")
    outcome = report.outcome
    if not report.safe:
        raise ReproError(
            "honest-node-safety violated under chaos: "
            + "; ".join(report.safety_violations)
        )

    equivalence_checked = 0.0
    if budget >= 1:
        sim = run_sim_session(spec, attack="spurious-veto")
        diffs = []
        if outcome["estimate"] != sim.estimate:
            diffs.append(f"estimate {outcome['estimate']} != {sim.estimate}")
        if outcome["outcomes"] != sim.outcomes:
            diffs.append(f"outcomes {outcome['outcomes']} != {sim.outcomes}")
        if outcome["revocations"] != [list(r) for r in sim.revocations]:
            diffs.append("revocation sets differ")
        sim_metrics = strip_runtime_metrics(sim.metrics.to_dict())
        if outcome["metrics"] != sim_metrics:
            diffs.append("protocol metrics differ")
        if diffs:
            raise ReproError(
                "kill+restart session diverged from the simulator: "
                + "; ".join(diffs)
            )
        equivalence_checked = 1.0
    else:
        if outcome["degraded_hosts"] != [0]:
            raise ReproError(
                f"expected host 0 degraded, got {outcome['degraded_hosts']}"
            )
        if outcome["outcomes"][-1] != "inconclusive":
            raise ReproError(
                "past-budget session must end inconclusive, got "
                f"{outcome['outcomes']}"
            )
        if outcome["revocations"]:
            raise ReproError(
                f"benign degradation revoked {outcome['revocations']}"
            )

    return {
        "estimate": (
            float(outcome["estimate"]) if outcome["estimate"] is not None else -1.0
        ),
        "executions": float(outcome["num_executions"]),
        "revocations": float(len(outcome["revocations"])),
        "restarts": float(sum(outcome["restarts"].values())),
        "degraded_hosts": float(len(outcome["degraded_hosts"])),
        "safety_ok": 1.0,  # enforced above; kept for regression diffs
        "equivalence_checked": equivalence_checked,
    }
