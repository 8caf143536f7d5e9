"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload honest-grid-10k --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/`` beside this directory.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics (see README.md).
The second-to-last line is a report with the host fingerprint, the seed,
sample counts and digests; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"


def import_program():
    """Put this checkout's ``src`` first on the path and import from it.

    Exits non-zero, printing no result, when the checkout holds no
    program: a benchmark that silently measured some other installed
    copy would be worse than none.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden(workload: str, seed: int):
    """The recorded digests of this seed's first operations.

    A seed outside the recorded range gets none, and says so: its
    outputs are then checked by the oracles and between sessions only.
    """
    pinned = json.loads(GOLDEN.read_text()).get(workload, {})
    if str(seed) not in pinned:
        print(
            f"perfbench: warning: golden.json records no digests for {workload} "
            f"seed {seed} (it records {len(pinned)} seeds, 0..{len(pinned) - 1})",
            file=sys.stderr,
        )
    return pinned.get(str(seed), [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    golden = load_golden(workload.name, args.seed)
    runner = measure.Runner(workload, args.seed, args.seconds, golden=golden)
    if args.trace:
        log = runner.traced()
        metrics = measure.per_layer_metrics(log)
    else:
        log = runner.timed()
        metrics = measure.end_to_end_metrics(log, peak_rss_mb())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "load": "one process, one closed-loop client",
        "samples": {
            "setup": len(log.setup_s),
            "cold": len(log.cold),
            "steady": len(log.steady),
            "traced": len(log.traced),
            "untraced": len(log.untraced),
        },
        "cold_execution_s": [r.wall_s / r.executions for r in log.cold],
        "steady_s": [r.wall_s for r in log.steady],
        "dominant_layer": measure.dominant_layer(log),
        "digests": sorted(set(log.digests)),
        "golden_checked": len(golden),
        "failures": log.failures,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
