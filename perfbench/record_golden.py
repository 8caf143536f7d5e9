"""Record the digests every seed's client session must reproduce.

    python3 perfbench/record_golden.py

Writes ``golden.json`` beside this file: for each workload and each seed
in ``0 .. GOLDEN_SEEDS-1``, the digests of every operation of one client
session on a freshly built deployment: the cold operation, then the
warm ones.  ``run.py`` fails any operation whose digest differs.
Re-record only when a change is meant to alter simulated outputs, and
say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, import_program

#: Seeds ``0 .. GOLDEN_SEEDS-1`` are pinned; run.py warns on any other.
GOLDEN_SEEDS = 100


def golden_digests(workload, seed: int) -> list:
    from repro.perf.cache import clear_caches

    clear_caches()
    session = workload.session(workload.build(), seed)
    return [session.operate().digest for _ in range(1 + workload.warm_ops_per_session)]


def main() -> int:
    import_program()
    from workloads import WORKLOADS

    golden = {
        name: {str(seed): golden_digests(workload, seed) for seed in range(GOLDEN_SEEDS)}
        for name, workload in WORKLOADS.items()
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
