"""Write pins.json: the program's exact outputs at the commit that defined
the benchmark.

For each workload it records the engine's RunStats counts, which every
renumbering shares, and for seeds 0 to SEEDS - 1 the sha256 of the
``check_reject`` stdout, the one output the reference does not derive.
Every output is checked before anything is written.  Later changes must
keep these values, so rerun this only with a change that is meant to
alter the output or the counts:

    python3 bench/make_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SEEDS = 32


def pin_seed(name: str, seed: int) -> tuple[str, object]:
    """The ``check_reject`` digest and the RunStats of one seed."""
    with harness.scratch_dir() as workdir:
        run = harness.Run(name, seed, workloads.MODEL_SEED, False, workdir)
        harness.prepare(run)
        tracer = layers.Tracer()
        digests: dict[str, str] = {}
        with tracer.installed():
            for op in run.ops:
                _, code, stdout = harness.run_in_process(op)
                failure = op.failure(code, stdout)
                if failure is not None:
                    raise SystemExit(f"{name} seed {seed}: {failure}")
                digests[op.name] = harness.sha256(stdout)
    stats = tracer.run_stats[0]  # of the workload's main compute
    return digests["check_reject"], stats


def main() -> int:
    out = {"model_seed": workloads.MODEL_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry: dict = {"check_reject": {}}
        for seed in range(SEEDS):
            digest, stats = pin_seed(name, seed)
            for key in harness.RUN_STATS:
                if entry.setdefault(key, getattr(stats, key)) != getattr(stats, key):
                    raise SystemExit(f"{name}: {key} differs between renumberings")
            entry["check_reject"][str(seed)] = digest
            print(name, seed, stats, flush=True)
        out["workloads"][name] = entry
    harness.PINS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
