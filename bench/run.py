"""Benchmark of ``stuttersim compute`` and ``stuttersim check``.

Run from the repository root:

    python3 bench/run.py --workload sparse --seed 7 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last stdout line is the JSON result; the line before it holds
the run's details (Python version, git sha, nproc, seeds, wall times,
failures).  Both are also written under ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["sparse", "frontend"])
    parser.add_argument("--seed", type=int, default=7, help="seeds the state renumbering")
    parser.add_argument(
        "--model-seed", type=int, default=7, help="seeds the generated base model"
    )
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small models, for harness tests")
    args = parser.parse_args(argv)
    if not (SRC / "stuttersim" / "cli.py").is_file():
        print(f"error: no stuttersim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    result, detail = harness.execute(
        args.workload, args.seed, args.model_seed, args.seconds, bool(args.trace), args.smoke
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
