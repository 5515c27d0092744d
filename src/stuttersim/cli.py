"""Command-line interface.

Exit codes: 0 success (or relation accepted), 1 relation rejected or
cross-check mismatch or failing self-test, 2 usage or parse errors.
Output on stdout is deterministic for a fixed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys

from .checker import check_preorder, find_definition_violation
from .engine import compute_preorder
from .formats import (
    ParseError,
    generate_random_ks,
    parse_ks,
    parse_relation,
    serialize_ks,
    serialize_result,
)
from .model import KripkeStructure, NotAPreorderError, ValidationError, quotient
from .reference import naive_stuttering_simulation
from .selftest import golden_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stuttersim",
        description=(
            "Compute the stuttering simulation preorder and equivalence "
            "of a Kripke structure, or check a candidate relation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute the preorder of a model")
    p_compute.add_argument("file", help="model file")
    p_compute.add_argument(
        "--emit",
        choices=["partition", "preorder", "quotient", "all"],
        default="preorder",
    )
    p_compute.add_argument(
        "--full", action="store_true", help="also emit every related state pair"
    )
    p_compute.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the result against the naive oracle",
    )
    p_compute.add_argument(
        "--trace", action="store_true", help="per-iteration progress on stderr"
    )
    p_compute.add_argument(
        "--stats", action="store_true", help="the run's counters as JSON on stderr"
    )

    p_check = sub.add_parser("check", help="check a relation on a model")
    p_check.add_argument("file", help="model file")
    p_check.add_argument("--relation", required=True, help="relation file")
    p_check.add_argument(
        "--definition",
        action="store_true",
        help="use the definitional check instead of the one-pass check",
    )

    p_gen = sub.add_parser("generate", help="emit a random model")
    p_gen.add_argument("--states", type=int, required=True)
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--labels", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)

    sub.add_parser("selftest", help="run the built-in golden examples")
    return parser


def _load_model(path: str) -> KripkeStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ks(fh.read())


def _cmd_compute(args: argparse.Namespace) -> int:
    k = _load_model(args.file)
    trace = None
    if args.trace:

        def trace(iteration, pair, splitter_size, num_blocks):
            print(
                f"iteration {iteration}: refiner blocks {pair[0]},{pair[1]} "
                f"splitter size {splitter_size}, {num_blocks} blocks",
                file=sys.stderr,
            )

    result = compute_preorder(k, trace=trace)
    if args.stats:
        import json  # here, so that other runs do not pay for loading it

        print(json.dumps(dataclasses.asdict(result.stats)), file=sys.stderr)
    if args.oracle:
        if result.state_pairs() != naive_stuttering_simulation(k):
            print("oracle cross-check failed", file=sys.stderr)
            return 1
    out: list[str] = []
    if args.emit == "partition":
        for i, members in enumerate(result.blocks):
            out.append(f"block {i}: " + " ".join(str(s) for s in members) + "\n")
    elif args.emit in ("preorder", "all"):
        out.append(serialize_result(result, full=args.full))
    if args.emit in ("quotient", "all"):
        if args.emit == "all":
            out.append("# quotient\n")
        out.append(serialize_ks(quotient(k, result.blocks)))
    sys.stdout.write("".join(out))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    k = _load_model(args.file)
    with open(args.relation, "r", encoding="utf-8") as fh:
        pairs = parse_relation(fh.read(), k)
    use_definition = args.definition
    if not use_definition:
        try:
            verdict = check_preorder(k, pairs)
        except NotAPreorderError as exc:
            print(f"note: {exc}; falling back to the definitional check", file=sys.stderr)
            use_definition = True
        else:
            if verdict.accepted:
                print("accepted")
                return 0
            print("rejected")
            if verdict.label_witness is not None:
                s, t = verdict.label_witness
                print(f"witness: related states {s} {t} have different labels")
            if verdict.refiner_witness is not None:
                b, c, state = verdict.refiner_witness
                print(
                    "witness: block {"
                    + " ".join(map(str, b))
                    + "} steps into block {"
                    + " ".join(map(str, c))
                    + f"}} but candidate state {state} cannot follow"
                )
            return 1
    violation = find_definition_violation(k, pairs)
    if violation is None:
        print("accepted")
        return 0
    print("rejected")
    kind, a, b, z = violation
    if kind == "label":
        print(f"witness: related states {a} {b} have different labels")
    else:
        print(
            f"witness: move {a} -> {b} cannot be matched from candidate {z}"
        )
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    k = generate_random_ks(args.seed, args.states, args.density, args.labels)
    sys.stdout.write(serialize_ks(k))
    return 0


def _cmd_selftest() -> int:
    failed = False
    for name, ok, detail in golden_checks():
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_selftest()
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # One run per process, and its data has no reference cycles, so the
    # cyclic GC would only rescan fresh lists; ``cli_main`` leaves it on.
    gc.disable()
    sys.exit(cli_main(sys.argv[1:]))
