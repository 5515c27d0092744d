"""Command-line interface.

Exit codes: 0 success (or relation accepted), 1 relation rejected or
cross-check mismatch or failing self-test, 2 usage, read or parse errors.
Output on stdout is deterministic for a fixed input file.
"""

from __future__ import annotations

import argparse
import sys

from .formats import (
    ParseError,
    _block_lines,
    _pair_lines,
    generate_random_ks,
    parse_ks,
    parse_relation,
    serialize_ks,
    serialize_result,
)
from .model import NotAPreorderError, ValidationError
from .model import _quotient as quotient  # lifts the engine's own, valid partition

# Each command imports only the modules it runs, when it runs: without a
# bytecode cache, every module a process loads is compiled first.
# ``_cmd_compute`` and ``_cmd_check`` look these two names up at call
# time, so a caller may replace them on this module.


def compute_preorder(*args, **kwargs):
    """``engine.compute_preorder``; the first call imports the engine."""
    from .engine import compute_preorder

    return compute_preorder(*args, **kwargs)


def check_preorder(*args, **kwargs):
    """``checker.check_preorder``; the first call imports the checker."""
    from .checker import check_preorder

    return check_preorder(*args, **kwargs)


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


def _read(path: str) -> str:
    """The text of ``path``; a byte that is not UTF-8 names the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
        raise ValidationError(f"{exc} ({path}, line {line})") from None


def _cmd_compute(args: argparse.Namespace) -> int:
    k = parse_ks(_read(args.file))
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
        import json

        print(json.dumps(result.stats._asdict()), file=sys.stderr)
    if args.oracle:
        from .reference import naive_stuttering_simulation

        if result.state_pairs() != naive_stuttering_simulation(k):
            print("oracle cross-check failed", file=sys.stderr)
            return 1
    write = sys.stdout.write
    if args.emit == "partition":
        write("".join(line + "\n" for line in _block_lines(result.blocks)))
    elif args.emit in ("preorder", "all"):
        write(serialize_result(result))
        for text in _pair_lines(result) if args.full else ():
            write(text)
    if args.emit in ("quotient", "all"):
        if args.emit == "all":
            write("# quotient\n")
        write(serialize_ks(quotient(k, result.blocks, result.block_of)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    k = parse_ks(_read(args.file))
    pairs = parse_relation(_read(args.relation), k)
    try:
        verdict = None if args.definition else check_preorder(k, pairs)
    except NotAPreorderError as exc:
        print(f"note: {exc}; falling back to the definitional check", file=sys.stderr)
        verdict = None
    if verdict is None:
        from .checker import check_definition

        verdict = check_definition(k, pairs)
    print("accepted" if verdict.accepted else "rejected")
    if verdict.label_witness is not None:
        s, t = verdict.label_witness
        print(f"witness: related states {s} {t} have different labels")
    if verdict.refiner_witness is not None:
        *blocks, state = verdict.refiner_witness
        b, c = (" ".join(map(str, block)) for block in blocks)
        print(
            f"witness: block {{{b}}} steps into block {{{c}}} "
            f"but candidate state {state} cannot follow"
        )
    if verdict.move_witness is not None:
        x, y, z = verdict.move_witness
        print(f"witness: move {x} -> {y} cannot be matched from candidate {z}")
    return 0 if verdict.accepted else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    k = generate_random_ks(args.seed, args.states, args.density, args.labels)
    sys.stdout.write(serialize_ks(k))
    return 0


def _cmd_selftest() -> int:
    from .selftest import golden_checks

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
    import gc

    gc.disable()
    sys.exit(cli_main(sys.argv[1:]))
