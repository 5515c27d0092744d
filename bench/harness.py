"""Closed-loop end-to-end runs and traced per-layer runs of one workload.

End to end: one client runs ``python -m stuttersim`` children one at a
time, cycling through the workload's operations, and times each
from spawn to stdout EOF; each child reports its own peak RSS.  Every
time is scaled to a reference machine speed, measured by a fixed
kernel run on the same core right before and right after it.  Per layer:
the same operations run in process through ``stuttersim.cli.cli_main``,
alternately untraced and traced (see ``layers``).  Every output is
checked against the reference of ``workloads`` and, where present, the
values pinned in ``pins.json``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import stuttersim.cli

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

MIN_CYCLES = 3  # end-to-end medians rest on at least this many samples per operation
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 60.0
# The machine's speed swings by up to 1.6x, per core, over seconds to
# minutes, so raw medians of one run differ between runs by more than any
# bound.  A fixed kernel timed between the samples gauges that speed.
KERNEL_SIZE = 40000
KERNEL_RUNS = 3
# Seconds of one speed_kernel run at the reference speed: its typical time
# on the 2-core Xeon machine the benchmark was written on.
REFERENCE_KERNEL_S = 0.018

END_TO_END_UNITS = {
    "compute_s": "s",
    "check_accept_s": "s",
    "check_reject_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Counts reported per layer besides self time: metric suffix -> source.
LAYER_COUNTS = {
    "formats.parse_ks.bytes": ("formats.parse_ks", "work", "bytes"),
    "formats.parse_relation.pairs": ("formats.parse_relation", "work", "count"),
    "model.KripkeStructure.calls": ("model.KripkeStructure", "calls", "count"),
    "preprocess.collapse_inert_sccs.states_out": (
        "preprocess.collapse_inert_sccs", "work", "count",
    ),
    "engine.find_refiner.calls": ("engine.find_refiner", "calls", "count"),
    "engine.pos_ordered.states_in": ("engine.pos_ordered", "work", "count"),
    "checker.sink_components.calls": ("checker.sink_components", "calls", "count"),
}
RUN_STATS = ("iterations", "blocks_created", "final_blocks")
# Operations run end to end; the others only make layers run in traced passes.
TIMED_OPS = ("compute", "check_accept", "check_reject")


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@dataclass
class Op:
    """One CLI operation and what its output must be."""

    name: str
    argv: list[str]
    exit_code: int
    verdict: str | None  # required first stdout line
    digests: set[str]  # every stdout must hash to each of these
    walls: list[float] = field(default_factory=list)  # as measured

    def failure(self, code: int, stdout: bytes) -> str | None:
        if code != self.exit_code:
            return f"{self.name}: exit code {code}, expected {self.exit_code}"
        if self.verdict is not None and stdout.split(b"\n", 1)[0] != self.verdict.encode():
            return f"{self.name}: wrong verdict {stdout[:40]!r}"
        digest = sha256(stdout)
        if not self.digests:
            self.digests.add(digest)  # later outputs must repeat the first one
        if self.digests != {digest}:
            return f"{self.name}: stdout sha256 {digest[:12]} does not match"
        return None


@dataclass
class Run:
    workload: str
    seed: int
    model_seed: int
    smoke: bool
    workdir: Path
    inputs: workloads.Inputs | None = None
    ops: list[Op] = field(default_factory=list)
    pin: dict = field(default_factory=dict)
    setup_times: list[float] = field(default_factory=list)
    kernel_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)


def apply_pins(run: Run) -> None:
    """Pinned RunStats counts of the workload and ``check_reject`` stdout
    digest of the seed, when ``pins.json`` holds them.  The other outputs
    are derived from the reference."""
    pins = json.loads(PINS.read_text())
    if run.smoke or run.model_seed != pins["model_seed"]:
        return
    run.pin = pins["workloads"][run.workload]
    digest = run.pin["check_reject"].get(str(run.seed))
    if digest is not None:
        next(op for op in run.ops if op.name == "check_reject").digests.add(digest)


def set_up(run: Run) -> dict[str, Path]:
    """Write the run's input files; timed as set-up."""
    start = time.perf_counter()
    files = workloads.set_up(
        run.workdir, run.workload, run.seed, run.model_seed, run.smoke, run.inputs
    )
    run.setup_times.append(time.perf_counter() - start)
    return files


def prepare(run: Run) -> None:
    """Reference answer (untimed), input files, and the operations."""
    name = run.workload
    inputs = run.inputs = workloads.prepare(name, run.seed, run.model_seed, run.smoke)
    files = set_up(run)

    def compute(op: str, file: str, model, answer: workloads.Answer, flags: list[str]) -> Op:
        expected = workloads.expected_compute_stdout(model, answer, flags)
        return Op(op, ["compute", str(files[file]), *flags], 0, None, {sha256(expected)})

    check = ["check", str(files["check_model"]), "--relation"]
    accepted = sha256("accepted\n")
    run.ops = [
        compute("compute", "model", inputs.model, inputs.answer, workloads.COMPUTE_FLAGS[name]),
        Op("check_accept", [*check, str(files["accept"])], 0, "accepted", {accepted}),
        Op("check_reject", [*check, str(files["reject"])], 1, "rejected", set()),
    ]
    flags = workloads.CHECK_MODEL_COMPUTE_FLAGS.get(name)
    if flags:
        run.ops.append(compute(
            "compute_check_model", "check_model", inputs.check_model, inputs.check_answer, flags
        ))


def speed_kernel() -> int:
    """Fixed pure-Python work of the kinds the program does: building
    dicts of lists, integer arithmetic, iteration and sorting."""
    table: dict[int, list[int]] = {}
    for i in range(KERNEL_SIZE):
        table.setdefault(i * 7919 % 4093, []).append(i)
    total = 0
    for key, values in table.items():
        for v in values:
            total += v ^ key
    order = sorted(table, key=lambda k: (len(table[k]), k))
    return total + order[0]


def kernel_time() -> float:
    """Seconds of one ``speed_kernel`` run at the machine's present speed:
    the median of a few runs."""
    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_env(hash_seed: int) -> dict[str, str]:
    # A different hash seed per child: output must not depend on it.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))


# ``python -m stuttersim`` that also reports its peak RSS on stderr.  The
# child reads its own VmHWM: the ``ru_maxrss`` that ``os.wait4`` gives
# also counts the memory of this process, since the child starts as a
# copy of it.
PEAK_MARKER = "bench-peak-kb "
CHILD_MAIN = f"""
import atexit, runpy, sys
def report_peak():
    with open("/proc/self/status") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_MARKER}" + peak.split()[1] + "\\n")
atexit.register(report_peak)
sys.argv[0] = "stuttersim"
runpy.run_module("stuttersim", run_name="__main__", alter_sys=True)
"""


def run_child(
    op: Op, env: dict[str, str], stderr_path: Path
) -> tuple[float, float, str | None]:
    """Wall seconds to stdout EOF, peak RSS in MB, failure or None."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD_MAIN, *op.argv],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
        finally:
            timer.cancel()
            wall = time.perf_counter() - start
            proc.wait()
            proc.stdout.close()
    failure = op.failure(proc.returncode, stdout)
    peaks = [
        line[len(PEAK_MARKER):]
        for line in stderr_path.read_text().splitlines()
        if line.startswith(PEAK_MARKER)
    ]
    if not peaks and failure is None:
        failure = f"{op.name}: no peak RSS reported"
    return wall, int(peaks[-1]) / 1024 if peaks else 0.0, failure


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    # One core for this process and its children, so that the speed
    # kernel runs where the timed work runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return timed_cycles(run, seconds)
    finally:
        os.sched_setaffinity(0, cpus)


def timed_cycles(run: Run, seconds: float) -> dict[str, float]:
    rng = random.Random(run.seed)
    ops = [op for op in run.ops if op.name in TIMED_OPS]
    # Warm-up: byte-compile the package before timing.
    subprocess.run(
        [sys.executable, "-c", "import stuttersim.cli"], env=child_env(0), cwd=ROOT, check=True
    )
    peak_rss = 0.0
    run.kernel_times.append(kernel_time())

    def at_reference_speed(wall: float) -> float:
        """``wall`` scaled by the reference kernel time over the mean of
        the kernel times right before and right after it."""
        before = run.kernel_times[-1]
        run.kernel_times.append(kernel_time())
        return wall * 2 * REFERENCE_KERNEL_S / (before + run.kernel_times[-1])

    setup_s: list[float] = []
    samples: dict[str, list[float]] = {op.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        # Set up again each cycle, so that set-up is sampled over the
        # whole run, like the operations, and not in its first second.
        set_up(run)
        setup_s.append(at_reference_speed(run.setup_times[-1]))
        for op in ops:
            env = child_env(rng.randrange(1, 2**32))
            wall, rss, failure = run_child(op, env, run.workdir / "stderr.txt")
            op.walls.append(wall)
            samples[op.name].append(at_reference_speed(wall))
            peak_rss = max(peak_rss, rss)
            run.record(failure)
        cycles += 1
    return {
        "compute_s": statistics.median(samples["compute"]),
        "check_accept_s": statistics.median(samples["check_accept"]),
        "check_reject_s": statistics.median(samples["check_reject"]),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_s),
    }


def run_in_process(op: Op) -> tuple[float, int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = stuttersim.cli.cli_main(op.argv)
    return time.perf_counter() - start, code, out.getvalue().encode()


def stats_failure(run: Run, tracer: layers.Tracer) -> str | None:
    """Compare the RunStats of the pass's first compute with the pinned counts."""
    if not run.pin:
        return None
    if not tracer.run_stats:
        return "no compute_preorder result seen"
    stats = tracer.run_stats[0]
    for key in RUN_STATS:
        if key in run.pin and getattr(stats, key) != run.pin[key]:
            return f"RunStats.{key} = {getattr(stats, key)}, pinned {run.pin[key]}"
    return None


def in_process_pass(run: Run, tracer: layers.Tracer | None = None) -> float:
    """Run every op once through ``cli_main``; returns the summed wall time."""
    wall = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in run.ops:
            gc.collect()
            elapsed, code, stdout = run_in_process(op)
            wall += elapsed
            failure = op.failure(code, stdout)
            if failure is None and tracer and op.name == "compute":
                failure = stats_failure(run, tracer)
            run.record(failure)
    return wall


def per_layer(
    run: Run, seconds: float
) -> tuple[dict[str, float], list, dict[str, float]]:
    """Pairs of untraced and traced in-process passes over the ops."""
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracers: list[layers.Tracer] = []
    deadline = time.perf_counter() + seconds
    while len(tracers) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        tracer = layers.Tracer()
        # Alternate which side of the pair runs first, so that neither
        # alone pays for the process's first large allocations.
        if len(tracers) % 2:
            traced_walls.append(in_process_pass(run, tracer))
            untraced_walls.append(in_process_pass(run))
        else:
            untraced_walls.append(in_process_pass(run))
            traced_walls.append(in_process_pass(run, tracer))
        tracers.append(tracer)
    summaries = [t.summary() for t in tracers]
    spans = [t.spans for t in tracers]
    main_stats = tracers[-1].run_stats[0]
    compute = run.ops[0]
    peak_mb = layers.engine_init_peak_mb(lambda: run_in_process(compute))

    metrics: dict[str, float] = {}
    for name in layers.LAYERS:
        metrics[f"{name}.self_s"] = statistics.median(
            s[name]["self_s"] for s in summaries
        )
    first = summaries[0]
    for metric, (name, key, _) in LAYER_COUNTS.items():
        metrics[metric] = first[name][key]
    metrics["engine.init.peak_mb"] = peak_mb
    split = first["engine.split"]
    metrics["engine.split.useful_ratio"] = (
        split["work"] / split["calls"] if split["calls"] else 0.0
    )
    for key in RUN_STATS:  # of the workload's main compute, as pinned
        metrics[f"engine.{key}"] = getattr(main_stats, key)
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.coverage"] = statistics.median(
        sum(row["self_s"] for name, row in s.items() if name != layers.ROOT) / wall
        for s, wall in zip(summaries, traced_walls)
    )
    walls = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return metrics, spans, walls


def layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in layers.LAYERS}
    units.update({metric: unit for metric, (_, _, unit) in LAYER_COUNTS.items()})
    units["engine.init.peak_mb"] = "MB"
    units["engine.split.useful_ratio"] = "ratio"
    units.update({f"engine.{key}": "count" for key in RUN_STATS})
    units["trace.overhead_ratio"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory for one run's input files, removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"work-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path)


def execute(
    workload: str, seed: int, model_seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    spans: list = []
    with scratch_dir() as workdir:
        run = Run(workload, seed, model_seed, smoke, workdir)
        prepare(run)
        apply_pins(run)
        if trace:
            values, spans, walls = per_layer(run, seconds)
            units = layer_units()
        else:
            values = end_to_end(run, seconds)
            walls = {
                "untraced_wall_s": sum(statistics.median(op.walls) for op in run.ops if op.walls),
                "traced_wall_s": None,
            }
            units = END_TO_END_UNITS
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "model_seed": model_seed,
        "smoke": smoke,
        "trace": trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        **walls,
        "fail_ratio": failed / run.attempted,
        "failures": run.failures[:20],
        "samples": {
            op.name: {
                "n": len(op.walls),
                "median": statistics.median(op.walls),
                "walls": op.walls,
            }
            for op in run.ops
            if op.walls
        },
        "setup_s_samples": run.setup_times,
        "kernel_times": run.kernel_times,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"detail": detail, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    return result, detail
