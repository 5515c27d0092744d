"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` wraps the program's functions and methods where
their callers look them up (``stuttersim.cli.parse_ks``,
``stuttersim.engine.collapse_inert_sccs``, methods on their classes)
and restores them on exit; ``src/`` is never edited.  Each call records
a span ``[name, start, end, parent, work]`` in memory; a layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from typing import Any, Callable, Iterator

import stuttersim.checker
import stuttersim.cli
import stuttersim.engine
import stuttersim.model

Work = Callable[[tuple, Any], float]

ROOT = "cli.cli_main"
_engine = stuttersim.engine.RefinementEngine

# layer name -> (owner, attribute, work done by one call or None)
LAYERS: dict[str, tuple[Any, str, Work | None]] = {
    ROOT: (stuttersim.cli, "cli_main", None),
    "formats.parse_ks": (stuttersim.cli, "parse_ks", lambda a, r: len(a[0].encode())),
    "formats.parse_relation": (stuttersim.cli, "parse_relation", lambda a, r: len(r)),
    "formats.serialize_result": (stuttersim.cli, "serialize_result", None),
    "formats.serialize_ks": (stuttersim.cli, "serialize_ks", None),
    "model.KripkeStructure": (stuttersim.model.KripkeStructure, "__init__", None),
    "model.quotient": (stuttersim.cli, "quotient", None),
    "model.state_pairs": (stuttersim.model.SimulationResult, "state_pairs", None),
    "preprocess.collapse_inert_sccs": (
        stuttersim.engine, "collapse_inert_sccs", lambda a, r: r[0].num_states,
    ),
    "preprocess.sort_states_locally_topological": (
        stuttersim.engine, "sort_states_locally_topological", None,
    ),
    "engine.init": (_engine, "__init__", None),
    "engine.init_counters": (_engine, "_init_counters", None),
    "engine.find_refiner": (_engine, "find_refiner", None),
    "engine.image": (_engine, "image", None),
    "engine.pos_ordered": (_engine, "pos_ordered", lambda a, r: len(a[1])),
    # work: 1 when at least one block was properly split
    "engine.split": (_engine, "split", lambda a, r: 1 if r else 0),
    "engine.splitting_procedure": (_engine, "splitting_procedure", None),
    "engine.update": (_engine, "update", None),
    "engine.refine": (_engine, "refine", None),
    "engine.build_result": (_engine, "_build_result", None),
    "checker.check_preorder": (stuttersim.cli, "check_preorder", None),
    "checker.validate_relation": (stuttersim.checker, "_validate_relation", None),
    "checker.sink_components": (stuttersim.checker, "_sink_components", None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_stats: list = []

    def _wrap(self, name: str, fn: Callable, work: Work | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if work is not None:
                spans[idx][4] = work(args, result)
            return result

        return traced

    def _capture_stats(self, fn: Callable) -> Callable:
        def compute_preorder(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.run_stats.append(result.stats)
            return result

        return compute_preorder

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer that exists in this version of the program,
        and keep the RunStats of every ``compute_preorder`` result."""
        cli = stuttersim.cli
        saved = [(cli, "compute_preorder", cli.compute_preorder)]
        cli.compute_preorder = self._capture_stats(cli.compute_preorder)
        try:
            for name, (owner, attr, work) in LAYERS.items():
                fn = owner.__dict__.get(attr)
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, work))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time, total work, over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "work": 0} for name in LAYERS
        }
        for (name, start, end, _, work), covered in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - covered
            row["work"] += work
        return out


class _StopAfterInit(Exception):
    pass


def engine_init_peak_mb(run: Callable[[], Any]) -> float:
    """Peak traced memory of one ``RefinementEngine.__init__`` in MB.

    tracemalloc runs only inside the constructor, and ``run`` is cut
    short after it, so the pass costs little and is not timed.
    """
    init = _engine.__init__
    peak = [0.0]

    def measured(self, *args, **kwargs):
        tracemalloc.start()
        try:
            init(self, *args, **kwargs)
            peak[0] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        raise _StopAfterInit

    _engine.__init__ = measured
    try:
        run()
    except _StopAfterInit:
        pass
    finally:
        _engine.__init__ = init
    return peak[0]
