"""Reference oracles: slow but directly definitional algorithms.

These exist to cross-validate the refinement engine, never for
performance.  Everything operates on explicit sets of states.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable

from .model import KripkeStructure, labeling_partition


def pos_naive(
    k: KripkeStructure, within: Iterable[int], targets: Iterable[int]
) -> set[int]:
    """States of ``within`` that can reach ``targets`` by a path whose
    intermediate states all stay in ``within`` (length zero allowed).

    Backward reachability: seed with members of ``within`` that are in
    ``targets`` or step directly into ``targets``, then close under
    predecessors inside ``within``.
    """
    inside = set(within)
    found: set[int] = set()
    stack: list[int] = []
    for t in targets:
        if t in inside and t not in found:
            found.add(t)
            stack.append(t)
        for x in k.predecessors[t]:
            if x in inside and x not in found:
                found.add(x)
                stack.append(x)
    while stack:
        y = stack.pop()
        for x in k.predecessors[y]:
            if x in inside and x not in found:
                found.add(x)
                stack.append(x)
    return found


def rows_of(pairs: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Each state's row: the states the relation relates it to."""
    rows: dict[int, set[int]] = {}
    for s, t in pairs:
        rows.setdefault(s, set()).add(t)
    return rows


def unmatched_moves(k: KripkeStructure, rows: dict[int, set[int]]):
    """The definition's move test: each move ``x -> y`` with a non-empty
    ``rows[x]``, in edge order, as ``(x, y, bad)`` when the states ``bad``
    of ``rows[x]`` cannot reach ``rows[y]`` through ``rows[x]``."""
    get = rows.get
    for x, succ in enumerate(k.successors):
        row = get(x)
        if row:
            for y in succ:
                target = get(y, ())
                reach = row if row.issubset(target) else pos_naive(k, row, target)
                if len(reach) < len(row):  # reach is a subset of row
                    yield x, y, row - reach


def simulator_sets(
    k: KripkeStructure,
    rng: random.Random | None = None,
    observer=None,
) -> dict[int, set[int]]:
    """Explicit fixpoint computation of the stuttering simulator sets.

    ``sim[x]`` starts as the same-label class of ``x`` and shrinks until
    for every transition ``x -> y`` every candidate in ``sim[x]`` can
    reach ``sim[y]`` through ``sim[x]``.  The final map satisfies
    ``y in sim[x]`` iff ``y`` stuttering-simulates ``x``.

    When ``rng`` is given the refiner scanned at each step is chosen at
    random; the fixpoint is the same for every scan order.  ``observer``
    is called with the current map at the start of every iteration
    (instrumentation for validation).
    """
    sim = {x: set(members) for members in labeling_partition(k) for x in members}
    while True:
        if observer is not None:
            observer(sim)
        refiners = list(islice(unmatched_moves(k, sim), 1 if rng is None else None))
        if not refiners:
            return sim
        x, _, bad = refiners[0 if rng is None else rng.randrange(len(refiners))]
        s = sim[x] - bad
        for w in s:
            sim[w] &= s


def largest_simulation_within(
    k: KripkeStructure, pairs: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Largest stuttering simulation contained in the given relation.

    Deletion loop straight from the definition: drop ``(s, t)`` when the
    labels differ or some move ``s -> s'`` cannot be matched from ``t``
    by a stuttering path; one round deletes every currently violating
    pair, which does not change the greatest fixpoint.
    """
    rel = {(s, t) for s, t in pairs if k.labels[s] == k.labels[t]}
    while True:
        dead = {(x, z) for x, _, bad in unmatched_moves(k, rows_of(rel)) for z in bad}
        if not dead:
            return rel
        rel -= dead


def naive_stuttering_simulation(k: KripkeStructure) -> set[tuple[int, int]]:
    """The stuttering simulation preorder, computed definitionally.

    ``(s, t)`` in the result means ``t`` stuttering-simulates ``s``.
    """
    same_label = {
        (s, t)
        for s in k.states()
        for t in k.states()
        if k.labels[s] == k.labels[t]
    }
    return largest_simulation_within(k, same_label)
