"""Reference oracles: slow but directly definitional algorithms.

These exist to cross-validate the refinement engine, never for
performance.  Everything operates on explicit sets of states.
"""

from __future__ import annotations

import random
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
    sim: dict[int, set[int]] = {}
    for members in labeling_partition(k):
        cls = set(members)
        for x in members:
            sim[x] = set(cls)
    edges = k.transitions
    while True:
        if observer is not None:
            observer(sim)
        refiners = []
        for x, y in edges:
            reach = pos_naive(k, sim[x], sim[y])
            if not sim[x] <= reach:
                refiners.append((x, y, reach))
                if rng is None:
                    break
        if not refiners:
            return sim
        if rng is None:
            _, _, s = refiners[0]
        else:
            _, _, s = refiners[rng.randrange(len(refiners))]
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
    rel = {
        (s, t) for s, t in pairs if k.labels[s] == k.labels[t]
    }
    while True:
        fwd: dict[int, set[int]] = {}
        for s, t in rel:
            fwd.setdefault(s, set()).add(t)
        dead = set()
        for s, t in rel:
            for s2 in k.successors[s]:
                if t not in pos_naive(k, fwd.get(s, set()), fwd.get(s2, set())):
                    dead.add((s, t))
                    break
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
