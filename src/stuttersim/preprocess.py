"""Structural preprocessing: SCCs, inert-SCC collapse and list orderings.

The refinement engine requires a structure with no inert strongly
connected components, a state list that is topologically ordered inside
each label class, and a block list in reverse topological order of the
block preorder.  Everything here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .model import KripkeStructure, ValidationError


@dataclass
class CollapseMap:
    """Mapping between original states and collapsed states."""

    representative: list[int]
    members: list[list[int]]


def strongly_connected_components(
    successors: Sequence[Sequence[int]],
    group: Sequence[int],
    roots: Iterable[int],
) -> list[list[int]]:
    """SCCs of the subgraph of edges whose two ends share a group.

    Iterative Tarjan, searching from each root in turn and following
    successors in list order; components come out in completion order,
    members sorted.  A node reached from no root is left out, and a node
    with no edge inside its group is its own trivial component.
    """
    index = [-1] * len(successors)
    low = [0] * len(successors)
    on_stack = bytearray(len(successors))
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in roots:
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            succ = successors[v]
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if group[w] != group[v]:
                    continue
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                sccs.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


def collapse_inert_sccs(
    k: KripkeStructure, block_of: Sequence[int]
) -> tuple[KripkeStructure, CollapseMap]:
    """Collapse every SCC of inert transitions to a single state.

    A transition is inert when both endpoints share a block of
    ``block_of``.  Labels are inherited from the representative (least
    member); transitions are the existential lift with every resulting
    inert self-loop removed, so the output has no inert SCC at all.
    """
    sccs = strongly_connected_components(
        k.successors, block_of, range(k.num_states)
    )
    sccs.sort(key=lambda c: c[0])
    representative = [0] * k.num_states
    members: list[list[int]] = []
    for new_id, comp in enumerate(sccs):
        members.append(comp)
        for s in comp:
            representative[s] = new_id
    edges: set[tuple[int, int]] = set()
    for s, t in k.transitions:
        a, b = representative[s], representative[t]
        if a == b:
            continue  # collapsed or plain inert self-loop
        edges.add((a, b))
    labels = [k.labels[comp[0]] for comp in sccs]
    collapsed = KripkeStructure(len(sccs), sorted(edges), labels)
    return collapsed, CollapseMap(representative, members)


def sort_states_locally_topological(
    k: KripkeStructure, label_classes: Sequence[Sequence[int]]
) -> list[int]:
    """Permutation of the states, contiguous per label class, such that
    no transition between same-label states goes backwards in the list.

    Only same-label edges constrain the order, so one Kahn pass over the
    inert subgraph followed by a stable grouping per class suffices.
    Raises ValidationError if an inert cycle remains (the structure was
    not collapsed first).
    """
    n = k.num_states
    class_of = [0] * n
    for ci, members in enumerate(label_classes):
        for s in members:
            class_of[s] = ci
    indeg = [0] * n
    for s, t in k.transitions:
        if class_of[s] == class_of[t]:
            indeg[t] += 1
    ready = [s for s in range(n) if indeg[s] == 0]
    topo: list[int] = []
    head = 0
    while head < len(ready):
        s = ready[head]
        head += 1
        topo.append(s)
        for t in k.successors[s]:
            if class_of[t] == class_of[s]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    if len(topo) != n:
        raise ValidationError("inert cycle detected; collapse SCCs first")
    grouped: list[list[int]] = [[] for _ in label_classes]
    for s in topo:
        grouped[class_of[s]].append(s)
    out: list[int] = []
    for members in grouped:
        out.extend(members)
    return out


def is_locally_topological(k: KripkeStructure, order: Sequence[int]) -> bool:
    """Predicate: no same-label transition goes backwards in ``order``."""
    pos = [0] * k.num_states
    for i, s in enumerate(order):
        pos[s] = i
    return all(
        pos[s] < pos[t]
        for s, t in k.transitions
        if k.labels[s] == k.labels[t]
    )


def is_reverse_topological(
    block_ids: Sequence[int], related: Callable[[int, int], bool]
) -> bool:
    """Predicate: no strictly related block precedes its superior."""
    for i, b in enumerate(block_ids):
        for c in block_ids[i + 1 :]:
            if related(b, c) and not related(c, b):
                return False
    return True
