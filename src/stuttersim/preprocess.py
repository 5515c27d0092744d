"""Structural preprocessing: SCCs, inert-SCC collapse and list orderings.

The refinement engine requires a structure with no inert strongly
connected components, a state list that is topologically ordered inside
each label class, and blocks laid out along it in reverse topological
order of the block preorder.  Everything here is a pure function.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, groupby
from typing import Iterable, NamedTuple, Sequence

from .model import KripkeStructure, ValidationError, _Successors


class CollapseMap(NamedTuple):
    """Mapping between original states and collapsed states: ``of[s]`` is
    the collapsed state of original state ``s``.  When nothing collapses
    it is a ``range``, so the identity map stores nothing per state."""

    of: Sequence[int]

    @property
    def members(self) -> list[list[int]]:
        """The original states of each collapsed state, ascending."""
        states = sorted(range(len(self.of)), key=self.of.__getitem__)  # stable
        return [list(group) for _, group in groupby(states, self.of.__getitem__)]


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
    k: KripkeStructure, block_of: Sequence[int], topo: Sequence[int] | None = None
) -> tuple[KripkeStructure, CollapseMap]:
    """Collapse every SCC of inert transitions to a single state.

    A transition is inert when both endpoints share a block of
    ``block_of``.  Labels are inherited from the representative (least
    member); transitions are the existential lift with every resulting
    inert self-loop removed, so the output has no inert SCC at all.
    When a topological sort orders every state (no inert cycle or
    self-loop), ``k`` itself is returned with the identity map.
    ``topo``, if given, is ``topological_order(k.successors, block_of)``.
    """
    n = k.num_states
    if topo is None:
        topo = topological_order(k.successors, block_of)
    if len(topo) == n:
        return k, CollapseMap(range(n))
    sccs = strongly_connected_components(k.successors, block_of, range(n))
    sccs.sort(key=lambda c: c[0])
    representative = [0] * n
    for new_id, comp in enumerate(sccs):
        for s in comp:
            representative[s] = new_id
    succ = [
        [q for s in comp for t in k.successors[s] if (q := representative[t]) != r]
        for r, comp in enumerate(sccs)
    ]
    labels = [k.labels[comp[0]] for comp in sccs]
    collapsed = KripkeStructure(len(sccs), _Successors(succ), labels)
    return collapsed, CollapseMap(representative)


def topological_order(
    successors: Sequence[Iterable[int]], group: Sequence[int]
) -> Sequence[int]:
    """Least-first topological order of the subgraph of edges whose two
    ends share a group (Kahn's algorithm, always emitting the least
    ready node).  A node on a cycle, or after one, is left out.

    When every such edge goes from a lower id to a higher one, the
    order is the identity and comes back as ``range(n)``, with no sort:
    the least node not yet emitted always has its in-group predecessors,
    all lower, emitted.  A self-loop fails the test.
    """
    if _ascending(successors, group):
        return range(len(successors))
    indeg = [0] * len(successors)
    for v, succ in enumerate(successors):
        for w in succ:
            if group[w] == group[v]:
                indeg[w] += 1
    ready = [v for v in range(len(successors)) if indeg[v] == 0]
    out: list[int] = []
    while ready:
        v = heappop(ready)
        out.append(v)
        for w in successors[v]:
            if group[w] == group[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heappush(ready, w)
    return out


def _ascending(successors: Sequence[Iterable[int]], group: Sequence[int]) -> bool:
    """Predicate: every edge inside a group goes to a higher id."""
    for v, succ in enumerate(successors):
        for w in succ:
            if w <= v and group[w] == group[v]:
                return False
    return True


def sort_states_locally_topological(
    k: KripkeStructure,
    classes: Sequence[Sequence[int]],
    topo: Sequence[int] | None = None,
) -> list[int]:
    """Permutation of the states, contiguous per class and in class
    order, such that no transition inside a class goes backwards in the
    list.  Each class lists its members ascending.

    Only edges inside a class constrain the order, so one topological
    sort of that subgraph followed by a stable sort by class suffices.
    When ``topo`` is the identity (a ``range``), that is the classes
    concatenated, which shares their ints.  Raises ValidationError if a
    cycle inside a class remains (the structure was not collapsed
    first).  ``topo``, if given, is a complete ``topological_order``
    under a grouping with these classes, and is used as the sort.
    """
    if isinstance(topo, range):
        return list(chain.from_iterable(classes))
    class_of = [0] * k.num_states
    for ci, members in enumerate(classes):
        for s in members:
            class_of[s] = ci
    if topo is None:
        topo = topological_order(k.successors, class_of)
        if len(topo) != k.num_states:
            raise ValidationError("inert cycle detected; collapse SCCs first")
    return sorted(topo, key=class_of.__getitem__)  # stable: keeps topo order


def is_locally_topological(k: KripkeStructure, order: Sequence[int]) -> bool:
    """Predicate: no same-label transition goes backwards in ``order``."""
    pos = [0] * k.num_states
    for i, s in enumerate(order):
        pos[s] = i
    labels = k.labels
    for s, lst in enumerate(k.successors):
        p, label = pos[s], labels[s]
        for t in lst:
            if pos[t] <= p and labels[t] == label:
                return False
    return True
