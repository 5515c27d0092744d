"""Decide whether a user-supplied relation is a stuttering simulation.

Two routes: a one-pass block-level check for preorders (the fast path)
and a direct definitional check for arbitrary relations (its oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    KripkeStructure,
    NotAPreorderError,
    ValidationError,
)
from .preprocess import strongly_connected_components
from .reference import pos_naive


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of ``check_preorder``.

    On rejection exactly one witness is set: ``label_witness`` is a
    related pair with different labels, ``refiner_witness`` is
    ``(block_b, block_c, state)`` where some member of ``block_b`` steps
    into ``block_c`` but ``state`` (a candidate simulator) cannot follow.
    """

    accepted: bool
    label_witness: tuple[int, int] | None = None
    refiner_witness: tuple[tuple[int, ...], tuple[int, ...], int] | None = None


def _validate_relation(k: KripkeStructure, pairs: set[tuple[int, int]]) -> None:
    for s, t in pairs:
        if not (0 <= s < k.num_states and 0 <= t < k.num_states):
            raise ValidationError(f"relation pair ({s}, {t}) out of range")
    for s in k.states():
        if (s, s) not in pairs:
            raise NotAPreorderError("relation is not reflexive", (s, s))
    succ: dict[int, list[int]] = {}
    for s, t in pairs:
        succ.setdefault(s, []).append(t)
    for s, t in pairs:
        for u in succ.get(t, ()):
            if (s, u) not in pairs:
                raise NotAPreorderError("relation is not transitive", (s, u))


def _sink_components(
    nodes: Sequence[int], successors: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Sink SCCs of the subgraph induced by ``nodes``.

    Every path inside the subgraph eventually stays in a sink component,
    so a set reaches a target through the subgraph iff every sink
    component touches the target seeds.
    """
    inside = [0] * len(successors)
    for v in nodes:
        inside[v] = 1
    comps = strongly_connected_components(successors, inside, nodes)
    comp_of = [0] * len(successors)
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    has_exit = [False] * len(comps)
    for v in nodes:
        for w in successors[v]:
            if inside[w] and comp_of[v] != comp_of[w]:
                has_exit[comp_of[v]] = True
    return [comp for comp, exits in zip(comps, has_exit) if not exits]


def check_preorder(
    k: KripkeStructure, pairs: Iterable[tuple[int, int]]
) -> CheckVerdict:
    """One-pass check that a preorder is a stuttering simulation.

    Builds the block partition from the symmetric reduction and decides
    absence of refiner pairs via bottom components: a pair (B, C) with a
    transition from B into C is left unrefined iff every sink component
    of B's candidate set touches C's candidate set or its pre-image.
    The relation must be reflexive and transitive (NotAPreorderError
    otherwise); a related pair with different labels is rejected
    immediately.
    """
    rel_pairs = set(pairs)
    _validate_relation(k, rel_pairs)
    for s, t in sorted(rel_pairs):
        if k.labels[s] != k.labels[t]:
            return CheckVerdict(False, label_witness=(s, t))

    # Blocks of the symmetric reduction, ordered by least member: in a
    # preorder two states are mutually related iff their up-sets agree.
    up: list[list[int]] = [[] for _ in k.states()]
    for s, t in rel_pairs:
        up[s].append(t)
    block_id: dict[frozenset[int], int] = {}
    block_of = [0] * k.num_states
    blocks: list[list[int]] = []
    for s in k.states():
        bid = block_id.setdefault(frozenset(up[s]), len(blocks))
        if bid == len(blocks):
            blocks.append([])
        blocks[bid].append(s)
        block_of[s] = bid
    m = len(blocks)
    rel = [bytearray(m) for _ in range(m)]
    for b in range(m):
        for t in up[blocks[b][0]]:
            rel[b][block_of[t]] = 1

    count = [[0] * m for _ in range(k.num_states)]
    for y in k.states():
        by = block_of[y]
        for x in k.predecessors[y]:
            crow = count[x]
            for c in range(m):
                if rel[c][by]:
                    crow[c] += 1

    sink_cache: dict[int, list[list[int]]] = {}

    def sink_components_of(b: int) -> list[list[int]]:
        sinks = sink_cache.get(b)
        if sinks is None:
            nodes: list[int] = []
            for c in range(m):
                if rel[b][c]:
                    nodes.extend(blocks[c])
            nodes.sort()
            sinks = _sink_components(nodes, k.successors)
            sink_cache[b] = sinks
        return sinks

    cleared: set[tuple[int, int]] = set()
    for c in range(m):
        preds: list[int] = []
        seen = bytearray(m)
        for y in blocks[c]:
            for x in k.predecessors[y]:
                bx = block_of[x]
                if not seen[bx]:
                    seen[bx] = 1
                    preds.append(bx)
        preds.sort()
        for b in preds:
            if (b, c) in cleared:
                continue
            for comp in sink_components_of(b):
                if not any(rel[c][block_of[q]] or count[q][c] for q in comp):
                    return CheckVerdict(
                        False,
                        refiner_witness=(
                            tuple(blocks[b]),
                            tuple(blocks[c]),
                            comp[0],
                        ),
                    )
            for e in range(m):
                if rel[e][c]:
                    cleared.add((b, e))
    return CheckVerdict(True)


def check_definition(k: KripkeStructure, pairs: Iterable[tuple[int, int]]) -> bool:
    """Definitional check, valid for any relation (preorder or not)."""
    return find_definition_violation(k, pairs) is None


def find_definition_violation(
    k: KripkeStructure, pairs: Iterable[tuple[int, int]]
) -> tuple[str, int, int, int] | None:
    """First definitional violation, or None.

    Returns ``("label", s, t, -1)`` for a related pair with different
    labels, or ``("move", x, y, z)`` when candidate ``z`` related to
    ``x`` cannot match the move ``x -> y`` by a stuttering path.
    """
    rel_pairs = set(pairs)
    for s, t in rel_pairs:
        if not (0 <= s < k.num_states and 0 <= t < k.num_states):
            raise ValidationError(f"relation pair ({s}, {t}) out of range")
    fwd: dict[int, set[int]] = {}
    for s, t in rel_pairs:
        fwd.setdefault(s, set()).add(t)
    for s, t in sorted(rel_pairs):
        if k.labels[s] != k.labels[t]:
            return ("label", s, t, -1)
    for x in k.states():
        row = fwd.get(x, set())
        if not row:
            continue
        for y in k.successors[x]:
            reach = pos_naive(k, row, fwd.get(y, set()))
            if not row <= reach:
                z = min(row - reach)
                return ("move", x, y, z)
    return None
