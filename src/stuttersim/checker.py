"""Decide whether a user-supplied relation is a stuttering simulation.

Two routes, both returning a ``CheckVerdict``: a one-pass block-level
check for preorders (the fast path) and a direct definitional check for
arbitrary relations (its oracle).
The fast path takes its blocks, the preorder's classes, and each
block's up-set from ``model.validate_preorder``, which also checks that
the relation is a preorder.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .model import KripkeStructure, ValidationError
from .model import validate_preorder as _validate_relation
from .preprocess import strongly_connected_components


class CheckVerdict(NamedTuple):
    """Outcome of ``check_preorder`` or ``check_definition``.

    On rejection exactly one witness is set: ``label_witness`` is a
    related pair with different labels; ``refiner_witness`` (fast path)
    is ``(block_b, block_c, state)`` where some member of ``block_b``
    steps into ``block_c`` but ``state`` (a candidate simulator) cannot
    follow; ``move_witness`` (definitional route) is ``(x, y, z)`` where
    candidate ``z`` related to ``x`` cannot match the move ``x -> y``.
    """

    accepted: bool
    label_witness: tuple[int, int] | None = None
    refiner_witness: tuple[tuple[int, ...], tuple[int, ...], int] | None = None
    move_witness: tuple[int, int, int] | None = None


def _sink_components(
    nodes: Sequence[int], successors: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Sink SCCs of the subgraph induced by ``nodes``.

    Every path inside the subgraph eventually stays in a sink component,
    so a set reaches a target through the subgraph iff every sink
    component touches the target seeds.  The components come in the
    order Tarjan's search finishes them, from roots taken in the order
    of ``nodes``, and a rejection names the least member of the first
    one that fails.  ``check_preorder`` passes ``sorted(mu[b])``; the
    witness is pinned, so a rework must keep this order.  A one-state
    set is its own sink component, found without the n-sized tables.
    """
    if len(nodes) == 1:
        return [list(nodes)]
    inside = bytearray(len(successors))
    for v in nodes:
        inside[v] = 1
    sinks = []
    for comp in strongly_connected_components(successors, inside, nodes):
        own = set(comp)
        if not any(inside[w] and w not in own for v in comp for w in successors[v]):
            sinks.append(comp)
    return sinks


def _least_mixed_pair(
    k: KripkeStructure, pairs: Iterable[tuple[int, int]]
) -> tuple[int, int] | None:
    """The least related pair whose labels differ, or None."""
    labels = k.labels
    return min((p for p in pairs if labels[p[0]] != labels[p[1]]), default=None)


def check_preorder(
    k: KripkeStructure, pairs: Iterable[tuple[int, int]]
) -> CheckVerdict:
    """One-pass check that a preorder is a stuttering simulation.

    The blocks are the classes of the preorder.  A pair (B, C) with a
    transition from B into C is left unrefined iff every sink component
    of B's candidate set μ(B) touches μ(C) or its pre-image, that is,
    one of its members or one of their successors lies in μ(C).  The
    relation must be reflexive and transitive (NotAPreorderError
    otherwise); a related pair with different labels is rejected
    immediately.  ``pairs`` is read once, by ``_validate_relation``: a
    ``StatePairs`` view (a read-only ``Set``, not a ``set``) by its
    frozenset rows, whether ``parse_relation`` built it with one row per
    state or ``SimulationResult.state_pairs`` with one per block; any
    other iterable pair by pair.  The label test then runs once per
    class, on its up-set.
    """
    blocks, block_of, mu = _validate_relation(k.num_states, pairs)
    labels = k.labels
    for members, mu_b in zip(blocks, mu):
        # A member lies in its class's up-set, so the class relates two
        # labels iff the up-set holds two.  The least class that does
        # has the least mixed pair.
        if len(set(map(labels.__getitem__, mu_b))) > 1:
            pair = _least_mixed_pair(k, zip(repeat(members[0]), mu_b))
            return CheckVerdict(False, label_witness=pair)

    succ = k.successors
    sink_cache: dict[int, list[list[int]]] = {}
    for c, mu_c in enumerate(mu):
        preds = sorted({block_of[x] for y in blocks[c] for x in k.predecessors[y]})
        for b in preds:
            if b not in sink_cache:
                sink_cache[b] = _sink_components(sorted(mu[b]), succ)
            for comp in sink_cache[b]:
                if not any(
                    q in mu_c or any(y in mu_c for y in succ[q]) for q in comp
                ):
                    return CheckVerdict(
                        False,
                        refiner_witness=(
                            tuple(blocks[b]),
                            tuple(blocks[c]),
                            comp[0],
                        ),
                    )
    return CheckVerdict(True)


def check_definition(
    k: KripkeStructure, pairs: Iterable[tuple[int, int]]
) -> CheckVerdict:
    """Definitional check of any relation, preorder or not.

    Rejects with the least related pair whose labels differ, else with
    the first move ``x -> y`` that a candidate ``z`` related to ``x``
    cannot match by a stuttering path, as ``move_witness=(x, y, z)``.
    """
    from .reference import rows_of, unmatched_moves  # loaded on this route only

    rel_pairs = set(pairs)
    for s, t in rel_pairs:
        if not (0 <= s < k.num_states and 0 <= t < k.num_states):
            raise ValidationError(f"relation pair ({s}, {t}) out of range")
    mixed = _least_mixed_pair(k, rel_pairs)
    if mixed is not None:
        return CheckVerdict(False, label_witness=mixed)
    for x, y, bad in unmatched_moves(k, rows_of(rel_pairs)):
        return CheckVerdict(False, move_witness=(x, y, min(bad)))
    return CheckVerdict(True)
