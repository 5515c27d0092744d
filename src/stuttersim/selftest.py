"""Built-in golden examples pinning the split and pruning steps.

Both fixtures are abstract partition-relation pairs over ten states
with no transitions; they freeze the exact observable behaviour of the
splitter application: list reordering for one, relation surgery for the
other.
"""

from __future__ import annotations

from .engine import RefinementEngine
from .model import KripkeStructure
from .preprocess import is_locally_topological

_Edges = set[tuple[frozenset[int], frozenset[int]]]


def _ten_state_blank() -> KripkeStructure:
    return KripkeStructure(10, [], [["a"]] * 10)


def _strict_edges(engine: RefinementEngine) -> _Edges:
    out: _Edges = set()
    for b in engine.order:
        for c in engine.up[b]:
            if b != c:
                out.add((frozenset(engine.members(b)), frozenset(engine.members(c))))
    return out


def _partition(engine: RefinementEngine) -> set[frozenset[int]]:
    return {frozenset(engine.members(b)) for b in engine.order}


def _fmt(edges: _Edges) -> str:
    return ", ".join(
        f"{sorted(b)}<{sorted(c)}"
        for b, c in sorted(edges, key=lambda e: (sorted(e[0]), sorted(e[1])))
    )


def split_ordering_check() -> tuple[bool, str]:
    """Split of blocks [0,1] | [2..7] | [8,9] by the splitter [1,3,4,6,8].

    Expects the state list [1,0,3,4,6,2,5,7,8,9]: inside each block the
    splitter part moves to the front, both parts keep their previous
    relative order, and the local topological property survives.
    """
    k = _ten_state_blank()
    blocks = [[0, 1], [2, 3, 4, 5, 6, 7], [8, 9]]
    pairs = [(i, i) for i in range(3)]
    engine = RefinementEngine(k, (blocks, pairs))
    engine.split([1, 3, 4, 6, 8])
    expected_list = [1, 0, 3, 4, 6, 2, 5, 7, 8, 9]
    expected_blocks = [[1], [0], [3, 4, 6], [2, 5, 7], [8], [9]]
    got_blocks = [engine.members(b) for b in engine.order]
    if engine.state_list != expected_list:
        return False, f"state list {engine.state_list} != {expected_list}"
    if got_blocks != expected_blocks:
        return False, f"blocks {got_blocks} != {expected_blocks}"
    if not is_locally_topological(engine.k, engine.state_list):
        return False, "local topological property lost"
    return True, "state list [1,0,3,4,6,2,5,7,8,9], blocks split in place"


_FIVE_BLOCKS = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
_FIVE_PAIRS = [(i, i) for i in range(5)] + [(0, 1), (0, 3), (2, 3), (4, 3)]


def _edge_set(raw: list[tuple[list[int], list[int]]]) -> _Edges:
    return {(frozenset(b), frozenset(c)) for b, c in raw}


# After splitting by S = {3,4,5,8}: each half inherits every relation of
# its parent, so the fresh sibling halves are mutually related and every
# state's candidate set is unchanged.
_MIDDLE_EDGES = _edge_set(
    [
        ([0, 1], [2]),
        ([0, 1], [3]),
        ([2], [3]),
        ([3], [2]),
        ([0, 1], [6, 7]),
        ([4, 5], [6, 7]),
        ([8], [6, 7]),
        ([9], [6, 7]),
        ([8], [9]),
        ([9], [8]),
    ]
)

# After pruning w.r.t. S: a block inside S keeps only its in-S superiors,
# so [3], [4,5] and [8] lose every relation into [2], [6,7] and [9].
_RIGHT_EDGES = _edge_set(
    [
        ([0, 1], [2]),
        ([0, 1], [3]),
        ([2], [3]),
        ([0, 1], [6, 7]),
        ([9], [6, 7]),
        ([9], [8]),
    ]
)

_SPLIT_PARTITION = {
    frozenset(b) for b in ([0, 1], [2], [3], [4, 5], [6, 7], [8], [9])
}


def split_refine_check() -> tuple[bool, str]:
    """Splitting then pruning the five-block pair w.r.t. S = {3,4,5,8}."""
    k = _ten_state_blank()
    engine = RefinementEngine(k, (_FIVE_BLOCKS, _FIVE_PAIRS))
    splitter = [s for s in engine.state_list if s in {3, 4, 5, 8}]
    engine.splitting_procedure(splitter)
    if _partition(engine) != _SPLIT_PARTITION:
        return False, f"split partition {_partition(engine)}"
    got_middle = _strict_edges(engine)
    if got_middle != _MIDDLE_EDGES:
        return False, f"after split: {_fmt(got_middle)}"
    splitter = [s for s in engine.state_list if s in {3, 4, 5, 8}]
    engine.refine(splitter)
    if _partition(engine) != _SPLIT_PARTITION:
        return False, "refine changed the partition"
    got_right = _strict_edges(engine)
    if got_right != _RIGHT_EDGES:
        return False, f"after refine: {_fmt(got_right)}"
    return True, "split duplication and pruning match the frozen example"


def golden_checks() -> list[tuple[str, bool, str]]:
    """Run all golden checks; returns (name, passed, detail) triples."""
    out = []
    ok, detail = split_ordering_check()
    out.append(("split-ordering", ok, detail))
    ok, detail = split_refine_check()
    out.append(("split-and-refine", ok, detail))
    return out
