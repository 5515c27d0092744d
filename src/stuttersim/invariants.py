"""Debug-mode checks of the refinement engine against brute-force values.

Only ``RefinementEngine(..., debug=True)`` loads this module; the
command path never does.
"""

from __future__ import annotations

from typing import Sequence

from .engine import RefinementEngine
from .preprocess import is_locally_topological
from .reference import largest_simulation_within, pos_naive


def current_state_pairs(e: RefinementEngine) -> set[tuple[int, int]]:
    """Relation currently encoded by the partition-relation pair,
    over collapsed states."""
    bo = e.block_of
    return {(s, t) for s in range(e.k.num_states) for c in e.up[bo[s]] for t in e.members(c)}


class InvariantChecks:
    """The checks of one engine run.  Construction captures the initial
    relation: the answer is the largest simulation inside it."""

    def __init__(self, e: RefinementEngine):
        self.e = e
        self.initial_pairs = current_state_pairs(e)
        self.oracle_pairs: set[tuple[int, int]] | None = None

    def pos_ordered(self, s_list: Sequence[int], c: int, result: list[int]) -> None:
        """Shadow-check the one-pass reachability against the naive one,
        with targets from the partition and relation, not the counters."""
        e = self.e
        position = {s: i for i, s in enumerate(e.state_list)}
        positions = [position[s] for s in s_list]
        assert positions == sorted(positions), "source is not a state-list sublist"
        assert len({e.k.labels[s] for s in s_list}) <= 1, "source mixes labels"
        assert set(result) == pos_naive(e.k, s_list, e.image(c)), (
            "ordered reachability disagrees with naive computation"
        )

    def refiner(self, b: int, c: int) -> None:
        """A returned pair must have an existential transition and leave
        some bottom state of b's candidate set unable to take the step
        (the brute-force form of the characterization)."""
        e = self.e
        mu_c = set(e.image(c))
        assert any(
            e.block_of[y] == c for x in e.members(b) for y in e.k.successors[x]
        ), "refiner pair lacks an existential transition"
        mu_b = set(e.image(b))
        bottoms = {x for x in mu_b if not any(y in mu_b for y in e.k.successors[x])}
        reachable = mu_c | {
            x for x in range(e.k.num_states) if any(y in mu_c for y in e.k.successors[x])
        }
        assert not bottoms <= reachable, (
            "returned pair contradicts the bottom-state characterization"
        )

    def invariants(self) -> None:
        """Assert every boundary invariant against brute-force values."""
        e = self.e
        n = e.k.num_states
        up, down, count, blocks = e.up, e.down, e.count, e.blocks
        order = sorted(range(len(blocks)), key=lambda b: blocks[b].begin)
        pos = 0
        for b in order:
            blk = blocks[b]
            assert blk.begin == pos and blk.end > blk.begin, "blocks misaligned"
            pos = blk.end
            for x in e.members(b):
                assert e.block_of[x] == b
        assert pos == n, "blocks do not cover the state list"
        queued = sorted(c for _, c in e.marked)
        assert queued == sorted(e.pending), "worklist is not the pending targets"
        assert all(e.pending.values()), "a pending target has nothing to test"
        assert all(key <= blocks[c].begin for key, c in e.marked), "worklist key past its target"
        for b in order:
            assert b in up[b], "relation lost reflexivity"
            assert max(up[b]) < len(blocks), "relation holds an unallocated block"
            for c in up[b]:
                if b != c:
                    assert b not in up[c], "relation lost antisymmetry"
                    assert (
                        e.k.labels[e.members(b)[0]] == e.k.labels[e.members(c)[0]]
                    ), "related blocks differ in label"
                assert up[c] <= up[b], "relation lost transitivity"
                # Reverse topological: no block precedes one above it.
                assert blocks[c].begin <= blocks[b].begin, "block order broken"
        assert is_locally_topological(e.k, e.state_list), "state order broken"
        mu = {b: {x for c in up[b] for x in e.members(c)} for b in order}
        # Whole dicts are compared, so a stored zero fails too.
        bo, succ = e.block_of, e.k.successors
        for c in order:
            col = {x: sum(bo[y] in up[c] for y in succ[x]) for x in range(n)}
            assert count[c] == {x: v for x, v in col.items() if v}, f"Count({c}) drifted"
            assert down[c] == {b for b in order if c in up[b]}, f"down({c}) drifted"
        # The blocks above b other than b that hold a bottom state of
        # b's candidate set.
        holding_bottoms = {}
        for b in order:
            bottoms = {x for x in mu[b] if not any(y in mu[b] for y in succ[x])}
            expect_lb = bottoms.intersection(e.members(b))
            assert set(blocks[b].local_bottoms) == expect_lb, f"localBottoms({b}) drifted"
            holding_bottoms[b] = {
                c for c in up[b] if c != b and not bottoms.isdisjoint(e.members(c))
            }
        # A hit pair that the search would skip must be no refiner pair.
        pred = e.k.predecessors
        for c in order:
            hit = {bo[x] for y in e.members(c) for x in pred[y]}
            assert e.hit[c] == hit, f"hit({c}) drifted"
            for b in hit - e.pending.get(c, set()):
                blk = blocks[b]
                assert b in up[c] or all(s in count[c] for s in blk.local_bottoms), (
                    f"refiner pair ({b}, {c}) is not pending"
                )
                assert all(
                    d in up[c] or any(x in count[c] for x in e.members(d))
                    for d in holding_bottoms[b]
                ), f"refiner pair ({b}, {c}) is not pending"
        if self.oracle_pairs is None:
            self.oracle_pairs = largest_simulation_within(e.k, self.initial_pairs)
        for s, t in self.oracle_pairs:
            assert bo[t] in up[bo[s]], (
                f"pair ({s},{t}) of the answer fell out of the relation"
            )
