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

    def pos_ordered(
        self, s_list: Sequence[int], t_list: Sequence[int], result: list[int]
    ) -> None:
        """Shadow-check the one-pass reachability against the naive one."""
        e = self.e
        position = {s: i for i, s in enumerate(e.state_list)}
        positions = [position[s] for s in s_list]
        assert positions == sorted(positions), "source is not a state-list sublist"
        assert len({e.k.labels[s] for s in s_list}) <= 1, "source mixes labels"
        assert set(result) == pos_naive(e.k, s_list, t_list), (
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
        up, count, bcount, blocks = e.up, e.count, e.bcount, e.blocks
        order = e.order
        pos = 0
        for b in order:
            blk = blocks[b]
            assert blk.begin == pos and blk.end > blk.begin, "blocks misaligned"
            pos = blk.end
            for x in e.members(b):
                assert e.block_of[x] == b
        assert pos == n, "blocks do not cover the state list"
        assert len(up) == len(blocks) == len(order), "a block id is not in the order"
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
        for b in order:
            row = {c: sum(count[c].get(x, 0) for x in e.members(b)) for c in order}
            assert bcount[b] == {c: v for c, v in row.items() if v}, f"BCount({b}) drifted"
        for b in order:
            blk = blocks[b]
            expect_lb = {
                x for x in e.members(b) if not any(y in mu[b] for y in succ[x])
            }
            assert set(blk.local_bottoms) == expect_lb, f"localBottoms({b}) drifted"
            bottoms = {x for x in mu[b] if not any(y in mu[b] for y in succ[x])}
            expect_bb = {
                c for c in up[b] if c != b and any(x in bottoms for x in e.members(c))
            }
            assert blk.bottom_blocks == expect_bb, f"bottomBlocks({b}) drifted"
            holders = {a for a in order if b in blocks[a].bottom_blocks}
            assert blk.held_by == holders, f"heldBy({b}) drifted"
        # A target skipped as clean must have no refiner pair.
        pred = e.k.predecessors
        for c in order:
            if e.dirty[c]:
                continue
            for b in {bo[x] for y in e.members(c) for x in pred[y]}:
                blk = blocks[b]
                assert b in up[c] or all(s in count[c] for s in blk.local_bottoms), (
                    f"clean target {c} has a refiner pair from {b}"
                )
                assert all(d in up[c] or c in bcount[d] for d in blk.bottom_blocks), (
                    f"clean target {c} has a refiner pair from {b}"
                )
        if self.oracle_pairs is None:
            self.oracle_pairs = largest_simulation_within(e.k, self.initial_pairs)
        for s, t in self.oracle_pairs:
            assert bo[t] in up[bo[s]], (
                f"pair ({s},{t}) of the answer fell out of the relation"
            )
