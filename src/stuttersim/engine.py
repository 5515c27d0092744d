"""Partition-refinement engine for the stuttering simulation preorder.

The engine maintains an ordered partition of a collapsed structure
together with a block preorder, counter tables and per-block bottom
bookkeeping, and refines them until no refiner block pair remains.  The
state list always satisfies the local topological property (no backward
same-label transition), blocks are contiguous ranges of it, and the
block list is kept in reverse topological order of the block preorder;
these orderings are what make the one-pass reachability computation and
the refiner search correct.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from typing import Callable, Iterable, Sequence

from .model import (
    KripkeStructure,
    RunStats,
    SimulationResult,
    ValidationError,
    labeling_partition,
    validate_partition,
    validate_preorder,
)
from .preprocess import (
    collapse_inert_sccs,
    is_locally_topological,
    sort_states_locally_topological,
    strongly_connected_components,
    topological_order,
)

CandidatePR = tuple[Sequence[Sequence[int]], Iterable[tuple[int, int]]]
TraceHook = Callable[[int, tuple[int, int], int, int], None]


class _Block:
    __slots__ = ("begin", "end", "local_bottoms", "bottom_blocks", "held_by")

    def __init__(self, begin: int, end: int):
        self.begin = begin
        self.end = end
        self.local_bottoms: list[int] = []
        self.bottom_blocks: set[int] = set()
        # The blocks whose ``bottom_blocks`` hold this one.
        self.held_by: set[int] = set()


def _validate_candidate(
    k: KripkeStructure,
    blocks: Sequence[Sequence[int]],
    pairs: Iterable[tuple[int, int]],
) -> tuple[list[list[int]], list[set[int]]]:
    """The candidate with each class of mutually related blocks merged
    into one block, so that its block relation is antisymmetric, and
    each merged block's up-set.

    A same-label cycle must lie inside one merged block: the engine
    collapses cycles within a block and orders the rest of the states
    along same-label transitions.
    """
    block_of = validate_partition(k, blocks)
    classes, class_of, ups = validate_preorder(len(blocks), pairs)
    for c, above in enumerate(ups):
        label = k.labels[blocks[classes[c][0]][0]]
        for j in above:
            if k.labels[blocks[j][0]] != label:
                raise ValidationError(
                    f"related blocks differ in label; offending block "
                    f"{sorted(blocks[j])}"
                )
    merged = [[s for i in members for s in blocks[i]] for members in classes]
    for comp in strongly_connected_components(k.successors, k.labels, k.states()):
        cut = sorted({class_of[block_of[s]] for s in comp})
        if len(cut) > 1:
            raise ValidationError(
                f"candidate blocks {[sorted(merged[c]) for c in cut]} cut the "
                f"same-label cycle through states {comp}"
            )
    return merged, [{class_of[j] for j in above} for above in ups]


def _combined_block_order(
    k: KripkeStructure, up: Sequence[set[int]], block_of: Sequence[int]
) -> list[int]:
    """Block list order satisfying both ordering invariants at once.

    A block below another must follow it (refiner search), and
    the source block of a same-label cross-block transition must precede
    the target block (one-pass reachability over the aligned state
    list).  ``up[b]`` holds the blocks above ``b``; the relation must
    be antisymmetric, as a merged candidate's is.  Both families are
    necessary, so a constraint cycle means no valid configuration
    exists and the candidate relation is rejected.
    Ties go to the least block id, so the default input, which
    induces no constraints, keeps the input order.
    """
    m = len(up)
    succs: list[set[int]] = [set() for _ in range(m)]  # emitted-before sets
    for i, above in enumerate(up):
        for j in above:
            if i != j:
                succs[j].add(i)  # i below j: j first
    for s, t in k.transitions:
        bs, bt = block_of[s], block_of[t]
        if bs != bt and k.labels[s] == k.labels[t]:
            succs[bs].add(bt)  # source block first
    out = topological_order(succs, bytes(m))
    if len(out) != m:
        raise ValidationError(
            "candidate relation orders blocks against the same-label "
            "transition topology; no valid list ordering exists"
        )
    return out


class RefinementEngine:
    """Mutable refinement state over a collapsed Kripke structure.

    Construction performs the whole initialization: inert-SCC collapse,
    the two list orderings, and the counter tables.  ``run`` drives the
    main loop to the fixpoint and expands the answer back to the
    original states.

    ``candidate`` optionally supplies a coarser starting point as
    ``(blocks, block_pairs)``; the pairs must form a preorder whose
    related blocks agree on labels.  Mutually related blocks are merged
    into one, so the block relation is antisymmetric from the start and
    stays so at every main-loop boundary.  With a candidate the result
    is the largest stuttering simulation contained in the induced
    relation.
    """

    def __init__(
        self,
        k: KripkeStructure,
        candidate: CandidatePR | None = None,
        debug: bool = False,
    ):
        self.original = k
        if candidate is None:
            blocks0: list[list[int]] = labeling_partition(k)
            up0 = [{i} for i in range(len(blocks0))]
        else:
            blocks0, up0 = _validate_candidate(k, candidate[0], candidate[1])

        block_of0 = [0] * k.num_states
        for i, members in enumerate(blocks0):
            for s in members:
                block_of0[s] = i
        # One least-first Kahn serves the collapse and, when nothing
        # collapses, the state sort: it reads the grouping only through
        # equality, and the sort's classes are this same partition.
        topo = topological_order(k.successors, block_of0)
        self.k, self.collapse = collapse_inert_sccs(k, block_of0, topo)
        m = len(blocks0)

        # Block ids 0..m-1 are the (merged) candidate block indices;
        # identifiers allocated later by splits are never reused.  An
        # inert SCC lies inside one block.
        self.block_of = [block_of0[ms[0]] for ms in self.collapse.members]
        self.order: list[int] = _combined_block_order(self.k, up0, self.block_of)
        coll_members: list[list[int]] = [[] for _ in range(m)]
        for s, b in enumerate(self.block_of):
            coll_members[b].append(s)
        self.state_list: list[int] = sort_states_locally_topological(
            self.k,
            [coll_members[b] for b in self.order],
            topo if self.k is k else None,
        )
        self.blocks: list[_Block] = [_Block(0, 0) for _ in range(m)]
        begin = 0
        for b in self.order:
            blk = self.blocks[b]
            blk.begin, blk.end = begin, begin + len(coll_members[b])
            begin = blk.end
        # Defensive: the combined block order makes this impossible.
        if not is_locally_topological(self.k, self.state_list):
            raise AssertionError("a backward same-label transition survived ordering")

        # up[b]: the blocks related above b, b included.
        self.up: list[set[int]] = up0
        # Nonzero entries only: count[c][x] = |succ(x) & image(c)|, and
        # bcount[b][c] is its sum over the members of b.
        self.count: list[dict[int, int]] = [{} for _ in range(m)]
        self.bcount: list[dict[int, int]] = [{} for _ in range(m)]
        # Per block id: 0 from a scan of the target that found no pair
        # until a write that could give it one (see ``find_refiner``).
        self.dirty = bytearray(b"\x01" * m)

        self._init_counters()
        self.iterations = 0
        self.blocks_created = 0
        self.targets_visited = 0
        self.initial_blocks = m
        # Debug mode loads its checks only when asked for.
        self.checks = None
        if debug:
            from .invariants import InvariantChecks

            self.checks = InvariantChecks(self)

    # -- table plumbing -----------------------------------------------------

    def members(self, b: int) -> list[int]:
        blk = self.blocks[b]
        return self.state_list[blk.begin : blk.end]

    def _new_block(self, parent: int, begin: int, end: int) -> int:
        """Allocate a block that starts as a copy of ``parent``: related
        to and from what the parent is, with the parent's counter columns."""
        bid = len(self.blocks)
        # Every row holding the parent: ``block_of`` would miss the rows of
        # parents split earlier by the same splitter, not yet recounted.
        for row, brow in zip(self.up, self.bcount):
            if parent in row:
                row.add(bid)
            if parent in brow:
                brow[bid] = brow[parent]
        self.up.append(set(self.up[parent]))
        self.count.append(dict(self.count[parent]))
        self.bcount.append({})
        self.blocks.append(_Block(begin, end))
        self.dirty.append(self.dirty[parent])
        return bid

    def _mark_targets(self, b: int) -> None:
        """Mark dirty every target that a member of ``b`` steps into."""
        dirty, bo = self.dirty, self.block_of
        for x in self.members(b):
            for y in self.k.successors[x]:
                dirty[bo[y]] = 1

    def _init_counters(self) -> None:
        count, bcount, blocks = self.count, self.bcount, self.blocks
        bo, pred = self.block_of, self.k.predecessors
        for c in self.order:
            count[c] = col = dict(Counter(x for y in self.image(c) for x in pred[y]))
            for x, v in col.items():
                brow = bcount[bo[x]]
                brow[c] = brow.get(c, 0) + v
        for b in self.order:
            blk, col = blocks[b], count[b]
            blk.local_bottoms = [x for x in self.members(b) if x not in col]
            blk.bottom_blocks = {
                c
                for c in self.up[b]
                if c != b and any(x not in col for x in self.members(c))
            }
            for c in blk.bottom_blocks:
                blocks[c].held_by.add(b)

    # -- queries ------------------------------------------------------------

    def image(self, b: int) -> list[int]:
        """Members of every block above ``b``, in state-list order."""
        blocks = self.blocks
        out: list[int] = []
        for c in sorted(self.up[b], key=lambda c: blocks[c].begin):
            out.extend(self.members(c))
        return out

    def pos_ordered(self, s_list: Sequence[int], t_list: Sequence[int]) -> list[int]:
        """Members of ``s_list`` reaching ``t_list`` through ``s_list``.

        One backward scan; requires ``s_list`` to be a same-label
        sublist of the state list.  Seeds are the members of ``s_list``
        that already lie in ``t_list`` (the zero-length path) or step
        directly into it.  The result is a sublist of ``s_list``.
        """
        pred = self.k.predecessors
        inside = set(s_list)
        seeds = chain(t_list, chain.from_iterable(map(pred.__getitem__, t_list)))
        found = inside.intersection(seeds)
        for y in reversed(s_list):
            if y in found:
                found.update(inside.intersection(pred[y]))
        result = [s for s in s_list if s in found]
        if self.checks:
            self.checks.pos_ordered(s_list, t_list, result)
        return result

    def find_refiner(self) -> tuple[int, int] | None:
        """First block pair (B, C) whose candidate sets still need work.

        Scans target blocks in list order and, per target, the blocks
        holding a predecessor of it in list order; the reverse topological
        block order guarantees that every pair above the current one was
        already cleared, which is what makes the two bottom-state
        conditions a complete characterization.  A zero counter is an
        absent key, so both conditions are membership tests.

        A target whose scan finds no pair is flagged clean and skipped
        until a write can give it one; the returned target and those
        after it keep their flags.  The writes that can are marked
        where they happen: ``refine`` pruning the up-set of ``c``
        (which also lowers its counter columns), ``update`` dropping the
        ``c`` entry of a ``bcount`` row, and a block's bottom bookkeeping
        gaining an entry other than its split sibling, which marks every
        target the block steps into.  A split itself keeps every
        candidate set: a new block takes its parent's flag, and a block
        that now steps into a target did so before inside its parent,
        with the parent's bottom states.  So a call costs one flag test
        per block plus, per dirty target, one pass over its predecessors
        and a sort of the blocks that pass hits.
        """
        up, count, bcount, dirty = self.up, self.count, self.bcount, self.dirty
        bo, pred, blocks = self.block_of, self.k.predecessors, self.blocks
        for c in compress(self.order, map(dirty.__getitem__, self.order)):
            self.targets_visited += 1
            hit = {bo[x] for y in self.members(c) for x in pred[y]}
            col, above = count[c], up[c]
            # blocks lie in list order along the state list
            for b in sorted(hit, key=lambda b: blocks[b].begin):
                blk = blocks[b]
                if b not in above:
                    for s in blk.local_bottoms:
                        if s not in col:
                            return (b, c)
                for d in blk.bottom_blocks:
                    if d not in above and c not in bcount[d]:
                        return (b, c)
            dirty[c] = 0
        return None

    # -- refinement steps ---------------------------------------------------

    def split(self, s_list: Sequence[int]) -> list[tuple[int, int]]:
        """Split the partition w.r.t. a splitter sublist of the state list.

        Each properly split parent keeps its id for the part outside the
        splitter, and a fresh block holds the inside part, inserted
        immediately in front of it; within both parts states
        keep their previous relative order, which preserves the local
        topological property.  Returns a ``(parent, new block)`` pair per
        properly split parent.
        """
        bo = self.block_of
        parents: list[int] = []
        inside: dict[int, list[int]] = {}
        for x in s_list:
            b = bo[x]
            grp = inside.get(b)
            if grp is None:
                inside[b] = grp = []
                parents.append(b)
            grp.append(x)
        pairs: list[tuple[int, int]] = []
        for p in parents:
            blk = self.blocks[p]
            ss = inside[p]
            if len(ss) == blk.end - blk.begin:
                continue  # whole block inside the splitter: no split
            in_s = set(ss)
            ds = [x for x in self.state_list[blk.begin : blk.end] if x not in in_s]
            nid = self._new_block(p, blk.begin, blk.begin + len(ss))
            newseq = ss + ds
            self.state_list[blk.begin : blk.end] = newseq
            for x in ss:
                bo[x] = nid
            blk.begin += len(ss)
            self.order.insert(self.order.index(p), nid)
            pairs.append((p, nid))
        return pairs

    def splitting_procedure(self, s_list: Sequence[int]) -> None:
        """Split w.r.t. ``s_list``, then repair the counter tables and
        bottom bookkeeping.  Each new block starts with its parent's
        up-set and joins every up-set holding the parent, so every
        state's candidate set is unchanged."""
        pairs = self.split(s_list)
        self.update(pairs)
        self.blocks_created += 2 * len(pairs)

    def update(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Repair BCount rows and the bottom bookkeeping after a split.
        Candidate sets are unchanged at this point, so the counters each
        new block copied from its parent stay right, except the BCount
        rows of the two parts: the parent's redistribute between them.
        Work is proportional to the smaller part times the parent row's
        entries, and to the blocks whose bottom-block sets hold a split
        parent.  ``pairs`` are the ``(parent, new block)`` pairs of ``split``."""
        count, bcount, dirty, blocks = self.count, self.bcount, self.dirty, self.blocks
        for p, i in pairs:
            blk_i, blk_p = blocks[i], blocks[p]
            if blk_i.end - blk_i.begin <= blk_p.end - blk_p.begin:
                small, large = i, p
            else:
                small, large = p, i
            # The parent's row is the sum of the two parts' rows.
            ms, row = self.members(small), bcount[p]
            part = {c: v for c in row if (v := sum(map(count[c].get, ms, repeat(0))))}
            bcount[large] = {c: d for c, v in row.items() if (d := v - part.get(c, 0))}
            bcount[small] = part
            # A target that only row i holds now may have a pair through p.
            for c in bcount[i].keys() - bcount[p].keys():
                dirty[c] = 1
        # Bottom states of the (unchanged) candidate set merely
        # redistribute between the two parts.
        bo = self.block_of
        for p, i in pairs:
            old = blocks[p].local_bottoms
            blocks[p].local_bottoms = [x for x in old if bo[x] == p]
            blocks[i].local_bottoms = [x for x in old if bo[x] == i]
        # Bottom-block sets: new halves inherit the parent's set, every
        # split entry is replaced by whichever parts still hold a bottom
        # state, and the sibling halves are cross-linked when they hold
        # bottom states themselves (the halves are mutually related
        # until the upcoming relation pruning).
        for p, i in pairs:
            blocks[i].bottom_blocks = set(blocks[p].bottom_blocks)
            for d in blocks[i].bottom_blocks:
                blocks[d].held_by.add(i)
        for p, i in pairs:
            blk_p = blocks[p]
            for b in list(blk_p.held_by):
                bb, col = blocks[b].bottom_blocks, count[b]
                if all(x in col for x in self.members(p)):
                    bb.discard(p)
                    blk_p.held_by.discard(b)
                if any(x not in col for x in self.members(i)):
                    bb.add(i)
                    blocks[i].held_by.add(b)
                    self._mark_targets(b)
        # The cross-links mark nothing: for a target the parent is not
        # related to, every bottom state of the parent stepped into it
        # (else it had a pair), so a part holding one has a positive
        # BCount toward it.
        for p, i in pairs:
            if blocks[i].local_bottoms:
                blocks[p].bottom_blocks.add(i)
                blocks[i].held_by.add(p)
            if blocks[p].local_bottoms:
                blocks[i].bottom_blocks.add(p)
                blocks[p].held_by.add(i)

    def refine(self, s_list: Sequence[int]) -> None:
        """Prune the relation against a splitter that is now a union of
        blocks: a block inside the splitter keeps only its in-splitter
        superiors.  Counters are decremented per removed transition
        target; one that hits zero loses its entry, and its state is
        recorded as a new bottom state (in its own block's list when it
        sits in the pruned block itself, else in its bottom-block set)."""
        bo = self.block_of
        splitter_blocks = {bo[x] for x in s_list}
        up, count, bcount, blocks = self.up, self.count, self.bcount, self.blocks
        pred = self.k.predecessors
        for b in splitter_blocks:
            row = up[b]
            pruned = row - splitter_blocks
            if not pruned:
                continue
            # Pruned before the counters fall, so no pruned block enters
            # ``bb`` below.  set() of a set sizes its table to the entries;
            # a set built or pruned entry by entry keeps a larger one.
            up[b] = row = set(row & splitter_blocks)
            self.dirty[b] = 1
            blk_b, col = blocks[b], count[b]
            lb, bb = blk_b.local_bottoms, blk_b.bottom_blocks
            gained = False
            for c in pruned:
                bb.discard(c)
                blocks[c].held_by.discard(b)
                for y in self.members(c):
                    for x in pred[y]:
                        bx = bo[x]
                        brow = bcount[bx]
                        if brow[b] > 1:
                            brow[b] -= 1
                        else:
                            del brow[b]
                        if col[x] > 1:
                            col[x] -= 1
                            continue
                        del col[x]
                        if bx == b:
                            lb.append(x)
                            gained = True
                        elif bx in row and bx not in bb:
                            bb.add(bx)
                            blocks[bx].held_by.add(b)
                            gained = True
            if gained:
                self._mark_targets(b)
            # A dict or set keeps its size when keys are deleted; rebuild.
            count[b] = dict(col)
            blk_b.bottom_blocks = set(bb)

    # -- main loop ----------------------------------------------------------

    def run(self, trace: TraceHook | None = None) -> SimulationResult:
        """Refine to the fixpoint and expand back to the original states."""
        checks = self.checks
        if checks:
            checks.invariants()
        while True:
            found = self.find_refiner()
            if found is None:
                break
            b, c = found
            if checks:
                checks.refiner(b, c)
            src = self.image(b)
            dst = self.image(c)
            splitter = self.pos_ordered(src, dst)
            self.splitting_procedure(splitter)
            self.refine(splitter)
            self.iterations += 1
            if trace is not None:
                trace(self.iterations, (b, c), len(splitter), len(self.order))
            if checks:
                checks.invariants()
        return self._build_result()

    def _build_result(self) -> SimulationResult:
        # The relation is antisymmetric, so each block is one class.
        expanded = {
            b: sorted(s0 for s in self.members(b) for s0 in self.collapse.members[s])
            for b in self.order
        }
        canon = sorted(self.order, key=lambda b: expanded[b][0])
        rank = {b: i for i, b in enumerate(canon)}
        blocks = [expanded[b] for b in canon]
        preorder = {(rank[b], rank[c]) for b in canon for c in self.up[b]}
        block_of = [0] * self.original.num_states
        for i, members in enumerate(blocks):
            for s in members:
                block_of[s] = i
        stats = RunStats(
            iterations=self.iterations,
            blocks_created=self.blocks_created,
            initial_blocks=self.initial_blocks,
            final_blocks=len(self.order),
            targets_visited=self.targets_visited,
        )
        return SimulationResult(blocks, frozenset(preorder), block_of, stats)


def compute_preorder(
    k: KripkeStructure,
    candidate: CandidatePR | None = None,
    *,
    debug: bool = False,
    trace: TraceHook | None = None,
) -> SimulationResult:
    """Compute the stuttering simulation preorder and equivalence of ``k``.

    Without a candidate the result is the full preorder: ``blocks`` are
    the stuttering simulation equivalence classes and ``preorder`` the
    block-level simulation order.  ``debug`` enables exhaustive
    invariant checking at every main-loop boundary.
    """
    return RefinementEngine(k, candidate, debug=debug).run(trace)
