"""Partition-refinement engine for the stuttering simulation preorder.

The engine maintains an ordered partition of a collapsed structure
together with a block preorder, counter tables and per-block local
bottoms, and refines them until no refiner block pair remains.  The
state list always satisfies the local topological property (no backward
same-label transition), blocks are contiguous ranges of it, and their
order along it, read from each block's ``begin``, is a reverse
topological order of the block preorder; these orderings are what make
the one-pass reachability computation and the refiner search correct.
The search takes its targets from a heap keyed by ``begin``.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush, heapreplace
from typing import Callable, Iterable, Sequence

from .model import (
    KripkeStructure,
    RunStats,
    SimulationResult,
    ValidationError,
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
    """A range ``begin:end`` of the state list and its local bottoms:
    the members with no successor in the block's candidate set."""

    __slots__ = ("begin", "end", "local_bottoms")

    def __init__(self, begin: int, end: int):
        self.begin = begin
        self.end = end
        self.local_bottoms: list[int] = []


def _validate_candidate(
    k: KripkeStructure,
    blocks: Sequence[Sequence[int]],
    pairs: Iterable[tuple[int, int]],
) -> tuple[list[int], list[set[int]]]:
    """The candidate with each class of mutually related blocks merged
    into one block, so that its block relation is antisymmetric: the
    merged block of each state, and each merged block's up-set.

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
    merged_of = [class_of[b] for b in block_of]
    for comp in strongly_connected_components(k.successors, k.labels, k.states()):
        cut = sorted({merged_of[s] for s in comp})
        if len(cut) > 1:
            merged = [[s for s in k.states() if merged_of[s] == c] for c in cut]
            message = f"candidate blocks {merged} cut the same-label cycle"
            raise ValidationError(f"{message} through states {comp}")
    return merged_of, [{class_of[j] for j in above} for above in ups]


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
    Ties go to the least block id.
    """
    m = len(up)
    succs: list[set[int]] = [set() for _ in range(m)]  # emitted-before sets
    for i, above in enumerate(up):
        for j in above:
            if i != j:
                succs[j].add(i)  # i below j: j first
    for s, lst in enumerate(k.successors):
        for t in lst:
            bs, bt = block_of[s], block_of[t]
            if bs != bt and k.labels[s] == k.labels[t]:
                succs[bs].add(bt)  # source block first
    out = topological_order(succs, bytes(m))
    if len(out) != m:
        raise ValidationError(
            "candidate relation orders blocks against the same-label "
            "transition topology; no valid list ordering exists"
        )
    return list(out)


class RefinementEngine:
    """Mutable refinement state over a collapsed Kripke structure.

    ``run`` drives the main loop to the fixpoint and expands the answer
    back to the original states.

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
        """The whole initialization: inert-SCC collapse, the two list
        orderings and the counter tables.  Without a candidate the start
        is the label classes in least-member order, and so is the block
        order: no same-label transition crosses a label class, so
        ``_combined_block_order`` would find no constraint to walk."""
        if candidate is None:  # the label classes, in least-member order
            label_id: dict[frozenset[str], int] = {}
            block_of0 = [label_id.setdefault(lab, len(label_id)) for lab in k.labels]
            up0 = [{i} for i in range(len(label_id))]
        else:
            block_of0, up0 = _validate_candidate(k, candidate[0], candidate[1])
        # One least-first topological order serves the collapse and,
        # when nothing collapses, the state sort: it reads the grouping
        # only through equality, and the sort's classes are this same
        # partition.  When the ids already order every in-block edge it
        # is the identity, and the state list is the ascending block
        # member lists laid end to end.
        topo = topological_order(k.successors, block_of0)
        self.k, self.collapse = collapse_inert_sccs(k, block_of0, topo)
        m = len(up0)

        # Block ids 0..m-1 are the (merged) candidate block indices;
        # identifiers allocated later by splits are never reused.  An
        # inert SCC lies inside one block.
        self.block_of = block_of0
        if self.k is not k:
            self.block_of = [block_of0[ms[0]] for ms in self.collapse.members]
        order = list(range(m))
        if candidate is not None:
            order = _combined_block_order(self.k, up0, self.block_of)
        coll_members: list[list[int]] = [[] for _ in range(m)]
        for s, b in enumerate(self.block_of):
            coll_members[b].append(s)
        self.state_list: list[int] = sort_states_locally_topological(
            self.k,
            [coll_members[b] for b in order],
            topo if self.k is k else None,
        )
        self.blocks: list[_Block] = [_Block(0, 0) for _ in range(m)]
        begin = 0
        for b in order:
            blk = self.blocks[b]
            blk.begin, blk.end = begin, begin + len(coll_members[b])
            begin = blk.end
        # Defensive: the combined block order makes this impossible.
        if not is_locally_topological(self.k, self.state_list):
            raise AssertionError("a backward same-label transition survived ordering")

        # up[b]: the blocks related above b, b included; down[c]: below c.
        self.up: list[set[int]] = up0
        self.down: list[set[int]] = [set() for _ in range(m)]
        for b, above in enumerate(up0):
            for c in above:
                self.down[c].add(b)
        # Nonzero entries only: count[c][x] = |succ(x) & image(c)|.  No
        # table is edited in place, so split siblings share theirs.
        self.count: list[dict[int, int]] = []
        # pending[c]: the hit blocks of c (``_hit``) that may form a refiner
        # pair with it (``find_refiner``), at first all; no entry if none.
        # ``marked``: a heap of one (key <= begin, c) per pending target.
        self.pending: dict[int, set[int]] = {c: hs for c in range(m) if (hs := self._hit(c))}
        self.marked = sorted((self.blocks[c].begin, c) for c in self.pending)

        self.iterations = 0
        self.blocks_created = 0
        self.targets_visited = 0
        self.pairs_tested = 0
        self.states_scanned = 0
        self.edges_counted = 0
        self._init_counters()
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
        to and from what the parent is, sharing its counter table, and as
        a target with a copy of its pending set (``update`` adds it as a
        hit block).  Only the sets of the blocks related to the parent
        change."""
        bid = len(self.blocks)
        up, down = self.up, self.down
        for d in down[parent]:
            up[d].add(bid)
        up.append(set(up[parent]))
        down.append(set(down[parent]))
        for c in up[bid]:
            down[c].add(bid)
        self.count.append(self.count[parent])
        self.blocks.append(_Block(begin, end))
        if parent in self.pending:
            self.pending[bid] = set(self.pending[parent])
            heappush(self.marked, (begin, bid))
        return bid

    def _mark(self, c: int, hit_blocks: Iterable[int]) -> None:
        """Add ``hit_blocks`` to the pending set of target ``c``, and
        queue the target if it had none and now has some."""
        todo = self.pending.get(c)
        if todo is None:
            if not hit_blocks:
                return
            self.pending[c] = todo = set()
            heappush(self.marked, (self.blocks[c].begin, c))
        todo.update(hit_blocks)

    def _init_counters(self) -> None:
        for c, blk in enumerate(self.blocks):
            self.count.append(col := self._counter(c))
            blk.local_bottoms = [x for x in self.members(c) if x not in col]

    def _counter(self, b: int) -> dict[int, int]:
        """A new ``count[b]``, counted off the in-edges of ``up[b]``'s
        blocks in any order."""
        pred = self.k.predecessors
        col: dict[int, int] = {}
        for c in self.up[b]:
            for y in self.members(c):
                for x in pred[y]:
                    col[x] = col.get(x, 0) + 1
        self.edges_counted += sum(col.values())
        return col

    # -- queries ------------------------------------------------------------

    def _hit(self, c: int) -> set[int]:
        """The blocks holding a predecessor of a member of ``c``."""
        bo, pred = self.block_of, self.k.predecessors
        return {bo[x] for y in self.members(c) for x in pred[y]}

    def _targets(self, b: int) -> set[int]:
        """The blocks holding a successor of a member of ``b``."""
        bo, succ = self.block_of, self.k.successors
        return {bo[y] for x in self.members(b) for y in succ[x]}

    def image(self, b: int) -> list[int]:
        """Members of every block above ``b``, in state-list order."""
        blocks = self.blocks
        out: list[int] = []
        for c in sorted(self.up[b], key=lambda c: blocks[c].begin):
            out.extend(self.members(c))
        return out

    def pos_ordered(self, s_list: Sequence[int], c: int) -> list[int]:
        """Members of ``s_list`` reaching ``image(c)`` through ``s_list``.

        One backward scan; requires ``s_list`` to be a same-label
        sublist of the state list.  A state joins the result when the
        tables seed it, as in ``image(c)`` (block above ``c``) or
        stepping into it (a key of ``count[c]``), or when it is a
        predecessor of a state that joined; a joining state adds its
        predecessors to the found set.  A same-label predecessor lies
        earlier in the state list, so the scan reaches it after the
        state it precedes; one outside ``s_list`` is never scanned.  The
        result, collected backward, is reversed at the end.
        """
        pred, bo = self.k.predecessors, self.block_of
        col, above = self.count[c], self.up[c]
        self.states_scanned += len(s_list)
        found: set[int] = set()
        result: list[int] = []
        for y in reversed(s_list):
            if y in found or y in col or bo[y] in above:
                result.append(y)
                found.update(pred[y])
        result.reverse()
        if self.checks:
            self.checks.pos_ordered(s_list, c, result)
        return result

    def find_refiner(self) -> tuple[int, int] | None:
        """First block pair (B, C) whose candidate sets still need work.

        A pair ``(b, c)`` with ``b`` in ``_hit(c)`` and outside ``up[c]``
        is a refiner pair when a bottom state of ``b``'s candidate set
        lies outside ``c``'s and has no successor in it.  A block ``d``
        above ``b`` has its candidate set inside ``b``'s, so the bottom
        states of ``b``'s set in ``d`` are the local bottoms of ``d``
        absent from ``count[b]``; they lie outside ``c``'s set when ``d``
        is outside ``up[c]``, and step into it when they are keys of
        ``count[c]``.  A zero counter is an absent key, so the whole
        test reads membership in the tables.

        Targets are scanned in list order and, per target, its pending
        hit blocks in list order.  At a main-loop boundary the block
        relation is antisymmetric, and the first pair found is also the
        first under a block-level test that skips a whole ``d`` once any
        member steps into ``image(c)``.  Had the witness ``d`` a member
        stepping into some ``c'`` in ``up[c]``, the pair ``(d, c')``
        would come earlier (``c'`` is above ``c``, or ``c' == c`` and
        ``d`` is above ``b``), so it is no refiner pair, so ``d``'s local
        bottoms step into ``image(c')``, inside ``image(c)``, against the
        witness bottom being no key of ``count[c]``.

        The search tests only the hit blocks in the target's pending
        set.  A pair it clears leaves the set; a scan that returns a
        pair keeps that pair and the ones after it.  A pair's status
        depends only on the candidate sets and counters of its states,
        which only ``refine`` changes.  So a hit block outside the set
        has no refiner pair with the target, because each write that can
        give it one adds the block where the write happens:

        - ``refine`` rebuilding ``count[b]`` without a key whose block
          stays in ``up[b]`` gives ``b``'s candidate set a new bottom
          state: it adds ``b`` for every target ``b`` steps into;
        - ``refine`` pruning ``up[c]`` and rebuilding ``count[c]`` can
          take any state out of ``c``'s image or out of its
          predecessors: it adds every hit block of ``c`` (naming the
          blocks of the lost keys costs more than the tests it saves).

        A block above its target never forms a pair, so no site adds
        one.  A split keeps every state's candidate set and counters, so
        it changes no unsplit pair's status, and a new block's pairs have
        its parent's.  So a new block takes its parent's pending set as
        a target and, as a hit block, joins each set that holds its
        parent; ``update`` then drops from the split targets' sets the
        blocks that no longer hit them, and a visit does so for the
        others.  Targets with a non-empty set wait in ``marked``, keyed
        at or below their ``begin``, which a split only moves forward: a
        stale key on top is re-keyed, and a current one is the first
        pending target in list order.  So a call costs a heap operation
        per target popped or re-keyed plus, per target visited, a walk
        of its in-edges, a sort of its pending hit blocks and their tests.
        """
        up, count, pending, marked = self.up, self.count, self.pending, self.marked
        blocks = self.blocks
        while marked:
            key, c = marked[0]
            if key != blocks[c].begin:
                heapreplace(marked, (blocks[c].begin, c))
                continue
            self.targets_visited += 1
            into_c, above = count[c], up[c]
            # blocks lie in list order along the state list
            todo = sorted(self._hit(c) & pending[c], key=lambda b: blocks[b].begin)
            for i, b in enumerate(todo):
                if b in above:
                    continue  # up[b] lies inside up[c]
                self.pairs_tested += 1
                into_b = count[b]
                if any(
                    x not in into_b and x not in into_c
                    for d in up[b] - above
                    for x in blocks[d].local_bottoms
                ):
                    pending[c] = set(todo[i:])
                    return (b, c)
            del pending[c]
            heappop(marked)
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
        inside: dict[int, list[int]] = defaultdict(list)  # parents in splitter order
        for x in s_list:
            inside[bo[x]].append(x)
        pairs: list[tuple[int, int]] = []
        for p, ss in inside.items():
            blk = self.blocks[p]
            if len(ss) == blk.end - blk.begin:
                continue  # whole block inside the splitter: no split
            nid = self._new_block(p, blk.begin, blk.begin + len(ss))
            for x in ss:
                bo[x] = nid
            ds = [x for x in self.state_list[blk.begin : blk.end] if bo[x] == p]
            self.state_list[blk.begin : blk.end] = ss + ds
            blk.begin += len(ss)
            pairs.append((p, nid))
        return pairs

    def splitting_procedure(self, s_list: Sequence[int]) -> None:
        """Split w.r.t. ``s_list``, then repair the pending sets and
        local bottoms.  Each new block starts with its parent's
        up-set and joins every up-set holding the parent, so every
        state's candidate set is unchanged."""
        pairs = self.split(s_list)
        self.update(pairs)
        self.blocks_created += 2 * len(pairs)

    def update(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Repair the pending sets and the local bottoms of both parts of
        each split parent.  Candidate sets are unchanged, so the counter
        table each new block shares with its parent stays right, the
        parent's bottom states redistribute between the parts, and no
        pair's status changes (see ``find_refiner``).  Every new block
        joins the sets holding its parent before the parts' own sets drop
        the blocks that no longer hit them, the parent among them.
        ``pairs`` are the ``(parent, new block)`` pairs of ``split``."""
        blocks, bo, pending = self.blocks, self.block_of, self.pending
        for p, i in pairs:
            for c in self._targets(i):
                if p in pending.get(c, ()):
                    pending[c].add(i)
            old = blocks[p].local_bottoms
            blocks[p].local_bottoms = [x for x in old if bo[x] == p]
            blocks[i].local_bottoms = [x for x in old if bo[x] == i]
        for c in pending.keys() & {c for pair in pairs for c in pair}:
            kept = self._hit(c) & pending[c]
            if kept:
                pending[c] = kept

    def refine(self, s_list: Sequence[int]) -> None:
        """Prune the relation against a splitter that is now a union of
        blocks: a block inside the splitter keeps only its in-splitter
        superiors and gets a new counter table from them (a split sibling
        may share the old one).  When no member of the blocks pruned from
        its up-set has a predecessor, its image loses no counted edge, and
        it keeps its table.  An old key missing from the new table, if its
        block is still related above, is a new bottom state of the pruned
        block's candidate set: it joins that block's local bottoms if it
        sits there, and the block is marked for every target it steps
        into.  The pruned block, as a target, is marked for all its hit
        blocks (see ``find_refiner``)."""
        bo, pred = self.block_of, self.k.predecessors
        splitter_blocks = {bo[x] for x in s_list}
        up, down, count = self.up, self.down, self.count
        for b in splitter_blocks:
            row = up[b]
            pruned = row - splitter_blocks
            if not pruned:
                continue
            # set() of a set sizes its table to the entries, unlike a set
            # pruned entry by entry.
            up[b] = row = set(row & splitter_blocks)
            for c in pruned:
                down[c].discard(b)
            old = new = count[b]
            for c in pruned:
                if any(map(pred.__getitem__, self.members(c))):
                    count[b] = new = self._counter(b)
                    break
            # The image only shrank, so equal sizes mean equal keys.
            gained = len(new) < len(old) and [
                x for c in row for x in self.members(c) if x in old and x not in new
            ]
            self._mark(b, self._hit(b) - row)
            if gained:
                self.blocks[b].local_bottoms += [x for x in gained if bo[x] == b]
                for c in self._targets(b):
                    if b not in up[c]:
                        self._mark(c, (b,))

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
            splitter = self.pos_ordered(self.image(b), c)
            self.splitting_procedure(splitter)
            self.refine(splitter)
            self.iterations += 1
            if trace is not None:
                trace(self.iterations, (b, c), len(splitter), len(self.blocks))
            if checks:
                checks.invariants()
        return self._build_result()

    def _build_result(self) -> SimulationResult:
        # The relation is antisymmetric, so each block is one class.  Read in
        # state order, classes come in least-member order, members ascending.
        bo = map(self.block_of.__getitem__, self.collapse.of)
        rank: dict[int, int] = {}
        block_of = [rank.setdefault(b, len(rank)) for b in bo]
        blocks: list[list[int]] = [[] for _ in rank]
        for s, i in enumerate(block_of):
            blocks[i].append(s)
        preorder = {(rank[b], rank[c]) for b in range(len(self.up)) for c in self.up[b]}
        stats = RunStats(
            iterations=self.iterations,
            blocks_created=self.blocks_created,
            initial_blocks=self.initial_blocks,
            final_blocks=len(self.blocks),
            targets_visited=self.targets_visited,
            pairs_tested=self.pairs_tested,
            states_scanned=self.states_scanned,
            edges_counted=self.edges_counted,
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
