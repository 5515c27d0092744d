import hashlib
import random
import sys

import pytest

from stuttersim import (
    KripkeStructure,
    NotAPreorderError,
    RefinementEngine,
    ValidationError,
    check_preorder,
    compute_preorder,
    generate_random_ks,
    labeling_partition,
    naive_stuttering_simulation,
    pos_naive,
    quotient,
    simulator_sets,
)
from stuttersim.invariants import current_state_pairs
from stuttersim.reference import largest_simulation_within

from conftest import block_order, pairs_of, peel, random_preorder, stutter_chain

P4_BLOCKS = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
P4_PAIRS = [(i, i) for i in range(5)] + [(0, 1), (0, 3), (2, 3), (4, 3)]


def p4_engine() -> RefinementEngine:
    k = KripkeStructure(10, [], [["a"]] * 10)
    return RefinementEngine(k, (P4_BLOCKS, P4_PAIRS))


def by_members(engine: RefinementEngine) -> dict[frozenset, int]:
    return {frozenset(engine.members(b)): b for b in block_order(engine)}


def _blocks_holding_bottoms(e: RefinementEngine, b: int) -> set[int]:
    """The blocks above ``b``, ``b`` excluded, that hold a bottom state
    of its candidate set: a member with no successor in the blocks
    above ``b``, read from ``count`` and the block members."""
    return {
        d for d in e.up[b] if d != b and any(x not in e.count[b] for x in e.members(d))
    }


# -- initialization -------------------------------------------------------


def test_initialize_f2_counters(f2):
    e = RefinementEngine(f2)
    b_p = e.block_of[0]
    b_q = e.block_of[1]
    b_r = e.block_of[2]
    expected = {(0, b_q): 1, (0, b_r): 1, (3, b_q): 1}
    for x in range(5):
        for c in block_order(e):
            assert e.count[c].get(x, 0) == expected.get((x, c), 0)
    assert e.blocks[b_p].local_bottoms == [0, 3]
    assert e.blocks[b_q].local_bottoms == [1, 4]
    for b in block_order(e):
        assert _blocks_holding_bottoms(e, b) == set()
    # One label class per block: each is related only to itself.
    assert [e.down[b] for b in (b_p, b_q, b_r)] == [{b_p}, {b_q}, {b_r}]


def test_initialize_no_transitions_all_bottom():
    k = KripkeStructure(4, [], [["a"], ["a"], ["b"], ["b"]])
    e = RefinementEngine(k)
    for x in range(4):
        for c in block_order(e):
            assert x not in e.count[c]
    for b in block_order(e):
        assert e.blocks[b].local_bottoms == e.members(b)


def test_initialize_f1_local_bottoms(f1):
    e = RefinementEngine(f1)
    assert e.blocks[e.block_of[0]].local_bottoms == [0, 2]


def test_initialize_rejects_non_preorder(f2):
    blocks = [[0, 3], [1, 4], [2]]
    with pytest.raises(NotAPreorderError):
        RefinementEngine(f2, (blocks, [(0, 0), (1, 1)]))  # not reflexive
    k = KripkeStructure(3, [], [["a"], ["a"], ["a"]])
    pairs = [(i, i) for i in range(3)] + [(0, 1), (1, 2)]
    with pytest.raises(NotAPreorderError):
        RefinementEngine(k, ([[0], [1], [2]], pairs))  # not transitive


def test_initialize_rejects_label_violations(f2):
    with pytest.raises(ValidationError, match="offending block"):
        RefinementEngine(f2, ([[0, 1], [2], [3], [4]], [(i, i) for i in range(4)]))
    pairs = [(i, i) for i in range(3)] + [(0, 2)]
    with pytest.raises(ValidationError, match="offending block"):
        RefinementEngine(f2, ([[0, 3], [1, 4], [2]], pairs))


def test_initialize_rejects_out_of_range_first_member():
    k = KripkeStructure(3, [], [["a"]] * 3)
    with pytest.raises(ValidationError, match="out of range"):
        RefinementEngine(k, ([[5, 0], [1], [2]], [(i, i) for i in range(3)]))


def test_initialize_rejects_order_incompatible_candidate():
    # {0} below {1} forces {1} first in the block list, but the
    # transition 0 -> 1 between same-label states forces 0 first.
    k = KripkeStructure(2, [(0, 1)], [["p"], ["p"]])
    pairs = [(0, 0), (1, 1), (0, 1)]
    with pytest.raises(ValidationError, match="no valid list ordering"):
        RefinementEngine(k, ([[0], [1]], pairs))


def test_initialize_rejects_candidate_cutting_a_cycle():
    # 0 and 1 form a same-label cycle: one block may hold it, two may not.
    k = KripkeStructure(3, [(0, 1), (1, 0), (1, 2)], [["a"], ["a"], ["b"]])
    assert compute_preorder(k, ([[0, 1], [2]], [(0, 0), (1, 1)])).blocks == [[0, 1], [2]]
    with pytest.raises(
        ValidationError,
        match=r"candidate blocks \[\[0\], \[1\]\] cut the same-label cycle through states \[0, 1\]",
    ):
        RefinementEngine(k, ([[0], [1], [2]], [(0, 0), (1, 1), (2, 2)]))


# -- queries --------------------------------------------------------------


def test_image_is_ordered_sublist():
    e = p4_engine()
    b0 = e.block_of[0]
    img = e.image(b0)
    assert set(img) == {0, 1, 2, 3, 6, 7}
    positions = [e.state_list.index(s) for s in img]
    assert positions == sorted(positions)
    b2 = e.block_of[4]
    assert set(e.image(b2)) == {4, 5, 6, 7}


def test_pos_ordered_empty(f1):
    e = RefinementEngine(f1)
    assert e.image(e.block_of[3]) == [3, 4]
    assert e.pos_ordered([], e.block_of[3]) == []


def test_pos_ordered_f1(f1):
    e = RefinementEngine(f1)
    src = e.image(e.block_of[0])
    assert e.pos_ordered(src, e.block_of[3]) == [0, 1, 2]


def test_pos_ordered_f2(f2):
    e = RefinementEngine(f2)
    assert e.image(e.block_of[2]) == [2]
    assert e.pos_ordered([0, 3], e.block_of[2]) == [0]


def _assert_pos_ordered_matches_naive(e: RefinementEngine) -> None:
    order = block_order(e)
    for b in order:
        src = e.image(b)
        for c in order:
            naive = pos_naive(e.k, src, e.image(c))
            assert set(e.pos_ordered(src, c)) == naive, (b, c)


@pytest.mark.parametrize("seed", range(40))
def test_pos_ordered_matches_naive(seed):
    """Every block pair, at init and after each main-loop step, so the
    seeds are read from counter tables that splits shared and
    ``refine`` rebuilt."""
    k = generate_random_ks(9000 + seed, 2 + seed % 8, 0.35, 1 + seed % 3)
    e = RefinementEngine(k)
    _assert_pos_ordered_matches_naive(e)
    while (found := e.find_refiner()) is not None:
        splitter = e.pos_ordered(e.image(found[0]), found[1])
        e.splitting_procedure(splitter)
        e.refine(splitter)
        _assert_pos_ordered_matches_naive(e)


def test_find_refiner_f2_initial(f2):
    e = RefinementEngine(f2)
    assert e.find_refiner() == (e.block_of[0], e.block_of[2])


def test_find_refiner_absent_at_fixpoint(f1):
    e = RefinementEngine(f1)
    assert e.find_refiner() is None  # the label partition already works


def test_find_refiner_drains_the_worklist(f1):
    # Each pending target is visited once, in list order, and a target
    # that is cleared leaves the worklist and the pending sets.
    e = RefinementEngine(f1)
    visits = []
    hit = e._hit

    def counted(c):
        visits.append(c)
        assert len(visits) <= len(e.blocks), "a cleared target was visited again"
        return hit(c)

    e._hit = counted
    assert e.find_refiner() is None
    assert visits == block_order(e)
    assert e.marked == [] and e.pending == {}


def test_find_refiner_no_transitions():
    k = KripkeStructure(3, [], [["a"], ["a"], ["a"]])
    assert RefinementEngine(k).find_refiner() is None


# -- refinement steps -----------------------------------------------------


def test_split_union_of_blocks_is_noop(f2):
    e = RefinementEngine(f2)
    before = block_order(e)
    assert e.split([1, 4]) == []
    assert block_order(e) == before


def test_split_f2(f2):
    e = RefinementEngine(f2)
    parent = e.block_of[0]
    pairs = e.split([0])
    new = e.block_of[0]
    assert pairs == [(parent, new)]
    assert e.members(new) == [0] and e.members(parent) == [3]
    assert e.blocks[new].end == e.blocks[parent].begin


def test_splitting_procedure_union_noop(f2):
    e = RefinementEngine(f2)
    up_before = [set(row) for row in e.up]
    e.splitting_procedure([1, 4])
    assert e.up == up_before


def test_splitting_procedure_f2_creates_mutual_pair(f2):
    e = RefinementEngine(f2)
    parent = e.block_of[0]
    e.splitting_procedure([0])
    new = e.block_of[0]
    assert parent in e.up[new] and new in e.up[parent]
    # candidate sets unchanged: both halves see the whole old block
    assert set(e.image(new)) == {0, 3} == set(e.image(parent))


def test_update_empty_is_noop(f2):
    e = RefinementEngine(f2)
    counts = [dict(col) for col in e.count]
    e.update([])
    assert [dict(col) for col in e.count] == counts


def test_update_f2_bookkeeping(f2):
    e = RefinementEngine(f2)
    parent = e.block_of[0]
    b_q = e.block_of[1]
    b_r = e.block_of[2]
    # (parent, b_r) is a refiner pair from the start: 3 cannot step into r.
    assert _is_refiner_by_states(e, parent, b_r) and parent in e.pending[b_r]
    e.splitting_procedure([0])
    new = e.block_of[0]
    assert e.blocks[new].local_bottoms == [0]
    assert e.blocks[parent].local_bottoms == [3]
    # Only the new part steps into b_r; its pair keeps the parent's
    # status, and it joined b_r's pending set as the parent's copy.
    assert _hit_blocks(e, b_r) == {new}
    assert _is_refiner_by_states(e, new, b_r) and new in e.pending[b_r]
    assert (e.blocks[b_r].begin, b_r) in e.marked
    # No table is edited in place, so the new part shares its parent's.
    assert e.count[new] is e.count[parent]
    # sibling halves hold each other's bottom states
    assert _blocks_holding_bottoms(e, new) == {parent}
    assert _blocks_holding_bottoms(e, parent) == {new}
    # Splitting the pending target b_q copies its pending set to the new
    # part, and each part keeps the blocks that still hit it.
    assert e.pending[b_q] == {parent, new}
    e.splitting_procedure([1])
    new_q = e.block_of[1]
    assert e.pending[new_q] == {new} and e.pending[b_q] == {parent}
    assert (e.blocks[new_q].begin, new_q) in e.marked


def test_update_keeps_pairs_below_a_lost_block_pending():
    # The part {1} loses the step 0 -> 3 into the block {3} and so into
    # the candidate set of every block below it, {2} included.  The
    # pairs that could gain from that loss, {4} into {2} and {0} into
    # {3}, are refiner pairs before the split already, so they stay
    # pending: {4}'s pair unsplit, and {0}'s through the new part.
    k = KripkeStructure(5, [(0, 3), (4, 2)], [["a"], ["a"], ["b"], ["b"], ["a"]])
    blocks = [[0, 1], [2], [3], [4]]
    e = RefinementEngine(k, (blocks, [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (3, 0)]))
    below, above, low = e.block_of[2], e.block_of[3], e.block_of[4]
    parent = e.block_of[0]
    assert e.up[below] == {below, above}
    assert _is_refiner_by_states(e, low, below) and _is_refiner_by_states(e, parent, above)
    assert e.pending == {below: {low}, above: {parent}}
    e.splitting_procedure([0])
    new = e.block_of[0]
    assert e.pending == {below: {low}, above: {parent, new}}
    assert _hit_blocks(e, above) == {new} and _is_refiner_by_states(e, new, above)
    assert sorted(e.marked) == sorted((e.blocks[c].begin, c) for c in (below, above))


def test_refine_f2_prunes_one_direction(f2):
    e = RefinementEngine(f2)
    parent = e.block_of[0]
    e.splitting_procedure([0])
    new = e.block_of[0]
    e.refine([0])
    assert parent not in e.up[new]
    assert new in e.up[parent]
    assert _blocks_holding_bottoms(e, new) == set()
    assert _blocks_holding_bottoms(e, parent) == {new}


def test_refine_whole_state_set_removes_nothing():
    e = p4_engine()
    up_before = [set(row) for row in e.up]
    e.refine(list(e.state_list))
    assert e.up == up_before


def test_selftest_goldens():
    from stuttersim.selftest import golden_checks

    for name, ok, detail in golden_checks():
        assert ok, f"{name}: {detail}"


# -- runs -----------------------------------------------------------------


def test_run_f1(f1):
    result = compute_preorder(f1)
    assert result.blocks == [[0, 1, 2], [3, 4]]
    assert result.preorder == frozenset({(0, 0), (1, 1)})


def test_run_f2(f2):
    result = compute_preorder(f2)
    assert result.blocks == [[0], [1, 4], [2], [3]]
    assert result.strict_block_pairs() == [(3, 0)]
    assert result.related(3, 0) and not result.related(0, 3)
    assert result.related(1, 4) and result.related(4, 1)


def test_related_rejects_ids_outside_the_states(f2):
    # A negative id would index from the end; it names no state, as it
    # names none in the pair view.
    result = compute_preorder(f2)
    for x, y in [(-1, 0), (0, -1), (-5, -5), (5, 0), (0, 5)]:
        with pytest.raises(IndexError):
            result.related(x, y)
        assert (x, y) not in result.state_pairs()


def test_run_single_state_self_loop():
    k = KripkeStructure(1, [(0, 0)], [["p"]])
    result = compute_preorder(k)
    assert result.blocks == [[0]]
    assert result.preorder == frozenset({(0, 0)})


def test_run_empty_structure():
    result = compute_preorder(KripkeStructure(0, [], []))
    assert result.blocks == [] and result.preorder == frozenset()


def test_run_regression_new_bottom_inside_pruned_block():
    # After the first split, pruning pushes a fresh local bottom into
    # the splitter block itself; with stale bookkeeping the refiner
    # (block{0,1}, block{4}) is missed and 0,1 end up conflated.
    k = KripkeStructure(
        5, [(0, 2), (0, 3), (1, 3), (1, 4)], [["a"], ["a"], ["a"], ["b"], ["c"]]
    )
    result = compute_preorder(k, debug=True)
    assert result.blocks == [[0], [1], [2], [3], [4]]
    assert result.state_pairs() == naive_stuttering_simulation(k)


def test_run_trace_hook(f2):
    events = []
    compute_preorder(f2, trace=lambda *args: events.append(args))
    assert events
    assert [e[0] for e in events] == list(range(1, len(events) + 1))
    for _, pair, size, num_blocks in events:
        assert len(pair) == 2 and size >= 1 and num_blocks >= 3


@pytest.mark.parametrize("seed", range(60))
def test_run_matches_oracle(seed):
    k = generate_random_ks(11_000 + seed, 2 + seed % 8, (0.15, 0.3, 0.5)[seed % 3], 1 + seed % 3)
    assert compute_preorder(k).state_pairs() == naive_stuttering_simulation(k)


@pytest.mark.parametrize("seed", range(35))
def test_run_debug_invariants(seed):
    if seed < 25:
        k = generate_random_ks(12_000 + seed, 2 + seed % 12, 0.3, 1 + seed % 4)
    else:
        # Sparse models of 40-58 states: one splitter splits several
        # parents, and counter tables are shared while still large.
        n = 40 + 2 * (seed - 25)
        k = generate_random_ks(seed, n, 2 / n, 4)
    compute_preorder(k, debug=True)


@pytest.mark.parametrize("seed", range(25))
def test_refiner_absent_iff_checker_accepts(seed):
    k = generate_random_ks(13_000 + seed, 2 + seed % 7, 0.35, 1 + seed % 3)
    e = RefinementEngine(k)
    while True:
        found = e.find_refiner()
        verdict = check_preorder(e.k, current_state_pairs(e))
        assert verdict.accepted == (found is None)
        if found is None:
            break
        splitter = e.pos_ordered(e.image(found[0]), found[1])
        e.splitting_procedure(splitter)
        e.refine(splitter)


def _first_refiner(e: RefinementEngine) -> tuple[int, int] | None:
    """The refiner search by definition: every (B, C) pair, target-major,
    that has a transition from B into C, tested against the two
    bottom-state conditions with no marks and no skips.  Bottom states
    come from ``count`` and the block members, not the engine's lists.
    A block holding a bottom state is skipped when a member steps into
    ``C``'s candidate set, which agrees with the state-level definition
    on the first pair only where the block relation is antisymmetric."""
    order = block_order(e)
    for c in order:
        for b in order:
            if not _hits(e, b, c):
                continue
            bottoms = [x for x in e.members(b) if x not in e.count[b]]
            if b not in e.up[c] and any(s not in e.count[c] for s in bottoms):
                return (b, c)
            holding = _blocks_holding_bottoms(e, b)
            if any(
                d not in e.up[c] and not any(x in e.count[c] for x in e.members(d))
                for d in holding
            ):
                return (b, c)
    return None


def _hits(e: RefinementEngine, b: int, c: int) -> bool:
    return any(e.block_of[y] == c for x in e.members(b) for y in e.k.successors[x])


def _hit_blocks(e: RefinementEngine, c: int) -> set[int]:
    """The blocks with a member stepping into ``c``, by ``_hits``."""
    return {b for b in block_order(e) if _hits(e, b, c)}


def _is_refiner_by_states(e: RefinementEngine, b: int, c: int) -> bool:
    """Whether some bottom state of ``b``'s candidate set lies outside
    ``c``'s and has no successor in it, from the block members and the
    successors alone."""
    mu_b, mu_c = set(e.image(b)), set(e.image(c))
    succ = e.k.successors
    return any(
        x not in mu_c and all(y not in mu_b and y not in mu_c for y in succ[x])
        for x in mu_b
    )


def _first_refiner_by_states(e: RefinementEngine) -> tuple[int, int] | None:
    """The first pair, target-major in list order, with a transition from
    B into C that is a refiner pair by the state-level definition."""
    order = block_order(e)
    for c in order:
        for b in order:
            if _hits(e, b, c) and _is_refiner_by_states(e, b, c):
                return (b, c)
    return None


def _assert_first_refiner(e: RefinementEngine) -> tuple[int, int] | None:
    """The search's pair, checked against the state-level definition,
    and against the block-level one where the block relation is
    antisymmetric (at every main-loop boundary among others)."""
    found = e.find_refiner()
    assert found == _first_refiner_by_states(e)
    if all(b not in e.up[c] for b, row in enumerate(e.up) for c in row if c != b):
        assert found == _first_refiner(e)
    return found


def _assert_search_matches_definition(e: RefinementEngine) -> None:
    while True:
        found = _assert_first_refiner(e)
        if found is None:
            return
        splitter = e.pos_ordered(e.image(found[0]), found[1])
        e.splitting_procedure(splitter)
        e.refine(splitter)


@pytest.mark.parametrize("seed", range(30))
def test_find_refiner_matches_definition(seed):
    k = generate_random_ks(17_000 + seed, 4 + seed % 17, 0.25, 1 + seed % 3)
    _assert_search_matches_definition(RefinementEngine(k))


@pytest.mark.parametrize("seed", range(10))
def test_find_refiner_matches_definition_from_candidate(seed):
    # Only candidates whose block relation has a strict pair count: those
    # are the pairs a skip below a cleared target would act on.
    rng = random.Random(seed)
    for attempt in range(50):
        k = generate_random_ks(18_000 + 100 * seed + attempt, 10 + seed % 8, 0.1, 3)
        blocks, pairs = _candidate_classes(k, random_preorder(rng, k))
        if all(i == j for i, j in pairs):
            continue
        try:
            e = RefinementEngine(k, (blocks, pairs))
        except ValidationError:
            continue  # candidate block order incompatible with the topology
        break
    else:
        pytest.fail("no usable candidate with a strict pair")
    _assert_search_matches_definition(e)


@pytest.mark.parametrize("seed", range(300))
def test_find_refiner_matches_definition_after_any_split(seed):
    # Random splitters and prunings rather than the main loop's: every
    # write that can give a target skipped as clean a pair must mark it.
    # A bare split leaves its parts mutually related, so there the
    # block-level definition differs and only the state-level one holds.
    rng = random.Random(seed)
    k = generate_random_ks(22_000 + seed, 3 + seed % 26, (0.1, 0.2, 0.3)[seed % 3], 1 + seed % 3)
    e = RefinementEngine(k)
    for _ in range(20):
        _assert_first_refiner(e)
        splitter = [x for x in e.state_list if rng.random() < 0.4]
        e.splitting_procedure(splitter)
        _assert_first_refiner(e)
        if rng.random() < 0.5:
            e.refine(splitter)


def test_split_keeps_every_pair_status():
    # A split changes no state's candidate set, so each hit pair after it
    # has the state-level status of the pair of its parts' parents.
    seen = []
    for seed in range(40):
        rng = random.Random(seed)
        density = (0.1, 0.2, 0.3)[seed % 3]
        k = generate_random_ks(23_000 + seed, 3 + seed % 20, density, 1 + seed % 3)
        e = RefinementEngine(k)
        for _ in range(10):
            m = len(e.blocks)
            before = {
                (b, c): _is_refiner_by_states(e, b, c)
                for c in range(m) for b in range(m) if _hits(e, b, c)
            }
            parent_of = list(e.block_of)
            splitter = [x for x in e.state_list if rng.random() < 0.4]
            e.splitting_procedure(splitter)
            for c in range(len(e.blocks)):
                for b in range(len(e.blocks)):
                    if _hits(e, b, c):
                        was = before[parent_of[e.members(b)[0]], parent_of[e.members(c)[0]]]
                        assert _is_refiner_by_states(e, b, c) == was, (seed, b, c)
                        seen.append(was)
            if rng.random() < 0.5:
                e.refine(splitter)
    # Both statuses occur often, so a split that flipped either shows.
    assert min(seen.count(True), seen.count(False)) > 100


def test_sparse_300_pins_refiner_sequence():
    # Any drift in which refiner pairs are chosen changes these counts.
    k = generate_random_ks(7, 300, 2 / 300, 4)
    result = compute_preorder(k)
    stats = result.stats
    assert (stats.iterations, stats.blocks_created, stats.final_blocks) == (410, 450, 229)
    assert (stats.targets_visited, stats.pairs_tested) == (760, 1277)
    assert (stats.states_scanned, stats.edges_counted) == (9389, 7005)
    assert check_preorder(k, result.state_pairs()).accepted


def test_stutter_chain_work_counters():
    # Both iterations scan the whole p-class (3 * 10**4 + 1 states).  The
    # tables are counted once at init, off every in-edge; the pruning
    # that would read the chain's 29,999 in-edges again drops only the
    # solo state, which has no predecessor, so it keeps its table.
    stats = compute_preorder(stutter_chain(3 * 10**4)).stats
    assert (stats.iterations, stats.final_blocks) == (2, 4)
    assert (stats.states_scanned, stats.edges_counted) == (60_002, 30_001)


# sha256 of the repr of the list of (b, c) refiner pairs that the trace
# hook sees on generate_random_ks(7, n, 2 / n, 4).  Which pairs the search
# tests may change; the pairs it returns may not.
REFINER_SEQUENCE_SHA256 = {
    300: "0904b83fc7db89bf66c77dd86457bd09eb09265ebd0b1b674cc13e0db7e66f31",
    1500: "86adda52f2a6362afb67433031eda73e625e5de27cef1cc6e5359081b32f9cfd",
}


@pytest.mark.parametrize("n", sorted(REFINER_SEQUENCE_SHA256))
def test_refiner_pair_sequence_is_pinned(n):
    pairs = []
    k = generate_random_ks(7, n, 2 / n, 4)
    compute_preorder(k, trace=lambda i, pair, size, m: pairs.append(pair))
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == REFINER_SEQUENCE_SHA256[n]


def test_sparse_300_tables_hold_only_nonzero_entries():
    # A zero counter is an absent key, so the tables hold exactly the
    # nonzero entries (a dense layout holds n * m and m * m).
    e = RefinementEngine(generate_random_ks(7, 300, 2 / 300, 4))
    e.run()
    assert sum(map(len, e.count)) == 2141
    assert sum(map(len, e.down)) == sum(map(len, e.up))


def test_sparse_300_pending_sets_stay_trimmed():
    # ``update`` drops from each split target's pending set the blocks
    # that no longer hit it; without that trim the sets peak at 2,147
    # entries on this run.
    e = RefinementEngine(generate_random_ks(7, 300, 2 / 300, 4))
    peak = 0

    def sample(*_):
        nonlocal peak
        peak = max(peak, sum(map(len, e.pending.values())))

    e.run(sample)
    assert peak == 356


def test_split_walks_no_block_list():
    # A split touches the up-sets below its parent and the down-sets
    # above it; walking every block's row would cost O(blocks) per split.
    class NoWalk(list):
        def __iter__(self):
            raise AssertionError("the engine walked a whole per-block table")

    e = RefinementEngine(generate_random_ks(7, 300, 2 / 300, 4))
    e.up, e.down, e.blocks = NoWalk(e.up), NoWalk(e.down), NoWalk(e.blocks)
    stats = e.run().stats
    assert (stats.iterations, stats.blocks_created, stats.final_blocks) == (410, 450, 229)
    assert (stats.targets_visited, stats.pairs_tested) == (760, 1277)


def test_trace_counts_blocks_at_n300():
    # One trace line per iteration; the block count is the number of
    # block ids, which splits only ever add to.
    lines = []
    compute_preorder(generate_random_ks(7, 300, 2 / 300, 4), trace=lambda *a: lines.append(a))
    assert len(lines) == 410
    assert lines[-1][3] == 229


def test_refine_leaves_pruned_rows_compact():
    # A set keeps its table size when entries are discarded, so a row
    # that is not rebuilt after pruning keeps the size of its peak.
    e = RefinementEngine(generate_random_ks(7, 300, 2 / 300, 4))
    refine, pruned = e.refine, 0

    def checked_refine(s_list):
        nonlocal pruned
        before = {b: len(e.up[b]) for b in {e.block_of[x] for x in s_list}}
        refine(s_list)
        for b, size in before.items():
            if len(e.up[b]) < size:
                pruned += 1
                assert sys.getsizeof(e.up[b]) <= sys.getsizeof(set(e.up[b])), b

    e.refine = checked_refine
    e.run()
    assert pruned


def test_refine_replaces_shared_tables_without_editing_them():
    # Split siblings share one counter table, so ``refine`` must give a
    # pruned block a new table and leave the old one as it was.  It keeps
    # the table exactly when no member of the blocks pruned from the
    # up-set has a predecessor: the image then loses no counted edge.
    models = [
        (generate_random_ks(7, 300, 2 / 300, 4), (12, 446)),
        (stutter_chain(200), (1, 1)),
    ]
    for k, expected in models:
        e = RefinementEngine(k)
        refine, pred = e.refine, e.k.predecessors
        kept = new = shared = 0

        def checked_refine(s_list):
            nonlocal kept, new, shared
            before = list(e.count)
            copies = {id(t): dict(t) for t in before}
            inside = {e.block_of[x] for x in s_list}
            pruned = {b: e.up[b] - inside for b in inside}
            refine(s_list)
            for t in e.count:
                if id(t) in copies:
                    assert t == copies[id(t)]
            for b, gone in pruned.items():
                if gone:
                    keeps = not any(pred[y] for c in gone for y in e.members(c))
                    assert (e.count[b] is before[b]) == keeps
                    kept += keeps
                    new += not keeps
            tables = {id(t) for t in e.count}
            shared += any(
                t is not e.count[b] and id(t) in tables for b, t in enumerate(before)
            )

        e.refine = checked_refine
        e.run()
        assert (kept, new) == expected
        assert shared


def test_stutter_chain_debug_run():
    # The invariants recount every table at each main-loop boundary, so
    # a table kept through a pruning is checked against a fresh count.
    result = compute_preorder(stutter_chain(200), debug=True)
    assert result.stats.iterations == 2 and len(result.blocks) == 4


@pytest.mark.parametrize(
    ("n", "states", "iterations"), [(8, 53, 28), (12, 103, 44), (16, 169, 60)]
)
def test_peel_matches_oracle(n, states, iterations):
    # Each pruning keeps most of a large up-set, so the new counter
    # table is nearly as large as the one it replaces.
    k = peel(n)
    result = compute_preorder(k, debug=True)
    assert (k.num_states, result.stats.iterations) == (states, iterations)
    assert result.state_pairs() == naive_stuttering_simulation(k)


@pytest.mark.parametrize("i", range(10))
def test_oracle_sweep_50_to_300_states(i):
    # Against both oracles: densities log-spaced from 2/n to 0.05 and
    # 1-4 labels give runs with a hundred blocks and more as well as
    # runs with few.
    n = 50 + 250 * i // 9
    density = 2 / n * (0.05 * n / 2) ** (i * 5 % 10 / 9)
    k = generate_random_ks(31_000 + i, n, density, 1 + i % 4)
    result = compute_preorder(k)
    sim = simulator_sets(k)
    assert result.state_pairs() == pairs_of(sim)
    assert result.state_pairs() == naive_stuttering_simulation(k)
    if n <= 150:  # a random scan costs up to 4x the default one
        assert result.state_pairs() == pairs_of(simulator_sets(k, random.Random(i)))
    # criterion 6's equalities
    classes = {frozenset(y for y in sim[x] if x in sim[y]) for x in k.states()}
    stats = result.stats
    assert len(result.blocks) == stats.final_blocks == len(classes)
    assert stats.blocks_created == 2 * (stats.final_blocks - stats.initial_blocks)
    assert stats.iterations <= stats.final_blocks**2


def test_naive_oracle_at_n1000():
    k = generate_random_ks(7, 1000, 2 / 1000, 4)
    assert compute_preorder(k).state_pairs() == naive_stuttering_simulation(k)


@pytest.mark.parametrize("seed", range(30))
def test_result_preorder_shape(seed):
    k = generate_random_ks(16_000 + seed, 2 + seed % 8, 0.35, 1 + seed % 3)
    result = compute_preorder(k)
    m = len(result.blocks)
    for i in range(m):
        assert (i, i) in result.preorder
    for i, j in result.preorder:
        if i != j:  # blocks are the symmetric reduction classes
            assert (j, i) not in result.preorder
        for l in range(m):
            if (j, l) in result.preorder:
                assert (i, l) in result.preorder


@pytest.mark.parametrize("seed", range(40))
def test_run_stats_bounds(seed):
    k = generate_random_ks(14_000 + seed, 2 + seed % 8, 0.3, 1 + seed % 3)
    result = compute_preorder(k)
    stats = result.stats
    assert stats.final_blocks == len(result.blocks)
    assert stats.iterations <= len(result.blocks) ** 2
    assert stats.blocks_created == 2 * (stats.final_blocks - stats.initial_blocks)
    assert stats.initial_blocks == len(labeling_partition(k))


# -- candidate relations --------------------------------------------------


def test_candidate_mutual_blocks_merge_in_result():
    k = KripkeStructure(2, [], [["a"], ["a"]])
    pairs = [(0, 0), (1, 1), (0, 1), (1, 0)]
    result = compute_preorder(k, ([[0], [1]], pairs))
    assert result.blocks == [[0, 1]]
    assert result.preorder == frozenset({(0, 0)})


def test_candidate_run_computes_largest_contained_simulation(f2):
    # cap the relation below the full preorder: {1} and {4} stay apart
    blocks = [[0], [1], [2], [3], [4]]
    pairs = [(i, i) for i in range(5)] + [(3, 0), (1, 4)]
    result = compute_preorder(f2, (blocks, pairs), debug=True)
    expected = largest_simulation_within(
        f2, {(s, s) for s in range(5)} | {(3, 0), (1, 4)}
    )
    assert result.state_pairs() == expected


def _candidate_classes(
    k: KripkeStructure, rel: set[tuple[int, int]]
) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """The (blocks, block pairs) candidate form of a state preorder."""
    classes: list[list[int]] = []
    assigned: dict[int, int] = {}
    for s in k.states():
        if s in assigned:
            continue
        members = [t for t in k.states() if (s, t) in rel and (t, s) in rel]
        for t in members:
            assigned[t] = len(classes)
        classes.append(members)
    return classes, {(assigned[s], assigned[t]) for s, t in rel}


@pytest.mark.parametrize("seed", range(40))
def test_candidate_run_random(seed):
    rng = random.Random(seed)
    k = generate_random_ks(15_000 + seed, 2 + seed % 6, 0.3, 1 + seed % 3)
    rel = random_preorder(rng, k)
    classes, pairs = _candidate_classes(k, rel)
    try:
        result = compute_preorder(k, (classes, pairs))
    except ValidationError:
        return  # candidate block order incompatible with the topology
    assert result.state_pairs() == largest_simulation_within(k, rel)


# Seeds whose candidate puts the states of a same-label cycle into
# different blocks.
CUT_CYCLE_SEEDS = {9, 20, 30, 49, 58, 63, 79, 97, 117, 131, 143}


@pytest.mark.parametrize("seed", range(150))
def test_candidate_with_mutually_related_blocks(seed):
    # Each class split into two mutually related halves: the engine
    # merges them back, so the run is the unsplit candidate's and the
    # block order holds at every boundary.
    k = generate_random_ks(seed, 7, 0.15, 3)
    rel = random_preorder(random.Random(seed), k)
    classes, pairs = _candidate_classes(k, rel)
    blocks: list[list[int]] = []
    ids: list[range] = []
    for members in classes:
        parts = [h for h in (members[::2], members[1::2]) if h]
        ids.append(range(len(blocks), len(blocks) + len(parts)))
        blocks.extend(parts)
    split_pairs = {(a, b) for i, j in pairs for a in ids[i] for b in ids[j]}
    try:
        expected = compute_preorder(k, (classes, pairs))
    except ValidationError as exc:
        # The candidate cuts a same-label cycle, or its block order is
        # incompatible with the topology.
        cuts = seed in CUT_CYCLE_SEEDS
        assert ("cut the same-label cycle" in str(exc)) == cuts
        assert ("no valid list ordering" in str(exc)) != cuts
        with pytest.raises(ValidationError):
            compute_preorder(k, (blocks, split_pairs))
        return
    assert seed not in CUT_CYCLE_SEEDS
    result = compute_preorder(k, (blocks, split_pairs), debug=True)
    assert result.state_pairs() == largest_simulation_within(k, rel)
    assert result == expected and result.stats == expected.stats


def _below(a: tuple, b: tuple) -> bool:
    """Order of the class keys: equal labels, levels at most."""
    return a[0] == b[0] and a[1] <= b[1] and a[2] <= b[2]


def _levelled_candidate(
    k: KripkeStructure, rng: random.Random, width: int
) -> dict[tuple, list[int]]:
    """The classes of a random candidate preorder, by key: s is below t
    when the labels agree and both random levels of s are at most those
    of t.  The levels never rise along a same-label transition, so the
    candidate has a valid block order."""
    levels = [[rng.randrange(width), rng.randrange(width)] for _ in k.states()]
    changed = True
    while changed:
        changed = False
        for s, t in k.transitions:
            top = [max(a, b) for a, b in zip(levels[s], levels[t])]
            if k.labels[s] == k.labels[t] and levels[s] != top:
                levels[s], changed = top, True
    classes: dict[tuple, list[int]] = {}
    for s in k.states():
        classes.setdefault((k.labels[s], *levels[s]), []).append(s)
    return classes


@pytest.mark.parametrize("i", range(8))
def test_candidate_runs_40_to_80_states(i):
    # Candidates on 40-80 states, against the containment oracle; odd
    # i split each class into two mutually related halves, which the
    # engine merges back.
    n = 40 + 40 * i // 7
    k = generate_random_ks(41_000 + i, n, (2 / n, 0.05, 0.1)[i % 3], 2 + i % 2)
    classes = _levelled_candidate(k, random.Random(i), 2 + i % 4)
    rel = {
        (s, t)
        for a in classes
        for b in classes
        if _below(a, b)
        for s in classes[a]
        for t in classes[b]
    }
    blocks: list[list[int]] = []
    keys: list[tuple] = []
    for key, members in classes.items():
        parts = [members[::2], members[1::2]] if i % 2 and len(members) > 1 else [members]
        blocks.extend(parts)
        keys.extend([key] * len(parts))
    pairs = [(a, b) for a, ka in enumerate(keys) for b, kb in enumerate(keys) if _below(ka, kb)]
    result = compute_preorder(k, (blocks, pairs))
    assert result.stats.initial_blocks == len(classes)
    assert result.state_pairs() == largest_simulation_within(k, rel)


# -- metamorphic relations ------------------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_renumbering_states_renumbers_result(seed):
    rng = random.Random(seed)
    k = generate_random_ks(19_000 + seed, 2 + seed % 24, 0.2, 1 + seed % 3)
    perm = list(range(k.num_states))
    rng.shuffle(perm)
    labels = [None] * k.num_states
    for s in k.states():
        labels[perm[s]] = k.labels[s]
    renamed = KripkeStructure(
        k.num_states, [(perm[s], perm[t]) for s, t in k.transitions], labels
    )
    result = compute_preorder(k)
    result2 = compute_preorder(renamed)
    assert result2.blocks == sorted(
        sorted(perm[s] for s in blk) for blk in result.blocks
    )
    assert result2.state_pairs() == {
        (perm[x], perm[y]) for x, y in result.state_pairs()
    }


@pytest.mark.parametrize("seed", range(100))
def test_quotient_result_is_discrete(seed):
    k = generate_random_ks(20_000 + seed, 2 + seed % 24, 0.2, 1 + seed % 3)
    q = quotient(k, compute_preorder(k).blocks)
    assert compute_preorder(q).blocks == [[s] for s in q.states()]


@pytest.mark.parametrize("seed", range(100))
def test_candidate_result_within_candidate(seed):
    rng = random.Random(seed)
    k = generate_random_ks(21_000 + seed, 2 + seed % 24, 0.2, 1 + seed % 3)
    rel = random_preorder(rng, k)
    try:
        result = compute_preorder(k, _candidate_classes(k, rel))
    except ValidationError:
        return  # candidate block order incompatible with the topology
    assert result.state_pairs() <= rel
