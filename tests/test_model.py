import random

import pytest

from stuttersim import (
    KripkeStructure,
    NotAPreorderError,
    RefinementEngine,
    ValidationError,
    compute_preorder,
    generate_random_ks,
    labeling_partition,
    quotient,
)
from stuttersim.model import validate_preorder

from conftest import block_order, random_preorder


def test_construction_rejects_bad_transition():
    with pytest.raises(ValidationError):
        KripkeStructure(2, [(0, 5)], [["p"], ["p"]])
    with pytest.raises(ValidationError):
        KripkeStructure(2, [], [["p"]])


def test_construction_shares_equal_labels():
    """Equal labels are one frozenset object, from any builder."""
    k = KripkeStructure(5, [], [["p"], ["q", "p"], ("p",), {"p", "q"}, []])
    assert len(set(k.labels)) == 3
    assert len({id(x) for x in k.labels}) == len(set(k.labels))
    for built in (generate_random_ks(3, 200, 0.01, 4), quotient(k, [[0, 2], [1, 3], [4]])):
        assert len({id(x) for x in built.labels}) == len(set(built.labels))


def test_models_are_unhashable():
    # Equality compares the successor lists, which are mutable lists.
    with pytest.raises(TypeError):
        hash(KripkeStructure(2, [(0, 1)], [["p"], ["p"]]))


def test_duplicate_transitions_collapse():
    k = KripkeStructure(2, [(0, 1), (0, 1)], [["p"], ["p"]])
    assert k.transitions == [(0, 1)]
    assert k.predecessors[1] == [0]


@pytest.mark.parametrize("seed", range(30))
def test_construction_from_shuffled_duplicate_edges(seed):
    """Successors, predecessors and transitions come out sorted and
    duplicate-free, whatever the order and repetition of the input."""
    k = generate_random_ks(seed, 1 + seed % 12, 0.3, 2)
    rng = random.Random(seed)
    edges = k.transitions + rng.choices(k.transitions, k=len(k.transitions))
    rng.shuffle(edges)
    shuffled = KripkeStructure(k.num_states, edges, k.labels)
    clean = KripkeStructure(k.num_states, sorted(set(edges)), k.labels)
    assert shuffled.successors == clean.successors
    assert shuffled.predecessors == clean.predecessors
    assert shuffled.transitions == clean.transitions == sorted(set(edges))
    for s in k.states():
        assert shuffled.successors[s] == sorted({t for x, t in edges if x == s})
        assert shuffled.predecessors[s] == sorted({x for x, t in edges if t == s})


def test_labeling_partition(f1, f2):
    assert labeling_partition(f1) == [[0, 1, 2], [3, 4]]
    assert labeling_partition(f2) == [[0, 3], [1, 4], [2]]
    uniform = KripkeStructure(3, [], [["a"], ["a"], ["a"]])
    assert labeling_partition(uniform) == [[0, 1, 2]]


def test_block_exists_trans(f2):
    # quotient edges are the existential transitions between blocks;
    # ids follow least members: {0,3}=0, {1,4}=1, {2}=2
    q = quotient(f2, labeling_partition(f2))
    assert (0, 2) in q.transitions
    # state 2 has no outgoing transitions, so its block reaches nothing
    assert not any(s == 2 for s, _ in q.transitions)


P4_BLOCKS = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
P4_PAIRS = {(i, i) for i in range(5)} | {(0, 1), (0, 3), (2, 3), (4, 3)}


def p4_engine() -> RefinementEngine:
    """Candidate block ids are the indices into ``P4_BLOCKS``."""
    k = KripkeStructure(10, [], [["a"]] * 10)
    return RefinementEngine(k, (P4_BLOCKS, P4_PAIRS))


def test_candidate_set_identity(f1):
    e = RefinementEngine(f1)
    assert set(e.image(e.block_of[0])) == {0, 1, 2}


def test_candidate_set_worked_pair():
    e = p4_engine()
    assert set(e.image(0)) == {0, 1, 2, 3, 6, 7}
    assert set(e.image(2)) == {4, 5, 6, 7}


def test_candidate_set_contains_own_block_and_antitone():
    # reflexivity gives B <= candidate set of B; with a preorder, a
    # related block has a smaller candidate set
    e = p4_engine()
    for i in range(len(P4_BLOCKS)):
        assert set(P4_BLOCKS[i]) <= set(e.image(i))
    for i, j in P4_PAIRS:
        assert set(e.image(j)) <= set(e.image(i))


def test_candidate_set_is_union_of_blocks():
    e = p4_engine()
    for i in range(len(P4_BLOCKS)):
        cs = set(e.image(i))
        for blk in P4_BLOCKS:
            overlap = cs & set(blk)
            assert not overlap or overlap == set(blk)


def local_bottoms(k: KripkeStructure, state: int) -> set[int]:
    """Bottom states the engine records for the label class of ``state``
    (the structures used here have no inert cycle to collapse)."""
    e = RefinementEngine(k)
    return set(e.blocks[e.block_of[state]].local_bottoms)


def test_bottom_states(f1, f2):
    k = KripkeStructure(3, [], [["a"], ["a"], ["a"]])
    assert local_bottoms(k, 0) == {0, 1, 2}
    assert local_bottoms(f1, 0) == {0, 2}
    assert local_bottoms(f2, 0) == {0, 3}


def test_bottom_disjoint_from_pre(f1, f2):
    for e in (RefinementEngine(f1), RefinementEngine(f2), p4_engine()):
        for b in block_order(e):
            bot = set(e.blocks[b].local_bottoms)
            pre = {x for y in e.image(b) for x in e.k.predecessors[y]}
            assert bot <= set(e.members(b))
            assert not bot & pre


def test_quotient_f1(f1):
    q = quotient(f1, [[0, 1, 2], [3, 4]])
    assert q.num_states == 2
    # block {0,1,2} keeps a self-loop from its internal transition 1 -> 2
    assert q.transitions == [(0, 0), (0, 1)]
    assert q.labels == (frozenset({"p"}), frozenset({"q"}))


def test_quotient_discrete_is_isomorphic(f2):
    q = quotient(f2, [[s] for s in range(5)])
    assert q == f2


def test_quotient_f2(f2):
    q = quotient(f2, [[0], [1, 4], [2], [3]])
    # canonical ids: {0}=0, {1,4}=1, {2}=2, {3}=3
    assert q.num_states == 4
    assert q.transitions == [(0, 1), (0, 2), (3, 1)]


def test_quotient_rejects_label_inconsistent(f2):
    with pytest.raises(ValidationError):
        quotient(f2, [[0, 1], [2], [3], [4]])


def test_quotient_rejects_negative_state():
    k = KripkeStructure(3, [], [["p"]] * 3)
    with pytest.raises(ValidationError, match="out of range"):
        quotient(k, [[0], [1], [-1]])


def test_quotient_rejects_out_of_range_state():
    k = KripkeStructure(3, [], [["p"]] * 3)
    with pytest.raises(ValidationError, match="out of range"):
        quotient(k, [[0, 1], [7]])


def test_quotient_rejects_empty_block():
    k = KripkeStructure(3, [], [["p"]] * 3)
    with pytest.raises(ValidationError, match="empty"):
        quotient(k, [[0, 1, 2], []])


@pytest.mark.parametrize("seed", range(40))
def test_validate_preorder_groups_by_up_set(seed):
    k = generate_random_ks(23_000 + seed, 1 + seed % 12, 0.2, 1 + seed % 3)
    rel = random_preorder(random.Random(seed), k)
    classes, class_of, ups = validate_preorder(k.num_states, rel)
    up = [frozenset(t for t in k.states() if (s, t) in rel) for s in k.states()]
    mutual = [[t for t in k.states() if (s, t) in rel and (t, s) in rel] for s in k.states()]
    # disjoint sorted lists sort by least member
    assert classes == sorted(map(list, {tuple(c) for c in mutual}))
    for s in k.states():
        assert classes[class_of[s]] == mutual[s]
        assert ups[class_of[s]] == up[s]


def test_validate_preorder_rejects_out_of_range_before_reflexivity():
    with pytest.raises(ValidationError) as exc:
        validate_preorder(2, [(0, 2)])
    assert not isinstance(exc.value, NotAPreorderError)
    with pytest.raises(ValidationError):
        validate_preorder(2, [(-1, 0), (0, 0), (1, 1)])


@pytest.mark.parametrize("seed", range(20))
def test_state_pairs_is_the_expanded_preorder(seed):
    k = generate_random_ks(seed, 1 + seed % 15, 0.2, 1 + seed % 3)
    result = compute_preorder(k)
    expected = {
        (x, y) for i, j in result.preorder for x in result.blocks[i] for y in result.blocks[j]
    }
    pairs = result.state_pairs()
    assert pairs == expected and expected == pairs and not pairs != expected
    assert list(pairs) == sorted(expected) and len(pairs) == len(expected)
    n = k.num_states
    outside = [(-1, 0), (0, n), (n, 0), (0,), (0, 0, 0), "ab", (0.0, 0), None]
    for x in range(-1, n + 1):
        for y in range(-1, n + 1):
            assert ((x, y) in pairs) == ((x, y) in expected)
    assert not any(p in pairs for p in outside)
    extra = {(n, n)}
    assert pairs | extra == expected | extra and type(pairs | extra) is set
    assert pairs - {(0, 0)} == expected - {(0, 0)} and pairs <= expected
