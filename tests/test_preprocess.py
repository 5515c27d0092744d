import random

import pytest

from stuttersim import (
    KripkeStructure,
    RefinementEngine,
    ValidationError,
    collapse_inert_sccs,
    generate_random_ks,
    labeling_partition,
    naive_stuttering_simulation,
    preprocess,
)
from stuttersim.engine import _combined_block_order
from stuttersim.preprocess import (
    is_locally_topological,
    sort_states_locally_topological,
    strongly_connected_components,
    topological_order,
)

from conftest import block_order, random_graph, reachable


def block_of(k):
    out = [0] * k.num_states
    for i, members in enumerate(labeling_partition(k)):
        for s in members:
            out[s] = i
    return out


def test_collapse_self_loop():
    k = KripkeStructure(1, [(0, 0)], [["p"]])
    collapsed, cmap = collapse_inert_sccs(k, block_of(k))
    assert collapsed.num_states == 1
    assert collapsed.transitions == []
    assert cmap.members == [[0]]


def test_collapse_two_cycle():
    k = KripkeStructure(3, [(0, 1), (1, 0), (1, 2)], [["p"], ["p"], ["q"]])
    collapsed, cmap = collapse_inert_sccs(k, block_of(k))
    assert collapsed.num_states == 2
    assert collapsed.transitions == [(0, 1)]
    assert cmap.members == [[0, 1], [2]]
    assert list(cmap.of) == [0, 0, 1]


def test_collapse_acyclic_identity(f1):
    collapsed, cmap = collapse_inert_sccs(f1, block_of(f1))
    assert collapsed == f1
    assert cmap.members == [[s] for s in range(f1.num_states)]


@pytest.mark.parametrize("seed", range(30))
def test_collapse_returns_input_when_nothing_collapses(seed, monkeypatch):
    """Without a self-loop or a same-block cycle the input object comes
    back with the identity map, and no SCC search runs; adding either
    gives a new, smaller structure."""

    def no_sccs(*args):
        raise AssertionError("SCC search on an acyclic inert graph")

    rng = random.Random(seed)
    n = 3 + seed % 8
    labels = [[f"p{rng.randrange(2)}"] for _ in range(n)]
    forward = [(s, t) for s in range(n) for t in range(s + 1, n) if rng.random() < 0.4]
    a, b = next(
        (s, t) for s in range(n) for t in range(s + 1, n) if labels[s] == labels[t]
    )
    cross = [(s, t) for s in range(n) for t in range(s) if labels[s] != labels[t]]
    for edges in (forward, forward + cross):  # cross-block cycles do not collapse
        k = KripkeStructure(n, edges, labels)
        with monkeypatch.context() as patch:
            patch.setattr(preprocess, "strongly_connected_components", no_sccs)
            collapsed, cmap = collapse_inert_sccs(k, block_of(k))
        assert collapsed is k
        assert list(cmap.of) == list(range(n))
        assert cmap.members == [[s] for s in range(n)]
    looped = KripkeStructure(n, forward + [(a, a)], labels)
    collapsed, _ = collapse_inert_sccs(looped, block_of(looped))
    assert collapsed is not looped
    assert collapsed == KripkeStructure(n, forward, labels)
    cycle = KripkeStructure(n, forward + [(a, b), (b, a)], labels)
    collapsed, cmap = collapse_inert_sccs(cycle, block_of(cycle))
    assert collapsed is not cycle and collapsed.num_states == n - 1
    assert [a, b] in cmap.members


@pytest.mark.parametrize("seed", range(40))
def test_collapse_leaves_no_inert_cycles(seed):
    k = generate_random_ks(seed, 2 + seed % 8, 0.4, 1 + seed % 3)
    collapsed, _ = collapse_inert_sccs(k, block_of(k))
    again, cmap2 = collapse_inert_sccs(collapsed, block_of(collapsed))
    assert cmap2.members == [[s] for s in range(collapsed.num_states)]
    assert all(s != t or collapsed.labels[s] != collapsed.labels[t]
               for s, t in collapsed.transitions)


@pytest.mark.parametrize("seed", range(60))
def test_collapse_preserves_preorder(seed):
    """Expanding the collapsed structure's preorder through the collapse
    map gives the original structure's preorder."""
    k = generate_random_ks(1000 + seed, 2 + seed % 7, 0.35, 1 + seed % 3)
    collapsed, cmap = collapse_inert_sccs(k, block_of(k))
    small = naive_stuttering_simulation(collapsed)
    expanded = {
        (x, y)
        for s, t in small
        for x in cmap.members[s]
        for y in cmap.members[t]
    }
    assert expanded == naive_stuttering_simulation(k)


def test_sort_states_no_transitions_keeps_order():
    k = KripkeStructure(4, [], [["a"], ["a"], ["a"], ["a"]])
    assert sort_states_locally_topological(k, labeling_partition(k)) == [0, 1, 2, 3]


def test_sort_states_back_edge():
    k = KripkeStructure(2, [(1, 0)], [["p"], ["p"]])
    assert sort_states_locally_topological(k, labeling_partition(k)) == [1, 0]


def test_sort_states_f1_satisfies_predicate(f1):
    order = sort_states_locally_topological(f1, labeling_partition(f1))
    assert is_locally_topological(f1, order)
    assert order == [0, 1, 2, 3, 4]


def test_sort_states_detects_inert_cycle():
    k = KripkeStructure(2, [(0, 1), (1, 0)], [["p"], ["p"]])
    with pytest.raises(ValidationError):
        sort_states_locally_topological(k, labeling_partition(k))


@pytest.mark.parametrize("seed", range(50))
def test_sort_states_random_property(seed):
    k = generate_random_ks(2000 + seed, 2 + seed % 9, 0.3, 1 + seed % 3)
    collapsed, _ = collapse_inert_sccs(k, block_of(k))
    order = sort_states_locally_topological(collapsed, labeling_partition(collapsed))
    assert sorted(order) == list(range(collapsed.num_states))
    assert is_locally_topological(collapsed, order)
    classes = labeling_partition(collapsed)
    positions = {s: i for i, s in enumerate(order)}
    for members in classes:  # contiguous per label class
        span = sorted(positions[s] for s in members)
        assert span == list(range(span[0], span[0] + len(span)))


@pytest.mark.parametrize("seed", range(40))
def test_engine_reuses_the_collapse_sort(seed, monkeypatch):
    """When nothing collapses, the engine's one least-first Kahn serves
    both the collapse and the state sort, with the same state list as a
    sort of its own would give."""

    def no_kahn(*args):
        raise AssertionError("a second topological sort")

    rng = random.Random(seed)
    n = 3 + seed % 8
    labels = [[f"p{rng.randrange(3)}"] for _ in range(n)]
    forward = [(s, t) for s in range(n) for t in range(s + 1, n) if rng.random() < 0.4]
    back = [(t, s) for s, t in forward if labels[s] != labels[t]]
    k = KripkeStructure(n, forward + back, labels)
    classes = labeling_partition(k)
    with monkeypatch.context() as patch:
        patch.setattr(preprocess, "topological_order", no_kahn)
        engine = RefinementEngine(k)
    assert engine.k is k
    topo = topological_order(k.successors, block_of(k))
    expected = sort_states_locally_topological(k, [classes[b] for b in block_order(engine)])
    assert engine.state_list == expected
    assert sort_states_locally_topological(k, classes, topo) == (
        sort_states_locally_topological(k, classes)
    )


@pytest.mark.parametrize("seed", range(40))
def test_scc_matches_mutual_reachability(seed):
    rng = random.Random(seed)
    n, successors, group = random_graph(rng)
    roots = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    comps = strongly_connected_components(successors, group, roots)
    reach = [reachable(successors, group, v) for v in range(n)]
    covered = set().union(*(reach[r] for r in roots))
    expected = {
        frozenset(w for w in reach[v] if v in reach[w]) for v in covered
    }
    assert {frozenset(c) for c in comps} == expected
    assert all(c == sorted(c) for c in comps)
    assert sum(map(len, comps)) == len(covered)
    # Tarjan completes a component after every component it reaches.
    done = {v: i for i, c in enumerate(comps) for v in c}
    for v in covered:
        for w in successors[v]:
            if group[w] == group[v]:
                assert done[w] <= done[v]


def sort_blocks(pairs, m):
    """Engine block order for a preorder on m one-state, same-label
    blocks with no transitions."""
    k = KripkeStructure(m, [], [["a"]] * m)
    up = [{j for i, j in pairs if i == b} for b in range(m)]
    return _combined_block_order(k, up, list(range(m)))


def test_sort_blocks_identity_keeps_input_order():
    assert sort_blocks({(i, i) for i in range(3)}, 3) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(40))
def test_default_start_block_order_is_identity(seed):
    """Without a candidate the engine starts from the label classes in
    least-member order and takes that as its block order: no same-label
    transition crosses a label class, so ``_combined_block_order``
    returns the identity, inert cycles or not."""
    k = generate_random_ks(500 + seed, 2 + seed % 12, 0.3, 1 + seed % 3)
    collapsed, _ = collapse_inert_sccs(k, block_of(k))
    classes = block_of(collapsed)
    m = max(classes) + 1
    order = _combined_block_order(collapsed, [{b} for b in range(m)], classes)
    assert order == list(range(m))
    assert block_order(RefinementEngine(k)) == order


def test_sort_blocks_worked_pair():
    # block indices: 0=[0,1], 1=[2,3], 2=[4,5], 3=[6,7], 4=[8,9]
    pairs = {(i, i) for i in range(5)} | {(0, 1), (0, 3), (2, 3), (4, 3)}
    order = sort_blocks(pairs, 5)
    pos = {b: i for i, b in enumerate(order)}
    assert pos[1] < pos[0] and pos[3] < pos[0]
    assert pos[3] < pos[2] and pos[3] < pos[4]


def test_sort_blocks_mutual_pair_is_one_block():
    # Unmerged, a mutually related pair is an ordering cycle; the engine
    # merges it into one block before ordering.
    pairs = {(0, 0), (1, 1), (0, 1), (1, 0)}
    with pytest.raises(ValidationError, match="no valid list ordering"):
        sort_blocks(pairs, 2)
    k = KripkeStructure(2, [], [["a"]] * 2)
    e = RefinementEngine(k, ([[0], [1]], pairs))
    assert block_order(e) == [0] and e.members(0) == [0, 1]


@pytest.mark.parametrize("seed", range(40))
def test_sort_blocks_random_acyclic(seed):
    rng = random.Random(seed)
    m = 2 + seed % 6
    pairs = {(i, i) for i in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                pairs.add((i, j))
    # close transitively to keep it a preorder
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    order = sort_blocks(pairs, m)
    pos = {b: i for i, b in enumerate(order)}
    assert sorted(order) == list(range(m))
    # every block above another precedes it
    assert all(pos[j] < pos[i] for i, j in pairs if i != j)
