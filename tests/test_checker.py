import random

import pytest

from stuttersim import (
    KripkeStructure,
    NotAPreorderError,
    ValidationError,
    check_preorder,
    compute_preorder,
    generate_random_ks,
    naive_stuttering_simulation,
    parse_relation,
)
from stuttersim.checker import CheckVerdict, _sink_components, check_definition
from stuttersim.model import StatePairs
from stuttersim.reference import largest_simulation_within

from conftest import random_graph, random_preorder, reachable, transitive_closure


def definition_accepts(k: KripkeStructure, pairs) -> bool:
    """Definitional check, valid for any relation (preorder or not)."""
    return check_definition(k, pairs).accepted


def test_accepts_computed_preorder(f2):
    pairs = compute_preorder(f2).state_pairs()
    assert check_preorder(f2, pairs).accepted


def test_rejects_label_closure_with_block_witness(f2):
    pairs = {
        (s, t) for s in range(5) for t in range(5) if f2.labels[s] == f2.labels[t]
    }
    verdict = check_preorder(f2, pairs)
    assert not verdict.accepted
    b, c, state = verdict.refiner_witness
    assert set(b) == {0, 3} and set(c) == {2}
    assert state == 3


def test_identity_always_accepted():
    for k in (
        KripkeStructure(3, [(0, 0), (0, 1), (1, 0), (1, 2)], [["p"], ["p"], ["q"]]),
        generate_random_ks(4, 6, 0.5, 2),
        generate_random_ks(5, 6, 0.9, 1),
    ):
        ident = {(s, s) for s in k.states()}
        assert check_preorder(k, ident).accepted
        assert definition_accepts(k, ident)


def test_rejects_mixed_label_pair():
    k = KripkeStructure(2, [], [["p"], ["q"]])
    verdict = check_preorder(k, {(0, 0), (1, 1), (0, 1)})
    assert not verdict.accepted
    assert verdict.label_witness == (0, 1)


def test_not_a_preorder_errors():
    k = KripkeStructure(3, [], [["p"], ["p"], ["p"]])
    with pytest.raises(NotAPreorderError) as exc:
        check_preorder(k, {(0, 0), (1, 1)})
    assert exc.value.witness == (2, 2)
    with pytest.raises(NotAPreorderError) as exc:
        check_preorder(k, {(s, s) for s in range(3)} | {(0, 1), (1, 2)})
    assert exc.value.witness == (0, 2)


def _least_witness(n: int, rel: set[tuple[int, int]]) -> tuple[int, int] | None:
    """The least missing ``(s, s)``, else the least ``(s, u)`` with
    ``(s, t)`` and ``(t, u)`` in ``rel`` but not ``(s, u)``."""
    for s in range(n):
        if (s, s) not in rel:
            return (s, s)
    return min(
        ((s, u) for s, t in rel for t2, u in rel if t == t2 and (s, u) not in rel),
        default=None,
    )


@pytest.mark.parametrize("seed", range(300))
def test_not_a_preorder_witness_is_least(seed):
    rng = random.Random(seed)
    n = 2 + seed % 7
    k = KripkeStructure(n, [], [["p"]] * n)
    rel = {(s, t) for s in range(n) for t in range(n) if rng.random() < (0.9 if s == t else 0.3)}
    expected = _least_witness(n, rel)
    if expected is None:
        assert check_preorder(k, rel).accepted
        return
    with pytest.raises(NotAPreorderError) as exc:
        check_preorder(k, rel)
    assert exc.value.witness == expected
    # the same relation as a candidate's block pairs over one-state blocks
    with pytest.raises(NotAPreorderError) as exc:
        compute_preorder(k, ([[s] for s in range(n)], rel))
    assert exc.value.witness == expected


def test_out_of_range_pair():
    k = KripkeStructure(2, [], [["p"], ["p"]])
    with pytest.raises(ValidationError):
        check_preorder(k, {(0, 0), (1, 1), (0, 9)})
    with pytest.raises(ValidationError):
        check_definition(k, {(0, 9)})


def test_definition_empty_relation_accepted(f2):
    assert definition_accepts(f2, set())


def test_definition_examples(f2):
    ident = {(s, s) for s in range(5)}
    # (3,0) needs (4,1) so the move 3 -> 4 can land on a related state
    assert not definition_accepts(f2, ident | {(3, 0)})
    assert definition_accepts(f2, ident | {(3, 0), (4, 1)})
    assert not definition_accepts(f2, ident | {(0, 3)})
    assert check_definition(f2, ident | {(0, 3)}) == CheckVerdict(False, move_witness=(0, 1, 3))


def test_rejects_cycle_trapped_candidate():
    # 0 <-> 1 is a same-label cycle inside the candidate set of {2}; the
    # bottom-state shortcut alone would miss that 2 -> 3 is unmatched.
    k = KripkeStructure(4, [(0, 1), (1, 0), (2, 0), (2, 3)], [["p"], ["p"], ["p"], ["q"]])
    rel = {(s, s) for s in range(4)} | {(2, 0), (2, 1)}
    verdict = check_preorder(k, rel)
    assert not verdict.accepted
    b, c, state = verdict.refiner_witness
    assert set(b) == {2} and set(c) == {3} and state in (0, 1)
    assert not definition_accepts(k, rel)


# One-state node sets, which skip the Tarjan run: (successors, nodes).
ONE_STATE_SETS = {
    "isolated": ([[], []], [1]),
    "self-loop": ([[0], [1]], [1]),
    "edge-leaving": ([[], [0]], [1]),
}


@pytest.mark.parametrize("seed", [*range(40), *ONE_STATE_SETS])
def test_sink_components_are_closed_sccs(seed):
    if seed in ONE_STATE_SETS:
        successors, nodes = ONE_STATE_SETS[seed]
        n = len(successors)
    else:
        rng = random.Random(seed)
        n, successors, _ = random_graph(rng)
        nodes = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    inside = [int(v in nodes) for v in range(n)]
    reach = {v: reachable(successors, inside, v) for v in nodes}
    # a sink component is an SCC that nothing inside leads out of
    expected = {
        frozenset(reach[v])
        for v in nodes
        if all(v in reach[w] for w in reach[v])
    }
    sinks = _sink_components(nodes, successors)
    assert {frozenset(c) for c in sinks} == expected
    assert len(sinks) == len(expected)
    assert all(c == sorted(c) for c in sinks)


@pytest.mark.parametrize("seed", range(120))
def test_agreement_with_definition_on_random_preorders(seed):
    rng = random.Random(seed)
    k = generate_random_ks(20_000 + seed, 2 + seed % 7, (0.1, 0.3, 0.5)[seed % 3], 1 + seed % 3)
    rel = random_preorder(rng, k)
    assert check_preorder(k, rel).accepted == definition_accepts(k, rel)


@pytest.mark.parametrize("seed", range(30))
def test_union_closure(seed):
    rng = random.Random(seed)
    k = generate_random_ks(21_000 + seed, 2 + seed % 7, 0.35, 1 + seed % 3)
    full = naive_stuttering_simulation(k)
    sample = lambda: largest_simulation_within(
        k, {p for p in full if rng.random() < 0.6}
    )
    r1, r2 = sample(), sample()
    assert definition_accepts(k, r1) and definition_accepts(k, r2)
    assert definition_accepts(k, r1 | r2)


@pytest.mark.parametrize("seed", range(30))
def test_maximality(seed):
    k = generate_random_ks(22_000 + seed, 2 + seed % 6, 0.35, 1 + seed % 3)
    best = naive_stuttering_simulation(k)
    assert definition_accepts(k, best)  # the oracle output is itself valid
    extras = [
        (x, y)
        for x in k.states()
        for y in k.states()
        if k.labels[x] == k.labels[y] and (x, y) not in best
    ]
    for pair in extras:
        augmented = transitive_closure(best | {pair})
        assert not definition_accepts(k, augmented)
        assert not check_preorder(k, augmented).accepted


def _assert_rejects_augmentations(
    k: KripkeStructure, best: set[tuple[int, int]], rng: random.Random
) -> None:
    """Criterion 4 without the definitional oracle: ``best`` is the
    largest stuttering simulation, so adding any missing same-label pair
    and closing transitively must be rejected."""
    missing = [
        (a, b)
        for a in k.states()
        for b in k.states()
        if k.labels[a] == k.labels[b] and (a, b) not in best
    ]
    below: dict[int, list[int]] = {}
    above: dict[int, list[int]] = {}
    for x, y in best:
        below.setdefault(y, []).append(x)
        above.setdefault(x, []).append(y)
    for a, b in rng.sample(missing, 20):
        # a preorder plus (a, b), closed: x <= a and b <= y give x <= y
        augmented = best | {(x, y) for x in below[a] for y in above[b]}
        verdict = check_preorder(k, augmented)
        assert not verdict.accepted and verdict.refiner_witness is not None


def test_rejects_augmented_preorder_at_scale():
    k = generate_random_ks(7, 300, 2 / 300, 4)
    _assert_rejects_augmentations(k, compute_preorder(k).state_pairs(), random.Random(7))


def test_checks_computed_preorder_at_n1500():
    k = generate_random_ks(7, 1500, 2 / 1500, 4)
    result = compute_preorder(k)
    stats = result.stats
    assert (stats.iterations, stats.blocks_created, stats.final_blocks) == (1904, 2166, 1087)
    assert (stats.targets_visited, stats.pairs_tested) == (3673, 6080)
    best = result.state_pairs()
    assert check_preorder(k, best).accepted
    _assert_rejects_augmentations(k, best, random.Random(1500))


@pytest.mark.parametrize("seed", range(60))
def test_label_witness_is_least_mixed_pair(seed):
    """Both checkers name the least related pair whose labels differ."""
    rng = random.Random(seed)
    n = 3 + seed % 8
    labels = [["p0"], ["p1"], ["p2"]] + [[f"p{rng.randrange(3)}"] for _ in range(n - 3)]
    k = KripkeStructure(n, [], labels)
    picked = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
    rel = transitive_closure(picked | {(s, s) for s in range(n)} | {(1, 0), (1, 2)})
    mixed = [(s, t) for s, t in rel if k.labels[s] != k.labels[t]]
    assert len(mixed) >= 2
    assert check_preorder(k, rel).label_witness == min(mixed)
    assert check_definition(k, rel) == CheckVerdict(False, label_witness=min(mixed))


def _relation_text(rel: set[tuple[int, int]], rng: random.Random) -> str:
    """``rel`` as relation lines in random order, some twice, with a
    comment line and a trailing comment."""
    lines = [f"{u} {v}\n" for u, v in rel]
    lines += rng.sample(lines, min(3, len(lines)))
    rng.shuffle(lines)
    lines[0] = lines[0].replace("\n", "  # first\n")
    return "# relation\n" + "".join(lines)


def _outcome(check, k: KripkeStructure, pairs):
    """The verdict, or the message and witness of NotAPreorderError."""
    try:
        return check(k, pairs)
    except NotAPreorderError as exc:
        return str(exc), exc.witness


@pytest.mark.parametrize("seed", range(60))
def test_parsed_relation_checks_like_a_pair_set(seed):
    """``check_preorder`` reads a parsed relation by its per-state rows
    and a builtin set pair by pair: both give the same verdict with the
    same witness, or the same NotAPreorderError, and the definitional
    check agrees with them and with itself on both forms."""
    rng = random.Random(seed)
    n = 3 + seed % 9
    k = generate_random_ks(24_000 + seed, n, (0.15, 0.3, 0.5)[seed % 3], 2 + seed % 2)
    best = set(compute_preorder(k).state_pairs())
    same = [(a, b) for a in range(n) for b in range(n) if k.labels[a] == k.labels[b]]
    mixed = [(a, b) for a in range(n) for b in range(n) if k.labels[a] != k.labels[b]]
    s, t, u = rng.sample(range(n), 3)
    cases = [
        ("accepted", best),
        ("accepted", {(x, x) for x in range(n)}),
        ("not reflexive", best - {(s, s)}),
        ("not transitive", {(x, x) for x in range(n)} | {(s, t), (t, u)}),
    ]
    if mixed:
        cases.append(("label", transitive_closure(best | {rng.choice(mixed)})))
    missing = [p for p in same if p not in best]
    if missing:
        a, b = rng.choice(missing)
        below = [x for x, y in best if y == a]
        above = [y for x, y in best if x == b]
        cases.append(("refiner", best | {(x, y) for x in below for y in above}))
    for kind, rel in cases:
        parsed = parse_relation(_relation_text(rel, rng), k)
        assert parsed == rel
        fast = _outcome(check_preorder, k, parsed)
        assert fast == _outcome(check_preorder, k, set(rel)), kind
        definition = check_definition(k, parsed)
        assert definition == check_definition(k, set(rel)), kind
        if kind == "not reflexive":
            assert fast[1] == (s, s)
        elif kind == "not transitive":
            assert fast[1] == (s, u)
        else:
            assert fast.accepted == definition.accepted == (kind == "accepted")
        if kind == "label":
            assert fast.label_witness == definition.label_witness is not None
        if kind == "refiner":
            assert fast.refiner_witness is not None


@pytest.mark.parametrize("seed", range(20))
def test_check_reads_both_views_by_rows(seed, monkeypatch):
    """``check_preorder`` reads a result's view and a parsed relation by
    their rows, never by iterating pairs, and gives the verdict of the
    builtin set of the same pairs, accepting and rejecting.  The
    labels-only model's result relates all same-label states; ``k``
    rejects it unless its own largest simulation relates them all too."""
    rng = random.Random(seed)
    n = 6 + seed % 9
    k = generate_random_ks(25_000 + seed, n, 1.5 / n, 2)
    computed = compute_preorder(k).state_pairs()
    coarse = compute_preorder(KripkeStructure(n, [], k.labels)).state_pairs()
    best = set(computed)
    missing = sorted(set(coarse) - best)
    rels = [best]
    if missing:
        rels.append(transitive_closure(best | {rng.choice(missing)}))
    views = [computed, coarse] + [parse_relation(_relation_text(r, rng), k) for r in rels]
    expected = [check_preorder(k, set(view)) for view in views]
    assert [v.accepted for v in expected] == [True, not missing, True, False][: len(views)]

    def iterate(self):
        raise AssertionError("StatePairs read pair by pair")

    monkeypatch.setattr(StatePairs, "__iter__", iterate)
    assert [check_preorder(k, view) for view in views] == expected
