import random

import pytest

from stuttersim import (
    KripkeStructure,
    ValidationError,
    generate_random_ks,
    naive_stuttering_simulation,
    pos_naive,
    simulator_sets,
)
from stuttersim.reference import largest_simulation_within

from conftest import pairs_of
from ectl import And, Atom, ExistsUntil, NegAtom, Or, eval_formula


def test_pos_empty_target(f1):
    assert pos_naive(f1, {0, 1, 2}, set()) == set()


def test_pos_zero_length_path(f1):
    assert pos_naive(f1, {0}, {0}) == {0}


def test_pos_f1_chain(f1):
    assert pos_naive(f1, {0, 1, 2}, {3, 4}) == {0, 1, 2}


def test_pos_f2(f2):
    assert pos_naive(f2, {0, 3}, {2}) == {0}


@pytest.mark.parametrize("seed", range(50))
def test_pos_properties(seed):
    rng = random.Random(seed)
    k = generate_random_ks(3000 + seed, 3 + seed % 6, 0.35, 2)
    states = list(k.states())
    s = {x for x in states if rng.random() < 0.5}
    t1 = {x for x in states if rng.random() < 0.4}
    t2 = t1 | {x for x in states if rng.random() < 0.3}
    r1 = pos_naive(k, s, t1)
    assert s & t1 <= r1
    assert r1 <= s
    assert r1 <= pos_naive(k, s, t2)  # monotone in the target


def test_simulator_sets_f1(f1):
    sim = simulator_sets(f1)
    for x in (0, 1, 2):
        assert sim[x] == {0, 1, 2}
    for x in (3, 4):
        assert sim[x] == {3, 4}


def test_simulator_sets_f2(f2):
    sim = simulator_sets(f2)
    assert sim[0] == {0}
    assert sim[3] == {0, 3}
    assert sim[1] == sim[4] == {1, 4}
    assert sim[2] == {2}


def test_simulator_sets_single_state():
    k = KripkeStructure(1, [], [["p"]])
    assert simulator_sets(k) == {0: {0}}


def _is_preorder(sim):
    for x, ys in sim.items():
        if x not in ys:
            return False
        for y in ys:
            if not sim[y] <= ys:
                return False
    return True


@pytest.mark.parametrize("seed", range(30))
def test_simulator_sets_preorder_each_iteration(seed):
    k = generate_random_ks(4000 + seed, 2 + seed % 7, 0.3, 1 + seed % 3)
    seen = []

    def observer(sim):
        seen.append(_is_preorder(sim))

    simulator_sets(k, observer=observer)
    assert seen and all(seen)


@pytest.mark.parametrize("seed", range(40))
def test_simulator_sets_scan_order_irrelevant(seed):
    k = generate_random_ks(5000 + seed, 2 + seed % 7, 0.3, 1 + seed % 3)
    base = simulator_sets(k)
    shuffled = simulator_sets(k, rng=random.Random(seed))
    assert base == shuffled


def test_naive_f2(f2):
    rel = naive_stuttering_simulation(f2)
    ident = {(s, s) for s in range(5)}
    assert rel == ident | {(3, 0), (1, 4), (4, 1)}


def test_naive_f1(f1):
    rel = naive_stuttering_simulation(f1)
    expected = {(x, y) for x in (0, 1, 2) for y in (0, 1, 2)}
    expected |= {(x, y) for x in (3, 4) for y in (3, 4)}
    assert rel == expected


@pytest.mark.parametrize("seed", range(40))
def test_identity_never_deleted(seed):
    k = generate_random_ks(6000 + seed, 2 + seed % 7, 0.4, 1 + seed % 3)
    rel = naive_stuttering_simulation(k)
    assert {(s, s) for s in k.states()} <= rel


@pytest.mark.parametrize("seed", range(60))
def test_basic_matches_naive(seed):
    k = generate_random_ks(7000 + seed, 2 + seed % 7, 0.3, 1 + seed % 3)
    assert pairs_of(simulator_sets(k)) == naive_stuttering_simulation(k)


def _one_at_a_time_deletion(k, pairs):
    """Gauss-Seidel variant: delete a single violating pair per round."""
    rel = {(s, t) for s, t in pairs if k.labels[s] == k.labels[t]}
    while True:
        fwd = {}
        for s, t in rel:
            fwd.setdefault(s, set()).add(t)
        victim = None
        for s, t in sorted(rel):
            for s2 in k.successors[s]:
                if t not in pos_naive(k, fwd.get(s, set()), fwd.get(s2, set())):
                    victim = (s, t)
                    break
            if victim:
                break
        if victim is None:
            return rel
        rel.discard(victim)


@pytest.mark.parametrize("seed", range(25))
def test_deletion_strategy_irrelevant(seed):
    k = generate_random_ks(8000 + seed, 2 + seed % 6, 0.35, 1 + seed % 3)
    same_label = {
        (s, t)
        for s in k.states()
        for t in k.states()
        if k.labels[s] == k.labels[t]
    }
    assert naive_stuttering_simulation(k) == _one_at_a_time_deletion(k, same_label)


def test_largest_simulation_within_is_contained(f2):
    full = naive_stuttering_simulation(f2)
    ident = {(s, s) for s in range(5)}
    sub = largest_simulation_within(f2, ident | {(3, 0), (4, 1)})
    assert sub == ident | {(3, 0), (4, 1)} and sub <= full
    # without (4, 1) the move 3 -> 4 cannot be matched from 0
    pruned = largest_simulation_within(f2, ident | {(3, 0)})
    assert pruned == ident


def test_eval_atom(f1):
    assert eval_formula(f1, Atom("p")) == {0, 1, 2}
    assert eval_formula(f1, NegAtom("p")) == {3, 4}


def test_eval_until(f1):
    assert eval_formula(f1, ExistsUntil(Atom("p"), NegAtom("p"))) == {0, 1, 2, 3, 4}


def test_eval_bool_connectives(f1):
    assert eval_formula(f1, And(Atom("p"), NegAtom("q"))) == {0, 1, 2}
    assert eval_formula(f1, Or(Atom("q"), NegAtom("q"))) == set(range(5))


def test_eval_unknown_atom(f1):
    with pytest.raises(ValidationError):
        eval_formula(f1, Atom("nope"))
    with pytest.raises(ValidationError):
        eval_formula(f1, NegAtom("nope"))
