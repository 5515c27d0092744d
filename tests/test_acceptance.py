"""Acceptance suite: one test per criterion, with a pass line printed.

Run as ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; each test enforces its stated tolerance (zero unless noted).
"""

import random
import time

import pytest

from stuttersim import (
    KripkeStructure,
    check_preorder,
    compute_preorder,
    generate_random_ks,
    labeling_partition,
    naive_stuttering_simulation,
    simulator_sets,
)
from stuttersim.selftest import split_ordering_check, split_refine_check

from conftest import pairs_of, stutter_chain, transitive_closure
from ectl import And, Atom, ExistsUntil, NegAtom, Or, eval_formula

DENSITIES = (0.1, 0.25, 0.5)


def _random_structure(seed: int, max_states: int = 8) -> KripkeStructure:
    return generate_random_ks(
        seed,
        2 + seed % (max_states - 1),
        DENSITIES[seed % 3],
        1 + seed % 3,
    )


def test_criterion_1_split_refine_golden():
    start = time.monotonic()
    ok, detail = split_refine_check()
    elapsed = time.monotonic() - start
    assert ok, detail
    assert elapsed < 1.0
    print(f"PASS criterion 1: split+refine golden example exact-match ({elapsed:.3f}s)")


def test_criterion_2_split_ordering_golden():
    start = time.monotonic()
    ok, detail = split_ordering_check()
    elapsed = time.monotonic() - start
    assert ok, detail
    assert elapsed < 1.0
    print(f"PASS criterion 2: split ordering golden example exact-match ({elapsed:.3f}s)")


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    runs = 0
    for seed in range(350):
        for density in DENSITIES:
            k = generate_random_ks(seed, 2 + seed % 7, density, 1 + seed % 3)
            oracle = naive_stuttering_simulation(k)
            assert compute_preorder(k).state_pairs() == oracle, (seed, density)
            assert pairs_of(simulator_sets(k)) == oracle, (seed, density)
            runs += 1
    elapsed = time.monotonic() - start
    assert runs >= 1000
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: engine == explicit == naive on {runs} random "
        f"structures ({elapsed:.1f}s)"
    )


def test_criterion_4_checker_soundness_completeness():
    rejected = 0
    for seed in range(200):
        k = generate_random_ks(seed, 4 + seed % 5, DENSITIES[seed % 3], 1 + seed % 3)
        best = compute_preorder(k).state_pairs()
        assert check_preorder(k, best).accepted, seed
        extras = [
            (x, y)
            for x in k.states()
            for y in k.states()
            if k.labels[x] == k.labels[y] and (x, y) not in best
        ]
        for pair in extras:
            augmented = transitive_closure(best | {pair})
            assert not check_preorder(k, augmented).accepted, (seed, pair)
            rejected += 1
    print(
        "PASS criterion 4: checker accepts 200 computed preorders and "
        f"rejects {rejected} single-pair augmentations"
    )


def test_criterion_5_bookkeeping_invariants():
    for seed in range(200):
        k = generate_random_ks(
            50_000 + seed, 2 + seed % 14, DENSITIES[seed % 3], 1 + seed % 4
        )
        compute_preorder(k, debug=True)  # asserts tables at every boundary
    print("PASS criterion 5: counter/bottom tables match brute force on 200 runs")


def test_criterion_6_complexity_shape():
    for seed in range(300):
        k = _random_structure(seed)
        result = compute_preorder(k)
        rel = naive_stuttering_simulation(k)
        classes = set()
        for s in k.states():
            classes.add(frozenset(t for t in k.states() if (s, t) in rel and (t, s) in rel))
        target = len(classes)
        assert len(result.blocks) == target, seed
        stats = result.stats
        assert stats.iterations <= target * target, seed
        assert stats.blocks_created == 2 * (target - len(labeling_partition(k))), seed
    print("PASS criterion 6: iteration and new-block counts within bounds on 300 runs")


def _random_formula(rng: random.Random, atoms: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(atoms)
        return Atom(name) if rng.random() < 0.5 else NegAtom(name)
    ctor = rng.choice([And, Or, ExistsUntil])
    return ctor(
        _random_formula(rng, atoms, depth - 1),
        _random_formula(rng, atoms, depth - 1),
    )


def test_criterion_7_logic_preservation():
    rng = random.Random(1729)
    for trial in range(500):
        k = _random_structure(60_000 + trial)
        blocks = compute_preorder(k).blocks
        phi = _random_formula(rng, sorted(frozenset().union(*k.labels)), depth=rng.randrange(1, 5))
        sat = eval_formula(k, phi)
        for members in blocks:
            inside = sum(1 for s in members if s in sat)
            assert inside in (0, len(members)), (trial, phi)
    print("PASS criterion 7: 500 random formulas denote unions of result blocks")


def test_criterion_8_chain_scaling_smoke():
    iterations = []
    for length in (8, 16, 32, 64):
        result = compute_preorder(stutter_chain(length))
        assert len(result.blocks) == 4  # the class count stays fixed
        assert len(result.blocks[0]) == length  # the chain stays one class
        iterations.append(result.stats.iterations)
    assert max(iterations) <= 4
    assert len(set(iterations)) == 1  # doubling the length changes nothing
    print(
        "PASS criterion 8: stutter-chain doubling keeps iteration count at "
        f"{iterations[0]}"
    )
