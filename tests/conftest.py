import os
import random
from pathlib import Path

import pytest

import stuttersim
from stuttersim import KripkeStructure


@pytest.fixture
def f1() -> KripkeStructure:
    """Stutter chain: three p-states feeding two q-states."""
    return KripkeStructure(
        5, [(0, 3), (1, 2), (2, 4)], [["p"], ["p"], ["p"], ["q"], ["q"]]
    )


@pytest.fixture
def f2() -> KripkeStructure:
    """Asymmetric: 0 has an extra r-move that 3 cannot match."""
    return KripkeStructure(
        5, [(0, 1), (0, 2), (3, 4)], [["p"], ["q"], ["r"], ["p"], ["q"]]
    )


def pairs_of(sim: dict[int, set[int]]) -> set[tuple[int, int]]:
    """State relation induced by a simulator-set map."""
    return {(x, y) for x, ys in sim.items() for y in ys}


def random_preorder(rng: random.Random, k: KripkeStructure) -> set[tuple[int, int]]:
    """Reflexive-transitive closure of a random set of same-label pairs."""
    n = k.num_states
    pairs = {(s, s) for s in range(n)}
    candidates = [
        (s, t)
        for s in range(n)
        for t in range(n)
        if s != t and k.labels[s] == k.labels[t]
    ]
    rng.shuffle(candidates)
    for pair in candidates[: rng.randrange(0, len(candidates) + 1)]:
        pairs.add(pair)
    return transitive_closure(pairs)


def transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        fwd: dict[int, set[int]] = {}
        for a, b in closed:
            fwd.setdefault(a, set()).add(b)
        for a, b in list(closed):
            for c in fwd.get(b, ()):
                if (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return closed


def block_order(engine: stuttersim.RefinementEngine) -> list[int]:
    """The engine's block ids in list order, read from each block's ``begin``."""
    return sorted(range(len(engine.blocks)), key=lambda b: engine.blocks[b].begin)


def stutter_chain(length: int) -> KripkeStructure:
    """p-chain into a q-sink, plus a lone p-state with an r-move.

    The lone state forces one genuine split of the p-class; the class
    count (4) and the refinement work stay fixed as the chain doubles.
    """
    chain = [(i, i + 1) for i in range(length)]  # state `length` is the q-sink
    solo, r_sink = length + 1, length + 2
    labels = [["p"]] * length + [["q"], ["p"], ["r"]]
    return KripkeStructure(length + 3, chain + [(solo, r_sink)], labels)


def peel(n: int) -> KripkeStructure:
    """An a-state with no successors, and for each i in 1..n an a-state
    into a b-state into a c/d-alternating chain of i states that ends in
    a deadlock.

    The chains tell the a-states apart one length at a time, so each
    pruning keeps most of a large up-set.
    """
    labels, edges = [["a"]], []
    for i in range(1, n + 1):
        first = len(labels)
        labels += [["a"], ["b"]] + [[("c", "d")[j % 2]] for j in range(i)]
        edges += [(s, s + 1) for s in range(first, first + i + 1)]
    return KripkeStructure(len(labels), edges, labels)


def reachable(
    successors: list[list[int]], group: list[int], v: int
) -> set[int]:
    """Nodes reachable from ``v`` along edges inside ``v``'s group."""
    seen = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        for y in successors[x]:
            if group[y] == group[x] and y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def random_graph(rng: random.Random) -> tuple[int, list[list[int]], list[int]]:
    """Up to 12 nodes with up to 4 sorted successors each, in two groups."""
    n = rng.randrange(1, 13)
    successors = [
        sorted(rng.sample(range(n), rng.randrange(0, min(n, 4) + 1)))
        for _ in range(n)
    ]
    group = [rng.randrange(2) for _ in range(n)]
    return n, successors, group


def child_env(hashseed=None):
    """Environment for a ``python -m stuttersim`` child process.

    The child inherits this process's environment and imports the same
    ``stuttersim`` copy, whether installed or not and whatever the current
    directory; ``hashseed`` overrides ``PYTHONHASHSEED``.
    """
    env = dict(os.environ)
    package_root = str(Path(stuttersim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return env
