"""Seeded benchmark inputs and their reference answers.

A workload runs ``compute`` on one model and ``check`` on another (or
the same) model.  Each model starts from a base model fixed by
``model_seed`` and has its states renumbered by a permutation drawn
from ``seed`` (see ``renumbering``), so every seed asks the program for
the same work while the input and output files differ.  The expected
outputs are derived per seed from a reference that is not the
program's refinement engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from stuttersim import KripkeStructure, generate_random_ks, serialize_ks
from stuttersim.reference import simulator_sets

# (states, edge density, label count) of the generated models, full and smoke.
RANDOM_SIZES = {
    "sparse": ((300, 2 / 300, 4), (60, 2 / 60, 4)),
    "coarse": ((200, 0.015, 2), (60, 0.05, 2)),
}
# 3 * 10^4, not the 10^5 of the acceptance tests: shorter operations give
# each run more samples, which the machine's speed swings call for.
CHAIN_LENGTH = (3 * 10**4, 1000)
# workload -> (model for compute, model for check)
MODELS = {"sparse": ("sparse", "sparse"), "frontend": ("chain", "coarse")}
COMPUTE_FLAGS = {"sparse": ["--emit", "all", "--full"], "frontend": ["--emit", "all"]}
# Flags of a second ``compute``, on the check model: the chain is one class
# of 3 * 10^4 states, too large for ``--full``, so ``frontend`` serializes
# state pairs here instead.
CHECK_MODEL_COMPUTE_FLAGS = {"frontend": ["--full"]}
WORKLOADS = tuple(MODELS)
MODEL_SEED = 7  # base models of the ROADMAP baseline; the pins hold for it


@dataclass
class Answer:
    """Equivalence classes sorted by least member and the strict order
    between them, as block-index pairs ``(i, j)``: ``j`` simulates ``i``."""

    blocks: list[list[int]]
    leq: list[tuple[int, int]]


@dataclass
class Inputs:
    model: KripkeStructure
    answer: Answer
    check_model: KripkeStructure
    check_answer: Answer
    accept: set[tuple[int, int]]
    reject: set[tuple[int, int]]


def stutter_chain(length: int) -> KripkeStructure:
    """p-chain into a q-sink, plus a lone p-state with an r-move: four
    classes for every length, with the whole chain in one class."""
    chain = [(i, i + 1) for i in range(length)]
    solo, r_sink = length + 1, length + 2
    labels = [["p"]] * length + [["q"], ["p"], ["r"]]
    return KripkeStructure(length + 3, chain + [(solo, r_sink)], labels)


def renumbering(base: KripkeStructure, seed: int) -> list[int]:
    """Random new ids (old id -> new id) that keep the order of the states
    within each label class and the order of the classes' least members.

    The engine orders its work by those two orders alone, so it takes
    the same steps on every renumbering while the files differ.
    """
    classes: dict[frozenset[str], list[int]] = {}
    for s, lab in enumerate(base.labels):
        classes.setdefault(lab, []).append(s)
    queues = list(classes.values())  # by least member
    heads = [0] * len(queues)
    started = 0
    rng = random.Random(seed)
    perm = [0] * base.num_states
    for new_id in range(base.num_states):
        open_ = [i for i in range(min(started + 1, len(queues))) if heads[i] < len(queues[i])]
        i = rng.choices(open_, [len(queues[j]) - heads[j] for j in open_])[0]
        started = max(started, i + 1)
        perm[queues[i][heads[i]]] = new_id
        heads[i] += 1
    return perm


def make_model(
    kind: str, seed: int, model_seed: int, smoke: bool
) -> tuple[KripkeStructure, list[int]]:
    """A base model of this kind renumbered for the seed; returns the
    model and the renumbering."""
    if kind == "chain":
        base = stutter_chain(CHAIN_LENGTH[smoke])
    else:
        n, d, labels = RANDOM_SIZES[kind][smoke]
        base = generate_random_ks(model_seed, n, d, labels)
    perm = renumbering(base, seed)
    labels_new: list = [None] * base.num_states
    for s, lab in enumerate(base.labels):
        labels_new[perm[s]] = lab
    edges = [(perm[s], perm[t]) for s, t in base.transitions]
    return KripkeStructure(base.num_states, edges, labels_new), perm


def answer_from_simulators(sim: dict[int, set[int]]) -> Answer:
    block_of = [-1] * len(sim)
    blocks: list[list[int]] = []
    for x in range(len(sim)):
        if block_of[x] < 0:
            members = sorted(y for y in sim[x] if x in sim[y])
            for y in members:
                block_of[y] = len(blocks)
            blocks.append(members)
    leq = {
        (i, block_of[y])
        for i, members in enumerate(blocks)
        for y in sim[members[0]]
        if block_of[y] != i
    }
    return Answer(blocks, sorted(leq))


def chain_answer(length: int, perm: list[int]) -> Answer:
    """Known answer of ``stutter_chain``: four unrelated classes."""
    groups = [[perm[i] for i in range(length)]] + [[perm[length + j]] for j in range(3)]
    return Answer(sorted(sorted(g) for g in groups), [])


def state_pairs(answer: Answer) -> set[tuple[int, int]]:
    rel = [(i, i) for i in range(len(answer.blocks))] + answer.leq
    return {(x, y) for i, j in rel for x in answer.blocks[i] for y in answer.blocks[j]}


def quotient_parts(
    model: KripkeStructure, answer: Answer
) -> tuple[list[frozenset[str]], list[tuple[int, int]]]:
    """Labels and sorted edges of the existential quotient by the answer."""
    block_of = [0] * model.num_states
    for i, members in enumerate(answer.blocks):
        for s in members:
            block_of[s] = i
    edges = sorted({(block_of[s], block_of[t]) for s, t in model.transitions})
    return [model.labels[members[0]] for members in answer.blocks], edges


def rejected_extension(
    model: KripkeStructure, pairs: set[tuple[int, int]], perm: list[int], model_seed: int
) -> set[tuple[int, int]]:
    """``pairs`` plus one same-label pair it lacks, closed transitively.

    ``pairs`` is the largest stuttering simulation, so every strictly
    larger relation is rejected.  The pair is drawn in base-model ids,
    so every renumbering of a model gets the same relation.
    """
    rng = random.Random(model_seed)
    n = model.num_states
    while True:
        a, b = perm[rng.randrange(n)], perm[rng.randrange(n)]
        if model.labels[a] == model.labels[b] and (a, b) not in pairs:
            break
    below_a = [x for x, y in pairs if y == a]
    above_b = [y for x, y in pairs if x == b]
    return pairs | {(x, y) for x in below_a for y in above_b}


def reference(kind: str, model: KripkeStructure, perm: list[int], smoke: bool) -> Answer:
    if kind == "chain":
        return chain_answer(CHAIN_LENGTH[smoke], perm)
    return answer_from_simulators(simulator_sets(model))


def prepare(name: str, seed: int, model_seed: int, smoke: bool) -> Inputs:
    """Build the inputs and run the reference; not timed."""
    compute_kind, check_kind = MODELS[name]
    model, perm = make_model(compute_kind, seed, model_seed, smoke)
    answer = reference(compute_kind, model, perm, smoke)
    if check_kind == compute_kind:
        check_model, check_answer = model, answer
    else:
        check_model, perm = make_model(check_kind, seed, model_seed, smoke)
        check_answer = reference(check_kind, check_model, perm, smoke)
    accept = state_pairs(check_answer)
    reject = rejected_extension(check_model, accept, perm, model_seed)
    return Inputs(model, answer, check_model, check_answer, accept, reject)


def relation_text(pairs: set[tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(pairs))


def set_up(
    directory: Path, name: str, seed: int, model_seed: int, smoke: bool, inputs: Inputs
) -> dict[str, Path]:
    """Generate the model and write it and the check inputs to files;
    the part of preparing a run that is timed as set-up."""
    compute_kind, check_kind = MODELS[name]
    model, _ = make_model(compute_kind, seed, model_seed, smoke)
    if check_kind == compute_kind:
        check_model = model
    else:
        check_model, _ = make_model(check_kind, seed, model_seed, smoke)
    files = {
        "model": (directory / "model.ks", serialize_ks(model)),
        "check_model": (directory / "check_model.ks", serialize_ks(check_model)),
        "accept": (directory / "accept.rel", relation_text(inputs.accept)),
        "reject": (directory / "reject.rel", relation_text(inputs.reject)),
    }
    for path, text in files.values():
        path.write_text(text, encoding="utf-8")
    return {key: path for key, (path, _) in files.items()}


def expected_compute_stdout(
    model: KripkeStructure, answer: Answer, flags: list[str]
) -> str:
    """Canonical ``compute`` output for the reference answer, written
    independently of the program's serializers."""
    lines = [f"block {i}: " + " ".join(map(str, b)) for i, b in enumerate(answer.blocks)]
    lines += [f"leq {i} {j}" for i, j in answer.leq]
    if "--full" in flags:
        lines += [f"pair {x} {y}" for x, y in sorted(state_pairs(answer))]
    text = "\n".join(lines) + "\n"
    if "all" in flags:
        labels, edges = quotient_parts(model, answer)
        qlines = [f"states {len(labels)}"]
        qlines += [f"label {q} {' '.join(sorted(lab))}".rstrip() for q, lab in enumerate(labels)]
        qlines.append(f"transitions {len(edges)}")
        qlines += [f"{s} {t}" for s, t in edges]
        text += "# quotient\n" + "\n".join(qlines) + "\n"
    return text
