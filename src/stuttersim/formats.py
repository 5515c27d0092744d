"""Text formats for models, relations, results, and random generation.

Model grammar, one directive per line with ``#`` comments:

    states <N>
    label <id> <atom>*        (exactly N lines, each id once)
    transitions <M>
    <src> <dst>               (exactly M lines)

Ids are decimal, atoms match ``[A-Za-z_][A-Za-z0-9_]*``.  Serialization
is canonical: labels by state id with atoms sorted, transitions sorted.
"""

from __future__ import annotations

import random
import re
from itertools import chain
from typing import Iterable, NoReturn

from .model import KripkeStructure, SimulationResult, ValidationError, _Successors

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _lines(text: str) -> list[str]:
    """The lines holding a token, ``#`` comments stripped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(filter(str.strip, lines))


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Lines holding a token as (line number, tokens)."""
    lines = enumerate(text.splitlines(), 1)
    return [(i, t) for i, line in lines if (t := line.split("#", 1)[0].split())]


def _error(text: str, message: str, lineno: int, index: int) -> ParseError:
    """ParseError at the start column of token ``index`` of line
    ``lineno``, found by rescanning that line."""
    body = text.splitlines()[lineno - 1].split("#", 1)[0]
    starts = [token.start() for token in re.finditer(r"\S+", body)]
    return ParseError(message, lineno, starts[index] + 1)


def _parse_int(text: str, lineno: int, tokens: list[str], index: int, what: str) -> int:
    try:
        return int(tokens[index])
    except ValueError:
        message = f"expected {what}, got {tokens[index]!r}"
        raise _error(text, message, lineno, index) from None


def _state_pair(
    text: str, lineno: int, tokens: list[str], n: int, shape: str
) -> tuple[int, int]:
    """The two state ids of a transition or relation line."""
    if len(tokens) != 2:
        raise _error(text, f"expected {shape}", lineno, 0)
    u = _parse_int(text, lineno, tokens, 0, "a state id")
    v = _parse_int(text, lineno, tokens, 1, "a state id")
    if not 0 <= u < n:
        raise _error(text, f"dangling state id {u}", lineno, 0)
    if not 0 <= v < n:
        raise _error(text, f"dangling state id {v}", lineno, 1)
    return u, v


def _in_range(pairs: Iterable[tuple[int, int]], n: int) -> bool:
    ids = chain.from_iterable
    return min(ids(pairs), default=0) >= 0 and max(ids(pairs), default=-1) < n


def _model(text: str) -> KripkeStructure | None:
    """The model of a well-formed text, or None.  Each line is split and
    checked as it is read: a label line puts its state's label, one
    frozenset per distinct label, into the label list, and a transition
    line appends to its source's successor list.  The line strings are
    freed before the predecessor lists are built."""
    lines = _lines(text)
    try:
        keyword, count = lines[0].split()
        n = int(count)
        if keyword != "states" or not 0 <= n <= len(lines) - 2:
            return None
        keyword, count = lines[n + 1].split()
        if keyword != "transitions" or int(count) != len(lines) - n - 2:
            return None
        labels: list[frozenset[str] | None] = [None] * n
        shared: dict[frozenset[str], frozenset[str]] = {}
        for keyword, sid, *atoms in map(str.split, lines[1 : n + 1]):
            s = int(sid)
            if keyword != "label" or not 0 <= s < n or labels[s] is not None:
                return None  # the ids must be a permutation
            label = frozenset(atoms)
            if label not in shared:
                if not all(map(_ATOM_RE.match, atoms)):
                    return None
                shared[label] = label
            labels[s] = shared[label]
        succ: list[list[int]] = [[] for _ in range(n)]
        for u, v in map(str.split, lines[n + 2 :]):
            s, t = int(u), int(v)
            if not (0 <= s < n and 0 <= t < n):
                return None
            succ[s].append(t)
    except (ValueError, IndexError):
        return None
    del lines
    return KripkeStructure(n, _Successors(succ), labels)


def parse_ks(text: str) -> KripkeStructure:
    """Parse the model grammar; raises ParseError with line/column."""
    model = _model(text)
    if model is None:
        _raise_model_error(text)
    return model


def _raise_model_error(text: str) -> NoReturn:
    """Raise the first error of a model that failed the bulk checks."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty model file", 1)
    lineno, tokens = lines[0]
    if tokens[0] != "states" or len(tokens) != 2:
        raise _error(text, "expected 'states <N>'", lineno, 0)
    n = _parse_int(text, lineno, tokens, 1, "a state count")
    if n < 0:
        raise _error(text, "state count must be >= 0", lineno, 1)
    declared: set[int] = set()  # nothing sized by n: it may be huge
    for lineno, tokens in lines[1 : n + 1]:
        if tokens[0] != "label" or len(tokens) < 2:
            raise _error(text, "expected 'label <id> <atom>*'", lineno, 0)
        sid = _parse_int(text, lineno, tokens, 1, "a state id")
        if not 0 <= sid < n:
            raise _error(text, f"dangling state id {sid}", lineno, 1)
        if sid in declared:
            raise _error(text, f"duplicate state declaration {sid}", lineno, 1)
        declared.add(sid)
        for i in range(2, len(tokens)):
            if not _ATOM_RE.match(tokens[i]):
                raise _error(text, f"invalid atom {tokens[i]!r}", lineno, i)
    if len(lines) <= n + 1:
        what = f"{n} label lines" if len(lines) <= n else "'transitions <M>'"
        raise ParseError(f"expected {what}", lineno)
    lineno, tokens = lines[n + 1]
    if tokens[0] != "transitions" or len(tokens) != 2:
        raise _error(text, "expected 'transitions <M>'", lineno, 0)
    m = _parse_int(text, lineno, tokens, 1, "a transition count")
    if m < 0:
        raise _error(text, "transition count must be >= 0", lineno, 1)
    end = n + 2 + m
    for lineno, tokens in lines[n + 2 : end]:
        _state_pair(text, lineno, tokens, n, "'<src> <dst>'")
    if len(lines) < end:
        raise ParseError(f"expected {m} transition lines", lineno)
    # The bulk checks failed, so something follows the transitions.
    raise _error(text, "unexpected content after transitions", lines[end][0], 0)


def serialize_ks(k: KripkeStructure) -> str:
    lines = [f"states {k.num_states}"]
    for s in k.states():
        atoms = " ".join(sorted(k.labels[s]))
        lines.append(f"label {s} {atoms}".rstrip())
    lines.append(f"transitions {sum(map(len, k.successors))}")
    for s, lst in enumerate(k.successors):
        lines.extend(f"{s} {t}" for t in lst)
    return "\n".join(lines) + "\n"


def serialize_result(result: SimulationResult, full: bool = False) -> str:
    """Canonical result text: block lines, then strict 'leq' lines.

    Reflexive and within-block pairs are suppressed (reconstructible);
    ``full`` appends every related state pair as 'pair <x> <y>' lines.
    """
    lines = []
    for i, members in enumerate(result.blocks):
        lines.append(f"block {i}: " + " ".join(str(s) for s in members))
    for i, j in result.strict_block_pairs():
        lines.append(f"leq {i} {j}")
    if full:
        for x, y in sorted(result.state_pairs()):
            lines.append(f"pair {x} {y}")
    return "\n".join(lines) + "\n"


def parse_relation(text: str, k: KripkeStructure) -> set[tuple[int, int]]:
    """Parse 'u v' lines into a relation; duplicates are ignored."""
    try:
        pairs = {(int(u), int(v)) for u, v in map(str.split, _lines(text))}
        if _in_range(pairs, k.num_states):
            return pairs
    except ValueError:
        pass
    for lineno, tokens in _content_lines(text):  # raises at the first error
        _state_pair(text, lineno, tokens, k.num_states, "'<u> <v>'")
    raise AssertionError("the bulk and per-line relation checks disagree")


def generate_random_ks(
    seed: int, num_states: int, edge_density: float, num_labels: int
) -> KripkeStructure:
    """Deterministic random structure for a fixed argument tuple.

    Each state gets one of ``num_labels`` atoms uniformly; each ordered
    state pair (self-loops included) is a transition independently with
    probability ``edge_density``.
    """
    if num_states < 1:
        raise ValidationError("num_states must be >= 1")
    if not 0.0 <= edge_density <= 1.0:
        raise ValidationError("edge_density must be within [0, 1]")
    if num_labels < 1:
        raise ValidationError("num_labels must be >= 1")
    rng = random.Random(seed)
    picks = [rng.randrange(num_labels) for _ in range(num_states)]
    shared = {i: frozenset([f"p{i}"]) for i in set(picks)}
    succ = [
        [t for t in range(num_states) if rng.random() < edge_density]
        for _ in range(num_states)
    ]
    labels = [shared[i] for i in picks]
    return KripkeStructure(num_states, _Successors(succ), labels)
