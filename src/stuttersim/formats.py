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

from .model import KripkeStructure, SimulationResult, ValidationError

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-empty lines as (line number, tokens)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _error(text: str, message: str, lineno: int, index: int) -> ParseError:
    """ParseError at the start column of token ``index`` of line
    ``lineno``, found by rescanning that line."""
    body = text.splitlines()[lineno - 1].split("#", 1)[0]
    tokens = body.split()
    pos = 0
    for tok in tokens[:index]:
        pos = body.index(tok, pos) + len(tok)
    return ParseError(message, lineno, body.index(tokens[index], pos) + 1)


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


def parse_ks(text: str) -> KripkeStructure:
    """Parse the model grammar; raises ParseError with line/column."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty model file", 1)
    cursor = 0

    lineno, tokens = lines[cursor]
    if tokens[0] != "states" or len(tokens) != 2:
        raise _error(text, "expected 'states <N>'", lineno, 0)
    n = _parse_int(text, lineno, tokens, 1, "a state count")
    if n < 0:
        raise _error(text, "state count must be >= 0", lineno, 1)
    cursor += 1

    labels: list[list[str] | None] = [None] * n
    for _ in range(n):
        if cursor >= len(lines):
            raise ParseError(f"expected {n} label lines", lineno)
        lineno, tokens = lines[cursor]
        if tokens[0] != "label" or len(tokens) < 2:
            raise _error(text, "expected 'label <id> <atom>*'", lineno, 0)
        sid = _parse_int(text, lineno, tokens, 1, "a state id")
        if not 0 <= sid < n:
            raise _error(text, f"dangling state id {sid}", lineno, 1)
        if labels[sid] is not None:
            raise _error(text, f"duplicate state declaration {sid}", lineno, 1)
        for i in range(2, len(tokens)):
            if not _ATOM_RE.match(tokens[i]):
                raise _error(text, f"invalid atom {tokens[i]!r}", lineno, i)
        labels[sid] = tokens[2:]
        cursor += 1

    if cursor >= len(lines):
        raise ParseError("expected 'transitions <M>'", lineno)
    lineno, tokens = lines[cursor]
    if tokens[0] != "transitions" or len(tokens) != 2:
        raise _error(text, "expected 'transitions <M>'", lineno, 0)
    m = _parse_int(text, lineno, tokens, 1, "a transition count")
    if m < 0:
        raise _error(text, "transition count must be >= 0", lineno, 1)
    cursor += 1

    transitions: list[tuple[int, int]] = []
    for _ in range(m):
        if cursor >= len(lines):
            raise ParseError(f"expected {m} transition lines", lineno)
        lineno, tokens = lines[cursor]
        transitions.append(_state_pair(text, lineno, tokens, n, "'<src> <dst>'"))
        cursor += 1

    if cursor != len(lines):
        lineno = lines[cursor][0]
        raise _error(text, "unexpected content after transitions", lineno, 0)
    return KripkeStructure(n, transitions, [lab or [] for lab in labels])


def serialize_ks(k: KripkeStructure) -> str:
    lines = [f"states {k.num_states}"]
    for s in k.states():
        atoms = " ".join(sorted(k.labels[s]))
        lines.append(f"label {s} {atoms}".rstrip())
    lines.append(f"transitions {len(k.transitions)}")
    for s, t in k.transitions:
        lines.append(f"{s} {t}")
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
    return {
        _state_pair(text, lineno, tokens, k.num_states, "'<u> <v>'")
        for lineno, tokens in _content_lines(text)
    }


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
    labels = [[f"p{rng.randrange(num_labels)}"] for _ in range(num_states)]
    transitions = [
        (s, t)
        for s in range(num_states)
        for t in range(num_states)
        if rng.random() < edge_density
    ]
    return KripkeStructure(num_states, transitions, labels)
