"""Text formats for models, relations, results, and random generation.

Model grammar, one directive per line with ``#`` comments:

    states <N>
    label <id> <atom>*        (exactly N lines, each id once)
    transitions <M>
    <src> <dst>               (exactly M lines)

Ids and counts are ASCII decimals; atoms match ``[A-Za-z_][A-Za-z0-9_]*``.
Serialization is canonical: labels by id, atoms and transitions sorted.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict

from .model import KripkeStructure, SimulationResult, StatePairs, ValidationError
from .model import _Successors

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _lines(text: str) -> list[str]:
    """The lines holding a token, ``#`` comments stripped.  ``_error``
    counts lines by this function too."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(filter(str.strip, lines))


def _error(text: str, message: str, i: int, index: int | None = 0) -> ParseError:
    """ParseError at the start column of token ``index`` of line
    ``_lines(text)[i]``, or at its column 1 if ``index`` is None.  Only
    a failing parse maps its line back to the text."""
    numbered = enumerate(text.splitlines(), 1)
    lineno, body = [(j, body) for j, line in numbered for body in _lines(line)][i]
    starts = [token.start() for token in re.finditer(r"\S+", body)]
    return ParseError(message, lineno, 1 if index is None else starts[index] + 1)


def _decimal(token: str) -> int:
    """``int`` of an ASCII decimal, ``-`` allowed; ValueError for the
    ``+1``, ``1_0`` and non-ASCII digits that ``int`` also reads."""
    if token.isascii() and token.lstrip("-").isdigit():
        return int(token)
    raise ValueError(token)


def _count(text: str, lines: list[str], i: int, usage: str, noun: str) -> int:
    """The count on header line ``lines[i]``, which has the form ``usage``."""
    tokens = lines[i].split()
    if len(tokens) != 2 or tokens[0] != usage.split()[0]:
        raise _error(text, f"expected '{usage}'", i)
    try:
        count = _decimal(tokens[1])
    except ValueError:
        message = f"expected a {noun} count, got {tokens[1]!r}"
        raise _error(text, message, i, 1) from None
    if count < 0:
        raise _error(text, f"{noun} count must be >= 0", i, 1)
    return count


def _pairs(
    text: str, lines: list[str], first: int, stop: int, n: int, shape: str
) -> list[list[int]]:
    """The successor lists of the '<id> <id>' lines ``lines[first:stop]``,
    ids in ``range(n)``: one test per line, and a failing line diagnosed.
    Ids are read by ``int``, at C speed, unless the lines hold a ``+``, a
    ``_`` or a non-ASCII character, the forms ``_decimal`` rejects."""
    succ: list[list[int]] = [[] for _ in range(n)]
    block = lines[first:stop]
    ids = "".join(block)
    read = _decimal if "+" in ids or "_" in ids or not ids.isascii() else int
    del ids
    for i, line in enumerate(block, first):
        try:
            u, v = line.split()
            s, t = read(u), read(v)
        except ValueError:
            s = t = -1
        if not (0 <= s < n and 0 <= t < n):
            tokens = line.split()
            if len(tokens) != 2:
                raise _error(text, f"expected {shape}", i)
            raise _id_error(text, i, tokens, range(2), n)
        succ[s].append(t)
    return succ


def _id_error(
    text: str, i: int, tokens: list[str], ids: range, n: int
) -> ParseError | None:
    """The first error among the state ids ``tokens[j]``, ``j`` in ``ids``,
    of line ``lines[i]``: a token that is no decimal, then one out of range."""
    for j in ids:
        try:
            _decimal(tokens[j])
        except ValueError:
            return _error(text, f"expected a state id, got {tokens[j]!r}", i, j)
    for j in ids:
        if not 0 <= int(tokens[j]) < n:
            return _error(text, f"dangling state id {int(tokens[j])}", i, j)
    return None


def parse_ks(text: str) -> KripkeStructure:
    """Parse the model grammar in one walk over its lines, raising
    ParseError with line and column at the first error; only a failing
    line is diagnosed.  A label line takes its label, one frozenset per
    distinct label, from a table keyed by its atom text, and a transition
    line appends to its source's successor list.  The table and then the
    line strings are freed before the predecessor lists are built."""
    lines = _lines(text)
    if not lines:
        raise ParseError("empty model file", 1)
    n = _count(text, lines, 0, "states <N>", "state")
    # Nothing is sized by n before the file shows n label lines, as n
    # may be huge.  A file with fewer lines fails; a dict finds its errors.
    labels = [None] * n if n < len(lines) else defaultdict(lambda: None)
    by_text: dict[str, frozenset[str]] = {}  # atom text -> its label
    shared: dict[frozenset[str], frozenset[str]] = {}
    for i, line in enumerate(lines[1 : n + 1], 1):
        head = line.split(None, 2)
        try:
            t = head[1]  # a label line's atoms may hold '_': test the id alone
            s = int(t) if t.isdigit() and t.isascii() else _decimal(t)
            ok = head[0] == "label" and 0 <= s < n and labels[s] is None
        except (IndexError, ValueError):
            ok = False
        if not ok:
            if len(head) < 2 or head[0] != "label":
                raise _error(text, "expected 'label <id> <atom>*'", i)
            raise _id_error(text, i, head, range(1, 2), n) or _error(
                text, f"duplicate state declaration {int(head[1])}", i, 1
            )
        atoms = head[2] if len(head) == 3 else ""
        label = by_text.get(atoms)
        if label is None:
            for j, atom in enumerate(atoms.split(), 2):
                if not _ATOM_RE.match(atom):
                    raise _error(text, f"invalid atom {atom!r}", i, j)
            label = frozenset(atoms.split())
            label = by_text[atoms] = shared.setdefault(label, label)
        labels[s] = label
    del by_text
    if len(lines) <= n + 1:
        what = f"{n} label lines" if len(lines) <= n else "'transitions <M>'"
        raise _error(text, f"expected {what}", len(lines) - 1, None)
    m = _count(text, lines, n + 1, "transitions <M>", "transition")
    end = n + 2 + m
    succ = _pairs(text, lines, n + 2, end, n, "'<src> <dst>'")
    if len(lines) < end:
        raise _error(text, f"expected {m} transition lines", len(lines) - 1, None)
    if len(lines) > end:
        raise _error(text, "unexpected content after transitions", end)
    del lines
    return KripkeStructure(n, _Successors(succ), labels)


def serialize_ks(k: KripkeStructure) -> str:
    lines = [f"states {k.num_states}"]
    for s in k.states():
        atoms = " ".join(sorted(k.labels[s]))
        lines.append(f"label {s} {atoms}".rstrip())
    lines.append(f"transitions {sum(map(len, k.successors))}")
    for s, lst in enumerate(k.successors):
        lines.extend(f"{s} {t}" for t in lst)
    return "\n".join(lines) + "\n"


def _block_lines(blocks: list[list[int]]) -> list[str]:
    """The 'block <i>: <members>' line of each block, in list order."""
    return [f"block {i}: " + " ".join(map(str, ms)) for i, ms in enumerate(blocks)]


def serialize_result(result: SimulationResult) -> str:
    """Canonical result text: block lines, then strict 'leq' lines.

    Reflexive and within-block pairs are suppressed (reconstructible);
    ``_pair_chunks`` gives every related state pair as 'pair <x> <y>'
    lines, which ``compute --full`` writes after this text.
    """
    lines = _block_lines(result.blocks)
    for i, j in result.strict_block_pairs():
        lines.append(f"leq {i} {j}")
    return "\n".join(lines) + "\n"


# Characters per text of ``_pair_chunks``: a few writes for the sparse
# model's pairs, and a bound on what ``compute --full`` holds at once.
_PAIR_CHUNK = 1 << 16


def _pair_chunks(result: SimulationResult):
    """The 'pair <x> <y>' line of every related state pair, in sorted
    order, as texts of ``_PAIR_CHUNK`` characters or more each but the last.  Each
    row of ``result.state_pairs()``, the frozenset of the states above a
    block, is sorted and formatted once, from one text per state; state
    ``x`` writes its block's row, so no pair is held as a tuple."""
    pairs = result.state_pairs()
    names = list(map(str, range(len(pairs.row_of))))
    tails = [list(map(names.__getitem__, sorted(ys))) for ys in pairs.rows]
    size = _PAIR_CHUNK
    out: list[str] = []
    length = 0
    for x, i in enumerate(pairs.row_of):
        head = f"pair {names[x]} "
        out.append(head + f"\n{head}".join(tails[i]) + "\n")
        length += len(out[-1])
        if length >= size:
            yield "".join(out)
            out.clear()
            length = 0
    if out:
        yield "".join(out)


def parse_relation(text: str, k: KripkeStructure) -> StatePairs:
    """Parse 'u v' lines into a relation in one walk; duplicates are ignored.

    Returns a read-only ``collections.abc.Set`` of the pairs, not a
    ``set``: a ``StatePairs`` with one row per state, that state's row
    of ``_pairs`` as a frozenset, which ``check_preorder`` reads by rows
    as it does a result's view.  ``len`` counts distinct pairs,
    iteration is sorted, and it equals the builtin set of the same pairs.
    """
    lines = _lines(text)
    succ = _pairs(text, lines, 0, len(lines), k.num_states, "'<u> <v>'")
    return StatePairs(range(k.num_states), list(map(frozenset, succ)))


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
