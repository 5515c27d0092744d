import collections.abc
import random
import re

import pytest

from stuttersim import (
    KripkeStructure,
    ParseError,
    ValidationError,
    check_preorder,
    compute_preorder,
    generate_random_ks,
    labeling_partition,
    parse_ks,
    parse_relation,
    serialize_ks,
    serialize_result,
)
from stuttersim import formats
from stuttersim.formats import _pair_chunks

from conftest import random_preorder

F1_TEXT = """\
states 5
label 0 p
label 1 p
label 2 p
label 3 q
label 4 q
transitions 3
0 3
1 2
2 4
"""


def test_round_trip_f1(f1):
    assert parse_ks(F1_TEXT) == f1
    assert serialize_ks(f1) == F1_TEXT
    assert serialize_ks(parse_ks(F1_TEXT)) == F1_TEXT


def test_round_trip_ignores_comments(f1):
    noisy = "# header\n" + F1_TEXT.replace("transitions 3", "transitions 3  # edges")
    assert parse_ks(noisy) == f1


def _noisy(text, seed):
    """``text`` and variants of it with comments, CRLF line ends, tabs,
    lines of Unicode whitespace only, and the other line breaks of
    ``str.splitlines``."""
    return [
        text,
        "# model\n" + text.replace("\n", "  # note\n"),
        text.replace("\n", "\r\n"),
        text.replace(" ", "\t"),
        text.replace("\n", "\n\u3000\n \x0c\t"),
        text.replace("\n", "\x85\u2028"[seed % 2 :]),
    ]


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random(seed):
    """The canonical text and noisy variants of it parse to one model:
    besides those of ``_noisy``, blank lines between and inside the
    sections, and label lines out of id order."""
    k = generate_random_ks(seed, 1 + seed % 9, 0.4, 1 + seed % 3)
    text = serialize_ks(k)
    lines = text.splitlines()
    n = k.num_states
    head, labels, edges = lines[:1], lines[1 : n + 1], lines[n + 1 :]
    variants = _noisy(text, seed) + [
        "\n".join(head + [""] + labels + ["", "  ", "# edges"] + edges + ["\n"]),
        "\n".join(head + labels[::-1] + edges[:1] + ["", *edges[1:]]) + "\n",
    ]
    for variant in variants:
        assert parse_ks(variant) == k


_TOKENS = ["0", "1", "7", "-1", "x", "9p", "p", "states", "label", "transitions",
           "#", "\u3000", "100000000000000", "+", "_", "\uff11"]


def _mutate(rng, text):
    """``text`` with one to three lines or tokens deleted, inserted or
    replaced, or its tail cut off; every line keeps its own line break."""
    lines = text.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines) + 1)
        # -1 cuts the tail; 0, 1, 2 delete, insert, replace a line; 3, 4, 5 a token
        op = rng.randrange(-1, 6) if i < len(lines) else 1
        if op <= 0:
            del lines[i : None if op else i + 1]
        elif op == 1:
            lines.insert(i, rng.choice(lines + [rng.choice(_TOKENS) + "\n"]))
        elif op == 2:
            lines[i] = " ".join(rng.sample(_TOKENS, rng.randint(1, 3))) + "\n"
        else:
            body = "".join(lines[i].splitlines())
            tokens = body.split(" ")
            j = rng.randrange(len(tokens))
            tokens[j : j + (op != 4)] = [] if op == 3 else [rng.choice(_TOKENS)]
            lines[i] = " ".join(tokens) + lines[i][len(body) :]
    return "".join(lines)


@pytest.mark.parametrize("seed", range(10))
def test_mutated_texts_parse_or_raise_at_a_token(seed):
    """Seeded mutants of small valid models and relations parse or raise
    ParseError, and an error points at a line holding a token, at column
    1 or at the start of one of its tokens."""
    rng = random.Random(seed)
    for trial in range(40):
        k = generate_random_ks(trial, rng.randint(1, 6), 0.4, rng.randint(1, 3))
        n = k.num_states
        pairs = [f"{rng.randrange(n)} {rng.randrange(n)}\n" for _ in range(rng.randint(1, 5))]
        for text, parse in [
            (serialize_ks(k), parse_ks),
            ("".join(pairs), lambda text: parse_relation(text, k)),
        ]:
            text = _mutate(rng, rng.choice(_noisy(text, trial)))
            try:
                parse(text)
            except ParseError as exc:
                bodies = [line.split("#", 1)[0] for line in text.splitlines()]
                if str(exc).endswith("empty model file"):
                    assert not any(map(str.strip, bodies)), text
                    continue
                body = bodies[exc.line - 1]
                starts = {1} | {token.start() + 1 for token in re.finditer(r"\S+", body)}
                assert body.strip() and exc.column in starts, (text, str(exc))


def test_parse_shares_equal_labels():
    """Equal labels are one frozenset object, whatever the atom order."""
    k = parse_ks(
        "states 6\nlabel 0 p q\nlabel 1 q p\nlabel 2 p q q\nlabel 3\n"
        "label 4 r\nlabel 5\ntransitions 0\n"
    )
    assert len(set(k.labels)) == 3
    assert len({id(label) for label in k.labels}) == len(set(k.labels))
    k = parse_ks(serialize_ks(generate_random_ks(3, 200, 0.01, 4)))
    assert len({id(label) for label in k.labels}) == len(set(k.labels))
    # One atom set spelled four ways: four atom texts, one label object.
    k = parse_ks(
        "states 4\nlabel 0 p q\nlabel 1 q  p\nlabel 2 p\tq q\nlabel 3 q p \n"
        "transitions 0\n"
    )
    assert k.labels[0] == {"p", "q"}
    assert len({id(label) for label in k.labels}) == 1


def test_ids_read_alike_on_both_paths(monkeypatch):
    """Id lines holding ``+``, ``_`` or a non-ASCII character have their
    ids read one check at a time; they read as they do in lines without."""
    text = "states 3\nlabel 0 p\nlabel 01 q\nlabel 2\ntransitions 2\n0 002\n1 0\n"
    k = parse_ks(text)
    assert k.successors == [[2], [0], []]
    checked = []
    decimal = formats._decimal
    monkeypatch.setattr(formats, "_decimal", lambda t: checked.append(t) or decimal(t))
    assert parse_ks(text.replace("1 0\n", "1\u3000 0\n")).successors == k.successors
    assert parse_relation("01 2\n2\u3000 00\n", k) == {(1, 2), (2, 0)}
    assert checked == ["3", "2", "0", "002", "1", "0", "01", "2", "2", "00"]


def test_atoms_and_comments_keep_the_fast_id_path(monkeypatch):
    """Only id tokens decide how ids are read: ``_`` in atoms and ``+`` or
    non-ASCII text in comments leave every id to ``int``; only the two
    counts are read one check at a time."""
    checked = []
    decimal = formats._decimal
    monkeypatch.setattr(formats, "_decimal", lambda t: checked.append(t) or decimal(t))
    text = ("states 3 # +\u00e9\nlabel 0 is_error\nlabel 1 p_0 q # \u00e9\n"
            "label 2\ntransitions 2\n0 2 # _+\n1 0\n")
    k = parse_ks(text)
    assert k.successors == [[2], [0], []]
    assert k.labels[0] == {"is_error"} and k.labels[1] == {"p_0", "q"}
    assert checked == ["3", "2"]
    assert parse_relation("1 2 # \u00e9+_\n2 0\n", k) == {(1, 2), (2, 0)}


def test_parse_dangling_transition_id():
    text = F1_TEXT.replace("0 3", "0 9")
    with pytest.raises(ParseError, match="dangling state id 9"):
        parse_ks(text)


def test_parse_duplicate_state_declaration():
    text = F1_TEXT.replace("label 1 p", "label 0 p")
    with pytest.raises(ParseError, match="duplicate state declaration"):
        parse_ks(text)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_ks("states x\n")
    assert exc.value.line == 1 and exc.value.column == 8


def test_parse_syntax_errors():
    with pytest.raises(ParseError):
        parse_ks("")
    with pytest.raises(ParseError, match="expected 'states"):
        parse_ks("labels 3\n")
    with pytest.raises(ParseError, match="invalid atom"):
        parse_ks("states 1\nlabel 0 9bad\ntransitions 0\n")
    with pytest.raises(ParseError, match="unexpected content"):
        parse_ks(F1_TEXT + "1 2\n")
    with pytest.raises(ParseError, match="transition lines"):
        parse_ks(F1_TEXT.replace("transitions 3", "transitions 4"))


def test_empty_labels_allowed():
    k = parse_ks("states 2\nlabel 0\nlabel 1 p q\ntransitions 1\n0 1\n")
    assert k.labels == (frozenset(), frozenset({"p", "q"}))
    assert parse_ks(serialize_ks(k)) == k


def test_serialize_result_f2(f2):
    result = compute_preorder(f2)
    assert serialize_result(result) == (
        "block 0: 0\nblock 1: 1 4\nblock 2: 2\nblock 3: 3\nleq 3 0\n"
    )


def test_serialize_result_full_pairs(f2):
    result = compute_preorder(f2)
    text = serialize_result(result) + "".join(_pair_chunks(result))
    assert "pair 3 0\n" in text and "pair 1 4\n" in text and "pair 0 0\n" in text
    assert "pair 0 3" not in text


def test_serialize_result_single_block():
    k = KripkeStructure(3, [], [["a"], ["a"], ["a"]])
    assert serialize_result(compute_preorder(k)) == "block 0: 0 1 2\n"


def _sorted_pair_text(result) -> str:
    """The full result text as one sorted list of the state-pair tuples
    gives it, the tuples expanded from the block preorder."""
    pairs = {
        (x, y) for i, j in result.preorder for x in result.blocks[i] for y in result.blocks[j]
    }
    lines = [f"block {i}: " + " ".join(map(str, ms)) for i, ms in enumerate(result.blocks)]
    lines += [f"leq {i} {j}" for i, j in result.strict_block_pairs()]
    lines += [f"pair {x} {y}" for x, y in sorted(pairs)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(60))
def test_full_pairs_match_the_sorted_state_pairs(seed, monkeypatch):
    # Dense one-label models collapse cycles; every third seed starts
    # from a random candidate preorder instead of the label classes.
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    k = generate_random_ks(seed, n, rng.choice([0.02, 0.1, 0.3]), rng.randrange(1, 4))
    result = compute_preorder(k)
    if seed % 3 == 0:
        rel = random_preorder(rng, k)
        try:
            result = compute_preorder(k, ([[s] for s in range(n)], rel))
        except ValidationError:
            pass  # candidate block order incompatible with the topology
    text = _sorted_pair_text(result)
    assert serialize_result(result) + "".join(_pair_chunks(result)) == text
    size = rng.randrange(1, 40)
    monkeypatch.setattr(formats, "_PAIR_CHUNK", size)
    chunks = list(_pair_chunks(result))
    assert serialize_result(result) + "".join(chunks) == text
    assert all(len(chunk) >= size for chunk in chunks[:-1])


def test_parse_relation(f2):
    pairs = parse_relation("0 0\n3 0\n3 0\n# dup ignored\n", f2)
    assert pairs == {(0, 0), (3, 0)}
    assert parse_relation("\u3000\n0 0\x0c3 0\x85\u2028 \n3 0", f2) == pairs
    assert parse_relation("", f2) == set()
    with pytest.raises(ParseError, match="dangling state id"):
        parse_relation("0 7\n", f2)
    with pytest.raises(ParseError):
        parse_relation("0 1 2\n", f2)


def test_parse_relation_is_a_read_only_set_view(f2):
    pairs = parse_relation("3 0\n0 0\n3 0  # dup\n1 1\n# note\n0 0\n4 4\n", f2)
    expected = {(0, 0), (1, 1), (3, 0), (4, 4)}
    assert len(pairs) == len(expected)  # distinct pairs
    assert list(pairs) == sorted(expected)
    assert pairs == expected and expected == pairs and not pairs != expected
    assert pairs != expected - {(4, 4)} and expected - {(4, 4)} != pairs
    assert isinstance(pairs, collections.abc.Set) and not isinstance(pairs, set)
    assert (3, 0) in pairs and (0, 3) not in pairs
    outside = [(-1, 0), (0, -1), (0, 5), (5, 0), (0,), (0, 0, 0), "ab", (0.0, 0),
               (0, 0.0), ([0], 0), (0, [0]), None]
    assert not any(p in pairs for p in outside)
    extra = {(2, 2)}
    assert pairs | extra == expected | extra and type(pairs | extra) is set
    assert pairs - {(0, 0)} == expected - {(0, 0)} and pairs <= expected
    # A set of ints iterates by hash slot: {1, 32} gives 32 first.
    wide = parse_relation("0 32\n0 1\n33 1\n", KripkeStructure(40, [], [[]] * 40))
    assert list(wide) == [(0, 1), (0, 32), (33, 1)]
    # A result's pair view (a row per block) and the relation parsed
    # from its pairs (a row per state) are both read by rows.
    result = compute_preorder(f2)
    text = "".join(f"{x} {y}\n" for x, y in result.state_pairs())
    verdict = check_preorder(f2, result.state_pairs())
    assert verdict == check_preorder(f2, parse_relation(text, f2)) == (True, None, None, None)


def test_generate_deterministic():
    a = generate_random_ks(42, 7, 0.3, 3)
    b = generate_random_ks(42, 7, 0.3, 3)
    assert a == b
    c = generate_random_ks(43, 7, 0.3, 3)
    assert a != c


def test_generate_density_zero_and_single_label():
    k = generate_random_ks(1, 6, 0.0, 4)
    assert k.transitions == []
    k1 = generate_random_ks(2, 6, 0.5, 1)
    assert len(labeling_partition(k1)) == 1


def test_generate_validates_parameters():
    with pytest.raises(ValidationError):
        generate_random_ks(0, 0, 0.5, 1)
    with pytest.raises(ValidationError):
        generate_random_ks(0, 3, 1.5, 1)
    with pytest.raises(ValidationError):
        generate_random_ks(0, 3, 0.5, 0)


_HEAD = "states 1\nlabel 0 p\n"
_HEAD5 = "states 5\n" + "".join(f"label {s}\n" for s in range(5))


@pytest.mark.parametrize(
    "text, relation_states, message, line, column",
    [
        ("", None, "empty model file", 1, 1),
        ("# only a comment\n\n", None, "empty model file", 1, 1),
        ("  labels 3\n", None, "expected 'states <N>'", 1, 3),
        ("states 2 3\n", None, "expected 'states <N>'", 1, 1),
        ("# header\n\tstates x\n", None, "expected a state count, got 'x'", 2, 9),
        ("states -1\n", None, "state count must be >= 0", 1, 8),
        ("states 2\nlabel 0 p\n", None, "expected 2 label lines", 2, 1),
        ("states 1\n  lbl 0 p\n", None, "expected 'label <id> <atom>*'", 2, 3),
        ("states 1\nlabel\n", None, "expected 'label <id> <atom>*'", 2, 1),
        ("states 1\nlabel x p\n", None, "expected a state id, got 'x'", 2, 7),
        ("states 1\nlabel 1 p\n", None, "dangling state id 1", 2, 7),
        ("states 2\nlabel 0 p\nlabel  0 q\n", None,
         "duplicate state declaration 0", 3, 8),
        ("states 1\nlabel 0 p p9 9p\n", None, "invalid atom '9p'", 2, 14),
        ("states 1\nlabel 0 p 0\n", None, "invalid atom '0'", 2, 11),
        ("states 1\nlabel 0 p0 0\n", None, "invalid atom '0'", 2, 12),
        ("states 1\r\nlabel 0 9p\r\n", None, "invalid atom '9p'", 2, 9),
        (_HEAD, None, "expected 'transitions <M>'", 2, 1),
        (_HEAD + " trans 0\n", None, "expected 'transitions <M>'", 3, 2),
        (_HEAD + "transitions many\n", None,
         "expected a transition count, got 'many'", 3, 13),
        (_HEAD + "transitions -2\n", None, "transition count must be >= 0", 3, 13),
        (_HEAD + "transitions 2\n0 0\n", None, "expected 2 transition lines", 4, 1),
        (_HEAD + "transitions 1\n0 0 0\n", None, "expected '<src> <dst>'", 4, 1),
        (_HEAD + "transitions 1\n\t a 0\n", None, "expected a state id, got 'a'", 4, 3),
        (_HEAD + "transitions 1\n0 b\n", None, "expected a state id, got 'b'", 4, 3),
        (_HEAD5 + "transitions 1\n5 5\n", None, "dangling state id 5", 8, 1),
        (_HEAD5 + "transitions 1\n0  5\n", None, "dangling state id 5", 8, 4),
        (_HEAD + "transitions 0\n0 0  # trailing\n", None,
         "unexpected content after transitions", 4, 1),
        # A huge count fails on the missing lines, allocating nothing.
        ("states 100000000000000\nlabel 0 p\n", None,
         "expected 100000000000000 label lines", 2, 1),
        (_HEAD + "transitions 100000000000000\n0 0\n", None,
         "expected 100000000000000 transition lines", 4, 1),
        # Errors among the lines of a huge count come first, allocating nothing.
        ("states 100000000000000\nlabel 7 p\nlabel 7 q\n", None,
         "duplicate state declaration 7", 3, 7),
        ("states 100000000000000\nlabel 99999999999999 p\nlabel x q\n", None,
         "expected a state id, got 'x'", 3, 7),
        # The first error in the file wins, whatever kind of check finds it.
        (_HEAD + "transitions 2\n0\n0 0 0\n", None, "expected '<src> <dst>'", 4, 1),
        ("states 2\nlabel 1 p\nlabel 1 q\ntransitions 0\n", None,
         "duplicate state declaration 1", 3, 7),
        ("states 2\nlabel 0 9p\nlabel 5 p\ntransitions 0\n", None,
         "invalid atom '9p'", 2, 9),
        ("states 2\nlabel 5 p\nlabel 0 9p\ntransitions 0\n", None,
         "dangling state id 5", 2, 7),
        (_HEAD5 + "transitions 2\n0 x\n1 2 3\n", None,
         "expected a state id, got 'x'", 8, 3),
        (_HEAD5 + "transitions 2\n1 2 3\n0 x\n", None, "expected '<src> <dst>'", 8, 1),
        (_HEAD5 + "transitions 2\n0 9\n0 x\n", None, "dangling state id 9", 8, 3),
        # Both ids of a line are read before either is range-checked.
        (_HEAD5 + "transitions 1\n9 x\n", None, "expected a state id, got 'x'", 8, 3),
        ("5 x\n", 3, "expected a state id, got 'x'", 1, 3),
        # Complete files failing one check of the model parse.
        ("states 3\nlabel 0 p\nlabel 2 q\nlabel 0 r\ntransitions 0\n", None,
         "duplicate state declaration 0", 4, 7),
        ("states 2\nlabel 0 p\nlabel 2 q\ntransitions 0\n", None,
         "dangling state id 2", 3, 7),
        ("states 2\nlabel 0 p\nlabel -1 q\ntransitions 0\n", None,
         "dangling state id -1", 3, 7),
        ("states 2\nlabel 0 p\nlbl 1 q\ntransitions 0\n", None,
         "expected 'label <id> <atom>*'", 3, 1),
        ("states 2\nlbl x q\nlabel 1 q\ntransitions 0\n", None,
         "expected 'label <id> <atom>*'", 2, 1),
        (_HEAD5 + "transitions 2\n0 1\n-1 0\n", None, "dangling state id -1", 9, 1),
        (_HEAD5 + "transitions 2\n0 1\n0 -2\n", None, "dangling state id -2", 9, 3),
        (_HEAD5 + "transitions 2\n0 1\n4  7\n", None, "dangling state id 7", 9, 4),
        # Comment-only and blank lines inside the sections.
        ("# c\n\nstates 2\n# labels\nlabel 0 p\n\nlabel 0 q\n", None,
         "duplicate state declaration 0", 7, 7),
        ("states 3\nlabel 0 p\n# gap\n\nlabel 1 p\n", None,
         "expected 3 label lines", 5, 1),
        (_HEAD + "# c\n\n", None, "expected 'transitions <M>'", 2, 1),
        (_HEAD + "\n# edges\ntransitions 2\n\n0 0\n  # x\n", None,
         "expected 2 transition lines", 7, 1),
        (_HEAD + "transitions 1\n# c\n\n 0 y # z\n", None,
         "expected a state id, got 'y'", 6, 4),
        ("0 0\n1 2 0\n", 3, "expected '<u> <v>'", 2, 1),
        ("7\n", 3, "expected '<u> <v>'", 1, 1),
        ("# c\n  u 0\n", 3, "expected a state id, got 'u'", 2, 3),
        ("0\tv\n", 3, "expected a state id, got 'v'", 1, 3),
        ("3 0\n", 3, "dangling state id 3", 1, 1),
        ("0 \t 3\n", 3, "dangling state id 3", 1, 5),
        ("5 5\n", 3, "dangling state id 5", 1, 1),
        ("0\n0 0 0\n", 3, "expected '<u> <v>'", 1, 1),
        ("0 x\n1 2 3\n", 3, "expected a state id, got 'x'", 1, 3),
        ("1 2 3\n0 x\n", 3, "expected '<u> <v>'", 1, 1),
        ("0 9\n0 x\n", 3, "dangling state id 9", 1, 3),
        ("# c\n\n0 1\n  # d\n\n2 x\n", 3, "expected a state id, got 'x'", 6, 3),
        ("0 1\n\n# c\n1 3 # far\n", 3, "dangling state id 3", 4, 3),
        # Lines of Unicode whitespace only are blank in every section, and
        # every line break of ``str.splitlines`` ends a line ("\x0c" is both).
        ("\u3000\n\x0c\nstates x\n", None, "expected a state count, got 'x'", 4, 8),
        ("states 2\n\u3000\nlabel 0 p\n \x0c \nlabel 0 q\n", None,
         "duplicate state declaration 0", 6, 7),
        ("states 3\nlabel 0 p\n\u3000\nlabel 1 p\n\x0c\n", None,
         "expected 3 label lines", 4, 1),
        (_HEAD + "\u3000\ntransitions 1\n\x0c\n\u3000 \n0 x\n", None,
         "expected a state id, got 'x'", 8, 3),
        (_HEAD + "transitions 2\n\u3000\n0 0\n\x0c\n", None,
         "expected 2 transition lines", 5, 1),
        ("\x85states 2\x85label 0 p\u2028label 0 q\x85", None,
         "duplicate state declaration 0", 4, 7),
        ("states 1\u2028label 0 9p\x85", None, "invalid atom '9p'", 2, 9),
        (_HEAD + "transitions 1\x85\u2028 0 x\u2028", None,
         "expected a state id, got 'x'", 5, 4),
        (_HEAD + "transitions 2\x850 0\u2028", None, "expected 2 transition lines", 4, 1),
        ("0 1\n\u3000\n\x0c\n2 x\n", 3, "expected a state id, got 'x'", 5, 3),
        ("\u3000\n0 1\x850 0\u2028 3 0\n", 3, "dangling state id 3", 4, 2),
        ("0 1\x85\u2028\x0c1 3\n", 3, "dangling state id 3", 4, 3),
        # Ids and counts are ASCII decimals: the '+', '_' and non-ASCII
        # digits that int() also reads are errors; '-' keeps its messages.
        ("states +1\n", None, "expected a state count, got '+1'", 1, 8),
        ("states \uff11\n", None, "expected a state count, got '\uff11'", 1, 8),
        (_HEAD + "transitions 1_0\n", None,
         "expected a transition count, got '1_0'", 3, 13),
        ("states 2\nlabel 0 p\nlabel +1 q\ntransitions 0\n", None,
         "expected a state id, got '+1'", 3, 7),
        ("states 2\nlabel \uff11 p\nlabel 1 q\ntransitions 0\n", None,
         "expected a state id, got '\uff11'", 2, 7),
        ("states 11\nlabel 1_0 p\n", None, "expected a state id, got '1_0'", 2, 7),
        ("states 2\nlabel 0 p_q\nlabel -1 q\n", None, "dangling state id -1", 3, 7),
        (_HEAD5 + "transitions 1\n0 +4\n", None, "expected a state id, got '+4'", 8, 3),
        (_HEAD5 + "transitions 1\n\u0663 0\n", None,
         "expected a state id, got '\u0663'", 8, 1),
        (_HEAD + "transitions 1\n0 -1 # \u00e9\n", None, "dangling state id -1", 4, 3),
        ("0 1\n+2 0\n", 3, "expected a state id, got '+2'", 2, 1),
        ("0 0_1\n", 3, "expected a state id, got '0_1'", 1, 3),
        ("\uff11 0\n", 3, "expected a state id, got '\uff11'", 1, 1),
    ],
)
def test_parse_error_positions(text, relation_states, message, line, column):
    """Every raise site of ``parse_ks`` and ``parse_relation`` reports
    its message at the offending token's line and 1-based column."""
    with pytest.raises(ParseError) as exc:
        if relation_states is None:
            parse_ks(text)
        else:
            n = relation_states
            parse_relation(text, KripkeStructure(n, [], [[]] * n))
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
