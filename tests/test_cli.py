import gc
import importlib
import json
import subprocess
import sys

import pytest

import stuttersim
import stuttersim.cli
from stuttersim import (
    compute_preorder,
    generate_random_ks,
    parse_ks,
    quotient,
    serialize_ks,
    serialize_result,
)
from stuttersim.cli import cli_main
from stuttersim.formats import _pair_lines

from conftest import child_env, stutter_chain

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

F2_TEXT = """\
states 5
label 0 p
label 1 q
label 2 r
label 3 p
label 4 q
transitions 3
0 1
0 2
3 4
"""

# Several atoms per state, listed in varying order.
MULTI_ATOM_TEXT = """\
states 7
label 0 p q r
label 1 r q p
label 2 q r p
label 3 s t u
label 4 u t s
label 5 r p q
label 6 q p
transitions 6
0 1
1 3
2 4
2 6
5 0
5 4
"""


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.ks"
    path.write_text(F1_TEXT)
    return str(path)


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.ks"
    path.write_text(F2_TEXT)
    return str(path)


def test_compute_preorder_emit(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--emit", "preorder"]) == 0
    out = capsys.readouterr().out
    assert "leq 3 0" in out
    assert out == "block 0: 0\nblock 1: 1 4\nblock 2: 2\nblock 3: 3\nleq 3 0\n"


def test_compute_partition_emit(f1_file, capsys):
    assert cli_main(["compute", f1_file, "--emit", "partition"]) == 0
    assert capsys.readouterr().out == "block 0: 0 1 2\nblock 1: 3 4\n"


def test_compute_quotient_emit(f1_file, capsys):
    assert cli_main(["compute", f1_file, "--emit", "quotient"]) == 0
    out = capsys.readouterr().out
    q = parse_ks(out)
    assert q.num_states == 2
    assert q.transitions == [(0, 0), (0, 1)]


@pytest.mark.parametrize("seed", range(16))
def test_compute_quotient_matches_validated_quotient(seed, tmp_path, capsys):
    """The CLI lifts the engine's own partition without validating it
    again; it writes what the validating ``quotient`` gives."""
    if seed == 0:
        k = stutter_chain(20)
    else:
        k = generate_random_ks(seed, 4 + 2 * seed, 0.15, 1 + seed % 3)
    path = tmp_path / "model.ks"
    path.write_text(serialize_ks(k))
    assert cli_main(["compute", str(path), "--emit", "quotient"]) == 0
    expected = serialize_ks(quotient(k, compute_preorder(k).blocks))
    assert capsys.readouterr().out == expected


def test_compute_all_emit(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--emit", "all"]) == 0
    out = capsys.readouterr().out
    assert "leq 3 0" in out and "# quotient" in out and "states 4" in out


def test_compute_full_flag(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--full"]) == 0
    out = capsys.readouterr().out
    assert "pair 3 0" in out and "pair 4 1" in out


# A p-cycle {0, 1} that collapses, a p-state 2 stuttering-equivalent
# to it, and a q-sink: fewer blocks than states.
CYCLE_TEXT = """\
states 4
label 0 p
label 1 p
label 2 p
label 3 q
transitions 4
0 1
1 0
1 2
2 3
"""


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("emit", ["partition", "preorder", "quotient", "all"])
@pytest.mark.parametrize("text", [F2_TEXT, CYCLE_TEXT], ids=["f2", "cycle"])
def test_compute_stdout_layout(text, emit, full, tmp_path, capsys):
    """``compute`` writes the library's texts in this order and nothing
    else; ``--full`` adds the pair lines to ``preorder`` and ``all`` only."""
    path = tmp_path / "model.ks"
    path.write_text(text)
    k = parse_ks(text)
    result = compute_preorder(k)
    pairs = "".join(_pair_lines(result)) if full else ""
    expected = {
        "partition": "".join(
            f"block {i}: " + " ".join(map(str, ms)) + "\n"
            for i, ms in enumerate(result.blocks)
        ),
        "preorder": serialize_result(result) + pairs,
        "quotient": serialize_ks(quotient(k, result.blocks)),
    }
    expected["all"] = expected["preorder"] + "# quotient\n" + expected["quotient"]
    assert cli_main(["compute", str(path), "--emit", emit] + ["--full"] * full) == 0
    assert capsys.readouterr().out == expected[emit]


def test_compute_oracle_agrees(f1_file):
    assert cli_main(["compute", f1_file, "--oracle"]) == 0


def test_compute_trace(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--trace"]) == 0
    err = capsys.readouterr().err
    assert "iteration 1" in err


def test_compute_stats(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--emit", "all", "--full"]) == 0
    plain = capsys.readouterr().out
    assert cli_main(["compute", f2_file, "--emit", "all", "--full", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert captured.err == (
        '{"iterations": 1, "blocks_created": 2, "initial_blocks": 3, '
        '"final_blocks": 4, "targets_visited": 3, "pairs_tested": 3, '
        '"states_scanned": 2, "edges_counted": 3}\n'
    )
    assert json.loads(captured.err) == {
        "iterations": 1,
        "blocks_created": 2,
        "initial_blocks": 3,
        "final_blocks": 4,
        "targets_visited": 3,
        "pairs_tested": 3,
        "states_scanned": 2,
        "edges_counted": 3,
    }


def test_compute_deterministic_output(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--emit", "all", "--full"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["compute", f2_file, "--emit", "all", "--full"]) == 0
    assert capsys.readouterr().out == first


def test_compute_byte_identical_across_processes(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "stuttersim", "generate", "--states", "9",
         "--density", "0.35", "--labels", "3", "--seed", "123"],
        capture_output=True, text=True, env=child_env(),
    )
    assert gen.returncode == 0, gen.stderr
    # The generated model has one atom per state; the multi-atom one gives
    # the hash seed sets of atoms whose order it can change.
    for name, text in (("generated", gen.stdout), ("multi_atom", MULTI_ATOM_TEXT)):
        model = tmp_path / f"{name}.ks"
        model.write_text(text)
        outputs = []
        for hashseed in ("1", "2"):  # vary hash randomization between runs
            proc = subprocess.run(
                [sys.executable, "-m", "stuttersim", "compute", str(model),
                 "--emit", "all", "--full"],
                capture_output=True, env=child_env(hashseed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], name


def test_quotient_recompute_is_discrete(f2_file, capsys, tmp_path):
    assert cli_main(["compute", f2_file, "--emit", "quotient"]) == 0
    qtext = capsys.readouterr().out
    q = parse_ks(qtext)
    reduced = compute_preorder(q)
    assert all(len(b) == 1 for b in reduced.blocks)
    assert len(reduced.blocks) == q.num_states == 4


def test_check_accepts_computed_relation(f2_file, tmp_path, capsys):
    k = parse_ks(F2_TEXT)
    pairs = sorted(compute_preorder(k).state_pairs())
    rel = tmp_path / "good.rel"
    rel.write_text("".join(f"{u} {v}\n" for u, v in pairs))
    assert cli_main(["check", f2_file, "--relation", str(rel)]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_check_rejects_label_closure(f2_file, tmp_path, capsys):
    k = parse_ks(F2_TEXT)
    pairs = [
        (s, t)
        for s in range(5)
        for t in range(5)
        if k.labels[s] == k.labels[t]
    ]
    rel = tmp_path / "labelclosure.rel"
    rel.write_text("".join(f"{u} {v}\n" for u, v in pairs))
    assert cli_main(["check", f2_file, "--relation", str(rel)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rejected\n")
    assert "{0 3}" in out and "{2}" in out


def test_check_definition_flag(f2_file, tmp_path, capsys):
    rel = tmp_path / "empty.rel"
    rel.write_text("")
    assert cli_main(["check", f2_file, "--relation", str(rel), "--definition"]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_check_non_preorder_falls_back(f2_file, tmp_path, capsys):
    rel = tmp_path / "partial.rel"
    rel.write_text("3 0\n")  # not reflexive: routed to the definitional check
    code = cli_main(["check", f2_file, "--relation", str(rel)])
    captured = capsys.readouterr()
    assert "falling back" in captured.err
    assert code == 1 and captured.out.startswith("rejected")


F2_IDENT = "".join(f"{s} {s}\n" for s in range(5))
NOTE_NOT_REFLEXIVE = (
    "note: relation is not reflexive (witness pair (0, 0)); "
    "falling back to the definitional check\n"
)


@pytest.mark.parametrize(
    "relation, flags, out, err",
    [
        (F2_IDENT + "0 3\n", ["--definition"],
         "rejected\nwitness: move 0 -> 1 cannot be matched from candidate 3\n", ""),
        (F2_IDENT + "0 1\n", ["--definition"],
         "rejected\nwitness: related states 0 1 have different labels\n", ""),
        ("3 0\n", [],
         "rejected\nwitness: move 3 -> 4 cannot be matched from candidate 0\n",
         NOTE_NOT_REFLEXIVE),
        (F2_IDENT + "0 3\n", [],
         "rejected\nwitness: block {0} steps into block {1} but candidate state 3 cannot follow\n",
         ""),
    ],
    ids=["definition-move", "definition-label", "fallback-move", "fast-path-block"],
)
def test_check_witness_lines(f2_file, tmp_path, capsys, relation, flags, out, err):
    """Every witness line, whichever route printed it."""
    rel = tmp_path / "witness.rel"
    rel.write_text(relation)
    assert cli_main(["check", f2_file, "--relation", str(rel), *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_generate_round_trips(capsys):
    assert (
        cli_main(
            ["generate", "--states", "6", "--density", "0.3", "--labels", "2", "--seed", "9"]
        )
        == 0
    )
    out = capsys.readouterr().out
    k = parse_ks(out)
    assert k.num_states == 6


def test_generate_rejects_bad_parameters(capsys):
    code = cli_main(
        ["generate", "--states", "0", "--density", "0.3", "--labels", "2", "--seed", "1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ks"
    bad.write_text("states x\n")
    assert cli_main(["compute", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_huge_state_count_exit_code(tmp_path, capsys):
    """A header larger than memory is a parse error, not a crash."""
    bad = tmp_path / "huge.ks"
    bad.write_text("states 100000000000000\nlabel 0 p\n")
    assert cli_main(["compute", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 1: expected 100000000000000 label lines" in err


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_gc_as_found(f2_file, capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli_main(["compute", f2_file]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_main_runs_without_cyclic_gc(f2_file, capsys, monkeypatch):
    """The process entry point turns the cyclic collector off."""
    was = gc.isenabled()
    gc.enable()
    monkeypatch.setattr(sys, "argv", ["stuttersim", "compute", f2_file])
    try:
        with pytest.raises(SystemExit) as exc:
            stuttersim.cli.main()
        assert exc.value.code == 0
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_missing_file_exit_code(capsys):
    assert cli_main(["compute", "/nonexistent/model.ks"]) == 2


def test_non_utf8_model_exit_code(tmp_path, capsys):
    """A file that is not UTF-8 is an input error, not a rejection."""
    bad = tmp_path / "bad.ks"
    bad.write_bytes(b"states 1\n\xff\n")
    assert cli_main(["compute", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode")
    assert err.endswith(f"({bad}, line 2)\n")


def test_non_utf8_relation_exit_code(tmp_path, f2_file, capsys):
    bad = tmp_path / "bad.rel"
    bad.write_bytes(b"0 0\n\xff\n")
    assert cli_main(["check", f2_file, "--relation", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 'utf-8' codec can't decode")
    assert captured.err.endswith(f"({bad}, line 2)\n")
    assert captured.out == ""


def test_usage_error_exit_code(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2


# -- what each command loads ----------------------------------------------

# ``python -m stuttersim`` that reports, on its last stderr line, every
# module loaded when it exits.
LOADS_MAIN = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nmodules " + " ".join(sys.modules) + "\\n"))
sys.argv[0] = "stuttersim"
runpy.run_module("stuttersim", run_name="__main__", alter_sys=True)
"""

# Modules that a command must not load: each one costs its import, and,
# with no bytecode cache, its compilation.
NOT_FOR_COMPUTE = {
    "stuttersim.checker", "stuttersim.reference", "stuttersim.selftest",
    "stuttersim.invariants", "dataclasses",
}
NOT_FOR_CHECK = {
    "stuttersim.engine", "stuttersim.reference", "stuttersim.selftest", "dataclasses",
    "inspect",
}


def _loaded_by(*argv: str) -> tuple[int, set[str]]:
    """Exit code of a fresh ``python -m stuttersim`` run and the modules it
    loaded beyond those of a bare interpreter in the same environment."""
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_MAIN, *argv],
        capture_output=True, text=True, env=child_env(),
    )
    last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
    assert last.startswith("modules "), proc.stderr
    return proc.returncode, set(last.split()[1:]) - set(bare.stdout.split())


@pytest.fixture
def f2_relations(tmp_path):
    """Relation files on F2: its preorder, the empty relation, and one
    that is not a preorder."""
    good = tmp_path / "good.rel"
    good.write_text(
        "".join(f"{u} {v}\n" for u, v in sorted(compute_preorder(parse_ks(F2_TEXT)).state_pairs()))
    )
    empty = tmp_path / "empty.rel"
    empty.write_text("")
    partial = tmp_path / "partial.rel"
    partial.write_text("3 0\n")
    return str(good), str(empty), str(partial)


def test_compute_loads_no_checker_reference_or_dataclasses(f2_file):
    code, loaded = _loaded_by("compute", f2_file, "--emit", "all", "--full", "--stats")
    assert code == 0
    assert "stuttersim.engine" in loaded
    assert sorted(loaded & NOT_FOR_COMPUTE) == []


def test_only_debug_mode_loads_the_invariant_checks(monkeypatch):
    monkeypatch.delitem(sys.modules, "stuttersim.invariants", raising=False)
    k = parse_ks(F2_TEXT)
    compute_preorder(k)
    assert "stuttersim.invariants" not in sys.modules
    compute_preorder(k, debug=True)
    assert "stuttersim.invariants" in sys.modules


def test_check_loads_no_engine_reference_or_dataclasses(f2_file, f2_relations):
    code, loaded = _loaded_by("check", f2_file, "--relation", f2_relations[0])
    assert code == 0
    assert "stuttersim.checker" in loaded
    assert sorted(loaded & NOT_FOR_CHECK) == []


def test_generate_loads_neither_procedure():
    code, loaded = _loaded_by(
        "generate", "--states", "6", "--density", "0.3", "--labels", "2", "--seed", "9"
    )
    assert code == 0
    assert sorted(loaded & (NOT_FOR_COMPUTE | NOT_FOR_CHECK)) == []


@pytest.mark.parametrize(
    "argv, code, module",
    [
        (["selftest"], 0, "stuttersim.selftest"),
        (["compute", "{model}", "--oracle"], 0, "stuttersim.reference"),
        (["check", "{model}", "--relation", "{empty}", "--definition"], 0, "stuttersim.reference"),
        (["check", "{model}", "--relation", "{partial}"], 1, "stuttersim.reference"),
    ],
    ids=["selftest", "oracle", "definition", "not-a-preorder-fallback"],
)
def test_rarer_routes_load_their_modules(f2_file, f2_relations, argv, code, module):
    _, empty, partial = f2_relations
    argv = [a.format(model=f2_file, empty=empty, partial=partial) for a in argv]
    got, loaded = _loaded_by(*argv)
    assert got == code
    assert module in loaded


# -- names that callers patch ---------------------------------------------

# ``bench/layers.py`` wraps these module attributes by name to time the
# program's layers; renaming one hides its layer.
PATCH_POINTS = {
    "stuttersim.cli": [
        "cli_main", "parse_ks", "parse_relation", "serialize_result", "serialize_ks",
        "quotient", "compute_preorder", "check_preorder",
    ],
    "stuttersim.checker": ["_validate_relation", "_sink_components"],
    "stuttersim.engine": ["collapse_inert_sccs", "sort_states_locally_topological"],
}


@pytest.mark.parametrize("module", sorted(PATCH_POINTS))
def test_patch_points_exist(module):
    mod = importlib.import_module(module)
    for name in PATCH_POINTS[module]:
        assert callable(mod.__dict__.get(name)), f"{module}.{name}"


def test_patched_procedures_intercept_cli_main(f2_file, f2_relations, capsys, monkeypatch):
    seen = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)

        return wrapped

    cli = stuttersim.cli
    monkeypatch.setattr(cli, "compute_preorder", spy("compute", cli.compute_preorder))
    monkeypatch.setattr(cli, "check_preorder", spy("check", cli.check_preorder))
    assert cli_main(["compute", f2_file]) == 0
    assert cli_main(["check", f2_file, "--relation", f2_relations[0]]) == 0
    assert seen == ["compute", "check"]
