import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stuttersim
import stuttersim.cli
from stuttersim import compute_preorder, parse_ks
from stuttersim.cli import cli_main

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


def _child_env(hashseed=None):
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


def test_compute_all_emit(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--emit", "all"]) == 0
    out = capsys.readouterr().out
    assert "leq 3 0" in out and "# quotient" in out and "states 4" in out


def test_compute_full_flag(f2_file, capsys):
    assert cli_main(["compute", f2_file, "--full"]) == 0
    out = capsys.readouterr().out
    assert "pair 3 0" in out and "pair 4 1" in out


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
    assert json.loads(captured.err) == {
        "iterations": 1,
        "blocks_created": 2,
        "initial_blocks": 3,
        "final_blocks": 4,
        "targets_visited": 5,
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
        capture_output=True, text=True, env=_child_env(),
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
                capture_output=True, env=_child_env(hashseed),
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


def test_usage_error_exit_code(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2
