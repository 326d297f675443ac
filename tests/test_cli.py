from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from floc.cli import main

from conftest import corpus_path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", str(corpus_path("max_fixed")))
    assert code == 0
    assert "function max: Valid" in out


def test_verify_invalid_exit_one(capsys):
    code, out, _ = run(capsys, "verify", str(corpus_path("max")))
    assert code == 1
    assert "Invalid" in out


def test_localize_text_report(capsys):
    code, out, _ = run(capsys, "localize", str(corpus_path("max")), "--function", "max")
    assert code == 0  # localization completed
    assert "reports 2 potential error locations:" in out
    assert "a in line 5" in out
    assert "r in line 6" in out


def test_runs_as_a_module_without_install():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "floc", "verify", str(corpus_path("max"))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Invalid" in proc.stdout


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "localize", "missing.mcl")
    assert code == 2
    assert "missing.mcl" in err


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mcl"
    bad.write_text("int f() { return 1 + ; }")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "expected" in err


def test_type_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mcl"
    bad.write_text("int f() { bool b = 1; return 0; }")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "SortMismatch" in err


def test_unknown_function_exit_two(capsys):
    code, _, err = run(capsys, "verify", str(corpus_path("max")), "--function", "nope")
    assert code == 2
    assert "nope" in err


def test_json_round_trip_byte_identical(capsys):
    _, out, _ = run(capsys, "localize", str(corpus_path("max")), "--format", "json")
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2) == out.rstrip("\n")


def test_two_runs_byte_identical(capsys):
    args = ("localize", str(corpus_path("tcas_v9")), "--format", "json", "--bound", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_text_and_json_agree_on_reported_lines(capsys):
    _, text, _ = run(capsys, "localize", str(corpus_path("max")), "--function", "max")
    _, blob, _ = run(capsys, "localize", str(corpus_path("max")), "--function", "max", "--format", "json")
    data = json.loads(blob)[0]
    lines = [r["originalLine"] for r in data["reported"]]
    assert f"reports {len(lines)} potential error locations:" in text
    for line in lines:
        assert f"in line {line}" in text


def test_timings_flag_populates_json(capsys):
    _, blob, _ = run(
        capsys, "localize", str(corpus_path("max")), "--format", "json", "--timings"
    )
    data = json.loads(blob)[0]
    assert data["timings"]["totalSec"] > 0.0


def test_list_candidates_command(capsys):
    code, out, _ = run(capsys, "list-candidates", str(corpus_path("max")))
    assert code == 0
    assert "function max: 4 candidates" in out
    assert "C2  if-cond" in out


def test_dump_vc_command(capsys):
    code, out, _ = run(capsys, "dump-vc", str(corpus_path("max")))
    assert code == 0
    assert "max:PostHolds:0" in out
    assert "(((b > a) ==> (a >= b)) && ((b <= a) ==> (a >= b)))" in out


def test_dump_normalized_command(capsys):
    code, out, _ = run(capsys, "dump-normalized", str(corpus_path("tcas_v14")), "--function", "altSepTest")
    assert code == 0
    assert "tmp_2 = 600 + 50;" in out
    assert " 167 |" in out


def test_dump_flags_compose_with_localize(capsys):
    code, out, _ = run(
        capsys,
        "localize",
        str(corpus_path("max")),
        "--list-candidates",
        "--dump-vc",
        "--dump-normalized",
    )
    assert code == 0
    assert "function max: 4 candidates" in out
    assert "max:PostHolds:0" in out
    assert "reports 2 potential error locations:" in out


def test_mode_and_bound_flags(capsys):
    code, out, _ = run(
        capsys,
        "localize",
        str(corpus_path("tcas_v9")),
        "--function",
        "NonCrossBiasedDescend",
        "--bound",
        "2",
        "--mode",
        "conjunction",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)[0]
    assert data["mode"] == "conjunction"
    assert data["boundB"] == 2
    assert data["semantics"] == "bounded[-2,2]"


def test_placeholder_bound_flag(capsys):
    code, out, _ = run(
        capsys,
        "localize",
        str(corpus_path("tcas_v7")),
        "--placeholder-bound",
        "600",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)[0]
    assert [r["originalText"] for r in data["reported"]] == ["550"]


def test_prover_env_override(tmp_path, capsys, monkeypatch):
    import stat
    import sys

    stub = tmp_path / "prover.py"
    stub.write_text("print('unsat')")
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("FLOC_PROVER", f"{sys.executable} {stub}")
    code, out, _ = run(capsys, "verify", str(corpus_path("max_fixed")), "--solver", "external")
    assert code == 0
    assert "semantics: unbounded(prover)" in out


def test_bad_prover_command_exit_two(capsys, monkeypatch):
    monkeypatch.delenv("FLOC_PROVER", raising=False)
    code, _, err = run(
        capsys, "verify", str(corpus_path("max_fixed")), "--solver", "external"
    )
    assert code == 2
    assert "prover" in err
