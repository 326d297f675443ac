from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from floc.cli import main

from conftest import CORPUS_NAMES, corpus_path
from mclgen import straight_line_source


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


def test_workers_is_an_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["localize", str(corpus_path("max")), "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["nan", "0"])
def test_non_positive_or_nan_timeout_exit_two(capsys, timeout):
    code, out, err = run(capsys, "verify", str(corpus_path("max")), "--timeout", timeout)
    assert code == 2
    assert out == ""
    assert err.startswith("floc: error:") and "timeout" in err


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


def test_non_utf8_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mcl"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert err.startswith("floc: error: ")
    assert "utf-8" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digit_exit_two(tmp_path, capsys, digit):
    bad = tmp_path / "bad.mcl"
    bad.write_text(f"int f() {{ return {digit}; }}", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "unexpected character" in err


@pytest.mark.parametrize(
    "source",
    [
        "int f(int a) { return " + "(" * 600 + "a" + ")" * 600 + "; }",  # the parser recurses
        straight_line_source(600, fails_at=3),  # the weakest precondition nests about 1200 deep
    ],
    ids=["600-parentheses", "600-statements"],
)
def test_input_nested_too_deeply_exit_two(tmp_path, capsys, source):
    deep = tmp_path / "deep.mcl"
    deep.write_text(source)
    code, out, err = run(capsys, "verify", str(deep))
    assert (code, out) == (2, "")
    assert err == f"floc: error: {deep}: input nested too deeply to analyse\n"


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


# sha256 of the stdout of each command on each corpus file.  The solver runs at
# a small bound so that the whole table takes about a second.
GOLDEN_BOUND = "3"
GOLDEN_ARGS = {
    "dump-vc": ("dump-vc",),
    "dump-normalized": ("dump-normalized",),
    "list-candidates": ("list-candidates",),
    "verify": ("verify", "--format", "json", "--bound", GOLDEN_BOUND),
    "localize": ("localize", "--format", "json", "--bound", GOLDEN_BOUND),
    "localize-conjunction": (
        "localize", "--format", "json", "--bound", GOLDEN_BOUND, "--mode", "conjunction",
    ),
}
GOLDEN_SHA256 = {
    ("max", "dump-vc"): "ef650c6b5a8e0c886415132cfe6e1ec70808d6e658d6d2fd0f5f1c25d9f430c3",
    ("max", "dump-normalized"): "703798a9bfd7a022baf0f0dc4f6dad2951a9e8625a743fbe47c7b52359f4a692",
    ("max", "list-candidates"): "220a1c4b2175aff6903c5d095ba12e99325b8f5043a08fa0b8a59280ed683090",
    ("max", "verify"): "2bb1f2e4d67daaa41e7b0cf5b5bf3a76619c2ef5c9369695ab9be22198a53cc8",
    ("max", "localize"): "25324b4c4fc2b1ec9ee9ab4c261641efd0c6d25c201c4a8bdd2c2c1bfc1abbbf",
    ("max", "localize-conjunction"): "c3be09ca0474af4ec1982cf1a1cf8e97ae5bfb4fec8ec8e79958776d4de36005",
    ("max_fixed", "dump-vc"): "0e01621239c04a76f6d1ed6f95f5cef773fd0716eb8bbcf86dc3040acdaa8a52",
    ("max_fixed", "dump-normalized"): "d3870c152aa3c0aea64b5e2915463a73ee3367a1effcca314d41493d2cb6faab",
    ("max_fixed", "list-candidates"): "ef221d70b06f975d2ac6dfb66ec3a23dfa8b6032ffa6eed6be17fbcfa2cbddee",
    ("max_fixed", "verify"): "c912e91be2415666e93f3c1d78efd4eb0797ab41d542f0e0cf25427bdaa91bbb",
    ("max_fixed", "localize"): "0a73a2d7ec2c62ad69b949d2d1f72c36b44e208471045d9f71a9b01cb6c466c8",
    ("max_fixed", "localize-conjunction"): "a5042c8b9512787cf146a2fe0fbb362364495462784d1b3306661aac83ee1158",
    ("tcas_v7", "dump-vc"): "9e22210c78743c5338e44a8a3165a5765d327c122f8168360233c8f01db330b6",
    ("tcas_v7", "dump-normalized"): "b3f9a0adc301c9abb9fc3997b394abc5bdb69c3affbab18603f6c3d032131692",
    ("tcas_v7", "list-candidates"): "b2f73995699334dbcded936626a160a3762450c5f097a04a3a0ed2d1cd1fda90",
    ("tcas_v7", "verify"): "e9c77b6e0c04f0a62bf3e6702b556a7a3d3c841b9c6da38d2d2255c2a7a1fdcf",
    ("tcas_v7", "localize"): "d96bbd8c13d40c4e90388cdeb65e84d213ee798dc7c5675226d41fe4ef07eae0",
    ("tcas_v7", "localize-conjunction"): "66f1d895eac8bbebd7685bc1568e8f4b2551d1f6edaadc86a9234a6151bfb7d7",
    ("tcas_v9", "dump-vc"): "43d0cc130929a2d62f36e7047b9298da1d04b3df3f5c86e6450ab04d00b6856b",
    ("tcas_v9", "dump-normalized"): "d55e449cdaa88e745c519bd97bafffcd2b55afbaa8e7b3b9592d4fe60e981e7f",
    ("tcas_v9", "list-candidates"): "213ef765a2166107b77d3ba24a6dd302d081fb1aa5814a0380a3e75df79cd890",
    ("tcas_v9", "verify"): "baa8b3f69ef3b52ecd117850b1a14076519f52b5eaebd7d869e3e23c9d91bcc1",
    ("tcas_v9", "localize"): "d3c01af4c1d81934df36b36580f914a1903375c0c0b3586b426f3d0b79417c4e",
    ("tcas_v9", "localize-conjunction"): "1b23bc4d7f3d1aa5f76397d454a6c980827f8c6dbb280cf45e58c466a88487bb",
    ("tcas_v14", "dump-vc"): "bcc31f5c9d24c204bb227ed6c25cc6777dc42b2f1c4c3ddcffa4be555b02bccf",
    ("tcas_v14", "dump-normalized"): "e6596fcbc206244c9603160589403071398d2db872123742002caeb6a5612231",
    ("tcas_v14", "list-candidates"): "bf0bfe2cf1e3376b1e6db4d871d5cb6761ce0fcbaa133aaf64579695eb31060c",
    ("tcas_v14", "verify"): "0c90b43b2b66464358557567761a46593604148a7e9bea092111668015a637ce",
    ("tcas_v14", "localize"): "6bb044e41cfa707d218c947d8e6b03445c5267447dc7f2af0093122cd8b09f15",
    ("tcas_v14", "localize-conjunction"): "586e2f8af95924bea0eb5ade128ab98aa067990df9822ea72e9a125bee6fb7e2",
    ("sum_upto", "dump-vc"): "87559dad51124637a5a18c6bdacc8b50d0e754aa170d61e43f233ca3accfe2b2",
    ("sum_upto", "dump-normalized"): "847da111a8e1f70c672409fb71be8fa1697ba894dd460532fee876f929a19a1f",
    ("sum_upto", "list-candidates"): "594c81f33b2a8ef422ef6805ead14437af2b3c7348b14a0b71bdd92274958952",
    ("sum_upto", "verify"): "6027291d217518b4eb66511a33504e75fd6f816b622d51b29bb07fb4464b92b7",
    ("sum_upto", "localize"): "6fd58e926b4e4002ddc691d3390b15d02f0509d80a13171ec760f9a74da99f68",
    ("sum_upto", "localize-conjunction"): "53b7e23bc6d374021a1a2879b10395e0b425385ee8010c01c57e4a221266af0c",
    ("int_division", "dump-vc"): "29d54e878698c76df6f14cb755e7f3443136b4500adc4183085713cf7a7e5e2a",
    ("int_division", "dump-normalized"): "c492f67de769e3657df12cc4d8fae220aae5494b181e4583674baf1fb68c0c7f",
    ("int_division", "list-candidates"): "f4f68d1b90b98e2ad2e6743ef6ba21c0cc7e87a1bb11b860205743672b158cc2",
    ("int_division", "verify"): "adca7548b86a21fbac1397806339921f35b61470edc98c35c14af3307ed65a70",
    ("int_division", "localize"): "7302aa8e92acb9431dbca295aecc79f5c97ad76d8f8e128db43f37f4ec5c2218",
    ("int_division", "localize-conjunction"): "29bd9b7f6ee85671f33ff91aa6f59c7be5edc9078c8daea647a565fc08047322",
    ("countdown", "dump-vc"): "42ce6578e373bc7596705fff312751700d917944679ccbec0e6e391291d1cc61",
    ("countdown", "dump-normalized"): "a3310814765913dae11412e3eba51ca55892b73f19fad6ae562ea61712ec1a70",
    ("countdown", "list-candidates"): "fead0437ecad289e9a0c272efaf312662132e2dfcb43ed5fe6b4ac1efb1fa0b1",
    ("countdown", "verify"): "8cedcb535c9ed37e95eede27b43b02f172ed55d922201935c157ed7d451195a4",
    ("countdown", "localize"): "de009b01d280c02e5604b3129d05d6afe4c4337a7625c3f4764d4a16de2c0496",
    ("countdown", "localize-conjunction"): "27e4b604d0d2417fe8a123802d9a5c579d447a7b2ffdef338eecc9141932c606",
    ("counter", "dump-vc"): "283eed591e6e3d9922ec78a8262bf5b6450cf0a1280d5fb8d65cba1ef549d8d7",
    ("counter", "dump-normalized"): "f29f7c9f63e2f89f05286439c232d8bb065f94b0c2b4abd1a6925092a6caecf2",
    ("counter", "list-candidates"): "d6e346591aff4a5acff86c24e4f48c85975952cc5a0585f7898cc8bfa8a057a7",
    ("counter", "verify"): "5e7be7db36cd0073456557173a5a6e829b029743844af0e410915171720b3923",
    ("counter", "localize"): "80a8946bd68d59fbe20aeb27f488ecede7d599d84bacbada17b9288cb85f9804",
    ("counter", "localize-conjunction"): "96583655582ed0f9f7136f04b6c98fd25d0465c9357b0033a10c72696d4be3b1",
    ("straightline", "dump-vc"): "167dba0230f0abb99b4af0191434b0f1b5ca154899601fabde5f3bc610c32cfc",
    ("straightline", "dump-normalized"): "6fda2627a768b462d84ec11738a14130bb27479aa0f51ec00bb01d6f39de4955",
    ("straightline", "list-candidates"): "d4f78197de2adbdc476b285e0edd7cf08d7c903d6ddf633849024ef92a437828",
    ("straightline", "verify"): "e1b5ce01f614d961a37c0b244d2a701d064358aa5be5596b8035b4e370f3457b",
    ("straightline", "localize"): "b0a855c1b370752990f98cd1cd2a00abec018c5dead2e04f6b20f5ba53e90b8b",
    ("straightline", "localize-conjunction"): "515720d8e96b350e1a3e18d99d334d9ca56e5eb3e13687e5459eeeac4eb047ba",
}


def test_corpus_outputs_match_golden_sha256(capsys):
    assert {name for name, _ in GOLDEN_SHA256} == set(CORPUS_NAMES)
    changed = []
    for (name, key), want in GOLDEN_SHA256.items():
        command, *flags = GOLDEN_ARGS[key]
        _, out, _ = run(capsys, command, str(corpus_path(name)), *flags)
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != want:
            changed.append((name, key))
    assert not changed
