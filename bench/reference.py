"""Reference answers and the checks that compare a job's report against them.

The verdicts and reported locations below are written by hand from the
README's corpus table and the acceptance suite, not taken from floc's output.
Mutant verdicts come from the concrete interpreter over the whole input box.
The sha256 pins in ``pins.json`` were taken from floc's own reports and only
catch byte drift; ``pin.py`` rewrites them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")

# The default --timeout, in seconds, that every job runs at but those below.
TIMEOUT_S = 10.0

# Jobs that run at another timeout, by job key.  The slowest query of
# tcas9-descend takes 6-9 s of the default 10 s on an idle 2-core machine and
# passes it when the machine is slow, so whether the job fails would depend
# on the load, not on floc.  It runs at three times the default instead, and
# its slowest query over the default is reported as ``timeout_margin``.
JOB_TIMEOUT_S = {"localize:tcas_v9:NonCrossBiasedDescend": 3 * TIMEOUT_S}

# Detection verdict of every corpus function at the default flags.
CORPUS_VERDICTS = {
    ("countdown", "countdown"): "Valid",
    ("counter", "bump"): "Invalid",
    ("int_division", "int_division"): "Valid",
    ("max", "max"): "Invalid",
    ("max_fixed", "max"): "Valid",
    ("straightline", "max2"): "Valid",
    ("straightline", "abs_val"): "Valid",
    ("straightline", "dist"): "Valid",
    ("straightline", "sign"): "Valid",
    ("straightline", "odd_succ"): "Valid",
    ("sum_upto", "next"): "Valid",
    ("sum_upto", "sum_upto"): "Valid",
    # the 600+50 fault lies outside [-8, 8], so the bounded verdict is Valid
    ("tcas_v14", "altSepTest"): "Valid",
    ("tcas_v7", "initialize"): "Invalid",
    ("tcas_v9", "InhibitBiasedClimb"): "Valid",
    ("tcas_v9", "NonCrossBiasedClimb"): "Valid",
    ("tcas_v9", "NonCrossBiasedDescend"): "Invalid",
}

# Functions the corpus documents as faulty.
KNOWN_FAULTY = frozenset(
    {
        ("max", "max"),
        ("counter", "bump"),
        ("tcas_v7", "initialize"),
        ("tcas_v9", "NonCrossBiasedDescend"),
        ("tcas_v14", "altSepTest"),
    }
)

# Reported locations of the fixed localize jobs, keyed by
# (stem, function, placeholder bound).  Each entry names the fields it fixes.
LOCALIZE_EXPECTED = {
    ("max", "max", None): {"reported": [(5, "a"), (6, "r")]},
    ("counter", "bump", 16): {"reported": [(10, "Counter + 2")]},
    ("tcas_v7", "initialize", 800): {"reported_texts": ["550"]},
    ("tcas_v9", "NonCrossBiasedDescend", None): {"reported_lines": [121, 122, 126]},
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict[str, str]:
    with PINS_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def verdicts(report: dict) -> list[str]:
    """Every verdict string in a localize or verify report."""
    if "detection" in report:
        out = [report["detection"]["verdict"]]
        out += [ob["verdict"] for ob in report["detection"]["obligations"]]
        for cand in report["candidates"]:
            out += [ob["verdict"] for ob in cand["obligations"]]
        return out
    return [report["verdict"]] + [ob["verdict"] for ob in report["obligations"]]


def timeouts(report: dict) -> int:
    return sum(v == "Unknown(timeout)" for v in verdicts(report))


def detection_verdict(report: dict) -> str:
    return report["detection"]["verdict"] if "detection" in report else report["verdict"]


def detection_witness(report: dict) -> dict | None:
    return report["detection"].get("witness") if "detection" in report else report.get("witness")


def _differs(got: list, want: list, partial: bool) -> bool:
    """A partial report may leave out expected entries but not add any."""
    if partial:
        return any(x not in want for x in got)
    return got != want


def check(report: dict, text: str, pin: str | None, expected: dict) -> list[str]:
    """The ways ``report`` (and its serialized ``text``) differ from the
    reference; an empty list means it matches.

    ``expected`` may fix ``verdict`` (the detection verdict), ``reported``
    (a list of (line, original text)), ``reported_lines``, ``reported_texts``,
    or ``violates`` (a predicate that an Invalid detection witness must meet).

    A report with ``Unknown(timeout)`` verdicts is partial: its bytes cannot
    match the pin, a timed-out detection has no verdict to compare, and a
    timed-out candidate is never reported.  The rest of it is still checked.
    """
    problems = []
    partial = timeouts(report) > 0
    if pin is None:
        problems.append("no sha256 pin for this job")
    elif not partial and sha256(text) != pin:
        problems.append(f"report sha256 {sha256(text)[:12]} differs from pin {pin[:12]}")
    odd = [v for v in verdicts(report) if v.startswith("Unknown") and v != "Unknown(timeout)"]
    if odd:
        problems.append(f"unexpected verdicts {sorted(set(odd))}")
    verdict = detection_verdict(report)
    if "verdict" in expected and verdict != expected["verdict"] and verdict != "Unknown(timeout)":
        problems.append(f"detection {verdict}, expected {expected['verdict']}")
    if "reported" in report:
        got = [(r["originalLine"], r["originalText"]) for r in report["reported"]]
        if "reported" in expected and _differs(got, expected["reported"], partial):
            problems.append(f"reported {got}, expected {expected['reported']}")
        lines = [line for line, _ in got]
        if "reported_lines" in expected and _differs(lines, expected["reported_lines"], partial):
            problems.append(f"reported lines {lines}, expected {expected['reported_lines']}")
        texts = [t for _, t in got]
        if "reported_texts" in expected and _differs(texts, expected["reported_texts"], partial):
            problems.append(f"reported texts {texts}, expected {expected['reported_texts']}")
        if verdict == "Valid" and report["candidates"]:
            problems.append("a Valid function has candidates")
    if "violates" in expected and verdict == "Invalid":
        witness = detection_witness(report) or {}
        if not expected["violates"](witness):
            problems.append(f"witness {witness} does not violate the contract")
    return problems


def interpreter_expectation(frontend, source: str, filename: str, function: str, bound: int) -> dict:
    """The detection verdict the concrete interpreter implies over the box
    ``[-bound, bound]``, and a predicate telling whether an input valuation
    (missing names default to 0 or false) violates the contract."""
    program = frontend.parse(source, filename)
    diags = frontend.typecheck(program)
    if diags:
        raise ValueError(f"{filename}: {diags[0]}")
    fn = program.function(function)
    names = [(p.name, p.sort) for p in fn.params]
    names += [(g.name, g.sort) for g in program.globals if g.init is None]

    def domain(sort):
        return (False, True) if sort.value == "bool" else range(-bound, bound + 1)

    def violates(env: dict) -> bool:
        full = {n: env.get(n, False if s.value == "bool" else 0) for n, s in names}
        result = frontend.interpret(program, function, full)
        if not isinstance(result, frontend.Returned):
            return False
        return not frontend.eval_post(program, fn, full, result.value, result.globals)

    invalid = any(
        violates(dict(zip([n for n, _ in names], values)))
        for values in itertools.product(*[domain(s) for _, s in names])
    )
    return {"verdict": "Invalid" if invalid else "Valid", "violates": violates}
