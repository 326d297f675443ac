"""Tests of the benchmark's own pieces.  Run: python3 -m pytest bench/tests"""

from __future__ import annotations

import dataclasses
import json

import pytest

import mutants
import reference
import run
import tracing
import workloads
from stats import covered, percentile, self_times


@pytest.fixture(scope="module")
def floc():
    return run.import_floc()


def _sources():
    return {stem: workloads._read(run.ROOT, stem) for stem, _ in mutants.TARGETS}


def test_same_seed_gives_same_mutant_list():
    space = mutants.mutant_space(_sources())
    first = [m.key for m in mutants.draw(space, 7)]
    assert first == [m.key for m in mutants.draw(mutants.mutant_space(_sources()), 7)]
    assert first != [m.key for m in mutants.draw(space, 8)]
    assert sorted(first) == sorted(m.key for m in space)


def test_each_mutant_changes_one_body_token():
    sources = _sources()
    for m in mutants.mutant_space(sources):
        text = sources[m.stem]
        assert text[m.offset : m.offset + len(m.old)] == m.old
        assert m.source == text[: m.offset] + m.new + text[m.offset + len(m.old) :]
        assert m.source.count("/*@") == text.count("/*@")


def test_unparsable_mutants_are_skipped_and_counted(floc):
    space = mutants.mutant_space(_sources())
    jobs, skipped = workloads.mutant_jobs(floc, space)
    # MCL has no unary plus, so turning a unary minus into one cannot parse
    unary_plus = [m for m in space if m.new == "+" and m.source[: m.offset].rstrip()[-1] in "=("]
    assert skipped == len(unary_plus) > 0
    assert len(jobs) + skipped == len(space)


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == 89
    assert percentile([], 50) is None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("job", 0.0, 10.0, -1),
        ("parse", 1.0, 4.0, 0),
        ("decide", 3.0, 6.0, 0),  # overlaps its sibling
        ("late", 8.0, 12.0, 0),  # runs past its parent's end
        ("inner", 8.5, 9.0, 3),
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert self_times(spans) == [3.0, 3.0, 3.0, 3.5, 0.5]


def test_traced_pass_accounts_for_the_pass(floc):
    jobs, _ = workloads.build_jobs("mutants", floc, run.ROOT, seed=1)
    tracer = tracing.Tracer()
    saved = tracer.install(floc.localize)
    try:
        pass_s, _, _, outputs = run.run_pass(workloads.Api(floc, tracer), jobs, tracer)
    finally:
        tracer.uninstall(floc.localize, saved)
    assert all(error is None for _, _, error in outputs)
    totals = tracing.pass_totals(tracer.take(), run._classes(floc))
    layers = tracing.per_layer([totals], [pass_s], 0.0)
    assert 0.0 <= layers["trace.unaccounted_frac"] < 0.1
    assert layers["faultmodel.candidates"] > 0 and layers["solvers.queries"] > 0
    assert layers["solvers.universal_s"] > 0 and layers["solvers.forall_exists_s"] > 0


def _max_report(floc):
    job = workloads._localize_job(floc, run.ROOT, "max", "max", None)
    text, _ = workloads.run_job(workloads.Api(floc), job)
    return job, text


def test_checker_accepts_the_real_report(floc):
    job, text = _max_report(floc)
    pin = reference.load_pins()[job.key]
    assert reference.check(json.loads(text), text, pin, workloads.expectation(job, floc)) == []


def test_checker_rejects_a_wrong_report(floc):
    job, text = _max_report(floc)
    pin = reference.load_pins()[job.key]
    expected = workloads.expectation(job, floc)
    report = json.loads(text)
    report["reported"][0]["originalLine"] = 7
    wrong = json.dumps(report, indent=2)
    problems = reference.check(report, wrong, pin, expected)
    assert any("sha256" in p for p in problems)
    assert any("reported" in p for p in problems)
    assert reference.check(json.loads(text), text, None, expected) == ["no sha256 pin for this job"]


def test_mutant_reference_comes_from_the_interpreter(floc):
    space = {m.key: m for m in mutants.mutant_space(_sources())}
    flipped = next(m for m in space.values() if m.function == "max2" and m.new == ">=")
    bumped = next(m for m in space.values() if m.function == "odd_succ" and m.new == "2")
    cfg = floc.solvers.SolverConfig()
    for m, verdict in ((flipped, "Valid"), (bumped, "Invalid")):
        job = workloads.Job(f"mutant:{m.key}", "localize", m.stem, m.function, m.source, cfg)
        expected = workloads.expectation(job, floc)
        assert expected["verdict"] == verdict
        report = json.loads(workloads.run_job(workloads.Api(floc), job)[0])
        report["detection"]["verdict"] = "Valid" if verdict == "Invalid" else "Invalid"
        assert any("detection" in p for p in reference.check(report, "", None, expected))
    assert expected["violates"]({"n": 0}) and not flipped.source == bumped.source


def _timed_out(text: str, detection: str | None = None) -> str:
    """``text`` with one candidate query turned into a timeout."""
    report = json.loads(text)
    report["candidates"][2]["obligations"][0]["verdict"] = "Unknown(timeout)"
    if detection is not None:
        report["detection"]["verdict"] = detection
    return json.dumps(report, indent=2)


def test_a_timeout_fails_its_job_without_a_mismatch(floc):
    job, text = _max_report(floc)
    checker = run.Checker(floc)
    assert not checker.check(job, _timed_out(text), None, job.cfg.timeout + 0.5)
    assert checker.timeouts and not checker.mismatches
    assert checker.check(job, text, None, 0.01)


def test_an_instant_timeout_is_a_mismatch(floc):
    job, text = _max_report(floc)
    checker = run.Checker(floc)
    assert not checker.check(job, _timed_out(text), None, 0.01)
    assert checker.mismatches and "after only" in checker.mismatches[0]


def test_a_timeout_does_not_excuse_a_wrong_verdict(floc):
    job, text = _max_report(floc)
    checker = run.Checker(floc)
    assert not checker.check(job, _timed_out(text, detection="Valid"), None, job.cfg.timeout + 0.5)
    assert checker.mismatches and "detection Valid" in checker.mismatches[0]


def test_only_tcas9_descend_runs_at_a_longer_timeout(floc):
    for workload in workloads.WORKLOADS:
        jobs, _ = workloads.build_jobs(workload, floc, run.ROOT, seed=1)
        for job in jobs:
            want = 3 * reference.TIMEOUT_S if workload == "tcas9-descend" else reference.TIMEOUT_S
            assert job.cfg.timeout == want == reference.JOB_TIMEOUT_S.get(job.key, reference.TIMEOUT_S)


def test_run_s_and_timeout_margin_are_means_over_passes():
    passes = [
        {"pass_s": s, "query_max_s": q}
        for s, q in ((2.0, [1.0, 5.0]), (4.0, [3.0, 4.0]), (9.0, [2.0, 6.0]))
    ]
    e2e = run.end_to_end(passes, [0.1])
    assert e2e["run_s"] == (5.0, "s")
    assert e2e["timeout_margin"] == (5.0 / reference.TIMEOUT_S, "ratio")


def test_a_changed_default_timeout_is_a_mismatch(floc):
    job, text = _max_report(floc)
    short = dataclasses.replace(job, cfg=floc.solvers.SolverConfig(timeout=1.0))
    checker = run.Checker(floc)
    assert not checker.check(short, text, None, 0.01)
    assert checker.mismatches and "timeout 1.0 s" in checker.mismatches[0]
    assert floc.solvers.SolverConfig().timeout == reference.TIMEOUT_S


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    e2e = run.end_to_end([{"pass_s": 1.0, "query_max_s": [0.5]}], [0.1])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
