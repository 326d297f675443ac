from __future__ import annotations

from floc.frontend import parse
from floc.frontend.typecheck import check_program
from floc.localize import (
    OVERALL_INCONCLUSIVE,
    OVERALL_NOT_REPAIRABLE,
    OVERALL_REPORTED,
    localize,
    localize_norm,
    report_json,
    report_text,
    verify,
)
from floc.solvers import SolverConfig, decide

from conftest import CORPUS_NAMES, build, load, pipeline_from


def test_verify_buggy_max_invalid_with_b_greater_witness():
    det = verify(load("max"), "max")
    assert det.verdict.is_invalid
    assert det.verdict.witness["b"] > det.verdict.witness["a"]


def test_verify_corrected_max_valid():
    det = verify(load("max_fixed"), "max")
    assert det.verdict.is_valid
    assert not det.proceed


def test_verify_trivial_contract():
    det = verify(check_program(parse("int f(int a) { return a; }")), "f")
    assert det.verdict.is_valid


def test_localize_buggy_max_reports_lines_5_and_6():
    report = localize(load("max"), "max")
    assert [(c.candidate.id, c.candidate.location.line) for c in report.reported] == [
        (3, 5),
        (4, 6),
    ]
    by_id = {c.candidate.id: c.overall for c in report.candidates}
    assert by_id == {
        1: OVERALL_NOT_REPAIRABLE,
        2: OVERALL_NOT_REPAIRABLE,
        3: OVERALL_REPORTED,
        4: OVERALL_REPORTED,
    }


def test_localize_corrected_max_is_empty():
    report = localize(load("max_fixed"), "max")
    assert report.detection.verdict.is_valid
    assert report.candidates == ()
    assert report.reported == ()


def test_localize_v9_at_the_default_bound():
    # The slowest corpus case at the default flags (B=8, 10 s timeout): the
    # descend-bias fault and the two sites that can mask it, none cut short.
    pipe = build("tcas_v9")
    report = localize_norm(pipe, pipe.norm.function("NonCrossBiasedDescend"), SolverConfig())
    assert sorted(c.candidate.location.line for c in report.reported) == [121, 122, 126]
    assert [c for c in report.candidates if c.overall == OVERALL_INCONCLUSIVE] == []


def test_localize_v9_contains_condition_site():
    pipe = build("tcas_v9")
    cfg = SolverConfig(bound=3)
    report = localize_norm(pipe, pipe.norm.function("NonCrossBiasedDescend"), cfg)
    texts = [c.candidate.location.normalized_text for c in report.reported]
    assert "tmp_0 >= DwnSep" in texts
    assert "tmp_2 && tmp_3" in texts  # the then-branch value site
    assert len(texts) <= 3


def test_unknown_detection_still_localizes():
    # timeout so small that detection goes Unknown; localization proceeds and
    # candidates come back Inconclusive rather than reported
    pipe = build("max_fixed")
    cfg = SolverConfig(bound=2500, timeout=1e-9)
    report = localize_norm(pipe, pipe.norm.function("max"), cfg)
    assert report.detection.verdict.is_unknown
    assert report.candidates  # localization did proceed
    assert all(c.overall == OVERALL_INCONCLUSIVE for c in report.candidates)
    assert report.reported == ()


def test_conjunction_mode_subset_of_per_obligation():
    for name in CORPUS_NAMES:
        pipe = build(name)
        cfg = SolverConfig(bound=3)
        for nf in pipe.norm.functions:
            per = localize_norm(pipe, nf, cfg, "per-obligation")
            conj = localize_norm(pipe, nf, cfg, "conjunction")
            per_ids = {c.candidate.id for c in per.reported}
            conj_ids = {c.candidate.id for c in conj.reported}
            assert conj_ids <= per_ids, (name, nf.name)


def test_reported_candidates_revalidate():
    # every reported candidate's queries, re-decided in isolation, are Valid
    from floc.faultmodel import enumerate_candidates
    from floc.vcgen import gen_obligations

    pipe = build("max")
    nf = pipe.norm.function("max")
    cfg = SolverConfig()
    report = localize_norm(pipe, nf, cfg)
    cands = enumerate_candidates(pipe.norm, nf)
    for cr in report.reported:
        for ob in gen_obligations(pipe.norm, nf, site=cands[cr.candidate.id - 1]):
            assert decide(ob, cfg).is_valid


def test_determinism_of_reports():
    pipe = build("tcas_v9")
    cfg = SolverConfig(bound=2)
    nf = pipe.norm.function("NonCrossBiasedDescend")
    a = report_json(localize_norm(pipe, nf, cfg))
    b = report_json(localize_norm(pipe, nf, cfg))
    assert a == b


def test_loop_scoped_candidates_flagged_in_report():
    pipe = pipeline_from(
        "/*@ requires n >= 0; ensures \\result == 0; @*/\n"
        "int drain(int n) {\n"
        "  int i = n;\n"
        "  /*@ loop invariant i >= 0; @*/\n"
        "  while (i > 0) {\n"
        "    i = i - 2; // correct: i - 1\n"
        "  }\n"
        "  return i;\n"
        "}\n"
    )
    report = localize_norm(pipe, pipe.norm.function("drain"), SolverConfig(bound=4))
    assert report.detection.verdict.is_invalid
    data = report_json(report)
    flagged = [c for c in data["candidates"] if c["loopScoped"]]
    assert flagged  # loop condition and body sites carry the flag


def test_report_json_schema_keys():
    report = localize(load("max"), "max")
    data = report_json(report)
    assert list(data) == [
        "function",
        "detection",
        "candidates",
        "reported",
        "mode",
        "semantics",
        "boundB",
        "timings",
    ]
    assert data["semantics"] == "bounded[-8,8]"
    assert data["boundB"] == 8
    assert data["timings"] == {"detectSec": 0.0, "totalSec": 0.0}
    assert {"id", "kind", "normalizedText", "originalLine", "originalText",
            "overall", "loopScoped", "obligations", "timeSec"} <= set(data["candidates"][0])
    assert data["reported"][0] == {
        "originalLine": 5,
        "originalText": "a",
        "normalizedText": "a",
    }
    timed = report_json(report, include_timings=True)
    assert timed["timings"]["totalSec"] > 0.0


def test_report_text_style():
    text = report_text(localize(load("max"), "max"))
    assert "reports 2 potential error locations:" in text
    assert "a in line 5" in text
    assert "r in line 6" in text


def test_validity_keeps_candidates_empty_invariant():
    for name in CORPUS_NAMES:
        pipe = build(name)
        cfg = SolverConfig(bound=2)
        for nf in pipe.norm.functions:
            report = localize_norm(pipe, nf, cfg)
            if report.detection.verdict.is_valid:
                assert report.candidates == ()
