"""Orchestration: verify a function, then check each candidate's repairability.

Detection decides every obligation with no placeholder; any Invalid (or
Unknown, which is treated as if the function were incorrect) routes into
localization.  Localization generates the obligations once per candidate,
with the candidate's expression read as a placeholder ``c`` and detection's
WP reused wherever the candidate's site is not involved, and asks whether
``forall inputs exists c forall aux: body`` holds:

* per-obligation mode (default): each obligation is decided independently
  with its own placeholder witness.  Weaker than the conjunction, may report
  spurious locations, but cheaper.
* conjunction mode: one query, ``<f>:Conjunction:0``, over the conjunction
  of all obligation bodies sharing a single placeholder.  Reported sets in
  this mode are always a subset of per-obligation reports.

Either way a list of queries is decided one by one, and one fold gives the
verdict: the first Invalid, else the first Unknown, else Valid.  That is
detection's verdict; a candidate whose verdict is Valid is Reported, Invalid
makes it NotRepairable, and Unknown Inconclusive: listed but never reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from floc.faultmodel import Candidate, enumerate_candidates
from floc.frontend.syntax import Program
from floc.logic import QuantifiedQuery, Verdict, VerdictKind, build_query, f_and
from floc.normalizer import NFunc, NormProgram, normalize
from floc.solvers import SolverConfig, decide
from floc.vcgen import gen_obligations


@dataclass(frozen=True)
class ObligationOutcome:
    id: str
    verdict: Verdict
    time_sec: float


@dataclass(frozen=True)
class DetectionResult:
    verdict: Verdict  # Valid, or the first non-valid obligation's verdict
    obligations: tuple[ObligationOutcome, ...]

    @property
    def proceed(self) -> bool:
        """Unknown is treated as if the program were incorrect."""
        return not self.verdict.is_valid


OVERALL_REPORTED = "Reported"
OVERALL_NOT_REPAIRABLE = "NotRepairable"
OVERALL_INCONCLUSIVE = "Inconclusive"

_OVERALL = {
    VerdictKind.VALID: OVERALL_REPORTED,
    VerdictKind.INVALID: OVERALL_NOT_REPAIRABLE,
    VerdictKind.UNKNOWN: OVERALL_INCONCLUSIVE,
}


@dataclass(frozen=True)
class CandidateResult:
    candidate: Candidate
    obligations: tuple[ObligationOutcome, ...]
    overall: str
    time_sec: float


@dataclass(frozen=True)
class LocalizationReport:
    function: str
    detection: DetectionResult
    candidates: tuple[CandidateResult, ...]
    mode: str
    semantics: str
    bound: int
    detect_sec: float
    total_sec: float

    @property
    def reported(self) -> tuple[CandidateResult, ...]:
        return tuple(c for c in self.candidates if c.overall == OVERALL_REPORTED)


@dataclass
class Pipeline:
    """Shared immutable artifacts of one analyzed program."""

    norm: NormProgram

    @staticmethod
    def build(program: Program) -> "Pipeline":
        return Pipeline(normalize(program))


def _decide_timed(qid: str, q: QuantifiedQuery, cfg: SolverConfig) -> ObligationOutcome:
    t0 = time.monotonic()
    verdict = decide(q, cfg)
    return ObligationOutcome(qid, verdict, time.monotonic() - t0)


def _fold(outcomes: tuple[ObligationOutcome, ...]) -> Verdict:
    """The first Invalid verdict, else the first Unknown, else Valid."""
    for kind in (VerdictKind.INVALID, VerdictKind.UNKNOWN):
        for oc in outcomes:
            if oc.verdict.kind is kind:
                return oc.verdict
    return Verdict.valid()


def verify_norm(np: NormProgram, nf: NFunc, cfg: SolverConfig, shared: dict | None = None) -> DetectionResult:
    """Decide the function's obligations; ``shared`` as in ``gen_obligations``."""
    outcomes = tuple(_decide_timed(ob.id, ob, cfg) for ob in gen_obligations(np, nf, shared=shared))
    return DetectionResult(_fold(outcomes), outcomes)


def verify(program: Program, fname: str, cfg: SolverConfig | None = None) -> DetectionResult:
    """Decide whether the function meets its contract (program typechecked)."""
    cfg = cfg or SolverConfig()
    pipe = Pipeline.build(program)
    return verify_norm(pipe.norm, pipe.norm.function(fname), cfg)


def _check_candidate(
    pipe: Pipeline, nf: NFunc, cand: Candidate, cfg: SolverConfig, mode: str, shared: dict
) -> CandidateResult:
    t0 = time.monotonic()
    obligations = gen_obligations(pipe.norm, nf, site=cand, shared=shared)
    queries = [(ob.id, ob) for ob in obligations]
    if mode == "conjunction":
        inputs: dict = {}
        auxes: dict = {}
        for ob in obligations:
            inputs.update(ob.inputs)
            auxes.update(ob.auxiliaries)
        ph = next((ob.placeholder for ob in obligations if ob.placeholder), None)
        body = f_and(*[ob.body for ob in obligations])
        query = build_query(body, tuple(inputs.items()), ph, tuple(auxes.items()))
        queries = [(f"{nf.name}:Conjunction:0", query)]
    outcomes = tuple(_decide_timed(qid, q, cfg) for qid, q in queries)
    return CandidateResult(cand, outcomes, _OVERALL[_fold(outcomes).kind], time.monotonic() - t0)


def localize_norm(
    pipe: Pipeline,
    nf: NFunc,
    cfg: SolverConfig,
    mode: str = "per-obligation",
) -> LocalizationReport:
    t_start = time.monotonic()
    shared: dict = {}  # detection's WP, reused by every candidate's pass
    detection = verify_norm(pipe.norm, nf, cfg, shared)
    detect_sec = time.monotonic() - t_start

    results: tuple[CandidateResult, ...] = ()
    if detection.proceed:
        candidates = enumerate_candidates(pipe.norm, nf)
        results = tuple(_check_candidate(pipe, nf, c, cfg, mode, shared) for c in candidates)

    return LocalizationReport(
        function=nf.name,
        detection=detection,
        candidates=results,
        mode=mode,
        semantics=cfg.semantics,
        bound=cfg.bound,
        detect_sec=detect_sec,
        total_sec=time.monotonic() - t_start,
    )


def localize(
    program: Program,
    fname: str,
    cfg: SolverConfig | None = None,
    mode: str = "per-obligation",
) -> LocalizationReport:
    """Run detection and, if the function is incorrect, candidate analysis."""
    cfg = cfg or SolverConfig()
    pipe = Pipeline.build(program)
    return localize_norm(pipe, pipe.norm.function(fname), cfg, mode)


# ---------------------------------------------------------------------------
# Serialization (stable schema)
# ---------------------------------------------------------------------------


def _verdict_json(v: Verdict) -> dict:
    out: dict = {"verdict": str(v)}
    if v.witness is not None:
        out["witness"] = dict(v.witness)
    return out


def _outcome_json(oc: ObligationOutcome, timings: bool) -> dict:
    entry = {"id": oc.id, "verdict": str(oc.verdict)}
    entry["timeSec"] = round(oc.time_sec, 6) if timings else 0.0
    return entry


def verify_json(function: str, det: DetectionResult, cfg: SolverConfig, include_timings: bool = False) -> dict:
    """The entry ``floc verify --format json`` prints for one function;
    timing fields are zeroed as in ``report_json``."""
    entry = {"function": function, **_verdict_json(det.verdict)}
    entry["obligations"] = [_outcome_json(oc, include_timings) for oc in det.obligations]
    entry["semantics"] = cfg.semantics
    return entry


def report_json(report: LocalizationReport, include_timings: bool = False) -> dict:
    """The machine-readable report.

    Timing fields are zeroed unless ``include_timings`` is set, so that two
    runs of the same command are byte-identical.
    """
    detection = _verdict_json(report.detection.verdict)
    detection["obligations"] = [
        _outcome_json(oc, include_timings) for oc in report.detection.obligations
    ]
    candidates = []
    for cr in report.candidates:
        candidates.append(
            {
                "id": cr.candidate.id,
                "kind": cr.candidate.kind.value,
                "normalizedText": cr.candidate.location.normalized_text,
                "originalLine": cr.candidate.location.line,
                "originalText": cr.candidate.location.original_text,
                "overall": cr.overall,
                "loopScoped": cr.candidate.loop_scoped,
                "obligations": [_outcome_json(oc, include_timings) for oc in cr.obligations],
                "timeSec": round(cr.time_sec, 6) if include_timings else 0.0,
            }
        )
    reported = [
        {
            "originalLine": cr.candidate.location.line,
            "originalText": cr.candidate.location.original_text,
            "normalizedText": cr.candidate.location.normalized_text,
        }
        for cr in report.reported
    ]
    return {
        "function": report.function,
        "detection": detection,
        "candidates": candidates,
        "reported": reported,
        "mode": report.mode,
        "semantics": report.semantics,
        "boundB": report.bound,
        "timings": {
            "detectSec": round(report.detect_sec, 6) if include_timings else 0.0,
            "totalSec": round(report.total_sec, 6) if include_timings else 0.0,
        },
    }


def _witness_text(v: Verdict) -> str:
    if not v.witness:
        return ""
    inner = ", ".join(f"{k}={_fmt_val(x)}" for k, x in v.witness.items())
    return f" (witness: {inner})"


def _fmt_val(x: int | bool) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def report_text(report: LocalizationReport) -> str:
    """Human-readable report in the style of the prover log examples."""
    lines = []
    d = report.detection.verdict
    if d.is_valid:
        lines.append(f"function {report.function}: Valid (no contract violation found)")
        lines.append(f"semantics: {report.semantics}")
        return "\n".join(lines)
    status = "error detected" if d.is_invalid else f"verdict {d} treated as incorrect"
    lines.append(f"function {report.function}: {status}{_witness_text(d)}")
    for oc in report.detection.obligations:
        lines.append(f"  {oc.id}: {oc.verdict} [{oc.time_sec:.3f}s]")
    reported = report.reported
    plural = "s" if len(reported) != 1 else ""
    lines.append(f"reports {len(reported)} potential error location{plural}:")
    for cr in reported:
        loc = cr.candidate.location
        suffix = ""
        if loc.original_text and loc.original_text != loc.normalized_text:
            suffix = f"  (origin: {loc.original_text})"
        flag = "  [loop-scoped]" if cr.candidate.loop_scoped else ""
        lines.append(f"  {loc.normalized_text} in line {loc.line}{suffix}{flag}")
    others = [c for c in report.candidates if c.overall != OVERALL_REPORTED]
    if others:
        lines.append("other candidates:")
        for cr in others:
            loc = cr.candidate.location
            reason = ""
            if cr.overall == OVERALL_INCONCLUSIVE:
                reasons = {oc.verdict.reason for oc in cr.obligations if oc.verdict.is_unknown}
                reason = f" ({', '.join(sorted(r for r in reasons if r))})"
            lines.append(f"  C{cr.candidate.id} {loc.normalized_text} in line {loc.line}: {cr.overall}{reason}")
    lines.append(f"mode: {report.mode}; semantics: {report.semantics}")
    lines.append(
        f"timings: detection {report.detect_sec:.3f}s, total {report.total_sec:.3f}s"
    )
    return "\n".join(lines)
