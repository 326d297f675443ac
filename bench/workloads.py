"""The benchmark's workloads: how their jobs are built and how one job runs.

A job goes from source text to a JSON report the way a fresh ``floc`` run
would: parse, typecheck, build the pipeline, verify or localize one function,
serialize.  Every call goes through an ``Api`` so that a traced pass can swap
in wrapped callables without touching the untraced path.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import mutants
import reference

CORPUS = pathlib.Path("src", "floc", "corpus")
WORKLOADS = ("tcas9-descend", "corpus-verify", "mutants")

# Fixed localize jobs of the mutants workload: (stem, function, placeholder bound).
FIXED_LOCALIZE = (("max", "max", None), ("counter", "bump", 16), ("tcas_v7", "initialize", 800))


@dataclass(frozen=True)
class Job:
    key: str
    kind: str  # "localize" | "verify"
    stem: str
    function: str
    source: str
    cfg: object  # floc.solvers.SolverConfig

    @property
    def filename(self) -> str:
        return str(CORPUS / f"{self.stem}.mcl")


class Api:
    """The floc entry points a job calls; with a ``tracer``, each call
    records a span."""

    def __init__(self, floc, tracer=None):
        wrap = tracer.wrap if tracer else (lambda name, fn, keep=None: fn)
        report_json = floc.localize.report_json
        self.parse = wrap("parse", floc.frontend.parse, keep=lambda args, kwargs, result: args[0])
        self.typecheck = wrap("typecheck", floc.frontend.typecheck)
        self.build = wrap("normalize", floc.localize.Pipeline.build, keep=lambda args, kwargs, result: result)
        self.localize_norm = wrap(
            "localize_norm", floc.localize.localize_norm, keep=lambda args, kwargs, result: result
        )
        self.verify_norm = wrap("verify_norm", floc.localize.verify_norm)
        self.serialize_localize = wrap("report_json", lambda report: json.dumps(report_json(report), indent=2))
        self.serialize_verify = wrap("report_json", _serialize_verify)


def _serialize_verify(function: str, det, cfg) -> str:
    """The entry ``floc verify --format json`` prints for one function."""
    entry = {"function": function, "verdict": str(det.verdict)}
    if det.verdict.witness is not None:
        entry["witness"] = det.verdict.witness
    entry["obligations"] = [
        {"id": oc.id, "verdict": str(oc.verdict), "timeSec": 0.0} for oc in det.obligations
    ]
    entry["semantics"] = cfg.semantics
    return json.dumps(entry, indent=2)


class JobError(Exception):
    pass


def run_job(api: Api, job: Job) -> tuple[str, float]:
    """Source text to serialized report.  Also returns the time of the
    job's slowest query, as floc measured it."""
    program = api.parse(job.source, job.filename)
    diags = api.typecheck(program)
    if diags:
        raise JobError(f"{job.filename}: {diags[0]}")
    pipe = api.build(program)
    nf = pipe.norm.function(job.function)
    if job.kind == "verify":
        det = api.verify_norm(pipe.norm, nf, job.cfg)
        return api.serialize_verify(job.function, det, job.cfg), _slowest(det.obligations)
    report = api.localize_norm(pipe, nf, job.cfg)
    outcomes = report.detection.obligations + tuple(oc for c in report.candidates for oc in c.obligations)
    return api.serialize_localize(report), _slowest(outcomes)


def _slowest(outcomes) -> float:
    return max((oc.time_sec for oc in outcomes), default=0.0)


# ---------------------------------------------------------------------------
# Building each workload's jobs (set-up)
# ---------------------------------------------------------------------------


def _read(root: pathlib.Path, stem: str) -> str:
    return (root / CORPUS / f"{stem}.mcl").read_text(encoding="utf-8")


def _localize_job(floc, root, stem, function, bc) -> Job:
    key = f"localize:{stem}:{function}" + (f"@bc{bc}" if bc is not None else "")
    cfg = floc.solvers.SolverConfig(placeholder_bound=bc)
    if key in reference.JOB_TIMEOUT_S:
        cfg = floc.solvers.SolverConfig(placeholder_bound=bc, timeout=reference.JOB_TIMEOUT_S[key])
    return Job(key, "localize", stem, function, _read(root, stem), cfg)


def mutant_jobs(floc, mutant_list) -> tuple[list[Job], int]:
    """Jobs for the mutants that parse and typecheck, and how many did not."""
    jobs, skipped = [], 0
    cfg = floc.solvers.SolverConfig()
    for m in mutant_list:
        try:
            ok = not floc.frontend.typecheck(floc.frontend.parse(m.source, str(CORPUS / f"{m.stem}.mcl")))
        except floc.frontend.MclSyntaxError:
            ok = False
        if ok:
            jobs.append(Job(f"mutant:{m.key}", "localize", m.stem, m.function, m.source, cfg))
        else:
            skipped += 1
    return jobs, skipped


def build_jobs(workload: str, floc, root: pathlib.Path, seed: int) -> tuple[list[Job], dict]:
    """The jobs of one pass, and facts about how they were made."""
    if workload == "tcas9-descend":
        return [_localize_job(floc, root, "tcas_v9", "NonCrossBiasedDescend", None)], {}
    if workload == "corpus-verify":
        cfg = floc.solvers.SolverConfig()
        sources = {stem: _read(root, stem) for stem, _ in reference.CORPUS_VERDICTS}
        jobs = [
            Job(f"verify:{stem}:{fn}", "verify", stem, fn, sources[stem], cfg)
            for stem, fn in reference.CORPUS_VERDICTS
        ]
        return jobs, {}
    if workload == "mutants":
        sources = {stem: _read(root, stem) for stem, _ in mutants.TARGETS}
        jobs, skipped = mutant_jobs(floc, mutants.mutant_space(sources))
        jobs += [_localize_job(floc, root, *fixed) for fixed in FIXED_LOCALIZE]
        return mutants.draw(jobs, seed), {"mutants_skipped": skipped}
    raise ValueError(f"unknown workload {workload!r}")


def expectation(job: Job, floc) -> dict:
    """The reference a job's report is checked against."""
    if job.kind == "verify":
        return {"verdict": reference.CORPUS_VERDICTS[(job.stem, job.function)]}
    if job.key.startswith("mutant:"):
        return reference.interpreter_expectation(
            floc.frontend, job.source, job.filename, job.function, job.cfg.bound
        )
    expected = dict(reference.LOCALIZE_EXPECTED[(job.stem, job.function, job.cfg.placeholder_bound)])
    expected["verdict"] = "Invalid"
    return expected
