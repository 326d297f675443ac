"""floc's benchmark: one closed-loop client calling floc in-process.

    python3 bench/run.py --workload mutants --seed 1 --seconds 60 --trace 0

Runs the workload's jobs in passes until ``--seconds`` is spent, checks every
report against the reference answers outside the timed region, and prints a
summary followed, as the last line, by one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  Exits 1 if
any report differs from its reference, 2 if floc cannot be loaded from
``src/`` of the checkout the script sits in.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import sys
from statistics import fmean
import time
import traceback
import types

import reference
import tracing
import workloads
from stats import median, percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed this many times at the start of a run; setup_s is the median.
SETUP_REPEATS = 5
FLOC_MODULES = ("frontend", "normalizer", "logic", "localize", "solvers")
TRACE_OUT = ROOT / ".bench_out"


def _floc_modules() -> list[str]:
    return [m for m in sys.modules if m == "floc" or m.startswith("floc.")]


def import_floc() -> types.SimpleNamespace:
    """A fresh import of floc from ``src/`` of this checkout, as a namespace
    of its modules (``floc.localize`` itself names a function)."""
    for name in _floc_modules():
        del sys.modules[name]
    top = importlib.import_module("floc")
    if not pathlib.Path(top.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"floc was loaded from {top.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{sub: importlib.import_module(f"floc.{sub}") for sub in FLOC_MODULES}
    )


def timed_setup(workload: str, seed: int):
    """One set-up: import floc afresh and build the jobs.  Returns
    (seconds, floc, jobs, info); the garbage of earlier set-ups is collected
    first, outside the timing."""
    gc.collect()
    t0 = time.perf_counter()
    floc = import_floc()
    jobs, info = workloads.build_jobs(workload, floc, ROOT, seed)
    return time.perf_counter() - t0, floc, jobs, info


class Checker:
    """Checks reports against the reference, outside the timed region."""

    def __init__(self, floc):
        self.floc = floc
        self.pins = reference.load_pins()
        self.expected: dict[str, dict] = {}
        self.passed: set[tuple[str, str]] = set()  # (job key, sha256) already checked
        self.mismatches: list[str] = []
        self.timeouts: list[str] = []
        self.verdicts: dict[str, str] = {}

    def check(self, job, text: str | None, error: str | None, seconds: float) -> bool:
        """True when the job's report is correct and conclusive.  A report
        with ``Unknown(timeout)`` verdicts fails its job; it is a mismatch
        too unless the job ran for at least ``timeout`` seconds per timeout."""
        if error is not None:
            self.mismatches.append(f"{job.key}: raised {error}")
            return False
        want = reference.JOB_TIMEOUT_S.get(job.key, reference.TIMEOUT_S)
        if job.cfg.timeout != want:
            self.mismatches.append(f"{job.key}: ran at timeout {job.cfg.timeout} s, not {want} s")
            return False
        report = json.loads(text)
        self.verdicts[job.key] = reference.detection_verdict(report)
        digest = reference.sha256(text)
        if (job.key, digest) in self.passed:
            return True
        if job.key not in self.expected:
            self.expected[job.key] = workloads.expectation(job, self.floc)
        problems = reference.check(report, text, self.pins.get(job.key), self.expected[job.key])
        n_timeouts = reference.timeouts(report)
        if seconds < n_timeouts * job.cfg.timeout:
            problems.append(f"{n_timeouts} Unknown(timeout) verdicts after only {seconds:.3f} s")
        if problems:
            self.mismatches.append(f"{job.key}: {'; '.join(problems)}")
            return False
        if n_timeouts:
            self.timeouts.append(f"{job.key}: {n_timeouts} Unknown(timeout) verdicts in {seconds:.3f} s")
            return False
        self.passed.add((job.key, digest))
        return True

    def known_faults_missed(self, jobs) -> int:
        return sum(
            (job.stem, job.function) in reference.KNOWN_FAULTY and self.verdicts.get(job.key) == "Valid"
            for job in jobs
            if job.kind == "verify"
        )


def run_pass(api, jobs, tracer=None):
    """One pass over the jobs: (pass seconds, per-job seconds, per-job
    slowest query seconds, outputs)."""
    times, slowest, outputs = [], [], []
    run = workloads.run_job if tracer is None else tracer.wrap("job", workloads.run_job)
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            (text, query_s), error = run(api, job), None
        except Exception:  # a job that raises fails; the run goes on
            text, query_s, error = None, 0.0, traceback.format_exc(limit=3).strip().splitlines()[-1]
        times.append(time.perf_counter() - t0)
        slowest.append(query_s)
        outputs.append((job, text, error))
    return time.perf_counter() - start, times, slowest, outputs


def measure(floc, jobs, seconds: float, traced: bool):
    """Run passes until ``seconds`` would be exceeded by one more.

    With ``traced``, untraced and traced passes alternate, so that the
    tracing overhead can be measured; the end-to-end figures come from the
    untraced passes only.
    """
    api = workloads.Api(floc)
    tracer = tracing.Tracer() if traced else None
    traced_api = workloads.Api(floc, tracer) if traced else None
    checker = Checker(floc)
    passes, layer_passes, span_log = [], [], []
    start = time.perf_counter()
    while True:
        traced_now = traced and len(passes) % 2 == 1
        if traced_now:
            saved = tracer.install(floc.localize)
            try:
                pass_s, times, slowest, outputs = run_pass(traced_api, jobs, tracer)
            finally:
                tracer.uninstall(floc.localize, saved)
            spans = tracer.take()
            layer_passes.append(tracing.pass_totals(spans, _classes(floc)))
            span_log.append([(n, round(s - start, 7), round(e - start, 7), p, j) for n, s, e, p, j, _ in spans])
        else:
            pass_s, times, slowest, outputs = run_pass(api, jobs)
        ok = sum(checker.check(job, text, error, t) for (job, text, error), t in zip(outputs, times))
        passes.append({"traced": traced_now, "pass_s": pass_s, "job_s": times, "query_max_s": slowest, "ok": ok})
        now = time.perf_counter()
        if len(passes) >= 1 + traced and now - start + median([p["pass_s"] for p in passes]) > seconds:
            break
    return checker, passes, layer_passes, span_log


def _classes(floc) -> dict:
    return {"Formula": floc.logic.Formula, "NStmt": floc.normalizer.NStmt}


def end_to_end(passes: list[dict], setup_s: list[float]) -> dict:
    """Times are means over the run's passes.  A ``tcas9-descend`` pass takes
    about 18 s, so a run has 2 or 3 of them; the mean follows the machine's
    speed over the whole run, where a median would follow a single pass.

    ``timeout_margin`` is the slowest query over the default timeout: for
    each job, the mean across passes of its slowest query; then the largest
    of those."""
    slowest = max(fmean(times) for times in zip(*[p["query_max_s"] for p in passes]))
    return {
        "setup_s": (median(setup_s), "s"),
        "run_s": (fmean(p["pass_s"] for p in passes), "s"),
        "timeout_margin": (slowest / reference.TIMEOUT_S, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _spread(values: list[float]) -> str:
    if len(values) <= 12:
        return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"
    return f"min {min(values):.3f} median {median(values):.3f} max {max(values):.3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="floc benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = []
    floc = jobs = None
    try:
        for _ in range(SETUP_REPEATS):
            floc = jobs = None  # free the previous copy, so that peak_rss_mb counts one
            seconds, floc, jobs, info = timed_setup(args.workload, args.seed)
            setup_s.append(seconds)
    except (ImportError, OSError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    checker, passes, layer_passes, span_log = measure(floc, jobs, args.seconds, bool(args.trace))
    plain = [p for p in passes if not p["traced"]]
    attempted = len(jobs) * len(passes)
    failed = attempted - sum(p["ok"] for p in passes)
    job_s = [t for p in plain for t in p["job_s"]]
    print(f"workload={args.workload} seed={args.seed} jobs_per_pass={len(jobs)} "
          f"passes={len(plain)} untraced + {len(passes) - len(plain)} traced "
          f"attempted={attempted} failed={failed} "
          f"pass_s={_spread([p['pass_s'] for p in passes])} "
          f"setup_samples={len(setup_s)} harness_rss_mb={harness_mb:.1f} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    over = sum(t >= reference.TIMEOUT_S for p in passes for t in p["query_max_s"])
    print(f"jobs with a query that ran past the default {reference.TIMEOUT_S:g} s timeout: {over} of {attempted}")
    for line in checker.timeouts[:5]:
        print(f"timeout: {line}")
    for line in checker.mismatches[:5]:
        print(f"MISMATCH: {line}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6f} ratio")
    if args.workload == "corpus-verify":
        print(f"  {'known_faults_missed':28s} {checker.known_faults_missed(jobs):14d} count")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = tracing.per_layer(
            layer_passes,
            [p["pass_s"] for p in traced],
            fmean(p["pass_s"] for p in traced) / fmean(p["pass_s"] for p in plain) - 1,
        )
        metrics = {name: (layers[name], unit) for name, unit in tracing.PER_LAYER}
        TRACE_OUT.mkdir(exist_ok=True)
        out = TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "job"],
                                   "passes": span_log}), encoding="utf-8")
        print(f"spans of {len(span_log)} traced passes written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain, setup_s)
        ok_per_pass = sum(p["ok"] for p in plain) / len(plain)
        print(f"  {'jobs_per_s':28s} {ok_per_pass / metrics['run_s'][0]:14.6f} 1/s  (jobs completed correctly)")
        for q in (50, 90):
            value = percentile(job_s, q)
            text = "n/a" if value is None else f"{value:.6f}"
            print(f"  {f'job_p{q}_s':28s} {text:>14s} s  (from {len(job_s)} job samples; "
                  f"reported only with at least 10 samples beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")

    correct = not checker.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
