"""In-memory span tracing around the calls into floc's layers.

Spans are recorded from outside floc: the benchmark wraps the functions it
calls itself (parse, typecheck, Pipeline.build, localize_norm, verify_norm,
report_json) and, while a traced pass runs, the names that ``floc.localize``
looks up at call time (gen_obligations, enumerate_candidates, instrument,
decide).  A name that floc no longer has is skipped, not an error.
"""

from __future__ import annotations

import time

from reference import TIMEOUT_S
from stats import median, self_times

# Module-level names of floc.localize that are wrapped during a traced pass.
LOCALIZE_HOOKS = ("gen_obligations", "enumerate_candidates", "instrument", "decide")

# Span name -> per-layer busy-time metric (self time summed over spans).
BUSY_METRIC = {
    "parse": "frontend.parse_s",
    "typecheck": "frontend.typecheck_s",
    "normalize": "normalizer.normalize_s",
    "gen_obligations": "vcgen.gen_s",
    "enumerate_candidates": "faultmodel.enumerate_s",
    "instrument": "faultmodel.instrument_s",
    "decide.forall_exists": "solvers.forall_exists_s",
    "decide.universal": "solvers.universal_s",
    "localize_norm": "localize.self_s",
    "verify_norm": "localize.self_s",
    "report_json": "localize.report_json_s",
}

# Per-pass counts, summed over a pass's spans.
COUNTS = (
    "frontend.src_bytes",
    "normalizer.stmts",
    "vcgen.calls",
    "vcgen.obligations",
    "vcgen.formula_nodes",
    "faultmodel.candidates",
    "solvers.queries",
    "solvers.unknown",
    "solvers.search_points",
)
SUMMED = tuple(sorted(set(BUSY_METRIC.values()))) + COUNTS

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("frontend.parse_s", "s"),
    ("frontend.typecheck_s", "s"),
    ("frontend.src_bytes", "bytes"),
    ("normalizer.normalize_s", "s"),
    ("normalizer.stmts", "count"),
    ("vcgen.gen_s", "s"),
    ("vcgen.calls", "count"),
    ("vcgen.obligations", "count"),
    ("vcgen.formula_nodes", "count"),
    ("faultmodel.enumerate_s", "s"),
    ("faultmodel.instrument_s", "s"),
    ("faultmodel.candidates", "count"),
    ("solvers.forall_exists_s", "s"),
    ("solvers.universal_s", "s"),
    ("solvers.queries", "count"),
    ("solvers.query_p50_s", "s"),
    ("solvers.query_max_s", "s"),
    ("solvers.unknown", "count"),
    ("solvers.timeout_margin", "ratio"),
    ("solvers.search_points", "count"),
    ("localize.self_s", "s"),
    ("localize.report_json_s", "s"),
    ("localize.reported_ratio", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
)


class Tracer:
    """Records ``(name, start, end, parent, job, data)`` spans.

    ``data`` holds references to a call's argument or result, turned into
    counts by ``pass_totals`` after the pass, outside any timed span.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = -1

    def wrap(self, name, fn, keep=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            data = keep(args, kwargs, result) if keep else None
            spans[idx] = (name, start, end, parent, self.job, data)
            return result

        return traced

    def wrap_decide(self, fn):
        """``decide`` splits into its two solver paths by the query's shape."""
        universal = self.wrap("decide.universal", fn, keep=_keep_query)
        forall_exists = self.wrap("decide.forall_exists", fn, keep=_keep_query)

        def traced(q, *args, **kwargs):
            return (universal if q.placeholder is None else forall_exists)(q, *args, **kwargs)

        return traced

    def install(self, module) -> dict:
        """Wrap ``LOCALIZE_HOOKS`` in ``module``; returns the originals."""
        saved = {name: getattr(module, name) for name in LOCALIZE_HOOKS if hasattr(module, name)}
        keeps = {"gen_obligations": _keep_result, "enumerate_candidates": _keep_result}
        for name, fn in saved.items():
            wrapped = self.wrap_decide(fn) if name == "decide" else self.wrap(name, fn, keeps.get(name))
            setattr(module, name, wrapped)
        return saved

    @staticmethod
    def uninstall(module, saved: dict) -> None:
        for name, fn in saved.items():
            setattr(module, name, fn)

    def take(self) -> list:
        """The spans recorded so far, which the tracer then forgets."""
        out, self.spans[:] = list(self.spans), []
        return out


def _keep_result(args, kwargs, result):
    return result


def _keep_query(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return (args[0], cfg, result)


# ---------------------------------------------------------------------------
# Turning one pass's spans into per-layer totals
# ---------------------------------------------------------------------------


def count_nodes(obj, cls) -> int:
    """Instances of ``cls`` reachable from ``obj`` through dataclass fields,
    lists and tuples."""
    seen = 0
    todo = [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
            continue
        if isinstance(x, cls):
            seen += 1
        fields = getattr(x, "__dataclass_fields__", None)
        if fields and not isinstance(x, type):
            todo.extend(getattr(x, f) for f in fields)
    return seen


def _domain_size(sort, bound: int) -> int:
    return 2 if sort.value == "bool" else 2 * bound + 1


def search_points(q, cfg) -> int:
    """|I| * |C| * |T| of one query over the configured box."""
    points = 1
    for _, sort in q.inputs + q.auxiliaries:
        points *= _domain_size(sort, cfg.bound)
    if q.placeholder is not None:
        points *= _domain_size(q.placeholder[1], cfg.bc)
    return points


def pass_totals(spans: list, classes: dict) -> dict:
    """Busy times and counts of one traced pass.

    ``classes`` maps "Formula" and "NStmt" to floc's classes, used to count
    formula nodes and normalized statements.
    """
    counts = dict.fromkeys(SUMMED + ("candidates_checked", "reported"), 0)
    query_times = []
    for (name, start, end, parent, job, data), self_s in zip(spans, self_times(spans)):
        metric = BUSY_METRIC.get(name)
        if metric:
            counts[metric] += self_s
        if name == "parse":
            counts["frontend.src_bytes"] += len(data.encode("utf-8"))
        elif name == "normalize":
            counts["normalizer.stmts"] += count_nodes(data.norm.functions, classes["NStmt"])
        elif name == "gen_obligations":
            counts["vcgen.calls"] += 1
            counts["vcgen.obligations"] += len(data)
            counts["vcgen.formula_nodes"] += count_nodes([ob.body for ob in data], classes["Formula"])
        elif name == "enumerate_candidates":
            counts["faultmodel.candidates"] += len(data)
        elif name.startswith("decide."):
            q, cfg, verdict = data
            counts["solvers.queries"] += 1
            counts["solvers.unknown"] += verdict.is_unknown
            counts["solvers.search_points"] += search_points(q, cfg)
            query_times.append(end - start)
        elif name == "localize_norm":
            counts["candidates_checked"] += len(data.candidates)
            counts["reported"] += len(data.reported)
    counts["query_times"] = query_times
    return counts


def per_layer(passes: list[dict], traced_run_s: list[float], overhead_frac: float) -> dict:
    """Per-layer metrics per pass, averaged over the traced passes whose
    wall times are ``traced_run_s``."""
    n = len(passes)
    out = {key: sum(p[key] for p in passes) / n for key in SUMMED}
    query_times = [t for p in passes for t in p["query_times"]]
    out["solvers.query_p50_s"] = median(query_times) if query_times else 0.0
    out["solvers.query_max_s"] = max(query_times, default=0.0)
    out["solvers.timeout_margin"] = out["solvers.query_max_s"] / TIMEOUT_S
    checked = sum(p["candidates_checked"] for p in passes)
    out["localize.reported_ratio"] = sum(p["reported"] for p in passes) / checked if checked else 0.0
    run_s = sum(traced_run_s) / n
    out["trace.run_s"] = run_s
    out["trace.overhead_frac"] = overhead_frac
    busy = sum(out[m] for m in set(BUSY_METRIC.values()))
    out["trace.unaccounted_frac"] = 1 - busy / run_s
    return out
