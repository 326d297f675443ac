"""Time a fresh ``import floc.localize`` from one or more ``src`` directories.

For each directory the tool runs fresh subprocess imports, interleaved across
the directories (each round imports from every directory once, and the
rounds alternate which directory goes first), and prints:

- the median and quartiles of the import's wall time, timed inside the child
  around the ``import`` statement alone, so interpreter start-up is excluded;
- the ``tracemalloc`` peak of one fresh import;
- the time one fresh import spends creating floc's classes: running each
  class statement (body and metaclass), plus ``dataclasses``' processing of
  the class where a tree still uses ``@dataclass``.  The last two come from
  one extra child each, so their instrumentation does not touch the timings.

Every child gets ``PYTHONPATH`` set to its directory alone, and checks that
floc was loaded from it.  It is not collected by tier-1.  Run from the
repository root, for example against a copy of an earlier commit:

    python tests/import_time.py src /path/to/other/checkout/src --runs 15
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

_CHILD = r"""
import json, sys, time
mode, root = sys.argv[1], sys.argv[2]
out = {}
if mode == "time":
    t0 = time.perf_counter()
    import floc.localize
    out["seconds"] = time.perf_counter() - t0
elif mode == "memory":
    import tracemalloc
    tracemalloc.start()
    import floc.localize
    out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
else:
    import builtins, dataclasses
    spent = {"statement": 0.0, "dataclass": 0.0}
    count = [0]

    def _ours(module):
        return module == "floc" or module.startswith("floc.")

    build_class = builtins.__build_class__

    def timed_build_class(func, name, *bases, **kwargs):
        t0 = time.perf_counter()
        cls = build_class(func, name, *bases, **kwargs)
        if _ours(func.__globals__.get("__name__", "")):
            spent["statement"] += time.perf_counter() - t0
            count[0] += 1
        return cls

    process_class = dataclasses._process_class

    def timed_process_class(cls, *args, **kwargs):
        t0 = time.perf_counter()
        result = process_class(cls, *args, **kwargs)
        if _ours(cls.__module__):
            spent["dataclass"] += time.perf_counter() - t0
        return result

    builtins.__build_class__ = timed_build_class
    dataclasses._process_class = timed_process_class
    import floc.localize
    out.update(spent, classes=count[0])
import floc
if not floc.__file__.startswith(root):
    sys.exit(f"floc was loaded from {floc.__file__}, not from {root}")
print(json.dumps(out))
"""


def _child(mode: str, src: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(src)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", type=pathlib.Path, help="a directory holding the floc package")
    ap.add_argument("--runs", type=int, default=15, help="timed imports per directory (at least 15)")
    args = ap.parse_args(argv)
    if args.runs < 15:
        ap.error("--runs must be at least 15")
    dirs = [d.resolve() for d in args.src]
    seconds: dict[pathlib.Path, list[float]] = {d: [] for d in dirs}
    for r in range(args.runs):
        for d in dirs if r % 2 == 0 else dirs[::-1]:
            seconds[d].append(_child("time", d)["seconds"])
    for d in dirs:
        q1, med, q3 = statistics.quantiles(seconds[d], n=4)
        memory = _child("memory", d)
        classes = _child("classes", d)
        print(f"{d}")
        print(f"  import floc.localize: median {med * 1e3:.1f} ms, "
              f"quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms ({args.runs} runs)")
        print(f"  tracemalloc peak: {memory['peak_bytes'] / 2**20:.2f} MB")
        print(f"  class creation: {classes['classes']} classes, "
              f"{(classes['statement'] + classes['dataclass']) * 1e3:.1f} ms "
              f"({classes['dataclass'] * 1e3:.1f} ms of it in dataclasses)")


if __name__ == "__main__":
    main()
