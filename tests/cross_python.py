"""Check that floc's reports are the same under several Python interpreters.

For each interpreter given, one child process runs ``floc localize --format
json`` on every corpus file at ``--bound`` 1, 2, 3 and 8, through
``floc.cli.main``, and hashes each run's file name, bound, exit code and
output into one sha256.  The tool prints one line per interpreter (its
version, the sha256 and its path) and last whether all the sha256s agree; it
exits 1 when they do not.  The child runs from the ``src`` directory with
relative file paths, so a copy of another commit's ``src`` prints the same
sha256 when its reports are the same.

It is not collected by tier-1.  Each interpreter takes about half a second
on a shared x86-64 Linux machine.  Run from the repository root, for example:

    python tests/cross_python.py python3.10 python3.11 python3.12 python3.13
    python tests/cross_python.py python3 --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

_CHILD = r"""
import contextlib, hashlib, io, pathlib, platform
import floc
from floc.cli import main
assert pathlib.Path(floc.__file__).resolve().parents[1] == pathlib.Path.cwd(), floc.__file__
digest = hashlib.sha256()
for path in sorted(pathlib.Path("floc", "corpus").glob("*.mcl")):
    for bound in ("1", "2", "3", "8"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["localize", str(path), "--format", "json", "--bound", bound])
        digest.update(f"{path} --bound {bound} exit {code}\n{out.getvalue()}".encode())
print(platform.python_version(), digest.hexdigest())
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("python", nargs="+", help="an interpreter to run floc under")
    ap.add_argument("--src", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1] / "src",
                    help="the directory holding the floc package (default: this checkout's src)")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    digests = set()
    for python in args.python:
        done = subprocess.run([python, "-c", _CHILD], cwd=src, env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{python} failed:\n{done.stderr}")
        version, digest = done.stdout.split()
        digests.add(digest)
        print(f"{version:8} {digest}  {python}")
    print("all agree" if len(digests) == 1 else f"{len(digests)} different sha256s")
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
