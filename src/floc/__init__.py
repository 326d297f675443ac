"""floc: contract violation detection and expression-level error localization.

The pipeline: parse MCL source, typecheck, normalize to three-address form,
generate weakest-precondition proof obligations, and decide which candidate
expressions can be replaced so the function meets its contract on all inputs.
"""

from floc.frontend import parse, typecheck
from floc.normalizer import normalize
from floc.solvers import SolverConfig
from floc.localize import verify, localize

__version__ = "0.1.0"

__all__ = [
    "parse",
    "typecheck",
    "interpret",
    "normalize",
    "SolverConfig",
    "verify",
    "localize",
    "__version__",
]


def __getattr__(name: str):
    # The interpreter is a testing oracle that no analysis calls, so it is
    # loaded on first use.
    if name == "interpret":
        from floc.frontend.interp import interpret

        return interpret
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
