"""Planning the loop domains of a query's enumeration.

An *atom* is a comparison.  An int variable is *reducible* in a body when
every atom that reads it is linear in it and reads no other int variable.
Such an atom, ``a*x + k op 0`` with ``a != 0``, can change its truth value
only at ``fl = (-k) // a`` or at ``fl + 1``.  ``plan`` gives a reducible
variable ``-B`` and every such point in its box ``[-B, B]``, in increasing
order, and every other int variable its whole box.  Each maximal run of
values on which a reducible variable's atoms keep their truth values starts
at one of these values, so the plan holds the least value of every run; the
``solvers`` docstring shows why that keeps the enumerator's verdicts and
witnesses.

Linear forms are read with explicit stacks, so a term of any depth is read.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from floc.frontend.syntax import Sort
from floc.logic import BIN_OPS, Bin, Formula, IntConst, Neg, VarRef

COMPARISONS = frozenset(op for op, meaning in BIN_OPS.items() if meaning.negated)
_MINUS_ONE = IntConst(-1)


def box(sort: Sort, bound: int) -> Sequence:
    """All values of a variable: ``[-bound, bound]`` for an int."""
    return (False, True) if sort is Sort.BOOL else range(-bound, bound + 1)


def _is_int_term(f: Formula) -> bool:
    t = type(f)
    if t is VarRef:
        return f.var_sort is Sort.INT
    return t is IntConst or t is Neg or (t is Bin and f.op not in COMPARISONS)


def _affine(f: Formula) -> tuple[str | None, int, int] | set[str]:
    """An int term, or the difference of a comparison's sides, as ``(x, a,
    k)`` when it equals ``a*x + k`` (``x`` None and ``a`` 0 when it reads no
    variable), else as the set of variables it reads.

    The walk keeps its own stacks, so a term of any depth is read."""
    forms: list = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:  # an operator; its operands' forms are on top of ``forms``
            right = forms.pop()
            forms[-1] = _combine(g, forms[-1], right)
        elif t is VarRef:
            forms.append((g.name, 1, 0))
        elif t is IntConst:
            forms.append((None, 0, g.value))
        elif t is Neg:
            stack += ("*", g.arg, _MINUS_ONE)
        else:
            stack += (g.op, g.right, g.left)
    return forms[0]


def _combine(op: str, left, right):
    """The form of ``left op right`` from the operands' forms (see
    ``_affine``); a comparison ``op`` gives the difference."""
    if type(left) is set or type(right) is set:
        return _reads(left) | _reads(right)
    lx, la, lk = left
    rx, ra, rk = right
    if op == "*":
        if lx is not None and rx is not None:
            return {lx, rx}
        x, a = (rx, lk * ra) if lx is None else (lx, la * rk)
        return (x, a, lk * rk) if a else (None, 0, lk * rk)
    if op != "+":
        ra, rk = -ra, -rk
    if lx is None or rx is None or lx == rx:
        a = la + ra
        return (lx or rx, a, lk + rk) if a else (None, 0, lk + rk)
    return {lx, rx}


def _reads(form) -> set[str]:
    if type(form) is set:
        return form
    return set() if form[0] is None else {form[0]}


def plan(atoms: Iterable[Bin], boxes: dict[str, int]) -> dict[str, Sequence[int]]:
    """The domain of each int variable of ``boxes`` (name -> bound), read off
    ``atoms``, the comparisons of the body that reads them."""
    points: dict[str, set[int]] = {}
    wide: set[str] = set()  # not reducible: the loop keeps its box
    for f in atoms:
        if len(wide) == len(boxes):
            break
        left, right = f.left, f.right
        if type(left) is VarRef and type(right) is IntConst:  # x op m, the commonest atom
            form = left.name, 1, -right.value
        elif _is_int_term(left):
            form = _affine(f)
        else:
            continue  # a comparison of bools; the int atoms inside it are staged too
        if type(form) is set:
            wide |= form
        elif form[0] is not None:
            x, a, k = form
            fl = (-k) // a
            points.setdefault(x, set()).update((fl, fl + 1))
    domains: dict[str, Sequence[int]] = {}
    for x, b in boxes.items():
        if x in wide:
            domains[x] = box(Sort.INT, b)
        else:
            domains[x] = sorted({-b, *(p for p in points.get(x, ()) if -b <= p <= b)})
    return domains
