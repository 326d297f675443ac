"""Planning the loop domains of a query's enumeration.

An *atom* is a comparison.  An int atom reads as a linear form
``sum(a_v * v) + k op 0``; a nonlinear one gives every variable it reads its
whole box ``[-B, B]``.  A linear atom's *owner* is its variable that comes
last in loop order, and its other variables are *outer* to the owner.  A
linear atom is first divided by its content, the gcd of its coefficients and
``k``, which keeps its truth set and shortens the code of its points.

Once the outer values are fixed, such an atom is ``a*x + K op 0`` in its
owner ``x``, and splits ``x``'s values into runs on which its truth value
does not change (Cooper's test points).  ``==`` and ``!=`` can change at
``fl = (-K) // a`` and at ``fl + 1``; an ordering has one second run, which
starts at ``-(K // a)`` when ``a > 0`` with ``>=`` or ``<`` or ``a < 0`` with
``>`` or ``<=``, and at ``(-K) // a + 1`` otherwise.  An owner runs over
``-B`` and the points of its atoms that fall in its box, in increasing
order, so its domain holds the least value of every run of its atoms
together.  When ``a`` is 1 or -1 in every atom of ``x`` that reads an outer
variable, those atoms' points, each ``-a*K`` or ``-a*K + 1``, are affine in
the outer variables: Python code over their loop variables, and the domain is
built in the nest once per point of the innermost loop it reads.  Any other
``a`` would need a floor division of the outer values (over Z, Cooper's
divisibility terms), so such an owner keeps its box.

Variables are planned from the innermost loop outward.  What a built owner's
loop and the loops inside it read of the outer values is pushed out as
*derived* atoms over the outer variables, each filed under its own owner
like any other atom: for each point ``t``, ``t <= B``, and for each pair of
points ``s``, ``t``, ``-B`` included (which gives ``-B <= t``),
``t - s == 0``, whose runs carry the sign of ``t - s`` (a unit step of its
owner meets zero, and otherwise its points hold those of ``t - s < 0``).
Each atom of the owner is then fixed at a point by the sign of the point's
difference with the atom's own point.  The variables outer to an owner's
atoms keep their box when the owner keeps its box (it is read nonlinearly,
a point needs a floor division, or by the skip rule below), when it has as
many points as its box has values, or when the query's nest is too small
for deriving to pay (``_DERIVE_FROM``).  The ``solvers`` docstring shows why
all this keeps the enumerator's verdicts and witnesses.

Building a domain costs more than a plain loop over a small box, so an
innermost loop directly inside the loop it reads keeps its box.

Linear forms are read with explicit stacks, so a term of any depth is read.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from floc.frontend.syntax import Sort
from floc.logic import BIN_OPS, Bin, Formula, IntConst, Neg, VarRef

COMPARISONS = frozenset(op for op, meaning in BIN_OPS.items() if meaning.negated)
_DERIVE_FROM = 1024  # points of a nest's boxes: deriving atoms costs about as much as running that many
_MINUS_ONE = IntConst(-1)


class Built(NamedTuple):
    """A domain that reads outer variables: the domain is the box's values
    among ``points``, Python code of a set, to build once per point of the
    loop at ``level``, the innermost loop it reads."""

    level: int
    points: str


def box(sort: Sort, bound: int) -> Sequence:
    """All values of a variable: ``[-bound, bound]`` for an int."""
    return (False, True) if sort is Sort.BOOL else range(-bound, bound + 1)


def _is_int_term(f: Formula) -> bool:
    t = type(f)
    if t is VarRef:
        return f.var_sort is Sort.INT
    return t is IntConst or t is Neg or (t is Bin and f.op not in COMPARISONS)


def _affine(f: Formula) -> tuple[dict[str, int], int] | set[str]:
    """An int term, or the difference of a comparison's sides, as
    ``(coefficients, k)`` when it equals ``sum(a_v * v) + k`` (no zero
    coefficient kept), else as the set of variables it reads.

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
            forms.append(({g.name: 1}, 0))
        elif t is IntConst:
            forms.append(({}, g.value))
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
    (lc, lk), (rc, rk) = left, right
    if op == "*":
        if lc and rc:
            return {*lc, *rc}
        coeffs, m = (lc, rk) if lc else (rc, lk)
        return ({v: a * m for v, a in coeffs.items()} if m else {}), lk * rk
    sign = 1 if op == "+" else -1
    coeffs = dict(lc)
    for v, a in rc.items():
        a = coeffs.get(v, 0) + sign * a
        if a:
            coeffs[v] = a
        else:
            del coeffs[v]
    return coeffs, lk + sign * rk


def _reads(form) -> set[str]:
    return form if type(form) is set else set(form[0])


def _code(coeffs: Iterable[tuple[str, int]], k: int, loops: dict[str, tuple[str, int]]) -> str:
    """Python code of ``sum(a_v * v) + k``, given as (variable, coefficient)
    pairs, over the loop variables, in loop order: ``v2 + 1``, ``-v1 + 3``,
    ``2 * v1 - v3``."""
    code = ""
    for v, a in sorted(coeffs, key=lambda term: loops[term[0]][1]):
        term = loops[v][0] if abs(a) == 1 else f"{abs(a)} * {loops[v][0]}"
        code += (" - " if a < 0 else " + ") + term
    if k:
        code += (" - " if k < 0 else " + ") + str(abs(k))
    return "-" + code[3:] if code[1] == "-" else code[3:]


def _points(op: str, a: int, k: int) -> tuple[int, ...]:
    """Where ``a*x + k op 0`` can start a run of ``x``, but its first run."""
    if op == "==" or op == "!=":
        return (-k) // a, (-k) // a + 1
    if (a > 0) == (op == ">=" or op == "<"):  # the second run starts at ceil(-k / a)
        return (-(k // a),)
    return ((-k) // a + 1,)


def _starts(op: str, a: int, outer: dict[str, int], k: int) -> list:
    """``_points`` of ``a*x + sum(outer) + k op 0``, ``a`` 1 or -1, in the
    outer variables: ``(at, n)``, the form ``sum(c * v for v, c in at) + n``."""
    at = tuple(sorted((v, -a * c) for v, c in outer.items()))  # -c / a is -a * c
    return [(at, n) for n in _points(op, a, k)]


def _file(found: dict, linked: dict, op: str, coeffs: dict[str, int], k: int, loops) -> None:
    """File the atom ``sum(a_v * v) + k op 0``, divided by its content, under
    its owner ``x``: the points of an atom over ``x`` alone in ``found``, else
    ``(op, a, outer, k)`` in ``linked``.  A constant atom is dropped."""
    g = math.gcd(k, *coeffs.values())
    if g > 1:  # the atom's content: dividing it out keeps its truth set
        coeffs, k = {v: a // g for v, a in coeffs.items()}, k // g
    if len(coeffs) == 1:
        ((x, a),) = coeffs.items()
        found.setdefault(x, set()).update(_points(op, a, k))
    elif coeffs:
        x = max(coeffs, key=lambda v: loops[v][1])
        a = coeffs.pop(x)
        linked.setdefault(x, []).append((op, a, coeffs, k))


def _derive(found: dict, linked: dict, points: list, b: int, loops) -> None:
    """File, as atoms over the outer variables, what the loop of an owner
    with the affine ``points`` (``-b`` first) reads of the outer values: the
    box membership of each point and the sign of each pair's difference.  An
    equation's runs carry that sign, since a unit step of its owner meets
    zero, and its points hold those of any comparison of the pair."""
    for i, (tc, tk) in enumerate(points):
        if tc:  # t <= b; -b <= t is the sign of t + b
            _file(found, linked, "<=", dict(tc), tk - b, loops)
        for sc, sk in points[:i]:
            if sc != tc:  # else the sign is a constant
                _file(found, linked, "==", *_combine("-", (dict(tc), tk), (dict(sc), sk)), loops)


def _derives(loops: dict, boxes: dict[str, int]) -> bool:
    """Whether a nest derives atoms: not one whose boxes hold fewer points
    than deriving costs to run."""
    size = math.prod(2 * b + 1 for b in boxes.values()) << (len(loops) - len(boxes))
    return size >= _DERIVE_FROM


def plan(
    atoms: Iterable[Bin],
    loops: dict[str, tuple[str, int]],
    boxes: dict[str, int],
) -> dict[str, Sequence[int] | Built]:
    """The domain of each int variable of ``boxes`` (name -> bound), read off
    ``atoms``, the comparisons of the body.  ``loops`` maps every looped
    variable, in loop order, to its loop variable and level in the nest."""
    found: dict[str, set[int]] = {}  # owner -> the points of its atoms over it alone
    linked: dict[str, list] = {}  # owner -> (op, a, outer, k) of its atoms that read outer variables
    wide: set[str] = set()  # not planned: the loop keeps its box
    for f in atoms:
        if len(wide) == len(boxes):
            break
        left, right = f.left, f.right
        if type(left) is VarRef and type(right) is IntConst:  # x op m, the commonest atom
            found.setdefault(left.name, set()).update(_points(f.op, 1, -right.value))
        elif _is_int_term(left):  # else a comparison of bools; the int atoms inside it are staged too
            form = _affine(f)
            if type(form) is set:
                wide |= form
            else:
                _file(found, linked, f.op, *form, loops)
    outside, innermost = [0, 0, *(level for _, level in loops.values())][-2:]
    domains: dict[str, Sequence[int] | Built] = {}
    for x in reversed(loops):  # innermost first
        if x not in boxes:
            continue
        b, mine = boxes[x], linked.get(x, ())
        if x in wide or any(abs(a) != 1 for _, a, _, _ in mine):  # or a point needs a floor division
            domains[x] = box(Sort.INT, b)
            wide.update(v for _, _, outer, _ in mine for v in outer)
            continue
        values = sorted({-b, *(p for p in found.get(x, ()) if -b <= p <= b)})
        if not mine:
            domains[x] = values
            continue
        reads = {v for _, _, outer, _ in mine for v in outer}
        level = max(loops[v][1] for v in reads)
        if level == outside and loops[x][1] == innermost:
            domains[x] = box(Sort.INT, b)
            wide |= reads
            continue
        points = {p for atom in mine for p in _starts(*atom)}
        codes = sorted(_code(*p, loops) for p in points)
        domains[x] = Built(level, "{" + ", ".join([*map(str, values), *codes]) + "}")
        if len(values) + len(codes) > 2 * b or not _derives(loops, boxes):
            wide |= reads  # as many points as the box, or a nest too small
        else:
            _derive(found, linked, [((), v) for v in values] + [*points], b, loops)
    return domains
