"""The base of all of floc's record classes: the AST, normalized statements,
tokens, operator-table entries, the formula IR, queries, verdicts, nest levels,
built domains and result records.

A subclass names its fields as annotations; inherited fields come first. A
default is a plain class attribute, and a pseudo-field ``_: KW_ONLY`` makes
the fields after it keyword-only. The base turns the fields into
``__slots__`` and gives the class ``_fields`` (every field name, in order),
``__match_args__`` (the positional ones), ``__init__`` and ``__repr__``;
``__init__`` calls ``__post_init__`` when the class has one.

- ``Node`` subclasses are mutable and compare by identity: the AST and the
  normalized statements, where each occurrence is its own node.
- ``Frozen`` subclasses refuse assignment and deletion, and compare and hash
  by their fields: all the others. vcgen shares formulas between queries by
  identity, so immutability is load-bearing.

No method is generated from source. ``__init__`` is a copy of the template
below for the class's field count, with the template's names replaced by the
fields', so construction runs as fast as an ``__init__`` written for the
class, and a class costs microseconds to define. ``Frozen``'s ``__eq__`` and
``__hash__`` are one generic pair over the field tuple. No pass compares or
hashes a frozen record (``floc.logic``'s smart constructors test a literal by
its type and value), so only tests and outside callers pay for that pair.
"""

from __future__ import annotations

from types import FunctionType


class KW_ONLY:
    """Annotate a pseudo-field with this to make the fields after it keyword-only."""


# Each method below is written once per number of fields. A class gets a copy
# with the attribute names f0, f1, ... and the parameter names a0, a1, ...
# renamed to its fields.

# Node.__init__: one attribute store per field.
def _init0(self): pass
def _init1(self, a0): self.f0 = a0
def _init2(self, a0, a1): self.f0 = a0; self.f1 = a1
def _init3(self, a0, a1, a2): self.f0 = a0; self.f1 = a1; self.f2 = a2
def _init4(self, a0, a1, a2, a3): self.f0 = a0; self.f1 = a1; self.f2 = a2; self.f3 = a3
def _init5(self, a0, a1, a2, a3, a4):
    self.f0 = a0; self.f1 = a1; self.f2 = a2; self.f3 = a3; self.f4 = a4
def _init6(self, a0, a1, a2, a3, a4, a5):
    self.f0 = a0; self.f1 = a1; self.f2 = a2; self.f3 = a3; self.f4 = a4; self.f5 = a5
def _init7(self, a0, a1, a2, a3, a4, a5, a6):
    self.f0 = a0; self.f1 = a1; self.f2 = a2; self.f3 = a3; self.f4 = a4; self.f5 = a5
    self.f6 = a6
def _init8(self, a0, a1, a2, a3, a4, a5, a6, a7):
    self.f0 = a0; self.f1 = a1; self.f2 = a2; self.f3 = a3; self.f4 = a4; self.f5 = a5
    self.f6 = a6; self.f7 = a7


# Frozen.__init__: each field is set through its slot's own setter, which the
# refusing __setattr__ does not intercept.
def _set0():
    def init(self): pass
    return init
def _set1(s0):
    def init(self, a0): s0(self, a0)
    return init
def _set2(s0, s1):
    def init(self, a0, a1): s0(self, a0); s1(self, a1)
    return init
def _set3(s0, s1, s2):
    def init(self, a0, a1, a2): s0(self, a0); s1(self, a1); s2(self, a2)
    return init
def _set4(s0, s1, s2, s3):
    def init(self, a0, a1, a2, a3): s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3)
    return init
def _set5(s0, s1, s2, s3, s4):
    def init(self, a0, a1, a2, a3, a4):
        s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3); s4(self, a4)
    return init
def _set6(s0, s1, s2, s3, s4, s5):
    def init(self, a0, a1, a2, a3, a4, a5):
        s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3); s4(self, a4); s5(self, a5)
    return init
def _set7(s0, s1, s2, s3, s4, s5, s6):
    def init(self, a0, a1, a2, a3, a4, a5, a6):
        s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3); s4(self, a4); s5(self, a5)
        s6(self, a6)
    return init
def _set8(s0, s1, s2, s3, s4, s5, s6, s7):
    def init(self, a0, a1, a2, a3, a4, a5, a6, a7):
        s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3); s4(self, a4); s5(self, a5)
        s6(self, a6); s7(self, a7)
    return init


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5, _init6, _init7, _init8)
_SETS = (_set0, _set1, _set2, _set3, _set4, _set5, _set6, _set7, _set8)
_ATTRS = ("f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7")
_PARAMS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")


def _make_init(cls, positional: list[str], keyword: list[str], defaults: dict):
    """``cls.__init__``: a copy of the template for its field count, with its fields' names."""
    names = (*positional, *keyword)
    if cls._frozen:
        template = _SETS[len(names)](*(getattr(cls, n).__set__ for n in names))
    else:
        template = _INITS[len(names)]
    attrs = dict(zip(_ATTRS, names)).get
    params = dict(zip(_PARAMS, names)).get
    code = template.__code__
    code = code.replace(
        co_names=tuple(map(attrs, code.co_names, code.co_names)),
        co_varnames=tuple(map(params, code.co_varnames, code.co_varnames)),
        co_name="__init__",
        co_argcount=1 + len(positional),
        co_kwonlyargcount=len(keyword),
    )
    init = FunctionType(code, template.__globals__, "__init__", None, template.__closure__)
    # Not ``co_qualname=`` above: ``CodeType.replace`` takes it only from 3.11 on.
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    tail = [n for n in positional if n in defaults]
    if tail != positional[len(positional) - len(tail):]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    init.__defaults__ = tuple(defaults[n] for n in tail) or None
    init.__kwdefaults__ = {n: defaults[n] for n in keyword if n in defaults} or None
    post = getattr(cls, "__post_init__", None)
    if post is None:
        return init

    def checked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        post(self)
    return checked_init


class _NodeMeta(type):
    def __new__(mcls, name, bases, ns):
        base = bases[0] if bases else object
        kw_names = set(getattr(base, "_keyword", ()))
        defaults = dict(getattr(base, "_defaults", {}))
        own = []
        kw_only = False
        for f, tp in ns.get("__annotations__", {}).items():
            if tp in ("KW_ONLY", KW_ONLY):  # the text, under postponed annotations
                kw_only = True
                continue
            own.append(f)
            if kw_only:
                kw_names.add(f)
            if f in ns:
                defaults[f] = ns.pop(f)
        fields = (*getattr(base, "_fields", ()), *own)
        positional = [f for f in fields if f not in kw_names]
        keyword = [f for f in fields if f in kw_names]
        ns["__slots__"] = (*own, *ns.get("__slots__", ()))
        ns["_fields"] = fields
        ns["_keyword"] = tuple(keyword)
        ns["_defaults"] = defaults
        ns["__match_args__"] = tuple(positional)
        if len(fields) >= len(_INITS):
            raise TypeError(f"{name}: a node has at most {len(_INITS) - 1} fields")
        cls = super().__new__(mcls, name, bases, ns)
        cls.__init__ = _make_init(cls, positional, keyword, defaults)
        return cls


class _InstanceFields:
    """A node's field names under ``__dataclass_fields__``, the name that
    bench/tracing.py's count_nodes walks. The class itself lacks the attribute,
    so the standard library's ``is_dataclass``, which asks the class, is false
    for nodes, and its ``asdict``/``fields`` helpers treat them as plain objects."""

    def __get__(self, node, cls=None):
        if node is None:
            raise AttributeError("__dataclass_fields__")
        return node._fields


class Node(metaclass=_NodeMeta):
    __slots__ = ()
    _frozen = False
    __dataclass_fields__ = _InstanceFields()

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"


class Frozen(Node):
    __slots__ = ()
    _frozen = True

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __setstate__(self, state):
        """Restore the slots that ``copy`` and ``pickle`` saved."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _values(node: Node) -> tuple:
    return tuple([getattr(node, f) for f in node._fields])


def replace(node: Node, **changes) -> Node:
    """A new node of the same class, with ``changes`` in place of its fields."""
    values = {f: getattr(node, f) for f in node._fields}
    values.update(changes)
    return type(node)(**values)
