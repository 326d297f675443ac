"""Concrete interpreter for MCL, the testing oracle for the WP pipeline.

Integers are mathematical integers (Python ints never wrap).  The interpreter
runs both the frontend AST and the normalizer's three-address form, so
semantic preservation of normalization is directly testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from floc.frontend.syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    Expr,
    FunctionDef,
    If,
    IntLit,
    Neg,
    Not,
    OldSym,
    ResultSym,
    Return,
    Var,
    VarDecl,
    While,
)

Value = int | bool


@dataclass(frozen=True)
class Returned:
    value: Value | None
    globals: dict[str, Value] = field(default_factory=dict)


@dataclass(frozen=True)
class PreconditionViolated:
    function: str


@dataclass(frozen=True)
class FuelExhausted:
    pass


ExecResult = Returned | PreconditionViolated | FuelExhausted


class _Fuel(Exception):
    pass


class _Ret(Exception):
    def __init__(self, value: Value | None):
        self.value = value


class _Pre(Exception):
    def __init__(self, function: str):
        self.function = function


class _Interp:
    def __init__(self, program, fuel: int):
        self.program = program
        self.fuel = fuel
        self.functions = {f.name: f for f in program.functions}
        self.globals: dict[str, Value] = {}
        self.global_names = {g.name for g in program.globals if g.init is None}
        self.consts: dict[str, Value] = {}
        for g in program.globals:
            if g.init is not None:
                self.consts[g.name] = g.init.value
        # What \old and \result read; set only to evaluate ensures clauses.
        self.entry: dict[str, Value] = {}
        self.result: Value | None = None

    def tick(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise _Fuel()

    def call(self, fn, env: dict[str, Value]) -> Value | None:
        local = dict(env)
        for clause in fn.requires:
            if not self.eval(clause, local):
                raise _Pre(fn.name)
        try:
            self.exec_block(fn.body, local)
        except _Ret as r:
            return r.value
        return None

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts, local: dict[str, Value]) -> None:
        seq = stmts.stmts if isinstance(stmts, Block) else stmts
        for s in seq:
            self.exec_stmt(s, local)

    def exec_stmt(self, s, local: dict[str, Value]) -> None:
        from floc.normalizer import CallRhs, NAssign, NIf, NReturn, NWhile

        match s:
            case VarDecl(name=n, init=e):
                local[n] = self.eval(e, local)
            case Assign(target=t, value=e):
                self.store(t, self.eval(e, local), local)
            case If(cond=c, then_block=tb, else_block=eb):
                if self.eval(c, local):
                    self.exec_block(tb, local)
                elif eb is not None:
                    self.exec_block(eb, local)
            case While(cond=c, body=b):
                while True:
                    if not self.eval(c, local):
                        break
                    self.tick()
                    self.exec_block(b, local)
            case Return(value=e):
                raise _Ret(None if e is None else self.eval(e, local))
            case Block():
                self.exec_block(s, local)
            case NAssign(target=t, rhs=rhs):
                if isinstance(rhs, CallRhs):
                    value = self.eval_call(rhs.name, [self.eval(a, local) for a in rhs.args])
                else:
                    value = self.eval(rhs, local)
                self.store(t, value, local)
            case NIf(cond=c, then_stmts=tb, else_stmts=eb):
                self.exec_block(tb if self.eval(c, local) else eb, local)
            case NWhile(prelude=pre, cond=c, body=b):
                while True:
                    self.exec_block(pre, local)
                    if not self.eval(c, local):
                        break
                    self.tick()
                    self.exec_block(b, local)
            case NReturn(value=e):
                raise _Ret(None if e is None else self.eval(e, local))
            case _:
                raise TypeError(f"cannot execute {s!r}")

    def store(self, name: str, value: Value, local: dict[str, Value]) -> None:
        if name in self.global_names:
            self.globals[name] = value
        else:
            local[name] = value

    # -- expressions ----------------------------------------------------------

    def eval(self, e: Expr, local: dict[str, Value]) -> Value:
        match e:
            case IntLit(value=v) | BoolLit(value=v):
                return v
            case Var(name=n):
                if n in local:
                    return local[n]
                if n in self.globals:
                    return self.globals[n]
                if n in self.consts:
                    return self.consts[n]
                raise KeyError(f"unbound variable {n!r}")
            case Neg(arg=a):
                return -self.eval(a, local)
            case Not(arg=a):
                return not self.eval(a, local)
            case Binary(op=op, left=l, right=r):
                # Both operands are evaluated, also for && and ||: a call in
                # the right operand runs (and checks its precondition) as
                # it does in the normalized form, which hoists it.
                lv, rv = self.eval(l, local), self.eval(r, local)
                match op:
                    case "+":
                        return lv + rv
                    case "-":
                        return lv - rv
                    case "*":
                        return lv * rv
                    case "<":
                        return lv < rv
                    case "<=":
                        return lv <= rv
                    case ">":
                        return lv > rv
                    case ">=":
                        return lv >= rv
                    case "==":
                        return lv == rv
                    case "!=":
                        return lv != rv
                    case "&&":
                        return lv and rv
                    case "||":
                        return lv or rv
            case CallExpr(name=n, args=args):
                return self.eval_call(n, [self.eval(a, local) for a in args])
            case ResultSym():
                assert self.result is not None
                return self.result
            case OldSym(name=n):
                return self.consts[n] if n in self.consts else self.entry[n]
        raise TypeError(f"cannot evaluate {e!r}")

    def eval_call(self, name: str, arg_values: list[Value]) -> Value:
        callee = self.functions[name]
        env = {p.name: v for p, v in zip(callee.params, arg_values)}
        result = self.call(callee, env)
        assert result is not None
        return result


def interpret(program, fname: str, env: dict[str, Value], fuel: int = 100_000) -> ExecResult:
    """Run one function under the given input valuation.

    ``env`` must assign a value to every parameter and every uninitialized
    global; initialized globals are named constants and may not be supplied.
    """
    interp = _Interp(program, fuel)
    fn = program.function(fname)
    mutable_globals = [g.name for g in program.globals if g.init is None]
    expected = {p.name for p in fn.params} | set(mutable_globals)
    if set(env) != expected:
        missing = expected - set(env)
        extra = set(env) - expected
        raise ValueError(f"bad input valuation (missing={sorted(missing)}, extra={sorted(extra)})")
    interp.globals = {n: env[n] for n in mutable_globals}
    local = {p.name: env[p.name] for p in fn.params}
    try:
        result = interp.call(fn, local)
    except _Pre as p:
        return PreconditionViolated(p.function)
    except _Fuel:
        return FuelExhausted()
    return Returned(result, dict(interp.globals))


def eval_post(
    program,
    fn: FunctionDef,
    entry_env: dict[str, Value],
    result: Value | None,
    final_globals: dict[str, Value],
) -> bool:
    """Evaluate the conjunction of the ensures clauses against an execution.

    ``\\old(g)`` reads the entry valuation, plain globals read the final
    state, ``\\result`` reads the returned value.  Contracts are call-free
    and no local shadows a global, so the interpreter's own expression
    evaluator reads them with the parameters' entry values as its locals.
    """
    interp = _Interp(program, fuel=0)
    interp.globals = final_globals
    interp.entry = entry_env
    interp.result = result
    params = {p.name: entry_env[p.name] for p in fn.params}
    return all(bool(interp.eval(clause, params)) for clause in fn.ensures)
