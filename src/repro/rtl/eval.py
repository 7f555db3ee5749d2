"""Primitive-op evaluation and Python code generation.

Two implementations with identical semantics:

* :func:`eval_expr` — a tree-walking interpreter, used as the reference.
* :func:`compile_expr` — emits a Python expression string for the compiled
  engine, which ``exec``'s one flat function per circuit (typically ~10x
  faster, important for the multi-thousand-cycle partitioned co-sims).

All values are plain ints masked to their expression width.  Division and
remainder by zero evaluate to zero (a concrete choice for FIRRTL's
undefined case, applied identically in both implementations).
"""

from __future__ import annotations

import functools
from types import CodeType
from typing import Callable, Dict

from ..errors import SimulationError
from ..firrtl.ast import Expr, InstPort, Lit, PrimOp, Ref


def mask(width: int) -> int:
    return (1 << width) - 1


def _div(a: int, b: int) -> int:
    """Division helper exposed to generated code (div-by-zero -> 0)."""
    return a // b if b else 0


def _rem(a: int, b: int) -> int:
    """Remainder helper exposed to generated code (rem-by-zero -> 0)."""
    return a % b if b else 0


#: names the compiled engine must inject into the exec namespace
CODEGEN_HELPERS = {"_div": _div, "_rem": _rem}


@functools.lru_cache(maxsize=256)
def compile_source(src: str, filename: str) -> CodeType:
    """``compile(src, filename, "exec")``, once per process per source.

    Generated sources repeat across rebuilds of the same design (memory
    images and bindings live in the exec namespace, not in the code), and
    ``compile`` holds the GIL for the whole parse, so every code
    generator goes through this memo.  Code objects are immutable; each
    caller still ``exec``'s into its own namespace.
    """
    return compile(src, filename, "exec")


def eval_expr(expr: Expr, env: Dict[str, int]) -> int:
    """Interpret ``expr`` over flat signal values in ``env``."""
    if isinstance(expr, Ref):
        try:
            return env[expr.name]
        except KeyError:
            raise SimulationError(f"no value for signal {expr.name!r}")
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, InstPort):
        raise SimulationError(
            f"unelaborated instance port {expr.inst}.{expr.port}"
        )
    if isinstance(expr, PrimOp):
        return _eval_primop(expr, env)
    raise SimulationError(f"cannot evaluate {expr!r}")


def _eval_primop(expr: PrimOp, env: Dict[str, int]) -> int:
    op = expr.op
    args = expr.args
    m = mask(expr.width)
    if op == "mux":
        sel = eval_expr(args[0], env)
        return eval_expr(args[1] if sel else args[2], env)
    a = eval_expr(args[0], env)
    if op == "not":
        return (~a) & m
    if op == "andr":
        return int(a == mask(args[0].width))
    if op == "orr":
        return int(a != 0)
    if op == "xorr":
        return a.bit_count() & 1
    if op == "bits":
        hi, lo = expr.params
        return (a >> lo) & mask(hi - lo + 1)
    if op == "shl":
        return (a << expr.params[0]) & m
    if op == "shr":
        return (a >> expr.params[0]) & m
    if op == "pad":
        return a
    b = eval_expr(args[1], env)
    if op == "add":
        return (a + b) & m
    if op == "sub":
        return (a - b) & m
    if op == "mul":
        return (a * b) & m
    if op == "div":
        return (a // b) & m if b else 0
    if op == "rem":
        return (a % b) & m if b else 0
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "eq":
        return int(a == b)
    if op == "neq":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "leq":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "geq":
        return int(a >= b)
    if op == "cat":
        return (a << args[1].width) | b
    if op == "dshl":
        return (a << b) & m
    if op == "dshr":
        return a >> b
    raise SimulationError(f"unhandled op {op!r}")


def compile_expr(expr: Expr, name_of: Callable[[str], str]) -> str:
    """Emit a Python expression computing ``expr``.

    ``name_of`` maps flat signal names to the Python identifiers holding
    their current values in the generated function.
    """
    if isinstance(expr, Ref):
        return name_of(expr.name)
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, PrimOp):
        return _compile_primop(expr, name_of)
    raise SimulationError(f"cannot compile {expr!r}")


def _compile_primop(expr: PrimOp, name_of) -> str:
    op = expr.op
    m = mask(expr.width)
    cargs = [compile_expr(a, name_of) for a in expr.args]
    if op == "mux":
        return f"({cargs[1]} if {cargs[0]} else {cargs[2]})"
    a = cargs[0]
    if op == "not":
        return f"((~{a}) & {m})"
    if op == "andr":
        return f"(1 if {a} == {mask(expr.args[0].width)} else 0)"
    if op == "orr":
        return f"(1 if {a} else 0)"
    if op == "xorr":
        # int.bit_count is a single CPython popcount call — no string
        # materialization of the operand as bin() would do
        return f"(({a}).bit_count() & 1)"
    if op == "bits":
        hi, lo = expr.params
        inner = f"({a} >> {lo})" if lo else a
        return f"({inner} & {mask(hi - lo + 1)})"
    if op == "shl":
        return f"(({a} << {expr.params[0]}) & {m})"
    if op == "shr":
        return f"({a} >> {expr.params[0]})"
    if op == "pad":
        return a
    b = cargs[1]
    if op == "add":
        return f"(({a} + {b}) & {m})"
    if op == "sub":
        return f"(({a} - {b}) & {m})"
    if op == "mul":
        return f"(({a} * {b}) & {m})"
    if op == "div":
        return f"(_div({a}, {b}) & {m})"
    if op == "rem":
        return f"(_rem({a}, {b}) & {m})"
    if op == "and":
        return f"({a} & {b})"
    if op == "or":
        return f"({a} | {b})"
    if op == "xor":
        return f"({a} ^ {b})"
    if op == "eq":
        return f"(1 if {a} == {b} else 0)"
    if op == "neq":
        return f"(1 if {a} != {b} else 0)"
    if op == "lt":
        return f"(1 if {a} < {b} else 0)"
    if op == "leq":
        return f"(1 if {a} <= {b} else 0)"
    if op == "gt":
        return f"(1 if {a} > {b} else 0)"
    if op == "geq":
        return f"(1 if {a} >= {b} else 0)"
    if op == "cat":
        return f"(({a} << {expr.args[1].width}) | {b})"
    if op == "dshl":
        return f"((({a}) << ({b})) & {m})"
    if op == "dshr":
        return f"(({a}) >> ({b}))"
    raise SimulationError(f"unhandled op {op!r}")
