"""Well-formedness checks for circuits.

Checks are deliberately strict: every connect target must be declared and
driven exactly once, every reference must resolve, instance ports must
match the instantiated module's signature, and connect directions must be
legal (local outputs/wires/registers, instance inputs).  FireRipper runs
this before and after its transforms as a sanity net.
"""

from __future__ import annotations

from typing import Dict, Set

from ...errors import IRError
from ..ast import (
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    Expr,
    InstPort,
    InstTarget,
    LocalTarget,
    MemReadPort,
    MemWritePort,
    Ref,
)
from ..circuit import Circuit, Module


def check_circuit(circuit: Circuit) -> None:
    """Validate every module; raise :class:`IRError` on the first problem."""
    for module in circuit.modules.values():
        check_module(module, circuit)
    # instance targets resolve
    for module in circuit.modules.values():
        for inst in module.instances():
            if inst.module not in circuit.modules:
                raise IRError(
                    f"{module.name}: instance {inst.name} of missing module "
                    f"{inst.module!r}"
                )


def check_module(module: Module, circuit: Circuit = None) -> None:
    """Validate one module (signature checks need the circuit)."""
    declared: Set[str] = set()
    for name in module.defined_names():
        if name in declared:
            raise IRError(f"{module.name}: duplicate declaration {name!r}")
        declared.add(name)

    mems = {m.name for m in module.memories()}
    insts: Dict[str, str] = {i.name: i.module for i in module.instances()}
    inputs = {p.name for p in module.input_ports}
    connect_targets: Set[str] = set()
    # name -> width, built once (names are unique past the check above)
    mem_widths = {m.name: m.width for m in module.memories()}
    widths = {p.name: p.width for p in module.ports}
    for s in module.stmts:
        if isinstance(s, (DefWire, DefRegister)):
            widths[s.name] = s.width
        elif isinstance(s, DefNode):
            widths[s.name] = s.expr.width
        elif isinstance(s, MemReadPort) and s.mem in mem_widths:
            widths[s.name] = mem_widths[s.mem]

    def width_of(name: str):
        # a miss falls back to the scan, which raises for a read port of
        # an undeclared memory and returns None for an undeclared name
        width = widths.get(name)
        return width if width is not None else module.try_signal_width(name)

    def check_expr(expr: Expr) -> None:
        for leaf in expr.refs():
            if isinstance(leaf, Ref):
                width = width_of(leaf.name)
                if width is None:
                    raise IRError(
                        f"{module.name}: reference to undeclared signal "
                        f"{leaf.name!r}"
                    )
                if width != leaf.width:
                    raise IRError(
                        f"{module.name}: {leaf.name} has width {width}, "
                        f"referenced with width {leaf.width}"
                    )
            elif isinstance(leaf, InstPort):
                _check_inst_port(module, circuit, insts, leaf.inst,
                                 leaf.port, expect_output=True,
                                 width=leaf.width)

    for s in module.stmts:
        if isinstance(s, MemReadPort):
            if s.mem not in mems:
                raise IRError(f"{module.name}: read from unknown mem {s.mem!r}")
            check_expr(s.addr)
        elif isinstance(s, MemWritePort):
            if s.mem not in mems:
                raise IRError(f"{module.name}: write to unknown mem {s.mem!r}")
            check_expr(s.addr)
            check_expr(s.data)
            check_expr(s.en)
        elif isinstance(s, DefNode):
            check_expr(s.expr)
        elif isinstance(s, Connect):
            check_expr(s.expr)
            key = str(s.target)
            if key in connect_targets:
                raise IRError(f"{module.name}: {key} driven twice")
            connect_targets.add(key)
            if isinstance(s.target, LocalTarget):
                name = s.target.name
                if name in inputs:
                    raise IRError(
                        f"{module.name}: cannot drive input port {name!r}"
                    )
                width = width_of(name)
                if width is None:
                    raise IRError(
                        f"{module.name}: connect to undeclared {name!r}"
                    )
                if width != s.expr.width:
                    raise IRError(
                        f"{module.name}: connect {name} width mismatch "
                        f"({width} vs {s.expr.width})"
                    )
            elif isinstance(s.target, InstTarget):
                _check_inst_port(module, circuit, insts, s.target.inst,
                                 s.target.port, expect_output=False,
                                 width=s.expr.width)

    # every output port and wire should be driven (registers may hold)
    for p in module.output_ports:
        if p.name not in connect_targets:
            raise IRError(
                f"{module.name}: output port {p.name!r} is never driven"
            )
    for s in module.stmts:
        if isinstance(s, DefWire) and s.name not in connect_targets:
            raise IRError(f"{module.name}: wire {s.name!r} is never driven")


def _check_inst_port(module: Module, circuit: Circuit,
                     insts: Dict[str, str], inst: str, port: str,
                     expect_output: bool, width: int) -> None:
    if inst not in insts:
        raise IRError(f"{module.name}: unknown instance {inst!r}")
    if circuit is None:
        return
    child = circuit.modules.get(insts[inst])
    if child is None:
        raise IRError(
            f"{module.name}: instance {inst} of missing module "
            f"{insts[inst]!r}"
        )
    p = child.port(port)
    if expect_output and p.is_input:
        raise IRError(
            f"{module.name}: reads input port {inst}.{port} of child"
        )
    if not expect_output and not p.is_input:
        raise IRError(
            f"{module.name}: drives output port {inst}.{port} of child"
        )
    if p.width != width:
        raise IRError(
            f"{module.name}: {inst}.{port} width mismatch "
            f"({p.width} vs {width})"
        )
