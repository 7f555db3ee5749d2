"""Module and Circuit container behaviour."""

import copy

import pytest

from repro.errors import IRError
from repro.firrtl import ModuleBuilder, make_circuit, print_circuit
from repro.firrtl.ast import (
    Connect,
    InstTarget,
    LocalTarget,
    Lit,
    PrimOp,
    Ref,
)
from repro.firrtl.circuit import Circuit, Module


def _leaf(name="Leaf"):
    b = ModuleBuilder(name)
    a = b.input("a", 4)
    y = b.output("y", 4)
    b.connect(y, a + 1)
    return b.build()


def _two_level():
    leaf = _leaf()
    mid = ModuleBuilder("Mid")
    a = mid.input("a", 4)
    y = mid.output("y", 4)
    i = mid.inst("inner", leaf)
    mid.connect(i["a"], a)
    mid.connect(y, i["y"])
    mid_m = mid.build()

    top = ModuleBuilder("Top")
    a2 = top.input("a", 4)
    y2 = top.output("y", 4)
    m = top.inst("middle", mid_m)
    top.connect(m["a"], a2)
    top.connect(y2, m["y"])
    return make_circuit(top.build(), [mid_m, leaf])


class TestModule:
    def test_port_lookup(self):
        m = _leaf()
        assert m.port("a").width == 4
        with pytest.raises(IRError):
            m.port("nope")

    def test_signal_width(self):
        m = _leaf()
        assert m.signal_width("y") == 4
        assert m.try_signal_width("missing") is None

    def test_fresh_name(self):
        m = _leaf()
        assert m.fresh_name("a") == "a_0"
        assert m.fresh_name("brand_new") == "brand_new"

    def test_connect_map_duplicate(self):
        m = _leaf()
        m.stmts.append(m.stmts[-1])  # duplicate the connect
        with pytest.raises(IRError):
            m.connect_map()


class TestCircuit:
    def test_missing_top(self):
        with pytest.raises(IRError):
            Circuit("Ghost", [_leaf()])

    def test_duplicate_module(self):
        with pytest.raises(IRError):
            Circuit("Leaf", [_leaf(), _leaf()])

    def test_instance_paths(self):
        c = _two_level()
        assert c.instance_paths("Leaf") == ["middle.inner"]
        assert c.instance_paths("Mid") == ["middle"]

    def test_resolve_path(self):
        c = _two_level()
        inst = c.resolve_path("middle.inner")
        assert inst.module == "Leaf"
        with pytest.raises(IRError):
            c.resolve_path("middle.bogus")

    def test_parent_of(self):
        c = _two_level()
        assert c.parent_of("middle.inner").name == "Mid"
        assert c.parent_of("middle").name == "Top"

    def test_clone_is_deep(self):
        c = _two_level()
        clone = c.clone()
        clone.module("Leaf").ports.append(
            _leaf("Other").ports[0])
        assert len(c.module("Leaf").ports) == 2

    def test_remove_unreachable(self):
        c = _two_level()
        c.add_module(_leaf("Orphan"))
        c.remove_unreachable()
        assert "Orphan" not in c.modules
        assert set(c.modules) == {"Top", "Mid", "Leaf"}

    def test_stats(self):
        c = _two_level()
        stats = c.stats()
        assert stats["modules"] == 3
        assert stats["instances"] == 2
        assert stats["connects"] == 5


class TestMakeCircuit:
    def test_missing_library_module(self):
        leaf = _leaf()
        b = ModuleBuilder("Top")
        out = b.output("o", 4)
        i = b.inst("x", leaf)
        b.connect(i["a"], 0)
        b.connect(out, i["y"])
        top = b.build()
        with pytest.raises(IRError):
            make_circuit(top, [])  # leaf not provided

    def test_ignores_unrelated(self):
        leaf = _leaf()
        unrelated = _leaf("Unused")
        b = ModuleBuilder("Top")
        out = b.output("o", 4)
        i = b.inst("x", leaf)
        b.connect(i["a"], 0)
        b.connect(out, i["y"])
        c = make_circuit(b.build(), [leaf, unrelated])
        assert "Unused" not in c.modules


def _stmt_ids(circuit):
    return {id(x) for m in circuit.modules.values()
            for x in m.ports + m.stmts}


class TestSharing:
    """Expressions and targets are immutable and shared between
    circuits; ports and statements are owned by one module."""

    def test_copies_of_immutable_values_are_the_value(self):
        expr = PrimOp("add", (Ref("a", 4), Lit(1, 4)), 4)
        for value in (expr, LocalTarget("y"), InstTarget("i", "a")):
            assert copy.copy(value) is value
            assert copy.deepcopy(value) is value

    def test_clone_owns_statements_and_shares_exprs(self):
        c = _two_level()
        clone = c.clone()
        assert print_circuit(clone) == print_circuit(c)
        assert list(clone.modules) == list(c.modules)
        assert _stmt_ids(clone).isdisjoint(_stmt_ids(c))
        for name, m in c.modules.items():
            for old, new in zip(m.stmts, clone.module(name).stmts):
                if isinstance(old, Connect):
                    assert new.expr is old.expr

    def test_clone_statement_edit_leaves_original(self):
        c = _two_level()
        clone = c.clone()
        clone.top_module.instance("middle").module = "Leaf"
        clone.module("Leaf").ports[0].width = 8
        assert c.top_module.instance("middle").module == "Mid"
        assert c.module("Leaf").ports[0].width == 4
