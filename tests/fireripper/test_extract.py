"""Extraction transform: uniquify, reparent, grouping, removal."""

import pytest

from repro.errors import SelectionError
from repro.firrtl import ModuleBuilder, make_circuit, print_circuit
from repro.firrtl.passes import check_circuit
from repro.fireripper import FireRipper, PartitionGroup, PartitionSpec
from repro.fireripper.extract import (
    ExtractedDesign,
    extract_partitions,
    remove_modules,
)
from repro.fuzz.oracle import functional_digest
from repro.platform import QSFP_AURORA
from repro.rtl import Simulator
from repro.rtl.eval import compile_source
from repro.targets import make_comb_pair_circuit
from repro.targets.soc import make_star_soc


def _deep_circuit():
    """Top -> Wrapper -> Leaf, with the same Leaf also directly in Top
    (forces uniquification when extracting the nested one)."""
    lb = ModuleBuilder("Leaf")
    a = lb.input("a", 8)
    y = lb.output("y", 8)
    r = lb.reg("acc", 8)
    lb.connect(r, r + a)
    lb.connect(y, r)
    leaf = lb.build()

    wb = ModuleBuilder("Wrap")
    wa = wb.input("a", 8)
    wy = wb.output("y", 8)
    wi = wb.inst("inner", leaf)
    wb.connect(wi["a"], wa + 1)
    wb.connect(wy, wi["y"])
    wrap = wb.build()

    tb = ModuleBuilder("Deep")
    x = tb.input("x", 8)
    out1 = tb.output("o1", 8)
    out2 = tb.output("o2", 8)
    w = tb.inst("w", wrap)
    d = tb.inst("direct", leaf)
    tb.connect(w["a"], x)
    tb.connect(d["a"], x)
    tb.connect(out1, w["y"])
    tb.connect(out2, d["y"])
    return make_circuit(tb.build(), [wrap, leaf])


class TestValidation:
    def test_unknown_path(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"g": ["ghost"]})

    def test_ancestor_conflict(self):
        c = _deep_circuit()
        with pytest.raises(SelectionError, match="ancestor"):
            extract_partitions(c, {"g": ["w", "w.inner"]})

    def test_duplicate_path(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"g1": ["right"], "g2": ["right"]})

    def test_empty_group(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"g": []})

    def test_base_name_collision(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"base": ["right"]})


class TestTopLevelExtraction:
    def test_partitions_well_formed(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g": ["right"]})
        for part in design.partitions.values():
            check_circuit(part)

    def test_original_untouched(self):
        c = make_comb_pair_circuit()
        before = len(c.top_module.stmts)
        extract_partitions(c, {"g": ["right"]})
        assert len(c.top_module.stmts) == before

    def test_nets_have_matching_ports(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g": ["right"]})
        for net in design.nets:
            src_top = design.partitions[net.src].top_module
            dst_top = design.partitions[net.dst].top_module
            assert not src_top.port(net.name).is_input
            assert dst_top.port(net.name).is_input
            assert src_top.port(net.name).width == net.width

    def test_boundary_is_four_nets(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g": ["right"]})
        assert len(design.nets) == 4
        directions = {(n.src, n.dst) for n in design.nets}
        assert directions == {("base", "g"), ("g", "base")}


class TestDeepExtraction:
    def test_nested_instance_reparents(self):
        c = _deep_circuit()
        design = extract_partitions(c, {"g": ["w.inner"]})
        for part in design.partitions.values():
            check_circuit(part)
        # the extracted partition top holds the leaf
        g = design.partitions["g"]
        assert any(i.module == "Leaf" or i.module.startswith("Leaf")
                   for i in g.top_module.instances())

    def test_uniquify_leaves_sibling_leaf_alone(self):
        c = _deep_circuit()
        design = extract_partitions(c, {"g": ["w.inner"]})
        base = design.partitions["base"]
        # the direct Leaf instance must survive in the base
        assert any(i.module == "Leaf"
                   for i in base.top_module.instances())

    def test_extraction_preserves_behavior(self):
        """Base + extracted recombined (via direct token plumbing)
        behave like the original: check via a manual co-execution."""
        c = _deep_circuit()
        mono = Simulator(c)
        design = extract_partitions(c, {"g": ["w.inner"]})
        base = Simulator(design.partitions["base"])
        ext = Simulator(design.partitions["g"])

        in_nets = [n for n in design.nets if n.dst == "g"]
        out_nets = [n for n in design.nets if n.src == "g"]
        for cycle in range(6):
            expected = mono.step({"x": cycle + 1})
            # settle the combinational boundary (loop-free: two passes)
            base.poke("x", cycle + 1)
            for _ in range(3):
                base.eval()
                for n in in_nets:
                    ext.poke(n.name, base.peek(n.name))
                ext.eval()
                for n in out_nets:
                    base.poke(n.name, ext.peek(n.name))
            base.eval()
            got = {"o1": base.peek("o1"), "o2": base.peek("o2")}
            assert got == expected
            base.tick()
            ext.tick()


class TestMultiGroup:
    def test_two_groups_cross_nets(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g1": ["left"], "g2": ["right"]})
        assert set(design.partitions) == {"base", "g1", "g2"}
        pairs = {(n.src, n.dst) for n in design.nets}
        # left and right talk to each other directly
        assert ("g1", "g2") in pairs and ("g2", "g1") in pairs
        for part in design.partitions.values():
            check_circuit(part)

    def test_base_keeps_observation_logic(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g1": ["left"], "g2": ["right"]})
        base_top = design.partitions["base"].top_module
        assert base_top.has_port("x_obs")
        assert base_top.has_port("y_obs")


class TestRemoval:
    def test_remove_returns_base_with_punched_ports(self):
        c = make_comb_pair_circuit()
        removed = remove_modules(c, ["right"])
        check_circuit(removed)
        assert "CombRight" not in removed.modules
        # the punched boundary is now top-level I/O
        port_names = {p.name for p in removed.top_module.ports}
        assert any("right" in n for n in port_names)


def _owned_ids(circuit):
    """ids of every mutable IR object (ports and statements)."""
    return {id(x) for m in circuit.modules.values()
            for x in m.ports + m.stmts}


def _star_fast_spec():
    return PartitionSpec(mode="fast", groups=[
        PartitionGroup.make("fpga0", ["tile0"]),
        PartitionGroup.make("fpga1", ["tile1"])])


class TestIRSharing:
    """Partitions share immutable expressions with the input and with
    each other, but never a port or statement."""

    def test_extract_leaves_input_text_unchanged(self):
        c = _deep_circuit()
        before = print_circuit(c)
        extract_partitions(c, {"g": ["w.inner"], "h": ["direct"]})
        assert print_circuit(c) == before

    def test_fast_compile_leaves_input_text_unchanged(self):
        c = make_star_soc(2)
        before = print_circuit(c)
        design = FireRipper(_star_fast_spec()).compile(c)
        assert any(m.startswith("FireAxeSkidBuffer")
                   for p in design.partitions.values() for m in p.modules)
        assert print_circuit(c) == before

    def test_no_port_or_statement_shared(self):
        c = make_star_soc(2)
        design = FireRipper(_star_fast_spec()).compile(c)
        owned = [_owned_ids(c)] + [_owned_ids(p) for p in
                                   design.partitions.values()]
        for i, a in enumerate(owned):
            for b in owned[i + 1:]:
                assert a.isdisjoint(b)

    def test_partitions_hold_only_reachable_modules(self):
        c = _deep_circuit()
        design = extract_partitions(c, {"g": ["w.inner"]})
        for part in design.partitions.values():
            before = list(part.modules)
            part.remove_unreachable()
            assert list(part.modules) == before

    def test_rebuild_is_identical_and_compiles_nothing(self):
        def build():
            design = FireRipper(_star_fast_spec()).compile(make_star_soc(2))
            sim = design.build_simulation(QSFP_AURORA, record_outputs=True)
            return functional_digest(sim, sim.run(200, backend="inproc"))

        first = build()
        before = compile_source.cache_info()
        second = build()
        after = compile_source.cache_info()
        assert second == first
        assert after.misses == before.misses
        assert after.hits > before.hits
