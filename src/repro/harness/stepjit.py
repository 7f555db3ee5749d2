"""Compiled partition step functions: JIT for the wavefront hot loop.

The precompiled wavefront schedule (`partitioned._compile_schedule`)
already resolves the static topology into flat op lists, but the
interpreter (`_run_unit`) still *walks* those lists for every unit on
every pass: method dispatch into ``try_fire_outputs``, outbox list
churn, per-token dict lookups, and one redundant RTL ``eval`` per fired
output channel.  This module instead *generates* one straight-line
Python step function per partition from its :class:`_PartPlan` and
``exec``-compiles it — the same strategy the RTL engine uses for its
comb/tick functions, lifted one layer up, and the same move GSIM and
LightningSimV2 make for single-node simulation rate.

What the generated function inlines:

* **source feeding** — the empty-queue check and packed refill per
  source-fed input channel;
* **unit firing** — the LI-BDN fire FSM per output channel: dep-queue
  readiness, env pokes by precomputed ``(port, offset, mask)`` fields,
  the compiled comb function, and word packing, with the outbox
  bypassed entirely (the fired word flows to the timing op through a
  local);
* **redundant-eval elision** — ``eval`` is a pure function of the
  signal env and register/memory state, so a fire whose output channel
  has no comb deps only needs an eval when something changed since the
  last settle (a dep poke or a ``tick``).  A per-unit dirty flag makes
  every later no-dep fire of the same settle a pure re-pack — in fast
  mode this collapses k+1 evals per target cycle to 1;
* **the timing overlay** — serdes/occupancy/wire/credit arithmetic with
  every per-op constant folded into a float literal, the credit-window
  lookup bound to the live consume deque, and busy-cursor/span
  accumulation carried in locals (written back once per call);
* **token pushes** — repack plans emitted as literal bit-move
  expressions, destination channel/arrival queues bound directly for
  local deliveries, the router's ``deliver_remote`` bound for the
  process backends;
* **the advance** — input pops, pokes, comb+tick, fire-FSM re-arm and
  target-cycle bump, plus the isolated-partition batching loop when the
  schedule marks the unit batchable.

Dep-free units (NoC routers, FAST-extracted tiles) additionally take
the **fused RTL kernel tier**: per-unit ``fire``/``adv``/``cyc``
functions compiled from the flattened elaboration that evaluate only
the live cone of the output/tick references, carry every intermediate
in locals, and commit just registers/memories back to the env
(:func:`_compile_kernel`; cached as ``unit._stepjit_kernels``).  The
``cyc`` kernel also reports whether the register/memory state reached
a fixed point — while it holds and the unit's inputs repeat, the step
function skips RTL evaluation entirely and replays the cached output
words (exact: pure logic over equal state and equal inputs cannot
differ).  See the "kernel tier" comment block below for the env
staleness contract this buys speed with.

Both tiers, like the RTL engine's comb/tick functions, turn source into
code through :func:`repro.rtl.eval.compile_source`: a bounded
per-process memo of ``compile`` keyed on the source text.  Sources
carry no per-job data (bindings enter as ``_make`` arguments, memory
images live in the env), so rebuilding the same design — a new job, a
design variant, or the step-function regeneration at every ``run()``
entry — pays only generation and ``exec``, never a second parse.

Tracer and telemetry emit sites are *compiled out*: a partition is only
eligible when the null sinks are installed, so the generated code
contains no flag checks at all.  The same applies to reliability
layers, fault injectors, switch fabrics and dict-incompatible peer
layouts — :func:`partition_jit_reason` rejects those partitions and the
harness falls back to the interpreted ``_run_unit`` for them (per
partition, not globally).  A runtime guard keeps even compiled
partitions exact: a unit whose outbox is unexpectedly non-empty (e.g. a
checkpoint captured mid-``host_step``) delegates that pass to the
interpreter.

Bit-exactness contract: for every partition the compiled function
performs the *same mutations in the same order* as ``_run_unit`` — same
float-op associativity in the timing math, same deque traffic, same
fired/arrival/credit bookkeeping — so ``SimulationResult`` (including
``detail``) and all checkpointable state are bit-identical with the
JIT on or off, on every backend.  The differential tests in
``tests/fuzz/test_stepjit_corpus.py`` pin exactly that.

Selection: ``REPRO_STEPJIT=0`` (or ``off``/``false``/``no``) disables
the JIT globally; ``PartitionedSimulation.stepjit`` (the CLI's
``--no-jit``) overrides per simulation.  ``repro jit --dump`` prints
the generated source.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..libdn.codec import INCOMPATIBLE
from ..rtl.elaborate import FlatAssign
from ..rtl.engine import _ref_names
from ..rtl.eval import CODEGEN_HELPERS, compile_expr, compile_source, mask

__all__ = [
    "stepjit_enabled",
    "partition_jit_reason",
    "compile_step_functions",
    "generate_partition_source",
    "generate_sources",
]

_FALSEY = frozenset(("0", "off", "false", "no"))


def stepjit_enabled(sim=None) -> bool:
    """Resolve the JIT on/off decision: per-sim override first
    (``sim.stepjit``), then ``REPRO_STEPJIT`` (default: on)."""
    override = getattr(sim, "stepjit", None) if sim is not None else None
    if override is not None:
        return bool(override)
    value = os.environ.get("REPRO_STEPJIT", "").strip().lower()
    return value not in _FALSEY


# --------------------------------------------------------------------------
# eligibility: the clean-hooks guard
# --------------------------------------------------------------------------


def _unit_jit_reason(sim, up) -> Optional[str]:
    """Why one unit plan cannot be compiled (None when it can)."""
    unit = up.unit
    label = f"{up.prefix}{unit.name}"
    if getattr(unit, "step_bindings", None) is None:
        return f"{label}: host exposes no step_bindings fast path"
    rtl = getattr(unit, "sim", None)
    if rtl is None or not getattr(rtl, "compiled", False):
        return f"{label}: RTL engine runs interpreted (compiled=False)"
    for ch in list(unit.in_channels.values()) \
            + list(unit.out_channels.values()):
        if ch.capacity is not None:
            return (f"{label}: channel {ch.name!r} carries a host "
                    f"capacity bound")
    for op in up.out_ops.values():
        link = op.link
        if link is None:
            continue
        if not op.clean:
            return (f"{label}: link {link.key} has a reliability layer "
                    f"or fault injector")
        if op.switch is not None:
            return f"{label}: link {link.key} crosses a switch fabric"
        if op.repack is INCOMPATIBLE:
            return (f"{label}: link {link.key} peer layouts need the "
                    f"dict fallback")
        if sim._in_channel_by_key[link.dst].capacity is not None:
            return (f"{label}: link {link.key} destination channel is "
                    f"capacity-bounded")
    return None


def partition_jit_reason(sim, pplan) -> Optional[str]:
    """Why a partition must stay on the interpreter (None = JIT-able).

    A partition is eligible only when every emit site the generator
    would have to preserve is a null sink (tracer off, telemetry off)
    and every unit/link is on the clean fast path."""
    if sim._trace:
        return "tracer attached"
    if sim._metrics_on:
        return "telemetry sampling enabled"
    for up in pplan.unit_plans:
        reason = _unit_jit_reason(sim, up)
        if reason is not None:
            return reason
    return None


# --------------------------------------------------------------------------
# code generation
# --------------------------------------------------------------------------


class _Binder:
    """Assigns stable generated names to pre-bound Python objects.

    Objects are deduplicated by identity, so e.g. an arrival deque that
    is both a fire dependency and an advance input binds once."""

    def __init__(self):
        self.values: Dict[str, object] = {}
        self._by_id: Dict[int, str] = {}
        self._n = 0

    def bind(self, obj, hint: str = "g") -> str:
        name = self._by_id.get(id(obj))
        if name is None:
            name = f"_{hint}{self._n}"
            self._n += 1
            self._by_id[id(obj)] = name
            self.values[name] = obj
        return name


class _Writer:
    def __init__(self):
        self.lines: List[str] = []

    def emit(self, level: int, text: str) -> None:
        self.lines.append("    " * level + text)


def _f(value: float) -> str:
    """Float literal that round-trips exactly (repr contract)."""
    return repr(float(value))


def _unpack_lines(env: str, word: str, fields) -> List[str]:
    out = []
    for port, offset, mask in fields:
        if offset:
            out.append(f"{env}[{port!r}] = ({word} >> {offset}) & {mask}")
        else:
            out.append(f"{env}[{port!r}] = {word} & {mask}")
    return out


def _pack_expr(env: str, fields) -> str:
    if not fields:
        return "0"
    parts = []
    for port, offset, _mask in fields:
        if offset:
            parts.append(f"{env}[{port!r}] << {offset}")
        else:
            parts.append(f"{env}[{port!r}]")
    return " | ".join(parts)


def _repack_expr(word: str, plan) -> str:
    """Inline a repack plan's bit moves (``plan`` is a tuple of
    ``(src_offset, mask, dst_offset)`` moves; identity is handled by
    the caller)."""
    parts = []
    for s_off, mask, d_off in plan:
        if s_off:
            expr = f"(({word} >> {s_off}) & {mask})"
        else:
            expr = f"({word} & {mask})"
        if d_off:
            expr = f"{expr} << {d_off}"
        parts.append(expr)
    return " | ".join(parts) if parts else "0"


def _token_dict_expr(word: str, fields) -> str:
    """Inline ``codec.decode(word)`` as a dict literal (same key order:
    spec order)."""
    items = []
    for port, offset, mask in fields:
        if offset:
            items.append(f"{port!r}: ({word} >> {offset}) & {mask}")
        else:
            items.append(f"{port!r}: {word} & {mask}")
    return "{" + ", ".join(items) + "}"


# --------------------------------------------------------------------------
# fused RTL kernels (the specialization tier below the step functions)
# --------------------------------------------------------------------------
#
# The RTL engine's generic ``_comb`` settles *every* combinational signal
# and writes each one back into the env dict; its ``_tick`` then re-reads
# the settled values out of the env, one dict lookup per reference.  For
# a dep-free (fast-mode) unit the harness only ever observes three
# projections of that work: the packed output words, the register/memory
# next-state, and the env entries that hold registers and top inputs.
# The kernels below specialize exactly those projections:
#
# * the live cone is computed per kernel (dead assigns are dropped),
# * every intermediate stays a Python local end-to-end — the env is
#   read once per referenced register/input and written only for
#   register commits,
# * the tick next-state expressions read the comb *locals* directly
#   instead of round-tripping through the env,
# * the packed output words are built from locals and returned.
#
# Three kernels per unit: ``fire(env, mems) -> words`` (pack cone only),
# ``adv(env, mems)`` (tick cone + commit), and ``cyc(env, mems) ->
# words`` (the fused single-settle cycle: when the next input words
# equal the currently-poked values, one comb settle serves both the
# fire and the advance — eval is pure, so the second settle the
# interpreter performs is provably identical).
#
# Consequence (documented contract): compiled kernels do *not* write
# combinational intermediates back into the RTL env, so signal peeks
# between passes may observe stale comb values on kernel-tier units.
# Registers, memories, inputs, output tokens, timing spans and every
# checkpointable harness structure stay bit-identical — a restored
# checkpoint re-settles from registers and inputs on the next pass.
# Use ``REPRO_STEPJIT=0`` (or ``--no-jit``) for signal-level debugging.


def _compile_kernel(elab, pack_lists, do_tick: bool, tag: str,
                    converged: bool = False):
    """Generate one specialized kernel for ``elab``.

    ``pack_lists`` is a list of pack-field lists (one per output
    channel, in fire order); the kernel returns the packed words in
    that order (a bare int for one channel).  ``do_tick`` fuses the
    register/memory commit into the same settle.  ``converged``
    appends a quiescence flag to the return value: True when the tick
    was a fixed point (every register next-value equals its current
    value and every enabled memory write re-writes the stored word) —
    the caller may then skip the next settle entirely if the inputs
    repeat, because pure logic over equal state and equal inputs
    reproduces the same words and the same fixed point."""
    ids: Dict[str, str] = {}

    def ident(name: str) -> str:
        if name not in ids:
            ids[name] = f"v{len(ids)}"
        return ids[name]

    comb_targets = {a.name for a in elab.assigns}

    # live cone: pack ports plus (when ticking) every name the
    # register-next / memory-write expressions reference
    live: Set[str] = set()
    for fields in pack_lists:
        for port, _off, _msk in fields:
            live.add(port)
    tick_regs = [r for r in elab.regs.values() if r.next is not None]
    if do_tick:
        for reg in tick_regs:
            live.update(_ref_names(reg.next))
        for mw in elab.writes:
            live.update(_ref_names(mw.en))
            live.update(_ref_names(mw.addr))
            live.update(_ref_names(mw.data))
    kept = []
    for a in reversed(elab.assigns):  # assigns are in topo order
        if a.name in live:
            kept.append(a)
            if isinstance(a, FlatAssign):
                live.update(_ref_names(a.expr))
            else:  # FlatMemRead
                live.update(_ref_names(a.addr))
    kept.reverse()

    loads: List[str] = []
    seen_loads: Set[str] = set()

    def note_load(name: str) -> None:
        if name not in comb_targets and name not in seen_loads:
            seen_loads.add(name)
            loads.append(name)

    def compile_with_loads(expr) -> str:
        for leaf in _ref_names(expr):
            note_load(leaf)
        return compile_expr(expr, ident)

    body: List[str] = []
    for a in kept:
        if isinstance(a, FlatAssign):
            body.append(f"    {ident(a.name)} = {compile_with_loads(a.expr)}")
        else:
            addr = compile_with_loads(a.addr)
            body.append(
                f"    {ident(a.name)} = mems[{a.mem!r}][({addr}) % {a.depth}]"
            )

    tick_lines: List[str] = []
    commit_lines: List[str] = []
    if do_tick:
        for i, reg in enumerate(tick_regs):
            code = compile_with_loads(reg.next)
            tick_lines.append(f"    n{i} = ({code}) & {mask(reg.width)}")
            commit_lines.append(f"    env[{reg.name!r}] = n{i}")
        for j, mw in enumerate(elab.writes):
            en = compile_with_loads(mw.en)
            addr = compile_with_loads(mw.addr)
            data = compile_with_loads(mw.data)
            tick_lines.append(
                f"    w{j} = (({addr}) % {mw.depth}, {data}) if {en} else None")
            commit_lines.append(
                f"    if w{j} is not None: mems[{mw.mem!r}][w{j}[0]] = w{j}[1]")
        if converged:
            # fixed-point test against the *pre-commit* values (the
            # locals still hold them here); short-circuits on the first
            # live register, so active cycles pay almost nothing
            terms = []
            for i, reg in enumerate(tick_regs):
                note_load(reg.name)  # unreferenced regs still compare
                terms.append(f"n{i} == {ident(reg.name)}")
            for j, mw in enumerate(elab.writes):
                terms.append(f"(w{j} is None or "
                             f"mems[{mw.mem!r}][w{j}[0]] == w{j}[1])")
            tick_lines.append("    _q = " + (" and ".join(terms)
                                             if terms else "True"))

    rets: List[str] = []
    for fields in pack_lists:
        for port, _off, _msk in fields:
            note_load(port)  # e.g. a register driven straight to a port
        parts = [f"{ident(p)} << {off}" if off else ident(p)
                 for p, off, _m in fields]
        rets.append("(" + " | ".join(parts) + ")" if parts else "0")

    if converged:
        rets.append("_q")
    prologue = [f"    {ident(n)} = env[{n!r}]" for n in loads]
    lines = prologue + body + tick_lines + commit_lines
    if rets:
        lines.append("    return " + ", ".join(rets))
    if not lines:
        lines = ["    pass"]
    src = ("def _k(env, mems, _div=_div, _rem=_rem):\n"
           + "\n".join(lines) + "\n")
    namespace: Dict[str, object] = dict(CODEGEN_HELPERS)
    exec(compile_source(src, f"<stepjit-kernel:{tag}>"), namespace)
    fn = namespace["_k"]
    fn._stepjit_source = src  # for ``repro jit --dump``
    return fn


def _unit_kernels(unit, fire_plans):
    """(fire, adv, cyc) kernels for ``unit``, cached on the unit (the
    elaboration and channel layouts are immutable per host)."""
    cached = getattr(unit, "_stepjit_kernels", None)
    if cached is not None:
        return cached
    elab = unit.sim.elab
    pack_lists = [entry[3] for entry in fire_plans]
    tag = unit.name
    fire = (_compile_kernel(elab, pack_lists, False, f"fire:{tag}")
            if pack_lists else None)
    adv = _compile_kernel(elab, [], True, f"adv:{tag}")
    cyc = (_compile_kernel(elab, pack_lists, True, f"cyc:{tag}",
                           converged=True)
           if pack_lists else None)
    kern = (fire, adv, cyc)
    try:
        unit._stepjit_kernels = kern
    except (AttributeError, TypeError):  # slotted host: rebuild per compile
        pass
    return kern


class _PartitionCodegen:
    """Emits one partition's ``_step(target_cycles)`` function."""

    def __init__(self, sim, pplan, eval_dedup: bool = True):
        self.sim = sim
        self.pplan = pplan
        self.eval_dedup = eval_dedup
        self.b = _Binder()
        self.w = _Writer()
        part = pplan.part
        b = self.b
        self.PT = b.bind(part, "pt")
        self.SP = b.bind(part.hooks.spans, "sp")
        self.SIM = b.bind(sim, "sm")
        self.RI = b.bind(sim._run_unit, "ri")
        self.LEN = b.bind(len, "len")
        self.RANGE = b.bind(range, "rng")
        router = sim.router
        self.RC = (b.bind(router.consumed, "rc")
                   if router is not None else None)
        self.router = router
        #: one mutable dirty cell per generic-tier unit (keyed by unit
        #: index), part of the bindings; True means the RTL env may be
        #: unsettled (eval needed before a no-dep fire can re-pack).
        #: Kernel-tier units need no dirty tracking — their kernels
        #: never depend on a settled env.
        self.dirty_cells: Dict[int, list] = {}
        #: unit indexes running on fused RTL kernels (for the report)
        self.kernel_units: List[int] = []

    # -- fragments --------------------------------------------------------

    def _feed_lines(self, source_ops) -> List[Tuple[int, str]]:
        """Source feeding: the ``_feed_sources`` body, inlined."""
        b = self.b
        out = []
        for key, channel, source, unit in source_ops:
            SQ = b.bind(channel.queue, "sq")
            CH = b.bind(channel, "ch")
            NW = b.bind(source.next_word, "nw")
            SU = b.bind(unit, "u")
            CD = b.bind(channel.codec, "cd")
            AQ = b.bind(self.sim._arrivals[key], "aq")
            out.append((0, f"if not {SQ}:"))
            out.append((1, f"{SQ}.append({NW}({SU}.target_cycle, {CD}))"))
            out.append((1, f"{CH}.total_enqueued += 1"))
            out.append((1, f"{AQ}.append(0.0)"))
        return out

    def _sync_out(self) -> str:
        return (f"{self.PT}.busy_until = busy; "
                f"{self.SP}.link_wait_ns = lw; "
                f"{self.SP}.credit_stall_ns = cs; "
                f"{self.SP}.serdes_ns = sd; "
                f"{self.SP}.compute_ns = cp; "
                f"{self.SP}.sync_ns = sy; "
                f"{self.SIM}.total_tokens = tt")

    def _sync_in(self) -> str:
        return (f"busy = {self.PT}.busy_until; "
                f"lw = {self.SP}.link_wait_ns; "
                f"cs = {self.SP}.credit_stall_ns; "
                f"sd = {self.SP}.serdes_ns; "
                f"cp = {self.SP}.compute_ns; "
                f"sy = {self.SP}.sync_ns; "
                f"tt = {self.SIM}.total_tokens")

    def _emit_fire(self, L: int, uid: int, j: int, entry, names: dict
                   ) -> None:
        """One output channel's fire FSM (try_fire_outputs, inlined;
        the fired word is kept in a local instead of the outbox)."""
        w, b = self.w, self.b
        name, out_ch, dep_plans, pack_fields = entry
        F, ENV, MEMS, C = (names["F"], names["ENV"], names["MEMS"],
                           names["C"])
        OQ = b.bind(out_ch.queue, "oq")
        OC = b.bind(out_ch, "oc")
        wvar = f"w{uid}_{j}"
        w.emit(L, f"if not {F}[{name!r}]:")
        if dep_plans:
            cond = " and ".join(b.bind(dc.queue, "dq")
                                for dc, _ in dep_plans)
            w.emit(L + 1, f"if {cond}:")
            Lf = L + 2
            for dep_ch, fields in dep_plans:
                DQ = b.bind(dep_ch.queue, "dq")
                if fields:
                    w.emit(Lf, f"_h = {DQ}[0]")
                    for line in _unpack_lines(ENV, "_h", fields):
                        w.emit(Lf, line)
            w.emit(Lf, f"{C}({ENV}, {MEMS})")
            if self.eval_dedup:
                w.emit(Lf, f"dty{uid} = False")
        else:
            Lf = L + 1
            if self.eval_dedup:
                w.emit(Lf, f"if dty{uid}:")
                w.emit(Lf + 1, f"{C}({ENV}, {MEMS})")
                w.emit(Lf + 1, f"dty{uid} = False")
            else:
                w.emit(Lf, f"{C}({ENV}, {MEMS})")
        w.emit(Lf, f"{wvar} = {_pack_expr(ENV, pack_fields)}")
        w.emit(Lf, f"{OQ}.append({wvar})")
        w.emit(Lf, f"{OC}.total_enqueued += 1")
        w.emit(Lf, f"{F}[{name!r}] = True")
        w.emit(Lf, "progress = True")

    def _emit_credit(self, L: int, op) -> None:
        """Credit-window stall + single-feeder trim (the interpreter's
        channel_capacity block, with the consume deque pre-bound)."""
        w, b, sim = self.w, self.b, self.sim
        link = op.link
        LK = b.bind(link, "lk")
        CQ = b.bind(op.consume_q, "cq")
        CB = b.bind(sim._consume_base, "cb")
        CBG = b.bind(sim._consume_base.get, "cbg")
        DK = b.bind(link.dst, "dk")
        cap = sim.channel_capacity
        w.emit(L, f"_ci = {LK}.tokens - {cap}")
        w.emit(L, "if _ci >= 0:")
        w.emit(L + 1, f"_rel = _ci - {CBG}({DK}, 0)")
        w.emit(L + 1, f"_ln = {self.LEN}({CQ})")
        w.emit(L + 1, "if 0 <= _rel < _ln:")
        w.emit(L + 2, f"_c = {CQ}[_rel]")
        w.emit(L + 2, "if _c > _st:")
        w.emit(L + 3, "_st = _c")
        w.emit(L + 1, "elif _rel >= _ln and _ln:")
        w.emit(L + 2, f"_c = {CQ}[-1]")
        w.emit(L + 2, "if _c > _st:")
        w.emit(L + 3, "_st = _c")
        if sim._dst_link_count.get(link.dst) == 1:
            w.emit(L + 1, "if _rel > 0 and _ln:")
            w.emit(L + 2, "_d = _rel if _rel < _ln - 1 else _ln - 1")
            w.emit(L + 2, f"for _x in {self.RANGE}(_d):")
            w.emit(L + 3, f"{CQ}.popleft()")
            w.emit(L + 2, f"{CB}[{DK}] = {CBG}({DK}, 0) + _d")

    def _emit_out_op(self, L: int, uid: int, j: int, name: str, op
                     ) -> None:
        """One fired token's timing + delivery (the drain half of
        ``_run_unit``'s while body, for one op)."""
        w, b, sim = self.w, self.b, self.sim
        part = self.pplan.part
        wvar = f"w{uid}_{j}"
        w.emit(L, f"if {wvar} is not None:")
        Lo = L + 1
        # dependent-input arrival wait (link_wait span)
        w.emit(Lo, "_da = 0.0")
        for key in op.dep_keys:
            DQ = b.bind(sim._arrivals[key], "aq")
            w.emit(Lo, f"if {DQ} and {DQ}[0] > _da:")
            w.emit(Lo + 1, f"_da = {DQ}[0]")
        w.emit(Lo, "_ds = busy if busy > _da else _da")
        w.emit(Lo, "lw += _ds - busy")
        link = op.link
        if link is None:
            # bridge tap: drained by wide DMA batches, effectively free
            w.emit(Lo, "busy = _ds")
            if sim.record_outputs:
                OL = b.bind(sim.output_log, "ol")
                OLG = b.bind(sim.output_log.get, "olg")
                BK = b.bind((part.name, op.full), "bk")
                w.emit(Lo, f"_l = {OLG}({BK})")
                w.emit(Lo, "if _l is None:")
                w.emit(Lo + 1, f"_l = {OL}[{BK}] = []")
                w.emit(Lo, "_l.append("
                       + _token_dict_expr(wvar, op.codec.fields) + ")")
            return
        w.emit(Lo, "_st = _ds")
        if sim.channel_capacity is not None:
            self._emit_credit(Lo, op)
        w.emit(Lo, "cs += _st - _ds")
        LK = b.bind(link, "lk")
        w.emit(Lo, f"sd += {_f(op.tx_ns)}")
        w.emit(Lo, f"busy = _st + {_f(op.tx_ns)}")
        w.emit(Lo, f"_nf = {LK}.next_free")
        w.emit(Lo, "_dep = busy if busy > _nf else _nf")
        w.emit(Lo, f"{LK}.next_free = _dep + {_f(op.occupancy_ns)}")
        w.emit(Lo, f"_arr = _dep + {_f(op.wire_ns)}")
        if op.repack is None:
            mw = wvar
        else:
            mw = "_mw"
            w.emit(Lo, f"_mw = {_repack_expr(wvar, op.repack)}")
        w.emit(Lo, f"{LK}.busy_ns += {_f(op.occupancy_ns)}")
        rx = _f(op.rx_ns)
        if self.router is not None \
                and not self.router.is_local(op.dst_part_name):
            RD = b.bind(self.router.deliver_remote, "rd")
            w.emit(Lo, f"{RD}({LK}, {mw}, _arr + {rx}, {rx})")
        else:
            # apply_link_delivery, inlined (metrics/trace compiled out)
            dst_ch = sim._in_channel_by_key[link.dst]
            DQ2 = b.bind(dst_ch.queue, "xq")
            DC = b.bind(dst_ch, "xc")
            AQ2 = b.bind(sim._arrivals[link.dst], "aq")
            DH = b.bind(link.depth_hist, "dh")
            DHG = b.bind(link.depth_hist.get, "dhg")
            w.emit(Lo, f"{DQ2}.append({mw})")
            w.emit(Lo, f"{DC}.total_enqueued += 1")
            w.emit(Lo, f"{AQ2}.append(_arr + {rx})")
            w.emit(Lo, f"_d = {self.LEN}({AQ2})")
            w.emit(Lo, f"{DH}[_d] = {DHG}(_d, 0) + 1")
        w.emit(Lo, f"{LK}.tokens += 1")
        w.emit(Lo, "tt += 1")

    def _emit_advance_timing(self, La: int, up) -> None:
        """The advance's timing bookkeeping: arrival pops, link-wait
        and compute spans, credit consume records, busy cursor."""
        w, b, sim = self.w, self.b, self.sim
        part = up.part
        w.emit(La, "_ir = 0.0")
        for key in up.in_keys:
            IA = b.bind(sim._arrivals[key], "aq")
            w.emit(La, f"if {IA}:")
            w.emit(La + 1, f"_a = {IA}.popleft()")
            w.emit(La + 1, "if _a > _ir:")
            w.emit(La + 2, "_ir = _a")
        w.emit(La, "_st = busy if busy > _ir else _ir")
        w.emit(La, "lw += _st - busy")
        hc = _f(up.host_cycle_ns)
        if sim.channel_capacity is not None and up.consume_keys:
            w.emit(La, f"_cn = _st + {hc}")
            for key in up.consume_keys:
                CT = b.bind(sim._consume_times[key], "cq")
                w.emit(La, f"{CT}.append(_cn)")
                if self.RC is not None:
                    CK = b.bind(key, "ck")
                    w.emit(La, f"{self.RC}({CK}, _cn)")
        w.emit(La, f"cp += {hc}")
        ovh = part.advance_overhead_ns
        if ovh:
            w.emit(La, f"sy += {_f(ovh)}")
            w.emit(La, f"busy = _st + {hc} + {_f(ovh)}")
        else:
            w.emit(La, f"busy = _st + {hc}")

    def _emit_advance(self, L: int, uid: int, up, names: dict,
                      batch: bool) -> None:
        """The fireFSM advance: pops, pokes, comb+tick, re-arm."""
        w, b = self.w, self.b
        unit = up.unit
        F, ENV, MEMS, C, T, RTL, U = (
            names["F"], names["ENV"], names["MEMS"], names["C"],
            names["T"], names["RTL"], names["U"])
        fire_names = [e[0] for e in names["fire_plans"]]
        in_qs = [b.bind(ch.queue, "iq") for ch, _ in names["in_plans"]]
        conds = [f"{F}[{n!r}]" for n in fire_names] + list(in_qs)
        w.emit(L, "if " + (" and ".join(conds) if conds else "True")
               + ":")
        La = L + 1
        self._emit_advance_timing(La, up)
        # unit.advance(), inlined
        for ch, fields in names["in_plans"]:
            IQ = b.bind(ch.queue, "iq")
            w.emit(La, f"_w = {IQ}.popleft()")
            for line in _unpack_lines(ENV, "_w", fields):
                w.emit(La, line)
        w.emit(La, f"{C}({ENV}, {MEMS})")
        w.emit(La, f"{T}({ENV}, {MEMS})")
        w.emit(La, f"{RTL}.cycle += 1")
        for n in unit._fired:
            w.emit(La, f"{F}[{n!r}] = False")
        for ch in names["out_channels"]:
            OQ = b.bind(ch.queue, "oq")
            w.emit(La, f"if {OQ}:")
            w.emit(La + 1, f"{OQ}.popleft()")
        w.emit(La, f"{U}.target_cycle += 1")
        w.emit(La, "progress = True")
        if self.eval_dedup:
            w.emit(La, f"dty{uid} = True")
        if batch:
            w.emit(La, "advanced = True")

    def _emit_fallback(self, Lu: int, uid: int, up, names: dict,
                       guard: str, use_dty: bool,
                       qs: Optional[str] = None) -> None:
        """The interpreter delegation block behind a runtime guard."""
        w = self.w
        UP = self.b.bind(up, "up")
        w.emit(Lu, f"if {guard}:")
        w.emit(Lu + 1, self._sync_out())
        w.emit(Lu + 1, "try:")
        w.emit(Lu + 2, f"if {self.RI}({UP}, target_cycles):")
        w.emit(Lu + 3, "progress = True")
        w.emit(Lu + 1, "finally:")
        w.emit(Lu + 2, self._sync_in())
        if use_dty:
            w.emit(Lu + 1, f"dty{uid} = True")
        if qs is not None:
            # the interpreter may have moved RTL state behind the
            # kernels' back: drop the quiescence cache
            w.emit(Lu + 1, f"{qs}[0] = False")

    def _emit_unit_kernel(self, L: int, uid: int, up, names: dict,
                          kern) -> None:
        """Kernel-tier unit pass: fused RTL kernels replace the generic
        comb/tick calls.  When the pending input words equal the
        currently-poked values (every field), the fire and the advance
        share ONE settle (the ``cyc`` kernel) — otherwise the pass
        splits into the cone-reduced ``fire`` and ``adv`` kernels."""
        w, b, sim = self.w, self.b, self.sim
        unit = up.unit
        F, ENV, MEMS, RTL, U = (names["F"], names["ENV"], names["MEMS"],
                                names["RTL"], names["U"])
        fire_plans = names["fire_plans"]
        in_plans = names["in_plans"]
        k = len(fire_plans)
        KF = b.bind(kern[0], "kf") if kern[0] is not None else None
        KA = b.bind(kern[1], "ka")
        KC = b.bind(kern[2], "kc") if kern[2] is not None else None
        in_qs = [b.bind(ch.queue, "iq") for ch, _ in in_plans]
        batch = bool(up.batchable and sim._batching)
        #: quiescence cell: [converged, word0, ..., word(k-1)] — True
        #: plus cached words means the previous settle hit a tick fixed
        #: point, so a repeat-input cycle replays the words and skips
        #: the kernel call entirely
        QS = None
        if k:
            QS = b.bind([False] + [0] * k, "qs")
        w.emit(L, f"# unit {up.prefix}{unit.name}: fused RTL kernels")
        w.emit(L, f"if {U}.target_cycle < target_cycles:")
        Lu = L + 1
        # runtime guard: outbox state or non-uniform fire flags mean a
        # shape the kernels do not model (e.g. a checkpoint captured
        # mid-host_step) — delegate that pass to the interpreter
        guard = f"{U}.outbox"
        if k >= 2:
            n0 = fire_plans[0][0]
            guard += "".join(f" or {F}[{n0!r}] != {F}[{e[0]!r}]"
                             for e in fire_plans[1:])
        self._emit_fallback(Lu, uid, up, names, guard, use_dty=False,
                            qs=QS)
        w.emit(Lu, "else:")
        Lb = Lu + 1
        if batch:
            w.emit(Lb, "batched = 0")
            w.emit(Lb, "while True:")
            Lb += 1
        for j in range(k):
            w.emit(Lb, f"w{uid}_{j} = None")
        w.emit(Lb, "_tk = False")
        if k:
            wvars = ", ".join(f"w{uid}_{j}" for j in range(k))
            w.emit(Lb, f"if not {F}[{fire_plans[0][0]!r}]:")
            Lf = Lb + 1
            # fused-settle eligibility: every pending input word decodes
            # to the value its port already holds
            eq_terms: List[str] = []
            peeks: List[str] = []
            for i, (_ch, fields) in enumerate(in_plans):
                hv = f"_h{i}"
                peeks.append(f"{hv} = {in_qs[i]}[0]")
                for port, off, msk in fields:
                    if off:
                        eq_terms.append(
                            f"{ENV}[{port!r}] == ({hv} >> {off}) & {msk}")
                    else:
                        eq_terms.append(f"{ENV}[{port!r}] == {hv} & {msk}")
            if in_qs:
                w.emit(Lf, "if " + " and ".join(in_qs) + ":")
                for line in peeks:
                    w.emit(Lf + 1, line)
                w.emit(Lf + 1, "_tk = "
                       + (" and ".join(eq_terms) if eq_terms else "True"))
            else:
                w.emit(Lf, "_tk = True")
            w.emit(Lf, "if _tk:")
            w.emit(Lf + 1, f"if {QS}[0]:")
            for j in range(k):
                w.emit(Lf + 2, f"w{uid}_{j} = {QS}[{j + 1}]")
            w.emit(Lf + 1, "else:")
            w.emit(Lf + 2, f"{wvars}, _cv = {KC}({ENV}, {MEMS})")
            w.emit(Lf + 2, f"{QS}[0] = _cv")
            for j in range(k):
                w.emit(Lf + 2, f"{QS}[{j + 1}] = w{uid}_{j}")
            for entry in fire_plans:
                OC = b.bind(entry[1], "oc")
                # the fire's enqueue and the advance's dequeue cancel;
                # only the channel's token counter survives
                w.emit(Lf + 1, f"{OC}.total_enqueued += 1")
            w.emit(Lf, "else:")
            w.emit(Lf + 1, f"{wvars} = {KF}({ENV}, {MEMS})")
            w.emit(Lf + 1, f"{QS}[0] = False")
            for j, entry in enumerate(fire_plans):
                OQ = b.bind(entry[1].queue, "oq")
                OC = b.bind(entry[1], "oc")
                w.emit(Lf + 1, f"{OQ}.append(w{uid}_{j})")
                w.emit(Lf + 1, f"{OC}.total_enqueued += 1")
                w.emit(Lf + 1, f"{F}[{entry[0]!r}] = True")
            w.emit(Lf, "progress = True")
        # process fired tokens in fire (outbox) order
        for j, entry in enumerate(fire_plans):
            self._emit_out_op(Lb, uid, j, entry[0], up.out_ops[entry[0]])
        if batch:
            w.emit(Lb, "advanced = False")
        # the advance: fused (tick already committed by the cyc kernel)
        # or split (pokes + the adv kernel)
        w.emit(Lb, "if _tk:")
        La = Lb + 1
        self._emit_advance_timing(La, up)
        for iq in in_qs:
            w.emit(La, f"{iq}.popleft()")
        w.emit(La, f"{RTL}.cycle += 1")
        w.emit(La, f"{U}.target_cycle += 1")
        w.emit(La, "progress = True")
        if batch:
            w.emit(La, "advanced = True")
        conds = [f"{F}[{e[0]!r}]" for e in fire_plans] + list(in_qs)
        w.emit(Lb, "elif " + (" and ".join(conds) if conds else "True")
               + ":")
        self._emit_advance_timing(La, up)
        for i, (ch, fields) in enumerate(in_plans):
            w.emit(La, f"_w = {in_qs[i]}.popleft()")
            for line in _unpack_lines(ENV, "_w", fields):
                w.emit(La, line)
        w.emit(La, f"{KA}({ENV}, {MEMS})")
        if QS is not None:
            # a changed-input tick: cached words no longer match
            w.emit(La, f"{QS}[0] = False")
        w.emit(La, f"{RTL}.cycle += 1")
        for n in unit._fired:
            w.emit(La, f"{F}[{n!r}] = False")
        for ch in names["out_channels"]:
            OQ = b.bind(ch.queue, "oq")
            w.emit(La, f"if {OQ}:")
            w.emit(La + 1, f"{OQ}.popleft()")
        w.emit(La, f"{U}.target_cycle += 1")
        w.emit(La, "progress = True")
        if batch:
            w.emit(La, "advanced = True")
        if batch:
            limit = sim._BATCH_LIMIT
            w.emit(Lb, f"if not advanced or {U}.target_cycle >= "
                       f"target_cycles:")
            w.emit(Lb + 1, "break")
            w.emit(Lb, "batched += 1")
            w.emit(Lb, f"if batched >= {limit}:")
            w.emit(Lb + 1, "break")
            for level, line in self._feed_lines(up.source_ops):
                w.emit(Lb + level, line)

    def _emit_unit(self, L: int, uid: int, up) -> None:
        w, b, sim = self.w, self.b, self.sim
        unit = up.unit
        bindings = unit.step_bindings()
        names = {
            "U": b.bind(unit, "u"),
            "F": b.bind(bindings["fired"], "f"),
            "ENV": b.bind(bindings["env"], "e"),
            "MEMS": b.bind(bindings["mems"], "mm"),
            "C": b.bind(bindings["comb"], "c"),
            "T": b.bind(bindings["tick"], "t"),
            "RTL": b.bind(bindings["rtl"], "r"),
            "fire_plans": bindings["fire_plans"],
            "in_plans": bindings["in_plans"],
            "out_channels": bindings["out_channels"],
        }
        # kernel tier: dep-free (fast-mode) units on a compiled engine
        # get fused, cone-reduced RTL kernels instead of the generic
        # comb/tick pair
        if bindings["comb"] is not None and bindings["tick"] is not None \
                and all(not entry[2] for entry in bindings["fire_plans"]):
            kern = _unit_kernels(unit, bindings["fire_plans"])
            self.kernel_units.append(uid)
            self._emit_unit_kernel(L, uid, up, names, kern)
            return
        if self.eval_dedup:
            cell = [True]
            self.dirty_cells[uid] = cell
            b.bind(cell, "dc")
        U = names["U"]
        batch = bool(up.batchable and sim._batching)
        w.emit(L, f"if {U}.target_cycle < target_cycles:")
        Lu = L + 1
        # runtime guard: a non-empty outbox means state the generated
        # code does not model (e.g. a checkpoint captured between a fire
        # and its drain) — delegate this unit's pass to the interpreter
        self._emit_fallback(Lu, uid, up, names, f"{U}.outbox",
                            use_dty=self.eval_dedup)
        w.emit(Lu, "else:")
        Lb = Lu + 1
        if batch:
            w.emit(Lb, "batched = 0")
            w.emit(Lb, "while True:")
            Lb += 1
        fire_plans = names["fire_plans"]
        for j in range(len(fire_plans)):
            w.emit(Lb, f"w{uid}_{j} = None")
        for j, entry in enumerate(fire_plans):
            self._emit_fire(Lb, uid, j, entry, names)
        # process fired tokens in fire (outbox) order
        for j, entry in enumerate(fire_plans):
            name = entry[0]
            self._emit_out_op(Lb, uid, j, name, up.out_ops[name])
        if batch:
            w.emit(Lb, "advanced = False")
        self._emit_advance(Lb, uid, up, names, batch)
        if batch:
            limit = sim._BATCH_LIMIT
            w.emit(Lb, f"if not advanced or {U}.target_cycle >= "
                       f"target_cycles:")
            w.emit(Lb + 1, "break")
            w.emit(Lb, "batched += 1")
            w.emit(Lb, f"if batched >= {limit}:")
            w.emit(Lb + 1, "break")
            for level, line in self._feed_lines(up.source_ops):
                w.emit(Lb + level, line)

    # -- whole function ---------------------------------------------------

    def generate(self) -> Tuple[str, Dict[str, object]]:
        w, b = self.w, self.b
        # emit the body first so the binder discovers every name, then
        # assemble the header (bindings ride in as default args: every
        # pre-bound object is a LOAD_FAST in the hot loop)
        body = _Writer()
        self.w = body
        Lt = 3  # body statements sit inside ``_step``'s ``try:``
        for level, line in self._feed_lines(self.pplan.source_ops):
            body.emit(Lt + level, line)
        for uid, up in enumerate(self.pplan.unit_plans):
            self._emit_unit(Lt, uid, up)
        self.w = w
        w.emit(0, "def _make(_B):")
        w.emit(1, "def _step(")
        w.emit(2, "target_cycles,")
        for name in self.b.values:
            w.emit(2, f"{name}=_B[{name!r}],")
        w.emit(1, "):")
        w.emit(2, "progress = False")
        w.emit(2, f"busy = {self.PT}.busy_until")
        w.emit(2, f"lw = {self.SP}.link_wait_ns")
        w.emit(2, f"cs = {self.SP}.credit_stall_ns")
        w.emit(2, f"sd = {self.SP}.serdes_ns")
        w.emit(2, f"cp = {self.SP}.compute_ns")
        w.emit(2, f"sy = {self.SP}.sync_ns")
        w.emit(2, f"tt = {self.SIM}.total_tokens")
        for uid, cell in self.dirty_cells.items():
            w.emit(2, f"dty{uid} = {self.b.bind(cell, 'dc')}[0]")
        w.emit(2, "try:")
        if not body.lines:
            w.emit(3, "pass")
        self.w.lines.extend(body.lines)
        w.emit(2, "finally:")
        w.emit(3, f"{self.PT}.busy_until = busy")
        w.emit(3, f"{self.SP}.link_wait_ns = lw")
        w.emit(3, f"{self.SP}.credit_stall_ns = cs")
        w.emit(3, f"{self.SP}.serdes_ns = sd")
        w.emit(3, f"{self.SP}.compute_ns = cp")
        w.emit(3, f"{self.SP}.sync_ns = sy")
        w.emit(3, f"{self.SIM}.total_tokens = tt")
        for uid, cell in self.dirty_cells.items():
            w.emit(3, f"{self.b.bind(cell, 'dc')}[0] = dty{uid}")
        w.emit(2, "return progress")
        w.emit(1, "return _step")
        return "\n".join(w.lines) + "\n", dict(self.b.values)


def generate_partition_source(sim, pplan, eval_dedup: bool = True
                              ) -> Tuple[str, Dict[str, object]]:
    """Generate one partition's step-function source plus the binding
    table its default arguments are resolved from.  The caller must
    have checked :func:`partition_jit_reason` first."""
    return _PartitionCodegen(sim, pplan, eval_dedup=eval_dedup).generate()


def compile_step_functions(sim, only: Optional[Set[str]] = None,
                           eval_dedup: bool = True
                           ) -> Tuple[Dict[str, Callable],
                                      Dict[str, str]]:
    """Compile every eligible partition of ``sim``'s current schedule
    into a step function.

    Returns ``(step_fns, report)``: ``step_fns`` maps partition name to
    the compiled ``_step(target_cycles) -> progressed`` callable;
    ``report`` maps every partition to a human-readable compile verdict
    (also stored by the harness as ``last_jit_report``).  ``only``
    restricts compilation to the named partitions (a process worker
    compiles just its own).  ``eval_dedup=False`` disables the
    dirty-flag eval elision (used when a ``stop`` callback could mutate
    RTL state between passes behind the generated code's back)."""
    fns: Dict[str, Callable] = {}
    report: Dict[str, str] = {}
    for pplan in sim.ensure_schedule():
        name = pplan.part.name
        if only is not None and name not in only:
            report[name] = "skipped: not scheduled in this process"
            continue
        reason = partition_jit_reason(sim, pplan)
        if reason is not None:
            report[name] = f"interpreted: {reason}"
            continue
        cg = _PartitionCodegen(sim, pplan, eval_dedup=eval_dedup)
        src, bindings = cg.generate()
        namespace: Dict[str, object] = {}
        exec(compile_source(src, f"<stepjit:{name}>"), namespace)
        fns[name] = namespace["_make"](bindings)
        report[name] = (f"compiled: {len(pplan.unit_plans)} unit(s) "
                        f"({len(cg.kernel_units)} fused-kernel), "
                        f"{len(src.splitlines())} lines")
    return fns, report


def generate_sources(sim, eval_dedup: bool = True
                     ) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
    """Per-partition ``(source, reject_reason)`` for inspection
    (``repro jit --dump``); exactly one of the pair is None."""
    out: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
    for pplan in sim.ensure_schedule():
        reason = partition_jit_reason(sim, pplan)
        if reason is not None:
            out[pplan.part.name] = (None, reason)
        else:
            src, _ = generate_partition_source(
                sim, pplan, eval_dedup=eval_dedup)
            out[pplan.part.name] = (src, None)
    return out
