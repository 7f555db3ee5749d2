"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's side of the API: :meth:`wrap`
replaces a public function or method at the name its caller looks it up
by, so a call made deep inside the executor still opens a span, and
:meth:`uninstall` puts every original back.  Nothing in ``src/`` is
changed.  A span is ``(id, name, start_ns, end_ns, parent_id, job)``;
a layer's self time is its span's duration minus what its child spans
cover.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Single-threaded span stack plus the patched call sites."""

    def __init__(self):
        self.spans = []
        self.job = ""
        #: (job, ProcessBackend.last_wire_stats) per process-backend run
        self.wire_stats = []
        #: the simulation the last traced build returned
        self.last_sim = None
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded list may be given a new name
        (``box[0] = ...``) before the span closes."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        box = [name]
        start = time.perf_counter_ns()
        try:
            yield box
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, box[0], start, end, parent, self.job)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Time every call of ``owner.attr``; ``name`` is the span name
        or a callable ``(args) -> span name``; ``after(args, result)``
        runs once the span has closed."""
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with recorder.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """{span id: self ns}: duration minus the union of children."""
        children = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered, cursor = 0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = end - start - covered
        return out

    def layer_by_job(self):
        """{job: {layer name: self seconds}} summed per job."""
        selfs = self.self_times()
        out = {}
        for sid, name, _, _, _, job in self.spans:
            per = out.setdefault(job, {})
            per[name] = per.get(name, 0.0) + selfs[sid] / 1e9
        return out

    def layer_medians(self, jobs):
        """{layer: median over those of ``jobs`` where it ran of its
        self time}."""
        per_layer = {}
        for job, layers in self.layer_by_job().items():
            if job not in jobs:
                continue
            for name, seconds in layers.items():
                per_layer.setdefault(name, []).append(seconds)
        return {name: statistics.median(values)
                for name, values in per_layer.items()}

    def coverage(self, root: str, layers, jobs) -> float:
        """Median over ``jobs`` of the share of the ``root`` span's
        duration covered by the self times of named ``layers``."""
        selfs = self.self_times()
        shares = []
        for job in jobs:
            spans = [s for s in self.spans if s[5] == job]
            total = sum(s[3] - s[2] for s in spans if s[1] == root)
            named = sum(selfs[s[0]] for s in spans if s[1] in layers)
            if total:
                shares.append(named / total)
        return statistics.median(shares) if shares else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "job")
        path.write_text(json.dumps([dict(zip(keys, s))
                                    for s in self.spans]) + "\n")


def install_layers(rec: Recorder) -> None:
    """Patch the build and run path at the names their callers use."""
    from repro.fireripper import compiler
    from repro.harness import stepjit
    from repro.harness.partitioned import PartitionedSimulation
    from repro.parallel.coordinator import ProcessBackend
    from repro.service import executor

    rec.wrap(executor, "parse_circuit", "firrtl.parse")
    for attr, name in (("check_circuit", "fireripper.check"),
                       ("select_explicit", "fireripper.select"),
                       ("extract_partitions", "fireripper.extract"),
                       ("apply_fast_mode_transforms",
                        "fireripper.fastmode"),
                       ("plan_boundaries", "fireripper.boundary"),
                       ("build_report", "fireripper.report"),
                       ("Simulator", "rtl.elaborate")):
        rec.wrap(compiler, attr, name)
    rec.wrap(compiler.PartitionedDesign, "build_simulation",
             "harness.build",
             after=lambda _, sim: setattr(rec, "last_sim", sim))
    rec.wrap(PartitionedSimulation, "run", "harness.run")
    rec.wrap(PartitionedSimulation, "ensure_schedule", "harness.schedule")
    seen = weakref.WeakSet()

    def codegen_name(args):
        # the first step-plane build of a simulation generates code; a
        # later run() entry re-binds against cached kernels
        sim = args[0]
        first = sim not in seen
        seen.add(sim)
        return "harness.stepjit." + ("codegen" if first else "rebind")

    rec.wrap(stepjit, "compile_step_functions", codegen_name)
    rec.wrap(ProcessBackend, "run", "parallel.run",
             after=lambda args, _: rec.wire_stats.append(
                 (rec.job, dict(args[0].last_wire_stats))))


def repack_ns(sim, calls: int = 20000) -> float:
    """Median ns of one ``repack`` over the simulation's own links."""
    from repro.libdn.codec import repack, repack_plan

    channels = {}
    for part in sim.partitions.values():
        for prefix, unit in part.units:
            for base, ch in unit.out_channels.items():
                channels[("out", part.name, prefix + base)] = ch
            for base, ch in unit.in_channels.items():
                channels[("in", part.name, prefix + base)] = ch
    per_link = []
    for link in sim.links:
        src = channels[("out",) + tuple(link.src)].codec
        dst = channels[("in",) + tuple(link.dst)].codec
        plan = repack_plan(src, dst, link.rename)
        word = (1 << src.width) - 1
        start = time.perf_counter_ns()
        for _ in range(calls):
            repack(word, plan)
        per_link.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(per_link)


def jit_counts(report: dict):
    """(compiled, fused-kernel) partition counts of a ``last_jit_report``."""
    compiled = [v for v in report.values() if v.startswith("compiled")]
    return len(compiled), sum("(0 fused-kernel)" not in v
                              for v in compiled)
