"""The two GC40 workloads: the Sec. V-B wide pair driven in-process
through the library, exact mode (``gc40_exact``) or fast mode on the
socket process backend (``gc40_fast_socket``).

A run is a sequence of trials, each in a fresh interpreter so that the
process-to-process spread of the run loop is averaged inside a run.  A
trial builds the pair from IR text and runs the warm-up segment (the
set-up sample), rebuilds it ``designs`` more times (``design`` jobs),
then walks its plan: each fresh window is a ``run()`` to a new cycle
count, each repeat a ``run()`` to the cycle already reached.  Every
result is checked against the committed reference digests.  After the
trials, one in-process replay with the target's outputs recorded checks
the warm-up and final states in full; on ``gc40_fast_socket`` it is
also the in-process run the socket results must agree with.

Run a single trial by hand::

    python3 perfbench/gc40.py --trial '{"workload": "gc40_exact", "plan": 0}'
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.fireripper import FireRipper, PartitionGroup, PartitionSpec  # noqa: E402
from repro.firrtl import parse_circuit  # noqa: E402
from repro.platform import QSFP_AURORA  # noqa: E402

import stats  # noqa: E402
import workloads as wl  # noqa: E402
from reference import (digests, load_reference, mismatches,  # noqa: E402
                       result_digest)

#: tail percentiles, each the highest with ten samples beyond it at a
#: run's usual sample count (about 200 / 60 windows per run)
TAIL_Q = {"gc40_exact": 0.9, "gc40_fast_socket": 0.8}
TRIAL_TIMEOUT_S = 120


def build(text: str, mode: str, record_outputs: bool = False):
    """IR text -> a ready partitioned simulation (library path)."""
    circuit = parse_circuit(text)
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga0", ["right"])])
    design = FireRipper(spec).compile(circuit)
    return design.build_simulation(QSFP_AURORA, host_freq_mhz=30.0,
                                   record_outputs=record_outputs)


def replay(workload: str) -> dict:
    """Digests of the workload's warm-up and final states, run
    in-process with the target's outputs recorded."""
    sim = build(wl.gc40_text(), wl.GC40_PLANS[workload][0],
                record_outputs=True)
    out = {}
    for point, cycles in (("warmup", wl.GC40_WARMUP),
                          ("final", wl.gc40_final(workload))):
        result = sim.run(cycles, backend="inproc")
        out[wl.gc40_key(workload, point)] = digests(sim, result)
    return out


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def trial(workload: str, plan: int, rec=None) -> dict:
    """One trial; ``rec`` (a trace Recorder) tags its spans per job."""
    mode, backend, _, _, designs = wl.GC40_PLANS[workload]
    ref = load_reference()
    text = wl.gc40_text()
    ops, failed = [], 0

    def tag(job):
        if rec is not None:
            rec.job = job

    def cold(job):
        tag(job)
        start = time.perf_counter()
        sim = build(text, mode)
        result = sim.run(wl.GC40_WARMUP, backend=backend)
        seconds = time.perf_counter() - start
        ok = result_digest(result) == \
            ref[wl.gc40_key(workload, "warmup")]["result"]
        return sim, seconds, ok

    sim, setup_s, ok = cold("setup")
    failed += not ok
    for i in range(designs):
        sim, seconds, ok = cold(f"design{i}")
        ops.append(("design", seconds, wl.GC40_WARMUP, ok))
    cursor = wl.GC40_WARMUP
    result = None
    for i, (kind, target) in enumerate(wl.gc40_calls(workload, plan)):
        tag(f"{kind}{i}")
        start = time.perf_counter()
        result = sim.run(target, backend=backend)
        seconds = time.perf_counter() - start
        ops.append((kind, seconds, target - cursor,
                    result.target_cycles == target))
        cursor = target
    tag("")
    failed += result_digest(result) != \
        ref[wl.gc40_key(workload, "final")]["result"]
    failed += sum(not op[3] for op in ops)
    return {"setup_s": setup_s, "ops": ops, "failed": failed,
            "attempted": len(ops) + 1, "peak_rss_mb": peak_rss_mb(),
            "sim": sim, "result": result}


def _spawn_trial(workload: str, plan: int) -> dict:
    """Run one trial in a fresh interpreter; waits for it (and kills
    its process group) however it ends."""
    cmd = [sys.executable, str(HERE / "gc40.py"), "--trial",
           json.dumps({"workload": workload, "plan": plan})]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "trial timed out"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        return {"error": (err.strip().splitlines() or ["no output"])[-1]}
    return json.loads(out.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float):
    """Untraced run: trials until ``seconds`` have elapsed."""
    start = time.monotonic()
    trials, attempted, failed = [], 0, 0
    for plan in wl.gc40_trials(workload, seed):
        if trials and time.monotonic() - start >= seconds:
            break
        out = _spawn_trial(workload, plan)
        if "error" in out:
            print(f"trial {plan} failed: {out['error']}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        trials.append(out)
        attempted += out["attempted"]
        failed += out["failed"]
    checked = replay(workload)
    attempted += len(checked)
    failed += mismatches(checked, load_reference())
    ops = [op for t in trials for op in t["ops"]]
    rates = [cycles / s for kind, s, cycles, _ in ops if kind == "fresh"]
    fresh = [s for kind, s, _, _ in ops if kind == "fresh"]
    repeat = [s * 1e3 for kind, s, _, _ in ops if kind == "repeat"]
    design = [s for kind, s, _, _ in ops if kind == "design"]
    q = TAIL_Q[workload]
    elapsed = sum(s for _, s, _, _ in ops)
    samples = {
        "setup_s": (stats.mean([t["setup_s"] for t in trials]),
                    len(trials)),
        "cycles_per_s": (sum(c for kind, _, c, _ in ops if kind == "fresh")
                         / sum(fresh), len(rates)),
        "cycles_per_s_tail": (stats.tail(rates, q, lower_is_worse=True),
                              len(rates), q),
        "job_s.fresh": (stats.mean(fresh), len(fresh)),
        "job_s.design": (stats.mean(design), len(design)),
        "job_ms.repeat": (stats.mean(repeat), len(repeat)),
        "job_ms.repeat_tail": (stats.tail(repeat, q), len(repeat), q),
        "jobs_per_s": (len(ops) / elapsed, len(ops)),
        "peak_rss_mb": (stats.median([t["peak_rss_mb"] for t in trials]),
                        len(trials)),
    }
    raw = {"fresh_s": fresh, "design_s": design, "repeat_ms": repeat,
           "rates": rates, "setup_s": [t["setup_s"] for t in trials]}
    return attempted, failed, samples, raw


def traced(workload: str, seed: int, out_dir: Path):
    """Traced run: one trial in this process with spans recorded, plus
    the tracing overhead and, on the socket backend, the transport's
    fixed cost and its in-process base."""
    from trace import Recorder, install_layers, jit_counts, repack_ns

    plan = wl.gc40_trials(workload, seed)[0]
    # tracing overhead first (it also warms this process's lazy imports):
    # the plan's fresh windows on one simulation, every other one traced
    mode, backend, _, _, _ = wl.GC40_PLANS[workload]
    sim = build(wl.gc40_text(), mode)
    cursor = sim.run(wl.GC40_WARMUP, backend=backend).target_cycles
    probe, per_cycle = Recorder(), ([], [])
    for i, (_, target) in enumerate(c for c in wl.gc40_calls(workload, plan)
                                    if c[0] == "fresh"):
        if i % 2:
            install_layers(probe)
        start = time.perf_counter()
        sim.run(target, backend=backend)
        per_cycle[i % 2].append((time.perf_counter() - start)
                                / (target - cursor))
        probe.uninstall()
        cursor = target
    rec = Recorder()
    install_layers(rec)
    rec.wrap(sys.modules[__name__], "parse_circuit", "firrtl.parse")
    try:
        out = trial(workload, plan, rec)
    finally:
        rec.uninstall()
    rec.write(out_dir / f"trace-{workload}-{seed}.json")
    checked = replay(workload)
    attempted = out["attempted"] + len(checked)
    failed = out["failed"] + mismatches(checked, load_reference())
    layers = {}
    design_jobs = {f"design{i}" for i in range(wl.GC40_PLANS[workload][4])}
    build_path = rec.layer_medians(design_jobs)
    for name in ("firrtl.parse", "fireripper.check", "fireripper.select",
                 "fireripper.extract", "fireripper.fastmode",
                 "fireripper.boundary", "fireripper.report",
                 "rtl.elaborate", "harness.build", "harness.schedule",
                 "harness.stepjit.codegen"):
        layers[name + "_s"] = build_path.get(name, 0.0)
    fresh_jobs = {job for job in rec.layer_by_job()
                  if job.startswith("fresh")}
    run_path = rec.layer_medians(fresh_jobs)
    layers["harness.run_s"] = run_path.get("harness.run", 0.0)
    layers["harness.stepjit.rebind_s"] = run_path.get(
        "harness.stepjit.rebind", 0.0)
    sim, result = out["sim"], out["result"]
    inproc, inproc_windows = sim, []
    if backend != "inproc":
        # the same plan in-process: the base of the transport's
        # slowdown, and the step-plane verdicts the socket workers
        # reach out of sight
        inproc = build(wl.gc40_text(), mode)
        inproc.run(wl.GC40_WARMUP, backend="inproc")
        for kind, target in wl.gc40_calls(workload, plan):
            start = time.perf_counter()
            inproc.run(target, backend="inproc")
            if kind == "fresh":
                inproc_windows.append(time.perf_counter() - start)
    report = inproc.last_jit_report
    layers["harness.jit_partitions"], layers["harness.fused_partitions"] \
        = jit_counts(report)
    layers["libdn.tokens_per_cycle"] = \
        result.tokens_transferred / result.target_cycles
    layers["libdn.repack_ns"] = repack_ns(sim)
    layers["trace.overhead_frac"] = \
        stats.mean(per_cycle[1]) / stats.mean(per_cycle[0]) - 1.0
    wins = [s for kind, s, _, _ in out["ops"] if kind == "fresh"]
    if inproc_windows:
        par = rec.layer_medians(fresh_jobs)
        layers["parallel.run_s"] = par.get("parallel.run", 0.0)
        fresh_wire = [w for job, w in rec.wire_stats
                      if job.startswith("fresh")]
        sent = sum(p.get("messages_sent", 0)
                   for w in fresh_wire for p in w.values())
        effects = sum(p.get("effects_sent", 0)
                      for w in fresh_wire for p in w.values())
        cycles = sum(c for kind, _, c, _ in out["ops"] if kind == "fresh")
        layers["parallel.messages"] = sent / cycles
        layers["parallel.effects_per_message"] = effects / max(sent, 1)
        layers["parallel.inproc_ratio"] = \
            stats.median(wins) / stats.median(inproc_windows)
        # fixed cost of one process-backend run(): spawn, rendezvous
        # and merge around a single simulated cycle
        fixed = []
        for _ in range(3):
            target = sim.frontier_cycle() + 1
            start = time.perf_counter()
            sim.run(target, backend=backend)
            fixed.append(time.perf_counter() - start)
        layers["parallel.fixed_s"] = stats.median(fixed)
    return attempted, failed, layers


def _main() -> int:
    args = json.loads(sys.argv[sys.argv.index("--trial") + 1])
    out = trial(args["workload"], args["plan"])
    out.pop("sim")
    out.pop("result")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
