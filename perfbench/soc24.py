"""The ``soc24_service`` workload: the Sec. V-A 24-core SoC through a
``repro serve`` process.

The service runs in its own process with its shipping defaults (two
workers).  Two closed-loop client threads, one HTTP connection each,
walk their seeded job lists: a client sends its next job only when the
previous reply is in.  Set-up is the time from launching the service
until its first reply, taken over several launches.  Every executed
job's archived record is digested against the committed reference, and
every repeat must be served from the cache with its first run's record.
The service archives no target outputs, so after the session each
executed config is replayed in-process with its outputs recorded and
checked in full.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.errors import ReproError
from repro.service import TERMINAL, ServiceClient
from repro.telemetry import RunRegistry

import stats
import workloads as wl
from reference import digests, load_reference, mismatches, record_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5
#: tail percentiles, each the highest with ten samples beyond it at a
#: run's usual sample count (about 12 executed jobs, 250 repeats; no
#: percentile above p50 keeps ten executed jobs beyond it)
RATE_TAIL_Q = 0.5
REPEAT_TAIL_Q = 0.95
JOB_TIMEOUT_S = 120.0
#: worker processes of the output-recording replays (= nproc on the
#: reference host)
REPLAY_WORKERS = 2
#: length of the service session inside a traced run
TRACE_SESSION_S = 10.0
#: cold jobs (with one repeat after each) driven through the traced chain
TRACE_COLD = 5
#: spans of the named layers a job's wall time is attributed to
LAYER_SPANS = (
    "service.normalize", "telemetry.fingerprint",
    "service.cache_lookup_miss", "service.cache_lookup_hit",
    "firrtl.parse", "fireripper.check", "fireripper.select",
    "fireripper.extract", "fireripper.fastmode", "fireripper.boundary",
    "fireripper.report", "rtl.elaborate", "harness.build",
    "harness.schedule", "harness.stepjit.codegen",
    "harness.stepjit.rebind", "harness.run", "telemetry.archive")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Service:
    """One ``repro serve`` process, started and always reaped."""

    def __init__(self, runs_dir: Path, log: Path):
        self.port = _free_port()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, "-m", "repro", "serve", "--port",
               str(self.port), "--runs-dir", str(runs_dir)]
        start = time.perf_counter()
        with open(log, "ab") as sink:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=sink, stderr=sink,
                start_new_session=True)
        self.client = ServiceClient(port=self.port, timeout=JOB_TIMEOUT_S)
        try:
            self._await_reply(start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_reply(self, deadline: float) -> None:
        probe = ServiceClient(port=self.port, timeout=5.0)
        while True:
            if self.proc.poll() is not None:
                raise ReproError("repro serve exited during start-up")
            try:
                probe.health()
                return
            except ReproError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ReproError("no VmHWM for the service process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def _submit(client: ServiceClient, config: dict, tenant: str):
    """One closed-loop request: (seconds, job record or None, error)."""
    start = time.perf_counter()
    try:
        record = client.submit(config, tenant=tenant)
        if record["state"] not in TERMINAL:
            record = client.wait(record["job_id"], timeout=JOB_TIMEOUT_S)
        error = "" if record["state"] == "done" else \
            (record.get("error") or record["state"])
    except ReproError as exc:
        record, error = None, str(exc)
    return time.perf_counter() - start, record, error


def session(seed: int, seconds: float, out_dir: Path) -> dict:
    """Launch the service, warm it, drive both clients for ``seconds``,
    read ``/stats`` and check every result."""
    ref = load_reference()
    lists = wl.soc_job_lists(seed)
    work = out_dir / f"soc24-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups, service = [], None
    try:
        for i in range(SETUP_LAUNCHES):
            service = Service(work / f"runs{i}", work / "serve.log")
            setups.append(service.setup_s)
            if i < SETUP_LAUNCHES - 1:
                service.stop()
        client = service.client
        # the untimed warm-up job runs while this process renders the
        # job configs
        warm = []
        warmer = threading.Thread(target=lambda: warm.extend(_submit(
            client, wl.soc_config(None, wl.WARMUP_CYCLES), "warmup")))
        warmer.start()
        cold, repeats = lists
        configs = {(variant, cycles): wl.soc_config(variant, cycles)
                   for _, variant, cycles in cold}
        configs[(None, wl.WARMUP_CYCLES)] = wl.soc_config(
            None, wl.WARMUP_CYCLES)
        warmer.join()
        results = [[], []]
        finished = [(None, wl.WARMUP_CYCLES)]
        deadline = time.monotonic() + seconds

        def send(index, kind, variant, cycles):
            outcome = _submit(client, configs[(variant, cycles)],
                              f"client{index}")
            results[index].append((kind, variant, cycles) + outcome)
            return not outcome[-1]

        def cold_loop():
            for kind, variant, cycles in cold:
                if time.monotonic() >= deadline:
                    return
                if send(0, kind, variant, cycles):
                    finished.append((variant, cycles))

        def repeat_loop():
            for _, pick in repeats:
                if time.monotonic() >= deadline:
                    return
                send(1, "repeat", *finished[int(pick * len(finished))])

        start = time.perf_counter()
        threads = [threading.Thread(target=cold_loop),
                   threading.Thread(target=repeat_loop)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        service_stats = client.stats()
        peak = service.peak_rss_mb()
    finally:
        if service is not None:
            service.stop()
    registry = RunRegistry(work / f"runs{SETUP_LAUNCHES - 1}")
    jobs = [job for per in results for job in per]
    failed, executed = _check(
        registry, ref,
        [("warmup", None, wl.WARMUP_CYCLES) + tuple(warm[1:])] + jobs)
    shutil.rmtree(work, ignore_errors=True)
    checked = replay(executed)
    failed += mismatches(checked, ref)
    return {"setups": setups, "jobs": jobs, "wall": wall,
            "stats": service_stats, "peak_rss_mb": peak,
            "attempted": len(jobs) + 1 + len(checked), "failed": failed,
            "replayed": set(executed)}


def _check(registry, ref, outcomes):
    """Failed operations among ``(class, variant, cycles, ..., record,
    error)`` outcomes: errors, repeats not served from the cache with
    their first run's record, digest mismatches.  Also returns the
    ``(variant, cycles)`` of every config that was executed."""
    failed, first_run, checked = 0, {}, {}
    for kind, variant, cycles, *_, record, error in outcomes:
        if error or record is None:
            failed += 1
            continue
        run_id = record["run_id"]
        if kind == "repeat":
            if record["source"] != "cache" or \
                    run_id != first_run.get((variant, cycles)):
                failed += 1
            continue
        first_run[(variant, cycles)] = run_id
        if run_id not in checked:
            checked[run_id] = record_digest(registry.load(run_id))
        if checked[run_id] != ref[wl.soc_key(variant, cycles)]["result"]:
            failed += 1
    return failed, list(first_run)


def _replay_circuit(item):
    """Digests of one design variant at each of its cycle counts, run
    in-process with the target's outputs recorded.  Compiles as the
    service does (``build_simulation``), once per variant."""
    from repro.fireripper import FireRipper, PartitionGroup, PartitionSpec
    from repro.firrtl import parse_circuit
    from repro.service import normalize_config
    from repro.service.executor import TRANSPORTS

    variant, cycle_counts = item
    config = normalize_config(wl.soc_config(variant, cycle_counts[0]))
    groups = [PartitionGroup.make(f"fpga{i}", paths)
              for i, paths in enumerate(config["extract"])]
    design = FireRipper(PartitionSpec(mode=config["mode"], groups=groups)) \
        .compile(parse_circuit(config["circuit_text"]))
    out = {}
    for cycles in cycle_counts:
        sim = design.build_simulation(
            TRANSPORTS[config["transport"]], host_freq_mhz=config["freq"],
            record_outputs=True)
        # the service always wires a stop hook; so does the replay
        result = sim.run(cycles, stop=lambda _sim: False,
                         backend=config["backend"])
        out[wl.soc_key(variant, cycles)] = digests(sim, result)
    return out


def replay(entries) -> dict:
    """Digests of the ``(variant, cycles)`` configs, replayed with their
    outputs recorded in ``REPLAY_WORKERS`` processes (all reaped)."""
    by_variant = {}
    for variant, cycles in sorted(set(entries), key=lambda e: (
            e[0] is not None, e[0] or 0, e[1])):
        by_variant.setdefault(variant, []).append(cycles)
    out = {}
    with ProcessPoolExecutor(max_workers=REPLAY_WORKERS) as pool:
        for part in pool.map(_replay_circuit, by_variant.items()):
            out.update(part)
    return out


def run(seed: int, seconds: float, out_dir: Path):
    """Untraced run -> (attempted, failed, metric samples, raw samples)."""
    out = session(seed, seconds, out_dir)
    jobs = [j for j in out["jobs"] if not j[-1]]
    by_kind = {}
    for kind, _, cycles, latency, *_ in jobs:
        by_kind.setdefault(kind, []).append((latency, cycles))
    for kind in ("fresh", "design", "repeat"):
        if kind not in by_kind:
            raise ReproError(f"no {kind} job completed in {seconds:g} s")
    cold = by_kind["fresh"] + by_kind["design"]
    rates = [cycles / latency for latency, cycles in cold]
    repeat = [latency * 1e3 for latency, _ in by_kind["repeat"]]
    samples = {
        "setup_s": (stats.mean(out["setups"]), len(out["setups"])),
        "cycles_per_s": (sum(c for _, c in cold) / out["wall"], len(cold)),
        "cycles_per_s_tail": (stats.tail(rates, RATE_TAIL_Q,
                                         lower_is_worse=True),
                              len(rates), RATE_TAIL_Q),
        "job_s.fresh": (stats.mean([s for s, _ in by_kind["fresh"]]),
                        len(by_kind["fresh"])),
        "job_s.design": (stats.mean([s for s, _ in by_kind["design"]]),
                         len(by_kind["design"])),
        "job_ms.repeat": (stats.mean(repeat), len(repeat)),
        "job_ms.repeat_tail": (stats.tail(repeat, REPEAT_TAIL_Q),
                               len(repeat), REPEAT_TAIL_Q),
        "jobs_per_s": (len(cold) / out["wall"], len(cold)),
        "peak_rss_mb": (out["peak_rss_mb"], 1),
    }
    raw = {"fresh_s": [s for s, _ in by_kind["fresh"]],
           "design_s": [s for s, _ in by_kind["design"]],
           "repeat_ms": repeat, "rates": rates, "setup_s": out["setups"]}
    return out["attempted"], out["failed"], samples, raw


def traced(seed: int, out_dir: Path):
    """Traced run: a short service session for the service's own
    counters, then client 0's first jobs driven in-process through the
    executor's steps with every layer's spans recorded."""
    from repro.service import (Job, ResultCache, execute_config,
                               normalize_config)
    from repro.telemetry import config_fingerprint
    from trace import Recorder, install_layers, jit_counts, repack_ns

    out = session(seed, TRACE_SESSION_S, out_dir)
    attempted, failed = out["attempted"], out["failed"]
    ref = load_reference()
    work = out_dir / f"soc24-trace-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    registry = RunRegistry(work)
    cache = ResultCache(registry)

    def no_stop():
        return False

    # warm this process, then time one config with and without spans
    execute_config(normalize_config(
        wl.soc_config(None, wl.WARMUP_CYCLES)), should_stop=no_stop)
    probe = normalize_config(wl.soc_config(None, wl.FRESH_CYCLES[0]))
    rec = Recorder()
    plain, spanned = [], []
    for _ in range(2):
        start = time.perf_counter()
        execute_config(probe, should_stop=no_stop)
        plain.append(time.perf_counter() - start)
        install_layers(rec)
        rec.job = "overhead"
        start = time.perf_counter()
        execute_config(probe, should_stop=no_stop)
        spanned.append(time.perf_counter() - start)
        rec.uninstall()

    # client 0's first cold jobs, each followed by one of client 1's
    # repeats over the configs finished so far
    cold, repeats = wl.soc_job_lists(seed)
    plan, finished = [], []
    for (kind, variant, cycles), (_, pick) in zip(cold[:TRACE_COLD],
                                                  repeats):
        plan.append((kind, variant, cycles))
        finished.append((variant, cycles))
        plan.append(("repeat",) + finished[int(pick * len(finished))])
    outcomes = []
    install_layers(rec)
    try:
        for i, (kind, variant, cycles) in enumerate(plan):
            rec.job = f"{kind}{i}"
            config = wl.soc_config(variant, cycles)
            with rec.span("job"):
                with rec.span("service.normalize"):
                    normalized = normalize_config(config)
                with rec.span("telemetry.fingerprint"):
                    fingerprint = config_fingerprint(normalized)
                with rec.span("service.cache_lookup_miss") as box:
                    record = cache.lookup(fingerprint)
                    if record is not None:
                        box[0] = "service.cache_lookup_hit"
                source = "cache"
                if record is None:
                    source = "execution"
                    job = Job(job_id=rec.job, tenant="trace",
                              config=normalized, fingerprint=fingerprint)
                    with rec.span("service.execute"):
                        outcome = execute_config(normalized,
                                                 should_stop=no_stop)
                    with rec.span("telemetry.archive"):
                        record = cache.store(outcome.result, job,
                                             backend=outcome.backend,
                                             extra=outcome.extra)
            outcomes.append((kind, variant, cycles, {
                "run_id": record["run_id"], "source": source}, ""))
    finally:
        rec.uninstall()
    chain_failed, executed = _check(registry, ref, outcomes)
    checked = replay(set(executed) - out["replayed"])
    failed += chain_failed + mismatches(checked, ref)
    attempted += len(outcomes) + len(checked)
    rec.job = ""
    rec.write(out_dir / f"trace-soc24_service-{seed}.json")

    jobs = rec.layer_by_job()
    cold = {j for j in jobs if j.startswith(("fresh", "design"))}
    fresh = {j for j in jobs if j.startswith("fresh")}
    repeats = {j for j in jobs if j.startswith("repeat")}
    layers = {}
    medians = rec.layer_medians(cold)
    for name in LAYER_SPANS:
        layers[name + "_s"] = medians.get(name, 0.0)
    layers["service.cache_lookup_hit_s"] = rec.layer_medians(
        repeats).get("service.cache_lookup_hit", 0.0)
    sim = rec.last_sim
    report = sim.last_jit_report
    layers["harness.jit_partitions"], layers["harness.fused_partitions"] \
        = jit_counts(report)
    result = sim.result()
    layers["libdn.tokens_per_cycle"] = \
        result.tokens_transferred / result.target_cycles
    layers["libdn.repack_ns"] = repack_ns(sim)
    layers["trace.fresh_coverage"] = rec.coverage("job", LAYER_SPANS,
                                                  fresh)
    layers["trace.overhead_frac"] = \
        stats.median(spanned) / stats.median(plain) - 1.0
    st = out["stats"]
    for phase in ("queue_wait", "execution"):
        hists = st["metrics"]["latency"].get(phase, {}).values()
        total = sum(h["sum"] for h in hists)
        layers[f"service.{phase}_s"] = \
            total / max(1, sum(h["count"] for h in hists))
    layers["service.hit_ratio"] = \
        st["cache"]["hits"] / max(1, st["cache"]["lookups"])
    layers["service.executions"] = st["counters"]["executions"]
    layers["service.coalesced"] = st["counters"]["coalesced"]
    shutil.rmtree(work, ignore_errors=True)
    return attempted, failed, layers
