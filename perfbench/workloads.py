"""Seeded inputs of the three benchmark workloads.

Everything the program under test receives is made here from the
``--seed`` argument: IR text, extract groups, cycle counts and the job
classes of the service mix.  The choices are drawn from fixed
catalogues so that every config a run can check has a committed
reference digest (``reference.json``); the seed decides which catalogue
entries a run uses and in which order.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

from repro.fireripper import NoCPartitionSpec
from repro.fireripper.select import select_noc
from repro.firrtl import print_circuit
from repro.targets.programs import sender_program, sink_program
from repro.targets.soc import make_ring_noc_soc, make_wide_pair

# -- soc24_service: the Sec. V-A 24-core ring-NoC SoC, fast mode ----------

SOC_TILES = 24
#: Sec. V-A mini case study: every tile streams two packets to the hub
SOC_PACKETS = 2
#: NoC-partition-mode router groups: six tiles per FPGA, hub on the base
SOC_ROUTER_GROUPS = [list(range(i * 6, (i + 1) * 6)) for i in range(4)]
#: the cycle counts a ``fresh`` job may ask for (base circuit)
FRESH_CYCLES = tuple(range(3500, 4460, 10))
#: design variants: per-tile packet counts drawn from {1, 2}
DESIGN_VARIANTS = 96
DESIGN_CYCLES = 4000
#: the untimed job that warms a freshly launched service
WARMUP_CYCLES = 2000
#: catalogue entries one run draws; more than a run can send
PICK_FRESH = 32
PICK_DESIGN = 32
REPEATS = 50000

# -- gc40_*: the Sec. V-B wide pair, 3600 boundary bits each way ----------

GC40_WIDTH = 3600
GC40_WARMUP = 1000
GC40_PLANS = {
    # mode, backend, window lengths, windows per trial, design rebuilds
    "gc40_exact": ("exact", "inproc", (4000, 4500, 5000, 5500, 6000),
                   40, 6),
    "gc40_fast_socket": ("fast", "process-socket",
                         (1000, 1250, 1500, 1750, 2000), 10, 4),
}
#: trial plans in the catalogue; a run walks a seeded permutation of
#: them until its time is up.  All end at the same cycle, so one
#: ``final`` reference digest covers them.
GC40_TRIALS = 16


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def design_packets(variant: int):
    """Per-tile packet counts of design variant ``variant`` (None: the
    base Sec. V-A configuration)."""
    if variant is None:
        return (SOC_PACKETS,) * SOC_TILES
    rng = _rng(variant, "design-variant")
    packets = tuple(rng.choice((1, 2)) for _ in range(SOC_TILES))
    if packets == (SOC_PACKETS,) * SOC_TILES:
        packets = (1,) + packets[1:]
    return packets


@lru_cache(maxsize=None)
def soc_circuit(variant=None):
    """(IR text, extract groups) of one soc24 design variant."""
    packets = design_packets(variant)
    circuit = make_ring_noc_soc(
        SOC_TILES, tile_programs=[sender_program(k) for k in packets],
        hub_program=sink_program(sum(packets)))
    groups = select_noc(circuit, NoCPartitionSpec.make(SOC_ROUTER_GROUPS))
    return print_circuit(circuit), [groups[g] for g in sorted(groups)]


def soc_config(variant, cycles: int) -> dict:
    """The service job config of one catalogue entry."""
    text, extract = soc_circuit(variant)
    return {"kind": "simulate", "circuit_text": text, "extract": extract,
            "mode": "fast", "cycles": cycles}


def soc_key(variant, cycles: int) -> str:
    """Reference-digest key of one catalogue entry."""
    return f"soc24:{'base' if variant is None else variant}:{cycles}"


def soc_job_lists(seed: int):
    """The two clients' job lists.

    Client 0 sends the cold jobs: ``("fresh", None, cycles)`` and
    ``("design", variant, cycles)``, one of each per pair in a seeded
    order.  Client 1 sends repeats: ``("repeat", pick)`` resubmits the
    finished config at position ``int(pick * n)`` of the ``n`` configs
    finished so far (the warm-up job's, then client 0's)."""
    rng = _rng(seed, "soc24")
    fresh = [("fresh", None, c)
             for c in rng.sample(FRESH_CYCLES, PICK_FRESH)]
    design = [("design", v, DESIGN_CYCLES)
              for v in rng.sample(range(DESIGN_VARIANTS), PICK_DESIGN)]
    cold = [job for pair in zip(fresh, design)
            for job in rng.sample(pair, 2)]
    repeats = [("repeat", rng.random()) for _ in range(REPEATS)]
    return [cold, repeats]


def gc40_text() -> str:
    return print_circuit(make_wide_pair(GC40_WIDTH, comb_boundary=True))


def gc40_key(workload: str, point: str) -> str:
    """Reference-digest key of the ``"warmup"`` or ``"final"`` state."""
    return f"{workload}:{point}"


def gc40_windows(workload: str, plan: int):
    """Window lengths of one trial plan: every length equally often, in
    a seeded order, so each trial times the same mix of window sizes."""
    _, _, lengths, count, _ = GC40_PLANS[workload]
    windows = list(lengths) * (count // len(lengths))
    _rng(plan, f"{workload}-plan").shuffle(windows)
    return windows


def gc40_calls(workload: str, plan: int):
    """``(class, target cycle)`` of every ``run()`` call of one trial
    plan after its warm-up: a fresh window, then a repeat of it."""
    calls, cursor = [], GC40_WARMUP
    for window in gc40_windows(workload, plan):
        cursor += window
        calls += [("fresh", cursor), ("repeat", cursor)]
    return calls


def gc40_final(workload: str) -> int:
    """The cycle every trial plan ends at: the plans order the same
    windows differently."""
    return gc40_calls(workload, 0)[-1][1]


def gc40_trials(workload: str, seed: int):
    """The order in which a run walks the trial plans."""
    plans = list(range(GC40_TRIALS))
    _rng(seed, workload).shuffle(plans)
    return plans


def inputs_digest(workload: str, seed: int) -> str:
    """sha256 of a run's generated job list — equal seeds give equal
    lists, byte for byte."""
    if workload == "soc24_service":
        payload = soc_job_lists(seed)
    else:
        payload = [gc40_calls(workload, plan)
                   for plan in gc40_trials(workload, seed)]
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
