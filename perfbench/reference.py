"""Reference digests of every config a benchmark run can check, and the
command that regenerates them.

A config's reference is :func:`repro.fuzz.functional_digest` of its
run, plus the modelled rate, split into two sha256s:

- ``result``: target cycles, tokens, per-partition cycles, the full FMR
  ``detail`` and ``rate_hz``.  Every timed run's results and every
  archived service record are checked against it.
- ``outputs``: every token the target drove on its external outputs.
  Timed runs keep the shipping default of not recording outputs, so each
  run checks this half with in-process replays, built with
  ``record_outputs=True``, of the configs it ran.

Both halves are taken after a JSON round trip, so an archived record
and an in-memory result digest alike.

Regenerate (a few minutes; only when the simulated behaviour is meant
to change)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: a simulation that recorded no outputs
NO_OUTPUTS = SimpleNamespace(output_log={})


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(sim, result) -> dict:
    """``{"result": sha, "outputs": sha}`` of one finished run."""
    from repro.fuzz import functional_digest
    payload = json.loads(json.dumps(functional_digest(sim, result)))
    outputs = payload.pop("outputs")
    payload["rate_hz"] = result.rate_hz
    return {"result": _sha(payload), "outputs": _sha(outputs)}


def result_digest(result) -> str:
    """The ``result`` half for a run that recorded no outputs."""
    return digests(NO_OUTPUTS, result)["result"]


def record_digest(record: dict) -> str:
    """The ``result`` half of an archived run record."""
    return result_digest(SimpleNamespace(
        target_cycles=record["target_cycles"],
        tokens_transferred=record["tokens_transferred"],
        per_partition_cycles=record["per_partition_cycles"],
        detail=record["detail"], rate_hz=record["rate_hz"]))


def mismatches(got: dict, ref: dict) -> int:
    """Replayed configs whose digests differ from the reference."""
    return sum(digest != ref.get(key) for key, digest in got.items())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import gc40
    import soc24
    import workloads as wl

    out: dict = {}
    for workload in wl.GC40_PLANS:
        out.update(gc40.replay(workload))
    entries = [(None, wl.WARMUP_CYCLES)]
    entries += [(None, c) for c in wl.FRESH_CYCLES]
    entries += [(v, wl.DESIGN_CYCLES) for v in range(wl.DESIGN_VARIANTS)]
    out.update(soc24.replay(entries))
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} references to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
