"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload soc24_service --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --list     # every metric, with its unit

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.  The
last line printed is the JSON result; the lines before it are a
readable table with each metric's sample count and an ``env`` block.
Run from the root of a checkout; the program is the ``src/`` tree next
to this directory and runs with its shipping defaults (any ``REPRO_*``
variable is removed from the environment first).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("soc24_service", "gc40_exact", "gc40_fast_socket")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _list() -> int:
    spec = _spec()
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            print(f"{kind:10s} {metric['name']:34s} {metric['unit']:8s} "
                  f"{metric['better']}")
    return 0


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # not a git checkout: name the source tree by its content
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args()
    if args.list:
        return _list()
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro tree next to perfbench/",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gc40
    import soc24
    import stats
    import workloads as wl

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    raw = {}
    if args.workload == "soc24_service":
        if args.trace:
            attempted, failed, values = soc24.traced(args.seed, out_dir)
        else:
            attempted, failed, values, raw = soc24.run(
                args.seed, args.seconds, out_dir)
    elif args.trace:
        attempted, failed, values = gc40.traced(args.workload, args.seed,
                                                out_dir)
    else:
        attempted, failed, values, raw = gc40.run(
            args.workload, args.seed, args.seconds)
    if args.trace:
        values["failed_frac"] = failed / attempted
        values = {name: (value,) for name, value in values.items()}
    metrics = {}
    for metric in spec[kind]:
        name, unit = metric["name"], metric["unit"]
        # a layer the workload never reaches reports 0
        value, *extra = values.get(name, (0,)) if args.trace \
            else values[name]
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if len(extra) == 2:
            note = (f"  p{extra[1] * 100:g} of n={extra[0]}, "
                    f"{stats.beyond(*extra)} beyond")
        elif extra:
            note = f"  n={extra[0]}"
        print(f"{name:34s} {value:16.6g} {unit:8s}{note}")
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "commit": _commit(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace,
           "inputs_sha256": wl.inputs_digest(args.workload, args.seed)}
    print("env " + json.dumps(env, sort_keys=True))
    correct = failed == 0
    report = {"env": env, "values": values, "samples": raw,
              "correct": correct, "attempted": attempted, "failed": failed}
    (out_dir / f"report-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
