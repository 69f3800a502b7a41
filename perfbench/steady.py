"""Steadiness check and baseline for the linsha benchmark.

    python3 perfbench/steady.py --out perfbench/baseline.json

Runs two sets of ten rounds back to back.  Each round is one run.py run per
workload with the round's seed (0, 1, ...).  For every end-to-end metric of
every workload it prints, per set, the median of the per-run values and their
spread, the distance between the first and third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json.  It also prints by how
much the second set's median is worse than the first's.  Then it makes one
traced run per workload at its default seed.  With --out it writes the
per-run values of both sets, those figures, the per-layer values and the
machine and versions they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread
from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed\n{out}")
    return result["metrics"]


def environment() -> dict:
    import numpy

    sys.path.insert(0, str(ROOT / "src"))
    import linsha

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "linsha": linsha.__version__, "commit": commit}


SETS = 2
ROUNDS = 10


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    metrics = {m["name"]: m for m in config["end_to_end"]}

    # values[w][metric][set] is the list of per-run values of one set
    values: dict[str, dict[str, list[list[float]]]] = {w: {} for w in WORKLOADS}
    for s in range(SETS):
        for seed in range(ROUNDS):
            for w in WORKLOADS:
                for metric, v in bench(w, seed, seconds, 0).items():
                    values[w].setdefault(metric, [[] for _ in range(SETS)])[s].append(v["value"])
                print(f"set {s} round {seed} {w}: " + " ".join(
                    f"{m}={sets[s][-1]:.6g}" for m, sets in values[w].items()), flush=True)

    report = {"environment": environment(), "run_seconds": seconds,
              "seeds": list(range(ROUNDS)), "workloads": {}}
    print(f"\n{'workload':9s} {'metric':12s} {'set':>3s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'worse_by':>8s}")
    for w in WORKLOADS:
        e2e = {}
        for metric, sets in values[w].items():
            bound, better = metrics[metric]["bound"], metrics[metric]["better"]
            summary = [{"median": statistics.median(vs), "spread": spread(vs), "values": vs}
                       for vs in sets]
            drift = worse_by(summary[0]["median"], summary[-1]["median"], better)
            e2e[metric] = {"bound": bound, "second_worse_by": drift, "sets": summary}
            for s, sm in enumerate(summary):
                flag = ""
                if metric != "setup_s" and sm["spread"] >= bound / 3:
                    flag = "  spread > bound/3"
                last = f"{drift:8.4f}" if s == SETS - 1 else " " * 8
                print(f"{w:9s} {metric:12s} {s:3d} {sm['median']:12.6g} {sm['spread']:8.4f} "
                      f"{bound:6.2f} {last}{flag}")
        traced = bench(w, WORKLOADS[w].default_seed, seconds, 1)
        report["workloads"][w] = {
            "command": ["linsha", *WORKLOADS[w].argv(WORKLOADS[w].default_seed)],
            "why": WORKLOADS[w].why, "fingerprint": WORKLOADS[w].expected,
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in traced.items()},
        }
    report["layer_map"] = {m.name: m.moves for m in LAYER_METRICS}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
