"""linsha benchmark: three CLI workloads, each timed in fresh processes.

    python3 perfbench/run.py --workload collide --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all               # every workload in turn

Run it from anywhere; it measures the package in `src/` beside this
directory.  One parent process spawns `python -m linsha.cli <workload>` one
child at a time, back to back (a closed loop with one client), after one
discarded warm-up child that compiles the bytecode and warms the file cache.
Each child's report is checked (see workloads.py); its own resource usage
comes from os.wait4.

With --trace 0 the run reports the end-to-end metrics, as medians over the
children measured within --seconds:

    job_s        wall time of one CLI run, from spawn to exit
    items_per_s  work per second of the report's own elapsed_secs
    setup_s      job_s minus elapsed_secs: interpreter start, imports,
                 argument parsing and the JSON dump, paid by every run
    peak_rss_mb  the child's own maximum resident set size

and prints failed_share (children that exited non-zero or failed their
check, over all children) beside them.  With --trace 1 the run alternates
untraced children with children that run the CLI under tracer.py, and
reports the per-layer metrics of tracer.LAYER_METRICS.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 whenever that line is printed, and 2
when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import tail_percentile
from tracer import LAYER_METRICS, call_counts, layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("job_s", "s"), ("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Sample:
    """One child process: its timing, resource use, report and check result."""

    job_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    report: dict | None
    problems: list[str] = field(default_factory=list)
    spans: list | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.report is not None and not self.problems


def spawn(cmd: list[str]) -> tuple[float, int, bytes, bytes, os.struct_rusage]:
    """Run one child to completion: (wall s, exit code, stdout, stderr, its rusage)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps the child and returns its own rusage; RUSAGE_CHILDREN
        # would give the maximum over every child so far
        _, status, usage = os.wait4(proc.pid, 0)
        job_s = time.perf_counter() - start
    except BaseException:               # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return job_s, proc.returncode, out, err[0] if err else b"", usage


def run_child(workload: Workload, seed: int, traced: bool) -> Sample:
    argv = workload.argv(seed)
    head = [str(HERE / "tracer.py")] if traced else ["-m", "linsha.cli"]
    job_s, code, out, err, usage = spawn([sys.executable, *head, *argv])
    sample = Sample(job_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code, None)
    try:
        if traced:
            envelope = json.loads(out)
            sample.spans = envelope["spans"]
            out = envelope["stdout"]
        sample.report = json.loads(out)
        float(sample.report["elapsed_secs"])
        sample.problems += workload.check(sample.report["result"], seed)
    except (ValueError, KeyError, TypeError) as exc:
        sample.problems.append(f"unreadable report ({exc!r}): "
                               + err.decode(errors="replace").strip()[-300:])
        return sample
    if code != 0:
        sample.problems.append(f"exit code {code}")
    if traced:
        counts = call_counts(sample.spans)
        sample.problems += [f"traced {name}: {counts[name]} spans, want {want}"
                            for name, want in workload.expected_calls.items()
                            if counts[name] != want]
    return sample


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Warm-up child, then children until `seconds` have passed (at least a few).

    In a traced run, untraced and traced children alternate, at least one pair.
    """
    warmup = run_child(workload, seed, traced=False)
    samples = [warmup] if not warmup.ok else []   # a failed warm-up still counts as failed
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_SAMPLES
    measured = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or measured < min_rounds:
        for traced in kinds:
            samples.append(run_child(workload, seed, traced))
        measured += 1
    return samples


def end_to_end(workload: Workload, samples: list[Sample]) -> tuple[dict, list[str]]:
    good = [s for s in samples if s.ok and s.spans is None]
    series = {
        "job_s": [s.job_s for s in good],
        "items_per_s": [workload.items(s.report["result"]) / s.report["elapsed_secs"]
                        for s in good],
        "setup_s": [s.job_s - s.report["elapsed_secs"] for s in good],
        "peak_rss_mb": [s.maxrss_kb / 1024 for s in good],
    }
    metrics, lines = {}, []
    for name, unit in END_TO_END:
        values = series[name]
        if not values:
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        line = f"{workload.name:9s} {name:12s} median {metrics[name]['value']:12.6g} {unit:4s} n={len(values)}"
        tail = tail_percentile(values)
        line += f"  p{tail[0]:g} {tail[1]:.6g}" if tail else "  (no percentile with 10 samples beyond)"
        if name == "items_per_s" and good:
            line += f"  [{workload.items(good[0].report['result'])} {workload.item} per run]"
        lines.append(line)
    failed = sum(not s.ok for s in samples)
    lines.append(f"{workload.name:9s} {'failed_share':12s} {failed / len(samples):19.6g} ratio"
                 f" n={len(samples)}")
    return metrics, lines


def per_layer(samples: list[Sample]) -> tuple[dict, list[str]]:
    plain = [s for s in samples if s.ok and s.spans is None]
    traced = [s for s in samples if s.ok and s.spans is not None]
    if not plain or not traced:
        return {}, []
    per_run = [layer_metrics(s.spans, s.report["result"]) for s in traced]
    values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
    values["cli.cpu_util"] = statistics.median(s.cpu_s / s.job_s for s in plain)
    values["cli.tracing_overhead"] = (statistics.median(s.job_s for s in traced)
                                      / statistics.median(s.job_s for s in plain) - 1)
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in LAYER_METRICS}
    lines = [f"  {m.name:48s} {values[m.name]:14.6g} {m.unit}" for m in LAYER_METRICS]
    return metrics, lines


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    samples = measure(workload, seed, seconds, trace)
    metrics, lines = per_layer(samples) if trace else end_to_end(workload, samples)
    for s in samples:
        for problem in s.problems:
            lines.append(f"{workload.name}: FAILED {problem}")
    return metrics, lines, len(samples), sum(not s.ok for s in samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="CLI seed (default: the workload's own default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "linsha" / "cli.py").is_file():
        print(f"error: no linsha package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))       # reference.py takes the SHA-256 constants from it

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        got, lines, n, bad = run_workload(workload, seed, args.seconds, bool(args.trace))
        print(f"# {name} seed {seed}: {n} children, {bad} failed", flush=True)
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
