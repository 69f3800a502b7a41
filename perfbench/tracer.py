"""Span tracing of the linsha modules, for the benchmark's traced run.

Run as a script, it calls `linsha.cli.main(argv)` in this process with every
public function of the six layer modules wrapped in a span recorder, and
prints one JSON object: the CLI's exit code, its captured stdout and the
spans.  The package's source is not touched: the wrappers are bound into
each module namespace that holds the function (including names bound by
`from ... import`), so calls between modules and recursive calls both pass
through them and nest.  Spans stay in memory until the run ends.

    PYTHONPATH=src python3 perfbench/tracer.py search --steps 40 --iterations 100
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Sequence

LAYERS = ("primitives", "ringalg", "disturbance", "boolanalysis", "codewords", "cli")

# Word-level and single-step kernels called from the innermost loops of
# compress and expand.  A span costs about a microsecond, as much as the call
# itself, so these stay unwrapped and their time is the self time of their
# callers.
LEAVES = frozenset(f"primitives.{name}" for name in (
    "rotr", "rotl", "shr", "weight", "maj", "ch", "add3", "big_sigma0", "big_sigma1",
    "small_sigma0", "small_sigma1", "identity32", "step",
))

# (parent index or -1, name, start ns, end ns, returned without raising)
Span = tuple[int, str, int, int, bool]


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (parent, name, start, end, ok)

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers wherever linsha binds it."""
        namespaces = [importlib.import_module("linsha")]
        namespaces += [importlib.import_module(f"linsha.{layer}") for layer in LAYERS]
        wrappers: dict[int, Callable] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = (getattr(obj, "__module__", None) or "").removeprefix("linsha.")
                name = f"{layer}.{getattr(obj, '__name__', attr)}"
                if layer not in LAYERS or name in LEAVES:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._restore.append((ns, attr, obj))
                setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()


def self_times(spans: Sequence[Span]) -> list[float]:
    """Seconds of each span not covered by any of its child spans."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[0] >= 0:
            children[span[0]].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start - covered) / 1e9)
    return out


def call_counts(spans: Sequence[Span]) -> Counter:
    """Spans per name, and per "parent/child" pair of names."""
    counts = Counter(span[1] for span in spans)
    counts.update(f"{spans[p][1]}/{name}" for p, name, *_ in spans if p >= 0)
    return counts


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str          # the end-to-end metric it should move, and on which workload


_RINGALG = "job_s and items_per_s on collide; no change predicted on the other workloads"
_COLLIDE = "items_per_s on collide"
_MC = "items_per_s on mc"
_SEARCH = "job_s and items_per_s on search40"
_BUILD = "job_s on search40, through the generator build before the search"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("ringalg.solve_disturbance_kernel.calls", "count", "lower", _RINGALG),
    LayerMetric("ringalg.solve_disturbance_kernel.self_s", "s", "lower", _RINGALG),
    LayerMetric("ringalg.kernel_mod_2e.self_s", "s", "lower", _RINGALG),
    LayerMetric("ringalg.build_E.calls", "count", "lower", _RINGALG),
    LayerMetric("ringalg.build_E.self_s", "s", "lower", _RINGALG),
    LayerMetric("ringalg.invert.calls", "count", "lower", _RINGALG),
    LayerMetric("ringalg.invert.self_s", "s", "lower", _RINGALG),
    LayerMetric("primitives.compress.calls", "count", "lower",
                _COLLIDE + ", once ringalg is cached"),
    LayerMetric("primitives.compress.self_s", "s", "lower",
                _COLLIDE + ", once ringalg is cached"),
    LayerMetric("primitives.expand.calls", "count", "lower", _BUILD),
    LayerMetric("primitives.expand.self_s", "s", "lower", _BUILD),
    LayerMetric("disturbance.find_collision_add_linear.self_s", "s", "lower", _COLLIDE),
    LayerMetric("disturbance.build_characteristic.self_s", "s", "lower", _COLLIDE),
    LayerMetric("disturbance.collision_ratio", "ratio", "higher", _COLLIDE),
    LayerMetric("boolanalysis.monte_carlo_local_collision.self_s", "s", "lower", _MC),
    LayerMetric("boolanalysis.mc_trials_per_s", "1/s", "higher", _MC),
    LayerMetric("boolanalysis.mc_success_ratio", "ratio", "higher", _MC),
    LayerMetric("codewords.isd_iteration_us", "us", "lower", _SEARCH),
    LayerMetric("codewords.found_at_share", "ratio", "lower", _SEARCH),
    LayerMetric("codewords.build_generator.calls", "count", "lower", _BUILD),
    LayerMetric("codewords.build_generator.self_s", "s", "lower", _BUILD),
    LayerMetric("codewords.low_weight_search.calls", "count", "lower", _SEARCH),
    LayerMetric("codewords.verify_codeword.self_s", "s", "lower", _SEARCH),
    *(LayerMetric(f"{layer}.self_s", "s", "lower",
                  f"job_s on every workload that calls {layer}") for layer in LAYERS),
    LayerMetric("cli.cpu_util", "ratio", "higher", "job_s on mc, once workers run in parallel"),
    LayerMetric("cli.tracing_overhead", "ratio", "lower",
                "nothing: recorded on every workload to qualify the other layer metrics"),
)


def layer_metrics(spans: Sequence[Span], result: dict) -> dict[str, float]:
    """Every per-layer metric that one traced CLI run determines.

    `result` is the `result` payload of the run's JSON report.  Metrics of a
    layer the workload does not call read 0.  The two metrics that need
    untraced runs, cli.cpu_util and cli.tracing_overhead, are left out.
    """
    own = self_times(spans)
    counts = Counter(span[1] for span in spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for span, secs in zip(spans, own):
        by_name[span[1]] += secs
        by_layer[span[1].split(".", 1)[0]] += secs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        stem, _, kind = metric.name.rpartition(".")
        if kind == "calls":
            out[metric.name] = counts[stem]
        elif kind == "self_s":
            out[metric.name] = by_layer[stem] if stem in LAYERS else by_name[stem]
    collisions = [span[4] for span in spans if span[1] == "disturbance.find_collision_add_linear"]
    out["disturbance.collision_ratio"] = ratio(sum(collisions), len(collisions))
    mc_wall = sum((end - start) / 1e9 for _, name, start, end, _ in spans
                  if name == "boolanalysis.monte_carlo_local_collision")
    out["boolanalysis.mc_trials_per_s"] = ratio(result.get("trials", 0), mc_wall)
    out["boolanalysis.mc_success_ratio"] = ratio(result.get("successes", 0), result.get("trials", 0))
    search_s = by_name["codewords.low_weight_search"]
    iterations = result.get("iterations_run", 0)      # reported by `search` only
    out["codewords.isd_iteration_us"] = 1e6 * ratio(search_s, iterations)
    out["codewords.found_at_share"] = ratio(result.get("found_at_iteration") or 0, iterations)
    return out


def main(argv: list[str]) -> int:
    import linsha.cli

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = linsha.cli.main(argv)
    except SystemExit as exc:       # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    json.dump({"code": code, "stdout": captured.getvalue(), "spans": tracer.spans}, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
