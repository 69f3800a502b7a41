"""Every pinned command-line run: one table, its checker, and a runner.

A row is one run of the CLI: its arguments (split on spaces; `{table5}` is
the installed package's table-5 word file), the exit code it must give, the
CPU counts it must give it on, and what its report must hold.  A report
value is named by its path in the report ("result.first_failure.
mismatch_steps"; a `*` maps the rest of the path over a list) and compared
as JSON, key order included; a list of hex words may be pinned by the first
16 hex digits of the SHA-256 of their join (`Hashed`).  A row that exits 2
must print nothing on stdout and exactly one `error: ` line on stderr, which
names its `error` text.

tests/test_cli.py runs every row in-process through `linsha.cli.main`, with
`linsha.forks.usable_cpus` patched to each CPU count.  Run as a script, this
file runs every row through the command it is given, each child on the
first N CPUs of the runner's own affinity set, prints one line per row and
exits 1 if any row does not hold:

    python tests/pins.py linsha                               # the installed console script
    PYTHONPATH=src python tests/pins.py python -m linsha.cli  # the checkout, uninstalled
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import linsha

TABLE5 = Path(linsha.__file__).parent / "data" / "table5.hex"


class Hashed(NamedTuple):
    """A list of hex strings pinned by the first 16 hex digits of the
    SHA-256 of their join by `sep`."""
    prefix: str
    sep: str = ","


class Row(NamedTuple):
    id: str
    argv: str
    want: dict = {}         # report path -> value
    exit: int = 0
    cpus: tuple = (None,)   # CPU counts; None: every CPU the runner has
    error: str = ""         # exit 2: text the error line must name


def refused(name: str, argv: str, error: str = "") -> Row:
    return Row(name, argv, exit=2, error=error)


def searched(name: str, args: str, weight: int, found_at: int, words: str,
             cpus: tuple = (None,)) -> Row:
    """A seeded search: its word's weight, the iteration that found it and its hash."""
    return Row(name, f"search {args}", {"result.weight": weight, "result.found_at_iteration":
                                        found_at, "result.words": Hashed(words)}, cpus=cpus)


ROWS = [
    Row("vectors", "vectors", {"seed": None}),
    Row("variant-run", "variant-run --variant no_sbox --steps 48", {
        "result.variant": {"sbox_mode": "identity", "bool_mode": "standard",
                           "expansion_kind": "sha256-add-id-sigma", "steps": 48},
        "result.digest": "fe37498667339ebbec9adecb9c2914699f137177087286f208c8113558ab25b2"}),
    # the collide benchmark workload
    Row("collide", "collide --multiple 1 --count 10 --seed 7", {
        "seed": 7, "result.succeeded": 10,
        "result.sample.digest": Hashed("4f9711bb8aac707a", sep="")}, cpus=(None, 1, 2)),
    # the relaxed characteristic breaks the recurrence at steps 16..23, so
    # every trial fails with the same digest difference
    Row("collide-relaxed", "collide --relaxed --multiple 1 --count 3 --seed 7", {
        "result.succeeded": 0,
        "result.first_failure.mismatch_steps": list(range(16, 24)),
        "result.first_failure.digest_delta": ("c0000000 30000000 a0000000 f0000000 "
                                              "50000000 80000000 f0000000 40000000").split()},
        exit=1),
    # the paper's table 1: register coefficients i+0..i+9 after one corrected disturbance
    Row("table1", "table1", {
        "result.*.offset": list(range(10)),
        "result.*.coefficients": [
            {}, {"A": 1, "E": 1}, {"B": 1, "E": -2, "F": 1}, {"C": 1, "E": -1, "F": -2, "G": 1},
            {"D": 1, "E": -1, "F": -1, "G": -2, "H": 1}, {"E": 1, "F": -1, "G": -1, "H": -2},
            {"F": 1, "G": -1, "H": -1}, {"G": 1, "H": -1}, {"H": 1}, {}]}),
    Row("table2", "table2", {"seed": None}),
    # residuals_zero checks the conditions from their definition, apart from the solve
    Row("solve-disturbance", "solve-disturbance", {"result": {
        "strict": False,
        "generator": ("10000000 a0000000 c0000000 a0000000 e0000000 20000000 40000000 40000000 "
                      "80000000 d0000000 10000000 60000000 50000000 40000000 70000000 "
                      "30000000").split(),
        "order": 16, "distinct_patterns": 16, "residuals_zero": True, "low28_zero": True}}),
    Row("solve-disturbance-strict", "solve-disturbance --strict", {"result": {
        "strict": True,
        "generator": ["80000000" if i in (0, 2, 9, 11, 13) else "00000000" for i in range(16)],
        "order": 2, "distinct_patterns": 2, "residuals_zero": True, "low28_zero": True}}),
    Row("table3", "table3", {"result.total_cost": 84, "result.first16_cost": 20}),
    Row("census", "census --steps 40", {"seed": None, "result": {"min": 110, "max": 297}}),
    Row("verify-word", "verify-word --file {table5} --steps 40", {
        "result.valid": True, "result.weight": 26, "result.order": "column-major,bit-reversed",
        "result.support": [0, 9, 10, 11, 12, 13, 17, 18, 25, 27]}),
    # the console script returns main's exit code: 1 for a word that fails its check
    Row("verify-word-invalid", "verify-word --file {table5} --kind sha1-xor",
        {"result.valid": False}, exit=1),
    Row("extend-word", "extend-word --file {table5} --steps 64", {"result.weight": 362}),
    # the search40 benchmark workload; on one CPU the chain runs in one process
    Row("search40", "search --steps 40 --iterations 1000 --seed 0", {
        "seed": 0, "result.weight": 316, "result.found_at_iteration": 702,
        "result.words": Hashed("01d8b95e2d026def")}, cpus=(None, 1, 2)),
    searched("search40-seed1", "--steps 40 --iterations 1000 --seed 1",
             315, 188, "1cd0f7e926df7bfb"),
    searched("search40-seed5", "--steps 40 --iterations 1000 --seed 5",
             310, 291, "5d0db9bb278e4ba1"),
    searched("search42-seed3", "--steps 42 --iterations 500 --seed 3",
             349, 24, "794ba867edf5f63e"),
    searched("search30-seed3", "--steps 30 --iterations 300 --seed 3",
             9, 116, "6f60cfaa0e739991", cpus=(1, 2)),
    searched("search80", "--steps 80 --iterations 300 --seed 0",
             920, 248, "85e47838753c89bb"),
    searched("sha1-64-300", "--kind sha1-xor --steps 64 --iterations 300 --seed 3",
             30, 0, "817332f4bfec34f4"),
    searched("sha1-80-300", "--kind sha1-xor --steps 80 --iterations 300 --seed 3",
             44, 67, "0857af19adc29a60"),
    # the paper's table-5 word, found again by the default chain at seed 0:
    # the hash is that of data/table5.hex read in its resolved order
    searched("table5", "--steps 40 --iterations 24000 --seed 0",
             26, 23317, "d74c59df9be52f07"),
    # 16 steps leave no redundancy: the unit word is reported without a chain
    Row("search-16", "search --steps 16 --iterations 1", {
        "result.weight": 1, "result.origin": "search",
        "result.iterations_run": 0, "result.found_at_iteration": None}),
    # the 20-step word, extended, weighs 1, which no set of the 22-step chain
    # beats: the bootstrap word stands, found at no iteration
    Row("search-bootstrap", "search --steps 22 --iterations 40 --bootstrap 20", {
        "result.weight": 1, "result.found_at_iteration": None, "result.origin": "bootstrap(20)",
        "result.words": Hashed("6704b4e02bf11d9f")}),
    # the sparse SHA-1 code: a swap may take hundreds of draws, but every
    # iteration makes one and is counted; one iteration still weighs a set
    Row("sha1-17-4", "search --kind sha1-xor --steps 17 --iterations 4 --seed 0",
        {"result.iterations_run": 4}),
    Row("sha1-17-1", "search --kind sha1-xor --steps 17 --iterations 1 --seed 3",
        {"result.iterations_run": 1}),
    # batches of 195 and 105 sets: on two CPUs a forked weigher takes the
    # first off the ring and the caller weighs the last, on one the caller both
    searched("sha1-17-300", "--kind sha1-xor --steps 17 --iterations 300 --seed 0",
             1, 0, "cd0dd3ede3ae05b8", cpus=(1, 2)),
    # every set has a row of weight 1, which no pair can beat, so no pair is weighed
    searched("sha256-17-1000", "--kind sha256-xor --steps 17 --iterations 1000 --seed 0",
             1, 0, "dd610b74a1201ffa", cpus=(1, 2)),
    # no set has a row light enough to skip its pairs: the word is the Stern
    # pair of rows 14 and 25 of the first set
    searched("sha1-40-300", "--kind sha1-xor --steps 40 --iterations 300 --seed 1",
             10, 0, "3915855b29f9c6d0", cpus=(1, 2)),
    # rows 41 and 42 start from the row-40 word; 43 and 44 extend 42's
    Row("fig2", "fig2 --min-steps 40 --max-steps 44 --iterations 300", {
        "result.rows.*.weight": [319, 334, 349, 363, 380],
        "result.rows.*.method": ["searched"] * 3 + ["extended"] * 2}),
    # on one CPU both streams run in the caller, with the same count
    Row("mc", "local-collision-mc --trials 1048576 --workers 2", {"result.successes": 7115},
        cpus=(None, 1)),
    # the mc benchmark workload
    Row("mc-bench", "local-collision-mc --start-step 20 --workers 2 --trials 2097152 --seed 0",
        {"result.successes": 14223}, cpus=(1, 2)),
    # (seed, workers) alone fix the count, however many processes run the streams
    *(Row(f"mc-workers-{w}", f"local-collision-mc --trials 100000 --seed 2 --workers {w}",
          {"result.successes": successes}, cpus=(1, 2))
      for w, successes in {1: 679, 2: 692, 3: 693, 5: 680}.items()),
    # each of the 3 streams runs a full chunk, then a tail of 71191 or 71190
    # trials that ends inside its fifth slice
    *(Row(f"mc-chunks-seed{s}", f"local-collision-mc --trials 1000003 --workers 3 --seed {s}",
          {"result.successes": successes}, cpus=(1, 2))
      for s, successes in {1: 6740, 2: 6829, 3: 6824}.items()),
    # every input error: one error line, no report
    refused("collide-multiple-0", "collide --multiple 0"),
    refused("collide-zero-multiple-no-trials", "collide --multiple 2 --count 0"),
    refused("collide-negative-count", "collide --count -1"),
    refused("collide-strict", "collide --strict", "unrecognized arguments: --strict"),
    refused("seed-not-a-number", "collide --seed abc"),
    refused("seed-not-an-integer", "collide --seed 1.5"),
    # random.Random seeds from |seed|, so a negative seed would repeat a positive one
    refused("collide-seed-negative", "collide --seed -1", "seed must be non-negative, got -1"),
    refused("search-seed-negative", "search --steps 20 --iterations 5 --seed -5",
            "seed must be non-negative, got -5"),
    refused("mc-seed-negative", "local-collision-mc --trials 64 --seed -1",
            "seed must be non-negative, got -1"),
    # the census draws nothing, so it takes no seed
    refused("census-seed", "census --seed 1", "unrecognized arguments: --seed 1"),
    refused("census-bogus-kind", "census --kind bogus"),
    refused("census-steps-over-bound", "census --steps 100000"),
    refused("census-steps-not-a-number", "census --steps abc"),
    refused("unknown-flag", "census --frobnicate"),
    refused("unknown-subcommand", "transmogrify"),
    refused("extend-steps-over-bound", "extend-word --file {table5} --steps 100000"),
    refused("verify-steps-mismatch", "verify-word --file {table5} --steps 41"),
    # a search is one chain: independent restarts are separate --seed runs
    refused("search-workers-2", "search --steps 20 --iterations 5 --workers 2",
            "unrecognized arguments: --workers 2"),
    refused("fig2-workers-2", "fig2 --min-steps 16 --max-steps 17 --iterations 5 --workers 2",
            "unrecognized arguments: --workers 2"),
    refused("search-algorithm", "search --steps 20 --iterations 5 --algorithm stern",
            "unrecognized arguments: --algorithm"),
    refused("search-algorithm-first", "search --algorithm stern --steps 40 --iterations 3",
            "unrecognized arguments: --algorithm"),
    refused("fig2-algorithm", "fig2 --min-steps 16 --max-steps 17 --iterations 5 --algorithm leon",
            "unrecognized arguments: --algorithm"),
    refused("search-steps-over-bound", "search --steps 1000 --iterations 5"),
    refused("search-budget-nan", "search --steps 40 --budget-secs nan"),
    refused("search-budget-inf", "search --steps 40 --budget-secs inf --iterations 5"),
    refused("search-budget-minus-inf", "search --budget-secs -inf"),
    refused("search-bootstrap-not-a-number", "search --steps 20 --iterations 5 --bootstrap x",
            "--bootstrap"),
    refused("fig2-budget-nan", "fig2 --budget-secs nan"),
    refused("fig2-budget-inf", "fig2 --budget-secs inf"),
    refused("fig2-range-empty", "fig2 --min-steps 45 --max-steps 40", "sweep range is empty"),
    refused("fig2-horizon-below-range", "fig2 --min-steps 16 --max-steps 18 --horizon 15",
            "search horizon 15 lies below the sweep's first step count 16"),
    refused("mc-workers-0", "local-collision-mc --trials 64 --workers 0"),
    refused("mc-trials-0", "local-collision-mc --trials 0"),
    refused("mc-iterations-alias", "local-collision-mc --trials 5 --iterations 7",
            "unrecognized arguments: --iterations 7"),
]


def argv(row: Row) -> list[str]:
    return [arg.replace("{table5}", str(TABLE5)) for arg in row.argv.split()]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def report(out: str):
    """The one JSON document `out` holds; NaN and infinities are refused."""
    return json.loads(out, parse_constant=_reject_constant)


def _pick(value, path: list[str]):
    for i, key in enumerate(path):
        if key == "*":
            return [_pick(item, path[i + 1:]) for item in value]
        value = value[key]
    return value


def check(row: Row, code: int, out: str, err: str) -> list[str]:
    """Every way a run's exit code, stdout and stderr miss `row`."""
    problems = [] if code == row.exit else [f"exit {code}, want {row.exit}"]
    if row.exit == 2:
        if out:
            problems.append(f"stdout is not empty: {out[:80]!r}")
        if not (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")):
            problems.append(f"stderr is not one error line: {err!r}")
        elif row.error not in err:
            problems.append(f"the error line does not name {row.error!r}: {err!r}")
        return problems
    try:
        got_report = report(out)
    except ValueError as exc:
        return problems + [f"stdout is not one JSON report: {exc}"]
    for path, want in row.want.items():
        try:
            got = _pick(got_report, path.split("."))
            if isinstance(want, Hashed):
                got = hashlib.sha256(want.sep.join(got).encode()).hexdigest()[:16]
                want = want.prefix
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"{path}: cannot be read ({type(exc).__name__}: {exc})")
            continue
        if json.dumps(got) != json.dumps(want):
            problems.append(f"{path}: got {json.dumps(got)}, want {json.dumps(want)}")
    return problems


def run(command: list[str], row: Row, cpus: int | None) -> list[str]:
    """What `row` misses when run through `command` on `cpus` CPUs."""
    own = sorted(os.sched_getaffinity(0))
    if cpus is not None and len(own) < cpus:
        return [f"needs {cpus} CPUs, the runner has {len(own)}"]
    done = subprocess.run(
        [*command, *argv(row)], capture_output=True, text=True, timeout=600,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, own[:cpus]))
    return check(row, done.returncode, done.stdout, done.stderr)


def main(command: list[str]) -> int:
    if not command:
        print("usage: python tests/pins.py COMMAND [ARG...]", file=sys.stderr)
        return 2
    failed = 0
    for row in ROWS:
        problems = [f"{cpus or 'all'} CPUs: {problem}"
                    for cpus in row.cpus for problem in run(command, row, cpus)]
        failed += bool(problems)
        print("FAIL" if problems else "ok  ", row.id, *problems, sep="  ", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} pinned runs hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
