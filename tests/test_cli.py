"""Command-line interface: payloads, exit codes, reproducibility."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linsha
import pins
from linsha.cli import entry, main
from pins import TABLE5


def main_output(capsys, argv):
    """(exit code, stdout, stderr) of one in-process run."""
    try:
        code = main(list(argv))
    except SystemExit as exc:       # argparse's usage errors exit from parse_args
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *argv):
    code, out, err = main_output(capsys, argv)
    return code, pins.report(out) if out.strip() else None, err


def check_pinned(capsys, monkeypatch, row):
    """The row holds on each of its CPU counts; None leaves the host's."""
    from linsha import forks

    host = forks.usable_cpus()
    for cpus in row.cpus:
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda n=cpus or host: n)
        assert pins.check(row, *main_output(capsys, pins.argv(row))) == [], f"{cpus} CPUs"


@pytest.mark.parametrize("row", [row for row in pins.ROWS if row.exit != 2], ids=lambda r: r.id)
def test_pinned_run(capsys, monkeypatch, row):
    check_pinned(capsys, monkeypatch, row)


@pytest.mark.parametrize("row", [row for row in pins.ROWS if row.exit == 2], ids=lambda r: r.id)
def test_invalid_input_exits_two(capsys, monkeypatch, row):
    check_pinned(capsys, monkeypatch, row)


def test_rows_are_well_formed(table5_words):
    ids = [row.id for row in pins.ROWS]
    assert len(set(ids)) == len(ids)
    # so that `python tests/pins.py` holds on a 2-vCPU host
    assert {cpus for row in pins.ROWS for cpus in row.cpus} <= {None, 1, 2}
    rediscovered = pins.ROWS[ids.index("table5")].want["result.words"]
    assert rediscovered.prefix == hashlib.sha256(
        ",".join(f"{w:08x}" for w in table5_words).encode()).hexdigest()[:16]


def test_pin_checker_reports_each_mismatch(capsys):
    rows = {row.id: row for row in pins.ROWS}
    word, refused = rows["search-bootstrap"], rows["census-seed"]
    code, out, err = main_output(capsys, pins.argv(word))
    code2, out2, err2 = main_output(capsys, pins.argv(refused))
    assert pins.check(word, code, out, err) == pins.check(refused, code2, out2, err2) == []
    heavier, longer = json.loads(out), json.loads(out)
    heavier["result"]["weight"] = 2
    longer["result"]["words"].append("00000000")
    doctored = [
        (word, code, json.dumps(heavier), err, "result.weight: got 2, want 1"),
        (word, code, json.dumps(longer), err, "result.words: got "),
        (word, 1, out, err, "exit 1, want 0"),
        (refused, code2, out2, err2 + "error: again\n", "stderr is not one error line"),
        (refused, code2, "{}\n", err2, "stdout is not empty"),
    ]
    for row, *run_output, problem in doctored:
        problems = pins.check(row, *run_output)
        assert len(problems) == 1 and problems[0].startswith(problem), problems


def test_census_payload(capsys):
    code, report, err = run(capsys, "census", "--kind", "sha256-xor", "--steps", "40")
    assert code == 0
    assert report["result"] == {"min": 110, "max": 297}
    assert report["command"] == "census"
    assert report["seed"] is None
    assert "110" in err


def test_verify_word_invalid_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.hex"
    bad.write_text("\n".join(["00000001"] * 20) + "\n")
    code, report, _ = run(capsys, "verify-word", "--file", str(bad))
    assert code == 1
    assert report["result"]["valid"] is False


def test_collide_default_kernel_succeeds(capsys):
    # the count and the digests are pinned in pins.ROWS
    code, report, _ = run(capsys, "collide", "--multiple", "1", "--count", "10", "--seed", "7")
    assert code == 0
    sample = report["result"]["sample"]
    assert list(sample) == ["message", "message_prime", "digest", "variant"]
    assert sample["variant"] == "add_linear"


@pytest.mark.parametrize("multiple", ["2", "0"])
def test_collide_multiple_scaling_to_zero_exits_two(capsys, multiple):
    code, report, err = run(capsys, "collide", "--multiple", multiple, "--count", "3")
    assert code == 2
    assert report is None
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("search", "--steps", "40", "--budget-secs", "0.001"),
    ("fig2", "--budget-secs", "0.01", "--max-steps", "41"),
    ("search", "--kind", "sha1-xor", "--steps", "17", "--iterations", "1", "--seed", "3"),
    ("fig2", "--kind", "sha1-xor", "--min-steps", "17", "--max-steps", "24",
     "--budget-secs", "0.0001", "--seed", "2"),
], ids=["search", "fig2", "sha1-search-one-iteration", "sha1-fig2"])
def test_budget_spent_in_setup_still_reports_a_word(capsys, argv):
    # the chains' setup outlasts these budgets; each chain still runs once,
    # and on the sparse SHA-1 code its one iteration makes its swap too
    code, report, _ = run(capsys, *argv)
    assert code == 0
    weights = ([report["result"]["weight"]] if argv[0] == "search"
               else [r["weight"] for r in report["result"]["rows"]])
    assert all(w > 0 for w in weights)
    if "--iterations" in argv:
        assert report["result"]["iterations_run"] == 1


def test_elapsed_is_reported_to_the_microsecond(capsys, monkeypatch):
    # a collide run takes ~10 ms, so a millisecond would be a 10% step
    clock = iter([100.0, 100.0123456])
    monkeypatch.setattr("linsha.cli.time.monotonic", lambda: next(clock))
    code, report, _ = run(capsys, "table3")
    assert code == 0
    assert report["elapsed_secs"] == 0.012346


def test_seed_random_records_integer(capsys):
    code, report, _ = run(capsys, "collide", "--count", "1", "--seed", "random")
    assert code == 0
    assert isinstance(report["seed"], int) and 0 <= report["seed"] < 2 ** 32


def test_table2_payload(capsys):
    code, report, _ = run(capsys, "table2")
    assert code == 0
    rows = report["result"]
    assert len(rows) == 14
    certain = {(r["function"], r["input_diff"]) for r in rows if r["probability"] == "1"}
    assert certain == {("ch", "011"), ("maj", "111")}


def test_table3_writes_csv(capsys, tmp_path):
    out = tmp_path / "activity.csv"
    code, report, _ = run(capsys, "table3", "--out", str(out))
    assert code == 0
    assert report["result"]["total_cost"] == 84
    assert report["result"]["first16_cost"] == 20
    assert out.read_text().startswith("step,maj,ch,e\n")


@pytest.mark.parametrize("argv", [
    ("search", "--steps", "40", "--iterations", "60000"),
    ("fig2", "--min-steps", "40", "--max-steps", "44"),
    ("extend-word", "--file", str(TABLE5), "--steps", "64"),
    ("table3",),
], ids=lambda argv: argv[0])
def test_out_directory_is_checked_before_any_work(capsys, monkeypatch, tmp_path, argv):
    # a search would spend its whole budget before failing to write its word
    ran = []
    monkeypatch.setattr(f"linsha.cli.cmd_{argv[0].replace('-', '_')}",
                        lambda args: ran.append(args) or ({}, "", 0))
    out = tmp_path / "missing" / "out"
    code, report, err = run(capsys, *argv, "--out", str(out))
    assert (code, report, ran) == (2, None, [])
    assert err == (f"error: argument --out: cannot write {str(out)!r}: "
                   f"{str(out.parent)!r} is not a directory\n")
    # nor can a file be written where a directory stands
    code, report, err = run(capsys, *argv, "--out", ".")
    assert (code, report, ran) == (2, None, [])
    assert err == "error: argument --out: cannot write '.': it is a directory\n"


def test_search_roundtrip_through_file(capsys, tmp_path):
    out = tmp_path / "word.hex"
    code, report, _ = run(capsys, "search", "--steps", "18", "--iterations", "200",
                          "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[:2] == ["# weight 1 at 18 steps, kind sha256-xor",
                                                "# seed 0, 200 iterations, origin search"]
    code2, report2, _ = run(capsys, "verify-word", "--file", str(out))
    assert code2 == 0
    assert report2["result"]["weight"] == report["result"]["weight"]


def test_extend_word(capsys, table5_path):
    code, report, _ = run(capsys, "extend-word", "--file", str(table5_path),
                          "--steps", "64")
    assert code == 0
    assert report["result"]["weight"] == 362
    assert report["result"]["from_steps"] == 40


def test_extend_word_roundtrip_through_file(capsys, table5_path, tmp_path):
    out = tmp_path / "word64.hex"
    code, report, _ = run(capsys, "extend-word", "--file", str(table5_path),
                          "--steps", "64", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("# extended from 40 to 64 steps\n")
    code2, report2, _ = run(capsys, "verify-word", "--file", str(out), "--steps", "64")
    assert code2 == 0
    assert report2["result"]["order"] == "as-given"
    assert report2["result"]["weight"] == report["result"]["weight"] == 362


def test_local_collision_mc_payload(capsys):
    code, report, _ = run(capsys, "local-collision-mc", "--trials", "4096")
    assert code == 0
    r = report["result"]
    assert r["trials"] == 4096 and r["e_local"] == 9
    assert 0 < r["successes"] < 4096


def test_local_collision_mc_without_successes_is_json(capsys):
    # log2 of a zero rate is -inf, which JSON cannot carry; run() rejects it
    code, report, err = run(capsys, "local-collision-mc", "--trials", "5")
    assert code == 0
    assert report["result"]["successes"] == 0 and report["result"]["log2_rate"] is None
    assert "0/5, no successes" in err and "inf" not in err


def test_fig2_csv_out(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, report, _ = run(capsys, "fig2", "--min-steps", "16", "--max-steps", "18",
                          "--iterations", "60", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "steps,weight,method,seed,iterations"
    assert len(lines) == 4


def test_vectors_standard_matches_reference(capsys):
    import hashlib

    code, report, _ = run(capsys, "vectors")
    assert code == 0
    assert report["result"]["abc"]["standard"] == hashlib.sha256(b"abc").hexdigest()
    assert report["result"]["empty"]["standard"] == hashlib.sha256(b"").hexdigest()
    assert {msg: {name: digest for name, digest in row.items() if name != "standard"}
            for msg, row in report["result"].items()} == {
        "abc": {
            "add_linear": "e642593cee77086ecbfd5ffeff02be9fa993dcdd8978df6b84bb4e497baef771",
            "no_sbox": "f1e83240a5e6897c47035b1a41ac00d9434702d116272e47a22e67d48499277e",
            "xor_expansion": "d3f8ea4685d45b0baff4e4aeb53a5e242cf5d69e666ef119a7ea8d681e12498e",
        },
        "empty": {
            "add_linear": "b2fce3541d76c8a625225c161c61a6bfdaacbdb5af9b83d32a3c7e49fe4eabe9",
            "no_sbox": "16822e0042eab6949ea7237a98dd83898ee16a39ca6ad6af2a3e747409c2e79e",
            "xor_expansion": "bf2594048f2dcd9d59320e2a772e0d8f3928f864855fc58f1e1f5285ca8ae9be",
        },
    }


@pytest.mark.parametrize("argv", [
    ("collide", "--count", "3"),
    ("search", "--steps", "20", "--iterations", "50"),
    ("local-collision-mc", "--trials", "4096", "--workers", "2"),
    ("fig2", "--min-steps", "16", "--max-steps", "17", "--iterations", "20"),
], ids=lambda argv: argv[0])
def test_seeded_runs_reproduce(capsys, argv):
    results = []
    for _ in range(2):
        code, report, _ = run(capsys, *argv, "--seed", "3")
        assert code == 0
        results.append(report["result"])
    assert results[0] == results[1]


# One command in a fresh interpreter, numpy optionally unimportable.  Prints
# its exit code and report, and the layer modules (and numpy) loaded after
# `import linsha`, after importing the CLI and on entering the command's
# handler, with every module the handler itself imported and every module
# loaded once main has returned.
FRESH = """
import contextlib, io, json, sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None
def layers():
    return sorted(m for m, mod in sys.modules.items()
                  if mod is not None and (m.startswith("linsha.") or m == "numpy"))
import linsha
loaded = {"package": layers()}
from linsha import cli
loaded["cli"] = layers()
def spy(handler):
    def entered(args):
        before = set(sys.modules)
        loaded["handler"] = layers()
        try:
            return handler(args)
        finally:
            loaded["imported_by_handler"] = sorted(set(sys.modules) - before)
    return entered
for name in [n for n in vars(cli) if n.startswith("cmd_")]:
    setattr(cli, name, spy(getattr(cli, name)))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[2:])
loaded["after_main"] = sorted(sys.modules)
print(json.dumps({"code": code, "report": json.loads(out.getvalue()), "loaded": loaded}))
"""


def src_env():
    """The environment with this checkout's linsha first on PYTHONPATH."""
    src = str(Path(linsha.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(os.environ, PYTHONPATH=path)


@functools.lru_cache(maxsize=None)
def run_fresh(*argv, numpy=True):
    proc = subprocess.run([sys.executable, "-c", FRESH, "numpy" if numpy else "no-numpy", *argv],
                          capture_output=True, text=True, timeout=300, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# what the parser needs, then each strand's layers, and each command's own
PARSER = ["linsha.cli", "linsha.primitives", "linsha.variants"]
Z32 = ["linsha.disturbance", "linsha.ringalg"]
NO_SBOX = ["linsha.boolanalysis", "linsha.disturbance"]
GF2 = ["linsha.codewords"]
ISD = ["linsha.forks", "linsha.isd", "numpy"]
LOADS = [
    (("vectors",), []),
    (("variant-run", "--variant", "no_sbox"), []),
    (("solve-disturbance", "--strict"), ["linsha.ringalg"]),
    (("collide", "--count", "2"), Z32),
    (("table1",), ["linsha.disturbance"]),
    (("table2",), NO_SBOX),
    (("table3",), [*NO_SBOX, "linsha.ringalg"]),
    (("local-collision-mc", "--trials", "4096"), [*NO_SBOX, "linsha.forks", "numpy"]),
    (("census", "--steps", "20"), GF2),
    (("verify-word", "--file", str(TABLE5)), GF2),
    (("extend-word", "--file", str(TABLE5), "--steps", "48"), GF2),
    (("search", "--steps", "20", "--iterations", "20"), [*GF2, *ISD]),
    (("fig2", "--min-steps", "16", "--max-steps", "17", "--iterations", "10"),
     [*GF2, *ISD]),
]


SEEDED = {"collide", "local-collision-mc", "search", "fig2"}


@pytest.mark.parametrize("argv", [argv for argv, _ in LOADS], ids=lambda argv: argv[0])
def test_only_commands_that_draw_take_a_seed(capsys, argv):
    # the other nine report a null seed and refuse --seed
    code, report, _ = run(capsys, *argv)
    assert code == 0 and report["seed"] == (0 if argv[0] in SEEDED else None)
    code, report, err = run(capsys, *argv, "--seed", "0")
    if argv[0] in SEEDED:
        assert code == 0 and report["seed"] == 0
    else:
        assert (code, report, err) == (2, None, "error: unrecognized arguments: --seed 0\n")


@pytest.mark.parametrize("argv", [argv for argv, layers in LOADS if "numpy" not in layers],
                         ids=lambda argv: argv[0])
def test_commands_run_without_numpy(capsys, argv):
    fresh = run_fresh(*argv, numpy=False)
    code, report, _ = run(capsys, *argv)
    assert fresh["code"] == code == 0
    assert fresh["report"]["result"] == report["result"]


@pytest.mark.parametrize("argv, layers", [pytest.param(*case, id=case[0][0]) for case in LOADS])
def test_commands_load_their_layers_before_the_clock(argv, layers):
    # exactly the command's own layers, so collide never loads boolanalysis,
    # codewords, isd or numpy, and search never loads the Z_2^32 layers or
    # boolanalysis; an import inside the handler would count in elapsed_secs
    fresh = run_fresh(*argv)
    assert fresh["code"] == 0
    assert fresh["loaded"]["handler"] == sorted(PARSER + layers)
    assert fresh["loaded"]["imported_by_handler"] == []


@pytest.mark.parametrize("argv, layers", [pytest.param(*case, id=case[0][0]) for case in LOADS])
def test_no_command_loads_dataclasses(argv, layers):
    # dataclasses imports inspect, ast, dis and tokenize; numpy imports
    # inspect itself, so only the commands without numpy shed it too
    after = run_fresh(*argv)["loaded"]["after_main"]
    assert "dataclasses" not in after
    if "numpy" not in layers:
        assert "inspect" not in after


# a fresh CLI process that forks: its exit code, its OS threads at each fork
# and the OpenBLAS thread count it ran with.  An error filter cannot catch
# Python 3.12's warning on forking a threaded process (os.fork clears it),
# so the threads are counted.
FORKING = """
import contextlib, io, json, os, sys
threads = []
os.register_at_fork(before=lambda: threads.append(len(os.listdir("/proc/self/task"))))
from linsha import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, threads, os.environ["OPENBLAS_NUM_THREADS"]]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts a forking run's threads in /proc; on one CPU nothing forks")
@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", 2)], ids=["unset", "preset"])
@pytest.mark.parametrize("argv", [("local-collision-mc", "--trials", "65536", "--workers", "2"),
                                  ("search", "--steps", "40", "--iterations", "200")],
                         ids=lambda argv: argv[0])
def test_cli_forks_single_threaded_unless_blas_threads_are_set(argv, preset, threads):
    # linsha calls no BLAS, so the CLI holds OpenBLAS to one thread, but
    # keeps a value the caller set
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", FORKING, *argv], capture_output=True,
                          text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    code, forked, value = json.loads(done.stdout)
    assert (code, value) == (0, preset or "1")
    assert forked and set(forked) == {threads}


def test_import_linsha_loads_no_layer():
    loaded = run_fresh("vectors")["loaded"]
    assert loaded["package"] == []
    assert loaded["cli"] == PARSER


def test_report_keys_keep_their_order(capsys):
    code, report, _ = run(capsys, "table2")
    assert code == 0
    assert list(report) == ["command", "parameters", "seed", "elapsed_secs", "result"]


def corrupt(tmp_path):
    """A copy of table5.hex with its first word changed."""
    lines = TABLE5.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = "f" + lines[first][1:]
    path = tmp_path / "corrupt.hex"
    path.write_text("".join(lines))
    return path


def test_only_the_entry_point_freezes(capsys, monkeypatch, tmp_path):
    # main runs in callers' processes, so only entry() may freeze the collector
    frozen = []
    monkeypatch.setattr("linsha.cli.gc.freeze", lambda: frozen.append(True))
    assert run(capsys, "table2")[0] == 0 and frozen == []
    monkeypatch.setattr(sys, "argv", ["linsha", "verify-word", "--file", str(corrupt(tmp_path))])
    assert entry() == 1 and frozen == [True]


# entry() as a process ends: an atexit hook, registered before the run, says
# at exit whether the run's objects were frozen
ENDING = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count() > 0}", file=sys.stderr))
from linsha.cli import entry
raise SystemExit(entry())
"""


def run_process(*argv, module=True):
    head = ["-m", "linsha.cli"] if module else ["-c", ENDING]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True,
                          timeout=300, env=src_env())


def test_process_exit_codes_and_output(tmp_path):
    done = run_process("vectors")
    assert done.returncode == 0
    assert json.loads(done.stdout)["command"] == "vectors"      # one whole document
    assert done.stdout.endswith("}\n")

    done = run_process("verify-word", "--file", str(corrupt(tmp_path)))
    assert done.returncode == 1
    assert json.loads(done.stdout)["result"]["valid"] is False

    done = run_process("collide", "--multiple", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


def test_process_writes_whole_files(capsys, tmp_path):
    csv, word = tmp_path / "activity.csv", tmp_path / "word.hex"
    assert run_process("table3", "--out", str(csv)).returncode == 0
    assert csv.read_text() == run(capsys, "table3")[1]["result"]["csv"]
    done = run_process("search", "--steps", "24", "--iterations", "50", "--out", str(word))
    assert done.returncode == 0
    lines = word.read_text().splitlines()
    assert len(lines) == 2 + 24 and lines[2:] == json.loads(done.stdout)["result"]["words"]
    code, report, _ = run(capsys, "verify-word", "--file", str(word), "--steps", "24")
    assert code == 0 and report["result"]["weight"] == json.loads(done.stdout)["result"]["weight"]


def test_process_ends_frozen_and_runs_atexit_handlers(tmp_path):
    done = run_process("verify-word", "--file", str(corrupt(tmp_path)), module=False)
    assert done.returncode == 1
    assert json.loads(done.stdout)["result"]["valid"] is False
    assert done.stderr.endswith("frozen True\n")
