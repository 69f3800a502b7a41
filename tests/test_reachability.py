"""Every function in the package runs under some command.

One fresh interpreter installs a profiler before `import linsha`, runs each
subcommand through `cli.main` with enough variants to reach each option's
branch, then lists the functions and methods defined in the package's own
files whose code objects never ran.  Matching is by `__code__`, which every
supported Python has; nested functions are found among their parent's
constants.  A dunder is exempt, since the interpreter calls it through a
protocol; so is each entry of UNCALLED, for its stated reason.  A function
that loses its last caller fails here at once.
"""

import json
import subprocess
import sys

from test_cli import LOADS, TABLE5, src_env

# the package's functions and classes that no command calls, each with why
# it stays; an entry covers the methods and nested functions under it
UNCALLED = {
    "linsha.cli.entry": "the console script's entry point; main is what it runs",
    "linsha.__dir__": "dir(linsha) lists the API; no command lists names",
    "linsha.variants.Frozen._values": "only the dunders __eq__, __hash__ and __repr__ call it",
    # the first-16 strand: c08 and CI's junit check need it where it is
    # until a command plans first-16 message modification
    "linsha.boolanalysis.satisfy_first16": "the first-16 strand",
    "linsha.boolanalysis.check_first16": "the first-16 strand",
    "linsha.boolanalysis._bit31_equation": "the first-16 strand",
    "linsha.boolanalysis._conditions_hold": "the first-16 strand",
    "linsha.boolanalysis.FirstStepsError": "the first-16 strand",
    "linsha.primitives.step": "the first-16 strand is its one caller in the package",
}

# each subcommand once, with the variants that reach its options' branches,
# and the exit code each run must give; {out} is a directory for --out files
RUNS = [(0, list(argv)) for argv, _ in LOADS] + [
    (1, ["collide", "--relaxed", "--count", "1"]),            # never collides
    (0, ["census", "--kind", "sha1-xor", "--steps", "20"]),
    (2, ["census", "--seed", "1"]),                             # a usage error
    (0, ["table3", "--out", "{out}/activity.csv"]),
    (0, ["search", "--steps", "20", "--iterations", "20", "--bootstrap", "17,18",
         "--out", "{out}/word.hex"]),
    (0, ["search", "--steps", "40", "--budget-secs", "0.001"]),
    (0, ["search", "--steps", "16", "--iterations", "1"]),
    (0, ["extend-word", "--file", str(TABLE5), "--steps", "44", "--out", "{out}/word44.hex"]),
    (0, ["fig2", "--min-steps", "40", "--max-steps", "44", "--iterations", "20",
         "--out", "{out}/sweep.csv"]),
    (0, ["local-collision-mc", "--trials", "4096", "--workers", "2"]),
]

PROFILED = """
import contextlib, importlib, io, json, pkgutil, sys, types

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import linsha
from linsha import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)

COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

def defined(code, qualname):
    # a function's code object, then those of the functions nested in it
    yield qualname, code
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and const.co_name not in COMPREHENSIONS:
            yield from defined(const, f"{qualname}.<locals>.{const.co_name}")

def functions(module):
    # (qualified name, code object) of each function and method whose code
    # lives in the module's own file
    for name, obj in vars(module).items():
        members = [(name, obj)]
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            members = [(f"{name}.{key}", value) for key, value in vars(obj).items()]
        for qualname, member in members:
            if isinstance(member, property):
                parts = [member.fget, member.fset, member.fdel]
            else:
                parts = [getattr(member, "__func__", member)]
            for part in parts:
                part = getattr(part, "__wrapped__", part)
                code = getattr(part, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    yield from defined(code, f"{module.__name__}.{qualname}")

modules = [linsha] + [importlib.import_module(f"linsha.{info.name}")
                      for info in pkgutil.iter_modules(linsha.__path__)]
found = {name: code in called for module in modules for name, code in functions(module)}
print(json.dumps({"codes": codes, "called": found}))
"""


def profiled_run(out_dir):
    runs = [[arg.format(out=out_dir) for arg in argv] for _, argv in RUNS]
    proc = subprocess.run([sys.executable, "-c", PROFILED, json.dumps(runs)],
                          capture_output=True, text=True, timeout=600, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def within(name, entry):
    return name == entry or name.startswith(f"{entry}.")


def dunder(name):
    last = name.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__")


def test_every_function_runs_under_some_command(tmp_path):
    report = profiled_run(tmp_path)
    assert report["codes"] == [code for code, _ in RUNS]
    called = report["called"]
    uncalled = sorted(name for name, ran in called.items()
                      if not ran and not dunder(name)
                      and not any(within(name, entry) for entry in UNCALLED))
    assert uncalled == [], f"no command calls {uncalled}"
    for entry in UNCALLED:
        under = [name for name in called if within(name, entry)]
        assert under, f"UNCALLED names {entry}, which the package does not define"
        assert not any(called[name] for name in under), (
            f"a command now calls {entry}; drop it from UNCALLED")
