"""Command-line front end.

Every analysis is a subcommand.  Each run prints a JSON report to stdout
(command, parameters, seed, elapsed seconds, result payload) and a short
human summary to stderr.  Only collide, local-collision-mc, search and fig2
draw random numbers and take --seed; the others report a null seed.  Exit
codes: 0 success, 1 the computation ran but the check failed (invalid word,
missed collision), 2 usage error.

Each command loads only the layer modules it runs, numpy among them where it
runs numpy code: `main` imports the command's entry of `COMMAND_MODULES`
before the clock starts, so elapsed_secs never includes import time.  The
handlers import their names from those modules; the package API's names
also resolve as attributes of this module, loading their layer on first use.

A process ends through `entry`, which `python -m linsha.cli` and the
`linsha` console script both call: `main`, then `gc.freeze()`, which moves
every live object (numpy's too) to the permanent generation, so the
interpreter's last collection at exit skips them.  Output is still flushed,
atexit handlers still run, and the exit code is main's.  Frozen cyclic
garbage is never collected, so each file a command writes is closed by its
`with` block before main returns.  `main(argv)` itself never freezes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from typing import Any

from . import __getattr__      # the package API's names resolve here too, lazily
from .primitives import FIPS_IV, ExpansionKind, compress, digest_hex, pad_single_block, seq_weight
from .variants import PRESETS, make_variant

KINDS = [k.value for k in ExpansionKind]

# the modules each command runs beyond primitives and variants, which the
# parser itself needs; main imports them before the clock starts.  numpy
# imports numpy.random on first use, so the Monte Carlo names it.
COMMAND_MODULES = {
    "solve-disturbance": ("linsha.ringalg",),
    "collide": ("linsha.disturbance", "linsha.ringalg"),
    "table1": ("linsha.disturbance",),
    "table2": ("linsha.boolanalysis",),
    "table3": ("linsha.boolanalysis", "linsha.ringalg"),
    "local-collision-mc": ("linsha.boolanalysis", "linsha.forks", "numpy.random"),
    **dict.fromkeys(("census", "verify-word", "extend-word"), ("linsha.codewords",)),
    **dict.fromkeys(("search", "fig2"), ("linsha.codewords", "linsha.isd")),
}


def _hexlist(words) -> list[str]:
    return [f"{w & 0xFFFFFFFF:08x}" for w in words]


def _resolve_seed(raw: str) -> int:
    if raw == "random":
        import secrets
        return secrets.randbits(32)
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"--seed must be an integer or 'random', got {raw!r}") from None
    if seed < 0:
        # random.Random seeds from |seed|, so -5 would repeat 5's run
        raise ValueError(f"--seed must be non-negative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# handlers: each returns (result payload, human summary, exit code)


def cmd_vectors(args) -> tuple[Any, str, int]:
    out: dict[str, dict[str, str]] = {}
    for text in ("abc", ""):
        block = pad_single_block(text.encode())
        per = {}
        for name in PRESETS:
            state = compress(FIPS_IV, block, make_variant(name))
            per[name] = digest_hex(state)
        out["empty" if text == "" else text] = per
    lines = [f"{msg}/{name}: {dig}" for msg, per in out.items() for name, dig in per.items()]
    return out, "\n".join(lines), 0


def cmd_variant_run(args) -> tuple[Any, str, int]:
    cfg = make_variant(args.variant)
    if args.steps is not None:
        cfg = cfg.replace(steps=args.steps)
    block = pad_single_block(args.message.encode())
    state = compress(FIPS_IV, block, cfg)
    variant = {k: getattr(v, "value", v) for k, v in cfg._asdict().items()}
    result = {"variant": variant, "message": args.message, "digest": digest_hex(state)}
    return result, f"{args.variant}({args.message!r}) = {digest_hex(state)}", 0


def cmd_solve_disturbance(args) -> tuple[Any, str, int]:
    from .ringalg import (boundary_residuals, element_order, enumerate_module,
                          solve_disturbance_kernel)
    gens = solve_disturbance_kernel(strict=args.strict)
    delta = gens[0]
    multiples = enumerate_module(gens)
    residuals = boundary_residuals(delta, strict=args.strict)
    result = {
        "strict": args.strict,
        "generator": _hexlist(delta),
        "order": element_order(delta),
        "distinct_patterns": len(multiples),
        "residuals_zero": all(x == 0 for rs in residuals for x in rs),
        "low28_zero": all(w % (1 << 28) == 0 for w in delta),
    }
    human = (f"kernel generator ({'strict' if args.strict else 'relaxed'}): "
             + " ".join(_hexlist(delta))
             + f"\norder {result['order']}, {result['distinct_patterns']} patterns, "
             + f"residuals zero: {result['residuals_zero']}")
    return result, human, 0


def cmd_collide(args) -> tuple[Any, str, int]:
    import random as _random
    from .disturbance import CollisionError, find_collision_add_linear, random_block, scaled_kernel
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    scaled_kernel(args.multiple, args.strict)      # rejects the multiple before any trial
    rng = _random.Random(args.seed)
    succeeded = 0
    sample = None
    failure = None
    for trial in range(args.count):
        m = random_block(rng)
        try:
            res = find_collision_add_linear(m, args.multiple, strict=args.strict)
            succeeded += 1
            if sample is None:
                sample = {"message": _hexlist(res.message),
                          "message_prime": _hexlist(res.message_prime),
                          "digest": _hexlist(res.digest), "variant": "add_linear"}
        except CollisionError as exc:
            if failure is None:
                failure = {"trial": trial, "mismatch_steps": list(exc.mismatch_steps),
                           "digest_delta": _hexlist(exc.digest_delta)}
    result = {"requested": args.count, "succeeded": succeeded,
              "multiple": args.multiple, "strict": args.strict,
              "sample": sample, "first_failure": failure}
    ok = succeeded == args.count
    human = f"collisions: {succeeded}/{args.count} (multiple {args.multiple})"
    return result, human, 0 if ok else 1


def cmd_table1(args) -> tuple[Any, str, int]:
    from .disturbance import single_disturbance_table
    # symbolic correction table: register coefficients for a disturbance at i
    table = single_disturbance_table()
    rows = []
    names = "abcdefgh"
    for off in range(10):
        diffs = table[off]
        coeffs = {}
        for name, d in zip(names, diffs):
            signed = d if d < (1 << 31) else d - (1 << 32)
            if signed:
                coeffs[name.upper()] = signed
        rows.append({"offset": off, "coefficients": coeffs})
    lines = []
    for row in rows:
        body = " ".join(f"{k}:{v:+d}" for k, v in row["coefficients"].items()) or "all zero"
        lines.append(f"i+{row['offset']}: {body}")
    return rows, "\n".join(lines), 0


def cmd_table2(args) -> tuple[Any, str, int]:
    from .boolanalysis import boolean_diff_table
    rows = []
    for e in boolean_diff_table():
        rows.append({
            "function": e.func,
            "input_diff": "".join(str(b) for b in e.input_diff),
            "probability": str(e.probability),
            "condition": e.condition,
        })
    lines = [f"{r['function']}({r['input_diff']}): p={r['probability']}"
             + (f" unless {r['condition']}" if r["condition"] else "")
             for r in rows]
    return rows, "\n".join(lines), 0


def cmd_table3(args) -> tuple[Any, str, int]:
    from .boolanalysis import activity_csv, derive_activity, msb_disturbance
    from .ringalg import solve_disturbance_kernel
    delta = solve_disturbance_kernel()[0]
    dstar, msb_string = msb_disturbance(delta)
    activity = derive_activity(dstar)
    csv = activity_csv(activity)
    total = sum(r.cost_e for r in activity)
    first16 = sum(r.cost_e for r in activity if r.step < 16)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    result = {"msb_string": msb_string, "msb_weight": msb_string.count("1"),
              "total_cost": total, "first16_cost": first16,
              "csv": None if args.out else csv, "out": args.out}
    human = (f"disturbance weight {msb_string.count('1')}, total cost {total}, "
             f"steps 0..15 cost {first16}")
    return result, human, 0


def cmd_local_collision_mc(args) -> tuple[Any, str, int]:
    from .boolanalysis import isolated_condition_count, monte_carlo_local_collision
    mc = monte_carlo_local_collision(args.start_step, args.trials, seed=args.seed,
                                     workers=args.workers)
    e_local = isolated_condition_count(args.start_step)
    result = {"start_step": args.start_step, "trials": mc.trials,
              "successes": mc.successes, "rate": mc.rate,
              "log2_rate": mc.log2_rate if mc.successes else None, "e_local": e_local}
    rate = f" = 2^{mc.log2_rate:.3f}" if mc.successes else ", no successes"
    human = (f"local collision at step {args.start_step}: {mc.successes}/{mc.trials}"
             f"{rate} (independence model 2^-{e_local})")
    return result, human, 0


def cmd_census(args) -> tuple[Any, str, int]:
    from .codewords import single_bit_census
    kind = ExpansionKind(args.kind)
    lo, hi = single_bit_census(kind, args.steps)
    return {"min": lo, "max": hi}, f"{args.kind} @ {args.steps}: min {lo}, max {hi}", 0


def cmd_search(args) -> tuple[Any, str, int]:
    from .codewords import SearchParams, build_generator, low_weight_search, write_codeword_file
    kind = ExpansionKind(args.kind)
    g = build_generator(kind, args.steps)
    try:
        boot = tuple(int(x) for x in args.bootstrap.split(",") if x)
    except ValueError:
        raise ValueError(f"--bootstrap must be comma-separated step counts, "
                         f"got {args.bootstrap!r}") from None
    params = SearchParams(iterations=args.iterations, budget_secs=args.budget_secs,
                          seed=args.seed, bootstrap_lengths=boot)
    res = low_weight_search(g, params)
    if args.out:
        write_codeword_file(args.out, res.words, (
            f"weight {res.weight} at {len(res.words)} steps, kind {kind.value}",
            f"seed {args.seed}, {res.iterations_run} iterations, origin {res.origin}"))
    result = {"weight": res.weight, "words": _hexlist(res.words),
              "steps": len(res.words), "kind": kind.value, "iterations_run": res.iterations_run,
              "found_at_iteration": res.found_at_iteration, "origin": res.origin,
              "out": args.out}
    human = (f"best weight {res.weight} at {args.steps} steps "
             f"({res.iterations_run} iterations, origin {res.origin})")
    return result, human, 0


def cmd_verify_word(args) -> tuple[Any, str, int]:
    from .codewords import load_codeword_file, resolve_word_order
    kind = ExpansionKind(args.kind)
    words = load_codeword_file(args.file)
    resolved, order, valid, weight = resolve_word_order(words, kind)
    if args.steps is not None and len(resolved) != args.steps:
        raise ValueError(f"file has {len(resolved)} words, expected {args.steps}")
    result = {"valid": valid, "weight": weight, "order": order,
              "support": [i for i, w in enumerate(resolved) if w]}
    human = f"{args.file}: valid={valid} weight={weight} (read order: {order})"
    return result, human, 0 if valid else 1


def cmd_extend_word(args) -> tuple[Any, str, int]:
    from .codewords import (extend_codeword, load_codeword_file, resolve_word_order,
                            write_codeword_file)
    kind = ExpansionKind(args.kind)
    words = load_codeword_file(args.file)
    resolved, order, valid, _ = resolve_word_order(words, kind)
    if not valid:
        return ({"valid": False, "order": order},
                f"{args.file}: not a valid word, cannot extend", 1)
    ext = extend_codeword(resolved, args.steps, kind)
    if args.out:
        write_codeword_file(args.out, ext,
                            (f"extended from {len(resolved)} to {args.steps} steps",))
    result = {"valid": True, "from_steps": len(resolved), "to_steps": args.steps,
              "weight": seq_weight(ext), "words": _hexlist(ext), "order": order,
              "out": args.out}
    return result, f"extended to {args.steps} steps: weight {seq_weight(ext)}", 0


def cmd_fig2(args) -> tuple[Any, str, int]:
    from .codewords import SearchParams, fig2_sweep, sweep_csv
    kind = ExpansionKind(args.kind)
    params = SearchParams(iterations=args.iterations, budget_secs=args.budget_secs,
                          seed=args.seed)
    rows = fig2_sweep(range(args.min_steps, args.max_steps + 1), params, kind,
                      search_horizon=args.horizon)
    csv = sweep_csv(rows, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    result = {"csv": None if args.out else csv, "out": args.out,
              "rows": [{"steps": r.steps, "weight": r.weight, "method": r.method}
                       for r in rows]}
    human = "\n".join(f"{r.steps}: {r.weight} ({r.method})" for r in rows)
    return result, human, 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `error:` line, without the usage block; the
    subcommand parsers are made of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="linsha",
        description="Linearised SHA-256 analysis workbench",
    )
    sub = top.add_subparsers(dest="command", required=True)

    # only the commands that draw random numbers take --seed; the others
    # report a null seed
    def add(name, handler, seeded=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if seeded:
            p.add_argument("--seed", default="0",
                           help="integer seed, or 'random' (default 0)")
        else:
            p.set_defaults(seed=None)
        return p

    add("vectors", cmd_vectors, help="reference digests for all presets")

    p = add("variant-run", cmd_variant_run, help="compress a message under a variant")
    p.add_argument("--variant", default="standard", choices=PRESETS)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--message", default="abc")

    p = add("solve-disturbance", cmd_solve_disturbance,
            help="kernel of the expansion-consistency conditions")
    p.add_argument("--strict", action="store_true",
                   help="use the backward-zero form of the second condition")

    p = add("collide", cmd_collide, seeded=True,
            help="verified collisions for the ADD-linear variant")
    p.add_argument("--multiple", type=int, default=1,
                   help="kernel multiple in 0..15 that leaves the difference nonzero: "
                        "odd for the strict kernel (order 2), nonzero for the relaxed one")
    p.add_argument("--count", type=int, default=1, help="random messages to try")
    p.add_argument("--relaxed", dest="strict", action="store_false",
                   help="use the relaxed order-16 kernel instead (no collisions)")

    add("table1", cmd_table1, help="register coefficients after one disturbance")
    add("table2", cmd_table2, help="differential probabilities of maj/ch")

    p = add("table3", cmd_table3, help="per-step activity and cost accounting")
    p.add_argument("--out", default=None, help="write CSV here")

    p = add("local-collision-mc", cmd_local_collision_mc, seeded=True,
            help="Monte Carlo estimate of one local collision")
    p.add_argument("--start-step", type=int, default=20)
    p.add_argument("--trials", type=int, default=1 << 16,
                   help="trials to run (default 65536)")
    p.add_argument("--workers", type=int, default=1,
                   help="independent trial streams, run in up to CPU-count processes; "
                        "the count depends only on seed and workers")

    p = add("census", cmd_census, help="single-bit expansion weight census")
    p.add_argument("--kind", default="sha256-xor", choices=KINDS)
    p.add_argument("--steps", type=int, default=40)

    p = add("search", cmd_search, seeded=True, help="low-weight codeword search")
    p.add_argument("--kind", default="sha256-xor", choices=KINDS)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--bootstrap", default="",
                   help="comma-separated shorter lengths to search first")
    p.add_argument("--out", default=None, help="write the word here")

    p = add("verify-word", cmd_verify_word, help="authenticate a codeword file")
    p.add_argument("--file", required=True)
    p.add_argument("--kind", default="sha256-xor", choices=KINDS)
    p.add_argument("--steps", type=int, default=None)

    p = add("extend-word", cmd_extend_word, help="extend a word to more steps")
    p.add_argument("--file", required=True)
    p.add_argument("--kind", default="sha256-xor", choices=KINDS)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)

    p = add("fig2", cmd_fig2, seeded=True, help="weight-vs-steps sweep")
    p.add_argument("--kind", default="sha256-xor", choices=KINDS)
    p.add_argument("--min-steps", type=int, default=16)
    p.add_argument("--max-steps", type=int, default=64)
    p.add_argument("--horizon", type=int, default=42,
                   help="largest step count searched directly")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=60.0,
                   help="per-step-count budget (default 60)")
    p.add_argument("--out", default=None, help="write CSV here")

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for module in COMMAND_MODULES.get(args.command, ()):
        importlib.import_module(module)
    try:
        if args.seed is not None:
            args.seed = _resolve_seed(args.seed)
        t0 = time.monotonic()
        result, human, code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - t0
    params = {k: v for k, v in vars(args).items()
              if k not in ("handler", "command", "seed") and not k.startswith("_")}
    report = {"command": args.command, "parameters": params, "seed": args.seed,
              "elapsed_secs": round(elapsed, 6), "result": result}
    print(json.dumps(report, indent=2, allow_nan=False))
    print(human, file=sys.stderr)
    return code


def entry() -> int:
    """The process entry point: main(), then every live object frozen, so that
    the interpreter's exit-time collection skips what the run loaded."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
