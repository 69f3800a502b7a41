"""The three benchmark workloads: one CLI command each, with its correctness gate.

Every workload is a single `python -m linsha.cli ...` invocation whose seed
the benchmark takes as an argument.  At the workload's default seed the
report must reproduce a recorded fingerprint exactly; at any other seed the
report is checked against invariants that hold for every seed.  Both checks
run on every report, so a default-seed run is held to both.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

from reference import add_linear_digest, is_codeword

COLLIDE_COUNT = 10
SEARCH_ITERATIONS = 1000
MC_TRIALS = 1 << 21
MC_LOG2_RATE, MC_LOG2_TOLERANCE = -7.2, 0.1


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    args: tuple[str, ...]                      # CLI arguments, without --seed
    item: str                                  # unit of work counted by items_per_s
    items: Callable[[dict], int]               # work done, from the report's result
    fingerprint: Callable[[dict], dict]
    expected: dict                             # fingerprint at the default seed
    invariants: Callable[[dict], list[str]]    # problems, at any seed
    expected_calls: dict[str, int]             # traced span counts per run; "a/b"
                                               # counts spans b whose parent is a

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed)]

    def check(self, result: dict, seed: int) -> list[str]:
        """Every problem found in one report's result; empty when correct."""
        problems = self.invariants(result)
        if seed == self.default_seed:
            got = self.fingerprint(result)
            if got != self.expected:
                problems.append(f"fingerprint {got} != expected {self.expected}")
        return problems


# -- collide -----------------------------------------------------------------

def _collide_fingerprint(r: dict) -> dict:
    return {"succeeded": r["succeeded"], "requested": r["requested"],
            "digest": _short_hash("".join(r["sample"]["digest"]))}


def _collide_invariants(r: dict) -> list[str]:
    problems = []
    if r["requested"] != COLLIDE_COUNT or r["succeeded"] != r["requested"]:
        problems.append(f"collisions {r['succeeded']}/{r['requested']}, want all {COLLIDE_COUNT}")
    sample = r.get("sample")
    if not sample:
        return problems + ["no sample collision"]
    m = [int(x, 16) for x in sample["message"]]
    m2 = [int(x, 16) for x in sample["message_prime"]]
    digest = tuple(int(x, 16) for x in sample["digest"])
    if m == m2:
        problems.append("sample messages are equal")
    if not add_linear_digest(m) == add_linear_digest(m2) == digest:
        problems.append("sample is not an ADD-linear collision with the reported digest")
    return problems


# -- search40 ----------------------------------------------------------------

def _search_fingerprint(r: dict) -> dict:
    return {"weight": r["weight"], "found_at_iteration": r["found_at_iteration"],
            "word": _short_hash(",".join(r["words"]))}


def _search_invariants(r: dict) -> list[str]:
    words = [int(x, 16) for x in r["words"]]
    problems = []
    if r["iterations_run"] != SEARCH_ITERATIONS:
        problems.append(f"ran {r['iterations_run']} iterations, want {SEARCH_ITERATIONS}")
    if len(words) != 40 or not is_codeword(words):
        problems.append("word is not a 40-step codeword of the XOR expansion")
    weight = sum(w.bit_count() for w in words)
    if weight != r["weight"] or weight == 0:
        problems.append(f"reported weight {r['weight']}, word weighs {weight}")
    fat = r["found_at_iteration"]
    if fat is not None and not 0 <= fat < r["iterations_run"]:
        problems.append(f"found_at_iteration {fat} outside the run")
    return problems


# -- mc ----------------------------------------------------------------------

def _mc_invariants(r: dict) -> list[str]:
    if r["trials"] != MC_TRIALS:
        return [f"ran {r['trials']} trials, want {MC_TRIALS}"]
    if not r["successes"]:
        return ["no successes"]
    log2_rate = math.log2(r["successes"] / r["trials"])
    if abs(log2_rate - MC_LOG2_RATE) > MC_LOG2_TOLERANCE:
        return [f"rate 2^{log2_rate:.3f} is not within {MC_LOG2_TOLERANCE} of 2^{MC_LOG2_RATE}"]
    return []


# The census is not a workload: at 80 ms a run is too short to time steadily.
# A small `fig2` sweep (many generator builds and eliminations, few iterations
# each) was tried as a fourth workload and dropped: its 2-3 s jobs left too few
# per run to hold the run-to-run spread within bounds on a noisy 2-vCPU host.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="collide",
        why="Z_2^32 strand: every collision re-solves the kernel and rebuilds E in ringalg, then "
            "compresses twice; touches neither codewords nor boolanalysis",
        default_seed=7,
        args=("collide", "--multiple", "1", "--count", str(COLLIDE_COUNT)),
        item="collisions",
        items=lambda r: r["succeeded"],
        fingerprint=_collide_fingerprint,
        expected={"succeeded": COLLIDE_COUNT, "requested": COLLIDE_COUNT,
                  "digest": "4f9711bb8aac707a"},
        invariants=_collide_invariants,
        expected_calls={"disturbance.find_collision_add_linear": COLLIDE_COUNT,
                        "primitives.compress": 2 * COLLIDE_COUNT,
                        "cli.cmd_collide/disturbance.find_collision_add_linear": COLLIDE_COUNT,
                        "disturbance.find_collision_add_linear/primitives.compress":
                            2 * COLLIDE_COUNT},
    ),
    Workload(
        name="search40",
        why="GF(2) strand: one full elimination, then pure-Python single-column ISD iterations "
            "dominate; touches neither ringalg, disturbance nor boolanalysis",
        default_seed=0,
        args=("search", "--steps", "40", "--iterations", str(SEARCH_ITERATIONS)),
        item="ISD iterations",
        items=lambda r: r["iterations_run"],
        fingerprint=_search_fingerprint,
        expected={"weight": 316, "found_at_iteration": 702, "word": "01d8b95e2d026def"},
        invariants=_search_invariants,
        expected_calls={"codewords.build_generator": 1, "codewords.low_weight_search": 1},
    ),
    Workload(
        name="mc",
        why="no-S-box strand: the only numpy-vectorised layer; --workers 2 equals nproc, so "
            "parallel workers would show without changing the benchmark",
        default_seed=0,
        args=("local-collision-mc", "--start-step", "20", "--workers", "2",
              "--trials", str(MC_TRIALS)),
        item="trials",
        items=lambda r: r["trials"],
        fingerprint=lambda r: {"successes": r["successes"]},
        expected={"successes": 14223},
        invariants=_mc_invariants,
        expected_calls={"boolanalysis.monte_carlo_local_collision": 1},
    ),
)}
