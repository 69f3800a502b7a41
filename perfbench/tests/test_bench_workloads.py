"""Correctness gates: fingerprints at the default seed, invariants elsewhere."""

import json
import random
import subprocess
import sys
from pathlib import Path

from linsha.primitives import FIPS_IV, ExpansionKind, compress, expand
from linsha.variants import make_variant
from reference import add_linear_digest, is_codeword, xor_expand
from tracer import LAYER_METRICS
from workloads import MC_TRIALS, SEARCH_ITERATIONS, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _mc(successes):
    return {"trials": MC_TRIALS, "successes": successes}


def test_mc_fingerprint_catches_a_changed_success_count():
    mc = WORKLOADS["mc"]
    good = mc.expected["successes"]
    assert mc.check(_mc(good), seed=0) == []
    problems = mc.check(_mc(good + 1), seed=0)
    assert len(problems) == 1 and "fingerprint" in problems[0]
    assert mc.check(_mc(good + 1), seed=1) == []            # other seeds: invariants only


def test_mc_invariant_rejects_a_rate_far_from_two_to_minus_7_2():
    assert WORKLOADS["mc"].check(_mc(MC_TRIALS >> 9), seed=1) != []


def _search(words, weight, found_at=3):
    return {"words": [f"{w:08x}" for w in words], "weight": weight,
            "found_at_iteration": found_at, "iterations_run": SEARCH_ITERATIONS}


def test_search_checks_the_word_and_its_weight():
    search = WORKLOADS["search40"]
    word = xor_expand([random.Random(1).getrandbits(32) for _ in range(16)], 40)
    weight = sum(w.bit_count() for w in word)
    assert search.check(_search(word, weight), seed=1) == []
    assert search.check(_search(word, weight + 1), seed=1) != []
    broken = word[:39] + [word[39] ^ 1]
    assert search.check(_search(broken, sum(w.bit_count() for w in broken)), seed=1) != []
    assert any("fingerprint" in p for p in search.check(_search(word, weight), seed=0))


def test_search_fingerprint_catches_a_changed_weight():
    search = WORKLOADS["search40"]
    word = xor_expand([random.Random(2).getrandbits(32) for _ in range(16)], 40)
    result = _search(word, sum(w.bit_count() for w in word))
    assert search.fingerprint(result) != search.fingerprint({**result, "weight": result["weight"] + 1})


def test_reference_matches_the_package():
    rng = random.Random(5)
    block = [rng.getrandbits(32) for _ in range(16)]
    assert xor_expand(block, 64) == expand(block, ExpansionKind.SHA256_XOR, 64)
    assert is_codeword(xor_expand(block, 40))
    assert add_linear_digest(block) == tuple(compress(FIPS_IV, block, make_variant("add_linear")))


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert doc["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                for m in LAYER_METRICS]


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "collide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
