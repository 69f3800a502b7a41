"""Differential behaviour of Maj/Ch and the no-S-box variant analysis."""

import hashlib
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from linsha import boolanalysis
from linsha.boolanalysis import (
    FirstStepsError,
    activity_csv,
    boolean_diff_table,
    check_first16,
    derive_activity,
    isolated_condition_count,
    monte_carlo_local_collision,
    msb_disturbance,
    satisfy_first16,
)
from linsha.primitives import FIPS_IV, K, M32, RegisterState, ch, maj, step
from linsha.ringalg import solve_disturbance_kernel
from linsha.variants import make_variant
from conftest import KERNEL_GENERATOR, assert_reaped

MSB = 0x80000000

# frozen 64-step indicator of the canonical MSB disturbance pattern
MSB_STRING = "1000000001101011101110011010011000000111001011111011100000000000"


def msb_pattern(*steps):
    """64 words with the MSB at the given steps and zero elsewhere."""
    return [MSB if s in steps else 0 for s in range(64)]


def brute_force_flip_count(func, dx, dy, dz):
    """How many of the 8 single-bit inputs flip the output under (dx,dy,dz)."""
    flips = 0
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                before = func(x, y, z) & 1
                after = func(x ^ dx, y ^ dy, z ^ dz) & 1
                flips += before != after
    return flips


class TestBooleanDiffTable:
    def test_fourteen_rows(self):
        table = boolean_diff_table()
        assert len(table) == 14
        assert {(e.func, e.input_diff) for e in table} == {
            (f, (dx, dy, dz))
            for f in ("ch", "maj")
            for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
            if (dx, dy, dz) != (0, 0, 0)
        }

    def test_probabilities_match_enumeration(self):
        fns = {"maj": maj, "ch": ch}
        for entry in boolean_diff_table():
            flips = brute_force_flip_count(fns[entry.func], *entry.input_diff)
            assert entry.probability == Fraction(flips, 8)

    def test_exactly_two_deterministic_rows(self):
        certain = {(e.func, e.input_diff) for e in boolean_diff_table() if e.probability == 1}
        assert certain == {("ch", (0, 1, 1)), ("maj", (1, 1, 1))}
        for entry in boolean_diff_table():
            if (entry.func, entry.input_diff) not in certain:
                assert entry.probability == Fraction(1, 2)

    def test_conditions_describe_the_firing_inputs(self):
        # the recorded affine condition holds exactly on inputs that flip
        fns = {"maj": maj, "ch": ch}
        for entry in boolean_diff_table():
            if entry.probability == 1:
                assert entry.condition is None
                continue
            dx, dy, dz = entry.input_diff
            for x in (0, 1):
                for y in (0, 1):
                    for z in (0, 1):
                        fn = fns[entry.func]
                        flipped = (fn(x, y, z) ^ fn(x ^ dx, y ^ dy, z ^ dz)) & 1
                        affine = (entry.mask[0] & x) ^ (entry.mask[1] & y) ^ (entry.mask[2] & z) ^ entry.offset
                        assert flipped == affine


class TestMsbDisturbance:
    def test_frozen_indicator_string(self):
        _, s = msb_disturbance(KERNEL_GENERATOR)
        assert s == MSB_STRING
        assert s.count("1") == 27

    def test_tail_eight_words_are_zero(self):
        words, s = msb_disturbance(KERNEL_GENERATOR)
        assert s.endswith("0" * 8)
        assert all(w == 0 for w in words[56:])

    def test_words_sit_in_msb_plane(self):
        words, _ = msb_disturbance(KERNEL_GENERATOR)
        assert set(words) <= {0, MSB}

    def test_rejects_pattern_leaving_msb_plane(self):
        with pytest.raises(ValueError):
            msb_disturbance([1] + [0] * 15)


class TestActivity:
    def setup_method(self):
        (delta,) = solve_disturbance_kernel()
        self.dstar, _ = msb_disturbance(delta)

    def test_total_cost(self):
        rows = derive_activity(self.dstar)
        assert sum(r.cost_e for r in rows) == 84

    def test_first_sixteen_cost(self):
        rows = derive_activity(self.dstar)
        assert sum(r.cost_e for r in rows if r.step < 16) == 20

    def test_quarter_sums(self):
        rows = derive_activity(self.dstar)
        quarters = [sum(r.cost_e for r in rows[q:q + 16]) for q in range(0, 64, 16)]
        assert quarters == [20, 25, 24, 15]

    def test_csv_shape(self):
        rows = derive_activity(self.dstar)
        lines = activity_csv(rows).strip().splitlines()
        assert lines[0] == "step,maj,ch,e"
        assert len(lines) == 65

    def test_csv_pinned(self):
        # table3's per-step table, not only its sums
        csv = activity_csv(derive_activity(self.dstar))
        assert hashlib.sha256(csv.encode()).hexdigest()[:16] == "c2ed48e443dd2277"

    def test_isolated_disturbance_costs_nine(self):
        assert isolated_condition_count(20) == 9
        assert isolated_condition_count(0) == 9


def two_run_chunk(rng, nt, i):
    """Reference for boolanalysis._mc_chunk: both runs of every trial through
    the full 32-bit step, compared on all eight registers, with the MSB
    injected at the steps where boolanalysis._MC_DW is 0xFF.  Same draws in
    the same order: eight registers, then one message word per step."""
    config = make_variant("no_sbox")
    state = state2 = RegisterState(*(rng.integers(0, 1 << 32, nt, dtype=np.uint32)
                                     for _ in range(8)))
    for t, dw in enumerate(boolanalysis._MC_DW):
        w = rng.integers(0, 1 << 32, nt, dtype=np.uint32)
        state = step(state, w, K[(i + t) % 64], config)
        state2 = step(state2, w ^ (MSB if dw else 0), K[(i + t) % 64], config)
    same = np.logical_and.reduce([x == x2 for x, x2 in zip(state, state2)])
    return int(same.sum())


# the MSB disturbance at offset 0 and its corrections at offsets 3, 4 and 8
MSB_SCHEDULE = bytes([0xFF, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0xFF])
ZERO_SCHEDULE = bytes(9)


class TestBitPlaneKernel:
    SLICE = boolanalysis._MC_SLICE

    @pytest.mark.parametrize("schedule", [MSB_SCHEDULE, ZERO_SCHEDULE], ids=["msb", "zero"])
    @pytest.mark.parametrize("start", [0, 20, 55])
    def test_matches_two_run_reference(self, monkeypatch, start, schedule):
        monkeypatch.setattr(boolanalysis, "_MC_DW", schedule)
        for nt in (1, 7, 8, 9, self.SLICE - 1, self.SLICE + 1, 100000):
            for seed in (0, 1):
                got = boolanalysis._mc_chunk(np.random.default_rng([seed, 7]), nt, start)
                want = two_run_chunk(np.random.default_rng([seed, 7]), nt, start)
                assert got == want, (nt, seed)

    @pytest.mark.parametrize("tail", [5, 20001])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stream_matches_reference_across_chunks(self, seed, tail):
        # a full chunk, then an odd one: the second chunk's raw block must
        # start where 17 rng.integers draws of the first leave the generator.
        # An even chunk only permutes its trials if a draw's halves are
        # swapped, so the odd 20001-trial tail is what catches that.
        batch = boolanalysis._MC_BATCH
        got = boolanalysis._mc_streams(20, seed, [(0, batch + tail)])
        rng = np.random.default_rng([seed, 0])
        want = sum(two_run_chunk(rng, nt, 20) for nt in (batch, tail))
        assert got == want

    def test_chunk_leaves_the_generator_where_integers_does(self):
        # success counts do not see trials shifted or permuted; the state does
        for nt in (2, self.SLICE + 2):
            rng, ref = np.random.default_rng([0, 7]), np.random.default_rng([0, 7])
            boolanalysis._mc_chunk(rng, nt, 20)
            for _ in range(17):
                ref.integers(0, 1 << 32, nt, dtype=np.uint32)
            assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]

    def test_chunk_draws_one_slice_at_a_time(self):
        # one raw block of all the chunk's draws would peak at 19.4 MB
        rng = np.random.default_rng([0, 7])
        tracemalloc.start()
        try:
            boolanalysis._mc_chunk(rng, boolanalysis._MC_BATCH, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000

    def test_schedule_matches_the_monte_carlo(self):
        assert boolanalysis._MC_DW == MSB_SCHEDULE


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = monte_carlo_local_collision(20, 1 << 14, seed=5)
        b = monte_carlo_local_collision(20, 1 << 14, seed=5)
        assert a.successes == b.successes

    def test_worker_split_is_deterministic(self):
        a = monte_carlo_local_collision(20, 10000, seed=2, workers=3)
        b = monte_carlo_local_collision(20, 10000, seed=2, workers=3)
        assert a.successes == b.successes
        assert a.trials == 10000

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Run _mc_chunk as in_caller in this process and as in_child in forked children."""
        caller, chunk = os.getpid(), boolanalysis._mc_chunk

        def patch(in_caller=chunk, in_child=chunk):
            monkeypatch.setattr(boolanalysis, "_mc_chunk", lambda *args: (
                in_caller if os.getpid() == caller else in_child)(*args))

        return patch

    @staticmethod
    def raising(message):
        def chunk(*args):
            raise RuntimeError(message)

        return chunk

    def test_one_cpu_runs_inline_with_same_counts(self, monkeypatch, forks):
        # the counts themselves are rows mc-workers-* of tests/pins.py
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 1)
        inline = monte_carlo_local_collision(20, 100000, seed=2, workers=3)
        assert forks == []
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 3)
        assert monte_carlo_local_collision(20, 100000, seed=2, workers=3) == inline
        assert len(forks) == 2
        assert_reaped(forks)

    def test_pool_never_exceeds_cpu_count(self, monkeypatch, forks):
        # the caller's own calls of _mc_streams: a child's land in its copy
        callers = []
        streams = boolanalysis._mc_streams

        def spy(*args):
            callers.append(os.getpid())
            return streams(*args)

        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 1)
        inline = monte_carlo_local_collision(20, 100000, seed=2, workers=5)
        monkeypatch.setattr(boolanalysis, "_mc_streams", spy)
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 2)
        assert monte_carlo_local_collision(20, 100000, seed=2, workers=5) == inline
        assert len(forks) == 1 and callers == [os.getpid()]
        assert_reaped(forks)

    def test_workers_without_trials_contribute_nothing(self, monkeypatch):
        # ten streams of one trial each; the other six draw nothing
        ones = boolanalysis._mc_streams(20, 2, [(w, 1) for w in range(10)])
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 1)
        sizes, chunk = [], boolanalysis._mc_chunk

        def spy(rng, nt, *args):
            sizes.append(nt)
            return chunk(rng, nt, *args)

        monkeypatch.setattr(boolanalysis, "_mc_chunk", spy)
        mc = monte_carlo_local_collision(20, 10, seed=2, workers=16)
        assert sizes == [1] * 10
        assert (mc.successes, mc.trials) == (ones, 10)

    def test_worker_failure_propagates(self, monkeypatch, forks, chunks):
        chunks(in_child=self.raising("worker failed"))
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="failed: RuntimeError: worker failed"):
            monte_carlo_local_collision(20, 1000, seed=2, workers=2)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_worker_death_without_result_raises(self, monkeypatch, forks, chunks):
        chunks(in_child=lambda *args: os._exit(3))
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=r"died without a result \(exit code 3\)"):
            monte_carlo_local_collision(20, 1000, seed=2, workers=2)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_caller_failure_still_reaps_children(self, monkeypatch, forks, chunks):
        chunks(in_caller=self.raising("caller failed"))
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match="caller failed"):
            monte_carlo_local_collision(20, 1000, seed=2, workers=3)
        assert len(forks) == 2
        assert_reaped(forks)

    def test_zero_disturbance_always_collides(self, monkeypatch):
        monkeypatch.setattr(boolanalysis, "_MC_DW", ZERO_SCHEDULE)
        assert boolanalysis._mc_streams(20, 0, [(0, 2048)]) == 2048

    def test_observed_rate_in_plausible_band(self):
        # the independence model says 2^-9; the exact rate is 7/1024 = 2^-7.19
        # (c07 checks it to four standard errors), so a corridor suffices here
        mc = monte_carlo_local_collision(20, 1 << 16, seed=0)
        assert -8.0 < mc.log2_rate < -6.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_local_collision(56, 10)
        with pytest.raises(ValueError):
            monte_carlo_local_collision(20, 0)
        with pytest.raises(ValueError, match="workers"):
            monte_carlo_local_collision(20, 10, workers=0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            monte_carlo_local_collision(20, 10, seed=-1)


class TestFirstSixteen:
    def test_zero_disturbance_is_noop(self, rng):
        m = [rng.getrandbits(32) for _ in range(16)]
        assert list(satisfy_first16(m, [0] * 64)) == m

    @pytest.mark.parametrize("steps", [(11,), (12,), (13,), (14,), (11, 15)],
                             ids=lambda steps: "-".join(map(str, steps)))
    def test_meets_every_condition_it_can(self, steps):
        # each of these has consistent conditions, so every message is repaired
        dstar = msb_pattern(*steps)
        rng = random.Random(16)
        for _ in range(50):
            m = [rng.getrandbits(32) for _ in range(16)]
            assert check_first16(satisfy_first16(m, dstar), dstar) == (True, None)

    @pytest.mark.parametrize("i", range(6, 11))
    def test_contradiction_does_not_depend_on_the_message(self, i):
        # the Ch condition five steps after the disturbance contradicts two
        # earlier ones, whatever the message
        dstar = msb_pattern(i)
        rng = random.Random(i)
        for _ in range(20):
            m = [rng.getrandbits(32) for _ in range(16)]
            with pytest.raises(FirstStepsError) as exc_info:
                satisfy_first16(m, dstar)
            err = exc_info.value
            assert (err.step_index, err.func, err.condition) == (i + 5, "ch", "y^z=0")
            assert err.contradicts

    def test_word_that_cannot_split_a_and_e_takes_the_word_before_again(self):
        # step 15's conditions want bit 31 of a and of e entering step 14 to
        # differ from those entering step 13.  Words 11 and 12 are built so
        # that the low 31 bits of e - a are zero for word 13, which then moves
        # bits 31 of a and e together: word 13 alone splits them only when
        # their XOR already equals bit 31 of e - a.  Otherwise the pass moves
        # word 12 within its interval until e - a is free, and redoes word 13.
        dstar = msb_pattern(14)
        config = make_variant("no_sbox")
        rng = random.Random(13)
        outcomes = set()
        for _ in range(40):
            m = [rng.getrandbits(32) for _ in range(16)]
            state = FIPS_IV
            for t in range(11):
                state = step(state, m[t], K[t], config)
            # b ^ c entering step 13 is all ones in the low 31 bits, so
            # a + Maj(a, b, c) is 2a there, and a = d / 2 zeroes e - a
            m[11] = ((state.a ^ (MSB - 1)) - step(state, 0, K[11], config).a) & M32
            state = step(state, m[11], K[11], config)
            if state.c & 1:
                continue
            m[12] = ((state.c & (MSB - 1)) >> 1) - step(state, 0, K[12], config).a & M32
            state = step(state, m[12], K[12], config)
            base = step(state, 0, K[13], config)
            gap = (base.e - base.a) & M32
            assert gap & (MSB - 1) == 0
            splittable = (state.a ^ state.e ^ gap) >> 31 == 0
            outcomes.add(splittable)
            fixed = satisfy_first16(m, dstar)
            assert check_first16(fixed, dstar) == (True, None)
            # word 12 changes only where word 13 could not split the bits
            assert (fixed[12] == m[12]) == splittable
        assert outcomes == {True, False}

    def test_repaired_message_comes_back_unchanged(self, rng):
        dstar = msb_pattern(11, 15)
        m = [rng.getrandbits(32) for _ in range(16)]
        fixed = satisfy_first16(m, dstar)
        assert satisfy_first16(fixed, dstar) == fixed

    def test_check_rejects_a_pattern_outside_the_msb_plane(self, rng):
        m = [rng.getrandbits(32) for _ in range(16)]
        for dstar in ([1] + [0] * 63, [0x12345678] * 64):
            with pytest.raises(ValueError, match="MSB-only"):
                check_first16(m, dstar)

    @pytest.mark.parametrize("dstar", [[0] * 10, [MSB] + [0] * 9], ids=["zero", "msb"])
    def test_check_rejects_a_pattern_shorter_than_sixteen_words(self, rng, dstar):
        m = [rng.getrandbits(32) for _ in range(16)]
        with pytest.raises(ValueError, match="dstar needs at least 16 words, got 10"):
            check_first16(m, dstar)

    def test_canonical_pattern_is_unsatisfiable(self, rng):
        (delta,) = solve_disturbance_kernel()
        dstar, _ = msb_disturbance(delta)
        m = [rng.getrandbits(32) for _ in range(16)]
        with pytest.raises(FirstStepsError) as exc_info:
            satisfy_first16(m, dstar)
        assert exc_info.value.step_index == 5
        assert exc_info.value.func == "ch"

    def test_unsatisfiable_condition_names_what_it_contradicts(self, rng):
        (delta,) = solve_disturbance_kernel()
        dstar, _ = msb_disturbance(delta)
        m = [rng.getrandbits(32) for _ in range(16)]
        with pytest.raises(FirstStepsError, match="contradicts step 2 ch 'x=1'") as exc_info:
            satisfy_first16(m, dstar)
        assert exc_info.value.condition == "y^z=0"
        assert exc_info.value.contradicts == ((2, "ch", "x=1"), (4, "ch", "x^y^z=0"))

    def test_check_reports_first_bad_step(self, rng):
        (delta,) = solve_disturbance_kernel()
        dstar, _ = msb_disturbance(delta)
        m = [rng.getrandbits(32) for _ in range(16)]
        ok, first_bad = check_first16(m, dstar)
        if not ok:
            assert 0 <= first_bad < 16
