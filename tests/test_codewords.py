"""Expansion code: generator, census, search, verification, extension."""

import hashlib
import os
import re
from random import Random

import numpy as np
import pytest

from linsha import codewords, isd
from linsha.codewords import (
    XOR_KINDS,
    SearchParams,
    bitrev32,
    build_generator,
    extend_codeword,
    fig2_sweep,
    load_codeword_file,
    low_weight_search,
    resolve_word_order,
    rotate_words_left,
    single_bit_census,
    sweep_csv,
    verify_codeword,
    write_codeword_file,
    zero_band_report,
)
from linsha.primitives import ExpansionKind, expand, seq_weight
from conftest import assert_reaped
from reference_impl import systematic_by_elimination

XOR = ExpansionKind.SHA256_XOR
SHA1_XOR = ExpansionKind.SHA1_XOR


def word_hash(words) -> str:
    return hashlib.sha256(",".join(f"{w:08x}" for w in words).encode()).hexdigest()[:16]


# (kind, steps, search parameters, weight, found_at_iteration, word hash),
# recorded from the big-integer search that the bit-packed one replaced, and
# (from "n40-window0" on) from the row-at-a-time packed chain that the
# batched one replaced, or (from "n30-seed3" on) from the batched chain; a
# faster search must find the same words at the same iterations.  A "window"
# entry is the Stern window the pin runs at in place of isd.WINDOW.
PINNED_SEARCHES = [
    pytest.param(XOR, 40, dict(iterations=1000, seed=0), 316, 702, "01d8b95e2d026def",
                 id="n40-seed0"),
    pytest.param(XOR, 40, dict(iterations=1000, seed=1), 315, 188, "1cd0f7e926df7bfb",
                 id="n40-seed1"),
    pytest.param(XOR, 40, dict(iterations=1000, seed=5), 310, 291, "5d0db9bb278e4ba1",
                 id="n40-seed5"),
    pytest.param(XOR, 42, dict(iterations=500, seed=3), 349, 24, "794ba867edf5f63e",
                 id="n42-seed3"),
    pytest.param(XOR, 22, dict(iterations=40, seed=0, bootstrap_lengths=(20,)), 1, None,
                 "6704b4e02bf11d9f", id="n22-bootstrap20"),
    # every pair of rows shares the empty window: C(512, 2) pairs per set
    pytest.param(XOR, 40, dict(iterations=20, seed=0, window=0), 303, 5,
                 "9221fa2fb9d8a760", id="n40-window0"),
    pytest.param(XOR, 80, dict(iterations=300, seed=0, window=3), 906, 112,
                 "73b59d763a064ce0", id="n80-window3"),
    pytest.param(XOR, 30, dict(iterations=300, seed=3), 9, 116, "6f60cfaa0e739991",
                 id="n30-seed3"),
    pytest.param(XOR, 80, dict(iterations=300, seed=0), 920, 248, "85e47838753c89bb",
                 id="n80-seed0"),
    pytest.param(SHA1_XOR, 64, dict(iterations=300, seed=3), 30, 0, "817332f4bfec34f4",
                 id="sha1-n64-seed3"),
    pytest.param(SHA1_XOR, 80, dict(iterations=300, seed=3), 44, 67, "0857af19adc29a60",
                 id="sha1-n80-seed3"),
]


def pinned_search(monkeypatch, kind, steps, params):
    """low_weight_search at a pin's parameters and Stern window."""
    params = dict(params)
    monkeypatch.setattr(isd, "WINDOW", params.pop("window", isd.WINDOW))
    return low_weight_search(build_generator(kind, steps), SearchParams(**params))


class TestGenerator:
    def test_dimensions(self):
        g = build_generator(XOR, 40)
        assert g.words.shape == (512, 40)
        assert g.n_bits == 1280

    def test_rejects_nonlinear_kinds(self):
        with pytest.raises(ValueError):
            build_generator(ExpansionKind.SHA256_ADD, 40)

    def test_rows_are_unit_message_expansions(self):
        # with expand's GF(2) linearity this pins every product G.m
        for kind in XOR_KINDS:
            g = build_generator(kind, 30)
            for j in range(512):
                m = [0] * 16
                m[j // 32] = 1 << (j % 32)
                assert g.words[j].tolist() == expand(m, kind, 30)


class TestCensus:
    def test_reference_cells(self):
        assert single_bit_census(XOR, 40) == (110, 297)
        assert single_bit_census(ExpansionKind.SHA1_XOR, 40) == (18, 30)
        assert single_bit_census(ExpansionKind.SHA1_ADD, 80) == (247, 354)

    def test_census_is_deterministic(self):
        assert single_bit_census(XOR, 40) == single_bit_census(XOR, 40)


class TestVerification:
    def test_reference_word_is_valid(self, table5_words):
        valid, weight = verify_codeword(table5_words, XOR, 40)
        assert valid and weight == 26

    def test_bit_flip_invalidates(self, table5_words):
        tampered = list(table5_words)
        tampered[20] ^= 1
        valid, weight = verify_codeword(tampered, XOR)
        assert not valid and weight == 27

    def test_length_mismatch_raises(self, table5_words):
        with pytest.raises(ValueError):
            verify_codeword(table5_words, XOR, 64)

    def test_rotation_is_not_closed(self, table5_words):
        # rotating every word by one breaks validity: the sigma shifts are not
        # rotation-equivariant, so the code has no rotational symmetry
        valid, _ = verify_codeword(rotate_words_left(table5_words, 1), XOR)
        assert not valid

    def test_support_structure(self, table5_words):
        report = zero_band_report(table5_words)
        assert report["support"] == [0, 9, 10, 11, 12, 13, 17, 18, 25, 27]
        assert report["single_window"] is False


class TestExtension:
    def test_same_length_is_noop(self, table5_words):
        assert extend_codeword(table5_words, 40, XOR) == list(table5_words)

    def test_shortening_rejected(self, table5_words):
        with pytest.raises(ValueError):
            extend_codeword(table5_words, 39, XOR)

    def test_invalid_input_rejected(self, table5_words):
        tampered = list(table5_words)
        tampered[20] ^= 1
        with pytest.raises(ValueError):
            extend_codeword(tampered, 64, XOR)

    def test_extension_weights_frozen(self, table5_words):
        assert seq_weight(extend_codeword(table5_words, 42, XOR)) == 38
        assert seq_weight(extend_codeword(table5_words, 64, XOR)) == 362

    def test_extension_preserves_validity(self, table5_words):
        ext = extend_codeword(table5_words, 64, XOR)
        valid, _ = verify_codeword(ext, XOR, 64)
        assert valid

    def test_truncation_of_valid_word_is_valid(self, table5_words):
        valid, _ = verify_codeword(table5_words[:33], XOR)
        assert valid


class TestWordFiles:
    def test_roundtrip(self, tmp_path, table5_words):
        path = tmp_path / "word.hex"
        write_codeword_file(str(path), table5_words, ["comment line"])
        assert path.read_text() == (
            "# comment line\n" + "\n".join(f"{w:08x}" for w in table5_words) + "\n")
        assert load_codeword_file(str(path)) == list(table5_words)

    def test_malformed_line_rejected(self, tmp_path):
        # int(line, 16) alone takes the 0x, _ and + lines, and the - line
        # fails later without naming its line
        path = tmp_path / "bad.hex"
        for line in ("0001", "0x000001", "00_00001", "+0000001", "-0000001"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match=re.escape(f"8 hex digits per line, got {line!r}")):
                load_codeword_file(str(path))

    def test_printed_grid_resolution(self, table5_path):
        raw = load_codeword_file(str(table5_path))
        words, order, valid, weight = resolve_word_order(raw)
        assert valid and weight == 26
        assert order == "column-major,bit-reversed"

    def test_already_valid_word_resolves_as_given(self, tmp_path, table5_words):
        path = tmp_path / "word.hex"
        path.write_text("\n".join(f"{w:08x}" for w in table5_words) + "\n")
        _, order, valid, _ = resolve_word_order(load_codeword_file(str(path)))
        assert valid and order == "as-given"

    def test_bitrev_involution(self, rng):
        for _ in range(50):
            x = rng.getrandbits(32)
            assert bitrev32(bitrev32(x)) == x


def reference_weigh(sets, window):
    """isd._weigh one set at a time on Python ints: the first lightest row,
    replaced by the least (weight, later, earlier) pair of rows with equal
    window bits if that pair is strictly lighter."""
    n_words, nb, k = sets.shape
    earlier, later = np.triu_indices(k, 1)
    out = []
    for s in range(nb):
        rows = [sum(int(sets[w, s, r]) << 64 * w for w in range(n_words)) for r in range(k)]
        best = min((r.bit_count() + 1, (i,)) for i, r in enumerate(rows))
        ids = {}
        key = np.array([ids.setdefault(r & ((1 << window) - 1), len(ids)) for r in rows])
        same = key[earlier] == key[later]
        pairs = zip(earlier[same].tolist(), later[same].tolist())
        candidates = [((rows[a] ^ rows[b]).bit_count() + 2, b, a) for a, b in pairs]
        if candidates:
            w, b, a = min(candidates)
            if w < best[0]:
                best = (w, (a, b))
        out.append(best)
    return out


def clustered_sets(rng):
    """A (3, 4, 512) batch whose rows are each one of 8 bases (7 dense, one
    of weight about 12) plus noise of weight about 3, so pairs on one base
    are light, single rows on the light base about as light, and many
    candidates tie."""
    def sparse(shape, ands):
        out = rng.integers(0, 1 << 64, shape, dtype=np.uint64)
        for _ in range(ands):
            out &= rng.integers(0, 1 << 64, shape, dtype=np.uint64)
        return out

    bases = sparse((3, 4, 8), 0)
    bases[:, :, 0] = sparse((3, 4), 3)
    return bases[:, :, rng.integers(0, 8, 512)] ^ sparse((3, 4, 512), 5)


class TestBatchedWeighing:
    @pytest.mark.parametrize("window", [0, 1, 5, 12, 55])
    def test_matches_one_set_at_a_time(self, window):
        # 55 bits fill a sort key above the row index
        sets = clustered_sets(np.random.default_rng(window))
        assert isd._weigh(sets, window) == reference_weigh(sets, window)

    def test_bucket_of_many_pair_chunks(self):
        # at the chains' window, one set's first 250 rows share their window
        # bits: 31125 pairs in one bucket, more than three PAIR_CHUNK chunks
        sets = clustered_sets(np.random.default_rng(200))
        sets[0, 1, :250] &= ~np.uint64((1 << isd.WINDOW) - 1)
        assert 250 * 249 // 2 > 3 * isd.PAIR_CHUNK
        assert isd._weigh(sets, isd.WINDOW) == reference_weigh(sets, isd.WINDOW)

    @pytest.mark.parametrize("window, expected", [(12, (3, (30, 40))), (55, (3, (30, 40)))])
    def test_ties_and_long_windows(self, window, expected):
        # dense random rows, except: row 5 weighs 3 (a candidate of 4); rows
        # 10 and 20 differ in bits 150 and 160 only (a pair of 4, which the
        # row beats); rows 30 and 40 differ in bit 58 only, past the longest
        # window, so they pair at every window (a pair of 3)
        rng = np.random.default_rng(1)
        rows = [int.from_bytes(rng.bytes(24), "little") for _ in range(512)]
        rows[5] = 1 << 3 | 1 << 77 | 1 << 190
        rows[20] = rows[10] ^ (1 << 150 | 1 << 160)
        rows[40] = rows[30] ^ 1 << 58
        sets = np.array([[[(r >> 64 * w) & (2**64 - 1) for r in rows]] for w in range(3)],
                        dtype=np.uint64)
        assert isd._weigh(sets, window) == reference_weigh(sets, window) == [expected]


class TestSearch:
    @pytest.mark.parametrize("kind, steps, params, weight, found_at, digest", PINNED_SEARCHES)
    def test_pinned_search(self, monkeypatch, kind, steps, params, weight, found_at, digest):
        res = pinned_search(monkeypatch, kind, steps, params)
        assert (res.weight, res.found_at_iteration, word_hash(res.words)) == (
            weight, found_at, digest)

    def test_default_chain_finds_the_table5_word(self, table5_words):
        # the paper's 40-step word, found again by the default chain at seed 0
        res = low_weight_search(build_generator(XOR, 40), SearchParams(iterations=24000, seed=0))
        assert (res.weight, res.found_at_iteration) == (26, 23317)
        assert list(res.words) == table5_words

    @pytest.mark.parametrize("iterations", [4, 7, 11, 13, 18, 30, 31, 34])
    def test_skipped_last_iteration_is_counted(self, iterations):
        # at these budgets on the sparse SHA-1 code at 17 steps, a swap draw
        # capped at 200 tries left the last iteration without a swap; the
        # draw now runs until it hits, and the iteration counts as before
        res = low_weight_search(build_generator(SHA1_XOR, 17),
                                SearchParams(iterations=iterations, seed=0))
        assert res.iterations_run == iterations
        assert (res.weight, res.found_at_iteration, word_hash(res.words)) == (
            1, 0, "cd0dd3ede3ae05b8")

    def test_every_iteration_weighs_one_set(self, monkeypatch):
        # the sparse SHA-1 code at 17 steps, where a swap takes the most draws
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 1)
        weighed, weigh = [], isd._weigh

        def counting(sets, window):
            weighed.append(sets.shape[1])
            return weigh(sets, window)

        monkeypatch.setattr(isd, "_weigh", counting)
        res = low_weight_search(build_generator(SHA1_XOR, 17),
                                SearchParams(iterations=1000, seed=0))
        assert sum(weighed) == res.iterations_run == 1000

    def test_sixteen_steps_hits_unit_vector(self):
        g = build_generator(XOR, 16)
        res = low_weight_search(g, SearchParams(iterations=5))
        assert res.weight == 1
        assert (res.iterations_run, res.found_at_iteration, res.origin) == (0, None, "search")

    def test_small_search_is_deterministic(self):
        g = build_generator(XOR, 20)
        p = SearchParams(iterations=120, seed=9)
        a = low_weight_search(g, p)
        b = low_weight_search(g, p)
        assert a.words == b.words and a.weight == b.weight

    def test_weight_one_exists_below_twenty_one_steps(self):
        # a single bit in an untouched message word expands to itself only
        g = build_generator(XOR, 20)
        res = low_weight_search(g, SearchParams(iterations=150, seed=0))
        assert res.weight == 1

    def test_bootstrap_produces_valid_incumbent(self):
        g = build_generator(XOR, 22)
        res = low_weight_search(g, SearchParams(iterations=40, seed=0, bootstrap_lengths=(20,)))
        valid, w = verify_codeword(res.words, XOR, 22)
        assert valid and w == res.weight

    def test_bootstrap_length_validated(self):
        g = build_generator(XOR, 22)
        with pytest.raises(ValueError):
            low_weight_search(g, SearchParams(iterations=5, bootstrap_lengths=(22,)))

    def test_time_budget_is_split_with_bootstrap_stages(self):
        # the main search gets its own slice, not what the bootstrap left over
        res = low_weight_search(build_generator(XOR, 42),
                                SearchParams(budget_secs=0.5, bootstrap_lengths=(40,)))
        assert res.iterations_run >= 1
        valid, w = verify_codeword(res.words, XOR, 42)
        assert valid and w == res.weight

    @pytest.mark.parametrize("n, params", [
        (40, SearchParams(budget_secs=1e-9)),
        (42, SearchParams(budget_secs=1e-9, bootstrap_lengths=(40,))),
    ], ids=["one-chain", "bootstrap"])
    def test_budget_spent_in_setup_still_yields_a_word(self, n, params):
        # the chain's deadline passes during its setup, so it runs once
        res = low_weight_search(build_generator(XOR, n), params)
        assert res.iterations_run == 1
        valid, w = verify_codeword(res.words, XOR, n)
        assert valid and w == res.weight

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SearchParams()
        with pytest.raises(ValueError):
            SearchParams(iterations=0)
        for budget in (0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="time budget"):
                SearchParams(iterations=5, budget_secs=budget)

    def test_rejects_negative_seed(self):
        # random.Random seeds from |seed|, so seed -5 ran seed 5's chain
        with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
            SearchParams(iterations=50, seed=-5)

    def test_replace_checks_like_the_constructor(self):
        params = SearchParams(iterations=5, seed=3, bootstrap_lengths=(20,))
        assert params.replace(bootstrap_lengths=()) == SearchParams(iterations=5, seed=3)
        with pytest.raises(ValueError, match="time budget"):
            params.replace(budget_secs=float("nan"))
        with pytest.raises(ValueError, match="iteration"):
            params.replace(iterations=None)

    def test_bootstrap_budget_slice_is_checked_again(self, monkeypatch):
        # a clock reading NaN makes the stage's slice NaN, which its replace() rejects
        monkeypatch.setattr("linsha.codewords.time.monotonic", lambda: float("nan"))
        params = SearchParams(budget_secs=1.0, bootstrap_lengths=(17,))
        with pytest.raises(ValueError, match="finite number, got nan"):
            low_weight_search(build_generator(XOR, 18), params)


class TestSweep:
    def test_monotone_and_sound(self):
        rows = fig2_sweep(range(16, 25), SearchParams(iterations=150, seed=0),
                          search_horizon=22)
        weights = [r.weight for r in rows]
        assert weights == sorted(weights)
        for r in rows:
            valid, w = verify_codeword(r.words, XOR, r.steps)
            assert valid and w == r.weight
        assert {r.method for r in rows} <= {"searched", "extended"}
        assert rows[-1].method == "extended"

    def test_forty_steps_searched_once(self, monkeypatch):
        # rows past 40 start from the row-40 word instead of searching 40
        # steps again; rows recorded from the sweep that re-searched
        searched = []
        chain_search = isd.chain_search
        search = codewords.low_weight_search

        def chain_spy(g, *args):
            searched.append(g.n_steps)
            return chain_search(g, *args)

        def search_spy(g, params):
            searched.append(("low_weight_search", g.n_steps))
            return search(g, params)

        monkeypatch.setattr(isd, "chain_search", chain_spy)
        monkeypatch.setattr(codewords, "low_weight_search", search_spy)
        rows = fig2_sweep(range(40, 43), SearchParams(iterations=50))
        assert searched == [("low_weight_search", 40), 40, 41, 42]
        assert [(r.steps, r.weight, r.method, r.iterations, word_hash(r.words))
                for r in rows] == [
            (40, 321, "searched", 50, "db1407d7ccc67568"),
            (41, 337, "searched", 50, "1edcc84ccb60fde6"),
            (42, 354, "searched", 50, "f9a12a093162336f"),
        ]

    def test_rows_past_forty_without_row_forty(self):
        rows = fig2_sweep(range(41, 43), SearchParams(iterations=20, seed=2))
        assert [(r.steps, r.weight, word_hash(r.words)) for r in rows] == [
            (41, 333, "705dd9d482570d59"), (42, 353, "4168737dfd32eac6")]

    def test_csv_format(self):
        rows = fig2_sweep(range(16, 19), SearchParams(iterations=40, seed=0))
        csv = sweep_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "steps,weight,method,seed,iterations"
        assert len(lines) == 4

    def test_range_validated(self):
        with pytest.raises(ValueError):
            fig2_sweep(range(10, 20), SearchParams(iterations=5))


class TestSystematic:
    @pytest.mark.parametrize("kind, steps", [(XOR, 20), (XOR, 40), (XOR, 64),
                                             (SHA1_XOR, 17), (SHA1_XOR, 30), (SHA1_XOR, 80)],
                             ids=lambda v: getattr(v, "value", v))
    def test_matches_full_elimination(self, kind, steps):
        # the message-basis pivots give the reduced form, the perm and the draws
        # of the elimination they replaced; sha256-xor at 20 steps redraws
        # hundreds of pivotless columns per seed
        g = build_generator(kind, steps)
        for seed in range(8):
            fast, slow = Random(seed), Random(seed)
            perm_fast, perm_slow = list(range(g.n_bits)), list(range(g.n_bits))
            fast.shuffle(perm_fast)
            slow.shuffle(perm_slow)
            red = isd._systematic(g.words, perm_fast, 512, g.n_bits, fast)
            assert np.array_equal(red, systematic_by_elimination(
                g.words, perm_slow, 512, g.n_bits, slow)), seed
            assert perm_fast == perm_slow, seed
            assert fast.random() == slow.random(), seed


class TestSplit:
    """A chain weighed in forked replays finds what one process finds."""

    CASES = [
        pytest.param(XOR, 40, dict(iterations=1000, seed=0), (316, 702, "01d8b95e2d026def", 1000),
                     id="n40-seed0"),
        pytest.param(XOR, 22, dict(iterations=40, seed=0, bootstrap_lengths=(20,)),
                     (1, None, "6704b4e02bf11d9f", 40), id="n22-bootstrap20"),
        pytest.param(XOR, 40, dict(iterations=20, seed=0, window=0),
                     (303, 5, "9221fa2fb9d8a760", 20), id="n40-window0"),
        pytest.param(XOR, 30, dict(iterations=300, seed=3),
                     (9, 116, "6f60cfaa0e739991", 300), id="n30-seed3"),
        pytest.param(SHA1_XOR, 17, dict(iterations=30, seed=0),
                     (1, 0, "cd0dd3ede3ae05b8", 30), id="sha1-n17"),
    ]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("kind, steps, params, expected", CASES)
    def test_same_result_on_any_cpu_count(self, monkeypatch, forks, cpus, kind, steps, params,
                                          expected):
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: cpus)
        res = pinned_search(monkeypatch, kind, steps, params)
        assert (res.weight, res.found_at_iteration, word_hash(res.words),
                res.iterations_run) == expected
        # one process per CPU at most, and no more processes than batches
        set_bytes = 512 * 8 * -(-(steps - 16) // 2)      # (W, 512) uint64 words
        batches = -(-params["iterations"] // (isd.BATCH_BYTES // set_bytes))
        assert len(forks) == min(cpus, batches) - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_deadline_reports_iterations_every_process_ran(self, monkeypatch, forks, cpus):
        # a clock that ticks once per deadline check in the caller and twice in
        # a child: at deadline 300 the caller runs 301 iterations and each child
        # 151, and the chain is the one-process chain of 151 iterations.  With
        # two processes the caller weighs a lighter set at 223, which is dropped
        caller = os.getpid()
        ticks = [0]

        class Clock:
            @staticmethod
            def monotonic():
                ticks[0] += 1 if os.getpid() == caller else 2
                return ticks[0]

        g = build_generator(XOR, 40)
        params = SearchParams(iterations=1, seed=0)
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: cpus)
        monkeypatch.setattr(isd, "time", Clock)
        split = isd.chain_search(g, 0, 1 << 62, 300, None)
        assert split[3] == 151 and len(forks) == cpus - 1
        assert_reaped(forks)
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 1)
        assert split == isd.chain_search(g, 0, 151, None, None)

    def test_caller_failure_still_reaps_children(self, monkeypatch, forks):
        caller, weigh = os.getpid(), isd._weigh

        def failing(*args):
            if os.getpid() == caller:
                raise RuntimeError("caller failed")
            return weigh(*args)

        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 3)
        monkeypatch.setattr(isd, "_weigh", failing)
        with pytest.raises(RuntimeError, match="caller failed"):
            low_weight_search(build_generator(XOR, 40), SearchParams(iterations=100, seed=0))
        assert len(forks) == 2
        assert_reaped(forks)

    def test_child_results_of_any_length(self, forks):
        # far more than a pipe holds: the child writes it all, the caller reads to the end
        from linsha.forks import forked

        assert forked(lambda n: list(range(n)), [100_000, 3]) == [list(range(100_000)),
                                                                   [0, 1, 2]]
        assert len(forks) == 1
        assert_reaped(forks)
