"""Expansion code: generator, census, search, verification, extension."""

import hashlib
import os
import re
import select
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
    single_bit_census,
    sweep_csv,
    verify_codeword,
    write_codeword_file,
)
from linsha.primitives import ExpansionKind, expand, seq_weight
from conftest import assert_reaped
from reference_impl import rotate_words_left, systematic_by_elimination

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
        valid, weight = verify_codeword(table5_words, XOR)
        assert valid and weight == 26 and len(table5_words) == 40

    def test_bit_flip_invalidates(self, table5_words):
        tampered = list(table5_words)
        tampered[20] ^= 1
        valid, weight = verify_codeword(tampered, XOR)
        assert not valid and weight == 27

    def test_rotation_is_not_closed(self, table5_words):
        # rotating every word by one breaks validity: the sigma shifts are not
        # rotation-equivariant, so the code has no rotational symmetry
        valid, _ = verify_codeword(rotate_words_left(table5_words, 1), XOR)
        assert not valid

    def test_support_structure(self, table5_words):
        # the words that verify-word reports as the support; no 16-word
        # window holds them all
        support = [i for i, w in enumerate(table5_words) if w]
        assert support == [0, 9, 10, 11, 12, 13, 17, 18, 25, 27]
        assert support[-1] - support[0] + 1 > 16


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
        valid, _ = verify_codeword(ext, XOR)
        assert valid and len(ext) == 64

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


def clustered_sets(rng, k=512):
    """A (3, 4, k) batch whose rows are each one of 8 bases (7 dense, one
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
    return bases[:, :, rng.integers(0, 8, k)] ^ sparse((3, 4, k), 5)


def random_sets(rng, n_words, nb, k=512):
    """A (n_words, nb, k) batch of uniformly random redundancy parts."""
    return rng.integers(0, 1 << 64, (n_words, nb, k), dtype=np.uint64)


def at_dimensions(windows):
    """Stern windows at k = 512, with their ids alone, then at k = 128 and at
    k = 192, which is no power of two: neither a row nor a set index is then
    a bit field of a batch column."""
    return [pytest.param(w, k, id=str(w) if k == 512 else f"{w}-k{k}")
            for k in (512, 128, 192) for w in windows]


def systematic_generator(red):
    """The generator [I | red] of a code systematic on its first k = len(red)
    columns, from (k, n - k) 0/1 redundancy bits, packed as isd.chain_search
    takes it: (k, n / 32) little-endian uint32 rows."""
    bits = np.concatenate([np.eye(len(red), dtype=np.uint8), red], axis=1)
    return np.packbits(bits, axis=1, bitorder="little").view("<u4")


def first_batch(monkeypatch, steps):
    """The first batch that sha1-xor's seed-0 chain at `steps` steps weighs:
    its first 4 sets."""
    batches, weigh = [], isd._weigh

    def keep(sets, window):
        batches.append(sets.copy())
        return weigh(sets, window)

    with monkeypatch.context() as patch:
        patch.setattr(isd, "_weigh", keep)
        isd.chain_search(build_generator(SHA1_XOR, steps).words, 0, 4, None)
    (sets,) = batches
    return sets


class TestBatchedWeighing:
    @pytest.mark.parametrize("window, k", at_dimensions([0, 1, 5, 12, 55]))
    def test_matches_one_set_at_a_time(self, window, k):
        # 55 bits fill a sort key above a 512-row index
        sets = clustered_sets(np.random.default_rng(window), k)
        assert isd._weigh(sets, window) == reference_weigh(sets, window)

    @pytest.mark.parametrize("window, k", at_dimensions([0, 3, 12, 20]))
    def test_random_batches(self, window, k):
        # uniform rows of two words and of one: a pair wins at windows 0 and
        # 3 (at 0 every row pair is weighed), a single row mostly at 12 and 20
        rng = np.random.default_rng(100 + window)
        for sets in (random_sets(rng, 2, 3, k), random_sets(rng, 1, 5, k)):
            assert isd._weigh(sets, window) == reference_weigh(sets, window)

    def test_real_sparse_batch(self, monkeypatch):
        # the first sets of sha1-xor's chain at 17 steps: one redundancy word,
        # 464 of each set's 512 rows zero on the window, and a row of
        # redundancy weight 0 in every set, which no pair can beat, so no
        # pair is weighed
        sets = first_batch(monkeypatch, 17)
        assert sets.shape == (1, 4, 512)
        assert np.bitwise_count(sets).sum(axis=0).min(axis=1).tolist() == [0] * 4
        assert int((sets[0, 0] & np.uint64((1 << isd.WINDOW) - 1) == 0).sum()) == 464
        assert isd._weigh(sets, isd.WINDOW) == reference_weigh(sets, isd.WINDOW)

    def test_real_batch_of_deep_buckets(self, monkeypatch):
        # the first sets of sha1-xor's chain at 24 steps: four redundancy
        # words, 421 of each set's rows zero on the window, and the lightest
        # rows of redundancy weight 2, so every set's pairs are weighed, over
        # some 420 passes
        sets = first_batch(monkeypatch, 24)
        assert sets.shape == (4, 4, 512)
        assert np.bitwise_count(sets).sum(axis=0).min(axis=1).tolist() == [2] * 4
        zero = sets[0] & np.uint64((1 << isd.WINDOW) - 1) == 0
        assert zero.sum(axis=1).tolist() == [421] * 4
        assert isd._weigh(sets, isd.WINDOW) == reference_weigh(sets, isd.WINDOW)

    def test_winning_pair_on_the_deepest_pass(self):
        # dense random rows at the chains' window, except: one set's first
        # 250 rows share their window bits, and rows 0 and 249 differ in one
        # bit past it, a pair of 3 that only the bucket's 249th pass reaches
        sets = random_sets(np.random.default_rng(200), 3, 4)
        sets[0, 1, :250] &= ~np.uint64((1 << isd.WINDOW) - 1)
        sets[:, 1, 249] = sets[:, 1, 0]
        sets[0, 1, 249] ^= np.uint64(1 << isd.WINDOW)
        result = isd._weigh(sets, isd.WINDOW)
        assert result[1] == (3, (0, 249))
        assert result == reference_weigh(sets, isd.WINDOW)

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
        valid, w = verify_codeword(res.words, XOR)
        assert valid and w == res.weight and len(res.words) == 22

    def test_bootstrap_length_validated(self):
        g = build_generator(XOR, 22)
        with pytest.raises(ValueError):
            low_weight_search(g, SearchParams(iterations=5, bootstrap_lengths=(22,)))

    def test_time_budget_is_split_with_bootstrap_stages(self):
        # the main search gets its own slice, not what the bootstrap left over
        res = low_weight_search(build_generator(XOR, 42),
                                SearchParams(budget_secs=0.5, bootstrap_lengths=(40,)))
        assert res.iterations_run >= 1
        valid, w = verify_codeword(res.words, XOR)
        assert valid and w == res.weight and len(res.words) == 42

    @pytest.mark.parametrize("n, params", [
        (40, SearchParams(budget_secs=1e-9)),
        (42, SearchParams(budget_secs=1e-9, bootstrap_lengths=(40,))),
    ], ids=["one-chain", "bootstrap"])
    def test_budget_spent_in_setup_still_yields_a_word(self, n, params):
        # the chain's deadline passes during its setup, so it runs once
        res = low_weight_search(build_generator(XOR, n), params)
        assert res.iterations_run == 1
        valid, w = verify_codeword(res.words, XOR)
        assert valid and w == res.weight and len(res.words) == n

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
            valid, w = verify_codeword(r.words, XOR)
            assert valid and w == r.weight and len(r.words) == r.steps
        assert {r.method for r in rows} <= {"searched", "extended"}
        assert rows[-1].method == "extended"

    def test_forty_steps_searched_once(self, monkeypatch):
        # rows past 40 start from the row-40 word instead of searching 40
        # steps again; rows recorded from the sweep that re-searched
        searched = []
        chain_search = isd.chain_search
        search = codewords.low_weight_search

        def chain_spy(gen, *args):
            searched.append(gen.shape[1])       # one uint32 word per step
            return chain_search(gen, *args)

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
        rows = fig2_sweep(range(16, 19), SearchParams(iterations=40, seed=3))
        csv = sweep_csv(rows, 3)
        lines = csv.strip().splitlines()
        assert lines[0] == "steps,weight,method,seed,iterations"
        assert len(lines) == 4
        assert [line.split(",")[3] for line in lines[1:]] == ["3"] * 3

    def test_range_validated(self):
        with pytest.raises(ValueError):
            fig2_sweep(range(10, 20), SearchParams(iterations=5))


class TestSystematic:
    @pytest.mark.parametrize("kind, steps", [(XOR, 20), (XOR, 40), (XOR, 64),
                                             (SHA1_XOR, 17), (SHA1_XOR, 30), (SHA1_XOR, 80),
                                             pytest.param(None, 20, id="random-k192-20")],
                             ids=lambda v: getattr(v, "value", v))
    def test_matches_full_elimination(self, kind, steps):
        # the message-basis pivots give the reduced form, the perm and the draws
        # of the elimination they replaced; sha256-xor at 20 steps redraws
        # hundreds of pivotless columns per seed.  Kind None: a random code of
        # the same length with k = 192, systematic on its first 192 columns
        if kind is None:
            red = np.random.default_rng(192).integers(0, 2, (192, 32 * steps - 192), np.uint8)
            gen = systematic_generator(red)
        else:
            gen = build_generator(kind, steps).words
        k, n = len(gen), 32 * steps
        for seed in range(8):
            fast, slow = Random(seed), Random(seed)
            perm_fast, perm_slow = list(range(n)), list(range(n))
            fast.shuffle(perm_fast)
            slow.shuffle(perm_slow)
            red = isd._systematic(gen, perm_fast, k, n, fast)
            assert np.array_equal(red, systematic_by_elimination(gen, perm_slow, k, n, slow)), seed
            assert perm_fast == perm_slow, seed
            assert fast.random() == slow.random(), seed


class TestAnyCode:
    """The chain over a generator other than the expansion code's."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_finds_a_planted_word(self, monkeypatch, forks, cpus):
        # a random [512, 128] code whose message rows 3, 64 and 127 sum to a
        # redundancy part of weight 2: a word of weight 5, where a random
        # word's redundancy part alone weighs about 192
        k, n = 128, 512
        red = np.random.default_rng(0).integers(0, 2, (k, n - k), dtype=np.uint8)
        red[127] = red[3] ^ red[64]
        red[127, [10, 300]] ^= 1
        word = np.zeros(n, dtype=np.uint8)
        word[[3, 64, 127, k + 10, k + 300]] = 1
        planted = tuple(np.packbits(word, bitorder="little").view("<u4").tolist())
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: cpus)
        # 300 sets fill batches of 130, 130 and 40
        assert isd.chain_search(systematic_generator(red), 2, 300, None) == (5, planted, 9, 300)
        assert len(forks) == cpus - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("m", [2, 4], ids=["n=k", "n=2k"])
    def test_code_without_redundancy_bits_is_refused(self, m):
        # [I | 0] with k = 64 has no swap, where the chain's swap draw once
        # looped forever
        gen = systematic_generator(np.zeros((64, 32 * m - 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="no nonzero redundancy bit"):
            isd.chain_search(gen, 0, 3, None)

    def test_zero_iterations_are_refused(self, monkeypatch):
        # refused by name before any elimination; zero iterations once
        # planned zero processes and raised IndexError in forks.forked
        monkeypatch.setattr(isd, "_systematic", lambda *args: pytest.fail("eliminated"))
        with pytest.raises(ValueError, match="^iterations must be at least 1, got 0$"):
            isd.chain_search(build_generator(XOR, 20).words, 0, 0, None)


class TestSplit:
    """A chain whose batches forked weighers take off its ring finds what one
    process finds."""

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
    def test_deadline_reports_the_chains_iterations(self, monkeypatch, forks, cpus):
        # a clock that ticks once per deadline check in the caller and twice
        # in a child: at deadline 300 the chain runs 301 iterations, and every
        # set it made is weighed.  No weigher reads the clock (a child that
        # ran the chain itself would stop after 151)
        caller = os.getpid()
        ticks = [0]

        class Clock:
            @staticmethod
            def monotonic():
                ticks[0] += 1 if os.getpid() == caller else 2
                return ticks[0]

        g = build_generator(XOR, 40)
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: cpus)
        monkeypatch.setattr(isd, "time", Clock)
        split = isd.chain_search(g.words, 0, 1 << 62, 300)
        assert split[3] == 301 and len(forks) == cpus - 1
        assert_reaped(forks)
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 1)
        assert split == isd.chain_search(g.words, 0, 301, None)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_only_the_caller_swaps(self, monkeypatch, forks, cpus):
        # every swap, the systematic form's pivots and one per iteration, is
        # made in the caller; a swap in a weigher would fail that child
        caller, swap, systematic = os.getpid(), isd._swap, isd._systematic
        swaps, pivots = [0], []

        def counting(*args):
            if os.getpid() != caller:
                raise RuntimeError("a weigher swapped")
            swaps[0] += 1
            return swap(*args)

        def counting_pivots(*args):
            red = systematic(*args)
            pivots.append(swaps[0])
            return red

        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: cpus)
        monkeypatch.setattr(isd, "_swap", counting)
        monkeypatch.setattr(isd, "_systematic", counting_pivots)
        res = low_weight_search(build_generator(XOR, 40), SearchParams(iterations=1000, seed=0))
        assert (res.weight, res.found_at_iteration) == (316, 702)
        assert len(forks) == cpus - 1
        assert_reaped(forks)
        (pivoted,) = pivots
        assert pivoted > 0 and swaps[0] == pivoted + 1000

    def test_drained_batches_before_the_chains_own_still_win_by_iteration(self, monkeypatch,
                                                                           forks):
        # the weigher waits at a gate, so the chain weighs its third batch of
        # 195 sets itself, then takes the first off the ring, and only then
        # opens the gate.  Every set of this code has a weight-1 row, so the
        # chain's best already weighs 1 by then: the find at iteration 0
        # wins, weighed later, because it is the earlier iteration
        gate_r, gate_w = os.pipe()
        fork, weigh, calls = os.fork, isd._weigh, []

        def gated_fork():
            pid = fork()
            if pid == 0:
                os.close(gate_w)
                select.select([gate_r], [], [], 10)     # until the gate closes
            return pid

        def opening(sets, window):
            calls.append(sets.shape[1])
            if len(calls) == 2:
                os.close(gate_w)
            return weigh(sets, window)

        monkeypatch.setattr(os, "fork", gated_fork)
        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 2)
        monkeypatch.setattr(isd, "_weigh", opening)
        try:
            w, words, found_at, done = isd.chain_search(build_generator(SHA1_XOR, 17).words, 0,
                                                        700, None)
        finally:
            os.close(gate_r)
            if len(calls) < 2:
                os.close(gate_w)
        assert (w, found_at, word_hash(words), done) == (1, 0, "cd0dd3ede3ae05b8", 700)
        assert calls[:2] == [195, 195]
        assert_reaped(forks)

    def test_weigher_failure_still_reaps_children(self, monkeypatch, forks):
        # the weighers fail on the first batch they take; the chain weighs
        # the rest itself, and the caller then raises the weighers' failure
        caller, weigh = os.getpid(), isd._weigh

        def failing(*args):
            if os.getpid() != caller:
                raise RuntimeError("weigher failed")
            return weigh(*args)

        monkeypatch.setattr("linsha.forks.usable_cpus", lambda: 3)
        monkeypatch.setattr(isd, "_weigh", failing)
        with pytest.raises(RuntimeError, match=r"forked child \d+ failed: RuntimeError: weigher failed"):
            low_weight_search(build_generator(XOR, 40), SearchParams(iterations=1000, seed=0))
        assert len(forks) == 2
        assert_reaped(forks)

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
