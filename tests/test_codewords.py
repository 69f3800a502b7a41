"""Expansion code: generator, census, search, verification, extension."""

import hashlib

import pytest

from linsha import codewords
from linsha.codewords import (
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
    words_to_bits,
    zero_band_report,
)
from linsha.primitives import ExpansionKind, expand, seq_weight

XOR = ExpansionKind.SHA256_XOR


def word_hash(words) -> str:
    return hashlib.sha256(",".join(f"{w:08x}" for w in words).encode()).hexdigest()[:16]


# (steps, search parameters, weight, found_at_iteration, word hash), recorded
# from the big-integer search that the bit-packed one replaced; a faster
# search must find the same words at the same iterations
PINNED_SEARCHES = [
    pytest.param(40, dict(iterations=1000, seed=0), 316, 702, "01d8b95e2d026def", id="n40-seed0"),
    pytest.param(40, dict(iterations=1000, seed=1), 315, 188, "1cd0f7e926df7bfb", id="n40-seed1"),
    pytest.param(40, dict(iterations=1000, seed=5), 310, 291, "5d0db9bb278e4ba1", id="n40-seed5"),
    pytest.param(42, dict(iterations=500, seed=3), 349, 24, "794ba867edf5f63e", id="n42-seed3"),
    pytest.param(20, dict(algorithm="stern", iterations=10, seed=1), 1, 0, "e2f769ac7480a276",
                 id="n20-stern"),
    pytest.param(40, dict(algorithm="stern", iterations=3, seed=0), 334, 0, "56100b00e0cec2d6",
                 id="n40-stern"),
    pytest.param(20, dict(algorithm="leon", iterations=10, seed=1), 1, 0, "e2f769ac7480a276",
                 id="n20-leon"),
    pytest.param(20, dict(iterations=60, seed=4, workers=2), 1, 0, "067d01ca465919a9",
                 id="n20-workers2"),
    pytest.param(22, dict(iterations=40, seed=0, bootstrap_lengths=(20,)), 1, None,
                 "6704b4e02bf11d9f", id="n22-bootstrap20"),
]


class TestGenerator:
    def test_dimensions(self):
        g = build_generator(XOR, 40)
        assert len(g.rows) == 512
        assert g.n_bits == 1280

    def test_rejects_nonlinear_kinds(self):
        with pytest.raises(ValueError):
            build_generator(ExpansionKind.SHA256_ADD, 40)

    def test_encode_matches_expansion(self, rng):
        for kind in (XOR, ExpansionKind.SHA1_XOR):
            g = build_generator(kind, 30)
            for _ in range(20):
                m = [rng.getrandbits(32) for _ in range(16)]
                assert g.encode(m) == words_to_bits(expand(m, kind, 30))

    def test_encode_is_gf2_linear(self, rng):
        g = build_generator(XOR, 24)
        m1 = [rng.getrandbits(32) for _ in range(16)]
        m2 = [rng.getrandbits(32) for _ in range(16)]
        mx = [a ^ b for a, b in zip(m1, m2)]
        assert g.encode(mx) == g.encode(m1) ^ g.encode(m2)


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
        path.write_text("# comment line\n" + "\n".join(f"{w:08x}" for w in table5_words) + "\n")
        assert load_codeword_file(str(path)) == list(table5_words)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.hex"
        path.write_text("0001\n")
        with pytest.raises(ValueError):
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


class TestSearch:
    @pytest.mark.parametrize("steps, params, weight, found_at, digest", PINNED_SEARCHES)
    def test_pinned_search(self, steps, params, weight, found_at, digest):
        res = low_weight_search(build_generator(XOR, steps), SearchParams(**params))
        assert (res.weight, res.found_at_iteration, word_hash(res.words)) == (
            weight, found_at, digest)

    def test_sixteen_steps_hits_unit_vector(self):
        g = build_generator(XOR, 16)
        res = low_weight_search(g, SearchParams(iterations=5))
        assert res.weight == 1

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

    def test_alternative_algorithms_run(self):
        g = build_generator(XOR, 20)
        for algo in ("stern", "leon"):
            res = low_weight_search(g, SearchParams(algorithm=algo, iterations=10, seed=1))
            valid, w = verify_codeword(res.words, XOR)
            assert valid and w == res.weight

    def test_worker_split_reproducible(self):
        g = build_generator(XOR, 20)
        p = SearchParams(iterations=60, seed=4, workers=2)
        assert low_weight_search(g, p).words == low_weight_search(g, p).words

    def test_bootstrap_produces_valid_incumbent(self):
        g = build_generator(XOR, 22)
        res = low_weight_search(g, SearchParams(iterations=40, seed=0, bootstrap_lengths=(20,)))
        valid, w = verify_codeword(res.words, XOR, 22)
        assert valid and w == res.weight

    def test_bootstrap_length_validated(self):
        g = build_generator(XOR, 22)
        with pytest.raises(ValueError):
            low_weight_search(g, SearchParams(iterations=5, bootstrap_lengths=(22,)))

    def test_time_budget_is_split_between_chains(self, monkeypatch):
        chains = []
        chain_search = codewords._chain_search

        def spy(*args):
            out = chain_search(*args)
            chains.append(out[3])
            return out

        monkeypatch.setattr(codewords, "_chain_search", spy)
        low_weight_search(build_generator(XOR, 40), SearchParams(budget_secs=0.3, workers=2))
        assert len(chains) == 2 and min(chains) >= 1, chains

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SearchParams()
        with pytest.raises(ValueError):
            SearchParams(iterations=0)
        with pytest.raises(ValueError):
            SearchParams(iterations=5, algorithm="gradient-descent")
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                SearchParams(iterations=5, workers=workers)
        with pytest.raises(ValueError, match="window"):
            SearchParams(iterations=5, window=-1)


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
        chain_search = codewords._chain_search
        search = codewords.low_weight_search

        def chain_spy(g, *args):
            searched.append(g.n_steps)
            return chain_search(g, *args)

        def search_spy(g, params):
            searched.append(("low_weight_search", g.n_steps))
            return search(g, params)

        monkeypatch.setattr(codewords, "_chain_search", chain_spy)
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
        rows = fig2_sweep(range(41, 43), SearchParams(iterations=20, seed=2, workers=2))
        assert [(r.steps, r.weight, word_hash(r.words)) for r in rows] == [
            (41, 333, "705dd9d482570d59"), (42, 353, "0d696dfe7a22a3d8")]

    def test_csv_format(self):
        rows = fig2_sweep(range(16, 19), SearchParams(iterations=40, seed=0))
        csv = sweep_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "steps,weight,method,seed,iterations"
        assert len(lines) == 4

    def test_range_validated(self):
        with pytest.raises(ValueError):
            fig2_sweep(range(10, 20), SearchParams(iterations=5))
