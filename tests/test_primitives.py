"""Word primitives against independent references."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsha.primitives import (
    FIPS_IV,
    M32,
    MAX_STEPS,
    ExpansionKind,
    RegisterState,
    _functions,
    _update,
    as_block,
    big_sigma0,
    big_sigma1,
    ch,
    compress,
    digest_hex,
    expand,
    maj,
    pad_single_block,
    rotl,
    rotr,
    seq_weight,
    small_sigma0,
    small_sigma1,
    step,
)
from linsha.variants import make_variant
from reference_impl import add3

word = st.integers(min_value=0, max_value=M32)


def ref_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bitwise_maj(x, y, z):
    out = 0
    for b in range(32):
        bits = ((x >> b) & 1) + ((y >> b) & 1) + ((z >> b) & 1)
        out |= (1 if bits >= 2 else 0) << b
    return out


def bitwise_ch(x, y, z):
    out = 0
    for b in range(32):
        chosen = (y if (x >> b) & 1 else z) >> b
        out |= (chosen & 1) << b
    return out


class TestBooleanFunctions:
    def test_maj_reference_value(self):
        assert maj(0xF0F0F0F0, 0xFF00FF00, 0x00000000) == 0xF000F000

    def test_ch_reference_value(self):
        assert ch(0xF0F0F0F0, 0xFF00FF00, 0x0F0F0F0F) == 0xFF0FFF0F

    @given(word, word, word)
    @settings(max_examples=60, deadline=None)
    def test_against_bitwise_oracle(self, x, y, z):
        assert maj(x, y, z) == bitwise_maj(x, y, z)
        assert ch(x, y, z) == bitwise_ch(x, y, z)

    @given(word, word, word)
    @settings(max_examples=60, deadline=None)
    def test_complement_symmetry(self, x, y, z):
        nx, ny, nz = x ^ M32, y ^ M32, z ^ M32
        assert maj(nx, ny, nz) == maj(x, y, z) ^ M32
        assert ch(nx, nz, ny) == ch(x, y, z) ^ M32


class TestSigmas:
    def test_weight_single_bit_examples(self):
        assert small_sigma0(1 << 31).bit_count() == 3
        assert small_sigma0(1).bit_count() == 2

    def test_weight_growth_bound_exhaustive(self):
        # every sigma is a XOR of at most three shifted copies
        for fn in (small_sigma0, small_sigma1, big_sigma0, big_sigma1):
            for b in range(32):
                assert fn(1 << b).bit_count() <= 3

    def test_rotation_sigmas_preserve_weight_exactly(self):
        for fn in (big_sigma0, big_sigma1):
            for b in range(32):
                assert fn(1 << b).bit_count() == 3

    @given(word, word)
    @settings(max_examples=60, deadline=None)
    def test_gf2_linearity(self, x, y):
        for fn in (small_sigma0, small_sigma1, big_sigma0, big_sigma1):
            assert fn(x ^ y) == fn(x) ^ fn(y)

    @given(word, st.integers(min_value=0, max_value=31))
    @settings(max_examples=60, deadline=None)
    def test_rotation_roundtrip(self, x, r):
        assert rotl(rotr(x, r), r) == x


class TestMsbPlane:
    @given(word)
    @settings(max_examples=60, deadline=None)
    def test_msb_addition_is_carry_free(self, x):
        assert (x + 0x80000000) & M32 == x ^ 0x80000000


class TestCompression:
    def test_abc_digest_matches_reference(self):
        block = pad_single_block(b"abc")
        state = compress(FIPS_IV, block, make_variant("standard"))
        assert digest_hex(state) == ref_sha256(b"abc")

    def test_empty_digest_matches_reference(self):
        block = pad_single_block(b"")
        state = compress(FIPS_IV, block, make_variant("standard"))
        assert digest_hex(state) == ref_sha256(b"")

    def test_random_blocks_match_reference(self, rng):
        cfg = make_variant("standard")
        for _ in range(100):
            data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 56)))
            state = compress(FIPS_IV, pad_single_block(data), cfg)
            assert digest_hex(state) == ref_sha256(data)

    def test_zero_steps_doubles_iv(self):
        cfg = make_variant("standard").replace(steps=0)
        state = compress(FIPS_IV, [0] * 16, cfg)
        assert state == RegisterState(*((2 * x) & M32 for x in FIPS_IV))

    def test_reduced_steps_differ_from_full(self):
        block = pad_single_block(b"abc")
        full = compress(FIPS_IV, block, make_variant("standard"))
        short = compress(FIPS_IV, block, make_variant("standard").replace(steps=40))
        assert full != short

    @pytest.mark.parametrize("preset, steps", [
        pytest.param(preset, steps, id=preset if steps == 64 else f"{preset}-{steps}")
        for preset in ("add_linear", "no_sbox", "standard", "xor_expansion")
        for steps in (0, 1, 17, 64)])
    def test_batched_compress_matches_scalar(self, preset, steps):
        # (16, n) uint32 message arrays run through the same compress as one
        # block; every column's digest equals the scalar digest of that block.
        # Zero steps hands the lifted IV straight to the feed-forward.
        cfg = make_variant(preset).replace(steps=steps)
        blocks = np.random.default_rng(7).integers(0, 1 << 32, (16, 64), dtype=np.uint32)
        batched = compress(FIPS_IV, blocks, cfg)
        assert all(np.asarray(x).dtype == np.uint32 for x in batched)
        for j in range(blocks.shape[1]):
            scalar = compress(FIPS_IV, [int(x) for x in blocks[:, j]], cfg)
            assert tuple(int(x[j]) for x in batched) == scalar


class TestExpansion:
    def test_rejects_length_beyond_bound(self):
        with pytest.raises(ValueError):
            expand([0] * 16, ExpansionKind.SHA256_XOR, MAX_STEPS + 1)
        assert len(expand([0] * 16, ExpansionKind.SHA256_XOR, MAX_STEPS)) == MAX_STEPS

    def test_rejects_short_target(self):
        with pytest.raises(ValueError):
            expand([0] * 16, ExpansionKind.SHA256_XOR, 15)

    def test_prefix_stability(self, rng):
        m = [rng.getrandbits(32) for _ in range(16)]
        for kind in ExpansionKind:
            assert expand(m, kind, 64)[:40] == expand(m, kind, 40)

    def test_add_expansion_matches_inline_recurrence(self, rng):
        m = [rng.getrandbits(32) for _ in range(16)]
        w = list(m)
        for i in range(16, 64):
            w.append((small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16]) & M32)
        assert expand(m, ExpansionKind.SHA256_ADD, 64) == w

    def test_sha1_xor_matches_inline_recurrence(self, rng):
        m = [rng.getrandbits(32) for _ in range(16)]
        w = list(m)
        for i in range(16, 80):
            w.append(rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        assert expand(m, ExpansionKind.SHA1_XOR, 80) == w

    @given(st.lists(word, min_size=16, max_size=16), st.lists(word, min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_xor_expansion_is_gf2_linear(self, m1, m2):
        mx = [a ^ b for a, b in zip(m1, m2)]
        e1 = expand(m1, ExpansionKind.SHA256_XOR, 48)
        e2 = expand(m2, ExpansionKind.SHA256_XOR, 48)
        ex = expand(mx, ExpansionKind.SHA256_XOR, 48)
        assert ex == [a ^ b for a, b in zip(e1, e2)]

    @pytest.mark.parametrize("kind", list(ExpansionKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [16, 17, 40, 64, MAX_STEPS])
    def test_uint32_batch_matches_ints(self, rng, kind, n):
        blocks = [[rng.getrandbits(32) for _ in range(16)] for _ in range(63)] + [[M32] * 16]
        batch = expand(np.array(blocks, dtype=np.uint32).T, kind, n)
        assert len(batch) == n
        assert all(w.dtype == np.uint32 and w.shape == (64,) for w in batch)
        for i, block in enumerate(blocks):
            assert [int(w[i]) for w in batch] == expand(block, kind, n)

    def test_short_block_rejected_on_both_paths(self):
        for block in ([0] * 15, np.zeros((15, 4), dtype=np.uint32)):
            with pytest.raises(ValueError, match="exactly 16 words, got 15"):
                expand(block, ExpansionKind.SHA256_XOR, 40)


class TestStepMap:
    def test_add_linear_step_difference_is_state_independent(self, rng):
        # affine step: the output difference depends only on the input difference
        cfg = make_variant("add_linear")
        diff_state = tuple(rng.getrandbits(32) for _ in range(8))
        dw = rng.getrandbits(32)
        seen = set()
        for _ in range(5):
            s = RegisterState(*(rng.getrandbits(32) for _ in range(8)))
            s2 = RegisterState(*((x + d) & M32 for x, d in zip(s, diff_state)))
            w = rng.getrandbits(32)
            out = step(s, w, 0x12345678, cfg)
            out2 = step(s2, (w + dw) & M32, 0x12345678, cfg)
            seen.add(tuple((b - a) & M32 for a, b in zip(out, out2)))
        assert len(seen) == 1

    @pytest.mark.parametrize("name", ["standard", "add_linear", "no_sbox", "xor_expansion"])
    def test_uint32_batch_matches_ints(self, rng, name):
        cfg = make_variant(name)
        for _ in range(4):
            regs = [[rng.getrandbits(32) for _ in range(63)] + [M32] for _ in range(8)]
            ws = [rng.getrandbits(32) for _ in range(63)] + [M32]
            k = rng.getrandbits(32)
            batch = step(RegisterState(*(np.array(r, dtype=np.uint32) for r in regs)),
                         np.array(ws, dtype=np.uint32), k, cfg)
            assert all(x.dtype == np.uint32 for x in batch)
            for i, w in enumerate(ws):
                single = step(RegisterState(*(r[i] for r in regs)), w, k, cfg)
                assert all(0 <= x <= M32 for x in single)
                assert tuple(int(x[i]) for x in batch) == single

    def test_add_linear_step_equals_add3_reference(self, rng):
        # the None Maj and Ch that _functions gives the modular-add variant
        # make _update sum the three registers itself, as add3 does
        cfg = make_variant("add_linear")
        assert _functions(cfg) == (None, None, None, None)
        states = [RegisterState(*(M32,) * 8)]
        states += [RegisterState(*(rng.getrandbits(32) for _ in range(8))) for _ in range(50)]
        for s in states:
            w, k = rng.getrandbits(32), rng.getrandbits(32)
            assert step(s, w, k, cfg) == _update(s, w, k, (None, None, add3, add3))

    def test_as_block_validates_length(self):
        with pytest.raises(ValueError):
            as_block([0] * 15)

    def test_seq_weight_sums_words(self):
        assert seq_weight([1, 3, 0x80000000]) == 4


def test_padding_layout():
    padded = pad_single_block(b"abc")
    raw = struct.pack(">16I", *padded)
    assert raw[:3] == b"abc" and raw[3] == 0x80 and raw[-8:] == (24).to_bytes(8, "big")
