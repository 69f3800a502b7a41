"""Disturbance vectors, correction characteristics, and verified collisions."""

import pytest

from linsha import disturbance, ringalg
from linsha.disturbance import (
    CORRECTION_COEFFS,
    CollisionError,
    _kernel_words,
    build_characteristic,
    delay,
    expansion_mismatches,
    find_collision_add_linear,
    propagate,
    random_block,
    scaled_kernel,
)
from linsha.primitives import (
    ExpansionKind,
    FIPS_IV,
    M32,
    RegisterState,
    compress,
    expand,
    step,
)
from linsha.ringalg import build_E
from linsha.variants import make_variant
from conftest import KERNEL_GENERATOR

# register multipliers carried by one corrected disturbance of value 1,
# offsets 0..9 after the injection step (registers a..h; signed, mod 2^32)
OFFSET_MULTIPLIERS = {
    0: {},
    1: {"a": 1, "e": 1},
    2: {"b": 1, "e": -2, "f": 1},
    3: {"c": 1, "e": -1, "f": -2, "g": 1},
    4: {"d": 1, "e": -1, "f": -1, "g": -2, "h": 1},
    5: {"e": 1, "f": -1, "g": -1, "h": -2},
    6: {"f": 1, "g": -1, "h": -1},
    7: {"g": 1, "h": -1},
    8: {"h": 1},
    9: {},
}


class TestDelay:
    def test_basic_example(self):
        assert delay([1, 2, 3], 2, 4) == [0, 0, 1, 2]

    def test_zero_shift_truncates(self):
        assert delay([5, 6, 7], 0, 2) == [5, 6]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            delay([1], -1, 4)

    def test_delayed_expansion_obeys_recurrence_later(self, rng):
        # shifting a valid expansion by b breaks the recurrence only below 16+b
        m = [rng.getrandbits(32) for _ in range(16)]
        w = expand(m, ExpansionKind.SHA256_ADD_ID_SIGMA, 64)
        for b in range(1, 9):
            shifted = delay(w, b, 64)
            bad = expansion_mismatches(shifted)
            assert all(j < 16 + b for j in bad)


class TestCharacteristic:
    def test_correction_coefficients(self):
        assert CORRECTION_COEFFS == (-4, 2, 2, 4, 2, 1, 0, -1)

    def test_single_disturbance_footprint(self):
        probe = [0] * 24
        probe[8] = 1
        c = build_characteristic(probe).expanded_diff
        nonzero = {j for j, x in enumerate(c) if x}
        assert nonzero == {8, 9, 10, 11, 12, 13, 14, 16}  # offsets 0..6 and 8

    def test_characteristic_is_linear_in_the_disturbance(self, rng):
        d1 = [rng.getrandbits(32) for _ in range(20)]
        d2 = [rng.getrandbits(32) for _ in range(20)]
        ds = [(a + b) & M32 for a, b in zip(d1, d2)]
        c1 = build_characteristic(d1).expanded_diff
        c2 = build_characteristic(d2).expanded_diff
        cs = build_characteristic(ds).expanded_diff
        assert tuple((a + b) & M32 for a, b in zip(c1, c2)) == cs

    def test_register_multipliers_exact(self, rng):
        for _ in range(10):
            value = rng.getrandbits(32)
            probe = [0] * 24
            probe[8] = value
            rows = build_characteristic(probe).register_diffs
            for off, spec_row in OFFSET_MULTIPLIERS.items():
                expected = tuple(
                    (spec_row.get(reg, 0) * value) & M32 for reg in "abcdefgh"
                )
                assert rows[8 + off] == expected, f"offset {off}"

    def test_cancellation_after_nine_steps(self):
        probe = [0] * 24
        probe[8] = 0xDEADBEEF
        rows = build_characteristic(probe).register_diffs
        for r in rows[17:]:
            assert all(x == 0 for x in r)


class TestPropagate:
    def test_zero_difference_stays_zero(self):
        rows = propagate([0] * 64)
        assert len(rows) == 65
        assert all(all(x == 0 for x in r) for r in rows)

    def test_equals_iterated_step(self, rng):
        # the step with k=0 from the zero state, and the step map written out
        cfg = make_variant("add_linear")
        for _ in range(5):
            dw = [rng.getrandbits(32) for _ in range(64)]
            state, written = RegisterState(*[0] * 8), [(0,) * 8]
            stepped = [state]
            for d in dw:
                state = step(state, d, 0, cfg)
                stepped.append(state)
                a, b, c, d_, e, f, g, h = written[-1]
                t1, t2 = h + 2 * e + f + g + d, 2 * a + b + c
                written.append(((t1 + t2) & M32, a, b, c, (d_ + t1) & M32, e, f, g))
            assert propagate(dw) == tuple(stepped) == tuple(written)

    def test_matches_paired_compressions(self, rng):
        # closed-form differences equal those of two real runs
        cfg = make_variant("add_linear").replace(steps=16, feed_forward=False)
        m = [rng.getrandbits(32) for _ in range(16)]
        dw = [rng.getrandbits(32) for _ in range(16)]
        m2 = [(a + d) & M32 for a, d in zip(m, dw)]
        out = compress(FIPS_IV, m, cfg)
        out2 = compress(FIPS_IV, m2, cfg)
        rows = propagate(dw)
        assert tuple((b - a) & M32 for a, b in zip(out, out2)) == rows[16]


class TestDisturbanceVector:
    # a disturbance vector is the E-image of a 16-word message difference
    def test_from_message_difference_is_valid(self):
        words = build_E().vec(KERNEL_GENERATOR)
        assert len(words) == 64
        assert expansion_mismatches(words) == []

    def test_invalid_expansion_rejected(self):
        assert expansion_mismatches([1] * 64)


class TestCollisions:
    def test_strict_kernel_collides(self, rng):
        for _ in range(10):
            res = find_collision_add_linear(random_block(rng), 1, strict=True)
            assert res.digest == res.digest_prime
            assert res.message != res.message_prime

    def test_difference_is_first_sixteen_of_characteristic(self, rng):
        from linsha.ringalg import solve_disturbance_kernel

        delta = solve_disturbance_kernel(strict=True)[0]
        disturbance = build_E().vec(delta)
        c = build_characteristic(disturbance).expanded_diff
        res = find_collision_add_linear(random_block(rng), 1, strict=True)
        applied = tuple((b - a) & M32 for a, b in zip(res.message, res.message_prime))
        assert applied == tuple(c[:16])

    def test_cached_characteristic_keeps_every_diagnostic(self, rng):
        # each relaxed multiple against its characteristic built by hand: the
        # mismatch steps and digest difference a failure carries, or the
        # collision when the hand-built difference cancels
        self._check_cached_characteristic(random_block(rng), False, range(1, 16))

    def test_cached_strict_characteristic_keeps_every_diagnostic(self, rng):
        # the odd strict multiples; an even one scales the generator to zero
        self._check_cached_characteristic(random_block(rng), True, range(1, 16, 2))

    @staticmethod
    def _check_cached_characteristic(m, strict, multiples):
        cfg = make_variant("add_linear")
        for multiple in multiples:
            c = build_characteristic(build_E().vec(scaled_kernel(multiple, strict))).expanded_diff
            assert _kernel_words(multiple, strict) == c
            m2 = tuple((a + d) & M32 for a, d in zip(m, c[:16]))
            digest_delta = compress(FIPS_IV, m2, cfg).sub(compress(FIPS_IV, m, cfg))
            for _ in range(2):          # cached words answer alike
                if any(digest_delta):
                    with pytest.raises(CollisionError) as exc_info:
                        find_collision_add_linear(m, multiple, strict=strict)
                    assert exc_info.value.mismatch_steps == expansion_mismatches(c)
                    assert exc_info.value.digest_delta == digest_delta
                else:
                    res = find_collision_add_linear(m, multiple, strict=strict)
                    assert res.message_prime == m2

    def test_collision_needs_no_register_table(self, rng, monkeypatch):
        # collide applies cached words only: the register-difference table
        # that build_characteristic adds is never propagated on its path
        def refuse(*args):
            raise AssertionError("propagate called on the collision path")

        _kernel_words.cache_clear()
        monkeypatch.setattr(disturbance, "propagate", refuse)
        res = find_collision_add_linear(random_block(rng), 1)
        assert res.digest == res.digest_prime

    def test_collision_builds_no_expansion_matrix(self, rng, monkeypatch):
        # the kernel is solved on the eight free boundary words and its words
        # expanded directly: neither E, B^-1 nor the 16x16 condition system is
        # built on the collision path, and the collision is the one found
        # before the caches were cleared
        m = random_block(rng)
        expected = find_collision_add_linear(m, 1)

        def refuse(*args):
            raise AssertionError("the 16-word algebra was built on the collision path")

        for cached in (_kernel_words, ringalg.solve_disturbance_kernel, ringalg.build_E,
                       ringalg._block_inverse, ringalg.condition_system):
            cached.cache_clear()
        for name in ("build_E", "_block_inverse", "condition_system"):
            monkeypatch.setattr(ringalg, name, refuse)
        assert find_collision_add_linear(m, 1) == expected

    def test_relaxed_kernel_does_not_collide(self, rng):
        # its backward extension words are nonzero, so the 16-word difference
        # re-expands into a different schedule and cancellation breaks
        with pytest.raises(CollisionError) as exc_info:
            find_collision_add_linear(random_block(rng), 1, strict=False)
        assert exc_info.value.mismatch_steps
        assert any(x for x in exc_info.value.digest_delta)

    def test_multiple_out_of_range(self, rng):
        with pytest.raises(ValueError):
            find_collision_add_linear(random_block(rng), 16)

    def test_strict_kernel_is_the_default(self, rng):
        m = random_block(rng)
        assert find_collision_add_linear(m, 1) == find_collision_add_linear(m, 1, strict=True)

    @pytest.mark.parametrize("multiple, strict", [(0, True), (2, True), (14, True), (0, False)])
    def test_multiple_scaling_the_difference_to_zero_is_rejected(self, rng, multiple, strict):
        with pytest.raises(ValueError, match="to zero"):
            find_collision_add_linear(random_block(rng), multiple, strict=strict)

    def test_collision_report_serialises(self, capsys):
        import json
        import random

        from linsha.cli import main

        assert main(["collide", "--multiple", "3", "--count", "1", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]["sample"]
        res = find_collision_add_linear(random_block(random.Random(7)), 3)
        assert payload["variant"] == "add_linear"
        assert len(payload["message"]) == 16
        assert [int(w, 16) for w in payload["message"]] == list(res.message)
        assert [int(w, 16) for w in payload["message_prime"]] == list(res.message_prime)
        assert [int(w, 16) for w in payload["digest"]] == list(res.digest)
