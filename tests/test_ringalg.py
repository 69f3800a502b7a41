"""Linear algebra over Z_2^32: state matrices, kernels, inverses."""

import itertools
import random
from fractions import Fraction

import pytest

from linsha.primitives import ExpansionKind, M32, expand
from linsha.ringalg import (
    WordMatrix,
    backward_words,
    boundary_residuals,
    boundary_system,
    element_order,
    enumerate_module,
    kernel_mod_2e,
    solve_disturbance_kernel,
)
from conftest import KERNEL_GENERATOR, STRICT_GENERATOR
from reference_impl import (
    block_advance,
    build_A,
    build_E,
    condition_residuals,
    condition_system,
    identity_matrix,
    invert,
    kernel_by_full_transform,
    matrix_pow,
    mul,
)


# kernel_mod_2e's raw output on each condition system, before
# canonicalisation, as recorded while its pivot search scanned the whole block
SMITH_GENERATORS = {
    False: [(0xB0000000, 0xE0000000, 0x40000000, 0xE0000000, 0xA0000000, 0x60000000,
             0xC0000000, 0xC0000000, 0x80000000, 0xF0000000, 0xB0000000, 0x20000000,
             0x70000000, 0xC0000000, 0xD0000000, 0x10000000)],
    True: [STRICT_GENERATOR],
}


def expansion(m, n=64):
    return expand(m, ExpansionKind.SHA256_ADD_ID_SIGMA, n)


class TestCompanionMatrix:
    def test_one_step_shift_on_expansion_windows(self, rng):
        a = build_A()
        m = [rng.getrandbits(32) for _ in range(16)]
        w = expansion(m, 40)
        for i in range(20):
            assert list(a.vec(w[i:i + 16])) == w[i + 1:i + 17]

    def test_sixteen_step_block(self, rng):
        b = block_advance()
        assert b.rows == matrix_pow(build_A(), 16).rows
        m = [rng.getrandbits(32) for _ in range(16)]
        w = expansion(m, 48)
        assert list(b.vec(w[0:16])) == w[16:32]
        assert list(b.vec(w[16:32])) == w[32:48]

    def test_expansion_operator_stacks_four_blocks(self, rng):
        e = build_E()
        assert len(e.rows) == 64
        for _ in range(100):
            m = [rng.getrandbits(32) for _ in range(16)]
            assert list(e.vec(m)) == expansion(m)

    def test_identity_block_passes_message_through(self, rng):
        e = build_E()
        m = [rng.getrandbits(32) for _ in range(16)]
        assert list(e.vec(m))[:16] == m

    def test_expansion_operator_equals_block_powers(self):
        # E from the recurrence against [I; B; B^2; B^3] from the matrix power
        b = matrix_pow(build_A(), 16)
        blocks = [identity_matrix(16), b, mul(b, b), mul(mul(b, b), b)]
        assert build_E().rows == tuple(row for block in blocks for row in block.rows)


class TestInversion:
    def test_roundtrip(self, rng):
        b = block_advance()
        binv = invert(b)
        v = [rng.getrandbits(32) for _ in range(16)]
        assert list(binv.vec(b.vec(v))) == v
        assert list(b.vec(binv.vec(v))) == v

    def test_backward_words_equal_inverse_block(self, rng):
        # the recurrence run backwards against Gauss-Jordan inversion of B
        binv = invert(matrix_pow(build_A(), 16))
        for _ in range(50):
            v = [rng.getrandbits(32) for _ in range(16)]
            assert backward_words(v) == binv.vec(v)
        with pytest.raises(ValueError):
            backward_words([0] * 15)

    def test_inverse_of_identity(self):
        i = identity_matrix(16)
        assert invert(i).rows == i.rows

    def test_singular_matrix_rejected(self):
        two_i = WordMatrix(tuple(tuple(2 if r == c else 0 for c in range(4)) for r in range(4)))
        with pytest.raises(ValueError):
            invert(two_i)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_A().vec([0] * 15)


class TestKernel:
    def test_single_generator_matches_frozen_vector(self):
        gens = solve_disturbance_kernel()
        assert len(gens) == 1
        assert tuple(gens[0]) == KERNEL_GENERATOR

    def test_components_live_in_top_four_bits(self):
        (delta,) = solve_disturbance_kernel()
        assert all(x % (1 << 28) == 0 for x in delta)

    def test_sixteen_distinct_patterns(self):
        gens = solve_disturbance_kernel()
        assert element_order(gens[0]) == 16
        assert len(enumerate_module(gens)) == 16

    def test_all_multiples_satisfy_conditions(self):
        (delta,) = solve_disturbance_kernel()
        for a in range(16):
            v = [(a * x) & M32 for x in delta]
            for block in condition_residuals(v):
                assert all(x == 0 for x in block)

    @pytest.mark.parametrize("strict", [False, True])
    def test_boundary_residuals_equal_the_condition_system(self, strict):
        # the conditions read off the recurrence against the 16x16 system
        # built from E and B^-1, word for word, on both generators and on
        # seeded random differences
        rnd = random.Random(2014 + strict)
        vectors = [KERNEL_GENERATOR, STRICT_GENERATOR]
        vectors += [tuple(rnd.getrandbits(32) for _ in range(16)) for _ in range(200)]
        for v in vectors:
            assert boundary_residuals(v, strict) == condition_residuals(v, strict), v
        assert not any(map(any, boundary_residuals(solve_disturbance_kernel(strict)[0], strict)))

    def test_kernel_is_solved_once_and_immutable(self):
        for strict in (False, True):
            gens = solve_disturbance_kernel(strict)
            assert isinstance(gens, tuple)
            assert solve_disturbance_kernel(strict) is gens

    def test_strict_kernel_has_order_two(self):
        gens = solve_disturbance_kernel(strict=True)
        assert len(gens) == 1
        assert tuple(gens[0]) == STRICT_GENERATOR
        assert element_order(gens[0]) == 2

    @pytest.mark.parametrize("seed", range(48))
    def test_kernel_mod_2e_spans_every_solution(self, seed):
        # small systems mod 2^4 against all 16^n vectors, twelve seeds per
        # shape; the masks make some systems all-even so that the elimination
        # meets even pivots
        rnd = random.Random(seed)
        exponent, mod = 4, 16
        nrows, ncols = ((3, 4), (2, 4), (4, 3), (4, 4))[seed // 12]
        mask = (15, 14, 12)[seed % 3]
        system = [[rnd.randrange(mod) & mask for _ in range(ncols)] for _ in range(nrows)]
        solutions = {x for x in itertools.product(range(mod), repeat=ncols)
                     if all(sum(a * b for a, b in zip(row, x)) % mod == 0 for row in system)}
        gens = kernel_mod_2e(system, exponent)
        span, frontier = {(0,) * ncols}, [(0,) * ncols]
        while frontier:
            sums = {tuple((a + b) % mod for a, b in zip(e, g)) for e in frontier for g in gens}
            frontier = list(sums - span)
            span |= sums
        assert span == solutions

    def test_kernel_mod_2e_equals_full_transform(self):
        # the recorded stages and back-substituted generator columns against
        # the elimination that applies every stage to all of C: the same raw
        # generators, or the same error, on seeded systems whose entries mix
        # zeros, small powers of two, odd and full-width words (so zero rows,
        # zero columns and rank-deficient systems all occur), on both
        # condition systems and on the inputs either rejects
        def outcome(solve, system, exponent):
            try:
                return solve(system, exponent)
            except (ValueError, AssertionError) as exc:
                return type(exc), str(exc)

        rnd = random.Random(2014)
        entries = (lambda e: 0, lambda e: 1 << rnd.randrange(min(e, 5)),
                   lambda e: rnd.getrandbits(e) | 1, lambda e: rnd.getrandbits(32))
        cases = [(cs.rows, 32) for cs in (condition_system(False), condition_system(True))]
        cases += [([], 32), ([[]], 32), ([[1, 2], [3]], 32), ([[1, 2]], 0), ([[1, 2]], -1)]
        for _ in range(400):
            exponent, nrows, ncols = rnd.randint(1, 32), rnd.randint(1, 8), rnd.randint(1, 8)
            cases.append(([[rnd.choice(entries)(exponent) for _ in range(ncols)]
                           for _ in range(nrows)], exponent))
        for system, exponent in cases:
            assert (outcome(kernel_mod_2e, system, exponent)
                    == outcome(kernel_by_full_transform, system, exponent)), (system, exponent)

    @pytest.mark.parametrize("system, exponent", [
        ([], 32),
        ([[]], 32),
        ([[1, 2], [3]], 32),
        ([[1, 2]], 0),
        ([[1, 2]], -1),
    ])
    def test_kernel_mod_2e_rejects_bad_input(self, system, exponent):
        with pytest.raises(ValueError):
            kernel_mod_2e(system, exponent)

    @pytest.mark.parametrize("strict, det, order", [
        (False, -(2 ** 4) * 18555710805, 16),
        (True, 2 * 19424846149, 2),
    ])
    def test_kernel_order_is_two_to_the_valuation_of_the_determinant(self, strict, det, order):
        # over Z_2^32 the kernel of a square system has order 2^v2(det S) when
        # v2(det S) < 32: the determinant of the signed system, by exact
        # elimination over the rationals, is the same on the 16x16 condition
        # system and on the 8x8 boundary system that the kernel is solved on
        def determinant(rows):
            a = [[Fraction(x - (1 << 32) if x >> 31 else x) for x in row] for row in rows]
            n, d = len(a), Fraction(1)
            for c in range(n):
                p = next(r for r in range(c, n) if a[r][c])
                if p != c:
                    a[c], a[p] = a[p], a[c]
                    d = -d
                d *= a[c][c]
                for r in range(c + 1, n):
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
            return d

        assert determinant(condition_system(strict).rows) == det
        assert determinant(boundary_system(strict)[0].rows) == det
        v2 = (det & -det).bit_length() - 1
        assert len(enumerate_module(solve_disturbance_kernel(strict))) == 2 ** v2 == order
        assert kernel_mod_2e(condition_system(strict).rows) == SMITH_GENERATORS[strict]

    @pytest.mark.parametrize("strict", [False, True])
    def test_boundary_solve_equals_condition_system_kernel(self, strict):
        # the module solved on the eight free boundary words and lifted is
        # the kernel of the 16x16 reference system, element for element
        system, lift = boundary_system(strict)
        assert (len(system.rows), system.ncols, len(lift.rows), lift.ncols) == (8, 8, 16, 8)
        assert (enumerate_module(solve_disturbance_kernel(strict))
                == enumerate_module(kernel_mod_2e(condition_system(strict).rows)))

    @pytest.mark.parametrize("strict", [False, True])
    def test_lift_zeroes_the_boundary_words(self, strict, rng):
        # any free words lift to a difference whose backward extension
        # vanishes on the fixed boundary slice, and the system gives its
        # expanded words 56..63
        system, lift = boundary_system(strict)
        for _ in range(20):
            x = [rng.getrandbits(32) for _ in range(8)]
            delta = lift.vec(x)
            back = backward_words(delta)
            assert not any(back[8:] if strict else back[:8])
            assert system.vec(x) == tuple(expansion(delta)[56:64])

    def test_backward_words_distinguish_kernels(self):
        # the last eight backward-extension words decide collision-production:
        # they vanish for the strict generator, not for the relaxed one
        assert not any(backward_words(STRICT_GENERATOR)[8:])
        assert any(backward_words(KERNEL_GENERATOR)[8:])
