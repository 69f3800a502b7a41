"""Acceptance gate: one test per numbered criterion, strict tolerances.

c04 and c07 check what the mathematics allows, and each derives its target
from the code's own definitions rather than from a hard-coded figure:

* c04 demands collisions from every nonzero element of the module that
  produces them.  A correction at offset 8 has the unit coefficient -1, so a
  characteristic is a valid expansion only if backward words -8..-1 vanish,
  which is the strict system.  Its integer determinant is 38849692298 =
  2 * 19424846149, so its kernel mod 2^32 has order exactly 2.  The relaxed
  system's determinant is -2^4 * 18555710805 (order 16), but backward words
  -8..-1 of its generator are nonzero and none of its multiples collides.
* c07 demands the local-collision Monte Carlo match the exact probability of
  the implemented schedule.  The nine per-condition firing conditions of the
  designed path cannot all hold (the Ch condition two steps after the
  disturbance sets bit 31 of e to 1, those at offsets 4 and 5 force it to 0),
  so 2^-9 is not a probability of anything; four other paths cancel, and an
  exact enumeration over bit 31 gives 7/1024 = 2^-7.19.

One criterion is expected to fail and is left failing on purpose:

* c08 demands first-16-step message modification always succeed, but the
  step-5 Ch condition y^z=0 contradicts the step-2 Ch condition x=1 and the
  step-4 Ch condition x^y^z=0 over bit 31 of e, exactly as in c07, so no
  message meets all of them; satisfy_first16 raises FirstStepsError naming
  the contradiction.

The remaining nine criteria pass with large margins.
"""

import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction

from linsha.boolanalysis import (
    MSB_CORRECTION_COEFFS,
    check_first16,
    derive_activity,
    monte_carlo_local_collision,
    msb_disturbance,
    satisfy_first16,
)
from linsha.codewords import (
    SearchParams,
    build_generator,
    extend_codeword,
    fig2_sweep,
    load_codeword_file,
    low_weight_search,
    resolve_word_order,
    single_bit_census,
    verify_codeword,
)
from linsha.disturbance import (
    CollisionError,
    find_collision_add_linear,
    propagate,
    random_block,
    superpose,
)
from linsha.primitives import (
    FIPS_IV,
    M32,
    ExpansionKind,
    big_sigma0,
    big_sigma1,
    ch,
    compress,
    digest_hex,
    expand,
    maj,
    pad_single_block,
    seq_weight,
    small_sigma0,
    small_sigma1,
)
from linsha.ringalg import element_order, enumerate_module, solve_disturbance_kernel
from linsha.variants import make_variant

from conftest import DATA
from reference_impl import condition_residuals, rotate_words_left
from test_disturbance import OFFSET_MULTIPLIERS


def test_c01_reference_digests():
    """Standard-variant digests equal an independent reference, 100 random blocks."""
    t0 = time.monotonic()
    cfg = make_variant("standard")
    assert digest_hex(compress(FIPS_IV, pad_single_block(b"abc"), cfg)) == hashlib.sha256(b"abc").hexdigest()
    rng = random.Random(1)
    for _ in range(100):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 56)))
        ours = digest_hex(compress(FIPS_IV, pad_single_block(data), cfg))
        assert ours == hashlib.sha256(data).hexdigest()
    assert time.monotonic() - t0 < 1.0


def test_c02_correction_multiplier_table():
    """All ten rows of the single-disturbance register table, ten instantiations."""
    t0 = time.monotonic()
    rng = random.Random(2)
    for _ in range(10):
        value = rng.getrandbits(32)
        probe = [0] * 24
        probe[8] = value
        rows = propagate(superpose(probe))
        for off, multipliers in OFFSET_MULTIPLIERS.items():
            expected = tuple((multipliers.get(reg, 0) * value) & M32 for reg in "abcdefgh")
            assert rows[8 + off] == expected
    assert time.monotonic() - t0 < 1.0


def test_c03_kernel_structure():
    """Rank-1 kernel, top-4-bit components, 16 patterns, conditions exactly zero."""
    t0 = time.monotonic()
    gens = solve_disturbance_kernel()
    assert len(gens) == 1
    delta = gens[0]
    assert all(x % (1 << 28) == 0 for x in delta)
    assert element_order(delta) == 16
    assert len(enumerate_module(gens)) == 16
    for block in condition_residuals(delta):
        assert all(x == 0 for x in block)
    assert time.monotonic() - t0 < 5.0


def test_c04_add_linear_collisions():
    """Every nonzero element of the strict kernel collides on 100 random messages.

    The strict kernel is cyclic: its generator's order equals the module's
    size, so multiples 1..order-1 run through each nonzero element once.
    """
    t0 = time.monotonic()
    gens = solve_disturbance_kernel(strict=True)
    order = element_order(gens[0])
    assert len(enumerate_module(gens)) == order
    rng = random.Random(4)
    succeeded = 0
    attempted = 0
    for _ in range(100):
        m = random_block(rng)
        for multiple in range(1, order):
            attempted += 1
            try:
                res = find_collision_add_linear(m, multiple, strict=True)
                if (compress(FIPS_IV, res.message_prime, make_variant("add_linear")) == res.digest
                        and res.message != res.message_prime):
                    succeeded += 1
            except CollisionError:
                pass
    assert succeeded == attempted == 100 * (order - 1)
    assert time.monotonic() - t0 < 10.0


def test_c05_boolean_difference_table():
    """All 14 rows match exhaustive enumeration; exactly two certain rows."""
    from fractions import Fraction

    from linsha.boolanalysis import boolean_diff_table

    fns = {"maj": maj, "ch": ch}
    table = boolean_diff_table()
    assert len(table) == 14
    for entry in table:
        flips = 0
        dx, dy, dz = entry.input_diff
        for x in (0, 1):
            for y in (0, 1):
                for z in (0, 1):
                    fn = fns[entry.func]
                    flips += (fn(x, y, z) ^ fn(x ^ dx, y ^ dy, z ^ dz)) & 1
        assert entry.probability == Fraction(flips, 8)
    certain = {(e.func, e.input_diff) for e in table if e.probability == 1}
    assert certain == {("ch", (0, 1, 1)), ("maj", (1, 1, 1))}


def test_c06_probability_accounting():
    """Activity cost sums 84 overall and 20 in the first 16 steps; weight 27."""
    t0 = time.monotonic()
    (delta,) = solve_disturbance_kernel()
    dstar, indicator = msb_disturbance(delta)
    assert indicator.count("1") == 27
    rows = derive_activity(dstar)
    assert sum(r.cost_e for r in rows) == 84
    assert sum(r.cost_e for r in rows if r.step < 16) == 20
    assert time.monotonic() - t0 < 1.0


def _exact_local_collision_probability() -> Fraction:
    """Exact cancellation probability of one corrected MSB disturbance.

    Every difference sits at bit 31, where additions do not carry, so the
    pair's differences after a step depend only on the bit-31 values of the
    eight registers and on the injected word difference:
    t1 = h + e + Ch(e, f, g) + k + w and t2 = a + Maj(a, b, c), with identity
    S-boxes.  The fresh bit 31 of the new a = t1 + t2 and of the new e = d + t1
    also takes the carries of the lower bits, and is assumed uniform and
    independent at every step.  The enumeration therefore covers 2^8
    register states times 2^18 fresh a/e bits over the nine steps; states
    that coincide are merged with their multiplicities.
    """
    def ch_bit(x, y, z):
        return (x & y) ^ ((1 ^ x) & z)

    def maj_bit(x, y, z):
        return (x & y) ^ (x & z) ^ (y & z)

    injected = {0} | {k for k, c in enumerate(MSB_CORRECTION_COEFFS, start=1) if c}
    # (bit 31 of a..h, bit-31 differences of a..h) -> multiplicity
    counts = Counter({(tuple((s >> r) & 1 for r in range(8)), (0,) * 8): 1 for s in range(256)})
    for t in range(9):
        nxt = Counter()
        for (bits, diffs), n in counts.items():
            a, b, c, d, e, f, g, h = bits
            da, db, dc, dd, de, df, dg, dh = diffs
            dt1 = dh ^ de ^ ch_bit(e, f, g) ^ ch_bit(e ^ de, f ^ df, g ^ dg) ^ (t in injected)
            dt2 = da ^ maj_bit(a, b, c) ^ maj_bit(a ^ da, b ^ db, c ^ dc)
            new_diffs = (dt1 ^ dt2, da, db, dc, dd ^ dt1, de, df, dg)
            for fresh_a in (0, 1):
                for fresh_e in (0, 1):
                    nxt[(fresh_a, a, b, c, fresh_e, e, f, g), new_diffs] += n
        counts = nxt
    cancelled = sum(n for (_, diffs), n in counts.items() if not any(diffs))
    return Fraction(cancelled, sum(counts.values()))


def test_c07_local_collision_monte_carlo():
    """Measured rate within four standard errors of the exact 7/1024."""
    t0 = time.monotonic()
    p_exact = _exact_local_collision_probability()
    assert p_exact == Fraction(7, 1024)
    trials = 1 << 20
    mc = monte_carlo_local_collision(20, trials, seed=0)
    p_model = float(p_exact)
    stderr = math.sqrt(p_model * (1 - p_model) / trials)
    deviation = abs(mc.rate - p_model)
    assert deviation <= 4 * stderr, (
        f"measured {mc.successes}/{trials} = 2^{mc.log2_rate:.3f}, exact {p_exact} = "
        f"2^{math.log2(p_model):.3f}; deviation {deviation:.3e} exceeds 4*SE = {4 * stderr:.3e}"
    )
    assert time.monotonic() - t0 < 60.0


def test_c08_first16_message_modification():
    """satisfy_first16 then perfect step-0..15 correction over 10^4 trials."""
    (delta,) = solve_disturbance_kernel()
    dstar, _ = msb_disturbance(delta)
    rng = random.Random(8)
    good = 0
    trials = 10_000
    for _ in range(trials):
        m = [rng.getrandbits(32) for _ in range(16)]
        fixed = satisfy_first16(m, dstar)
        ok, _ = check_first16(fixed, dstar)
        good += ok
    assert good == trials


def test_c09_census_cells():
    """All 16 single-bit census cells, exact."""
    t0 = time.monotonic()
    expected = {
        (ExpansionKind.SHA1_XOR, 40): (18, 30),
        (ExpansionKind.SHA1_XOR, 80): (107, 174),
        (ExpansionKind.SHA1_ADD, 40): (18, 41),
        (ExpansionKind.SHA1_ADD, 80): (247, 354),
        (ExpansionKind.SHA256_XOR, 40): (110, 297),
        (ExpansionKind.SHA256_XOR, 64): (467, 694),
        (ExpansionKind.SHA256_ADD, 40): (137, 307),
        (ExpansionKind.SHA256_ADD, 64): (507, 709),
    }
    for (kind, steps), cell in expected.items():
        assert single_bit_census(kind, steps) == cell, f"{kind.value} @ {steps}"
    assert time.monotonic() - t0 < 30.0


def test_c10_printed_word_authenticates():
    """The shipped 40-step word resolves, verifies, and weighs 26."""
    raw = load_codeword_file(str(DATA / "table5.hex"))
    words, order, valid, w = resolve_word_order(raw)
    assert valid and w == 26
    revalid, reweight = verify_codeword(words, ExpansionKind.SHA256_XOR)
    assert revalid and reweight == 26 and len(words) == 40


def test_c11_search_effectiveness():
    """Weight <= 32 at 40 steps and <= 40 at 42; extension clearly beats 467."""
    t0 = time.monotonic()
    g40 = build_generator(ExpansionKind.SHA256_XOR, 40)
    res40 = low_weight_search(g40, SearchParams(iterations=60000, seed=0))
    assert res40.weight <= 32

    g42 = build_generator(ExpansionKind.SHA256_XOR, 42)
    res42 = low_weight_search(
        g42, SearchParams(iterations=30000, seed=0, bootstrap_lengths=(40,))
    )
    assert res42.weight <= 40

    extended = extend_codeword(res42.words, 64)
    assert seq_weight(extended) < 467

    rows = fig2_sweep(range(16, 25), SearchParams(iterations=150, seed=0),
                      search_horizon=22)
    weights = [r.weight for r in rows]
    assert weights == sorted(weights)
    for r in rows:
        valid, w = verify_codeword(r.words, ExpansionKind.SHA256_XOR)
        assert valid and w == r.weight and len(r.words) == r.steps
    assert time.monotonic() - t0 < 600.0


def test_c12_property_bundle():
    """Linearity, weight growth, carry freeness, rotation non-closure."""
    rng = random.Random(12)
    # GF(2) linearity of every sigma
    for _ in range(200):
        x, y = rng.getrandbits(32), rng.getrandbits(32)
        for fn in (small_sigma0, small_sigma1, big_sigma0, big_sigma1):
            assert fn(x ^ y) == fn(x) ^ fn(y)
    # GF(2) linearity of the XOR expansion
    for _ in range(20):
        m1 = [rng.getrandbits(32) for _ in range(16)]
        m2 = [rng.getrandbits(32) for _ in range(16)]
        mx = [a ^ b for a, b in zip(m1, m2)]
        e1 = expand(m1, ExpansionKind.SHA256_XOR, 64)
        e2 = expand(m2, ExpansionKind.SHA256_XOR, 64)
        assert expand(mx, ExpansionKind.SHA256_XOR, 64) == [a ^ b for a, b in zip(e1, e2)]
    # weight growth of single-bit inputs bounded by the term count
    for b in range(32):
        for fn in (small_sigma0, small_sigma1, big_sigma0, big_sigma1):
            assert fn(1 << b).bit_count() <= 3
    # MSB additions never carry
    for _ in range(200):
        x = rng.getrandbits(32)
        assert (x + 0x80000000) & M32 == x ^ 0x80000000
    # rotating a valid expansion word word-wise breaks validity
    raw = load_codeword_file(str(DATA / "table5.hex"))
    words, _, valid, _ = resolve_word_order(raw)
    assert valid
    rotated_valid, _ = verify_codeword(rotate_words_left(words, 1), ExpansionKind.SHA256_XOR)
    assert not rotated_valid
