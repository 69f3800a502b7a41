"""Probability accounting for the variant that keeps Maj/Ch but no S-boxes.

With S-boxes removed, an MSB-only difference propagates through the modular
additions carry-free, so the only probabilistic elements left are the two
Boolean functions.  This module enumerates their per-bit differential
behaviour, derives the per-step activity/cost table for the canonical MSB
disturbance pattern, validates a single local collision by Monte Carlo, and
implements the first-16-step message modification.

Bit 31 is also why the Monte Carlo is cheap: adding the MSB is XORing it,
Σ0/Σ1 are identities and Maj/Ch act bitwise, so a difference injected at
bit 31 never leaves bit 31 (Chabaud and Joux, CRYPTO 1998).  The paired run
of every trial is the first run XOR an 8-bit pattern, one bit per register;
the Monte Carlo steps the first run alone and carries that pattern.  It
steps that run in place on its drawn uint32 words, without `step`: no mask
is needed where the arithmetic wraps modulo 2^32 by itself.

In that plane the firing conditions of steps 0..15, which message
modification removes (Wang, Yin and Yu, CRYPTO 2005), are affine GF(2)
equations in bit 31 of a and e, so one elimination either finds them
contradictory or leaves each message word to be solved for in closed form.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .primitives import (FIPS_IV, K, M32, ExpansionKind, RegisterState, as_block, ch, expand, maj,
                         step)
from .disturbance import propagate, superpose
from .variants import make_variant

if TYPE_CHECKING:
    import numpy as np

MSB = 0x80000000

# correction coefficients at offsets 1..8 for MSB disturbances: the Boolean
# functions themselves now supply the terms that the richer linear schedule
# cancelled explicitly, leaving corrections only at offsets 3, 4 and 8
MSB_CORRECTION_COEFFS: tuple[int, ...] = (0, 0, 1, 1, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# per-bit differential behaviour of Ch and Maj


class BooleanDiffEntry(NamedTuple):
    func: str                       # "ch" or "maj"
    input_diff: tuple[int, int, int]
    probability: Fraction
    condition: str | None           # GF(2) equation for the output diff to fire
    mask: tuple[int, int, int]      # affine form: diff = mask.(x,y,z) ^ offset
    offset: int


def _affine_fit(func: Callable[[int, int, int], int], d: tuple[int, int, int]):
    """Output difference of a per-bit function as an affine GF(2) form.

    Fits diff(x,y,z) = a.x ^ b.y ^ c.z ^ off from four probes and verifies on
    all eight inputs; both Ch and Maj happen to be affine in this sense for
    every input difference, which the verification re-proves on each call.
    """
    def diff(x, y, z):
        return func(x ^ d[0], y ^ d[1], z ^ d[2]) ^ func(x, y, z)

    off = diff(0, 0, 0)
    a = diff(1, 0, 0) ^ off
    b = diff(0, 1, 0) ^ off
    c = diff(0, 0, 1) ^ off
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                if diff(x, y, z) != (a & x) ^ (b & y) ^ (c & z) ^ off:
                    raise AssertionError("output difference not affine")
    fires = sum(diff(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))
    return (a, b, c), off, Fraction(fires, 8)


def _condition_string(mask: tuple[int, int, int], offset: int) -> str | None:
    if mask == (0, 0, 0):
        return None
    terms = [name for name, bit in zip("xyz", mask) if bit]
    return "^".join(terms) + f"={1 ^ offset}"


@lru_cache(maxsize=1)
def boolean_diff_table() -> tuple[BooleanDiffEntry, ...]:
    """All 14 nonzero input differences for Ch and Maj, by enumeration."""
    entries = []
    for name, func in (("ch", ch), ("maj", maj)):
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    d = (dx, dy, dz)
                    if d == (0, 0, 0):
                        continue
                    mask, off, prob = _affine_fit(func, d)
                    entries.append(
                        BooleanDiffEntry(name, d, prob, _condition_string(mask, off), mask, off)
                    )
    return tuple(entries)


# ---------------------------------------------------------------------------
# MSB disturbance pattern and activity table


def msb_disturbance(delta: Sequence[int]) -> tuple[tuple[int, ...], str]:
    """Expand 8*delta and return (64 words, MSB indicator string).

    Multiplying a kernel generator whose components are multiples of 2^28 by 8
    leaves only bit 31 alive, so the whole expanded difference must sit in the
    carry-free MSB plane; any other nonzero word voids the analysis and is
    raised as a hard error.
    """
    scaled = [(8 * x) & M32 for x in as_block(delta)]
    expanded = tuple(expand(scaled, ExpansionKind.SHA256_ADD_ID_SIGMA, 64))
    bad = [(i, w) for i, w in enumerate(expanded) if w not in (0, MSB)]
    if bad:
        raise ValueError(f"expanded difference leaves the MSB plane at {bad[:4]}")
    indicator = "".join("1" if w else "0" for w in expanded)
    return expanded, indicator


def _designed_diffs(dstar: Sequence[int]) -> tuple[RegisterState, ...]:
    """Designed register differences entering each step of an MSB-only dstar.

    Row s of the add-linear register table of superpose(dstar) is the designed difference entering
    step s.  It sums odd and even multiples of the MSB; the even ones vanish,
    so every entry is exactly 0 or the MSB.
    """
    words = list(dstar)
    if any(w not in (0, MSB) for w in words):
        raise ValueError("activity derivation expects an MSB-only disturbance")
    return propagate(superpose(words))


class ActivityRow(NamedTuple):
    step: int
    maj_pattern: tuple[int, int, int]
    ch_pattern: tuple[int, int, int]
    conditions: tuple[BooleanDiffEntry, ...]   # what the step costs: Maj's, then Ch's

    @property
    def cost_e(self) -> int:
        return len(self.conditions)


def derive_activity(dstar: Sequence[int]) -> list[ActivityRow]:
    """Per-step Maj/Ch input-difference patterns and condition cost.

    dstar must be MSB-only.  The patterns are the designed differences of
    a, b, c (Maj) and e, f, g (Ch) entering each step; a function costs one
    condition when its pattern is active unless enumeration shows the output
    difference fires with probability 1.
    """
    # the table holds only active patterns; those that fire surely cost nothing
    costly = {(e.func, e.input_diff): e for e in boolean_diff_table() if e.probability != 1}
    rows = []
    for s, diffs in enumerate(_designed_diffs(dstar)[:-1]):
        flags = [d >> 31 for d in diffs]
        maj_pat = (flags[0], flags[1], flags[2])
        ch_pat = (flags[4], flags[5], flags[6])
        conditions = tuple(costly[key] for key in (("maj", maj_pat), ("ch", ch_pat))
                           if key in costly)
        rows.append(ActivityRow(s, maj_pat, ch_pat, conditions))
    return rows


def activity_csv(rows: Sequence[ActivityRow]) -> str:
    buf = io.StringIO()
    buf.write("step,maj,ch,e\n")
    for r in rows:
        maj = "".join(map(str, r.maj_pattern))
        ch = "".join(map(str, r.ch_pattern))
        buf.write(f"{r.step},{maj},{ch},{r.cost_e}\n")
    return buf.getvalue()


def isolated_condition_count(i: int = 20) -> int:
    """Condition count of one isolated corrected MSB disturbance at step i."""
    if not 0 <= i <= 55:
        raise ValueError("disturbance must fit 9 steps before step 64")
    words = [0] * 64
    words[i] = MSB
    return sum(r.cost_e for r in derive_activity(words))


# ---------------------------------------------------------------------------
# Monte Carlo over a single local collision


class McResult(NamedTuple):
    successes: int
    trials: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def log2_rate(self) -> float:
        return math.log2(self.rate) if self.successes else float("-inf")


_MC_BATCH = 1 << 18          # trials per chunk: one call of _mc_chunk
_MC_SLICE = 1 << 14          # trials drawn and stepped together, so their words stay in L2
# the message difference at steps i..i+8: the disturbance and its corrections,
# as bit 31 of eight trials at once (0xFF where the MSB is injected)
_MC_DW = bytes(0xFF * c for c in (1, *MSB_CORRECTION_COEFFS))


def _mc_chunk(i: int, seed: int, widx: int, first: int, nt: int) -> int:
    """Successes among trials first..first+nt-1 of stream widx, under the
    disturbance schedule _MC_DW injected at steps i..i+8.

    Without S-boxes the paired run is always the first run XOR a bit-31
    pattern: an MSB difference crosses every addition carry-free, Σ0/Σ1 are
    identities and Maj/Ch act bitwise.  So only the first run is stepped, and
    the pair's difference is carried as eight bit-31 planes (a..h), packed
    eight trials per byte.  Each step sets
        dt1 = dh ^ de ^ (Ch(e^de, f^df, g^dg) ^ Ch(e, f, g)) ^ dw
        dt2 = da ^ (Maj(a^da, b^db, c^dc) ^ Maj(a, b, c))
    with a..g the first run's bit-31 planes entering the step; da becomes
    dt1 ^ dt2, de becomes dd ^ dt1, and the other registers shift.  A trial
    succeeds when all eight planes are 0.  Each _MC_SLICE slice is stepped
    through its eight steps, recording the bit-31 planes of a and e after
    each; the plane recursion then runs once over the whole chunk.

    A slice steps in place on its own drawn words: t1 accumulates in h's
    words and the new e in d's, K is added to the drawn message word, and
    Maj is b ^ ((a ^ b) & (b ^ c)), whose a ^ b is the next step's b ^ c;
    the registers then shift by renaming.  Nothing is masked, because
    uint32 arithmetic wraps modulo 2^32 by itself.  Bit 31 of a and e goes
    into one 22-row bool block, packed once per slice.  A slice is
    2^14 trials so that its sixteen drawn sub-blocks (1 MB) stay in one
    core's 2 MB L2 cache while it is stepped.

    Stream widx is the bit generator np.random.PCG64([seed, widx]), which
    default_rng([seed, widx]) wraps.  Its chunks before this one hold
    _MC_BATCH trials each, an even number, so this chunk starts 17 first / 2
    outputs in.  Its draws, in this order: 8 registers, then 9 message words,
    nt uniform words each; these 17 sub-blocks fill ceil(17 nt / 2) outputs,
    read as little-endian 32-bit halves, and equal 17 calls of
    Generator.integers(0, 1 << 32, nt, dtype=np.uint32) from there, which
    over the full range take the low half of each output, then the high
    half.  A slice draws only its own words of each sub-block, jumping to
    them with PCG64's O(log n) advance; for odd nt a sub-block may start at a
    high half.  The ninth word is never read.
    """
    import numpy as np

    bitgen = np.random.PCG64([seed, widx])
    bitgen.advance(17 * first // 2)
    pos = 0             # 64-bit outputs consumed since the chunk's start

    def draw(word: int, n: int) -> np.ndarray:
        """The chunk's 32-bit words word..word+n-1."""
        nonlocal pos
        half = word % 2
        bitgen.advance(word // 2 - pos)         # a negative jump wraps, as PCG64 allows
        raw = bitgen.random_raw((half + n + 1) // 2)
        pos = word // 2 + len(raw)
        return raw.astype("<u8", copy=False).view("<u4")[half:half + n]

    # bit-31 rows of the first run: rows 0..2 hold c, b, a at the start and
    # row t+3 holds a after step t, so step t reads a, b, c from rows t+2..t;
    # rows 11..21 hold e, f, g likewise
    nb = (nt + 7) // 8
    planes = np.empty((22, nb), np.uint8)
    width = min(nt, _MC_SLICE)
    bits = np.empty((22, width), bool)
    scratch = np.empty((3, width), np.uint32)
    msb = np.uint32(MSB)
    for lo in range(0, nt, _MC_SLICE):
        ns = min(_MC_SLICE, nt - lo)
        rows = bits[:, :ns]
        tmp, ab, bc = scratch[:, :ns]
        a, b, c, d, e, f, g, h = (draw(k * nt + lo, ns) for k in range(8))
        for row, x in zip((0, 1, 2, 11, 12, 13), (c, b, a, g, f, e)):
            np.greater_equal(x, msb, out=rows[row])
        np.bitwise_xor(b, c, out=bc)
        for t in range(8):
            w = draw((8 + t) * nt + lo, ns)
            w += np.uint32(K[(i + t) % 64])
            h += e
            np.bitwise_xor(f, g, out=tmp)           # Ch(e, f, g) = g ^ (e & (f ^ g))
            tmp &= e
            tmp ^= g
            h += tmp
            h += w                                  # h holds t1
            d += h                                  # d holds the new e
            np.bitwise_xor(a, b, out=ab)            # Maj(a, b, c) = b ^ ((a ^ b) & (b ^ c))
            np.bitwise_and(ab, bc, out=tmp)
            tmp ^= b
            h += tmp
            h += a                                  # h holds the new a
            a, b, c, d, e, f, g, h = h, a, b, c, d, e, f, g
            ab, bc = bc, ab                         # this step's a ^ b is the next one's b ^ c
            np.greater_equal(a, msb, out=rows[t + 3])
            np.greater_equal(e, msb, out=rows[t + 14])
        planes[:, lo // 8:(lo + ns + 7) // 8] = np.packbits(rows, axis=1)
    da = db = dc = dd = de = df = dg = dh = np.zeros(nb, np.uint8)
    ap, ep = planes[:11], planes[11:]
    for t in range(9):
        a, b, c, e, f, g = ap[t + 2], ap[t + 1], ap[t], ep[t + 2], ep[t + 1], ep[t]
        dt1 = dh ^ de ^ (ch(e ^ de, f ^ df, g ^ dg) ^ ch(e, f, g)) ^ _MC_DW[t]
        dt2 = da ^ (maj(a ^ da, b ^ db, c ^ dc) ^ maj(a, b, c))
        da, db, dc, dd, de, df, dg, dh = dt1 ^ dt2, da, db, dc, dd ^ dt1, de, df, dg
    differs = da | db | dc | dd | de | df | dg | dh
    # dw flips the padding bits of the last byte too, so count only the trials
    return nt - int(np.count_nonzero(np.unpackbits(differs, count=nt)))


def monte_carlo_local_collision(
    i: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
) -> McResult:
    """Empirical cancellation rate of one corrected MSB disturbance at step i.

    Draws uniform register states and message words, injects the MSB at
    step i plus its offset-{3,4,8} corrections (the offsets where
    MSB_CORRECTION_COEFFS is 1) into the paired run, and counts trials
    whose register difference is fully cancelled after step i+9.  Each of
    `workers` streams has its own generator, seeded from (seed, worker
    index), and runs in chunks of _MC_BATCH trials; a chunk jumps to its own
    place in its stream, so the summed count depends only on (seed, workers).
    The list of every stream's chunks is split into up to forks.usable_cpus()
    contiguous blocks: the caller runs the last block and a forked child each
    other one, so on two CPUs even workers=1 forks once it has two chunks.
    """
    if not 0 <= i <= 55:
        raise ValueError("start step must lie in 0..55")
    if trials < 1:
        raise ValueError("at least one trial required")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # numpy is imported before the chunks fork, so that no child imports it
    # again; neither it nor forks at the top: table2 and table3 load this module
    import numpy  # noqa: F401
    from . import forks

    base, extra = divmod(trials, workers)
    # (stream, first trial, trials); streams without trials have no chunk
    chunks = [(widx, first, min(_MC_BATCH, n - first)) for widx in range(min(workers, trials))
              for n in [base + (widx < extra)] for first in range(0, n, _MC_BATCH)]
    procs = min(len(chunks), forks.usable_cpus())
    blocks = [chunks[p * len(chunks) // procs:(p + 1) * len(chunks) // procs]
              for p in range(procs)]
    successes = sum(forks.forked(
        lambda block: sum(_mc_chunk(i, seed, *chunk) for chunk in block), blocks))
    return McResult(successes, trials)


# ---------------------------------------------------------------------------
# first-16-step message modification


class FirstStepsError(RuntimeError):
    """A step's condition cannot be met by adjusting the message words.

    contradicts names, as (step, func, condition), the earlier conditions that
    together with this one have no common solution over bit 31 of a and e.  It
    is empty when they are consistent but registers fixed in earlier steps
    zero the low 31 bits of e - a, so bit 31 of e follows bit 31 of a
    whatever the word, and no value the word before may take frees them.
    """

    def __init__(
        self,
        step_index: int,
        func: str,
        pattern: tuple[int, int, int],
        condition: str,
        contradicts: Sequence[tuple[int, str, str]] = (),
    ):
        if contradicts:
            earlier = " and ".join(f"step {s} {f} {c!r}" for s, f, c in contradicts)
            reason = f"it contradicts {earlier} over bit 31 of a and e, so no message meets them all"
        else:
            reason = "it constrains registers fixed in earlier steps"
        super().__init__(
            f"step {step_index}: {func} condition {condition!r} for pattern {pattern} is not "
            f"satisfiable by message adjustment; {reason}"
        )
        self.step_index = step_index
        self.func = func
        self.pattern = pattern
        self.condition = condition
        self.contradicts = tuple(contradicts)


def _conditions_hold(state: RegisterState, entries: Sequence[BooleanDiffEntry]) -> bool:
    for entry in entries:
        regs = (state.a, state.b, state.c) if entry.func == "maj" else (state.e, state.f, state.g)
        bits = tuple((r >> 31) & 1 for r in regs)
        value = (entry.mask[0] & bits[0]) ^ (entry.mask[1] & bits[1]) ^ (entry.mask[2] & bits[2])
        if value ^ entry.offset != 1:      # output difference must fire
            return False
    return True


def _bit31_equation(s: int, entry: BooleanDiffEntry) -> tuple[int, int]:
    """A firing condition at step s as a GF(2) equation (variable mask, rhs).

    Variables 2(t-1) and 2(t-1)+1 are bit 31 of a and of e entering step
    t >= 1, both set by message word t-1 and treated as free.  b, c (f, g)
    entering step s are a (e) entering steps s-1, s-2; entering steps 0, -1
    and -2 those registers hold the IV, whose bits fold into the rhs.
    """
    reg = 0 if entry.func == "maj" else 1
    iv = FIPS_IV[4 * reg : 4 * reg + 3]            # (a, b, c) or (e, f, g)
    mask, rhs = 0, 1 ^ entry.offset
    for k, bit in enumerate(entry.mask):
        t = s - k
        if bit and t >= 1:
            mask ^= 1 << (2 * (t - 1) + reg)
        elif bit:
            rhs ^= iv[-t] >> 31
    return mask, rhs


def satisfy_first16(m: Sequence[int], dstar: Sequence[int]) -> tuple[int, ...]:
    """Adjust message words 0..14 so every step-0..15 firing condition holds.

    Exact, and draws nothing.  One GF(2) elimination in step order brings the
    equations to echelon form, each led by its latest variable, and raises the
    first that reduces to 0 = 1 with the earlier conditions it combines.  A
    forward pass then takes words 0..14 in order: a bit that leads an
    equation gets the value the equation gives it, any other keeps its value,
    and a word is replaced only when its two bits are not the wanted ones.

    The replacement is closed-form.  Word t adds w to both a = p and
    e = p + gap of the state step t gives with w = 0.  With a = 2^31 want_a + x,
    bit 31 of e is want_a ^ (gap >> 31) ^ [x + (gap mod 2^31) >= 2^31], so the
    wanted carry confines x to one interval; an x outside it moves in, keeping
    its value modulo the interval's size, and a free bit of e keeps the carry.
    The interval is empty only when gap mod 2^31 is 0 and a carry is wanted.
    Then word t - 1 moves within its own interval, which keeps its bits, to
    the next value that leaves gap mod 2^31 nonzero, and word t is taken
    again; the pass raises only at word 0, or when word t - 1's interval
    holds no other such value.
    """
    rows = derive_activity(dstar)[:16]
    conditions = [(r.step, e) for r in rows for e in r.conditions]
    pivots: dict[int, tuple[int, int, int]] = {}     # leading variable -> (mask, rhs, sources)
    for i, (s, entry) in enumerate(conditions):
        mask, rhs = _bit31_equation(s, entry)
        sources = 1 << i
        while mask and mask.bit_length() - 1 in pivots:
            pm, pr, ps = pivots[mask.bit_length() - 1]
            mask, rhs, sources = mask ^ pm, rhs ^ pr, sources ^ ps
        if mask:
            pivots[mask.bit_length() - 1] = (mask, rhs, sources)
        elif rhs:
            clash = [(t, e.func, e.condition) for j, (t, e) in enumerate(conditions[:i])
                     if sources >> j & 1]
            raise FirstStepsError(s, entry.func, entry.input_diff, entry.condition, clash)

    def wanted(var: int, keep: int) -> int:
        if var not in pivots:
            return keep
        mask, rhs, _ = pivots[var]
        return rhs ^ (mask & values).bit_count() & 1

    def free_gap(t: int, before: RegisterState, span: tuple[int, int]) -> int | None:
        """Another word t - 1, entering `before`, that keeps bit 31 of the a
        and e it makes and leaves the low 31 bits of e - a nonzero for word t,
        or None.  The bits stay while its x stays in its interval span =
        (lo, size), whose next values, cyclically, are tried in turn."""
        lo, size = span
        base_a = step(before, 0, K[t - 1], config).a
        a = (base_a + words[t - 1]) & M32
        x = a & (MSB - 1)
        for shift in range(1, size):
            w = ((a & MSB | lo + (x - lo + shift) % size) - base_a) & M32
            nxt = step(step(before, w, K[t - 1], config), 0, K[t], config)
            if (nxt.e - nxt.a) & (MSB - 1):
                return w
        return None

    config = make_variant("no_sbox")
    words = list(as_block(m))
    state, values = FIPS_IV, 0          # values: the variables set so far
    before, span = state, (0, 1)        # the state word t - 1 entered, and its interval of x
    t = 0
    while t < len(rows) - 1:
        base = step(state, 0, K[t], config)
        gap = (base.e - base.a) & M32
        low = gap & (MSB - 1)
        a = (base.a + words[t]) & M32
        x = a & (MSB - 1)
        carry = (x + low) >> 31
        values &= (1 << 2 * t) - 1          # a word taken again sets its variables again
        want_a = wanted(2 * t, a >> 31)
        values |= want_a << 2 * t
        want_e = wanted(2 * t + 1, want_a ^ gap >> 31 ^ carry)
        values |= want_e << 2 * t + 1
        need = want_a ^ want_e ^ gap >> 31         # the carry the wanted bits need
        lo, size = (MSB - low, low) if need else (0, MSB - low)
        if need != carry:
            if not size:
                # only the equation led by bit 31 of e can want a carry; word
                # t - 1 moves within its interval until e - a is free, then
                # word t is taken again
                if t and (prev := free_gap(t, before, span)) is not None:
                    words[t - 1] = prev
                    state = step(before, prev, K[t - 1], config)
                    continue
                s, entry = conditions[pivots[2 * t + 1][2].bit_length() - 1]
                raise FirstStepsError(s, entry.func, entry.input_diff, entry.condition)
            x = lo + x % size
        words[t] = ((want_a << 31 | x) - base.a) & M32
        before, span = state, (lo, size)
        state = step(state, words[t], K[t], config)
        if not _conditions_hold(state, rows[t + 1].conditions):
            raise AssertionError(f"step {t + 1}'s conditions fail on the modified message")
        t += 1
    return tuple(words)


def check_first16(m: Sequence[int], dstar: Sequence[int]) -> tuple[bool, int | None]:
    """Does the pair (m, m + characteristic) follow the designed difference
    schedule through steps 0..15?  Returns (ok, first failing step).

    dstar must be MSB-only, as for derive_activity, and hold at least 16 words."""
    if len(dstar) < 16:
        raise ValueError(f"dstar needs at least 16 words, got {len(dstar)}")
    designed = _designed_diffs(dstar)
    config = make_variant("no_sbox")
    words = list(as_block(m))
    words2 = [(w + d) & M32 for w, d in zip(words, superpose(dstar, MSB_CORRECTION_COEFFS)[:16])]
    state, state2 = FIPS_IV, FIPS_IV
    for s in range(16):
        state = step(state, words[s], K[s], config)
        state2 = step(state2, words2[s], K[s], config)
        if state2.sub(state) != designed[s + 1]:
            return False, s
    return True, None
