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
the Monte Carlo steps the first run alone and carries that pattern.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import forks
from .primitives import FIPS_IV, K, M32, RegisterState, as_block, ch, maj, step
from .disturbance import build_characteristic, single_disturbance_table
from .ringalg import build_E
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
    expanded = build_E().vec(scaled)
    bad = [(i, w) for i, w in enumerate(expanded) if w not in (0, MSB)]
    if bad:
        raise ValueError(f"expanded difference leaves the MSB plane at {bad[:4]}")
    indicator = "".join("1" if w else "0" for w in expanded)
    return expanded, indicator


@lru_cache(maxsize=1)
def _offset_registers() -> dict[int, tuple[int, ...]]:
    """Registers carrying an odd multiple of the disturbance at each offset.

    Derived from the exact linear propagation of one corrected disturbance:
    the registers whose difference is an odd multiple are the ones that still
    see the difference in the MSB plane (even multiples of 2^31 vanish).
    """
    rows = single_disturbance_table()
    return {k: tuple(r for r in range(8) if rows[k][r] & 1) for k in range(1, 9)}


def _designed_flags(dstar: Sequence[int], s: int) -> list[int]:
    """Per register a..h, 1 when its designed difference entering step s is
    the MSB and 0 when it is zero."""
    regs_at = _offset_registers()
    flags = [0] * 8
    for k in range(1, 9):
        j = s - k
        if 0 <= j < len(dstar) and dstar[j]:
            for r in regs_at[k]:
                flags[r] ^= 1
    return flags


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

    dstar must be MSB-only.  Superposition is XOR because every difference
    lives at bit 31; a function costs one condition when its pattern is active
    unless enumeration shows the output difference fires with probability 1.
    """
    words = list(dstar)
    if any(w not in (0, MSB) for w in words):
        raise ValueError("activity derivation expects an MSB-only disturbance")
    # the table holds only active patterns; those that fire surely cost nothing
    costly = {(e.func, e.input_diff): e for e in boolean_diff_table() if e.probability != 1}
    rows = []
    for s in range(len(words)):
        flags = _designed_flags(words, s)
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
    seed: int
    workers: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def log2_rate(self) -> float:
        return math.log2(self.rate) if self.successes else float("-inf")


_MC_BATCH = 1 << 18          # trials per chunk: one call of _mc_chunk
_MC_SLICE = 1 << 15          # trials drawn and stepped together, so their arrays stay in cache


def _mc_chunk(rng: np.random.Generator, nt: int, i: int, corrections: np.ndarray) -> int:
    """Successes among nt trials of the disturbance schedule corrections,
    injected at steps i..i+8; each entry is 0 or the MSB.

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

    Draws, in this order: 8 registers, then 9 message words, nt uniform words
    each; these 17 sub-blocks fill ceil(17 nt / 2) PCG64 outputs, read as
    little-endian 32-bit halves.  They equal 17 calls of
    Generator.integers(0, 1 << 32, nt, dtype=np.uint32), which over the full
    range take the low half of each 64-bit output and then the high half, as
    long as no half is left over from an earlier draw.  None is: every chunk
    but a stream's last has _MC_BATCH trials, an even number, and the spare
    half of an odd last chunk is never read.  A slice draws only its own
    words of each sub-block, jumping to them with PCG64's O(log n) advance;
    for odd nt a sub-block may start at a high half.  The ninth word is never
    read, and the generator is left at the end of the chunk's outputs.
    """
    import numpy as np

    config = make_variant("no_sbox")
    bitgen = rng.bit_generator
    pos = 0             # 64-bit outputs consumed since the chunk's start

    def draw(first: int, n: int) -> np.ndarray:
        """The chunk's 32-bit words first..first+n-1."""
        nonlocal pos
        half = first % 2
        bitgen.advance(first // 2 - pos)        # a negative jump wraps, as PCG64 allows
        raw = bitgen.random_raw((half + n + 1) // 2)
        pos = first // 2 + len(raw)
        return raw.astype("<u8", copy=False).view("<u4")[half:half + n]

    # bit-31 planes of the first run: rows 0..2 hold c, b, a at the start and
    # row t+3 holds a after step t, so step t reads a, b, c from rows t+2..t;
    # e, f, g likewise
    nb = (nt + 7) // 8
    ap, ep = np.empty((11, nb), np.uint8), np.empty((11, nb), np.uint8)
    for lo in range(0, nt, _MC_SLICE):
        ns = min(_MC_SLICE, nt - lo)
        cols = slice(lo // 8, (lo + ns + 7) // 8)
        state = RegisterState(*(draw(k * nt + lo, ns) for k in range(8)))
        ap[:3, cols] = np.packbits(np.stack(state[2::-1]) >= MSB, axis=1)
        ep[:3, cols] = np.packbits(np.stack(state[6:3:-1]) >= MSB, axis=1)
        for t in range(8):
            state = step(state, draw((8 + t) * nt + lo, ns), K[(i + t) % 64], config)
            ap[t + 3, cols] = np.packbits(state.a >= MSB)
            ep[t + 3, cols] = np.packbits(state.e >= MSB)
    bitgen.advance((17 * nt + 1) // 2 - pos)
    dws = [0xFF if c else 0 for c in corrections]      # dw for eight trials at once
    da = db = dc = dd = de = df = dg = dh = np.zeros(nb, np.uint8)
    for t in range(9):
        a, b, c, e, f, g = ap[t + 2], ap[t + 1], ap[t], ep[t + 2], ep[t + 1], ep[t]
        dt1 = dh ^ de ^ (ch(e ^ de, f ^ df, g ^ dg) ^ ch(e, f, g)) ^ dws[t]
        dt2 = da ^ (maj(a ^ da, b ^ db, c ^ dc) ^ maj(a, b, c))
        da, db, dc, dd, de, df, dg, dh = dt1 ^ dt2, da, db, dc, dd ^ dt1, de, df, dg
    differs = da | db | dc | dd | de | df | dg | dh
    # dw flips the padding bits of the last byte too, so count only the trials
    return nt - int(np.count_nonzero(np.unpackbits(differs, count=nt)))


def _mc_streams(i: int, corrections: np.ndarray, seed: int,
                streams: Sequence[tuple[int, int]]) -> int:
    """Summed successes of the trial streams (worker index, trials)."""
    import numpy as np

    successes = 0
    for widx, chunk in streams:
        rng = np.random.default_rng([seed, widx])
        for done in range(0, chunk, _MC_BATCH):
            successes += _mc_chunk(rng, min(_MC_BATCH, chunk - done), i, corrections)
    return successes


def monte_carlo_local_collision(
    i: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    disturbance: int = MSB,
) -> McResult:
    """Empirical cancellation rate of one corrected MSB disturbance at step i.

    Draws uniform register states and message words, injects the disturbance
    plus its offset-{3,4,8} corrections into the paired run, and counts trials
    whose register difference is fully cancelled after step i+9.  Workers own
    generators seeded from (seed, worker index); their counts merge by
    summation, so results are deterministic for a fixed (seed, workers).  The
    streams are split into up to forks.usable_cpus() contiguous blocks: the caller
    runs the last block and a forked child each other one; with one block
    nothing is forked.
    """
    if not 0 <= i <= 55:
        raise ValueError("start step must lie in 0..55")
    if trials < 1:
        raise ValueError("at least one trial required")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if disturbance not in (0, MSB):
        raise ValueError("disturbance must be 0 or the MSB")
    # numpy is imported by the functions that use it: table2 and table3 also
    # load this module, and they never run numpy code
    import numpy as np

    schedule = np.zeros(9, dtype=np.uint32)
    if disturbance:
        for offset, coeff in [(0, 1)] + list(enumerate(MSB_CORRECTION_COEFFS, start=1)):
            if coeff:
                schedule[offset] ^= np.uint32(MSB)
    base, extra = divmod(trials, workers)
    # streams without trials draw nothing and contribute nothing
    streams = [(widx, base + (widx < extra)) for widx in range(min(workers, trials))]
    procs = min(len(streams), forks.usable_cpus())
    blocks = [streams[p * len(streams) // procs:(p + 1) * len(streams) // procs]
              for p in range(procs)]
    successes = sum(forks.forked(lambda block: _mc_streams(i, schedule, seed, block), blocks))
    return McResult(successes, trials, seed, workers)


# ---------------------------------------------------------------------------
# first-16-step message modification


class FirstStepsError(RuntimeError):
    """A step's condition cannot be met by adjusting that step's message word.

    contradicts names, as (step, func, condition), the earlier conditions that
    together with this one have no common solution over bit 31 of a and e; it
    is empty when the condition is consistent with them but constrains
    registers fixed in earlier steps.
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


def _conditions_by_step(
    dstar: Sequence[int], upto: int
) -> dict[int, tuple[BooleanDiffEntry, ...]]:
    return {row.step: row.conditions for row in derive_activity(dstar)[:upto] if row.conditions}


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


def _contradiction(
    earlier: Sequence[tuple[int, BooleanDiffEntry]], s: int, entry: BooleanDiffEntry
) -> list[tuple[int, BooleanDiffEntry]] | None:
    """Earlier conditions that with entry at step s are inconsistent, or None.

    Gaussian elimination over GF(2) that tracks which conditions each pivot
    row combines; entry is inconsistent when it reduces to 0 = 1.
    """
    rows = [*earlier, (s, entry)]
    pivots: dict[int, tuple[int, int, int]] = {}     # leading bit -> (mask, rhs, sources)
    for i, (t, e) in enumerate(rows):
        mask, rhs = _bit31_equation(t, e)
        sources = 1 << i
        while mask and mask.bit_length() - 1 in pivots:
            pm, pr, ps = pivots[mask.bit_length() - 1]
            mask, rhs, sources = mask ^ pm, rhs ^ pr, sources ^ ps
        if mask:
            pivots[mask.bit_length() - 1] = (mask, rhs, sources)
    # the loop ends on entry's row, fully reduced
    if mask or not rhs:
        return None
    return [rows[j] for j in range(len(earlier)) if sources >> j & 1]


def _unreachable(
    conditions: dict[int, tuple[BooleanDiffEntry, ...]], s: int, state: RegisterState
) -> FirstStepsError:
    """The error for step s, whose conditions no choice of word s-1 met.

    Prefers a condition that contradicts earlier ones; otherwise names a
    violated one that leaves out a (Maj) or e (Ch) entering step s, the only
    registers word s-1 sets.
    """
    entries = conditions[s]
    earlier = [(t, e) for t in sorted(conditions) if t < s for e in conditions[t]]
    for entry in entries:
        clash = _contradiction(earlier, s, entry)
        if clash is not None:
            return FirstStepsError(s, entry.func, entry.input_diff, entry.condition or "none",
                                   [(t, e.func, e.condition or "none") for t, e in clash])
    culprit = next((e for e in entries if not e.mask[0] and not _conditions_hold(state, (e,))),
                   entries[0])
    return FirstStepsError(s, culprit.func, culprit.input_diff, culprit.condition or "none")


def satisfy_first16(
    m: Sequence[int], dstar: Sequence[int], seed: int = 0
) -> tuple[int, ...]:
    """Adjust message words so every step-0..15 firing condition holds.

    The conditions are single-bit affine constraints at bit 31 of the register
    state entering each step; the state entering step s is shaped by message
    word s-1, which is the only knob this pass turns.  Greedy and in step
    order: a violated condition triggers a deterministic candidate sweep over
    adjustments of that word.  A condition the sweep cannot meet is reported
    as a hard failure, naming the earlier conditions it contradicts when
    GF(2) elimination over bit 31 of a and e finds them.
    """
    config = make_variant("no_sbox")
    words = list(as_block(m))
    conditions = _conditions_by_step(dstar, 16)
    rng = Random(seed)

    def run_to(n: int) -> RegisterState:
        state = FIPS_IV
        for t in range(n):
            state = step(state, words[t], K[t], config)
        return state

    for s in range(16):
        entries = conditions.get(s)
        if not entries:
            continue
        state = run_to(s)
        if _conditions_hold(state, entries):
            continue
        # step 0 has no conditions: nothing is disturbed before it
        before = run_to(s - 1)
        candidates = [(words[s - 1] + (j << 26)) & M32 for j in range(1, 64)]
        candidates += [rng.getrandbits(32) for _ in range(256)]
        for cand in candidates:
            trial = step(before, cand, K[s - 1], config)
            if _conditions_hold(trial, entries):
                words[s - 1] = cand
                break
        else:
            raise _unreachable(conditions, s, state)
    return tuple(words)


def check_first16(m: Sequence[int], dstar: Sequence[int]) -> tuple[bool, int | None]:
    """Does the pair (m, m + characteristic) follow the designed difference
    schedule through steps 0..15?  Returns (ok, first failing step)."""
    config = make_variant("no_sbox")
    char = build_characteristic(list(dstar), MSB_CORRECTION_COEFFS)
    words = list(as_block(m))
    words2 = [(w + d) & M32 for w, d in zip(words, char.expanded_diff[:16])]
    state, state2 = FIPS_IV, FIPS_IV
    for s in range(16):
        state = step(state, words[s], K[s], config)
        state2 = step(state2, words2[s], K[s], config)
        actual = [(x2 - x) & M32 for x, x2 in zip(state, state2)]
        if actual != [MSB * f for f in _designed_flags(dstar, s + 1)]:
            return False, s
    return True, None
