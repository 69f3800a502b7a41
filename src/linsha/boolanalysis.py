"""Probability accounting for the variant that keeps Maj/Ch but no S-boxes.

With S-boxes removed, an MSB-only difference propagates through the modular
additions carry-free, so the only probabilistic elements left are the two
Boolean functions.  This module enumerates their per-bit differential
behaviour, derives the per-step activity/cost table for the canonical MSB
disturbance pattern, validates a single local collision by Monte Carlo, and
implements the first-16-step message modification.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Callable, Sequence

import numpy as np

from .primitives import FIPS_IV, K, M32, RegisterState, as_block, step
from .disturbance import CORRECTION_COEFFS, build_characteristic
from .ringalg import build_E
from .variants import VariantConfig, make_variant

MSB = 0x80000000

# correction coefficients at offsets 1..8 for MSB disturbances: the Boolean
# functions themselves now supply the terms that the richer linear schedule
# cancelled explicitly, leaving corrections only at offsets 3, 4 and 8
MSB_CORRECTION_COEFFS: tuple[int, ...] = (0, 0, 1, 1, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# per-bit differential behaviour of Ch and Maj


@dataclass(frozen=True)
class BooleanDiffEntry:
    func: str                       # "ch" or "maj"
    input_diff: tuple[int, int, int]
    probability: Fraction
    condition: str | None           # GF(2) equation for the output diff to fire
    mask: tuple[int, int, int]      # affine form: diff = mask.(x,y,z) ^ offset
    offset: int


def _bit_ch(x: int, y: int, z: int) -> int:
    return (x & y) | ((1 ^ x) & z)


def _bit_maj(x: int, y: int, z: int) -> int:
    return (x & y) | (x & z) | (y & z)


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
    for name, func in (("ch", _bit_ch), ("maj", _bit_maj)):
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


def _prob_one_patterns() -> set[tuple[str, tuple[int, int, int]]]:
    return {(e.func, e.input_diff) for e in boolean_diff_table() if e.probability == 1}


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
    probe = [0] * 24
    probe[8] = 1
    rows = build_characteristic(probe, CORRECTION_COEFFS).register_diffs
    out = {}
    for k in range(1, 9):
        out[k] = tuple(r for r in range(8) if rows[8 + k][r] & 1)
    return out


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


@dataclass(frozen=True)
class ActivityRow:
    step: int
    maj_pattern: tuple[int, int, int]
    ch_pattern: tuple[int, int, int]
    cost_e: int


def derive_activity(dstar: Sequence[int]) -> list[ActivityRow]:
    """Per-step Maj/Ch input-difference patterns and condition cost.

    dstar must be MSB-only.  Superposition is XOR because every difference
    lives at bit 31; a function costs one condition when its pattern is active
    unless enumeration shows the output difference fires with probability 1.
    """
    words = list(dstar)
    if any(w not in (0, MSB) for w in words):
        raise ValueError("activity derivation expects an MSB-only disturbance")
    free = _prob_one_patterns()
    rows = []
    for s in range(len(words)):
        flags = _designed_flags(words, s)
        maj_pat = (flags[0], flags[1], flags[2])
        ch_pat = (flags[4], flags[5], flags[6])
        cost = 0
        if maj_pat != (0, 0, 0) and ("maj", maj_pat) not in free:
            cost += 1
        if ch_pat != (0, 0, 0) and ("ch", ch_pat) not in free:
            cost += 1
        rows.append(ActivityRow(s, maj_pat, ch_pat, cost))
    return rows


def activity_csv(rows: Sequence[ActivityRow]) -> str:
    buf = io.StringIO()
    buf.write("step,maj,ch,e\n")
    for r in rows:
        maj = "".join(map(str, r.maj_pattern))
        ch = "".join(map(str, r.ch_pattern))
        buf.write(f"{r.step},{maj},{ch},{r.cost_e}\n")
    return buf.getvalue()


def isolated_condition_count(i: int = 20, horizon: int = 64) -> int:
    """Condition count of one isolated corrected MSB disturbance at step i."""
    if not 0 <= i <= horizon - 9:
        raise ValueError("disturbance must fit 9 steps before the horizon")
    words = [0] * horizon
    words[i] = MSB
    return sum(r.cost_e for r in derive_activity(words))


# ---------------------------------------------------------------------------
# Monte Carlo over a single local collision


@dataclass(frozen=True)
class McResult:
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


def _mc_chunk(rng: np.random.Generator, nt: int, i: int, corrections: np.ndarray) -> int:
    config = make_variant("no_sbox")
    state = state2 = RegisterState(*(rng.integers(0, 1 << 32, nt, dtype=np.uint32)
                                     for _ in range(8)))
    for t in range(9):
        w = rng.integers(0, 1 << 32, nt, dtype=np.uint32)
        state = step(state, w, K[(i + t) % 64], config)
        state2 = step(state2, w ^ corrections[t], K[(i + t) % 64], config)
    same = np.logical_and.reduce([x == x2 for x, x2 in zip(state, state2)])
    return int(same.sum())


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
    summation, so results are deterministic for a fixed (seed, workers).
    """
    if not 0 <= i <= 55:
        raise ValueError("start step must lie in 0..55")
    if trials < 1:
        raise ValueError("at least one trial required")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if disturbance not in (0, MSB):
        raise ValueError("disturbance must be 0 or the MSB")
    schedule = np.zeros(9, dtype=np.uint32)
    if disturbance:
        for offset, coeff in [(0, 1)] + list(enumerate(MSB_CORRECTION_COEFFS, start=1)):
            if coeff:
                schedule[offset] ^= np.uint32(MSB)
    base = trials // workers
    extra = trials % workers
    successes = 0
    batch = 1 << 18
    for widx in range(workers):
        chunk = base + (1 if widx < extra else 0)
        rng = np.random.default_rng([seed, widx])
        done = 0
        while done < chunk:
            nt = min(batch, chunk - done)
            successes += _mc_chunk(rng, nt, i, schedule)
            done += nt
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


def _conditions_by_step(dstar: Sequence[int], upto: int) -> dict[int, list[BooleanDiffEntry]]:
    free = _prob_one_patterns()
    activity = derive_activity(dstar)
    lookup = {(e.func, e.input_diff): e for e in boolean_diff_table()}
    out: dict[int, list[BooleanDiffEntry]] = {}
    for row in activity[:upto]:
        entries = []
        if row.maj_pattern != (0, 0, 0) and ("maj", row.maj_pattern) not in free:
            entries.append(lookup[("maj", row.maj_pattern)])
        if row.ch_pattern != (0, 0, 0) and ("ch", row.ch_pattern) not in free:
            entries.append(lookup[("ch", row.ch_pattern)])
        if entries:
            out[row.step] = entries
    return out


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
    conditions: dict[int, list[BooleanDiffEntry]], s: int, state: RegisterState
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
        if s == 0:
            e = entries[0]
            raise FirstStepsError(0, e.func, e.input_diff, e.condition or "none")
        before = run_to(s - 1)
        original = words[s - 1]
        fixed = False
        candidates = [(original + (j << 26)) & M32 for j in range(1, 64)]
        candidates += [rng.getrandbits(32) for _ in range(256)]
        for cand in candidates:
            trial = step(before, cand, K[s - 1], config)
            if _conditions_hold(trial, entries):
                words[s - 1] = cand
                fixed = True
                break
        if not fixed:
            words[s - 1] = original
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
