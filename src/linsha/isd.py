"""Bit-packed information-set decoding chain for the expansion code.

The numpy half of codewords.low_weight_search: one chain of Canteaut-Chabaud,
Stern or Leon iterations over the generator's columns packed into uint64
words.  Each iteration pays for its own column swap (or, for Stern and Leon,
its own elimination); the information sets it leaves are copied into a batch
and weighed a batch at a time.  It lives apart from codewords so that only
the commands that search load numpy.
"""

from __future__ import annotations

import time
from random import Random
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .codewords import GeneratorMatrix, SearchParams

# The searches work on a word-major layout: a (W, 512) little-endian uint64
# array whose element [w, r] holds bits 64w..64w+63 of row r (bit c at bit
# c % 64 of word c // 64).  A column is then one contiguous row of words, a
# column swap is one masked XOR of the whole array, and row weights reduce
# along the outer axis.  A batch of B information sets is a (W, B, 512)
# array in the same order.  The generator's (512, N) little-endian uint32
# rows are read from their bytes and transposed once.

BATCH_BYTES = 800_000       # information sets weighed at once: 16 at 40 steps
PAIR_CHUNK = 1 << 13        # row pairs weighed at once, plus at most 511
ROW_BITS = 9                # bits of a row index: the generator has 512 rows


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, n) 0/1 uint8 -> (rows, ceil(n/64)) little-endian uint64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], 8 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack for a single packed row: its first n bits as uint8."""
    return np.unpackbits(packed.view(np.uint8), bitorder="little")[:n]


def _permuted(packed: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Word-major array whose bit p of row r is bit perm[p] of row r of
    `packed` (row-major uint64 rows, or the generator's uint32 ones)."""
    out = np.empty((-(-len(perm) // 64), len(packed)), dtype="<u8")
    for r in range(0, len(packed), 64):       # blocks keep the unpacked bits small
        bits = np.unpackbits(packed[r:r + 64].view(np.uint8), axis=1, bitorder="little")
        out[:, r:r + 64] = _pack(bits[:, perm]).T
    return out


def _systematic(
    gen: np.ndarray, perm: np.ndarray, k: int, n: int, rng: Random
) -> np.ndarray:
    """Redundancy part of the generator in systematic form on positions 0..k-1.

    Reduced Gaussian elimination of the columns taken in the order of perm
    (position -> original column); a pivotless column i is swapped with the
    random redundancy column rng.randrange(k, n) until one has a pivot, and
    perm records every swap.  Positions 0..k-1 then hold the identity, so
    only the word-major words of columns k.. are returned (k is a multiple
    of 64).
    """
    arr = _permuted(gen, perm)
    for i in range(k):
        wi, si = i >> 6, i & 63
        while True:
            col = (arr[wi] >> si) & 1
            piv = i + int(col[i:].argmax())
            if col[piv]:
                break
            swap = rng.randrange(k, n)
            perm[i], perm[swap] = perm[swap], perm[i]
            differ = col ^ ((arr[swap >> 6] >> (swap & 63)) & 1)
            arr[wi] ^= differ << si
            arr[swap >> 6] ^= differ << (swap & 63)
        if piv != i:
            arr[:, [i, piv]] = arr[:, [piv, i]]
            col[i], col[piv] = col[piv], col[i]
        col[i] = 0
        # row i is zero on the columns before i, so its earlier words stay
        arr[wi:] ^= arr[wi:, i, None] & -col
    return arr[k // 64:].copy()


def _weigh(sets: np.ndarray, window: int | None) -> list[tuple[int, tuple[int, ...]]]:
    """The first lightest candidate of each information set in a word-major
    (W, B, k) batch of redundancy parts, as (weight, rows).

    Row r is e_r on the information positions, so it weighs one more than
    its redundancy part and a pair of rows two more.  Candidates are the
    rows, then, unless window is None, the row pairs that agree on the first
    `window` redundancy bits (the Stern window); the least pair by (weight,
    later row, earlier row) replaces the lightest row only if strictly
    lighter.
    """
    n_words, nb, k = sets.shape
    weights = np.bitwise_count(sets).sum(axis=0, dtype=np.int32)
    first = weights.argmin(axis=1)
    least = weights[np.arange(nb), first] + 1
    best = [(w, (r,)) for w, r in zip(least.tolist(), first.tolist())]
    if window is None:
        return best
    masks = np.array([(1 << min(64, max(0, window - 64 * t))) - 1
                      for t in range(min(max(1, -(-window // 64)), n_words))], dtype="<u8")
    keys = sets[:len(masks)] & masks[:, None, None]
    # sort each set's rows by the first 64 - ROW_BITS window bits, with the
    # row index below them, so that a bucket's rows come in ascending order
    pos = np.arange(k)
    ranked = np.sort(keys[0] << ROW_BITS | pos.astype(np.uint64), axis=1)
    # the batch's columns are indexed s * k + r: set s, row r
    order = ((ranked & np.uint64(k - 1)).astype(np.intp) + k * np.arange(nb)[:, None]).ravel()
    ranked = ranked.ravel() >> ROW_BITS
    same = ranked[1:] == ranked[:-1]
    same[k - 1::k] = False
    # the sorted positions that extend a bucket, and how many places back
    # each one's bucket starts: it pairs with every position in between
    at = np.flatnonzero(same) + 1
    run = np.arange(len(at))
    depth = run + 1 - np.maximum.accumulate(np.where(np.diff(at, prepend=-1) != 1, run, 0))
    columns = sets.reshape(n_words, nb * k)
    keys = keys.reshape(len(masks), nb * k)
    code = np.full(nb, np.iinfo(np.int64).max)
    # the positions are taken in chunks of about PAIR_CHUNK pairs
    ends = np.cumsum(depth)
    firsts = np.searchsorted(ends, np.arange(0, depth.sum(), PAIR_CHUNK), side="right").tolist()
    for lo, hi in zip(firsts, [*firsts[1:], len(at)]):
        t = depth[lo:hi]
        later = np.repeat(at[lo:hi], t)
        back = np.arange(1, len(later) + 1) - np.repeat(np.cumsum(t) - t, t)
        early, late = order[later - back], order[later]
        if window > 64 - ROW_BITS:     # the sort saw only part of the window
            agree = (keys.take(early, axis=1) == keys.take(late, axis=1)).all(axis=0)
            early, late = early[agree], late[agree]
        pair = columns.take(early, axis=1) ^ columns.take(late, axis=1)
        pw = np.bitwise_count(pair).sum(axis=0, dtype=np.int64)
        s = late // k
        np.minimum.at(code, s, ((pw + 2) * k + late - s * k) * k + early - s * k)
    for s, c in enumerate(code.tolist()):
        if c // (k * k) < best[s][0]:
            best[s] = (c // (k * k), (c % k, c // k % k))
    return best


def _word(red: np.ndarray, perm: np.ndarray, rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The codeword summing `rows` of one systematic form, in original column
    order as little-endian uint32 words."""
    k = red.shape[1]
    cw = np.zeros(n, dtype=np.uint8)
    cw[list(rows)] = 1
    cw[k:] = _unpack(np.bitwise_xor.reduce(red[:, list(rows)], axis=1), n - k)
    orig = np.zeros(n, dtype=np.uint8)
    orig[perm] = cw
    return tuple(np.packbits(orig, bitorder="little").view("<u4").tolist())


def chain_search(
    g: GeneratorMatrix,
    params: SearchParams,
    chain_seed: int,
    iterations: int,
    deadline: float | None,
    incumbent: int | None,
) -> tuple[int | None, tuple[int, ...] | None, int | None, int]:
    """One search chain; returns (best_weight, words, found_at, iters_done),
    where words and found_at stay None unless the chain finds a word
    strictly lighter than the incumbent weight.

    Only the redundancy parts of the systematic rows are kept.  Each
    iteration's information set is copied into a batch, which is weighed as
    _weigh says when it fills and when the loop ends; the chain keeps the
    first candidate strictly lighter than the best so far, in iteration order.
    An iteration whose swap draws all miss weighs nothing but still counts.
    The deadline is checked from the second iteration on, so a chain whose
    setup outlasts its time slice still weighs one information set.
    """
    k, n = 512, g.n_bits
    rng = Random(chain_seed)
    perm = np.arange(n, dtype=np.min_scalar_type(n))   # uint16: small batched copies
    rng.shuffle(perm)
    red = _systematic(g.words, perm, k, n, rng)
    best_w, best_words, found_at = incumbent, None, None
    fresh_each = params.algorithm in ("stern", "leon")
    pairs = params.algorithm != "leon" and params.subset_weight == 2
    window = params.window if pairs else None
    # each batched set is kept with its perm, to build a word from it later
    size = max(1, BATCH_BYTES // red.nbytes)
    sets = np.empty((len(red), size, k), dtype=red.dtype)
    perms = np.empty((size, n), dtype=perm.dtype)
    its: list[int] = []

    def weigh_batch() -> None:
        nonlocal best_w, best_words, found_at
        for slot, (w, rows) in enumerate(_weigh(sets[:, :len(its)], window)):
            if best_w is None or w < best_w:
                best_w, found_at = w, its[slot]
                best_words = _word(sets[:, slot], perms[slot], rows, n)
        its.clear()

    done = 0
    for it in range(iterations):
        if deadline is not None and it and time.monotonic() > deadline:
            break
        done = it + 1
        if fresh_each and it > 0:
            rng.shuffle(perm)
            red = _systematic(g.words, perm, k, n, rng)
        elif not fresh_each:
            # single-column swap keeps the chain cheap: exchange a redundancy
            # column q with information column j where row j has bit q set.
            # Column j is e_j, so swapping and re-eliminating comes down to
            # XORing row j, without its own bit q, into the other rows that
            # have bit q set.
            for _ in range(200):
                q = rng.randrange(k, n)
                j = rng.randrange(k)
                wq, sq = (q - k) >> 6, (q - k) & 63
                if (red[wq, j] >> sq) & 1:
                    break
            else:
                continue
            perm[j], perm[q] = perm[q], perm[j]
            hit = -((red[wq] >> sq) & 1)
            hit[j] = 0
            row = red[:, j].copy()
            row[wq] ^= 1 << sq
            red ^= row[:, None] & hit
        sets[:, len(its)] = red
        perms[len(its)] = perm
        its.append(it)
        if len(its) == size:
            weigh_batch()
    if its:
        weigh_batch()
    return best_w, best_words, found_at, done
