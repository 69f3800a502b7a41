"""Bit-packed information-set decoding chain for the expansion code.

The numpy half of codewords.low_weight_search: one Canteaut-Chabaud chain
over the generator's columns packed into uint64 words.  Its first systematic
form is built from the generator's message basis by the chain's own
single-column swap, which is then its only set update.  An iteration is one
column swap and one weighed set: each set is copied into a batch and weighed
a batch at a time.  The chain is replayed in forked processes that weigh its
batches in turn (see chain_search).  It lives apart from codewords so that
only the commands that search load numpy.
"""

from __future__ import annotations

import time
from random import Random
from typing import TYPE_CHECKING

import numpy as np

from . import forks

if TYPE_CHECKING:
    from .codewords import GeneratorMatrix

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
MAX_REPLAYS = 4             # processes one chain is replayed in, at most (see chain_search)
WINDOW = 12                 # Stern window: the leading redundancy bits a row pair must share


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, n) 0/1 uint8 -> (rows, ceil(n/64)) little-endian uint64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], 8 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack for a single packed row: its first n bits as uint8."""
    return np.unpackbits(packed.view(np.uint8), bitorder="little")[:n]


def _permuted(packed: np.ndarray, perm: list[int]) -> np.ndarray:
    """Word-major array whose bit p of row r is bit perm[p] of row r of
    `packed` (row-major uint64 rows, or the generator's uint32 ones)."""
    out = np.empty((-(-len(perm) // 64), len(packed)), dtype="<u8")
    for r in range(0, len(packed), 64):       # blocks keep the unpacked bits small
        bits = np.unpackbits(packed[r:r + 64].view(np.uint8), axis=1, bitorder="little")
        out[:, r:r + 64] = _pack(bits[:, perm]).T
    return out


def _swap(red: np.ndarray, has: np.ndarray, j: int, wq: int, sq: int) -> None:
    """The chain's single-column swap, in place: redundancy column q (bit sq
    of word wq, whose 0/1 bits are `has`) trades places with the information
    column of row j, where row j has bit q set.  That column is e_j, so
    swapping and re-eliminating comes down to XORing row j, without its own
    bit q, into the other rows that have bit q set."""
    hit = -has
    hit[j] = 0
    row = red[:, j].copy()
    row[wq] ^= 1 << sq
    red ^= row[:, None] & hit


def _systematic(gen: np.ndarray, perm: list[int], k: int, n: int, rng: Random) -> np.ndarray:
    """Redundancy part of the generator in systematic form on the columns
    perm[0..k-1], in that order (perm maps position -> original column).

    The generator is already systematic on the message bits, columns 0..k-1,
    so the form starts there.  Positions are taken in order, and each one's
    column joins the information set unless it lies in the span of the
    columns placed before it.  A message bit still in the set is placed as
    it is; any other column joins by the chain's single-column swap, on the
    first row with its bit among the rows that no placed column owns,
    preferring a row whose column lies outside perm[0..k-1], which never has
    to come back.  A column in the span (it has no pivot) is swapped with
    the random position rng.randrange(k, n) until one has, and perm records
    every swap.  The systematic form of an ordered information set is unique,
    so one bit permutation at the end puts its rows in the order of
    perm[0..k-1] and its redundancy columns in the order of perm[k..]; only
    their word-major words are returned (k is a multiple of 64).
    """
    # the rows' words after the message, as uint64 words: redundancy position q
    # holds column k + q until a swap moves it
    words = np.zeros((k, 2 * -(-(gen.shape[1] - k // 32) // 2)), dtype="<u4")
    words[:, : gen.shape[1] - k // 32] = gen[:, k // 32:]
    red = words.view("<u8").T.copy()
    at = list(range(n))         # column -> its row if below k, else k + its position
    owner = list(range(k))      # row -> its information column
    # 2 on the rows whose column lies outside perm[0..k-1], 1 on those whose
    # column comes later in it, 0 on the rows of the placed columns
    free = np.full(k, 2, dtype=red.dtype)
    free[[c for c in perm[:k] if c < k]] = 1
    rows = []
    for i in range(k):
        while (r := at[perm[i]]) >= k:
            q = r - k
            wq, sq = q >> 6, q & 63
            has = (red[wq] >> sq) & 1
            pick = has * free
            r = int(pick.argmax())
            if pick.item(r):
                at[owner[r]], at[perm[i]], owner[r] = k + q, r, perm[i]
                _swap(red, has, r, wq, sq)
                break
            swap = rng.randrange(k, n)
            perm[i], perm[swap] = perm[swap], perm[i]
        free[r] = 0
        rows.append(r)
    return _permuted(red.T[rows], [at[c] - k for c in perm[k:]])


def _weigh(sets: np.ndarray, window: int) -> list[tuple[int, tuple[int, ...]]]:
    """The first lightest candidate of each information set in a word-major
    (W, B, k) batch of redundancy parts, as (weight, rows).

    Row r is e_r on the information positions, so it weighs one more than
    its redundancy part and a pair of rows two more.  Candidates are the
    rows, then the row pairs that agree on the first `window` redundancy
    bits (the Stern window); the least pair by (weight, later row, earlier
    row) replaces the lightest row only if strictly lighter.  The window is
    at most 64 - ROW_BITS = 55 bits, the part of a sort key above the row
    index.
    """
    n_words, nb, k = sets.shape
    weights = np.bitwise_count(sets).sum(axis=0, dtype=np.int32)
    first = weights.argmin(axis=1)
    least = weights[np.arange(nb), first] + 1
    best = [(w, (r,)) for w, r in zip(least.tolist(), first.tolist())]
    # sort each set's rows by their window bits, with the row index below
    # them, so that a bucket's rows come in ascending order
    pos = np.arange(k)
    keys = sets[0] & np.uint64((1 << window) - 1)
    ranked = np.sort(keys << ROW_BITS | pos.astype(np.uint64), axis=1)
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
    code = np.full(nb, np.iinfo(np.int64).max)
    # the positions are taken in chunks of about PAIR_CHUNK pairs
    ends = np.cumsum(depth)
    firsts = np.searchsorted(ends, np.arange(0, depth.sum(), PAIR_CHUNK), side="right").tolist()
    for lo, hi in zip(firsts, [*firsts[1:], len(at)]):
        t = depth[lo:hi]
        later = np.repeat(at[lo:hi], t)
        back = np.arange(1, len(later) + 1) - np.repeat(np.cumsum(t) - t, t)
        early, late = order[later - back], order[later]
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
    chain_seed: int,
    iterations: int,
    deadline: float | None,
    incumbent: int | None,
) -> tuple[int | None, tuple[int, ...] | None, int | None, int]:
    """One search chain; returns (best_weight, words, found_at, iters_done),
    where words and found_at stay None unless the chain finds a word
    strictly lighter than the incumbent weight.

    Only the redundancy parts of the systematic rows are kept.  The chain
    starts from a shuffled column order's systematic form.  Each iteration
    makes one single-column swap and copies the information set it leaves
    into a batch, which is weighed as _weigh says, on the fixed WINDOW-bit
    Stern window, when it fills and when the loop ends; the chain keeps the
    first candidate strictly lighter than the best so far, in iteration
    order.  The deadline is checked from the second iteration on, so a chain
    whose setup outlasts its time slice still weighs one set.

    The chain is split over up to forks.usable_cpus() processes, P in all.
    The systematic form is built once; then each process replays the same
    seeded chain of swaps, which is cheap and deterministic, but copies and
    weighs only the batches whose index is its own modulo P.  Each keeps
    (iteration, weight, word) for every set strictly lighter than its own
    running best, and the records are merged in iteration order by the
    chain's own rule.  That is exact: a set that beats the chain's running
    best also beats its own process's.  Under a deadline each process stops
    on its own; the chain reports the fewest iterations any process ran,
    which some process weighed every one of, and drops the records at or
    past it.  On one usable CPU nothing is forked.
    """
    k, n = 512, g.n_bits
    rng = Random(chain_seed)
    perm = list(range(n))
    rng.shuffle(perm)
    red = _systematic(g.words, perm, k, n, rng)
    perm = np.array(perm, dtype=np.min_scalar_type(n))     # uint16: batched copies stay small
    size = max(1, BATCH_BYTES // red.nbytes)
    # Every process replays all of the swaps, about 40% of a one-process run
    # at 40 steps (24 of 61 ms on a 2-vCPU VM), so P processes take at least
    # 0.4 + 0.6 / P of its time: a fifth would save 3% of it, less than a
    # forked child's start-up.  Nor is a process forked without a batch.
    parts = min(forks.usable_cpus(), MAX_REPLAYS, -(-iterations // size))

    def replay(part: int) -> tuple[int, list[tuple[int, int, tuple[int, ...]]]]:
        """(iterations done, records) of the process that weighs `part`."""
        best_w, records = incumbent, []
        # each batched set is kept with its perm, to build a word from it later
        sets = np.empty((len(red), size, k), dtype=red.dtype)
        perms = np.empty((size, n), dtype=perm.dtype)
        its: list[int] = []

        def weigh_batch() -> None:
            nonlocal best_w
            for slot, (w, rows) in enumerate(_weigh(sets[:, :len(its)], WINDOW)):
                if best_w is None or w < best_w:
                    best_w = w
                    records.append((its[slot], w, _word(sets[:, slot], perms[slot], rows, n)))
            its.clear()

        done = 0
        for it in range(iterations):
            if deadline is not None and it and time.monotonic() > deadline:
                break
            done = it + 1
            # the single-column swap: a redundancy column q and an information
            # column j where row j has bit q.  The draws end, as some redundancy
            # column is non-zero: W16's 32 bits are non-zero functions of the
            # message for both XOR kinds, and 512 + 32 exceeds an information set.
            while True:
                q = rng.randrange(k, n)
                j = rng.randrange(k)
                wq, sq = (q - k) >> 6, (q - k) & 63
                if red.item(wq, j) >> sq & 1:
                    break
            perm[j], perm[q] = perm[q], perm[j]
            _swap(red, (red[wq] >> sq) & 1, j, wq, sq)
            if it // size % parts == part:
                sets[:, len(its)] = red
                perms[len(its)] = perm
                its.append(it)
                if len(its) == size:
                    weigh_batch()
        if its:
            weigh_batch()
        return done, records

    runs = forks.forked(replay, range(parts))
    done = min(d for d, _ in runs)
    best_w, best_words, found_at = incumbent, None, None
    for it, w, words in sorted((r for _, records in runs for r in records if r[0] < done),
                               key=lambda r: r[0]):
        if best_w is None or w < best_w:
            best_w, best_words, found_at = w, tuple(words), it
    return best_w, best_words, found_at, done
