"""Bit-packed information-set decoding chain over a systematic GF(2) code.

The numpy half of codewords.low_weight_search: one Canteaut-Chabaud chain
over the columns of a k x n generator, systematic on its first k columns,
packed into uint64 words.  Its first systematic form is built from that
basis by the chain's own single-column swap, which is then its only set
update.  An iteration is one column swap and one weighed set: each set is
copied into a batch and weighed a batch at a time.  The calling process runs
the chain and hands full batches through a shared-memory ring to forked
processes that weigh them (see chain_search).  It lives apart from codewords
so that only the commands that search load numpy.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import time
from random import Random

import numpy as np

from . import forks

# The searches work on a word-major layout: a (W, k) little-endian uint64
# array whose element [w, r] holds bits 64w..64w+63 of row r (bit c at bit
# c % 64 of word c // 64).  A column is then one contiguous row of words, a
# column swap is one masked XOR of the whole array, and row weights reduce
# along the outer axis.  A batch of B information sets is a (W, B, k) array
# in the same order.  The generator's (k, m) little-endian uint32 rows are
# read from their bytes and transposed once.

BATCH_BYTES = 800_000       # information sets weighed at once: 16 at 40 steps
# processes that weigh one chain, the chain's own included, at most (see
# chain_search).  Only the calling process swaps, and at 40 steps its swaps
# take about 40% of a one-process run, which no number of weighers shortens.
MAX_PROCS = 4
WINDOW = 12                 # Stern window: the leading redundancy bits a row pair must share
NO_PAIR = 1 << 62           # a set's pair code before any pair: above every (weight, row, row) code
FILLED = struct.Struct("<2q")  # a full batch on the ring: (slot, first iteration)

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
    `packed`, row-major uint64 rows."""
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

    The generator is already systematic on its first k columns, so the form
    starts there.  Positions are taken in order, and each one's column joins
    the information set unless it lies in the span of the columns placed
    before it.  A column below k still in the set is placed as it is; any
    other column joins by the chain's single-column swap, on the first row
    with its bit among the rows that no placed column owns, preferring a row
    whose column lies outside perm[0..k-1], which never has to come back.  A
    column in the span (it has no pivot) is swapped with the random position
    rng.randrange(k, n) until one has, and perm records every swap.  The
    systematic form of an ordered information set is unique, so one bit
    permutation at the end puts its rows in the order of perm[0..k-1] and its
    redundancy columns in the order of perm[k..]; only their word-major words
    are returned (k is a multiple of 64).
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
    at most 64 - (k - 1).bit_length() bits, the part of a sort key above the
    row index.  The pairs are weighed pass by pass: pass d pairs each row,
    sorted on its window bits, with the row d places back in its bucket.
    """
    n_words, nb, k = sets.shape
    # uint16 sums hold the weight of a redundancy part below 2^16 bits
    weights = np.bitwise_count(sets).sum(axis=0, dtype=np.uint16)
    first = weights.argmin(axis=1)
    lightest = weights.min(axis=1)
    best = [(w + 1, (r,)) for w, r in zip(lightest.tolist(), first.tolist())]
    # sort each set's rows by their window bits, with the row index in the
    # row_bits below them, so that a bucket's rows come in ascending order
    row_bits = (k - 1).bit_length()
    ranked = sets[0] & np.uint64((1 << window) - 1)
    ranked <<= np.uint64(row_bits)
    ranked |= np.arange(k, dtype=np.uint64)
    ranked.sort(axis=1)
    # the batch's columns are indexed s * k + r: set s, row r
    order = (ranked & np.uint64((1 << row_bits) - 1)).astype(np.intp)
    order += np.arange(0, nb * k, k)[:, None]
    order = order.ravel()
    ranked = ranked.ravel()
    ranked >>= np.uint64(row_bits)
    # same[p]: sorted position p extends the bucket of position p - 1; each
    # set's first row starts one
    same = np.zeros(nb * k, dtype=bool)
    np.equal(ranked[1:], ranked[:-1], out=same[1:])
    same[::k] = False
    # a pair weighs at least 2, so it cannot beat a row of weight 2 or less
    same.reshape(nb, k)[lightest <= 1] = False
    columns = sets.reshape(n_words, nb * k)
    code = np.full(nb, NO_PAIR)
    # no pass holds more pairs than the batch has rows, so BATCH_BYTES bounds each
    later = np.flatnonzero(same)
    back = 1
    while later.size:
        late = order[later]
        early = order[later - back]
        pair = columns.take(early, axis=1)
        pair ^= columns.take(late, axis=1)
        # (weight + 2, later row, earlier row) per set; row = column - set_of * k
        set_of = late // k
        pw = np.bitwise_count(pair).sum(axis=0, dtype=np.uint16).astype(np.int64)
        pw += 2
        pw *= k
        pw += late
        pw *= k
        pw += early
        pw -= set_of * (k * k + k)
        np.minimum.at(code, set_of, pw)
        # a position stays while its bucket reaches back one place further
        later = later[same[later - back]]
        back += 1
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


def _pipe() -> tuple[io.FileIO, io.FileIO]:
    """An os.pipe as unbuffered (read end, write end) files: a read or write
    is one system call, and closing a file twice closes its descriptor once."""
    read_end, write_end = os.pipe()
    return open(read_end, "rb", buffering=0), open(write_end, "wb", buffering=0)


def chain_search(
    gen: np.ndarray, chain_seed: int, iterations: int, deadline: float | None
) -> tuple[int, tuple[int, ...], int, int]:
    """One search chain over the code that `gen` generates; returns
    (best_weight, words, found_at, iters_done) for its lightest word found.

    `gen` is a (k, m) little-endian uint32 array, bit b of gen[r, i] at
    column 32i + b of row r, systematic on its first k columns, with k a
    multiple of 64; the code has length n = 32m, and words come back packed
    the same way.  Only the redundancy parts of the systematic rows are
    kept.  It raises ValueError for fewer than one iteration.  The chain
    starts from a shuffled column order's systematic form, and raises
    ValueError if that form has no nonzero redundancy bit, as no swap exists
    then.  Each iteration makes one single-column swap and
    copies the information set it leaves into a batch, which is weighed as
    _weigh says, on the fixed WINDOW-bit Stern window.  The chain's find is
    the least (weight, iteration) over its sets: the first set of least
    weight.  The deadline is checked from the second iteration on, so a
    chain whose setup outlasts its time slice still weighs one set.

    The weighing is split over up to forks.usable_cpus() processes, P in
    all.  The calling process runs the chain, the only one that swaps: it
    copies each set and its perm into a batch slot of a ring in shared
    memory (P + 1 slots, or one when P is 1), made before P - 1 weighers are
    forked.  A full batch goes to the weighers through one pipe, as its slot
    and first iteration, if a slot is free to fill next.  The free slots are
    the bytes in a second pipe: it starts with every slot but the chain's
    first, the chain takes one with a non-blocking read, and the weighers
    write back each slot they have weighed.  When no slot is free the
    chain weighs the full batch itself, and it always weighs the last one,
    after it has closed the ring and weighed what the weighers had not yet
    taken.  Each process keeps the least (weight, iteration, word) of the
    sets it weighed, and the least of those is the find, whoever weighed
    which batch in whatever order.  Under a deadline the search reports the
    chain's own iteration count, since every set the chain made is weighed.
    On one usable CPU nothing is forked.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    k, n = len(gen), 32 * gen.shape[1]
    rng = Random(chain_seed)
    perm = list(range(n))
    rng.shuffle(perm)
    red = _systematic(gen, perm, k, n, rng)
    if not red.any():
        raise ValueError(f"the [{n}, {k}] code has no nonzero redundancy bit to swap in")
    perm = np.array(perm, dtype=np.min_scalar_type(n))     # uint16: batched copies stay small
    size = max(1, BATCH_BYTES // red.nbytes)
    # no process is forked without a batch to weigh
    procs = min(forks.usable_cpus(), MAX_PROCS, -(-iterations // size))
    slots = procs + 1 if procs > 1 else 1
    # anonymous shared memory, which fork maps into the weighers; it is
    # unmapped with the last array that views it
    ring = mmap.mmap(-1, slots * size * (red.nbytes + perm.nbytes))
    sets = np.frombuffer(ring, red.dtype, slots * size * red.size).reshape(slots, len(red), size, k)
    perms = np.frombuffer(ring, perm.dtype, slots * size * n, sets.nbytes).reshape(slots, size, n)
    filled_r, filled_w = _pipe()        # (slot, first iteration) of each full batch
    freed_r, freed_w = _pipe()          # one byte per free slot
    done = 0
    # this process's (weight, iteration, word); no codeword weighs n + 1
    best = (n + 1, -1, None)

    def weigh(slot: int, first: int, count: int) -> None:
        """Weigh a slot's first `count` sets, from iteration `first` on."""
        nonlocal best
        batch = sets[slot]
        for i, (w, rows) in enumerate(_weigh(batch[:, :count], WINDOW)):
            if (w, first + i) < best[:2]:
                best = (w, first + i, _word(batch[:, i], perms[slot, i], rows, n))

    def serve() -> tuple:
        """Weigh full batches off the ring until the chain has closed it."""
        while message := filled_r.read(FILLED.size):
            slot, first = FILLED.unpack(message)
            weigh(slot, first, size)
            freed_w.write(bytes([slot]))
        return best

    def chain() -> tuple:
        """Run the chain, weighing what the weighers cannot take."""
        nonlocal done
        slot, filled = 0, 0
        try:
            for it in range(iterations):
                if deadline is not None and it and time.monotonic() > deadline:
                    break
                done = it + 1
                # the single-column swap: a redundancy column q and an information
                # column j where row j has bit q.  The draws end: the form has a
                # nonzero redundancy bit, and each swap moves a nonzero column out.
                while True:
                    q = rng.randrange(k, n)
                    j = rng.randrange(k)
                    wq, sq = (q - k) >> 6, (q - k) & 63
                    if red.item(wq, j) >> sq & 1:
                        break
                perm[j], perm[q] = perm[q], perm[j]
                _swap(red, (red[wq] >> sq) & 1, j, wq, sq)
                sets[slot, :, filled] = red
                perms[slot, filled] = perm
                filled += 1
                if filled == size and done < iterations:
                    if free := freed_r.read(1):        # None when no slot is free
                        filled_w.write(FILLED.pack(slot, done - size))
                        slot = free[0]
                    else:
                        weigh(slot, done - size, size)
                    filled = 0
        finally:
            filled_w.close()
        serve()
        if filled:
            weigh(slot, done - filled, filled)
        return best

    def work(part: int) -> tuple:
        """The best of the process that runs `part`: the last part is the chain."""
        if part < procs - 1:
            filled_w.close()        # so that the ring closes when the chain closes it
            return serve()
        return chain()

    with filled_r, filled_w, freed_r, freed_w:
        os.set_blocking(freed_r.fileno(), False)
        freed_w.write(bytes(range(1, slots)))      # every slot but the chain's first
        runs = forks.forked(work, range(procs))
    w, found_at, words = min(tuple(run) for run in runs)
    return w, tuple(words), found_at, done
