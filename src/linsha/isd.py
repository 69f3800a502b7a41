"""Bit-packed information-set decoding chain for the expansion code.

The numpy half of codewords.low_weight_search: one chain of Canteaut-Chabaud,
Stern or Leon iterations over the generator's rows packed into uint64 words.
It lives apart from codewords so that only the commands that search load
numpy.
"""

from __future__ import annotations

import time
from random import Random
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .codewords import GeneratorMatrix, SearchParams

# The searches work on bit-packed rows: a (512, W) little-endian uint64 array
# whose row r holds bit c of a codeword at bit c % 64 of word c // 64, so
# column swaps, eliminations and weighings are whole-array operations.  The
# generator's (512, N) little-endian uint32 rows have the same bytes.


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
    """Packed rows whose bit p is bit perm[p] of the same row of `packed`
    (uint64 rows, or the generator's uint32 ones)."""
    cols = np.asarray(perm)
    out = np.empty((len(packed), -(-len(perm) // 64)), dtype="<u8")
    for r in range(0, len(packed), 64):       # blocks keep the unpacked bits small
        bits = np.unpackbits(packed[r:r + 64].view(np.uint8), axis=1, bitorder="little")
        out[r:r + 64] = _pack(bits[:, cols])
    return out


def _bit(arr: np.ndarray, c: int) -> np.ndarray:
    """Column c of a packed array, as a bool per row."""
    return ((arr[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)).astype(bool)


def _systematic(
    gen: np.ndarray, perm: list[int], k: int, n: int, rng: Random
) -> np.ndarray:
    """Redundancy part of the generator in systematic form on positions 0..k-1.

    Reduced Gaussian elimination of the columns taken in the order of perm
    (position -> original column); a pivotless column i is swapped with the
    random redundancy column rng.randrange(k, n) until one has a pivot, and
    perm records every swap.  Positions 0..k-1 then hold the identity, so
    only the packed columns k.. are returned (k is a multiple of 64).
    """
    arr = _permuted(gen, perm)
    for i in range(k):
        wi, bi = i >> 6, np.uint64(1 << (i & 63))
        while True:
            col = _bit(arr, i)
            piv = i + int(col[i:].argmax())
            if col[piv]:
                break
            swap = rng.randrange(k, n)
            perm[i], perm[swap] = perm[swap], perm[i]
            differ = col != _bit(arr, swap)
            arr[differ, wi] ^= bi
            arr[differ, swap >> 6] ^= np.uint64(1 << (swap & 63))
        if piv != i:
            arr[[i, piv]] = arr[[piv, i]]
            col[i], col[piv] = col[piv], col[i]
        col[i] = False
        arr[col] ^= arr[i]
    return arr[:, k // 64:].copy()


def _weights(packed: np.ndarray) -> np.ndarray:
    """Hamming weight of every packed row."""
    return np.einsum("ij->i", np.bitwise_count(packed), dtype=np.int64)


def _window_pairs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (earlier, later) with equal window keys.

    A stable sort by key puts each bucket's rows in ascending order, so
    comparing the sorted keys at offset d pairs every row with the row d
    places before it in its bucket.
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    earlier, later = [], []
    d = 1
    while True:
        same = sorted_key[d:] == sorted_key[:-d]
        if not same.any():
            break
        earlier.append(order[:-d][same])
        later.append(order[d:][same])
        d += 1
    if not earlier:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(earlier), np.concatenate(later)


def chain_search(
    g: GeneratorMatrix,
    params: SearchParams,
    chain_seed: int,
    iterations: int,
    deadline: float | None,
    incumbent: int | None,
) -> tuple[int | None, tuple[int, ...] | None, int | None, int]:
    """One worker chain; returns (best_weight, words, found_at, iters_done),
    where words and found_at stay None unless the chain finds a word
    strictly lighter than the incumbent weight.

    Only the redundancy parts of the systematic rows are kept: row j is e_j
    on the information positions, so it weighs one more than its redundancy
    part and a pair of rows two more.  Candidates are taken in the order
    rows 0..k-1, then window pairs by (later row, earlier row); an iteration
    keeps the first one of least weight, if strictly below the incumbent.
    The deadline is checked from the second iteration on, so a chain whose
    setup outlasts its time slice still weighs one information set.
    """
    k, n = 512, g.n_bits
    rng = Random(chain_seed)
    perm = list(range(n))
    rng.shuffle(perm)
    red = _systematic(g.words, perm, k, n, rng)
    best_w, best_words, found_at = incumbent, None, None
    fresh_each = params.algorithm in ("stern", "leon")
    pairs = params.algorithm != "leon" and params.subset_weight == 2
    # the Stern window: the first `window` redundancy bits, as one key per row
    key_words = min(max(1, -(-params.window // 64)), red.shape[1])
    key_masks = np.array([(1 << min(64, max(0, params.window - 64 * t))) - 1
                          for t in range(key_words)], dtype="<u8")

    it = 0
    for it in range(iterations):
        if deadline is not None and it and time.monotonic() > deadline:
            break
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
                wq, bq = (q - k) >> 6, np.uint64(1 << ((q - k) & 63))
                if red[j, wq] & bq:
                    break
            else:
                continue
            perm[j], perm[q] = perm[q], perm[j]
            hit = (red[:, wq] & bq).astype(bool)
            hit[j] = False
            row = red[j].copy()
            row[wq] ^= bq
            red[hit] ^= row
        weights = _weights(red)
        first = int(weights.argmin())
        w, support = int(weights[first]) + 1, (first,)
        if pairs:
            keys = red[:, :key_words] & key_masks
            key = (keys[:, 0] if key_words == 1
                   else np.unique(keys, axis=0, return_inverse=True)[1].ravel())
            earlier, later = _window_pairs(key)
            if earlier.size:
                pw = _weights(red[earlier] ^ red[later]) + 2
                least = int(pw.min())
                if least < w:
                    tied = np.flatnonzero(pw == least)
                    p = tied[np.argmin(later[tied] * k + earlier[tied])]
                    w, support = least, (int(earlier[p]), int(later[p]))
        if best_w is None or w < best_w:
            cw = np.zeros(n, dtype=np.uint8)
            cw[list(support)] = 1
            cw[k:] = np.bitwise_xor.reduce([_unpack(red[r], n - k) for r in support])
            orig = np.zeros(n, dtype=np.uint8)
            orig[perm] = cw
            best_w, found_at = w, it
            best_words = tuple(np.packbits(orig, bitorder="little").view("<u4").tolist())
        it += 1
    return best_w, best_words, found_at, it
