"""The XOR-linearised message expansion as a GF(2) linear code.

Replacing the expansion's modular additions by XOR turns the set of expanded
messages into a [32N, 512] linear code; low-weight codewords correspond to
sparse expanded differences.  This module builds the generator matrix, takes
the single-bit weight census, runs probabilistic low-weight searches in the
information-set decoding family, and verifies/extends/sweeps found words.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace
from random import Random
from typing import Sequence

import numpy as np

from .primitives import ExpansionKind, expand, rotl, seq_weight

XOR_KINDS = (ExpansionKind.SHA256_XOR, ExpansionKind.SHA1_XOR)


def bitrev32(x: int) -> int:
    return int(f"{x:032b}"[::-1], 2)


def words_to_bits(words: Sequence[int]) -> int:
    acc = 0
    for i, w in enumerate(words):
        acc |= w << (32 * i)
    return acc


def bits_to_words(bits: int, n_words: int) -> list[int]:
    return [(bits >> (32 * i)) & 0xFFFFFFFF for i in range(n_words)]


# ---------------------------------------------------------------------------
# generator matrix and census


@dataclass(frozen=True)
class GeneratorMatrix:
    """512 x 32N over GF(2); row j is the expansion of unit message bit j.

    Rows are packed little-endian into Python ints: bit 32*i + b of a row is
    bit b of expanded word i.  Rank is 512 because words 0..15 pass through.
    """

    kind: ExpansionKind
    n_steps: int
    rows: tuple[int, ...] = field(repr=False)

    @property
    def n_bits(self) -> int:
        return 32 * self.n_steps

    def encode(self, m: Sequence[int]) -> int:
        """GF(2) product G.m for a 16-word message, as packed bits."""
        acc = 0
        for word in range(16):
            w = m[word]
            while w:
                low = w & -w
                acc ^= self.rows[32 * word + low.bit_length() - 1]
                w ^= low
        return acc


def build_generator(kind: ExpansionKind, n_steps: int) -> GeneratorMatrix:
    if kind not in XOR_KINDS:
        raise ValueError("generator matrices exist only for the XOR-linear kinds")
    if n_steps < 16:
        raise ValueError("need at least 16 steps")
    rows = []
    for word in range(16):
        for bit in range(32):
            m = [0] * 16
            m[word] = 1 << bit
            rows.append(words_to_bits(expand(m, kind, n_steps)))
    return GeneratorMatrix(kind, n_steps, tuple(rows))


def single_bit_census(kind: ExpansionKind, n_steps: int) -> tuple[int, int]:
    """Min/max expansion weight over all 512 unit-vector messages.

    Works for all five kinds; for the modular-addition kinds this weighs the
    expansion of the unit vector itself, i.e. the difference to the all-zero
    message, whose expansion is zero.
    """
    weights = []
    for word in range(16):
        for bit in range(32):
            m = [0] * 16
            m[word] = 1 << bit
            weights.append(seq_weight(expand(m, kind, n_steps)))
    return min(weights), max(weights)


# ---------------------------------------------------------------------------
# verification and extension


def verify_codeword(
    words: Sequence[int], kind: ExpansionKind = ExpansionKind.SHA256_XOR, n_steps: int | None = None
) -> tuple[bool, int]:
    """(valid, weight): validity means the XOR recurrence holds from step 16 on."""
    ws = list(words)
    if n_steps is not None and len(ws) != n_steps:
        raise ValueError(f"expected {n_steps} words, got {len(ws)}")
    if len(ws) < 16:
        raise ValueError("need at least 16 words")
    recurrence = expand(ws[:16], kind, len(ws))
    return recurrence == ws, seq_weight(ws)


def extend_codeword(
    words: Sequence[int], n2: int, kind: ExpansionKind = ExpansionKind.SHA256_XOR
) -> list[int]:
    """Forward-expand a valid word to n2 steps; a no-op at the same length."""
    ws = list(words)
    if n2 < len(ws):
        raise ValueError("extension cannot shorten a word")
    valid, _ = verify_codeword(ws, kind)
    if not valid:
        raise ValueError("refusing to extend an invalid word")
    return expand(ws[:16], kind, n2)


# ---------------------------------------------------------------------------
# low-weight search


@dataclass(frozen=True)
class SearchParams:
    algorithm: str = "canteaut-chabaud"   # or "stern", "leon"
    iterations: int | None = None
    budget_secs: float | None = None
    window: int = 12                      # Stern collision window, bits
    subset_weight: int = 2                # p: rows combined per candidate
    seed: int = 0
    workers: int = 1
    bootstrap_lengths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.algorithm not in ("canteaut-chabaud", "stern", "leon"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.iterations is None and self.budget_secs is None:
            raise ValueError("give an iteration count or a time budget")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iteration budget must be positive")
        if self.budget_secs is not None and self.budget_secs <= 0:
            raise ValueError("time budget must be positive")
        if self.subset_weight not in (1, 2):
            raise ValueError("subset weight 1 or 2 supported")
        if self.window < 0:
            raise ValueError("Stern window must be non-negative")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


@dataclass(frozen=True)
class SearchResult:
    words: tuple[int, ...]
    weight: int
    kind: ExpansionKind
    n_steps: int
    algorithm: str
    seed: int
    iterations_run: int
    found_at_iteration: int | None       # None: incumbent from bootstrap survived
    origin: str                          # "search" or "bootstrap(<n>)"
    elapsed_secs: float


# The searches work on bit-packed rows: a (512, W) little-endian uint64 array
# whose row r holds bit c of a codeword at bit c % 64 of word c // 64, so
# column swaps, eliminations and weighings are whole-array operations.


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, n) 0/1 uint8 -> (rows, ceil(n/64)) little-endian uint64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], 8 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack for a single packed row: its first n bits as uint8."""
    return np.unpackbits(packed.view(np.uint8), bitorder="little")[:n]


def _generator_packed(g: GeneratorMatrix) -> np.ndarray:
    """The generator's rows, packed."""
    n_bytes = 8 * -(-g.n_bits // 64)
    raw = b"".join(r.to_bytes(n_bytes, "little") for r in g.rows)
    return np.frombuffer(raw, dtype="<u8").reshape(len(g.rows), n_bytes // 8)


def _permuted(packed: np.ndarray, perm: list[int]) -> np.ndarray:
    """Packed rows whose bit p is bit perm[p] of the same row of `packed`."""
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


def _chain_search(
    g: GeneratorMatrix,
    params: SearchParams,
    chain_seed: int,
    iterations: int,
    deadline: float | None,
    incumbent: tuple[int | None, int | None],
) -> tuple[int | None, int | None, int | None, int]:
    """One worker chain; returns (best_weight, best_bits, found_at, iters_done).

    Only the redundancy parts of the systematic rows are kept: row j is e_j
    on the information positions, so it weighs one more than its redundancy
    part and a pair of rows two more.  Candidates are taken in the order
    rows 0..k-1, then window pairs by (later row, earlier row); an iteration
    keeps the first one of least weight, if strictly below the incumbent.
    """
    k, n = 512, g.n_bits
    rng = Random(chain_seed)
    gen = _generator_packed(g)
    perm = list(range(n))
    rng.shuffle(perm)
    red = _systematic(gen, perm, k, n, rng)
    best_w, best_bits = incumbent
    found_at = None
    fresh_each = params.algorithm in ("stern", "leon")
    pairs = params.algorithm != "leon" and params.subset_weight == 2
    # the Stern window: the first `window` redundancy bits, as one key per row
    key_words = min(max(1, -(-params.window // 64)), red.shape[1])
    key_masks = np.array([(1 << min(64, max(0, params.window - 64 * t))) - 1
                          for t in range(key_words)], dtype="<u8")

    it = 0
    for it in range(iterations):
        if deadline is not None and time.monotonic() > deadline:
            break
        if fresh_each and it > 0:
            rng.shuffle(perm)
            red = _systematic(gen, perm, k, n, rng)
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
            best_w = w
            best_bits = int.from_bytes(np.packbits(orig, bitorder="little").tobytes(), "little")
            found_at = it
        it += 1
    return best_w, best_bits, found_at, it


def low_weight_search(g: GeneratorMatrix, params: SearchParams) -> SearchResult:
    """Probabilistic minimum-weight search over the expansion code.

    Algorithms: "canteaut-chabaud" (default) iterates cheap single-column
    information-set updates with a Stern collision window over row pairs;
    "stern" redraws the whole information set each iteration; "leon" is the
    single-row baseline.  Optional bootstrap stages search a shorter length
    first and extend the winner, which is sound because truncating a valid
    word is valid again; the extended incumbent seeds the main chain and is
    only replaced by strictly lighter finds.  Deterministic for fixed
    (seed, workers, iteration budget).
    """
    t0 = time.monotonic()
    shorter = []
    for n1 in params.bootstrap_lengths:
        if not 16 <= n1 < g.n_steps:
            raise ValueError(f"bootstrap length {n1} outside [16, {g.n_steps})")
        shorter.append(low_weight_search(
            build_generator(g.kind, n1), replace(params, bootstrap_lengths=())
        ))
    return _search_from(g, params, shorter, t0)


def _search_from(
    g: GeneratorMatrix, params: SearchParams, shorter: Sequence[SearchResult], t0: float
) -> SearchResult:
    """The chains of low_weight_search, from the lightest extension of the
    shorter results (if any) as incumbent; params' time budget runs from t0
    and is split into equal slices, one per chain."""
    origin = "search"
    incumbent: tuple[int | None, int | None] = (None, None)
    for sub in shorter:
        extended = extend_codeword(sub.words, g.n_steps, g.kind)
        w = seq_weight(extended)
        if incumbent[0] is None or w < incumbent[0]:
            incumbent = (w, words_to_bits(extended))
            origin = f"bootstrap({sub.n_steps})"

    if g.n_bits == 512:
        # no redundancy, every vector is a codeword; a unit vector is minimal
        words = tuple([1] + [0] * (g.n_steps - 1))
        return SearchResult(words, 1, g.kind, g.n_steps, params.algorithm,
                            params.seed, 0, 0, "search", time.monotonic() - t0)

    iterations = params.iterations if params.iterations is not None else 1 << 62
    base = iterations // params.workers
    extra = iterations % params.workers
    start = time.monotonic()
    best_w, best_bits = incumbent
    found_at = None
    iters_total = 0
    for widx in range(params.workers):
        share = base + (1 if widx < extra else 0)
        deadline = None
        if params.budget_secs is not None:
            deadline = start + (t0 + params.budget_secs - start) * (widx + 1) / params.workers
        chain_seed = params.seed * 1000003 + widx
        w, bits, fat, done = _chain_search(
            g, params, chain_seed, share, deadline, (best_w, best_bits)
        )
        iters_total += done
        if w is not None and (best_w is None or w < best_w):
            best_w, best_bits, found_at = w, bits, fat
            origin = "search"
    if best_bits is None:
        raise RuntimeError("no codeword found; budget too small")
    words = tuple(bits_to_words(best_bits, g.n_steps))
    valid, weight = verify_codeword(words, g.kind)
    if not valid or weight != best_w:
        raise AssertionError("search produced an invalid word; layout bug")
    return SearchResult(
        words, weight, g.kind, g.n_steps, params.algorithm, params.seed,
        iters_total, found_at, origin, time.monotonic() - t0,
    )


# ---------------------------------------------------------------------------
# printed-grid resolution and codeword files


def load_codeword_file(path: str) -> list[int]:
    """One 8-hex-digit word per line; # starts a comment."""
    words = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if len(line) != 8:
                raise ValueError(f"expected 8 hex digits per line, got {line!r}")
            words.append(int(line, 16))
    return words


def resolve_word_order(
    words: Sequence[int], kind: ExpansionKind = ExpansionKind.SHA256_XOR
) -> tuple[list[int], str, bool, int]:
    """Try reading orders until the validity check authenticates one.

    Printed tables do not state their reading order.  Candidates: the order
    as given and, for 40 words, the 10x4 grid transposed; each also with the
    bits of every word reversed.  Returns (words, order label, valid, weight);
    falls back to as-given when nothing validates.
    """
    ws = list(words)
    candidates: list[tuple[str, list[int]]] = [("as-given", ws)]
    if len(ws) == 40:
        transposed = [ws[4 * r + c] for c in range(4) for r in range(10)]
        candidates.append(("column-major", transposed))
    for label, seq in list(candidates):
        candidates.append((label + ",bit-reversed", [bitrev32(w) for w in seq]))
    for label, seq in candidates:
        valid, weight = verify_codeword(seq, kind)
        if valid:
            return seq, label, True, weight
    return ws, "as-given", False, seq_weight(ws)


def rotate_words_left(words: Sequence[int], r: int = 1) -> list[int]:
    return [rotl(w, r) for w in words]


def zero_band_report(words: Sequence[int]) -> dict:
    """Support structure of a word: does one 16-word window hold all of it?"""
    support = [i for i, w in enumerate(words) if w]
    if not support:
        return {"support": [], "single_window": True}
    span = support[-1] - support[0] + 1
    return {"support": support, "single_window": span <= 16}


# ---------------------------------------------------------------------------
# weight-vs-steps sweep


@dataclass(frozen=True)
class SweepRow:
    steps: int
    weight: int
    method: str                  # "searched" or "extended"
    seed: int
    iterations: int
    words: tuple[int, ...] = field(repr=False)


def fig2_sweep(
    step_range: Sequence[int],
    params: SearchParams,
    kind: ExpansionKind = ExpansionKind.SHA256_XOR,
    search_horizon: int = 42,
) -> list[SweepRow]:
    """Best weight per step count, searching up to the horizon, extending after.

    A searched row past 40 steps starts from the 40-step word, extended, as
    its incumbent; the 40-step search runs once per sweep.

    The reported curve is made monotone by a truncation pass: a valid N-step
    word cut to N-1 steps is a valid word again, so any longer word that
    truncates lighter replaces the shorter row.  Weights therefore never
    decrease with N in the output, matching the true minimum's behaviour.
    """
    steps_list = sorted(set(step_range))
    if not steps_list or steps_list[0] < 16 or steps_list[-1] > 64:
        raise ValueError("sweep range must lie within [16, 64]")
    rows: dict[int, SweepRow] = {}
    best_searched: SweepRow | None = None
    params = replace(params, bootstrap_lengths=())
    searched40: SearchResult | None = None
    for n in steps_list:
        if n <= search_horizon:
            if n <= 40:
                res = low_weight_search(build_generator(kind, n), params)
            else:
                if searched40 is None:
                    searched40 = low_weight_search(build_generator(kind, 40), params)
                res = _search_from(build_generator(kind, n), params, (searched40,),
                                   time.monotonic())
            if n == 40:
                searched40 = res
            row = SweepRow(n, res.weight, "searched", params.seed, res.iterations_run, res.words)
            best_searched = row
        else:
            if best_searched is None:
                raise ValueError("extension rows need at least one searched row")
            ext = extend_codeword(best_searched.words, n, kind)
            row = SweepRow(n, seq_weight(ext), "extended", params.seed,
                           best_searched.iterations, tuple(ext))
        rows[n] = row
    # monotone truncation pass, longest to shortest
    for n in reversed(steps_list[:-1]):
        longer = next((m for m in steps_list if m > n), None)
        if longer is None:
            continue
        src = rows[longer]
        truncated = list(src.words[:n])
        w = seq_weight(truncated)
        if w < rows[n].weight:
            rows[n] = SweepRow(n, w, src.method, src.seed, src.iterations, tuple(truncated))
    return [rows[n] for n in steps_list]


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write("steps,weight,method,seed,iterations\n")
    for r in rows:
        buf.write(f"{r.steps},{r.weight},{r.method},{r.seed},{r.iterations}\n")
    return buf.getvalue()
