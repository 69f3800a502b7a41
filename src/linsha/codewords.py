"""The XOR-linearised message expansion as a GF(2) linear code.

Replacing the expansion's modular additions by XOR turns the set of expanded
messages into a [32N, 512] linear code; low-weight codewords correspond to
sparse expanded differences.  This module builds the generator matrix, takes
the single-bit weight census, runs a probabilistic low-weight search (one
Canteaut-Chabaud information-set decoding chain), and verifies/extends/sweeps
found words.
"""

from __future__ import annotations

import io
import math
import string
import time
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .primitives import ExpansionKind, expand, seq_weight
from .variants import Frozen

if TYPE_CHECKING:
    import numpy as np

XOR_KINDS = (ExpansionKind.SHA256_XOR, ExpansionKind.SHA1_XOR)


def bitrev32(x: int) -> int:
    return int(f"{x:032b}"[::-1], 2)


# ---------------------------------------------------------------------------
# generator matrix and census


class GeneratorMatrix(NamedTuple):
    """512 x 32N over GF(2); row j is the expansion of unit message bit j,
    bit j % 32 of message word j // 32.

    `words` holds the rows as a read-only (512, N) little-endian uint32
    array: bit b of words[j, i] is bit 32*i + b of row j, so a row's bytes
    are its bits in little-endian order.  Rank is 512 because words 0..15
    pass through.
    """

    kind: ExpansionKind
    n_steps: int
    words: np.ndarray

    @property
    def n_bits(self) -> int:
        return 32 * self.n_steps


def build_generator(kind: ExpansionKind, n_steps: int) -> GeneratorMatrix:
    """All 512 unit messages expanded as one uint32 batch."""
    if kind not in XOR_KINDS:
        raise ValueError("generator matrices exist only for the XOR-linear kinds")
    if n_steps < 16:
        raise ValueError("need at least 16 steps")
    # imported here: the census and the other commands never load numpy
    import numpy as np

    j = np.arange(512)
    units = np.zeros((16, 512), dtype=np.uint32)
    units[j // 32, j] = np.uint32(1) << (j % 32).astype(np.uint32)
    words = np.stack(expand(units, kind, n_steps), axis=1).astype("<u4", copy=False)
    words.flags.writeable = False
    return GeneratorMatrix(kind, n_steps, words)


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
    words: Sequence[int], kind: ExpansionKind = ExpansionKind.SHA256_XOR
) -> tuple[bool, int]:
    """(valid, weight): validity means the XOR recurrence holds from step 16 on."""
    ws = list(words)
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


class SearchParams(Frozen):
    """A search's iteration or time budget, its seed and its bootstrap
    lengths.  The chain pairs rows on a fixed Stern window of isd.WINDOW
    (12) bits."""

    __slots__ = ("iterations", "budget_secs", "seed", "bootstrap_lengths")

    def __init__(self, iterations: int | None = None, budget_secs: float | None = None,
                 seed: int = 0, bootstrap_lengths: tuple[int, ...] = ()) -> None:
        if iterations is None and budget_secs is None:
            raise ValueError("give an iteration count or a time budget")
        if iterations is not None and iterations < 1:
            raise ValueError("iteration budget must be positive")
        if budget_secs is not None and not 0 < budget_secs < math.inf:
            # a NaN budget never expires and an infinite one cannot be reported
            raise ValueError(f"time budget must be a positive finite number, got {budget_secs}")
        if seed < 0:
            # random.Random seeds from |seed|, so -5 would repeat 5's chain
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._bind(iterations, budget_secs, seed, bootstrap_lengths)


class SearchResult(NamedTuple):
    words: tuple[int, ...]
    weight: int
    iterations_run: int
    found_at_iteration: int | None       # None: no chain iteration found the word
    origin: str                          # "search" or "bootstrap(<steps of the incumbent>)"


def low_weight_search(
    g: GeneratorMatrix, params: SearchParams, incumbents: Sequence[SearchResult] = ()
) -> SearchResult:
    """Probabilistic minimum-weight search over the expansion code.

    One Canteaut-Chabaud chain of cheap single-column information-set
    updates, each set weighed by its rows and by the row pairs that agree on
    the Stern collision window.  Incumbents are results at at most g's
    length; the lightest extension of them stands unless the chain's find
    is strictly lighter.  Optional bootstrap stages search shorter lengths
    first and join the incumbents, which is sound because truncating a
    valid word is valid again.  A time budget is split into equal slices
    from the start, one per bootstrap stage and the last for the main
    search.  An iteration is one swap and one weighed information set, and
    every chain runs at least one, so on every code a budget that expires
    during setup still yields a word.  Deterministic for fixed (seed,
    iteration budget).
    """
    t0 = time.monotonic()
    stages = len(params.bootstrap_lengths) + 1
    incumbents = list(incumbents)
    for s, n1 in enumerate(params.bootstrap_lengths):
        if not 16 <= n1 < g.n_steps:
            raise ValueError(f"bootstrap length {n1} outside [16, {g.n_steps})")
        g1 = build_generator(g.kind, n1)
        sub = params.replace(bootstrap_lengths=())
        if params.budget_secs is not None:
            # a stage that overran leaves the next one a token slice
            end = t0 + params.budget_secs * (s + 1) / stages
            sub = sub.replace(budget_secs=max(end - time.monotonic(), 1e-6))
        incumbents.append(low_weight_search(g1, sub))

    origin = "search"
    best_w = best_words = None
    for sub in incumbents:
        extended = tuple(extend_codeword(sub.words, g.n_steps, g.kind))
        w = seq_weight(extended)
        if best_w is None or w < best_w:
            best_w, best_words = w, extended
            origin = f"bootstrap({len(sub.words)})"

    if g.n_bits == 512:
        # no redundancy, every vector is a codeword; a unit vector is minimal
        words = tuple([1] + [0] * (g.n_steps - 1))
        return SearchResult(words, 1, 0, None, "search")

    # imported here: the chain runs on numpy, which the other commands never load
    from .isd import chain_search

    iterations = params.iterations if params.iterations is not None else 1 << 62
    deadline = t0 + params.budget_secs if params.budget_secs is not None else None
    # the seed a search's first chain always had, so every earlier result stays bit for bit
    w, words, found_at, iters_done = chain_search(g.words, params.seed * 1000003, iterations,
                                                  deadline)
    # the incumbent stands, found at no iteration, unless the chain's word is lighter
    if best_w is None or w < best_w:
        best_w, best_words, origin = w, words, "search"
    else:
        found_at = None
    valid, weight = verify_codeword(best_words, g.kind)
    if not valid or weight != best_w:
        raise AssertionError("search produced an invalid word; layout bug")
    return SearchResult(best_words, weight, iters_done, found_at, origin)


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
            if len(line) != 8 or line.strip(string.hexdigits):
                raise ValueError(f"expected 8 hex digits per line, got {line!r}")
            words.append(int(line, 16))
    return words


def write_codeword_file(path: str, words: Sequence[int], comments: Sequence[str]) -> None:
    """The format load_codeword_file reads: each comment as a # line, then
    one 8-hex-digit word per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([*(f"# {c}\n" for c in comments), *(f"{w:08x}\n" for w in words)])


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


# ---------------------------------------------------------------------------
# weight-vs-steps sweep


class SweepRow(NamedTuple):
    steps: int
    weight: int
    method: str                  # "searched" or "extended"
    iterations: int
    words: tuple[int, ...]


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
    if not steps_list:
        raise ValueError("sweep range is empty")
    if steps_list[0] < 16 or steps_list[-1] > 64:
        raise ValueError("sweep range must lie within [16, 64]")
    if search_horizon < steps_list[0]:
        raise ValueError(f"search horizon {search_horizon} lies below the sweep's first "
                         f"step count {steps_list[0]}, so no row is searched to extend")
    rows: dict[int, SweepRow] = {}
    best_searched: SweepRow | None = None
    params = params.replace(bootstrap_lengths=())
    searched40: SearchResult | None = None
    for n in steps_list:
        if n <= search_horizon:
            if n > 40 and searched40 is None:
                searched40 = low_weight_search(build_generator(kind, 40), params)
            res = low_weight_search(build_generator(kind, n), params,
                                    (searched40,) if n > 40 else ())
            if n == 40:
                searched40 = res
            row = SweepRow(n, res.weight, "searched", res.iterations_run, res.words)
            best_searched = row
        else:
            ext = extend_codeword(best_searched.words, n, kind)
            row = SweepRow(n, seq_weight(ext), "extended", best_searched.iterations, tuple(ext))
        rows[n] = row
    # monotone truncation pass, longest to shortest
    for n, longer in reversed(list(zip(steps_list, steps_list[1:]))):
        src = rows[longer]
        truncated = list(src.words[:n])
        w = seq_weight(truncated)
        if w < rows[n].weight:
            rows[n] = SweepRow(n, w, src.method, src.iterations, tuple(truncated))
    return [rows[n] for n in steps_list]


def sweep_csv(rows: Sequence[SweepRow], seed: int) -> str:
    """The sweep's rows as CSV; every row repeats the sweep's seed."""
    buf = io.StringIO()
    buf.write("steps,weight,method,seed,iterations\n")
    for r in rows:
        buf.write(f"{r.steps},{r.weight},{r.method},{seed},{r.iterations}\n")
    return buf.getvalue()
