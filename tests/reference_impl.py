"""Reference implementations that only the tests call.

`linsha.ringalg` solves the disturbance kernel on an 8x8 boundary system and
evaluates its conditions straight from the expansion recurrence.  The 16x16
condition system both are checked against lives here: rows 56..63 of the
64x16 expansion matrix E over a row slice of the inverse block B^-1, with E
and B^-1 read off the recurrence run forwards and backwards on unit words.
So do the textbook routes to E and B^-1 that those are checked against: the
companion matrix A of the recurrence, its powers, and Gauss-Jordan inversion
over Z_2^32.  `add3` is the modular-add Boolean function that the add-linear
step applies inline, and `rotate_words_left` the word rotation that shows
the XOR-expansion code is not rotation-closed.  `linsha.isd` builds a
systematic form from the generator's message basis by single-column swaps;
the route here is a full reduced elimination over the permuted generator.
`kernel_mod_2e` builds only the generator columns of its Smith transform
from recorded stages; the route here applies every stage to all of the
transform.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random
from typing import Sequence

import numpy as np

from linsha.primitives import M32, ExpansionKind, expand, rotl
from linsha.ringalg import WordMatrix, backward_words

WORD_MOD = 1 << 32


def add3(x: int, y: int, z: int) -> int:
    return (x + y + z) & M32


def rotate_words_left(words: Sequence[int], r: int = 1) -> list[int]:
    return [rotl(w, r) for w in words]


@lru_cache(maxsize=None)
def build_E() -> WordMatrix:
    """64x16 matrix with E . M equal to the 64-word identity-sigma ADD expansion.

    Column j is the expansion of unit message word j.  Its blocks of sixteen
    rows are [I; B; B^2; B^3], B being the 16-word advance A^16.
    """
    units = [[int(i == j) for i in range(16)] for j in range(16)]
    cols = [expand(u, ExpansionKind.SHA256_ADD_ID_SIGMA, 64) for u in units]
    return WordMatrix(tuple(zip(*cols)))


@lru_cache(maxsize=None)
def block_inverse() -> WordMatrix:
    """B^-1: column j holds the backward words of unit message word j."""
    cols = [backward_words([int(i == j) for i in range(16)]) for j in range(16)]
    return WordMatrix(tuple(zip(*cols)))


@lru_cache(maxsize=None)
def condition_system(strict: bool = False) -> WordMatrix:
    """The 16x16 boundary system whose kernel is the disturbance module.

    Rows 0..7: rows 8..15 of B^3, i.e. rows 56..63 of E, forcing expanded
    words 56..63 to zero.
    Rows 8..15: a row slice of B^-1 constraining the backward extension.  The
    relaxed default uses rows 0..7 of B^-1 (backward words -16..-9); the
    strict flag switches to rows 8..15 (backward words -8..-1), which is the
    slice an expansion-consistent correction characteristic actually needs.
    """
    lo, hi = (8, 16) if strict else (0, 8)
    return WordMatrix(build_E().rows[56:64] + block_inverse().rows[lo:hi])


def condition_residuals(delta: Sequence[int], strict: bool = False
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Evaluate both 8-row boundary conditions on a 16-word difference."""
    system = condition_system(strict)
    return WordMatrix(system.rows[:8]).vec(delta), WordMatrix(system.rows[8:]).vec(delta)


def mul(a: WordMatrix, b: WordMatrix) -> WordMatrix:
    if a.ncols != len(b.rows):
        raise ValueError(f"dimension mismatch: {a.ncols} vs {len(b.rows)}")
    cols = list(zip(*b.rows))
    return WordMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) & M32 for col in cols)
                            for row in a.rows))


def matrix_pow(m: WordMatrix, k: int) -> WordMatrix:
    result = identity_matrix(len(m.rows))
    while k:
        if k & 1:
            result = mul(result, m)
        k >>= 1
        if k:
            m = mul(m, m)
    return result


def identity_matrix(n: int) -> WordMatrix:
    return WordMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def build_A() -> WordMatrix:
    """One-word window advance: rows 0..14 shift, row 15 applies the recurrence.

    Taps {0, 1, 9, 14} express W_{j+16} = W_j + W_{j+1} + W_{j+9} + W_{j+14},
    which is the recurrence read off a window starting at j.
    """
    rows = [[0] * 16 for _ in range(16)]
    for r in range(15):
        rows[r][r + 1] = 1
    for c in (0, 1, 9, 14):
        rows[15][c] = 1
    return WordMatrix(tuple(tuple(r) for r in rows))


def block_advance() -> WordMatrix:
    """Sixteen-word advance: maps [W_j..W_{j+15}] to [W_{j+16}..W_{j+31}]."""
    return WordMatrix(build_E().rows[16:32])


def invert(m: WordMatrix) -> WordMatrix:
    """Inverse over Z_2^32 by Gaussian elimination on odd (unit) pivots.

    A matrix is invertible mod 2^32 exactly when it is invertible mod 2, so
    pivot selection only needs an odd entry in the column.
    """
    n = len(m.rows)
    if n != m.ncols:
        raise ValueError("only square matrices invert")
    a = [list(row) for row in m.rows]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] & 1), None)
        if piv is None:
            raise ValueError("matrix singular mod 2")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = pow(a[col][col], -1, WORD_MOD)
        a[col] = [(x * scale) & M32 for x in a[col]]
        inv[col] = [(x * scale) & M32 for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) & M32 for x, y in zip(a[r], a[col])]
                inv[r] = [(x - f * y) & M32 for x, y in zip(inv[r], inv[col])]
    return WordMatrix(tuple(tuple(row) for row in inv))


def systematic_by_elimination(
    gen: np.ndarray, perm: list[int], k: int, n: int, rng: Random
) -> np.ndarray:
    """Redundancy part of the generator in systematic form on positions 0..k-1.

    Reduced Gaussian elimination of the columns taken in the order of perm
    (position -> original column); a pivotless column i is swapped with the
    random redundancy column rng.randrange(k, n) until one has a pivot, and
    perm records every swap.  Positions 0..k-1 then hold the identity, so
    only the word-major words of columns k.. are returned (k is a multiple
    of 64).  The permuted generator is built here, bit by bit, not by the
    packing that `linsha.isd` uses.
    """
    # bit p of row r is bit perm[p] of generator row r; word-major uint64
    # words: element [w, r] holds bits 64w..64w+63 of row r
    bits = np.unpackbits(gen.view(np.uint8), axis=1, bitorder="little")
    padded = np.zeros((len(gen), 64 * -(-n // 64)), dtype=np.uint8)
    padded[:, :n] = bits[:, perm]
    arr = np.packbits(padded, axis=1, bitorder="little").view("<u8").T.copy()
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


def kernel_by_full_transform(system: Sequence[Sequence[int]],
                              exponent: int = 32) -> list[tuple[int, ...]]:
    """Generators of {x : S.x = 0 mod 2^exponent}, with every stage applied to all of C.

    The same pivots as `linsha.ringalg.kernel_mod_2e`, but row operations
    over whole rows and each stage's column operations applied to all n
    columns of C at once, which then holds every column of the transform.
    """
    s = [list(row) for row in system]
    if exponent < 1:
        raise ValueError(f"exponent must be at least 1, got {exponent}")
    if not s or not s[0] or any(len(row) != len(s[0]) for row in s):
        raise ValueError("system must be a non-empty rectangular matrix")
    mask = (1 << exponent) - 1
    nrows, n = len(s), len(s[0])
    a = [[x & mask for x in row] for row in s]
    cols = [[int(i == j) for i in range(n)] for j in range(n)]     # C, column by column
    diag = [0] * n
    for t in range(min(nrows, n)):
        pivot = next(((1, i, j) for i in range(t, nrows) for j in range(t, n) if a[i][j] & 1),
                     None)
        if pivot is None:
            pivot = min(((x & -x, i, j) for i in range(t, nrows) for j in range(t, n)
                         if (x := a[i][j])), default=None)
        if pivot is None:
            break
        low, i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        cols[t], cols[j] = cols[j], cols[t]
        v = low.bit_length() - 1
        inv = pow(a[t][t] >> v, -1, 1 << exponent)
        top = a[t]
        for row in a[t + 1:]:
            if row[t]:
                f = (row[t] >> v) * inv
                row[:] = [(x - f * y) & mask for x, y in zip(row, top)]
        for k in range(t + 1, n):
            if top[k]:
                f = (top[k] >> v) * inv
                cols[k] = [(x - f * y) & mask for x, y in zip(cols[k], cols[t])]
                top[k] = 0
        diag[t] = top[t]
    gens = []
    for d, col in zip(diag, cols):
        if d & 1:
            continue
        shift = exponent - (d & -d).bit_length() + 1 if d else 0
        gens.append(tuple((x << shift) & mask for x in col))
    if any(sum(x * y for x, y in zip(row, g)) & mask for g in gens for row in s):
        raise AssertionError("Smith-form kernel generator fails the system")
    return gens
