"""Reference implementations that only the tests call.

`linsha.ringalg` reads E and B^-1 off the expansion recurrence, run forwards
and backwards on unit words.  The routes here are the textbook ones they are
checked against: the companion matrix A of the recurrence, its powers, and
Gauss-Jordan inversion over Z_2^32.  `variant_from_json` reads a
`VariantConfig.to_json` document back.
"""

from __future__ import annotations

import json

from linsha.primitives import M32, BoolMode, ExpansionKind, SboxMode
from linsha.ringalg import WordMatrix, build_E
from linsha.variants import VariantConfig

WORD_MOD = 1 << 32


def mul(a: WordMatrix, b: WordMatrix) -> WordMatrix:
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} vs {b.nrows}")
    cols = list(zip(*b.rows))
    return WordMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) & M32 for col in cols)
                            for row in a.rows))


def matrix_pow(m: WordMatrix, k: int) -> WordMatrix:
    result = identity_matrix(m.nrows)
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
    n = m.nrows
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


def variant_from_json(doc: str) -> VariantConfig:
    raw = json.loads(doc)
    types = (SboxMode, BoolMode, ExpansionKind, int, bool)
    return VariantConfig(**{name: t(raw[name]) for name, t in zip(VariantConfig.__slots__, types)})
