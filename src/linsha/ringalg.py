"""Word-level linear algebra over Z_2^32 for the identity-sigma ADD expansion.

The expansion recurrence W_i = W_{i-2} + W_{i-7} + W_{i-15} + W_{i-16} makes
each new word a Z_2^32-linear map of the previous sixteen, so sliding windows
evolve by a companion matrix.  This module builds that matrix, its 16-step
block power, the 64x16 expansion matrix E, and solves the kernel conditions
that characterise expanded differences vanishing on their boundary words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .primitives import M32

WORD_MOD = 1 << 32


@dataclass(frozen=True)
class WordMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def mul(self, other: "WordMatrix") -> "WordMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        ot = list(zip(*other.rows))
        return WordMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) & M32 for col in ot)
                for row in self.rows
            )
        )

    def vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.ncols != len(v):
            raise ValueError(f"dimension mismatch: {self.ncols} vs {len(v)}")
        return tuple(sum(a * b for a, b in zip(row, v)) & M32 for row in self.rows)

    def pow(self, k: int) -> "WordMatrix":
        result = identity_matrix(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base)
            k >>= 1
        return result


def identity_matrix(n: int) -> WordMatrix:
    return WordMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


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


@lru_cache(maxsize=None)
def block_advance() -> WordMatrix:
    """Sixteen-word advance: maps [W_j..W_{j+15}] to [W_{j+16}..W_{j+31}]."""
    return build_A().pow(16)


@lru_cache(maxsize=None)
def build_E() -> WordMatrix:
    """64x16 matrix with E . M equal to the 64-word identity-sigma ADD expansion.

    Stacked blocks [I; B; B^2; B^3] where B is the 16-word advance; the first
    block being the identity mirrors words 0..15 passing through unchanged.
    """
    b = block_advance()
    rows: list[tuple[int, ...]] = []
    for k in range(4):
        rows.extend(b.pow(k).rows)
    return WordMatrix(tuple(rows))


def invert(m: WordMatrix) -> WordMatrix:
    """Inverse over Z_2^32 by Gaussian elimination on odd (unit) pivots.

    A matrix is invertible mod 2^32 exactly when it is invertible mod 2, so
    pivot selection only needs an odd entry in the column.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("only square matrices invert")
    a = [list(row) for row in m.rows]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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


def _gf2_nullspace(rows: list[int], ncols: int) -> list[int]:
    """Nullspace basis of a GF(2) matrix given as int bitmask rows."""
    pivots: list[tuple[int, int]] = []
    for r in rows:
        for c, pr in pivots:
            if (r >> c) & 1:
                r ^= pr
        if r:
            c = r.bit_length() - 1
            pivots = [(pc, (p ^ r) if (p >> c) & 1 else p) for pc, p in pivots]
            pivots.append((c, r))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = 1 << free
        for c, p in pivots:
            if (p & v).bit_count() & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def kernel_mod_2e(system: Sequence[Sequence[int]], exponent: int = 32) -> list[tuple[int, ...]]:
    """Generators of {x : S.x = 0 mod 2^exponent} by bit-plane lifting.

    Level k keeps generators of the kernel mod 2^k; each is either lifted by a
    correction 2^k.c or dropped, where (lambda, c) solve a GF(2) system mixing
    the level residuals with S mod 2.  Exact by construction, no division by
    even ring elements anywhere.
    """
    s = [list(row) for row in system]
    nrows, n = len(s), len(s[0])
    s_mod2 = []
    for i in range(nrows):
        r = 0
        for j in range(n):
            if s[i][j] & 1:
                r |= 1 << j
        s_mod2.append(r)
    gens: list[list[int]] = []
    for v in _gf2_nullspace(s_mod2, n):
        gens.append([(v >> j) & 1 for j in range(n)])
    gens += [[2 if j == i else 0 for j in range(n)] for i in range(n)]
    mod = 1 << exponent
    for k in range(1, exponent):
        residuals = []
        for g in gens:
            y = [sum(s[i][j] * g[j] for j in range(n)) % mod for i in range(nrows)]
            if any(c % (1 << k) for c in y):
                raise AssertionError("lifting invariant broken")
            residuals.append([(c >> k) & 1 for c in y])
        m = len(gens)
        rows = []
        for i in range(nrows):
            r = 0
            for j in range(m):
                if residuals[j][i]:
                    r |= 1 << j
            for j in range(n):
                if s[i][j] & 1:
                    r |= 1 << (m + j)
            rows.append(r)
        new_gens = []
        for v in _gf2_nullspace(rows, m + n):
            combo = [0] * n
            for j in range(m):
                if (v >> j) & 1:
                    for t in range(n):
                        combo[t] = (combo[t] + gens[j][t]) % mod
            for t in range(n):
                if (v >> (m + t)) & 1:
                    combo[t] = (combo[t] + (1 << k)) % mod
            if any(combo):
                new_gens.append(combo)
        gens = new_gens
    unique = []
    seen = set()
    for g in gens:
        t = tuple(g)
        if t not in seen and any(g):
            seen.add(t)
            unique.append(t)
    return unique


def enumerate_module(gens: Sequence[Sequence[int]], cap: int = 1 << 16) -> set[tuple[int, ...]]:
    """All elements of the module generated by gens; raises beyond cap."""
    if not gens:
        return {tuple()}
    n = len(gens[0])
    zero = tuple([0] * n)
    elems = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = tuple((a + b) & M32 for a, b in zip(e, g))
                if s not in elems:
                    if len(elems) >= cap:
                        raise RuntimeError(f"module larger than cap {cap}")
                    elems.add(s)
                    nxt.append(s)
        frontier = nxt
    return elems


def element_order(v: Sequence[int]) -> int:
    """Additive order in (Z_2^32)^n: 2^(32 - min 2-adic valuation)."""
    if not any(v):
        return 1
    vmin = min((x & -x).bit_length() - 1 for x in v if x)
    return 1 << (32 - vmin)


@lru_cache(maxsize=None)
def _block_inverse() -> WordMatrix:
    return invert(block_advance())


@lru_cache(maxsize=None)
def condition_system(strict: bool = False) -> WordMatrix:
    """The 16x16 boundary system whose kernel is the disturbance module.

    Rows 0..7: rows 8..15 of B^3, forcing expanded words 56..63 to zero.
    Rows 8..15: a row slice of B^-1 constraining the backward extension.  The
    relaxed default uses rows 0..7 of B^-1 (backward words -16..-9); the
    strict flag switches to rows 8..15 (backward words -8..-1), which is the
    slice an expansion-consistent correction characteristic actually needs.
    See solve_disturbance_kernel for the consequences of each choice.
    """
    lo, hi = (8, 16) if strict else (0, 8)
    return WordMatrix(block_advance().pow(3).rows[8:16] + _block_inverse().rows[lo:hi])


@lru_cache(maxsize=None)
def solve_disturbance_kernel(strict: bool = False) -> tuple[tuple[int, ...], ...]:
    """Generating set of the disturbance module over Z_2^32.

    Default (relaxed) system: the kernel is cyclic of order 16, generated by
    a single vector whose components are all multiples of 2^28; its 16 scalar
    multiples are the distinct disturbance patterns.  With strict=True the
    kernel collapses to order 2 (one all-or-nothing MSB pattern), and that
    generator is the one whose correction characteristic survives the message
    expansion, i.e. the one that actually produces ADD-linear collisions.

    Returns a minimal generating set as a tuple: both kernels are cyclic, so
    it is one vector, canonicalised as the lexicographically smallest
    maximal-order generator (a non-cyclic kernel raises).  Both forms are
    solved once per process and then cached.
    """
    system = condition_system(strict)
    gens = kernel_mod_2e([list(r) for r in system.rows])
    if not gens:
        return ()
    elems = enumerate_module(gens)
    size = len(elems)
    if max(element_order(e) for e in elems) != size:
        raise AssertionError(f"disturbance module of order {size} is not cyclic")
    return (min(e for e in elems if element_order(e) == size),)


def condition_residuals(delta: Sequence[int], strict: bool = False) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Evaluate both 8-row boundary conditions on a 16-word difference."""
    system = condition_system(strict)
    return WordMatrix(system.rows[:8]).vec(delta), WordMatrix(system.rows[8:]).vec(delta)


def backward_words(delta: Sequence[int]) -> tuple[int, ...]:
    """Words -16..-1 of the backward-extended expansion of delta."""
    return _block_inverse().vec(delta)

