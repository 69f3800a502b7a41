"""Word-level linear algebra over Z_2^32 for the identity-sigma ADD expansion.

The expansion recurrence W_i = W_{i-2} + W_{i-7} + W_{i-15} + W_{i-16} makes
each new word a Z_2^32-linear map of the previous sixteen.  The disturbance
module, the differences whose expansion vanishes on words 56..63 and whose
backward extension vanishes on eight boundary words, is solved on the other
eight words of that boundary window: the recurrence run on their unit windows
gives an 8x8 system, whose Smith-form kernel is mapped back to 16-word
differences.  `boundary_residuals` evaluates the same conditions on any
difference straight from the recurrence, run forwards and backwards.  The
64x16 expansion matrix E, the inverse B^-1 of its 16-step block and the 16x16
condition system built from them are the references both are tested against;
they live in tests/reference_impl.py, with the matrix-power and Gauss-Jordan
routes to E and B^-1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .primitives import M32, ExpansionKind, expand
from .variants import Frozen


class WordMatrix(Frozen):
    """A matrix over Z_2^32 as a tuple of equal-length rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged matrix")
        self._bind(rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.ncols != len(v):
            raise ValueError(f"dimension mismatch: {self.ncols} vs {len(v)}")
        return tuple(sum(a * b for a, b in zip(row, v)) & M32 for row in self.rows)


def kernel_mod_2e(system: Sequence[Sequence[int]], exponent: int = 32) -> list[tuple[int, ...]]:
    """Generators of {x : S.x = 0 mod 2^exponent} by a Smith-form elimination.

    Stage t works on the trailing block (rows and columns >= t; all else is
    already zero) and takes as pivot its entry of least (2-adic valuation,
    row, column): the first odd entry in row-major order when there is one,
    else the least of a full scan.  It swaps the pivot to (t, t), clears its
    column with row operations P, which keep the kernel, and its row with
    column operations, which it only records: t, the column j swapped in,
    and the multiplier f_k of each column k > t.  The diagonal D = P.S.C
    has kernel generators 2^(exponent - v_j).e_j for each diagonal entry of
    valuation v_j > 0, and e_j where it is zero or j is past the last row.
    Only those columns of C are built, each from e_j with the stages in
    reverse (x[t] -= sum f_k.x[k], then swap x[t] and x[j]).  Raises
    ValueError on an empty or ragged system or an exponent below 1.
    """
    s = [list(row) for row in system]
    if exponent < 1:
        raise ValueError(f"exponent must be at least 1, got {exponent}")
    if not s or not s[0] or any(len(row) != len(s[0]) for row in s):
        raise ValueError("system must be a non-empty rectangular matrix")
    mask = (1 << exponent) - 1
    nrows, n = len(s), len(s[0])
    block = [[x & mask for x in row] for row in s]      # rows and columns >= t
    stages, diag = [], [0] * n
    for t in range(min(nrows, n)):
        pivot = next(((1, i, j) for i, row in enumerate(block) for j, x in enumerate(row)
                      if x & 1), None)
        if pivot is None:
            pivot = min(((x & -x, i, j) for i, row in enumerate(block) for j, x in enumerate(row)
                         if x), default=None)
        if pivot is None:
            break
        low, i, j = pivot
        block[0], block[i] = block[i], block[0]
        for row in block:
            row[0], row[j] = row[j], row[0]
        v = low.bit_length() - 1
        top = block[0]
        inv = pow(top[0] >> v, -1, 1 << exponent)
        diag[t] = top[0]
        rest = top[1:]
        below = []
        for row in block[1:]:
            f = (row[0] >> v) * inv
            below.append([(x - f * y) & mask for x, y in zip(row[1:], rest)])
        block = below
        stages.append((t, t + j, [((x >> v) * inv) & mask for x in rest]))
    gens = []
    for g, d in enumerate(diag):
        if d & 1:
            continue
        x = [0] * n
        x[g] = 1
        for t, j, factors in reversed(stages):
            x[t] = (x[t] - sum(f * y for f, y in zip(factors, x[t + 1:]))) & mask
            x[t], x[j] = x[j], x[t]
        shift = exponent - (d & -d).bit_length() + 1 if d else 0
        gens.append(tuple((y << shift) & mask for y in x))
    if any(sum(x * y for x, y in zip(row, g)) & mask for g in gens for row in s):
        raise AssertionError("Smith-form kernel generator fails the system")
    return gens


def enumerate_module(gens: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """All elements of the module generated by gens; raises beyond 2^16."""
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
                    if len(elems) >= 1 << 16:
                        raise RuntimeError("module larger than 2^16 elements")
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


def boundary_system(strict: bool = False) -> tuple[WordMatrix, WordMatrix]:
    """The disturbance conditions on the eight free words of the boundary window.

    A difference whose backward extension vanishes on words -16..-9 (relaxed)
    or -8..-1 (strict) is fixed by the other eight words of that 16-word
    window, W[-8..-1] or W[0..7].  The recurrence run on the eight windows
    that set one free word to 1 gives every word as a Z_2^32-linear map of
    them.  Returns the 8x8 system whose rows are words 56..63, with the same
    kernel as the 16x16 condition system up to that map, and the 16x8 lift
    whose rows are words 0..15, which carries a free-word solution to its
    difference.
    """
    start = 8 if strict else 16                 # the window runs from W[-start]
    units = [[int(i == 8 + j) for i in range(16)] for j in range(8)]
    rows = tuple(zip(*(expand(u, ExpansionKind.SHA256_ADD_ID_SIGMA, start + 64) for u in units)))
    return WordMatrix(rows[start + 56:start + 64]), WordMatrix(rows[start:start + 16])


@lru_cache(maxsize=None)
def solve_disturbance_kernel(strict: bool = False) -> tuple[tuple[int, ...], ...]:
    """Generating set of the disturbance module over Z_2^32.

    Default (relaxed) system: the kernel is cyclic of order 16, generated by
    a single vector whose components are all multiples of 2^28; its 16 scalar
    multiples are the distinct disturbance patterns.  With strict=True the
    kernel collapses to order 2 (one all-or-nothing MSB pattern), and that
    generator is the one whose correction characteristic survives the message
    expansion, i.e. the one that actually produces ADD-linear collisions.

    The kernel is solved on the eight free boundary words (boundary_system)
    and its generators lifted to 16-word differences.  Returns a minimal generating set as
    a tuple: both kernels are cyclic, so it is one vector, canonicalised as
    the lexicographically smallest maximal-order generator (a non-cyclic
    kernel raises).  Both forms are solved once per process and then cached.
    """
    system, lift = boundary_system(strict)
    gens = [lift.vec(g) for g in kernel_mod_2e(system.rows)]
    if not gens:
        return ()
    elems = enumerate_module(gens)
    size = len(elems)
    if max(element_order(e) for e in elems) != size:
        raise AssertionError(f"disturbance module of order {size} is not cyclic")
    return (min(e for e in elems if element_order(e) == size),)


def backward_words(delta: Sequence[int]) -> tuple[int, ...]:
    """Words -16..-1 of the backward-extended expansion of delta.

    The recurrence run backwards, W[i-16] = W[i] - W[i-2] - W[i-7] - W[i-15]
    for i = 15..0; w[k] holds W[k-16].
    """
    if len(delta) != 16:
        raise ValueError(f"dimension mismatch: 16 vs {len(delta)}")
    w = [0] * 16 + [int(x) & M32 for x in delta]
    for i in range(15, -1, -1):
        w[i] = (w[i + 16] - w[i + 14] - w[i + 9] - w[i + 1]) & M32
    return tuple(w[:16])


def boundary_residuals(delta: Sequence[int], strict: bool = False
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both disturbance conditions on a 16-word difference, by definition.

    Expanded words 56..63, then backward words -8..-1 (strict) or -16..-9
    (relaxed); both vanish exactly on the disturbance module.  Independent of
    boundary_system, so it checks the kernel that is solved there.
    """
    back = backward_words(delta)
    return (tuple(expand(delta, ExpansionKind.SHA256_ADD_ID_SIGMA, 64)[56:64]),
            back[8:] if strict else back[:8])
