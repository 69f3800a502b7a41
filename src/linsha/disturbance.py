"""Differential characteristics for the fully linearised compression function.

A disturbance injected into one expanded word is cancelled over the following
eight steps by a fixed correction schedule; summing a disturbance vector with
its delayed, coefficient-weighted copies yields the complete characteristic.
Everything here is exact arithmetic over Z_2^32: no probabilities involved.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .primitives import (FIPS_IV, M32, ExpansionKind, RegisterState, _functions, _update, as_block,
                         compress, expand)
from .variants import make_variant

# correction coefficients at offsets 1..8 after a disturbance (offset 0 is the
# disturbance itself, weight 1); offset 7 is the lone structural zero
CORRECTION_COEFFS: tuple[int, ...] = (-4, 2, 2, 4, 2, 1, 0, -1)


def propagate(delta_w: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Exact register-difference table of the fully linear add_linear variant.

    Row s is the 8-tuple of register differences before step s; there are
    len(delta_w) + 1 rows.  Differences propagate independently of the actual
    state because the whole step map is affine, so updating the zero state
    with the word differences and a zero constant computes them exactly.
    """
    functions = _functions(make_variant("add_linear"))
    rows = [(0,) * 8]
    for dw in delta_w:
        rows.append(_update(rows[-1], dw, 0, functions))
    return tuple(RegisterState(*row) for row in rows)


def superpose(delta: Sequence[int], coeffs: Sequence[int] = CORRECTION_COEFFS) -> tuple[int, ...]:
    """Superpose a disturbance sequence with its weighted delayed copies.

    C[j] = delta[j] + sum_k coeffs[k-1] * delta[j-k]; negative coefficients are
    Z_2^32 residues.  delta is any word sequence: a full 64-word disturbance
    vector or an isolated single-word disturbance.
    """
    if len(coeffs) != 8:
        raise ValueError("expected 8 correction coefficients for offsets 1..8")
    words = [int(x) & M32 for x in delta]
    c = []
    for j in range(len(words)):
        acc = words[j]
        for k in range(1, 9):
            if j - k >= 0:
                acc += coeffs[k - 1] * words[j - k]
        c.append(acc & M32)
    return tuple(c)


@lru_cache(maxsize=1)
def single_disturbance_table() -> tuple[RegisterState, ...]:
    """Register differences k steps after one unit disturbance with its
    corrections, for k = 0..16: the table that every disturbance scales."""
    return propagate(superpose([1] + [0] * 15))


def expansion_mismatches(words: Sequence[int]) -> list[int]:
    """Steps where a sequence violates the identity-sigma ADD recurrence."""
    return [
        i
        for i in range(16, len(words))
        if words[i] != (words[i - 2] + words[i - 7] + words[i - 15] + words[i - 16]) & M32
    ]


class CollisionError(RuntimeError):
    """The characteristic failed to produce a collision; carries diagnostics."""

    def __init__(self, message: str, mismatch_steps: list[int], digest_delta: tuple[int, ...]):
        super().__init__(message)
        self.mismatch_steps = mismatch_steps
        self.digest_delta = digest_delta


class CollisionResult(NamedTuple):
    message: tuple[int, ...]
    message_prime: tuple[int, ...]
    digest: RegisterState


def random_block(rng) -> tuple[int, ...]:
    return tuple(rng.getrandbits(32) for _ in range(16))


def scaled_kernel(multiple: int, strict: bool = True) -> list[int]:
    """multiple * (kernel generator), the 16-word disturbance a collision applies.

    Rejects a multiple outside 0..15 and one that scales the generator to
    zero, which would pair every message with itself.
    """
    if not 0 <= multiple <= 15:
        raise ValueError("multiple must be in 0..15")
    # imported here: table1 and table2 load this module, and never ringalg
    from .ringalg import element_order, solve_disturbance_kernel
    delta = solve_disturbance_kernel(strict)[0]
    scaled = [(multiple * x) & M32 for x in delta]
    if not any(scaled):
        raise ValueError(
            f"multiple {multiple} scales the {'strict' if strict else 'relaxed'} kernel "
            f"generator (order {element_order(delta)}) to zero, which pairs each message "
            "with itself"
        )
    return scaled


@lru_cache(maxsize=None)
def _kernel_words(multiple: int, strict: bool) -> tuple[int, ...]:
    """The 64 superposed words of multiple * delta, without a register table;
    its 64 expanded words E . delta come from the recurrence, not from E."""
    return superpose(expand(scaled_kernel(multiple, strict), ExpansionKind.SHA256_ADD_ID_SIGMA, 64))


def find_collision_add_linear(
    m: Sequence[int], multiple: int, strict: bool = True
) -> CollisionResult:
    """Apply a kernel-derived characteristic to m and demand equal digests.

    The applied message difference is the first 16 words of the correction
    characteristic of multiple * delta.  The default strict kernel (order 2)
    is the one whose characteristic survives the message expansion;
    strict=False applies the relaxed order-16 kernel, whose characteristics
    never do.  Because the variant is affine the collision check is
    deterministic; a mismatch is raised as a hard error with the recurrence
    steps at which the characteristic stops being a valid expansion, since
    that is the only way the cancellation can break.  A multiple that scales
    delta to zero would pair m with itself and is rejected.  The
    characteristic's 64 words depend only on (multiple, strict) and are built
    once per pair, without the register table that propagate would add;
    both compressions and the digest check run on every call.
    """
    block = as_block(m)
    words = _kernel_words(multiple, strict)
    m_prime = tuple((x + d) & M32 for x, d in zip(block, words[:16]))
    config = make_variant("add_linear")
    digest = compress(FIPS_IV, block, config)
    digest_prime = compress(FIPS_IV, m_prime, config)
    if digest != digest_prime:
        mism = expansion_mismatches(words)
        raise CollisionError(
            "characteristic does not survive the message expansion: "
            f"recurrence broken at steps {mism[:6]}{'...' if len(mism) > 6 else ''}; "
            "its backward extension words -8..-1 are nonzero, so the applied "
            "16-word difference expands to something other than the designed schedule",
            mism,
            digest_prime.sub(digest),
        )
    return CollisionResult(block, m_prime, digest)
