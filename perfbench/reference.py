"""Independent re-implementations used to check CLI outputs at any seed.

The benchmark must not trust the code it measures to judge its own answers,
so the two checks that need arithmetic are written out again here from the
definitions: the SHA-256 XOR expansion recurrence (codeword validity) and the
ADD-linear compression function (collision validity).  Only the published
constants are taken from the package.
"""

from __future__ import annotations

from typing import Sequence

M32 = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & M32


def xor_expand(m: Sequence[int], n: int) -> list[int]:
    """SHA-256 message expansion with every modular addition replaced by XOR."""
    w = list(m[:16])
    for i in range(16, n):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append(s1 ^ w[i - 7] ^ s0 ^ w[i - 16])
    return w


def is_codeword(words: Sequence[int]) -> bool:
    return len(words) >= 16 and xor_expand(words, len(words)) == list(words)


def add_linear_digest(block: Sequence[int]) -> tuple[int, ...]:
    """64-step compression with identity S-boxes, x+y+z for Maj and Ch, the
    sigma-free additive expansion and the feed-forward."""
    from linsha.primitives import FIPS_IV, K

    w = list(block)
    for i in range(16, 64):
        w.append((w[i - 2] + w[i - 7] + w[i - 15] + w[i - 16]) & M32)
    a, b, c, d, e, f, g, h = FIPS_IV
    for i in range(64):
        t1 = (h + e + e + f + g + K[i] + w[i]) & M32
        t2 = (a + a + b + c) & M32
        a, b, c, d, e, f, g, h = (t1 + t2) & M32, a, b, c, (d + t1) & M32, e, f, g
    return tuple((x + y) & M32 for x, y in zip((a, b, c, d, e, f, g, h), FIPS_IV))
