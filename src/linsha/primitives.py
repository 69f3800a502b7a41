"""Reference building blocks: 32-bit word ops, Boolean functions, S-boxes,
the per-step state update, message expansion in five flavours, and the
compression function parameterised by a variant configuration.

The one state update, `_update`, runs on a plain 8-tuple with the variant's
(Σ0, Σ1, Maj, Ch) from `_functions`, which `compress` and difference
propagation resolve once per call; an identity S-box is a None Σ, for
which the register enters the sum as it is, and the modular-add Boolean
functions are a None Maj and Ch, for which the three registers do.  `step`
wraps it for every other caller.
It masks only the two words it outputs: exact on Python ints, and on numpy
`uint32` arrays every operation already wraps modulo 2^32, so it serves
single states, batches and exact difference propagation alike.  `expand`
runs on both the same way."""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from .variants import VariantConfig

M32 = 0xFFFFFFFF
MAX_STEPS = 128  # bound on N keeps expansion buffers small


def rotr(x: int, n: int) -> int:
    n &= 31
    return ((x >> n) | (x << (32 - n))) & M32


def rotl(x: int, n: int) -> int:
    return rotr(x, 32 - (n & 31))


def shr(x: int, n: int) -> int:
    return (x & M32) >> n


def weight(x: int) -> int:
    return x.bit_count()


def seq_weight(words: Sequence[int]) -> int:
    return sum(w.bit_count() for w in words)


def maj(x: int, y: int, z: int) -> int:
    return (x & (y | z)) | (y & z)


def ch(x: int, y: int, z: int) -> int:
    return z ^ (x & (y ^ z))


def add3(x: int, y: int, z: int) -> int:
    """Boolean-function replacement of the ADD-linear variant; _update adds
    the three registers itself when _functions gives None for Maj or Ch."""
    return (x + y + z) & M32


def big_sigma0(x: int) -> int:
    return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22)


def big_sigma1(x: int) -> int:
    return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25)


def small_sigma0(x: int) -> int:
    return rotr(x, 7) ^ rotr(x, 18) ^ shr(x, 3)


def small_sigma1(x: int) -> int:
    return rotr(x, 17) ^ rotr(x, 19) ^ shr(x, 10)


class SboxMode(enum.Enum):
    STANDARD = "standard"
    IDENTITY = "identity"


class BoolMode(enum.Enum):
    STANDARD = "standard"
    MODULAR_ADD = "modular-add"


class ExpansionKind(enum.Enum):
    SHA256_ADD = "sha256-add"
    SHA256_XOR = "sha256-xor"
    SHA256_ADD_ID_SIGMA = "sha256-add-id-sigma"
    SHA1_XOR = "sha1-xor"
    SHA1_ADD = "sha1-add"


class RegisterState(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int

    def add(self, other: "RegisterState") -> "RegisterState":
        return RegisterState(*((x + y) & M32 for x, y in zip(self, other)))

    def sub(self, other: "RegisterState") -> "RegisterState":
        return RegisterState(*((x - y) & M32 for x, y in zip(self, other)))


FIPS_IV = RegisterState(
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)


def as_block(words: Sequence[int]) -> tuple[int, ...]:
    """Validate a 16-word message block."""
    block = tuple(int(w) & M32 for w in words)
    if len(block) != 16:
        raise ValueError(f"message block needs exactly 16 words, got {len(block)}")
    return block


def pad_single_block(data: bytes) -> tuple[int, ...]:
    """FIPS padding for messages short enough to fit one 512-bit block."""
    if len(data) > 55:
        raise ValueError("single-block padding holds at most 55 bytes")
    padded = data + b"\x80" + b"\x00" * (55 - len(data)) + (8 * len(data)).to_bytes(8, "big")
    return tuple(int.from_bytes(padded[4 * i : 4 * i + 4], "big") for i in range(16))


def _functions(config: "VariantConfig") -> tuple:
    """The variant's (Σ0, Σ1, Maj, Ch); both Σ are None for an identity S-box
    and both Boolean functions None for their modular-add replacement."""
    standard_sboxes = config.sbox_mode is SboxMode.STANDARD
    sigmas = (big_sigma0, big_sigma1) if standard_sboxes else (None, None)
    return sigmas + ((maj, ch) if config.bool_mode is BoolMode.STANDARD else (None, None))


def _update(state: tuple, w: int, k: int, functions: tuple) -> tuple:
    """The state update on a plain 8-tuple, with functions from _functions;
    a None Σ is the identity, so the register itself enters the sum, and a
    None Maj or Ch is add3, so its three registers do."""
    bs0, bs1, f_maj, f_ch = functions
    a, b, c, d, e, f, g, h = state
    t1 = (h + (e if bs1 is None else bs1(e)) + (e + f + g if f_ch is None else f_ch(e, f, g))
          + k + w)
    t2 = (a if bs0 is None else bs0(a)) + (a + b + c if f_maj is None else f_maj(a, b, c))
    return ((t1 + t2) & M32, a, b, c, (d + t1) & M32, e, f, g)


def step(state: RegisterState, w: int, k: int, config: "VariantConfig") -> RegisterState:
    """One state update; Σ0/Σ1 and Maj/Ch are swapped out per the config.

    Registers and w are 32-bit words, or numpy uint32 arrays of one shape.
    """
    return RegisterState(*_update(state, w, k, _functions(config)))


def expand(m: Sequence[int], kind: ExpansionKind, n: int) -> list[int]:
    """Expand a 16-word block to n words under the chosen recurrence.

    Words are 32-bit ints, or numpy uint32 arrays of one shape (a batch).
    """
    if not 16 <= n <= MAX_STEPS:
        raise ValueError(f"expansion length must be in [16, {MAX_STEPS}], got {n}")
    if len(m) != 16:
        raise ValueError(f"message block needs exactly 16 words, got {len(m)}")
    w = [x & M32 for x in m]
    if kind is ExpansionKind.SHA256_ADD:
        for i in range(16, n):
            w.append((small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16]) & M32)
    elif kind is ExpansionKind.SHA256_XOR:
        for i in range(16, n):
            w.append(small_sigma1(w[i - 2]) ^ w[i - 7] ^ small_sigma0(w[i - 15]) ^ w[i - 16])
    elif kind is ExpansionKind.SHA256_ADD_ID_SIGMA:
        for i in range(16, n):
            w.append((w[i - 2] + w[i - 7] + w[i - 15] + w[i - 16]) & M32)
    elif kind is ExpansionKind.SHA1_XOR:
        for i in range(16, n):
            w.append(rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
    elif kind is ExpansionKind.SHA1_ADD:
        for i in range(16, n):
            w.append(rotl((w[i - 3] + w[i - 8] + w[i - 14] + w[i - 16]) & M32, 1))
    else:
        raise ValueError(f"unknown expansion kind: {kind!r}")
    return w


def compress(iv: RegisterState, m: Sequence[int], config: "VariantConfig") -> RegisterState:
    """Run config.steps state updates, then the feed-forward if enabled.

    m may be a (16, n) uint32 batch; the IV is then lifted onto its arrays, so
    that no sum of int registers outgrows uint32 before it meets a word array.
    """
    n = config.steps
    words = expand(m, config.expansion_kind, max(16, n))
    zero = words[0] & 0
    state = tuple(x + zero for x in iv)
    functions = _functions(config)
    for i in range(n):
        # constants cancel in every difference computation; kept verbatim anyway
        state = _update(state, words[i], K[i % 64], functions)
    state = RegisterState(*state)
    return state.add(iv) if config.feed_forward else state


def digest_hex(state: RegisterState) -> str:
    return "".join(f"{x:08x}" for x in state)
