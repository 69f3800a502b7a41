"""Named weakened variants assembled from configuration flags, and the base
of the package's validated immutable values, VariantConfig among them."""

from __future__ import annotations

import json

from .primitives import MAX_STEPS, BoolMode, ExpansionKind, SboxMode


class Frozen:
    """Base of the immutable value classes whose construction checks its
    fields.  A subclass names its fields in __slots__, in the order of its
    __init__'s parameters, and binds them with _bind.  Instances compare and
    hash by their fields, and replace() builds a new one, so it checks again.
    """

    __slots__ = ()

    def _bind(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; use replace()")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class VariantConfig(Frozen):
    """Which S-boxes, Boolean functions and expansion a variant uses, its
    step count and whether it feeds forward."""

    __slots__ = ("sbox_mode", "bool_mode", "expansion_kind", "steps", "feed_forward")

    def __init__(self, sbox_mode: SboxMode, bool_mode: BoolMode, expansion_kind: ExpansionKind,
                 steps: int = 64, feed_forward: bool = True) -> None:
        if not 0 <= steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [0, {MAX_STEPS}], got {steps}")
        self._bind(sbox_mode, bool_mode, expansion_kind, steps, feed_forward)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), default=lambda mode: mode.value)


# in the order the `vectors` command reports them
PRESETS = {
    "standard": VariantConfig(SboxMode.STANDARD, BoolMode.STANDARD, ExpansionKind.SHA256_ADD),
    # every operation linear over Z_2^32: identity S-boxes, x+y+z Boolean ops,
    # expansion without the small sigmas
    "add_linear": VariantConfig(
        SboxMode.IDENTITY, BoolMode.MODULAR_ADD, ExpansionKind.SHA256_ADD_ID_SIGMA
    ),
    # keeps the real Maj/Ch, drops all four S-boxes
    "no_sbox": VariantConfig(
        SboxMode.IDENTITY, BoolMode.STANDARD, ExpansionKind.SHA256_ADD_ID_SIGMA
    ),
    # expansion additions replaced by XOR, compression untouched
    "xor_expansion": VariantConfig(SboxMode.STANDARD, BoolMode.STANDARD, ExpansionKind.SHA256_XOR),
}


def make_variant(name: str) -> VariantConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; known: {sorted(PRESETS)}") from None
