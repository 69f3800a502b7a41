"""Named weakened variants assembled from configuration flags."""

from __future__ import annotations

import dataclasses
import json
from typing import get_type_hints

from .primitives import MAX_STEPS, BoolMode, ExpansionKind, SboxMode


@dataclasses.dataclass(frozen=True)
class VariantConfig:
    sbox_mode: SboxMode
    bool_mode: BoolMode
    expansion_kind: ExpansionKind
    steps: int = 64
    feed_forward: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [0, {MAX_STEPS}], got {self.steps}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), default=lambda mode: mode.value)

    @classmethod
    def from_json(cls, doc: str) -> "VariantConfig":
        raw = json.loads(doc)
        types = get_type_hints(cls)
        return cls(**{f.name: types[f.name](raw[f.name]) for f in dataclasses.fields(cls)})

    def replace(self, **kw) -> "VariantConfig":
        return dataclasses.replace(self, **kw)


_PRESETS = {
    # every operation linear over Z_2^32: identity S-boxes, x+y+z Boolean ops,
    # expansion without the small sigmas
    "add_linear": VariantConfig(
        SboxMode.IDENTITY, BoolMode.MODULAR_ADD, ExpansionKind.SHA256_ADD_ID_SIGMA
    ),
    # keeps the real Maj/Ch, drops all four S-boxes
    "no_sbox": VariantConfig(
        SboxMode.IDENTITY, BoolMode.STANDARD, ExpansionKind.SHA256_ADD_ID_SIGMA
    ),
    "standard": VariantConfig(SboxMode.STANDARD, BoolMode.STANDARD, ExpansionKind.SHA256_ADD),
    # expansion additions replaced by XOR, compression untouched
    "xor_expansion": VariantConfig(SboxMode.STANDARD, BoolMode.STANDARD, ExpansionKind.SHA256_XOR),
}


def make_variant(name: str) -> VariantConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; known: {sorted(_PRESETS)}") from None
