"""Variant configuration contracts."""

import functools

import pytest

from linsha.primitives import BoolMode, ExpansionKind, SboxMode
from linsha.variants import MAX_STEPS, PRESETS, VariantConfig, make_variant


def test_standard_preset():
    cfg = make_variant("standard")
    assert cfg.sbox_mode is SboxMode.STANDARD
    assert cfg.bool_mode is BoolMode.STANDARD
    assert cfg.expansion_kind is ExpansionKind.SHA256_ADD
    assert cfg.steps == 64


def test_add_linear_preset_is_fully_affine():
    cfg = make_variant("add_linear")
    assert cfg.sbox_mode is SboxMode.IDENTITY
    assert cfg.bool_mode is BoolMode.MODULAR_ADD
    assert cfg.expansion_kind is ExpansionKind.SHA256_ADD_ID_SIGMA


def test_no_sbox_preset_keeps_boolean_functions():
    cfg = make_variant("no_sbox")
    assert cfg.sbox_mode is SboxMode.IDENTITY
    assert cfg.bool_mode is BoolMode.STANDARD
    assert cfg.expansion_kind is ExpansionKind.SHA256_ADD_ID_SIGMA


def test_xor_expansion_preset():
    cfg = make_variant("xor_expansion")
    assert cfg.expansion_kind is ExpansionKind.SHA256_XOR
    assert cfg.sbox_mode is SboxMode.STANDARD


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_variant("turbo")


def test_steps_bounds():
    make_variant("standard").replace(steps=0)
    make_variant("standard").replace(steps=MAX_STEPS)
    with pytest.raises(ValueError):
        make_variant("standard").replace(steps=MAX_STEPS + 1)
    with pytest.raises(ValueError):
        make_variant("standard").replace(steps=-1)


def test_json_roundtrip(capsys):
    # the variant-run report's "variant" object reads back to the config that ran
    import json

    from linsha.cli import main

    types = (SboxMode, BoolMode, ExpansionKind, int)
    for name in ("standard", "add_linear", "no_sbox", "xor_expansion"):
        assert main(["variant-run", "--variant", name, "--steps", "48"]) == 0
        raw = json.loads(capsys.readouterr().out)["result"]["variant"]
        cfg = VariantConfig(**{f: t(raw[f]) for f, t in zip(VariantConfig.__slots__, types)})
        assert cfg == make_variant(name).replace(steps=48)


def test_config_is_hashable_and_frozen():
    cfg = make_variant("standard")
    hash(cfg)
    with pytest.raises(AttributeError):
        cfg.steps = 10


def test_presets_compare_and_hash_by_value():
    assert len(set(PRESETS.values())) == len(PRESETS)
    for cfg in PRESETS.values():
        twin = VariantConfig(cfg.sbox_mode, cfg.bool_mode, cfg.expansion_kind)
        assert twin == cfg and hash(twin) == hash(cfg) and twin is not cfg
        assert cfg.replace(steps=40) != cfg
        assert cfg != (cfg.sbox_mode, cfg.bool_mode, cfg.expansion_kind, 64)


def test_config_is_a_cache_key():
    seen = []

    @functools.lru_cache(maxsize=None)
    def cached(cfg):
        seen.append(cfg)
        return cfg.steps

    cfg = make_variant("no_sbox")
    assert cached(cfg) == cached(cfg.replace(steps=64)) == 64
    assert cached(VariantConfig(**cfg._asdict())) == 64
    assert cached(cfg.replace(steps=40)) == 40
    assert seen == [cfg, cfg.replace(steps=40)]


def test_replace_rejects_unknown_fields():
    with pytest.raises(TypeError):
        make_variant("standard").replace(rounds=3)
    # every variant feeds forward, so there is no field to turn it off
    with pytest.raises(TypeError):
        VariantConfig(SboxMode.STANDARD, BoolMode.STANDARD, ExpansionKind.SHA256_ADD,
                      feed_forward=False)
