"""The package API: lazily loaded names, each the object its home module defines."""

import importlib

import pytest

import linsha

PUBLIC = {
    "primitives": {"BoolMode", "ExpansionKind", "SboxMode", "ch", "compress", "expand", "maj",
                   "big_sigma0", "big_sigma1", "small_sigma0", "small_sigma1"},
    "variants": {"VariantConfig", "make_variant"},
    "ringalg": {"build_E", "solve_disturbance_kernel"},
    "disturbance": {"CORRECTION_COEFFS", "build_characteristic", "delay",
                    "find_collision_add_linear", "propagate"},
    "boolanalysis": {"FirstStepsError", "boolean_diff_table", "derive_activity",
                     "isolated_condition_count", "monte_carlo_local_collision",
                     "msb_disturbance", "satisfy_first16"},
    "codewords": {"GeneratorMatrix", "SearchParams", "build_generator", "extend_codeword",
                  "fig2_sweep", "low_weight_search", "single_bit_census", "verify_codeword"},
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_are_their_home_modules_objects(module):
    home = importlib.import_module(f"linsha.{module}")
    for name in PUBLIC[module]:
        obj = getattr(linsha, name)
        assert obj is vars(home)[name]
        assert getattr(obj, "__module__", home.__name__) == home.__name__


def test_all_and_dir_list_the_api():
    assert sorted(linsha.__all__) == sorted(set().union(*PUBLIC.values()))
    assert set(linsha.__all__) <= set(dir(linsha))
    assert "__version__" in dir(linsha)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from linsha import *", namespace)
    assert {name: namespace[name] for name in linsha.__all__} == {
        name: getattr(linsha, name) for name in linsha.__all__}


def test_layer_modules_resolve_and_unknown_names_raise():
    assert linsha.codewords is importlib.import_module("linsha.codewords")
    with pytest.raises(AttributeError, match="no_such_name"):
        linsha.no_such_name


# one instance of each immutable class the layers return or take, built cheaply
INSTANCES = {
    "VariantConfig": lambda: linsha.make_variant("standard"),
    "WordMatrix": lambda: linsha.build_E(),
    "DisturbanceVector": lambda: linsha.disturbance.DisturbanceVector.from_message_difference(
        linsha.solve_disturbance_kernel()[0]),
    "Characteristic": lambda: linsha.build_characteristic([1] + [0] * 15),
    "CollisionResult": lambda: linsha.find_collision_add_linear(None, 1),
    "BooleanDiffEntry": lambda: linsha.boolean_diff_table()[0],
    "ActivityRow": lambda: linsha.derive_activity([0] * 16)[0],
    "McResult": lambda: linsha.monte_carlo_local_collision(20, 64),
    "GeneratorMatrix": lambda: linsha.build_generator(linsha.ExpansionKind.SHA256_XOR, 16),
    "SearchParams": lambda: linsha.SearchParams(iterations=1),
    "SearchResult": lambda: linsha.low_weight_search(INSTANCES["GeneratorMatrix"](),
                                                     INSTANCES["SearchParams"]()),
    "SweepRow": lambda: linsha.fig2_sweep([16], INSTANCES["SearchParams"]())[0],
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_values_are_immutable(name):
    obj = INSTANCES[name]()
    assert type(obj).__name__ == name
    field = (getattr(obj, "_fields", None) or type(obj).__slots__)[0]
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is value
