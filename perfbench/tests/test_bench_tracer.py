"""Self-time arithmetic, span counting and the wrapping of linsha's namespaces."""

import pytest

from tracer import LAYER_METRICS, Tracer, call_counts, layer_metrics, self_times

# (parent, name, start ns, end ns, ok)
NESTED = [
    (-1, "cli.main", 0, 1_000, True),
    (0, "codewords.low_weight_search", 100, 600, True),
    (1, "codewords.low_weight_search", 200, 300, True),     # bootstrap, nested
    (1, "codewords.build_generator", 400, 450, True),
    (0, "primitives.expand", 700, 800, False),
]


def test_self_time_subtracts_children():
    assert self_times(NESTED) == pytest.approx([e / 1e9 for e in (400, 350, 100, 50, 100)])


def test_self_time_counts_overlapping_children_once():
    spans = [(-1, "a", 0, 100, True), (0, "b", 10, 50, True), (0, "c", 30, 70, True),
             (0, "d", 90, 130, True)]                      # d runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(30 / 1e9)  # covered: 10..70 and 90..100


def test_call_counts_by_name_and_by_parent():
    counts = call_counts(NESTED)
    assert counts["codewords.low_weight_search"] == 2
    assert counts["codewords.low_weight_search/codewords.low_weight_search"] == 1
    assert counts["cli.main/codewords.low_weight_search"] == 1
    assert counts["ringalg.build_E"] == 0


def test_layer_metrics_cover_every_traced_name():
    metrics = layer_metrics(NESTED, {"iterations_run": 5, "found_at_iteration": 2})
    untraced_only = {"cli.cpu_util", "cli.tracing_overhead"}
    assert set(metrics) == {m.name for m in LAYER_METRICS} - untraced_only
    assert metrics["codewords.low_weight_search.calls"] == 2
    assert metrics["codewords.isd_iteration_us"] == pytest.approx(450 / 5 / 1e3)
    assert metrics["codewords.found_at_share"] == pytest.approx(0.4)
    assert metrics["codewords.self_s"] == pytest.approx(500 / 1e9)
    assert metrics["ringalg.build_E.calls"] == 0
    assert metrics["disturbance.collision_ratio"] == 0.0


def test_collision_ratio_counts_raised_calls_as_failed():
    spans = [(-1, "disturbance.find_collision_add_linear", 0, 1, ok) for ok in (True, False)]
    assert layer_metrics(spans, {})["disturbance.collision_ratio"] == 0.5


def test_wrappers_cover_imported_names_and_nest_recursion():
    import linsha.cli
    import linsha.codewords as cw
    import linsha.disturbance as dist
    from linsha.primitives import ExpansionKind

    original = cw.low_weight_search
    original_collide = dist.find_collision_add_linear
    tracer = Tracer()
    tracer.install()
    try:
        assert linsha.cli.low_weight_search is cw.low_weight_search is not original
        assert linsha.cli.find_collision_add_linear is dist.find_collision_add_linear
        assert dist.find_collision_add_linear.__wrapped__ is original_collide
        params = cw.SearchParams(iterations=2, bootstrap_lengths=(17,))
        cw.low_weight_search(cw.build_generator(ExpansionKind.SHA256_XOR, 18), params)
    finally:
        tracer.uninstall()
    assert cw.low_weight_search is original
    assert linsha.cli.low_weight_search is original
    counts = call_counts(tracer.spans)
    assert counts["codewords.low_weight_search/codewords.low_weight_search"] == 1
    assert counts["codewords.build_generator"] == 2
    assert counts["primitives.rotr"] == 0                   # word-level leaves stay unwrapped
    assert all(span[4] for span in tracer.spans)
