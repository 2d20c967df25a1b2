"""Tests of the benchmark's own logic: percentiles, failure counting,
strict JSON, the output references and the tracer.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402

lcwcheck = harness.use_checkout_source()

import workloads  # noqa: E402
from harness import closed_loop, fail_ratio, percentile, round_robin, strict_json_loads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FAILS, PASSES, Item  # noqa: E402


def run_all(items, run, check):
    return closed_loop(items, run, check, math.inf, max_items=len(items))


# -- statistics ------------------------------------------------------------------


def test_percentile_nearest_rank_leaves_ten_samples_beyond_p90_of_100():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2, 3], 50) == 2


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_fail_ratio():
    assert fail_ratio(0, 10) == 0.0
    assert fail_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        fail_ratio(0, 0)


def test_failed_items_count_as_slowest():
    loop = harness.LoopResult([0.001] * 8 + [math.inf] * 2, 10, 2, 5.0)
    assert loop.latency_ms(50) == pytest.approx(1.0)
    assert loop.latency_ms(90) == pytest.approx(5000.0)
    assert loop.throughput == pytest.approx(8 / 5.0)


def test_tracing_overhead_compares_the_same_items_and_skips_failures():
    from run import tracing_overhead_pct

    plain = harness.LoopResult([1.0, 2.0, math.inf], 3, 1, 3.0)
    traced = harness.LoopResult([1.1, 2.2, 3.0, 4.0], 4, 0, 10.3)
    assert tracing_overhead_pct(plain, traced) == pytest.approx(10.0)
    assert tracing_overhead_pct(harness.LoopResult([math.inf], 1, 1, 1.0), traced) == 0.0


def test_round_robin_keeps_every_prefix_balanced():
    out = round_robin([["a1", "a2"], ["b1", "b2"], ["c1"]])
    assert out == ["a1", "b1", "c1", "a2", "b2"]


# -- strict JSON -----------------------------------------------------------------


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", '{"x": [1.0, NaN]}', "nan", "[1, inf]"])
def test_strict_json_rejects_non_finite_numbers(text):
    with pytest.raises(ValueError):
        strict_json_loads(text)


def test_strict_json_accepts_finite_documents():
    assert strict_json_loads('{"x": [1.5, -2e-300], "y": null}') == {"x": [1.5, -2e-300], "y": None}


# -- failure counting -------------------------------------------------------------


def test_planted_wrong_verdict_is_counted():
    wl = workloads.Verdict3d()
    items = wl.setup(seed=3, workdir=None)[:18]
    planted = items[5]

    def run(item):
        verdict = wl.run(item)
        if item is planted:
            return PASSES if verdict == FAILS else FAILS
        return verdict

    loop = run_all(items, run, wl.check)
    assert (loop.attempted, loop.failed) == (18, 1)
    assert loop.failures[0][0] == planted.label
    assert math.isinf(loop.latencies[5])
    assert fail_ratio(loop.failed, loop.attempted) == pytest.approx(1 / 18)


def test_raising_item_is_counted_and_the_loop_goes_on():
    items = [Item("ok", {"want": PASSES}), Item("boom", {"want": PASSES}), Item("ok", {"want": PASSES})]

    def run(item):
        if item.label == "boom":
            raise lcwcheck.DomainError("planted")
        return PASSES

    loop = run_all(items, run, workloads.Verdict3d().check)
    assert (loop.attempted, loop.failed) == (3, 1)
    assert "DomainError" in loop.failures[0][1]


def test_prescription_over_the_error_limit_is_counted():
    wl = workloads.Perturb()
    item = Item("curv.passes", {"want": PASSES})
    assert wl.check(item, (1e-12, PASSES)) is None
    assert wl.check(item, (2e-6, PASSES)) is not None
    assert wl.check(item, (float("nan"), PASSES)) is not None


# -- cli references ----------------------------------------------------------------


def tensors_doc(name, point):
    snap = lcwcheck.compute_snapshot(lcwcheck.get_entry(name).metric, point)
    return json.loads(lcwcheck.snapshot_to_json(snap))


def test_tensor_identities_hold_on_real_output_and_catch_a_planted_error():
    point = np.array([0.3, -0.2, 0.1])
    doc = tensors_doc("sl2r", point)
    assert workloads.tensor_identity_error(doc) is None
    assert workloads.closed_form_error(doc, lcwcheck.catalog.sl2r_full_tensors(point)) is None
    bad = json.loads(json.dumps(doc))
    bad["riemann"][0][1][0][1] += 1e-6
    assert "R" in workloads.tensor_identity_error(bad)
    bad = dict(doc, scalar=doc["scalar"] + 1e-5)
    assert workloads.closed_form_error(bad, lcwcheck.catalog.sl2r_full_tensors(point)) is not None


def test_divergence_identity_is_checked_in_dim_4():
    m = lcwcheck.random_metric_near_flat(4, np.random.default_rng(5))
    doc = json.loads(lcwcheck.snapshot_to_json(lcwcheck.compute_snapshot(m, np.zeros(4))))
    assert workloads.tensor_identity_error(doc) is None
    doc["div_weyl"] = (2 * np.array(doc["div_weyl"])).tolist()
    assert "div W" in workloads.tensor_identity_error(doc)


def test_cli_check_output_exit_codes_and_strict_json():
    item = Item("check.d4.fails", {"command": "check", "exit": 10, "want": FAILS})
    good = json.dumps({"verdict": FAILS, "residual": 1.0})
    assert workloads.check_cli_output(item, (10, good)) is None
    assert "exit code" in workloads.check_cli_output(item, (0, good))
    assert "strict JSON" in workloads.check_cli_output(item, (10, '{"verdict": "%s", "det_cy": NaN}' % FAILS))
    assert "strict JSON" in workloads.check_cli_output(item, (10, '{"det_cy": nan}'))
    wrong = json.dumps({"verdict": PASSES})
    assert "verdict" in workloads.check_cli_output(item, (10, wrong))


def test_cli_inprocess_run_matches_reference():
    wl = workloads.Cli()
    item = Item("check.sl2r", {
        "args": ("check", "--metric", "sl2r", "--point=0.1,0.2,-0.3", "--format", "json"),
        "command": "check", "exit": 10, "want": FAILS})
    assert wl.check(item, wl.run_traced(item)) is None


# -- tracer ------------------------------------------------------------------------


def test_tracer_records_spans_per_item_and_restores_the_originals():
    original_auto, original_mul = lcwcheck.auto_test, lcwcheck.jets.JetSpace.mul
    original_eval = lcwcheck.dsl.MetricDef.eval_jets
    wl = workloads.Verdict3d()
    items = wl.setup(seed=1, workdir=None)[:3]
    tracer = Tracer().install()
    try:
        assert lcwcheck.auto_test is not original_auto
        loop = closed_loop(items, wl.run, wl.check, math.inf, max_items=3, tracer=tracer)
    finally:
        tracer.remove()
    assert lcwcheck.auto_test is original_auto
    assert lcwcheck.obstructions.compute_snapshot is lcwcheck.pipeline.compute_snapshot
    assert lcwcheck.jets.JetSpace.mul is original_mul
    assert lcwcheck.dsl.MetricDef.eval_jets is original_eval
    assert "main" not in vars(lcwcheck.cli.main)
    assert loop.failed == 0
    names = {s[3] for s in tracer.spans}
    assert {"bench.item", "obstructions.auto_test", "pipeline.compute_snapshot", "dsl.MetricDef.eval_jets"} <= names
    assert {s[2] for s in tracer.spans} == {1, 2, 3}
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, item, name, start, end in tracer.spans:
        assert start <= end
        if parent is not None:
            assert by_id[parent][2] == item
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    assert tracer.mul_calls > 0
    self_s = tracer.self_seconds_by_module()
    items_total = sum(e - s for _, p, _, _, s, e in tracer.spans if p is None)
    assert sum(self_s.values()) == pytest.approx(items_total, rel=1e-6)


def test_mul_count_repeats_exactly():
    wl = workloads.VerdictHd()
    items = wl.setup(seed=2, workdir=None)[:2]
    counts = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            run_all(items, wl.run, wl.check)
        finally:
            tracer.remove()
        counts.append(tracer.mul_calls)
    assert counts[0] == counts[1] > 0
