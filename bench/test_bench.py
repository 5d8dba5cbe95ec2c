"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import random
from pathlib import Path

import pytest

import gate
import layers
import workloads
from spans import Tracer
from treedom import census, trees


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner(dt):
        clock.now += dt

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner(2.0)
        clock.now += 0.5
        traced_inner(3.0)

    tracer.wrap("outer", outer)()
    s = tracer.summary()
    assert s["outer"] == {"calls": 1, "self_s": 1.5, "raised": 0}
    assert s["inner"] == {"calls": 2, "self_s": 5.0, "raised": 0}


def test_raised_span_is_recorded_and_reraised():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"] == {"calls": 1, "self_s": 1.0, "raised": 1}


def test_wrappers_are_installed_and_removed():
    before = (trees.Tree.__dict__["__post_init__"], census.canonical_code, census.classify)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert census.canonical_code is not before[1]
        trees.Tree(3, ((0, 1), (1, 2)))
        assert tracer.summary()["trees.Tree"]["calls"] == 1
    finally:
        tracer.restore()
    assert (trees.Tree.__dict__["__post_init__"], census.canonical_code, census.classify) == before


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_seed_changes_witness_and_certify_inputs_only():
    assert workloads.census_inputs(1) == workloads.census_inputs(2)
    for make in (workloads.witness_inputs, workloads.certify_inputs):
        a, b = make(1), make(2)
        assert [i.n for i in a] == [i.n for i in b]
        assert all(x.text != y.text for x, y in zip(a, b))
        assert make(1) == a


@pytest.fixture(scope="module")
def census_output():
    (inp,) = workloads.census_inputs(0)
    return workloads.census_op(inp)


def _census_failed(output):
    attempted, failed = gate.check_census(
        output, random.Random(0), gate.load_reference(), lambda message: None)
    return failed / attempted


def test_census_output_passes(census_output):
    assert _census_failed(census_output) == 0


def test_dropped_census_row_fails(census_output):
    csv_text, report_text = census_output
    lines = csv_text.splitlines(keepends=True)
    dropped = "".join(lines[:100] + lines[101:])
    assert _census_failed((dropped, report_text)) > 0


def _reference(name, shape):
    make_inputs, op = workloads.WORKLOADS[name]
    inputs = [i for i in gate.reference_inputs(make_inputs) if i.name == shape]
    return inputs, [op(i) for i in inputs], gate.load_reference()[name]


def _failed_ratio(name, inputs, outputs, digests=None):
    attempted, failed = gate.check_outputs(name, inputs, outputs, lambda m: None, digests)
    return failed / attempted


def test_flipped_witness_vertex_fails():
    inputs, outputs, digests = _reference("witness", "prufer-100")
    assert _failed_ratio("witness", inputs, outputs, digests) == 0
    d = json.loads(outputs[0])
    v = d["beta_witness"][0]
    d["beta_witness"] = sorted(set(d["beta_witness"]) ^ {v, v + 1})
    flipped = [json.dumps(d, indent=2)]
    assert _failed_ratio("witness", inputs, flipped) > 0


def test_edited_certificate_line_fails():
    inputs, outputs, digests = _reference("certify", "grown-a-80")
    assert _failed_ratio("certify", inputs, outputs, digests) == 0
    lines = outputs[0].splitlines(keepends=True)
    kind, attach, new = lines[-2].split()
    lines[-2] = f"{kind} attach={int(attach.split('=')[1]) ^ 1} {new}\n"
    edited = ["".join(lines)]
    assert edited != outputs
    assert _failed_ratio("certify", inputs, edited, digests) > 0


def test_not_member_for_a_member_fails():
    inputs, _, _ = _reference("certify", "qtree-80")
    assert _failed_ratio("certify", inputs, ["NOT_MEMBER\n"]) > 0


def test_calibration_time_inside_an_interval():
    import calibrate

    cal = calibrate.Calibration.__new__(calibrate.Calibration)
    cal.loops = [(1.0, 2.0), (3.0, 5.0)]
    assert cal.inside(1.5, 4.0) == 1.5
    assert cal.factor() == calibrate.REFERENCE_S / 1.5
