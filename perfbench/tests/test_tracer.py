"""Self-tests of the benchmark's tracer, wrap table and failure accounting.

Run with the library on the path:  PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import motioncast  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: (ns.inner(), ns.inner())
    # Clock readings in call order: outer opens, inner opens/closes twice, outer closes.
    tracer = Tracer(clock=scripted_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    with tracer:
        ns.outer()
    assert [(tracer.names[s[0]], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("outer", 0.0, 10.0, -1), ("inner", 1.0, 3.0, 0), ("inner", 4.0, 7.0, 0)]
    assert tracer.self_times() == [5.0, 2.0, 3.0]
    assert tracer.self_seconds({None}) == {"outer": 5.0, "inner": 5.0}
    assert tracer.total_seconds({None}) == {"outer": 10.0, "inner": 5.0}
    assert tracer.counted({None}) == {"outer.calls": 1, "inner.calls": 2}


def test_self_time_of_hand_built_spans_and_unattributed_share():
    tracer = Tracer()
    tracer.names = ["a", "b", "c"]
    tracer.ops = [["stream", 0.0, 20.0]]
    # a [0, 10] holds b [1, 6], which holds c [2, 3]; a second root a [12, 16].
    tracer.spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 6.0, 0, 0],
                    [2, 2.0, 3.0, 1, 0], [0, 12.0, 16.0, -1, 0]]
    assert tracer.self_times() == [5.0, 4.0, 1.0, 4.0]
    assert tracer.self_seconds({0}) == {"a": 9.0, "b": 4.0, "c": 1.0}
    assert tracer.unattributed_share({0}) == pytest.approx(6.0 / 20.0)


def test_a_raising_call_closes_its_span_and_is_counted():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(ns, "boom", "boom")
    tracer.begin_op("eval")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    tracer.end_op()
    assert tracer._stack == []
    assert tracer.counted({0}) == {"boom.calls": 1, "boom.raised": 1}


def test_every_wrapped_function_is_restored():
    tensor_matmul = motioncast.tensor.matmul
    tensor_init = motioncast.tensor.Tensor.__init__
    trainer_predict = motioncast.trainer.predict
    tracer = Tracer()
    layers.install(tracer, motioncast)
    patched = list(tracer._patches)
    assert len(patched) > 30
    assert motioncast.tensor.matmul is not tensor_matmul
    for owner, attr, original in patched:
        assert getattr(owner, attr) is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert motioncast.tensor.matmul is tensor_matmul
    assert motioncast.tensor.Tensor.__init__ is tensor_init
    assert motioncast.trainer.predict is trainer_predict


def small_model(seed=3):
    cfg = motioncast.ModelConfig(n_params=99, n_prefix=4, horizon=3, embed_dim=8,
                                 n_heads=2, n_layers=1, ffn_mult=2)
    model = motioncast.init_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for ch in (model.temporal, model.spatial):
        ch.dec_w.data[...] = rng.normal(0.0, 0.1, size=ch.dec_w.shape)
    return model


def test_traced_predict_is_bit_identical_and_attributed():
    model = small_model()
    prefix = np.random.default_rng(0).normal(0.0, 0.5, size=(4, 99))
    plain = motioncast.model.predict(model, prefix)
    tracer = Tracer()
    layers.install(tracer, motioncast)
    try:
        tracer.begin_op("stream")
        traced = motioncast.model.predict(model, prefix)
        tracer.end_op()
    finally:
        tracer.restore()
    assert np.array_equal(plain, traced)
    metrics = layers.layer_metrics(tracer, n_horizons=6)
    assert metrics["model.forward_passes"] == 1
    assert metrics["tensor.matmul.calls"] > 0 and metrics["tensor.matmul.ms"] > 0
    assert metrics["tensor.tensors_created"] > 0
    assert metrics["tensor.backward.ms"] == 0 and metrics["kinematics.euler_mse.ms"] == 0
    assert set(metrics) <= set(layers.UNITS)


def test_interp_failures_are_exactly_the_unrecoverable_masks():
    model = small_model()
    seq = motioncast.synth_generate(5, 1, 7, 99)[0]
    spec = motioncast.DatasetSpec(n_prefix=4, horizon=3, stride=1)
    window = motioncast.window_split(seq, spec)[0]
    outcomes = []
    for i in range(40):
        mask_spec = inputs.occlusion_spec(motioncast, 9, "interp", i)
        try:
            motioncast.occlusion_eval(model, [window], mask_spec, "interp",
                                      inputs.EXCLUDE, inputs.TRANSLATION, horizons_ms=(80,))
            failed = False
        except motioncast.RecoveryError:
            failed = True
        outcomes.append((failed, inputs.interp_unrecoverable(motioncast, mask_spec, 4, 99)))
    assert all(failed == expected for failed, expected in outcomes)
    assert any(failed for failed, _ in outcomes)


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
