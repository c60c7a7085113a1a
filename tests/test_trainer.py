"""Optimizer mechanics, the training loop's halt/restore behaviour,
horizon scoring and report serialization."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from motioncast import tensor as tz
from motioncast.dataset import MotionWindow
from motioncast.kinematics import euler_mse
from motioncast.model import (ModelConfig, init_model, load_checkpoint,
                              model_forward, named_params, predict,
                              save_checkpoint)
from motioncast.occlusion import (OcclusionMask, OcclusionSpec, RecoveryError,
                                  apply_mask, export_mask_csv, generate_mask,
                                  recover_linear_interp)
from motioncast.tensor import Tensor
from motioncast.trainer import (HORIZONS_MS, AdamState, LatencyStats,
                                NonFiniteGradient, TrainConfig, adam_step,
                                benchmark_inference, clip_gradients,
                                evaluate_mse_horizons, horizon_frame,
                                horizon_weights, init_adam, latency_json, loss_fn,
                                occlusion_eval, train_loop, write_eval_report,
                                write_loss_curve)
from oracles import reference_adam_step, reference_clip_gradients

TINY = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8, n_heads=2,
                   n_layers=1, dropout=0.0)


def make_window(seq, n=4, h=3, start=0, action=""):
    seq = np.asarray(seq, dtype=np.float64)
    prefix = seq[start:start + n]
    target = seq[start + n:start + n + h]
    history = seq[start - n:start] if start >= n else None
    return MotionWindow(prefix, target, history=history, action=action)


def tiny_windows(seed, count=4, n=4, h=3, p=6):
    rng = np.random.default_rng(seed)
    seq = np.cumsum(rng.normal(scale=0.05, size=(n + h + count, p)), axis=0)
    return [make_window(seq, n=n, h=h, start=s) for s in range(count)]


# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------

def test_horizon_frame_mapping():
    assert [horizon_frame(ms) for ms in HORIZONS_MS] == [2, 4, 8, 10, 14, 25]


def test_horizon_frame_rejects_off_grid():
    with pytest.raises(ValueError):
        horizon_frame(90)


def test_horizon_frame_other_rate():
    assert horizon_frame(80, fps=50.0) == 4


def test_horizon_weights_mean_one_and_decreasing():
    for h in (1, 3, 25):
        w = horizon_weights(h)
        assert abs(w.mean() - 1.0) < 1e-12
        assert np.all(np.diff(w) <= 0)
    assert abs(horizon_weights(25)[0] - 50 / 26) < 1e-12


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_zero_on_perfect_prediction():
    w = tiny_windows(0, count=1)[0]
    pred = Tensor(np.vstack([w.prefix, w.target]))
    assert float(loss_fn(pred, w).data) == 0.0


def test_loss_single_cell():
    w = tiny_windows(1, count=1)[0]
    full = np.vstack([w.prefix, w.target])
    full[w.n_prefix + 1, 2] += 0.5
    got = float(loss_fn(Tensor(full), w).data)
    assert abs(got - 0.25 / (3 * 6)) < 1e-15


def test_loss_ignores_prefix_rows():
    w = tiny_windows(2, count=1)[0]
    full = np.vstack([w.prefix, w.target])
    full[:w.n_prefix] += 100.0
    assert float(loss_fn(Tensor(full), w).data) == 0.0


def test_loss_shape_guard():
    w = tiny_windows(3, count=1)[0]
    with pytest.raises(tz.ShapeError):
        loss_fn(Tensor(np.zeros((5, 6))), w)


def test_weighted_loss_equals_plain_on_uniform_error():
    w = tiny_windows(4, count=1)[0]
    full = np.vstack([w.prefix, w.target + 0.3])
    plain = float(loss_fn(Tensor(full), w).data)
    weighted = float(loss_fn(Tensor(full), w, weighted=True).data)
    assert abs(plain - weighted) < 1e-12


def test_weighted_loss_prefers_early_horizons():
    w = tiny_windows(5, count=1)[0]
    early = np.vstack([w.prefix, w.target])
    early[w.n_prefix] += 1.0
    late = np.vstack([w.prefix, w.target])
    late[-1] += 1.0
    assert (float(loss_fn(Tensor(early), w, weighted=True).data)
            > float(loss_fn(Tensor(late), w, weighted=True).data))


def test_loss_gradient_reaches_parameters():
    model = init_model(TINY, seed=6)
    w = tiny_windows(6, count=1)[0]
    out = model_forward(Tensor(w.input), model)
    tz.backward(loss_fn(out, w))
    params = named_params(model)
    assert params["temporal.decoder.weight"].grad is not None
    assert np.any(params["temporal.decoder.weight"].grad != 0.0)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def one_param(value, grad):
    p = Tensor(np.array(value), requires_grad=True)
    p.grad = np.array(grad, dtype=np.float64)
    return {"w": p}


def test_adam_zero_gradient_is_a_fixed_point():
    params = one_param([1.0, -2.0], [0.0, 0.0])
    adam_step(params, init_adam(params), TrainConfig())
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    params = one_param([0.0, 0.0], [0.5, -3.0])
    cfg = TrainConfig(lr=1e-3)
    adam_step(params, init_adam(params), cfg)
    np.testing.assert_allclose(params["w"].data, [-1e-3, 1e-3], rtol=1e-6)


def test_adam_moments_accumulate():
    params = one_param([0.0], [1.0])
    state = init_adam(params)
    cfg = TrainConfig(lr=0.1)
    adam_step(params, state, cfg)
    assert state.t == 1
    assert abs(state.m["w"][0] - 0.1) < 1e-15       # (1-b1)*g
    assert abs(state.v["w"][0] - 0.001) < 1e-15     # (1-b2)*g^2
    params["w"].grad = np.array([1.0])
    adam_step(params, state, cfg)
    assert state.t == 2
    assert abs(state.m["w"][0] - 0.19) < 1e-15


def test_adam_rejects_non_finite_gradient():
    params = one_param([0.0], [float("nan")])
    with pytest.raises(NonFiniteGradient):
        adam_step(params, init_adam(params), TrainConfig())


def test_clip_noop_below_threshold():
    params = one_param([0.0, 0.0], [0.3, 0.4])
    norm = clip_gradients(params, 1.0)
    assert abs(norm - 0.5) < 1e-15
    np.testing.assert_array_equal(params["w"].grad, [0.3, 0.4])


def test_clip_scales_to_threshold():
    params = one_param([0.0, 0.0], [3.0, 4.0])
    norm = clip_gradients(params, 1.0)
    assert abs(norm - 5.0) < 1e-12
    np.testing.assert_allclose(params["w"].grad, [0.6, 0.8], atol=1e-15)
    assert abs(math.hypot(*params["w"].grad) - 1.0) < 1e-12


def _grad_cases(rng, shapes):
    """Gradient sets for the optimizer bit-equality test, one per step."""
    def spread(shape):
        mag = 10.0 ** rng.uniform(-300, 150, size=shape)
        return mag * rng.choice([-1.0, 1.0], size=shape)
    return [
        [np.zeros(s) for s in shapes],
        [np.full(s, -0.0) for s in shapes],
        [spread(s) for s in shapes],                        # clipped at norm 1
        [1e-3 * rng.normal(size=s) for s in shapes],        # unclipped
        [np.where(rng.random(s) < 0.5, -0.0, spread(s)) for s in shapes],
        [np.full(s, 1e-300) for s in shapes],
    ]


@pytest.mark.parametrize("max_norm", [1.0, 1e300])
def test_in_place_optimizer_matches_reference_bit_for_bit(max_norm):
    rng = np.random.default_rng(31)
    shapes = [(3,), (4, 5), (2, 2, 2), (1,)]
    init = [rng.normal(size=s) for s in shapes]
    sides = [{f"p{i}": Tensor(a.copy(), requires_grad=True) for i, a in enumerate(init)}
             for _ in range(2)]
    lib, ref = sides
    cfg = TrainConfig(lr=1e-2, beta1=0.8, beta2=0.99, eps=1e-8)
    state = init_adam(lib)
    m = {k: np.zeros(p.shape) for k, p in ref.items()}
    v = {k: np.zeros(p.shape) for k, p in ref.items()}
    for step, grads in enumerate(_grad_cases(rng, shapes) * 2, start=1):
        for params in sides:
            for (k, p), g in zip(params.items(), grads):
                p.grad = None if k == "p3" and step % 3 == 0 else g.copy()
        assert (clip_gradients(lib, max_norm).hex()
                == reference_clip_gradients(ref, max_norm).hex())
        adam_step(lib, state, cfg)
        reference_adam_step(ref, m, v, step, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        for k in lib:
            for a, b in ((lib[k].data, ref[k].data), (state.m[k], m[k]), (state.v[k], v[k])):
                assert a.tobytes() == b.tobytes(), (step, k)
            if lib[k].grad is not None:
                assert lib[k].grad.tobytes() == ref[k].grad.tobytes()
    assert state.t == 12
    assert any(np.any(np.signbit(p.data)) for p in lib.values())


def test_in_place_adam_checks_each_parameter_before_its_update():
    sides = [{"a": Tensor(np.ones(4), requires_grad=True),
              "b": Tensor(np.ones(2), requires_grad=True)} for _ in range(2)]
    for params in sides:
        params["a"].grad = np.full(4, 0.5)
        params["b"].grad = np.array([1.0, np.inf])
    lib, ref = sides
    with pytest.raises(NonFiniteGradient, match="'b'"):
        adam_step(lib, init_adam(lib), TrainConfig())
    with pytest.raises(ValueError, match="b"):
        reference_adam_step(ref, {k: np.zeros(p.shape) for k, p in ref.items()},
                            {k: np.zeros(p.shape) for k, p in ref.items()},
                            1, 1e-3, 0.9, 0.999, 1e-8)
    for k in lib:
        assert lib[k].data.tobytes() == ref[k].data.tobytes()
    assert not np.array_equal(lib["a"].data, np.ones(4))
    np.testing.assert_array_equal(lib["b"].data, np.ones(2))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def snapshot(model):
    return {k: p.data.copy() for k, p in named_params(model).items()}


def assert_same_weights(a, b):
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_train_zero_epochs_is_identity():
    model = init_model(TINY, seed=7)
    before = snapshot(model)
    result = train_loop(model, [], TrainConfig(epochs=0))
    assert result.curve == [] and not result.halted
    assert_same_weights(before, snapshot(model))


def test_train_needs_windows():
    with pytest.raises(ValueError):
        train_loop(init_model(TINY, seed=8), [], TrainConfig(epochs=1))


def test_train_deterministic_given_seed():
    windows = tiny_windows(9, count=5)
    cfg = TrainConfig(epochs=3, batch_size=2, seed=13)
    r1 = train_loop(init_model(TINY, seed=9), list(windows), cfg)
    r2 = train_loop(init_model(TINY, seed=9), list(windows), cfg)
    assert r1.curve == r2.curve
    assert_same_weights(snapshot(r1.model), snapshot(r2.model))


def test_train_curve_length_and_learning():
    windows = tiny_windows(10, count=6)
    cfg = TrainConfig(epochs=20, batch_size=3, seed=1)
    result = train_loop(init_model(TINY, seed=10), windows, cfg)
    assert len(result.curve) == 20 * 2  # 6 windows / batch 3
    assert [s for s, _ in result.curve] == list(range(1, 41))
    assert result.curve[-1][1] < result.curve[0][1]
    assert not result.halted


def test_train_halt_restores_last_epoch_weights():
    windows = tiny_windows(11, count=3)
    cfg = TrainConfig(epochs=3, batch_size=3, seed=2)  # one step per epoch

    clean = train_loop(init_model(TINY, seed=11), list(windows),
                       TrainConfig(epochs=1, batch_size=3, seed=2))
    reference = snapshot(clean.model)

    calls = {"n": 0}

    def sabotaged(pred, w):
        calls["n"] += 1
        base = loss_fn(pred, w)
        if calls["n"] > 3:  # poison the second optimizer step
            return tz.scale(base, float("nan"))
        return base

    model = init_model(TINY, seed=11)
    with np.errstate(invalid="ignore"):
        result = train_loop(model, list(windows), cfg, loss=sabotaged)
    assert result.halted
    assert len(result.curve) == 1  # only the first step survived
    assert_same_weights(reference, snapshot(model))


def test_train_halt_on_first_step_restores_init():
    windows = tiny_windows(12, count=2)
    model = init_model(TINY, seed=12)
    before = snapshot(model)
    bad = lambda pred, w: tz.scale(loss_fn(pred, w), float("inf"))
    with np.errstate(invalid="ignore"):
        result = train_loop(model, windows,
                            TrainConfig(epochs=2, batch_size=2), loss=bad)
    assert result.halted and result.curve == []
    assert_same_weights(before, snapshot(model))


def test_train_writes_epoch_checkpoints(tmp_path):
    windows = tiny_windows(13, count=2)
    model = init_model(TINY, seed=13)
    train_loop(model, windows, TrainConfig(epochs=2, batch_size=2, seed=3),
               checkpoint_dir=str(tmp_path))
    final = load_checkpoint(tmp_path / "epoch002.npz")
    assert (tmp_path / "epoch001.npz").exists()
    assert_same_weights(snapshot(model), snapshot(final))


def test_train_moves_only_decoders_first_step():
    """Fresh models route all gradient into the decoders, so nothing else
    moves on step one."""
    windows = tiny_windows(14, count=2)
    model = init_model(TINY, seed=14)
    before = snapshot(model)
    train_loop(model, windows, TrainConfig(epochs=1, batch_size=2))
    after = snapshot(model)
    for k in before:
        if "decoder" in k:
            assert not np.array_equal(before[k], after[k]), k
        elif "encoder" in k or "attn" in k or "ffn" in k:
            # these only feed the (initially zero) decoders on step 1
            np.testing.assert_array_equal(before[k], after[k], err_msg=k)


def test_default_train_loop_peak_memory():
    """One recorded window's saved arrays, one epoch snapshot and one set
    of gradient buffers are live at once, not two of either."""
    import gc
    import tracemalloc
    from motioncast.dataset import DatasetSpec, synth_generate, window_split
    windows = [w for seq in synth_generate(15, 2, 60, 99)
               for w in window_split(seq, DatasetSpec(stride=7))][:8]
    assert len(windows) == 8
    model = init_model(ModelConfig(), seed=15)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_loop(model, windows, TrainConfig(epochs=3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 100e6  # 115.5 MB with intermediates on the tape and two snapshots


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def long_windows(seed, count=3, p=6, action=""):
    """Windows with the full 25-frame forecast span."""
    rng = np.random.default_rng(seed)
    seq = np.cumsum(rng.normal(scale=0.03, size=(10 + 25 + count, p)), axis=0)
    return [make_window(seq, n=10, h=25, start=s, action=action)
            for s in range(count)]


def test_eval_zero_on_constant_motion():
    seq = np.tile(np.linspace(-1.0, 1.0, 6), (40, 1))
    windows = [make_window(seq, n=10, h=25, start=0)]
    report = evaluate_mse_horizons(init_model(ModelConfig(n_params=6), seed=0),
                                   windows)
    assert all(v == 0.0 for v in report.overall.values())


def test_eval_matches_direct_rescoring():
    """A fresh model forecasts by holding the last prefix pose; scoring
    that by hand must reproduce the report exactly."""
    windows = long_windows(15, count=4)
    model = init_model(ModelConfig(n_params=6), seed=0)
    report = evaluate_mse_horizons(model, windows)
    for ms, frame in zip(HORIZONS_MS, (2, 4, 8, 10, 14, 25)):
        expected = 0.0
        for w in windows:
            held = np.repeat(w.prefix[-1:], 25, axis=0)
            expected += float(euler_mse(w.target, held)[frame - 1])
        expected /= len(windows)
        assert abs(report.overall[ms] - expected) < 1e-12, ms


def test_eval_per_action_split():
    wa = long_windows(16, count=2, action="walking")
    wb = long_windows(17, count=3, action="eating")
    model = init_model(ModelConfig(n_params=6), seed=0)
    report = evaluate_mse_horizons(model, wa + wb)
    assert set(report.per_action) == {"walking", "eating"}
    only_a = evaluate_mse_horizons(model, wa)
    for ms in HORIZONS_MS:
        assert abs(report.per_action["walking"][ms] - only_a.overall[ms]) < 1e-12


def test_eval_means_equal_a_hand_loop_bit_for_bit():
    """Uneven action counts, interleaved; an unlabelled window reports as
    'all'. Each mean is a running total in window order over the count."""
    actions = ["walking", "eating", "walking", "", "walking", "eating",
               "walking", "", "walking", "smoking", "walking"]
    windows = []
    for i, a in enumerate(actions):
        windows += long_windows(40 + i, count=1, action=a)
    model = init_model(ModelConfig(n_params=6, embed_dim=16, n_heads=2,
                                   n_layers=1), seed=3)
    report = evaluate_mse_horizons(model, windows)
    rows = [horizon_frame(ms) - 1 for ms in HORIZONS_MS]
    overall = [0.0] * len(rows)
    per_action, counts = {}, {}
    for w in windows:
        scores = euler_mse(w.target[rows], predict(model, w.prefix)[rows])
        a = w.action or "all"
        counts[a] = counts.get(a, 0) + 1
        acc = per_action.setdefault(a, [0.0] * len(rows))
        for j, score in enumerate(scores):
            overall[j] += float(score)
            acc[j] += float(score)
    assert list(report.per_action) == ["walking", "eating", "all", "smoking"]
    assert report.overall == {ms: overall[j] / len(windows)
                              for j, ms in enumerate(HORIZONS_MS)}
    for a, acc in per_action.items():
        assert report.per_action[a] == {ms: acc[j] / counts[a]
                                        for j, ms in enumerate(HORIZONS_MS)}


def test_eval_order_invariant():
    windows = long_windows(18, count=5)
    model = init_model(ModelConfig(n_params=6), seed=0)
    a = evaluate_mse_horizons(model, windows)
    b = evaluate_mse_horizons(model, windows[::-1])
    for ms in HORIZONS_MS:
        assert abs(a.overall[ms] - b.overall[ms]) < 1e-12


def test_eval_requires_windows_and_span():
    model = init_model(TINY, seed=0)
    with pytest.raises(ValueError):
        evaluate_mse_horizons(model, [])
    short = tiny_windows(19, count=1)  # horizon 3 < frame 25
    with pytest.raises(ValueError):
        evaluate_mse_horizons(model, short)
    report = evaluate_mse_horizons(model, short, horizons_ms=(80,))
    assert set(report.overall) == {80}


def test_short_horizon_fails_before_any_forecast():
    """The horizon check covers every window before the first forecast or
    recovery, so a short window at the end costs no forward pass."""
    model = init_model(TINY, seed=0)
    windows = tiny_windows(19, count=2)
    windows[1] = make_window(windows[0].input[:5], n=4, h=1)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=3)
    with pytest.raises(ValueError, match="window horizon 1 shorter than 2"):
        evaluate_mse_horizons(model, windows, horizons_ms=(80,))
    with pytest.raises(ValueError, match="window horizon 1 shorter than 2"):
        occlusion_eval(model, windows, spec, "autoregressive", horizons_ms=(80,))
    with pytest.raises(ValueError, match="model horizon 3 shorter than 25"):
        evaluate_mse_horizons(model, long_windows(19, count=1))
    assert model.forward_count == 0


def test_short_term_checks_every_history_before_any_forecast():
    """A window without a history fails the run before the first forecast,
    and the error names it, wherever it sits in the list."""
    model = init_model(ModelConfig(n_params=6, n_prefix=4, horizon=4, embed_dim=8,
                                   n_heads=2, n_layers=1), seed=0)
    seq = np.cumsum(np.random.default_rng(21).normal(scale=0.05, size=(12, 6)), axis=0)
    windows = [make_window(seq, start=s) for s in (4, 5, 0)]
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=3)
    with pytest.raises(ValueError, match="window 2 has none"):
        occlusion_eval(model, windows, spec, "short_term", horizons_ms=(80,))
    assert model.forward_count == 0
    occlusion_eval(model, windows[:2], spec, "short_term", horizons_ms=(80,))
    assert model.forward_count > 0


def test_eval_report_fields():
    windows = long_windows(20, count=2)
    model = init_model(ModelConfig(n_params=6), seed=0)
    report = evaluate_mse_horizons(model, windows)
    assert report.n_windows == 2
    assert report.param_count > 0
    assert report.config_echo["n_params"] == 6
    assert report.prefix_recon_mse is None


# ---------------------------------------------------------------------------
# evaluation under occlusion
# ---------------------------------------------------------------------------

def test_occlusion_eval_ratio_zero_matches_plain():
    windows = long_windows(21, count=3)
    model = init_model(ModelConfig(n_params=6), seed=0)
    plain = evaluate_mse_horizons(model, windows)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.0, seed=5)
    occluded = occlusion_eval(model, windows, spec, "interp")
    for ms in HORIZONS_MS:
        assert abs(plain.overall[ms] - occluded.overall[ms]) < 1e-12
    assert occluded.prefix_recon_mse == 0.0


def test_occlusion_eval_deterministic():
    windows = long_windows(22, count=3)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=9)
    a = occlusion_eval(model, windows, spec, "interp")
    b = occlusion_eval(model, windows, spec, "interp")
    assert a.overall == b.overall
    assert a.prefix_recon_mse == b.prefix_recon_mse


def test_occlusion_eval_recovery_error_propagates():
    windows = long_windows(23, count=1)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="joint_dropout", ratio=1.0, seed=1)
    from motioncast.occlusion import RecoveryError
    with pytest.raises(RecoveryError):
        occlusion_eval(model, windows, spec, "interp")


def hand_interp_eval(windows, spec):
    """occlusion_eval's interp bookkeeping as a plain loop: window i's mask
    seed, the refused windows, and the reconstruction error summed left
    to right over the scored windows."""
    kept, total = [], 0.0
    for i, w in enumerate(windows):
        seed = int(np.random.SeedSequence([spec.seed, i]).generate_state(1)[0])
        mask = generate_mask(dataclasses.replace(spec, seed=seed), w.n_prefix, w.target.shape[1])
        corrupted = apply_mask(w.prefix, mask)
        if (~mask.observed).all(axis=0).any():
            continue
        recon = recover_linear_interp(corrupted, mask)
        total += float(np.mean((recon - w.prefix) ** 2))
        kept.append(dataclasses.replace(w, prefix=recon))
    return kept, total / len(kept)


@pytest.mark.parametrize("count, spec_seed, refused", [(3, 9, 0), (4, 8, 1)])
def test_interp_eval_matches_a_hand_written_loop(tmp_path, count, spec_seed, refused):
    """Masks that hide a parameter for every prefix frame refuse their
    window; the rest are scored, and ``prefix_recon_mse`` is their mean."""
    windows = long_windows(26, count=count)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=spec_seed)
    report = occlusion_eval(model, windows, spec, "interp")
    kept, recon_mse = hand_interp_eval(windows, spec)
    assert (report.n_windows, report.n_refused) == (count - refused, refused)
    assert report.prefix_recon_mse == recon_mse
    assert report.overall == evaluate_mse_horizons(model, kept).overall
    path = tmp_path / "report.json"
    write_eval_report(report, path)
    assert json.loads(path.read_text()).get("n_refused", 0) == refused


def test_interp_eval_refusing_every_window_names_the_first():
    windows = long_windows(27, count=3)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="joint_dropout", ratio=1.0, seed=1)
    with pytest.raises(RecoveryError, match="^window 0: parameter 0 has no observed frame"):
        occlusion_eval(model, windows, spec, "interp")
    assert model.forward_count == 0


def test_a_refused_interp_eval_leaves_no_reference_cycle():
    """A refusal keeps no exception whose traceback holds the frames that
    keep it, so each call's frames are freed at once, not at the next
    cyclic collection."""
    windows = long_windows(28, count=1)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="joint_dropout", ratio=1.0, seed=1)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            try:
                occlusion_eval(model, windows, spec, "interp")
            except RecoveryError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_occlusion_eval_short_term_needs_history():
    windows = long_windows(24, count=1)  # start=0 -> history is None
    assert windows[0].history is None
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=2)
    with pytest.raises(ValueError):
        occlusion_eval(model, windows, spec, "short_term")


def test_occlusion_eval_rejects_unknown_strategy():
    windows = long_windows(25, count=1)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=2)
    with pytest.raises(ValueError):
        occlusion_eval(model, windows, spec, "magic")


def test_occlusion_eval_autoregressive_on_constant_motion():
    """Constant motion + zero-velocity recovery reconstructs perfectly,
    so the occluded report equals the clean one."""
    seq = np.tile(np.linspace(0.5, 2.0, 6), (50, 1))
    windows = [make_window(seq, n=10, h=25, start=s) for s in (0, 3)]
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=3)
    report = occlusion_eval(model, windows, spec, "autoregressive")
    assert report.prefix_recon_mse < 1e-24
    assert all(v < 1e-24 for v in report.overall.values())


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def test_benchmark_counts_and_stats():
    model = init_model(TINY, seed=26)
    stats = benchmark_inference(model, reps=100, warmup=2)
    assert stats.reps == 100
    assert stats.calls_per_prediction == 1
    assert 0.0 < stats.p50_ms <= stats.p95_ms
    assert stats.mean_ms > 0.0


def test_benchmark_rejects_small_rep_counts():
    with pytest.raises(ValueError):
        benchmark_inference(init_model(TINY, seed=27), reps=10)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_write_eval_report_round_trip(tmp_path):
    windows = long_windows(28, count=2, action="walking")
    model = init_model(ModelConfig(n_params=6), seed=0)
    report = evaluate_mse_horizons(model, windows)
    report.latency = LatencyStats(mean_ms=1.5, p50_ms=1.4, p95_ms=2.0,
                                  reps=100, calls_per_prediction=1)
    path = tmp_path / "report.json"
    write_eval_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["n_windows"] == 2
    assert doc["config"]["n_params"] == 6
    assert [h["horizon_ms"] for h in doc["overall"]] == list(HORIZONS_MS)
    assert doc["overall"][0]["mse"] == report.overall[80]
    assert doc["actions"][0]["action"] == "walking"
    assert doc["latency_ms_mean"] == 1.5
    assert doc["calls_per_prediction"] == 1
    assert "prefix_reconstruction_mse" not in doc


def test_write_occlusion_report_carries_reconstruction_error(tmp_path):
    windows = long_windows(29, count=2)
    model = init_model(ModelConfig(n_params=6), seed=0)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=4)
    report = occlusion_eval(model, windows, spec, "autoregressive")
    path = tmp_path / "report.json"
    write_eval_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["prefix_reconstruction_mse"] == report.prefix_recon_mse


def test_write_loss_curve_exact(tmp_path):
    path = tmp_path / "curve.csv"
    write_loss_curve([(1, 0.5), (2, 1 / 3)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert float(lines[1].split(",")[1]) == 0.5
    assert float(lines[2].split(",")[1]) == 1 / 3  # repr round-trips


class _Unserializable:
    def __repr__(self):
        raise RuntimeError("fails midway")


def _failing_savez(fh, **arrays):
    fh.write(b"PK partial")
    raise OSError("disk full")


@pytest.mark.parametrize("writer", ["eval_report", "loss_curve", "checkpoint",
                                    "mask_csv"])
def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch, writer):
    """Each writer fills a temporary file beside the target and renames it
    into place, so a write that fails midway leaves the previous file
    byte-identical and no temporary file behind."""
    model = init_model(TINY, seed=0)
    if writer == "eval_report":
        path = tmp_path / "report.json"
        report = evaluate_mse_horizons(model, tiny_windows(30, count=1),
                                       horizons_ms=(80,))
        write_eval_report(report, path)
        report.config_echo = {"bad": _Unserializable()}
        fail = lambda: write_eval_report(report, path)
    elif writer == "loss_curve":
        path = tmp_path / "curve.csv"
        write_loss_curve([(1, 0.5)], path)
        fail = lambda: write_loss_curve([(1, 0.25), (2, _Unserializable())], path)
    elif writer == "mask_csv":
        path = tmp_path / "mask.csv"
        mask = OcclusionMask(np.ones((2, 3), dtype=bool), ratio_requested=0.0)
        export_mask_csv(mask, path)
        mask.observed = [mask.observed[0], None]  # the second row fails
        fail = lambda: export_mask_csv(mask, path)
    else:
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        monkeypatch.setattr(np, "savez", _failing_savez)
        fail = lambda: save_checkpoint(model, path)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError, OSError)):
        fail()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_save_checkpoint_appends_npz_suffix(tmp_path):
    model = init_model(TINY, seed=0)
    save_checkpoint(model, tmp_path / "ckpt")
    assert os.listdir(tmp_path) == ["ckpt.npz"]
    loaded = load_checkpoint(tmp_path / "ckpt.npz")
    for name, p in named_params(loaded).items():
        np.testing.assert_array_equal(p.data, named_params(model)[name].data)


@pytest.mark.parametrize("field_, value", [
    ("lr", float("nan")), ("lr", float("inf")),
    ("clip_norm", float("nan")), ("clip_norm", float("inf")),
    ("beta1", 1.0), ("beta1", float("nan")), ("beta2", -0.1), ("beta2", 1.0),
    ("eps", -1.0), ("eps", 0.0), ("eps", float("nan")), ("eps", float("inf")),
])
def test_train_config_rejects_non_finite_and_out_of_range(field_, value):
    with pytest.raises(ValueError, match=field_ if field_ != "lr" else "learning rate"):
        TrainConfig(**{field_: value})


def test_train_config_accepts_zero_betas():
    cfg = TrainConfig(beta1=0.0, beta2=0.0)
    assert cfg.beta1 == 0.0 and cfg.beta2 == 0.0


def test_benchmark_counts_minor_faults():
    pytest.importorskip("resource")
    stats = benchmark_inference(init_model(TINY, seed=33), reps=100, warmup=2)
    assert stats.minor_faults_per_prediction is not None
    assert stats.minor_faults_per_prediction >= 0.0


def test_benchmark_without_resource_module_reports_no_faults(monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)  # import now fails
    stats = benchmark_inference(init_model(TINY, seed=34), reps=100, warmup=2)
    assert stats.minor_faults_per_prediction is None
    assert latency_json(stats)["minor_faults_per_prediction"] is None


def test_package_imports_without_resource_module():
    code = ("import sys; sys.modules['resource'] = None; "
            "import motioncast, motioncast.cli; print('ok')")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tz.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# heap policy (tensor._pad_heap_top)
# ---------------------------------------------------------------------------

_FAULT_PROBE = """
import resource
from motioncast.dataset import DatasetSpec, synth_generate, window_split
from motioncast.model import ModelConfig, init_model
from motioncast.trainer import TrainConfig, train_loop
windows = window_split(synth_generate(1, 1, 50, 99)[0], DatasetSpec())
assert len(windows) == 4
model = init_model(ModelConfig(), seed=0)
train_loop(model, windows, TrainConfig(epochs=1, batch_size=4))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_loop(model, windows, TrainConfig(epochs=2, batch_size=2))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 8)
"""


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, AttributeError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy acts on glibc only")
def test_warm_training_windows_take_few_page_faults():
    """Without the heap-top pad, glibc trims the heap after each window's
    backward and the next window faults it back in: 6,000 to 8,000 minor
    faults per default-model window. A fresh process, because the count
    depends on what ran in it before."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tz.__file__)))
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 200


_MMAP_PROBE = """
import resource
import numpy as np
import motioncast
a = np.ones(100_000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    b = a * 2.0
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy acts on glibc only")
def test_large_temporaries_reuse_the_heap_after_import():
    """Setting M_TOP_PAD alone freezes glibc's mmap threshold at 128 KB,
    so each 800 KB temporary is mapped and faulted in afresh: about 196
    minor faults apiece, against about 4 with the threshold raised."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tz.__file__)))
    done = subprocess.run([sys.executable, "-c", _MMAP_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 10


def _fake_libc(calls):
    return lambda name: types.SimpleNamespace(mallopt=lambda *args: calls.append(args))


def _no_glibc_name(name):
    raise ValueError(f"unrecognized configuration name: {name}")


@pytest.mark.parametrize("confstr", [_no_glibc_name, lambda name: None, None])
def test_heap_policy_does_nothing_off_glibc(monkeypatch, confstr):
    calls = []
    monkeypatch.setattr(tz.ctypes, "CDLL", _fake_libc(calls))
    if confstr is None:  # no os.confstr at all, as on Windows
        monkeypatch.delattr(tz.os, "confstr")
    else:
        monkeypatch.setattr(tz.os, "confstr", confstr)
    tz._pad_heap_top()
    assert calls == []


def test_heap_policy_pads_the_heap_top_on_glibc(monkeypatch):
    calls = []
    monkeypatch.setattr(tz.ctypes, "CDLL", _fake_libc(calls))
    monkeypatch.setattr(tz.os, "confstr", lambda name: "glibc 2.36")
    tz._pad_heap_top()
    assert calls == [(-2, 64 << 20), (-3, 32 << 20)]
