"""Which motioncast functions the traced run wraps, and the per-layer
metrics derived from the spans and counts they record.

Layers are the package's modules: tensor, model, dataset, kinematics,
occlusion and trainer. Each function is wrapped at every place a caller
looks it up: ``trainer`` imports ``predict``, ``euler_mse`` and the
recovery functions by name, ``model`` and ``occlusion`` import
``build_padded_input`` and ``predict``, while ``tensor`` and
``kinematics`` call their own module globals.
"""

from __future__ import annotations

import os

# Phases whose operations are forecasts or windows. The other phases are
# "ingest" (one dataset load) and "setup" (one checkpoint load).
WINDOW_PHASES = ("stream", "train", "eval", "interp", "ar")

# Span name -> per-layer metric of its summed self time per operation.
SELF_MS = {
    "tensor.matmul": "tensor.matmul.ms",
    "tensor.softmax_masked": "tensor.softmax_masked.ms",
    "tensor.layer_norm": "tensor.layer_norm.ms",
    "tensor.elementwise": "tensor.elementwise.ms",
    "tensor.add_bias": "tensor.add_bias.ms",
    "tensor.shape_ops": "tensor.shape_ops.ms",
    "tensor.backward": "tensor.backward.ms",
    "model.temporal_channel_forward": "model.temporal_channel_forward.ms",
    "model.spatial_channel_forward": "model.spatial_channel_forward.ms",
    "model.train_forward": "model.train_forward.ms",
    "dataset.build_padded_input": "dataset.build_padded_input.ms",
    "kinematics.euler_mse": "kinematics.euler_mse.ms",
    "trainer.loss_fn": "trainer.loss_fn.ms",
    "trainer.clip_gradients": "trainer.clip_gradients.ms",
    "trainer.adam_step": "trainer.adam_step.ms",
}

# Span name -> metric of its duration with children, per operation.
TOTAL_MS = {
    "model.temporal_channel_forward": "model.temporal_channel_forward.total_ms",
    "model.spatial_channel_forward": "model.spatial_channel_forward.total_ms",
    "model.train_forward": "model.train_forward.total_ms",
}


# Unit of every per-layer metric, in the order the benchmark doc lists them.
UNITS = {
    **{metric: "ms/op" for metric in SELF_MS.values()},
    **{metric: "ms/op" for metric in TOTAL_MS.values()},
    "tensor.matmul.calls": "count/op",
    "tensor.matmul.mflop": "MFLOP/op",
    "tensor.matmul.computed_mb": "MB/op",
    "tensor.tensors_created": "count/op",
    "tensor.tape_nodes": "count/op",
    "model.forward_passes": "count/op",
    "model.load_checkpoint.ms": "ms/call",
    "dataset.load_csv_sequence.ms": "ms/file",
    "dataset.window_split.ms": "ms/file",
    "dataset.frames_parsed": "count/file",
    "dataset.bytes_read": "B/file",
    "kinematics.rotation_conversions": "count/op",
    "kinematics.frames_scored": "count/op",
    "kinematics.useful_frame_ratio": "ratio",
    "occlusion.generate_mask.ms": "ms/op",
    "occlusion.recover_linear_interp.ms": "ms/op",
    "occlusion.recover_autoregressive.ms": "ms/op",
    "occlusion.ar_predicts": "count/op",
    "occlusion.recovery_failures": "count/op",
    "occlusion.recovery_success_ratio": "ratio",
    "trainer.steps": "count/op",
    "trainer.eval_forecast_share": "share",
    "bench.unattributed_share": "share",
    "bench.op_p50_untraced_ms": "ms",
    "bench.op_p50_traced_ms": "ms",
    "bench.trace_overhead_ms": "ms",
    "bench.generator_lag_p95_ms": "ms",
    "bench.queue_wait_p95_ms": "ms",
}


def _matmul_counts(out, a, b):
    batch = out.size // (a.shape[-2] * b.shape[-1])
    flop = 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]
    return {"tensor.matmul.flop": flop,
            "tensor.matmul.bytes": 8 * (a.size + b.size + out.size)}


def _csv_counts(seq, path, *args, **kwargs):
    return {"dataset.frames_parsed": seq.n_frames,
            "dataset.bytes_read": os.path.getsize(path)}


def _euler_counts(errors, target, *args, **kwargs):
    return {"kinematics.frames_scored": len(errors)}


def install(tracer, mc) -> None:
    """Wrap every traced motioncast function; ``tracer.restore()`` undoes it.

    A call of ``trainer.model_forward`` (the forward pass of training)
    opens a new "train" operation, since ``train_loop`` runs its windows
    without returning to the caller in between.
    """
    tz, model, ds, kin, occ, tr = (mc.tensor, mc.model, mc.dataset,
                                   mc.kinematics, mc.occlusion, mc.trainer)
    w = tracer.wrap
    w(tz, "matmul", "tensor.matmul", counter=_matmul_counts)
    for fn in ("softmax_masked", "layer_norm", "elementwise", "add_bias"):
        w(tz, fn, "tensor." + fn)
    for fn in ("transpose", "reshape", "narrow"):
        w(tz, fn, "tensor.shape_ops")
    w(tz, "backward", "tensor.backward",
      on_enter=lambda: tracer.count("tensor.tape_nodes", tz.tape_size()))
    tracer.wrap_count(tz.Tensor, "__init__", "tensor.tensors_created")

    w(model, "temporal_channel_forward", "model.temporal_channel_forward")
    w(model, "spatial_channel_forward", "model.spatial_channel_forward")
    w(model, "model_forward", "model.model_forward")
    w(model, "predict", "model.predict")
    w(model, "load_checkpoint", "model.load_checkpoint")
    w(model, "build_padded_input", "dataset.build_padded_input")
    w(tr, "model_forward", "model.train_forward",
      on_enter=lambda: tracer.begin_op("train"))

    w(ds, "load_dataset", "dataset.load_dataset")
    w(ds, "load_csv_sequence", "dataset.load_csv_sequence", counter=_csv_counts)
    w(ds, "window_split", "dataset.window_split")
    w(ds, "build_padded_input", "dataset.build_padded_input")

    w(tr, "euler_mse", "kinematics.euler_mse", counter=_euler_counts)
    tracer.wrap_count(kin, "expmap_to_rotmat", "kinematics.rotation_conversions")
    tracer.wrap_count(kin, "rotmat_to_euler", "kinematics.rotation_conversions")

    w(tr, "generate_mask", "occlusion.generate_mask")
    w(tr, "recover_linear_interp", "occlusion.recover_linear_interp")
    w(tr, "recover_autoregressive", "occlusion.recover_autoregressive")
    w(occ, "predict", "occlusion.predict")

    w(tr, "loss_fn", "trainer.loss_fn")
    w(tr, "clip_gradients", "trainer.clip_gradients")
    w(tr, "adam_step", "trainer.adam_step")
    w(tr, "predict", "trainer.predict")
    w(tr, "evaluate_mse_horizons", "trainer.evaluate_mse_horizons")
    w(tr, "occlusion_eval", "trainer.occlusion_eval")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_horizons: int) -> dict:
    """Per-layer figures of one traced segment, each per operation.

    Operations are forecasts or windows. The dataset parsing figures are
    per loaded file, ``model.load_checkpoint.ms`` per load, and the
    occlusion figures per occluded window of the phase that runs them.
    Layers a workload leaves idle read 0.
    """
    ops = tracer.op_ids(WINDOW_PHASES)
    everything = set(range(len(tracer.ops)))
    n = len(ops)
    own = tracer.self_seconds(ops)
    total = tracer.total_seconds(ops)
    counts = tracer.counted(ops)
    out = {metric: _ratio(own.get(span, 0.0) * 1e3, n) for span, metric in SELF_MS.items()}
    out.update({metric: _ratio(total.get(span, 0.0) * 1e3, n)
                for span, metric in TOTAL_MS.items()})

    out["tensor.matmul.calls"] = _ratio(counts.get("tensor.matmul.calls", 0), n)
    out["tensor.matmul.mflop"] = _ratio(counts.get("tensor.matmul.flop", 0) / 1e6, n)
    out["tensor.matmul.computed_mb"] = _ratio(counts.get("tensor.matmul.bytes", 0) / 1e6, n)
    out["tensor.tensors_created"] = _ratio(counts.get("tensor.tensors_created", 0), n)
    out["tensor.tape_nodes"] = _ratio(counts.get("tensor.tape_nodes", 0), n)
    out["model.forward_passes"] = _ratio(counts.get("model.model_forward.calls", 0)
                                         + counts.get("model.train_forward.calls", 0), n)
    setup = tracer.op_ids(("setup",))
    out["model.load_checkpoint.ms"] = _ratio(
        tracer.self_seconds(setup).get("model.load_checkpoint", 0.0) * 1e3,
        tracer.counted(setup).get("model.load_checkpoint.calls", 0))

    all_own = tracer.self_seconds(everything)
    all_counts = tracer.counted(everything)
    files = all_counts.get("dataset.load_csv_sequence.calls", 0)
    out["dataset.load_csv_sequence.ms"] = _ratio(all_own.get("dataset.load_csv_sequence", 0.0) * 1e3, files)
    out["dataset.window_split.ms"] = _ratio(all_own.get("dataset.window_split", 0.0) * 1e3, files)
    out["dataset.frames_parsed"] = _ratio(all_counts.get("dataset.frames_parsed", 0), files)
    out["dataset.bytes_read"] = _ratio(all_counts.get("dataset.bytes_read", 0), files)

    out["kinematics.rotation_conversions"] = _ratio(counts.get("kinematics.rotation_conversions", 0), n)
    frames = counts.get("kinematics.frames_scored", 0)
    out["kinematics.frames_scored"] = _ratio(frames, n)
    out["kinematics.useful_frame_ratio"] = _ratio(
        counts.get("kinematics.euler_mse.calls", 0) * n_horizons, frames)

    interp, ar = tracer.op_ids(("interp",)), tracer.op_ids(("ar",))
    occluded = interp | ar
    occ_own = tracer.self_seconds(occluded)
    out["occlusion.generate_mask.ms"] = _ratio(occ_own.get("occlusion.generate_mask", 0.0) * 1e3, len(occluded))
    out["occlusion.recover_linear_interp.ms"] = _ratio(
        occ_own.get("occlusion.recover_linear_interp", 0.0) * 1e3, len(interp))
    out["occlusion.recover_autoregressive.ms"] = _ratio(
        occ_own.get("occlusion.recover_autoregressive", 0.0) * 1e3, len(ar))
    out["occlusion.ar_predicts"] = _ratio(tracer.counted(ar).get("occlusion.predict.calls", 0), len(ar))
    attempts = (counts.get("occlusion.recover_linear_interp.calls", 0)
                + counts.get("occlusion.recover_autoregressive.calls", 0))
    failures = (counts.get("occlusion.recover_linear_interp.raised", 0)
                + counts.get("occlusion.recover_autoregressive.raised", 0))
    out["occlusion.recovery_failures"] = _ratio(failures, len(occluded))
    out["occlusion.recovery_success_ratio"] = _ratio(attempts - failures, attempts)

    out["trainer.steps"] = _ratio(counts.get("trainer.adam_step.calls", 0), n)
    plain = tracer.total_seconds(tracer.op_ids(("eval",)))
    forecast = plain.get("trainer.predict", 0.0)
    out["trainer.eval_forecast_share"] = _ratio(forecast, forecast + plain.get("kinematics.euler_mse", 0.0))
    out["bench.unattributed_share"] = tracer.unattributed_share(ops)
    return out
