"""Output checks, and the probes whose results are stored in reference.json.

The probes use a fixed seed, so their results do not depend on the
workload seed and can be stored with the benchmark. ``make_reference.py``
writes them; every run recomputes and compares them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import inputs

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 20230216

# Reference values may differ from a recomputation by this share of the
# largest reference magnitude: far above the rounding that reordered
# float sums leave after a forward pass, far below any modelling change.
RTOL = 1e-8

STREAM_PROBE_FORECASTS = 8
EVAL_PROBE_FRAMES = 100     # at 50 fps: 50 frames after downsampling, 4 windows


def zero_velocity_identity(mc, seed: int):
    """A fresh (zero-decoder) model repeats the last observed pose, bit for bit."""
    model = mc.model.init_model(mc.model.ModelConfig(), seed=seed)
    prefix = np.random.default_rng([seed, 11]).normal(0.0, 0.5, size=(10, 99))
    future = mc.model.predict(model, prefix)
    expected = np.repeat(prefix[-1:], model.config.horizon, axis=0)
    ok = np.array_equal(future, expected)
    return "zero_velocity_identity", ok, "bit-exact" if ok else (
        f"max deviation {np.abs(future - expected).max():.3e}")


def stream_probe(mc, workdir) -> list:
    """Forecasts of a saved-and-loaded checkpoint over consecutive frames,
    each reduced to four fixed random projections."""
    path = Path(workdir) / "probe_stream.npz"
    mc.model.save_checkpoint(inputs.forecast_model(mc, REFERENCE_SEED), path)
    model = mc.model.load_checkpoint(path)
    n = model.config.n_prefix
    frames = mc.dataset.synth_generate(REFERENCE_SEED, 1, n + STREAM_PROBE_FORECASTS, 99)[0].frames
    proj = np.random.default_rng(REFERENCE_SEED).normal(size=(4, model.config.horizon * 99))
    return [(proj @ mc.model.predict(model, frames[i:i + n]).ravel()).tolist()
            for i in range(STREAM_PROBE_FORECASTS)]


def evaluate_probe(mc, workdir) -> dict:
    """Per-horizon MSEs of plain, interpolated and autoregressive scoring
    on a fixed four-window set; None marks an unrecoverable window."""
    root = Path(workdir) / "probe_eval"
    inputs.write_dataset(mc, root, REFERENCE_SEED, 1, EVAL_PROBE_FRAMES)
    spec = inputs.dataset_spec(mc, root)
    windows = [w for seq in mc.dataset.load_dataset(spec) for w in mc.dataset.window_split(seq, spec)]
    model = inputs.forecast_model(mc, REFERENCE_SEED)
    tr = mc.trainer
    plain = tr.evaluate_mse_horizons(model, windows, inputs.EXCLUDE, inputs.TRANSLATION)
    out = {"plain": [plain.overall[ms] for ms in plain.horizons_ms]}
    for phase, strategy in (("interp", "interp"), ("ar", "autoregressive")):
        rows = []
        for i, w in enumerate(windows):
            try:
                rep = tr.occlusion_eval(model, [w], inputs.occlusion_spec(mc, REFERENCE_SEED, phase, i),
                                        strategy, inputs.EXCLUDE, inputs.TRANSLATION)
                rows.append([rep.overall[ms] for ms in rep.horizons_ms])
            except mc.occlusion.RecoveryError:
                rows.append(None)
        out[phase] = rows
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _flat(x):
    if x is None:
        return [None]
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _flat(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in _flat(item)]
    return [float(x)]


def matches_reference(name: str, got, ref):
    """Same structure, same unrecoverable windows, values within RTOL."""
    a, b = _flat(got), _flat(ref)
    if len(a) != len(b) or any((x is None) != (y is None) for x, y in zip(a, b)):
        return name, False, "structure or unrecoverable windows differ from the reference"
    xs = np.array([x for x, y in zip(a, b) if y is not None])
    ys = np.array([y for y in b if y is not None])
    scale = max(1.0, float(np.abs(ys).max()))
    worst = float(np.abs(xs - ys).max())   # NaN if a value is NaN, which fails below
    ok = worst <= RTOL * scale
    return name, ok, f"max deviation {worst:.3e} (tolerance {RTOL * scale:.3e}) over {len(ys)} values"
