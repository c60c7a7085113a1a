"""Seeded inputs shared by the workloads and the reference probes.

Everything here is a pure function of its seed, so the same ``--seed``
gives the same sequences, files, checkpoint and occlusion masks.
"""

from __future__ import annotations

import numpy as np

# Scoring settings of every evaluation: one excluded group (parameters
# 0-2) and one translation group (3-5), so all three euler_mse branches run.
EXCLUDE = (0,)
TRANSLATION = (3,)

# Evaluation data is captured at 50 fps and read with downsample_factor=2.
CAPTURE_FPS = 50.0
DOWNSAMPLE = 2

# Occlusion settings: time-consistent runs with a mean of 3 frames;
# interpolation at ratio 0.1, the autoregressive sweep at the CLI
# default 0.4.
MEAN_RUN_FRAMES = 3.0
INTERP_RATIO = 0.1
AR_RATIO = 0.4

_PHASE_TAGS = {"interp": 1, "ar": 2}


def forecast_model(mc, seed: int):
    """Default-size model whose decoders hold seeded non-zero weights.

    A freshly initialised model has zero decoders and forecasts the
    zero-velocity baseline; non-zero decoders make every layer's output
    reach the forecast.
    """
    model = mc.model.init_model(mc.model.ModelConfig(), seed=seed)
    rng = np.random.default_rng([seed, 7])
    for channel in (model.temporal, model.spatial):
        channel.dec_w.data[...] = rng.normal(0.0, 0.002, size=channel.dec_w.shape)
        channel.dec_b.data[...] = rng.normal(0.0, 0.002, size=channel.dec_b.shape)
    return model


def write_dataset(mc, root, seed: int, count: int, n_frames: int) -> list:
    """Write ``count`` synthetic 50 fps sequences as root/synth/seqNNN.csv.

    Returns the generated frame arrays, for checking what is read back.
    """
    seqs = mc.dataset.synth_generate(seed, count, n_frames, 99, fps=CAPTURE_FPS)
    for seq in seqs:
        mc.dataset.save_csv_sequence(seq, f"{root}/synth/{seq.action}.csv")
    return [seq.frames for seq in seqs]


def dataset_spec(mc, root):
    return mc.dataset.DatasetSpec(root=str(root), downsample_factor=DOWNSAMPLE)


def occlusion_spec(mc, seed: int, phase: str, index: int):
    """Spec of the ``index``-th occluded window of ``phase``; own mask seed each."""
    ratio = INTERP_RATIO if phase == "interp" else AR_RATIO
    mask_seed = int(np.random.SeedSequence([seed, _PHASE_TAGS[phase], index]).generate_state(1)[0])
    return mc.occlusion.OcclusionSpec("time_consistent", ratio, MEAN_RUN_FRAMES, seed=mask_seed)


def interp_unrecoverable(mc, spec, n_frames: int, n_params: int) -> bool:
    """Whether interpolation must fail on the mask occlusion_eval draws
    for a one-window set: some parameter has no observed frame."""
    window_seed = int(np.random.SeedSequence([spec.seed, 0]).generate_state(1)[0])
    mask = mc.occlusion.generate_mask(
        mc.occlusion.OcclusionSpec(spec.kind, spec.ratio, spec.mean_duration_frames,
                                   seed=window_seed), n_frames, n_params)
    return bool((~mask.observed).all(axis=0).any())
