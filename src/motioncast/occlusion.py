"""Occlusion masks and the three recovery strategies.

A mask flags which cells of an N-frame pose window were actually
observed. Two generators produce them: ``time_consistent`` starts
missing runs at random (frame, parameter) cells with exponentially
distributed durations, the way a flaky marker drops out for a stretch of
time; ``joint_dropout`` removes whole 3-parameter joints for the entire
window. Recovery fills the occluded cells before any forecasting
happens — the model itself never sees a corruption flag.

All three strategies (the ``recover_*`` functions) are bit-exact
identities on observed cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import atomic_open
from .model import TwoChannelTransformer, predict

__all__ = [
    "RecoveryError",
    "OcclusionMask",
    "OcclusionSpec",
    "gen_time_consistent",
    "gen_joint_dropout",
    "generate_mask",
    "apply_mask",
    "recover_linear_interp",
    "recover_short_term",
    "recover_autoregressive",
    "export_mask_csv",
]

KINDS = ("time_consistent", "joint_dropout")


class RecoveryError(Exception):
    """A recovery strategy cannot reconstruct the requested cells."""


@dataclass
class OcclusionMask:
    """Boolean observation grid: True = observed, False = occluded."""

    observed: np.ndarray
    ratio_requested: float

    def __post_init__(self):
        self.observed = np.ascontiguousarray(self.observed)
        if self.observed.dtype != np.bool_ or self.observed.ndim != 2:
            raise ValueError("observed must be a 2-D boolean grid")
        if not (0.0 <= self.ratio_requested <= 1.0):
            raise ValueError("ratio_requested must lie in [0, 1]")

    @property
    def occluded_fraction(self) -> float:
        return 1.0 - float(self.observed.mean())


@dataclass
class OcclusionSpec:
    kind: str = "time_consistent"
    ratio: float = 0.4
    mean_duration_frames: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (0.0 <= self.ratio <= 1.0):
            raise ValueError("ratio must lie in [0, 1]")
        if self.mean_duration_frames < 1.0:
            raise ValueError("mean_duration_frames must be >= 1")


def gen_time_consistent(spec: OcclusionSpec, n_frames: int, n_params: int) -> OcclusionMask:
    """Accumulate missing runs until the occluded fraction reaches the ratio.

    Each event starts at a uniformly random (frame, parameter) cell and
    lasts an exponential number of frames (mean ``mean_duration_frames``,
    rounded up, clipped at the window end). Events may overlap, so the
    achieved fraction overshoots the request only by the tail of the
    final event. Deterministic for a given seed.
    """
    rng = np.random.default_rng(spec.seed)
    observed = np.ones((n_frames, n_params), dtype=bool)
    total = n_frames * n_params
    need = spec.ratio * total
    occluded = 0
    while occluded < need - 1e-9:
        frame = int(rng.integers(n_frames))
        param = int(rng.integers(n_params))
        dur = max(1, math.ceil(rng.exponential(spec.mean_duration_frames)))
        stop = min(n_frames, frame + dur)
        run = observed[frame:stop, param]
        occluded += int(run.sum())
        run[:] = False
    return OcclusionMask(observed=observed, ratio_requested=spec.ratio)


def gen_joint_dropout(spec: OcclusionSpec, n_frames: int, n_params: int) -> OcclusionMask:
    """Fully occlude round(ratio * P/3) random joints for every frame."""
    if n_params % 3 != 0:
        raise ValueError(f"n_params {n_params} is not divisible into 3-parameter joints")
    n_joints = n_params // 3
    k = int(math.floor(spec.ratio * n_joints + 0.5))
    if k > n_joints:
        raise ValueError(f"ratio {spec.ratio} asks for {k} of {n_joints} joints")
    rng = np.random.default_rng(spec.seed)
    observed = np.ones((n_frames, n_params), dtype=bool)
    for j in rng.choice(n_joints, size=k, replace=False):
        observed[:, 3 * j:3 * j + 3] = False
    return OcclusionMask(observed=observed, ratio_requested=spec.ratio)


def generate_mask(spec: OcclusionSpec, n_frames: int, n_params: int) -> OcclusionMask:
    if spec.kind == "time_consistent":
        return gen_time_consistent(spec, n_frames, n_params)
    return gen_joint_dropout(spec, n_frames, n_params)


def _masked_prefix(prefix, mask: OcclusionMask) -> np.ndarray:
    """``prefix`` as float64, checked to have the mask's shape."""
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.shape != mask.observed.shape:
        raise ValueError(
            f"prefix shape {prefix.shape} does not match mask {mask.observed.shape}")
    return prefix


def apply_mask(prefix: np.ndarray, mask: OcclusionMask) -> np.ndarray:
    """Zero out occluded cells; the mask itself carries the flags."""
    prefix = _masked_prefix(prefix, mask)
    corrupted = prefix.copy()
    corrupted[~mask.observed] = 0.0
    return corrupted


def recover_linear_interp(corrupted: np.ndarray, mask: OcclusionMask) -> np.ndarray:
    """Per parameter, fill occluded runs by linear interpolation in time.

    Interior runs between observed frames a < b are filled on the line
    through the two observations (bidirectional information); runs that
    touch the window start or end hold the nearest observed value.
    """
    corrupted = _masked_prefix(corrupted, mask)
    out = corrupted.copy()
    t = np.arange(corrupted.shape[0])
    for p in range(corrupted.shape[1]):
        obs = mask.observed[:, p]
        if obs.all():
            continue
        if not obs.any():
            raise RecoveryError(
                f"parameter {p} has no observed frame; interpolation is impossible, "
                "use a model-based recovery strategy")
        out[~obs, p] = np.interp(t[~obs], t[obs], corrupted[obs, p])
    return out


def recover_short_term(history: np.ndarray, corrupted: np.ndarray,
                       mask: OcclusionMask, model: TwoChannelTransformer) -> np.ndarray:
    """Forecast the corrupted window from the clean window before it.

    ``history`` is the N-frame window immediately preceding ``corrupted``.
    Occluded cells take the forecast, observed cells keep their data.
    """
    if history is None:
        raise RecoveryError("short-term recovery needs the clean window before this one")
    history = np.asarray(history, dtype=np.float64)
    corrupted = _masked_prefix(corrupted, mask)
    n = corrupted.shape[0]
    if model.config.horizon < n:
        raise RecoveryError(
            f"model horizon {model.config.horizon} cannot cover a {n}-frame window")
    out = corrupted.copy()
    occ = ~mask.observed
    if occ.any():
        forecast = predict(model, history)[:n]
        out[occ] = forecast[occ]
    return out


def recover_autoregressive(corrupted: np.ndarray, mask: OcclusionMask,
                           model: TwoChannelTransformer) -> np.ndarray:
    """Sweep the window 2 frames (80 ms at 25 fps) at a time.

    Each step forecasts from the reconstruction built so far and
    overwrites only the occluded cells of the next two frames. Occluded
    cells with no earlier observation in their column are seeded with the
    first observed value of that column (hold-nearest); a column with no
    observation at all keeps its fill value until the sweep reaches it.
    The sweep makes ceil(occluded-span / 2) model calls.
    """
    corrupted = _masked_prefix(corrupted, mask)
    recon = corrupted.copy()
    occ = ~mask.observed
    if not occ.any():
        return recon
    occ_frames = np.flatnonzero(occ.any(axis=1))
    # The first step reads the most forecast rows: 2, or 1 at the last frame.
    rows = min(2, len(occ) - occ_frames[0])
    if model.config.horizon < rows:
        raise RecoveryError(
            f"model horizon {model.config.horizon} cannot cover a {rows}-frame sweep step")

    # Seed leading occluded runs so early steps have defined history.
    for p in range(corrupted.shape[1]):
        col_obs = np.flatnonzero(mask.observed[:, p])
        if col_obs.size and col_obs[0] > 0:
            recon[:col_obs[0], p] = recon[col_obs[0], p]

    for pos in range(occ_frames[0], occ_frames[-1] + 1, 2):
        hist = recon[:max(pos, 1)]
        short = max(model.config.n_prefix - len(hist), 0)
        forecast = predict(model, np.pad(hist, ((short, 0), (0, 0)), mode="edge"))
        hit = occ[pos:pos + 2]
        recon[pos:pos + 2][hit] = forecast[:len(hit)][hit]
    return recon


def export_mask_csv(mask: OcclusionMask, path) -> None:
    """Write the grid as comma-separated 0/1 rows (1 = observed)."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in mask.observed:
            fh.write(",".join("1" if v else "0" for v in row))
            fh.write("\n")
