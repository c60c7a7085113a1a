"""Training, evaluation, occlusion benchmarking and latency measurement.

The loss is plain MSE on axis-angle parameters of the predicted future
rows — Euler extraction is kept out of the objective because its gimbal
branches are hostile to gradients; evaluation converts to Euler angles.
Optimization is the bias-corrected adaptive-moment method with a global
gradient-norm clip. Every run is bit-reproducible from its seed:
shuffling, dropout and synthetic data all derive from explicit
generators.

Horizon bookkeeping is fixed at 25 fps, so the standard millisecond
marks map to future-frame indices 80->2, 160->4, 320->8, 400->10,
560->14, 1000->25.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tz
from .dataset import MotionWindow, atomic_open
from .kinematics import euler_mse
from .model import (ModelConfig, TwoChannelTransformer, model_forward,
                    named_params, param_count, predict, save_checkpoint)
from .occlusion import (OcclusionSpec, RecoveryError, apply_mask, generate_mask,
                        recover_autoregressive, recover_linear_interp,
                        recover_short_term)
from .tensor import Tensor

__all__ = [
    "HORIZONS_MS",
    "NonFiniteGradient",
    "TrainConfig",
    "AdamState",
    "EvalReport",
    "LatencyStats",
    "horizon_frame",
    "loss_fn",
    "horizon_weights",
    "init_adam",
    "clip_gradients",
    "adam_step",
    "TrainResult",
    "train_loop",
    "evaluate_mse_horizons",
    "occlusion_eval",
    "benchmark_inference",
    "write_eval_report",
    "write_loss_curve",
]

HORIZONS_MS = (80, 160, 320, 400, 560, 1000)

RECOVERY_STRATEGIES = ("interp", "short_term", "autoregressive")


class NonFiniteGradient(Exception):
    """A gradient was NaN/inf after clipping; the step was aborted."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    seed: int = 0
    horizon_weighting: bool = False

    def __post_init__(self):
        # Written so that NaN fails every check: each comparison with NaN
        # is false.
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


@dataclass
class LatencyStats:
    mean_ms: float
    p50_ms: float
    p95_ms: float
    reps: int
    calls_per_prediction: int
    minor_faults_per_prediction: Optional[float] = None


@dataclass
class EvalReport:
    """Per-action / per-horizon Euler-MSE means plus run provenance."""

    horizons_ms: tuple
    overall: dict                 # horizon_ms -> mean MSE
    per_action: dict              # action -> {horizon_ms -> mean MSE}
    n_windows: int                # windows scored
    param_count: int
    config_echo: dict
    prefix_recon_mse: Optional[float] = None
    latency: Optional[LatencyStats] = None
    n_refused: int = 0            # windows whose recovery refused, not scored


def horizon_frame(ms: int, fps: float = 25.0) -> int:
    """Millisecond horizon -> 1-indexed future frame (80 ms -> frame 2)."""
    exact = ms * fps / 1000.0
    frame = round(exact)
    if abs(exact - frame) > 1e-9 or frame < 1:
        raise ValueError(f"horizon {ms} ms is not a whole frame at {fps} fps")
    return int(frame)


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------

def horizon_weights(horizon: int) -> np.ndarray:
    """Linear decay w_k = 2(T'+1-k)/(T'+1) for k = 1..T'; mean exactly 1."""
    k = np.arange(1, horizon + 1)
    return 2.0 * (horizon + 1 - k) / (horizon + 1)


def loss_fn(pred: Tensor, window: MotionWindow,
            weighted: bool = False) -> Tensor:
    """Mean squared error over the T' future rows in axis-angle space.

    The prefix rows of the prediction are ignored. With ``weighted``,
    earlier horizons count more via a linear decay whose mean is 1, so
    the magnitude stays comparable to the plain loss.
    """
    n, total = window.n_prefix, window.total
    if pred.shape != (total, window.target.shape[1]):
        raise tz.ShapeError(
            f"prediction shape {pred.shape} does not match window "
            f"({total} x {window.target.shape[1]})")
    future = tz.slice_rows(pred, n, total)
    target = Tensor(window.target)
    if not weighted:
        return tz.mse(future, target)
    w = np.repeat(horizon_weights(window.horizon)[:, None],
                  window.target.shape[1], axis=1)
    diff = tz.sub(future, target)
    return tz.mean_all(tz.mul(tz.mul(diff, diff), Tensor(w)))


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params: dict) -> AdamState:
    return AdamState(m={k: np.zeros(p.shape) for k, p in params.items()},
                     v={k: np.zeros(p.shape) for k, p in params.items()})


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def adam_step(params: dict, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected adaptive-moment update, in place: Kingma & Ba,
    "Adam: A Method for Stochastic Optimization" (ICLR 2015), written as
    whole-array expressions, as ``reference_adam_step`` in the tests."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros(p.shape)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in '{name}'")
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + config.eps)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: TwoChannelTransformer
    curve: list
    halted: bool = False


def train_loop(model: TwoChannelTransformer, windows: Sequence[MotionWindow],
               config: TrainConfig,
               loss: Callable[[Tensor, MotionWindow], Tensor] = None,
               checkpoint_dir=None) -> TrainResult:
    """Train in place; the result carries the model and one (step, loss)
    pair per optimizer update.

    Windows are reshuffled every epoch from the run seed. If the loss or
    a gradient goes non-finite the loop halts, restores the last
    end-of-epoch weights and returns with ``halted`` set. With
    ``checkpoint_dir`` set, a checkpoint is written after every epoch.
    """
    if config.epochs > 0 and not windows:
        raise ValueError("training needs at least one window")
    if loss is None:
        loss = lambda pred, w: loss_fn(pred, w, weighted=config.horizon_weighting)

    params = named_params(model)
    state = init_adam(params)
    drop_rng = np.random.default_rng([config.seed, 1])
    curve = []
    # Allocated once: a fresh snapshot per epoch would be built while the
    # previous one is still alive.
    last_good = {k: np.empty_like(p.data) for k, p in params.items()}

    for epoch in range(config.epochs):
        for k, p in params.items():
            np.copyto(last_good[k], p.data)
        order = np.random.default_rng([config.seed, 2, epoch]).permutation(len(windows))
        for lo in range(0, len(order), config.batch_size):
            batch = [windows[i] for i in order[lo:lo + config.batch_size]]
            for p in params.values():
                p.zero_grad()
            batch_loss = 0.0
            for w in batch:
                out = model_forward(Tensor(w.input), model, training=True,
                                    rng=drop_rng)
                lw = loss(out, w)
                batch_loss += float(lw.data)
                tz.backward(tz.scale(lw, 1.0 / len(batch)))
            batch_loss /= len(batch)
            try:
                if not math.isfinite(batch_loss):
                    raise NonFiniteGradient("non-finite batch loss")
                clip_gradients(params, config.clip_norm)
                adam_step(params, state, config)
            except NonFiniteGradient:
                for k, p in params.items():
                    p.data[...] = last_good[k]
                return TrainResult(model, curve, halted=True)
            curve.append((len(curve) + 1, batch_loss))
        if checkpoint_dir is not None:
            save_checkpoint(model, f"{checkpoint_dir}/epoch{epoch + 1:03d}.npz")
    return TrainResult(model, curve)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _score_windows(model, windows, horizons_ms, exclude, translation,
                   forecast_prefix=None) -> EvalReport:
    """Shared scoring core: forecast each window, Euler-score the horizon
    frames, aggregate per action and overall.

    Every horizon is checked before the first forecast or recovery.
    ``forecast_prefix(i, w)`` gives the prefix to forecast window i from,
    or None to leave it unscored. Only the horizon rows are scored:
    ``euler_mse`` scores each row on its own."""
    if not windows:
        raise ValueError("evaluation needs at least one window")
    horizons_ms = tuple(horizons_ms)
    frames = [horizon_frame(ms) for ms in horizons_ms]
    rows = [f - 1 for f in frames]
    for what, h in [("model", model.config.horizon)] + [("window", w.horizon) for w in windows]:
        if h < max(frames):
            raise ValueError(f"{what} horizon {h} shorter than {max(frames)} frames")
    scored = []                   # (action, per-horizon scores), window order
    for i, w in enumerate(windows):
        prefix = w.prefix if forecast_prefix is None else forecast_prefix(i, w)
        if prefix is None:
            continue
        pred = predict(model, prefix)
        scores = euler_mse(w.target[rows], pred[rows], exclude=exclude,
                           translation=translation)
        scored.append((w.action or "all", scores))

    def means(entries):
        # Left to right in window order: np.mean and Python 3.12's sum() round differently.
        total = np.add.accumulate([s for _, s in entries])[-1]
        return {ms: float(t) / len(entries) for ms, t in zip(horizons_ms, total)}

    return EvalReport(horizons_ms=horizons_ms, overall=means(scored),
                      per_action={a: means([e for e in scored if e[0] == a])
                                  for a in dict.fromkeys(action for action, _ in scored)},
                      n_windows=len(scored),
                      param_count=param_count(model),
                      config_echo=dataclasses.asdict(model.config))


def evaluate_mse_horizons(model: TwoChannelTransformer,
                          windows: Sequence[MotionWindow],
                          exclude: Sequence[int] = (),
                          translation: Sequence[int] = (),
                          horizons_ms: Sequence[int] = HORIZONS_MS) -> EvalReport:
    """One forward pass per window; Euler-MSE at each horizon frame,
    averaged per action and overall."""
    return _score_windows(model, windows, horizons_ms, exclude, translation)


def _window_seed(spec: OcclusionSpec, index: int) -> int:
    return int(np.random.SeedSequence([spec.seed, index]).generate_state(1)[0])


def occlusion_eval(model: TwoChannelTransformer,
                   windows: Sequence[MotionWindow],
                   spec: OcclusionSpec, strategy: str,
                   exclude: Sequence[int] = (),
                   translation: Sequence[int] = (),
                   horizons_ms: Sequence[int] = HORIZONS_MS) -> EvalReport:
    """Corrupt each prefix, recover it, then forecast and score as usual.

    ``strategy`` is one of 'interp', 'short_term' (needs windows that
    carry a clean preceding history, checked before the first forecast)
    or 'autoregressive'. Window i's mask seed is ``_window_seed(spec, i)``,
    i its index in ``windows``. Under 'interp' a window whose mask hides
    a parameter for every prefix frame is refused: it is not scored and
    counts in ``n_refused``; if every window is refused, ``RecoveryError``
    names the first. The report also carries the mean squared
    reconstruction error of the recovered prefix against the clean one
    over the scored windows, measured directly on axis-angle parameters.
    """
    if strategy not in RECOVERY_STRATEGIES:
        raise ValueError(f"strategy must be one of {RECOVERY_STRATEGIES}")
    if strategy == "short_term":
        bare = [i for i, w in enumerate(windows) if w.history is None]
        if bare:
            raise ValueError("short_term recovery needs windows with a clean history "
                             f"window; window {bare[0]} has none")
    recon_errors = []
    refused = []                  # "window i: why" per refused window; text, not the
                                  # exception, whose traceback would hold this list

    def corrupted_prefix(i, w):
        wspec = dataclasses.replace(spec, seed=_window_seed(spec, i))
        mask = generate_mask(wspec, w.n_prefix, w.target.shape[1])
        corrupted = apply_mask(w.prefix, mask)
        if strategy == "interp":
            try:
                recon = recover_linear_interp(corrupted, mask)
            except RecoveryError as e:
                refused.append(f"window {i}: {e}")
                if len(refused) == len(windows):
                    raise RecoveryError(refused[0]) from None
                return None
        elif strategy == "short_term":
            recon = recover_short_term(w.history, corrupted, mask, model)
        else:
            recon = recover_autoregressive(corrupted, mask, model)
        recon_errors.append(float(np.mean((recon - w.prefix) ** 2)))
        return recon

    report = _score_windows(model, windows, horizons_ms, exclude, translation,
                            forecast_prefix=corrupted_prefix)
    report.prefix_recon_mse = float(np.add.accumulate(recon_errors)[-1]) / len(recon_errors)
    report.n_refused = len(refused)
    return report


def _minor_faults() -> Optional[int]:
    """The process's minor page faults so far, or None on platforms
    without the ``resource`` module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def benchmark_inference(model: TwoChannelTransformer, reps: int = 100,
                        warmup: int = 10, seed: int = 0) -> LatencyStats:
    """Wall-clock per single forecast (batch 1), warm-up excluded.

    Also verifies non-autoregressive operation: exactly one forward pass
    per prediction, via the model's forward counter, and counts the
    process's minor page faults per prediction over the timed loop
    (None where the platform cannot count them).
    """
    if reps < 100:
        raise ValueError("need at least 100 measured repetitions")
    rng = np.random.default_rng(seed)
    prefix = rng.normal(size=(model.config.n_prefix, model.config.n_params))
    for _ in range(warmup):
        predict(model, prefix)
    before = model.forward_count
    times = np.empty(reps)
    faults = _minor_faults()
    for i in range(reps):
        t0 = time.perf_counter()
        predict(model, prefix)
        times[i] = time.perf_counter() - t0
    if faults is not None:
        faults = (_minor_faults() - faults) / reps
    calls = (model.forward_count - before) / reps
    if calls != 1:
        raise AssertionError(f"expected 1 forward pass per prediction, saw {calls}")
    ms = times * 1e3
    return LatencyStats(mean_ms=float(ms.mean()),
                        p50_ms=float(np.percentile(ms, 50)),
                        p95_ms=float(np.percentile(ms, 95)),
                        reps=reps, calls_per_prediction=1,
                        minor_faults_per_prediction=faults)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def latency_json(stats: LatencyStats) -> dict:
    """The latency keys shared by the eval and bench JSON reports."""
    return {"latency_ms_mean": stats.mean_ms, "latency_ms_p50": stats.p50_ms,
            "latency_ms_p95": stats.p95_ms, "latency_reps": stats.reps,
            "calls_per_prediction": stats.calls_per_prediction,
            "minor_faults_per_prediction": stats.minor_faults_per_prediction}


def write_eval_report(report: EvalReport, path) -> None:
    """JSON document with stable key names."""
    doc = {
        "param_count": report.param_count,
        "n_windows": report.n_windows,
        "config": report.config_echo,
        "overall": [{"horizon_ms": ms, "mse": report.overall[ms]}
                    for ms in report.horizons_ms],
        "actions": [
            {"action": action,
             "horizons": [{"horizon_ms": ms, "mse": acc[ms]}
                          for ms in report.horizons_ms]}
            for action, acc in sorted(report.per_action.items())],
    }
    if report.prefix_recon_mse is not None:
        doc["prefix_reconstruction_mse"] = report.prefix_recon_mse
    if report.n_refused:
        doc["n_refused"] = report.n_refused
    if report.latency is not None:
        doc.update(latency_json(report.latency))
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_loss_curve(curve, path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,loss\n")
        for step, value in curve:
            fh.write(f"{step},{value!r}\n")
