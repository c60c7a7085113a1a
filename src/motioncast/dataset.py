"""Motion data ingestion, windowing and the padded input pattern.

A motion file is plain CSV: one frame per line, P comma-separated decimal
floats, no header, UTF-8 with LF or CRLF endings. Directory layout is
root/subject/action.csv; subject and action labels are parsed from the
path.

A training window is the observed N-frame prefix with its last pose
replicated T' times (so the model only has to learn the deviation of the
future from the last observed pose), paired with the true future frames.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "ParseError",
    "MotionSequence",
    "MotionWindow",
    "DatasetSpec",
    "load_csv_sequence",
    "save_csv_sequence",
    "load_dataset",
    "downsample",
    "window_split",
    "build_padded_input",
    "synth_generate",
]


class ParseError(ValueError):
    """Malformed motion CSV; message carries line (and column) numbers."""


@dataclass
class MotionSequence:
    """F x P frames of skeleton parameters at a given frame rate."""

    frames: np.ndarray
    fps: float = 25.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError(f"frames must be F x P with F >= 1, got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise ValueError("frames contain non-finite values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_params(self) -> int:
        return self.frames.shape[1]

    @property
    def subject(self) -> str:
        return self.meta.get("subject", "")

    @property
    def action(self) -> str:
        return self.meta.get("action", "")


@dataclass
class MotionWindow:
    """Padded model input plus the ground-truth future it should predict.

    ``input`` is T x P with T = N + T'; rows N..T-1 all replicate row N-1.
    ``history`` optionally carries the N clean frames that precede the
    window in its source sequence (available when the window does not
    start at the very beginning); recovery strategies that forecast the
    prefix need it. ``action`` labels the source for per-action reporting.
    """

    input: np.ndarray
    target: np.ndarray
    n_prefix: int
    horizon: int
    history: Optional[np.ndarray] = None
    action: str = ""

    def __post_init__(self):
        self.input = np.ascontiguousarray(self.input, dtype=np.float64)
        self.target = np.ascontiguousarray(self.target, dtype=np.float64)
        n, h = self.n_prefix, self.horizon
        if self.input.shape != (n + h, self.target.shape[1]):
            raise ValueError(f"input shape {self.input.shape} does not match N={n}, T'={h}")
        if self.target.shape[0] != h:
            raise ValueError(f"target has {self.target.shape[0]} rows, expected T'={h}")
        if h > 0 and not (self.input[n:] == self.input[n - 1]).all():
            raise ValueError("padded rows do not replicate the last observed pose")

    @property
    def total(self) -> int:
        return self.n_prefix + self.horizon

    @property
    def prefix(self) -> np.ndarray:
        return self.input[: self.n_prefix]


@dataclass
class DatasetSpec:
    """Where to load motion files from, and how to cut them into windows."""

    root: str = "data"
    subjects: Optional[list] = None
    actions: Optional[list] = None
    n_prefix: int = 10
    horizon: int = 25
    stride: int = 5
    downsample_factor: int = 1

    def __post_init__(self):
        if self.n_prefix < 1 or self.horizon < 1 or self.stride < 1:
            raise ValueError("n_prefix, horizon and stride must all be >= 1")
        if self.downsample_factor < 1:
            raise ValueError("downsample factor must be >= 1")


def load_csv_sequence(path, fps: float = 25.0) -> MotionSequence:
    """Parse one motion CSV of equal-width rows of finite numbers, raising on
    the first fault in file order. Subject and action come from the path."""
    path = Path(path)
    rows = []
    width = None
    try:
        with open(path, "r", encoding="utf-8", newline=None) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if width is None:
                    width = len(fields)
                elif len(fields) != width:
                    raise ParseError(
                        f"{path}: line {lineno} has {len(fields)} fields, expected {width}")
                row = np.empty(width)
                for col, tok in enumerate(fields, start=1):
                    try:
                        row[col - 1] = float(tok)
                    except ValueError:
                        raise ParseError(
                            f"{path}: line {lineno}, column {col}: not a number: {tok!r}") from None
                if not np.isfinite(row).all():
                    c = int(np.flatnonzero(~np.isfinite(row))[0])
                    raise ParseError(f"{path}: line {lineno}, column {c + 1}: "
                                     f"not a finite number: {float(row[c])}")
                rows.append(row)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise ParseError(f"{path}: no frames")
    return MotionSequence(np.vstack(rows), fps=fps,
                          meta={"subject": path.parent.name, "action": path.stem})


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temporary file beside ``path`` for writing, and move it
    onto ``path`` with ``os.replace`` once the block ends without error.

    If the block raises, the temporary file is removed and whatever was
    at ``path`` before is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        # "x" instead of "w": never write into a file that already exists.
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_csv_sequence(seq: MotionSequence, path) -> None:
    """Write frames in the loadable CSV format, round-trip lossless."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in seq.frames:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_dataset(spec: DatasetSpec, fps: float = 25.0) -> list[MotionSequence]:
    """Load root/subject/action.csv files matching the spec's filters."""
    root = Path(spec.root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root not found: {root}")
    out = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        if spec.subjects and sub.name not in spec.subjects:
            continue
        for f in sorted(sub.glob("*.csv")):
            if spec.actions and f.stem not in spec.actions:
                continue
            seq = load_csv_sequence(f, fps=fps)
            if spec.downsample_factor > 1:
                seq = downsample(seq, spec.downsample_factor)
            out.append(seq)
    return out


def downsample(seq: MotionSequence, factor: int) -> MotionSequence:
    """Keep frames 0, factor, 2*factor, ...; fps divides by factor."""
    if factor < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    return MotionSequence(seq.frames[::factor].copy(), fps=seq.fps / factor,
                          meta=dict(seq.meta))


def build_padded_input(prefix, horizon: int) -> np.ndarray:
    """Copy the N observed rows, then replicate the last one T' times."""
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.ndim != 2 or prefix.shape[0] < 1:
        raise ValueError(f"prefix must be N x P with N >= 1, got {prefix.shape}")
    if horizon == 0:
        return prefix.copy()
    pad = np.repeat(prefix[-1:], horizon, axis=0)
    return np.vstack([prefix, pad])


def window_split(seq: MotionSequence, spec: DatasetSpec) -> list[MotionWindow]:
    """Cut a sequence into padded windows starting at 0, stride, 2*stride, ...

    A sequence shorter than N + T' yields no windows. Windows that start
    at frame N or later also carry the N preceding frames as history.
    """
    n, h, stride = spec.n_prefix, spec.horizon, spec.stride
    frames = seq.frames
    total = n + h
    if frames.shape[0] < total:
        return []
    count = (frames.shape[0] - total) // stride + 1
    windows = []
    for w in range(count):
        start = w * stride
        prefix = frames[start: start + n]
        target = frames[start + n: start + total].copy()
        history = frames[start - n: start].copy() if start >= n else None
        windows.append(MotionWindow(
            input=build_padded_input(prefix, h),
            target=target,
            n_prefix=n,
            horizon=h,
            history=history,
            action=seq.action,
        ))
    return windows


def synth_generate(seed: int, count: int, n_frames: int, n_params: int,
                   fps: float = 25.0) -> list[MotionSequence]:
    """Deterministic sinusoidal motion for desk-scale training.

    Each parameter follows a*sin(w*t + phi) with amplitude in
    [0.05, 0.8] rad and w in [0.5, 4] rad/s, which keeps the frame-to-
    frame delta below a*w/fps <= 0.128 rad at 25 fps. The per-parameter
    frequencies are stored in meta["omega"] so tests can verify spectra.
    """
    if n_params % 3 != 0:
        raise ValueError(f"parameter count must be divisible by 3, got {n_params}")
    sequences = []
    t = np.arange(n_frames) / fps
    for i in range(count):
        rng = np.random.default_rng([int(seed), i])
        amp = rng.uniform(0.05, 0.8, size=n_params)
        omega = rng.uniform(0.5, 4.0, size=n_params)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=n_params)
        frames = amp * np.sin(omega * t[:, None] + phase)
        sequences.append(MotionSequence(
            frames, fps=fps,
            meta={"subject": "synth", "action": f"seq{i:03d}",
                  "amplitude": amp, "omega": omega, "phase": phase}))
    return sequences
