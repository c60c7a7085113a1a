"""The two-channel transformer forecaster.

The padded input X (observed prefix plus replicated last pose) is fed to
two independent attention stacks. The temporal channel embeds each frame
(P -> D) and attends over the T time steps under a causal mask; the
spatial channel embeds each parameter's time series (T -> D) and attends
over the P parameter tokens with no mask. Each channel decodes back to a
T x P sequence and the forecast is the sum of both channel outputs plus
the input residual, so a model with zeroed decoders is exactly the
zero-velocity baseline. The whole future is produced in one forward pass;
nothing autoregressive happens at inference.

Blocks are pre-layer-norm with a position-wise ReLU feed-forward
(expansion ``ffn_mult``), the standard recipe that keeps stacks of
L >= 2 trainable.

Attention scaling divides scores by sqrt(D) by default; set
``per_head_scale`` to use the per-head width sqrt(D/H) instead.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import zipfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as tz
from .dataset import atomic_open, build_padded_input
from .tensor import MASK_SENTINEL, Tensor

__all__ = [
    "ModelConfig",
    "AttentionWeights",
    "FeedForwardWeights",
    "BlockParams",
    "ChannelParams",
    "TwoChannelTransformer",
    "positional_encoding",
    "causal_mask",
    "mha_forward",
    "temporal_channel_forward",
    "spatial_channel_forward",
    "model_forward",
    "predict",
    "init_model",
    "named_params",
    "param_count",
    "param_count_formula",
    "flatten_params",
    "model_from_flat",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    """Hyperparameters; defaults land near the 2.6M parameter budget."""

    n_params: int = 99        # P skeleton parameters per frame
    n_prefix: int = 10        # N observed frames (400 ms at 25 fps)
    horizon: int = 25         # T' predicted frames (1 s at 25 fps)
    embed_dim: int = 160      # D
    n_heads: int = 8          # H
    n_layers: int = 4         # L blocks per channel
    ffn_mult: int = 4
    dropout: float = 0.1
    per_head_scale: bool = False

    def __post_init__(self):
        for name in ("n_params", "n_prefix", "horizon", "embed_dim", "n_heads",
                     "n_layers", "ffn_mult"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}")
        if self.embed_dim % 2 != 0:
            raise ValueError("embed_dim must be even for sinusoidal encoding")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def total(self) -> int:
        """T = N + T'."""
        return self.n_prefix + self.horizon

    @property
    def head_dim(self) -> int:
        """F = D / H."""
        return self.embed_dim // self.n_heads

    @property
    def attn_denominator(self) -> float:
        return math.sqrt(self.head_dim if self.per_head_scale else self.embed_dim)


@dataclass
class AttentionWeights:
    """Q/K/V/O projections.

    wq, wk and wv are D x D with head h owning the column block
    [h*F, (h+1)*F); wo maps the concatenated H*F = D head outputs back
    to D. No biases, the projections are purely linear.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


@dataclass
class FeedForwardWeights:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class BlockParams:
    ln1_gain: Tensor
    ln1_bias: Tensor
    attn: AttentionWeights
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn: FeedForwardWeights


@dataclass
class ChannelParams:
    """One channel: encoder in_dim -> D, L blocks, decoder D -> out_dim."""

    enc_w: Tensor
    enc_b: Tensor
    blocks: list
    dec_w: Tensor
    dec_b: Tensor


@dataclass
class TwoChannelTransformer:
    """The two channels' weights. ``params`` holds the same tensors by
    name, in ``_layout`` order."""

    config: ModelConfig
    temporal: ChannelParams
    spatial: ChannelParams
    params: dict = field(compare=False, repr=False)
    forward_count: int = field(default=0, compare=False)


def positional_encoding(length: int, embed_dim: int) -> np.ndarray:
    """Sinusoidal table: pe[pos, 2i] = sin(pos / 10000^(2i/D)), cos next."""
    if embed_dim % 2 != 0:
        raise ValueError("embed_dim must be even")
    pos = np.arange(length)[:, None]
    i2 = np.arange(0, embed_dim, 2)
    angle = pos / np.power(10000.0, i2 / embed_dim)
    pe = np.empty((length, embed_dim))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def causal_mask(n: int) -> np.ndarray:
    """Additive mask: 0 at and below the diagonal, sentinel above."""
    if n < 1:
        raise ValueError("mask size must be >= 1")
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = MASK_SENTINEL
    return m


def _read_only(make):
    """Cache ``make``'s arrays per argument tuple, frozen against writes."""
    @functools.lru_cache(maxsize=16)
    def cached(*args):
        arr = make(*args)
        arr.flags.writeable = False
        return arr
    return cached


_positional_encoding = _read_only(positional_encoding)
_causal_mask = _read_only(causal_mask)


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

def _layout(config: ModelConfig):
    """Yield (name, shape, kind) for every learnable array, in fixed order.

    kind: 'proj' scaled random init, 'bias' zeros, 'gain' ones,
    'dec' zeros (decoder weights and biases start at zero so a fresh
    model is the zero-velocity baseline).
    """
    d, ff = config.embed_dim, config.ffn_mult * config.embed_dim
    for channel, in_dim, out_dim in (
            ("temporal", config.n_params, config.n_params),
            ("spatial", config.total, config.total)):
        yield f"{channel}.encoder.weight", (in_dim, d), "proj"
        yield f"{channel}.encoder.bias", (d,), "bias"
        for i in range(config.n_layers):
            b = f"{channel}.block{i}"
            yield f"{b}.ln1.gain", (d,), "gain"
            yield f"{b}.ln1.bias", (d,), "bias"
            yield f"{b}.attn.wq", (d, d), "proj"
            yield f"{b}.attn.wk", (d, d), "proj"
            yield f"{b}.attn.wv", (d, d), "proj"
            yield f"{b}.attn.wo", (d, d), "proj"
            yield f"{b}.ln2.gain", (d,), "gain"
            yield f"{b}.ln2.bias", (d,), "bias"
            yield f"{b}.ffn.w1", (d, ff), "proj"
            yield f"{b}.ffn.b1", (ff,), "bias"
            yield f"{b}.ffn.w2", (ff, d), "proj"
            yield f"{b}.ffn.b2", (d,), "bias"
        yield f"{channel}.decoder.weight", (d, out_dim), "dec"
        yield f"{channel}.decoder.bias", (out_dim,), "dec"


def _assemble(config: ModelConfig, tensors: dict) -> TwoChannelTransformer:
    """Wire the named tensors (in ``_layout`` order) into the model."""
    def channel(name):
        def block(b):
            p = lambda key: tensors[f"{b}.{key}"]
            return BlockParams(
                p("ln1.gain"), p("ln1.bias"),
                AttentionWeights(p("attn.wq"), p("attn.wk"), p("attn.wv"), p("attn.wo")),
                p("ln2.gain"), p("ln2.bias"),
                FeedForwardWeights(p("ffn.w1"), p("ffn.b1"), p("ffn.w2"), p("ffn.b2")))

        return ChannelParams(
            enc_w=tensors[f"{name}.encoder.weight"],
            enc_b=tensors[f"{name}.encoder.bias"],
            blocks=[block(f"{name}.block{i}") for i in range(config.n_layers)],
            dec_w=tensors[f"{name}.decoder.weight"],
            dec_b=tensors[f"{name}.decoder.bias"])

    return TwoChannelTransformer(config=config, temporal=channel("temporal"),
                                 spatial=channel("spatial"), params=tensors)


def init_model(config: ModelConfig, seed: int = 0) -> TwoChannelTransformer:
    """Seeded init: projections ~ N(0, 1/fan_in), decoders exactly zero."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, kind in _layout(config):
        if kind == "proj":
            arr = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
        elif kind == "gain":
            arr = np.ones(shape)
        else:  # bias / dec
            arr = np.zeros(shape)
        tensors[name] = Tensor(arr, requires_grad=True)
    return _assemble(config, tensors)


def named_params(model: TwoChannelTransformer) -> dict:
    """Name -> Tensor in the fixed layout order (the model's own store)."""
    return model.params


def param_count(model: TwoChannelTransformer) -> int:
    """Exact number of learnable scalars, by enumeration."""
    return sum(t.size for t in named_params(model).values())


def param_count_formula(config: ModelConfig) -> int:
    """Closed form of the same count.

    Per channel with input width I and output width O:
        I*D + D                          encoder
      + L * (4*D^2                       q/k/v/o projections
             + 2*m*D^2 + m*D + D         feed-forward (m = ffn_mult)
             + 4*D)                      two layer norms
      + D*O + O                          decoder
    summed over the temporal (I = O = P) and spatial (I = O = T) channels.
    """
    d, m, layers = config.embed_dim, config.ffn_mult, config.n_layers
    per_layer = 4 * d * d + (2 * m * d * d + m * d + d) + 4 * d
    total = 0
    for width in (config.n_params, config.total):
        total += width * d + d + layers * per_layer + d * width + width
    return total


def flatten_params(model: TwoChannelTransformer) -> np.ndarray:
    return np.concatenate([t.data.reshape(-1) for t in named_params(model).values()])


def model_from_flat(config: ModelConfig, vec: Tensor) -> TwoChannelTransformer:
    """Build a model whose weights are tape-traced views of one flat vector.

    Gradients of any loss computed through the returned model flow back to
    ``vec``, which makes whole-model finite-difference checks a single
    grad_check call.
    """
    sizes = [(name, shape) for name, shape, _ in _layout(config)]
    need = sum(int(np.prod(s)) for _, s in sizes)
    if vec.size != need:
        raise ValueError(f"flat vector has {vec.size} entries, layout needs {need}")
    tensors = {}
    offset = 0
    for name, shape in sizes:
        n = int(np.prod(shape))
        tensors[name] = tz.reshape(tz.narrow(vec, 0, offset, offset + n), shape)
        offset += n
    return _assemble(config, tensors)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _dropout(x: Tensor, p: float, training: bool, rng) -> Tensor:
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return tz.mul(x, Tensor(keep))


def mha_forward(e: Tensor, weights: AttentionWeights, n_heads: int,
                mask: Optional[np.ndarray] = None,
                denominator: Optional[float] = None):
    """Multi-head self-attention over the token rows of ``e``.

    Returns (output [tokens x D], attention [H x tokens x tokens]). Every
    attention row sums to 1; masked entries are exactly 0.
    """
    tokens, d = e.shape
    if d % n_heads != 0:
        raise tz.ShapeError(f"embedding width {d} not divisible by {n_heads} heads")
    f = d // n_heads
    if denominator is None:
        denominator = math.sqrt(d)

    def heads(w):  # [H x tokens x F]
        return tz.transpose(tz.reshape(tz.matmul(e, w), (tokens, n_heads, f)), (1, 0, 2))

    # scores is this function's own temporary: scale and softmax may
    # overwrite it (they do only when not recording).
    scores = tz.matmul(heads(weights.wq), tz.transpose(heads(weights.wk), (0, 2, 1)))
    scores = tz.scale(scores, 1.0 / denominator, out=scores)
    attn = tz.softmax_masked(scores, mask, out=scores)
    ctx = tz.matmul(attn, heads(weights.wv))
    merged = tz.reshape(tz.transpose(ctx, (1, 0, 2)), (tokens, d))
    return tz.matmul(merged, weights.wo), attn


def _block_forward(e: Tensor, block: BlockParams, config: ModelConfig,
                   mask, training: bool, rng) -> Tensor:
    """One pre-norm block. ``e``, the residual stream, belongs to the
    channel forward, so it and the matmul outputs are updated in place
    when not recording; the attention map is dropped at once."""
    h = tz.layer_norm(e, block.ln1_gain, block.ln1_bias)
    a = mha_forward(h, block.attn, config.n_heads, mask, config.attn_denominator)[0]
    e = tz.add(e, _dropout(a, config.dropout, training, rng), out=e)
    h = tz.layer_norm(e, block.ln2_gain, block.ln2_bias)
    f = tz.matmul(h, block.ffn.w1)
    f = tz.relu(tz.add_bias(f, block.ffn.b1, out=f), out=f)
    f = tz.matmul(f, block.ffn.w2)
    f = tz.add_bias(f, block.ffn.b2, out=f)
    return tz.add(e, _dropout(f, config.dropout, training, rng), out=e)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _channel_forward(tokens: Tensor, channel: ChannelParams, config: ModelConfig,
                     mask, training: bool, rng) -> Tensor:
    """Encode the token rows, add positions, run the blocks, decode."""
    e = tz.matmul(tokens, channel.enc_w)
    e = tz.add_bias(e, channel.enc_b, out=e)
    e = tz.add(e, Tensor(_positional_encoding(tokens.shape[0], config.embed_dim)), out=e)
    for block in channel.blocks:
        e = _block_forward(e, block, config, mask, training, rng)
    out = tz.matmul(e, channel.dec_w)
    return tz.add_bias(out, channel.dec_b, out=out)


def temporal_channel_forward(x, channel: ChannelParams, config: ModelConfig,
                             training: bool = False, rng=None) -> Tensor:
    """Causally masked attention over time steps; output row t sees only
    input rows <= t."""
    x = _as_tensor(x)
    return _channel_forward(x, channel, config, _causal_mask(x.shape[0]), training, rng)


def spatial_channel_forward(x, channel: ChannelParams, config: ModelConfig,
                            training: bool = False, rng=None) -> Tensor:
    """Unmasked attention over the P parameter tokens; per head the
    attention matrix is P x P."""
    xt = tz.transpose(_as_tensor(x))
    return tz.transpose(_channel_forward(xt, channel, config, None, training, rng))


def model_forward(x, model: TwoChannelTransformer, training: bool = False,
                  rng=None) -> Tensor:
    """One pass: temporal output + spatial output + input residual."""
    x = _as_tensor(x)
    cfg = model.config
    if x.shape != (cfg.total, cfg.n_params):
        raise tz.ShapeError(
            f"model input must be {cfg.total} x {cfg.n_params}, got {x.shape}")
    model.forward_count += 1
    xt = temporal_channel_forward(x, model.temporal, cfg, training, rng)
    xs = spatial_channel_forward(x, model.spatial, cfg, training, rng)
    return tz.add(tz.add(xt, xs), x)


def predict(model: TwoChannelTransformer, prefix) -> np.ndarray:
    """Forecast T' future frames from the last N observed ones.

    Exactly one forward pass; no tape is recorded.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    n = model.config.n_prefix
    if prefix.ndim != 2 or prefix.shape[0] < n:
        raise ValueError(
            f"prediction needs at least N={n} observed frames, got {prefix.shape}")
    if not np.isfinite(prefix).all():
        raise ValueError("prediction prefix contains non-finite values")
    x = build_padded_input(prefix[-n:], model.config.horizon)
    with tz.no_tape():
        out = model_forward(x, model, training=False)
    return out.data[n:].copy()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: TwoChannelTransformer, path) -> None:
    """Self-describing container: every config field (floats as float64,
    integers and flags as int64) and every named weight as little-endian
    float64 with explicit shapes, plus a version tag."""
    arrays = {"format_version": np.int64(CHECKPOINT_VERSION)}
    for f in dataclasses.fields(ModelConfig):
        dtype = np.float64 if isinstance(f.default, float) else np.int64
        arrays[f"config.{f.name}"] = dtype(getattr(model.config, f.name))
    for name, t in named_params(model).items():
        arrays[name] = t.data.astype("<f8")
    path = os.fspath(path)
    if not path.endswith(".npz"):  # np.savez's naming rule for a path
        path += ".npz"
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _member(z, key: str, path) -> np.ndarray:
    try:
        return z[key]
    except ValueError as e:  # an object array, which np.load will not unpickle
        raise ValueError(f"{path}: '{key}' cannot be loaded: {e}") from None


def _checkpoint_scalar(z, key: str, kind: type, path):
    """``z[key]`` as a ``kind``: a finite number that ``kind`` holds exactly."""
    a = _member(z, key, path)
    if a.shape != () or a.dtype.kind not in "biuf" or not np.isfinite(a) or kind(a) != a:
        raise ValueError(f"{path}: '{key}' is not a single {kind.__name__}: {a!r}")
    return kind(a)


def load_checkpoint(path) -> TwoChannelTransformer:
    try:
        z = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: not a model checkpoint") from e
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a model checkpoint")
    with z:
        if "format_version" not in z:
            raise ValueError(f"{path}: not a model checkpoint")
        version = _checkpoint_scalar(z, "format_version", int, path)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        kwargs = {}
        for f in dataclasses.fields(ModelConfig):
            key = f"config.{f.name}"
            if key not in z:
                raise ValueError(f"{path}: missing config key '{key}'")
            kwargs[f.name] = _checkpoint_scalar(z, key, type(f.default), path)
        try:
            config = ModelConfig(**kwargs)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        tensors = {}
        for name, shape, _ in _layout(config):
            if name not in z:
                raise ValueError(f"{path}: missing weight '{name}'")
            arr = np.asarray(_member(z, name, path), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(
                    f"{path}: weight '{name}' has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: weight '{name}' has non-finite values")
            tensors[name] = Tensor(arr, requires_grad=True)
    return _assemble(config, tensors)
