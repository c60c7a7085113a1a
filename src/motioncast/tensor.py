"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: the exact set of primitives needed to
train the forecaster (matrix multiply, elementwise arithmetic, masked
softmax, layer normalization, shape ops, concatenation and MSE/mean
reductions), each with a hand-written backward rule.

Design notes:

* Storage is a C-contiguous float64 numpy array, so ``data`` is the flat
  row-major buffer the shape indexes into.
* Differentiation is define-by-run: every op executed while recording
  attaches a ``TapeNode`` to the tensor it produces. ``backward`` walks
  the nodes reachable from the loss, replays them in strict reverse
  creation order, then detaches them, so a graph lives exactly as long
  as the tensors that own it.
* There is no implicit broadcasting. Binary elementwise ops require equal
  shapes; the only sanctioned mixed-shape ops are the explicit per-row
  ones (``add_bias``, ``layer_norm`` gain/bias) and scalar ``scale``.
* Masks are additive with a large negative sentinel instead of -inf, so
  exp() underflows to an exact 0.0 without ever producing NaN.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

MASK_SENTINEL = -1e9

__all__ = [
    "MASK_SENTINEL",
    "Tensor",
    "TapeNode",
    "ShapeError",
    "FullyMaskedRowError",
    "matmul",
    "elementwise",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "add_bias",
    "softmax_masked",
    "layer_norm",
    "transpose",
    "reshape",
    "concat",
    "narrow",
    "slice_rows",
    "sum_all",
    "mean_all",
    "mse",
    "backward",
    "grad_check",
    "GradCheckReport",
    "no_tape",
    "tape_size",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class FullyMaskedRowError(ValueError):
    """Raised when a softmax row has every column masked out."""


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    ``requires_grad`` marks a leaf whose gradient should be accumulated by
    ``backward``. Tensors produced by ops inherit graph membership
    automatically; their gradients are transient and never stored.
    ``node`` is the recorded op that produced the tensor, until
    ``backward`` replays it.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim:  # ascontiguousarray would promote 0-d scalars to 1-d
            arr = np.ascontiguousarray(arr)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


@dataclass
class TapeNode:
    """One recorded op, owned by the tensor it produced.

    ``bwd`` maps the upstream gradient of that tensor to per-input
    gradients (None for inputs that need none). Saved forward values live
    in the closure. ``seq`` is the op's creation index.
    """

    op: str
    inputs: tuple
    bwd: Callable[[np.ndarray], tuple]
    seq: int


_RECORDING = True
_SEQ = 0           # ops recorded so far
_SEQ_CLEARED = 0   # _SEQ when the last backward finished


def tape_size() -> int:
    """Ops recorded since the last ``backward``."""
    return _SEQ - _SEQ_CLEARED


@contextmanager
def no_tape():
    """Disable tape recording inside the block (inference/eval paths)."""
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


def _record(op: str, inputs: Sequence[Tensor], out: Tensor, bwd) -> Tensor:
    global _SEQ
    if _RECORDING and any(t.requires_grad for t in inputs):
        _SEQ += 1
        out.requires_grad = True
        out.node = TapeNode(op, tuple(inputs), bwd, _SEQ)
    return out


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D operands, or equal-rank stacks of matrices."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.ndim != bd.ndim:
        raise ShapeError(f"matmul needs equal-rank matrix operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2] or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Tensor(np.matmul(ad, bd))

    def bwd(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2)) if a.requires_grad else None
        gb = np.matmul(ad.swapaxes(-1, -2), g) if b.requires_grad else None
        return ga, gb

    return _record("matmul", (a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("add", a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("sub", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("mul", a, b)


def scale(a: Tensor, c: float) -> Tensor:
    return elementwise("scale", a, c)


def relu(a: Tensor) -> Tensor:
    return elementwise("relu", a)


def elementwise(kind: str, a: Tensor, b=None) -> Tensor:
    """Pointwise op dispatcher. Binary kinds demand equal shapes."""
    if kind in ("add", "sub", "mul"):
        if not isinstance(b, Tensor):
            raise TypeError(f"elementwise '{kind}' needs a Tensor second operand")
        if a.shape != b.shape:
            raise ShapeError(f"elementwise '{kind}' shape mismatch: {a.shape} vs {b.shape}")
        if kind == "add":
            out = Tensor(a.data + b.data)
            bwd = lambda g: (g, g)
        elif kind == "sub":
            out = Tensor(a.data - b.data)
            bwd = lambda g: (g, -g)
        else:
            ad, bd = a.data, b.data
            out = Tensor(ad * bd)
            bwd = lambda g: (g * bd if a.requires_grad else None,
                             g * ad if b.requires_grad else None)
        return _record(kind, (a, b), out, bwd)
    if kind == "scale":
        c = float(b)
        out = Tensor(a.data * c)
        return _record("scale", (a,), out, lambda g: (g * c,))
    if kind == "relu":
        pos = a.data > 0
        out = Tensor(np.where(pos, a.data, 0.0))
        return _record("relu", (a,), out, lambda g: (g * pos,))
    raise ValueError(f"unknown elementwise kind '{kind}'")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of x[..., d]."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit rows of {x.shape}")
    out = Tensor(x.data + b.data)

    def bwd(g):
        gb = g.reshape(-1, b.shape[0]).sum(axis=0) if b.requires_grad else None
        return g, gb

    return _record("add_bias", (x, b), out, bwd)


def softmax_masked(scores: Tensor, mask=None) -> Tensor:
    """Row-softmax over the last axis with an optional additive mask.

    Mask entries are 0 (open) or the MASK_SENTINEL (closed); the mask must
    match the scores shape or their trailing two axes. Closed columns come
    out exactly 0 because exp underflows. A row with every column closed
    is an error, never a NaN.
    """
    s = scores.data
    if mask is not None:
        m = _as_array(mask)
        if m.shape != s.shape and m.shape != s.shape[-2:]:
            raise ShapeError(f"mask shape {m.shape} does not fit scores {s.shape}")
        if np.any(np.all(m <= MASK_SENTINEL / 2, axis=-1)):
            raise FullyMaskedRowError("softmax row with all columns masked")
        s = s + m
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax_masked", (scores,), out, bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine {gain.shape}/{bias.shape} does not fit {x.shape}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        gg = (g * xhat).reshape(-1, d).sum(axis=0) if gain.requires_grad else None
        gb = g.reshape(-1, d).sum(axis=0) if bias.requires_grad else None
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        else:
            gx = None
        return gx, gg, gb

    return _record("layer_norm", (x, gain, bias), out, bwd)


def transpose(x: Tensor, axes: Optional[tuple] = None) -> Tensor:
    perm = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    out = Tensor(np.transpose(x.data, perm))
    inverse = tuple(np.argsort(perm))
    return _record("transpose", (x,), out, lambda g: (np.ascontiguousarray(np.transpose(g, inverse)),))


def reshape(x: Tensor, shape) -> Tensor:
    shp = tuple(shape)
    if int(np.prod(shp)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shp}")
    orig = x.shape
    out = Tensor(x.data.reshape(shp))
    return _record("reshape", (x,), out, lambda g: (g.reshape(orig),))


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat of no tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _record("concat", tuple(parts), out, bwd)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"narrow [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(x.data[idx])

    def bwd(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _record("narrow", (x,), out, bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    return narrow(x, 0, start, stop)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    return _record("sum_all", (x,), out, lambda g: (np.broadcast_to(g, x.shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = Tensor(x.data.mean())
    return _record("mean_all", (x,), out, lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all entries of the squared difference."""
    if a.shape != b.shape:
        raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    d = a.data - b.data
    n = d.size
    out = Tensor(np.float64((d * d).mean()))

    def bwd(g):
        base = (2.0 / n) * d * g
        return (base if a.requires_grad else None,
                -base if b.requires_grad else None)

    return _record("mse", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------

def _graph(loss: Tensor) -> list:
    """Every recorded tensor reachable from ``loss``, newest op first."""
    seen = {id(loss)}
    stack, found = [loss], []
    while stack:
        t = stack.pop()
        found.append(t)
        for inp in t.node.inputs:
            if inp.node is not None and id(inp) not in seen:
                seen.add(id(inp))
                stack.append(inp)
    found.sort(key=lambda t: t.node.seq, reverse=True)
    return found


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The loss must be scalar and the output of a recorded op. Gradients add
    into existing ``.grad`` buffers, so fan-out and repeated backward
    calls both accumulate. The replayed nodes are detached before
    returning.
    """
    global _SEQ_CLEARED
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ValueError("loss is not on the tape")

    graph = _graph(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    try:
        for out in graph:
            g = grads.pop(id(out), None)
            if g is None:
                continue
            node = out.node
            for inp, gi in zip(node.inputs, node.bwd(g)):
                if gi is None or not inp.requires_grad:
                    continue
                if inp.node is not None:
                    key = id(inp)
                    if key in grads:
                        grads[key] = grads[key] + gi
                    else:
                        grads[key] = gi
                else:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += gi.reshape(inp.shape)
    finally:
        for out in graph:
            out.node = None
        _SEQ_CLEARED = _SEQ


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of comparing analytic and central-difference gradients."""

    indices: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    tol: float
    passed: bool
    nonfinite: list = field(default_factory=list)

    def __repr__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"GradCheckReport({state}, checked={len(self.indices)}, "
                f"max_rel_error={self.max_rel_error:.3e}, tol={self.tol:.1e})")


def grad_check(f, x: Tensor, step: float = 1e-5, tol: float = 1e-4,
               sample: Optional[int] = None, rng=None) -> GradCheckReport:
    """Check analytic gradients of scalar-valued ``f`` at ``x``.

    ``f`` must be deterministic. Relative error per coordinate is
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|). ``sample`` limits the check to
    that many randomly chosen coordinates; non-finite readings are
    reported instead of compared.
    """
    if not (1e-6 <= step <= 1e-4):
        raise ValueError("step must lie in [1e-6, 1e-4]")
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    backward(out)
    if x.grad is None:
        raise ValueError("f does not depend on x: no gradient reached it")
    analytic_full = x.grad.reshape(-1).copy()
    x.zero_grad()

    n = x.size
    if sample is not None and sample < n:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        indices = np.sort(rng.choice(n, size=sample, replace=False))
    else:
        indices = np.arange(n)

    flat = x.data.reshape(-1)
    numeric = np.empty(len(indices))
    nonfinite = []
    with no_tape():
        for j, i in enumerate(indices):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f(x).data)
            flat[i] = orig - step
            lo = float(f(x).data)
            flat[i] = orig
            numeric[j] = (hi - lo) / (2.0 * step)
            if not (np.isfinite(hi) and np.isfinite(lo)):
                nonfinite.append(int(i))

    analytic = analytic_full[indices]
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    bad = ~np.isfinite(analytic)
    nonfinite.extend(int(i) for i in indices[bad])
    max_err = float(rel.max()) if len(rel) else 0.0
    passed = (not nonfinite) and max_err < tol
    return GradCheckReport(indices=indices, analytic=analytic, numeric=numeric,
                           rel_errors=rel, max_rel_error=max_err, tol=tol,
                           passed=passed, nonfinite=nonfinite)
