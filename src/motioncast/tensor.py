"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: the exact set of primitives needed to
train the forecaster (matrix multiply, elementwise arithmetic, masked
softmax, layer normalization, shape ops, concatenation and MSE/mean
reductions), each with a hand-written backward rule.

Design notes (the tape is described at ``Tensor``, ``TapeNode``,
``_record``, ``_link`` and ``backward``):

* ``add``, ``scale``, ``relu``, ``add_bias`` and ``softmax_masked`` take
  an ``out=`` tensor of the result's shape. Under ``no_tape`` the result
  is written into its buffer (which may be an operand's); while
  recording ``out`` is ignored and left unchanged, since the tape may
  still need the values it holds. Pass only a temporary that nothing
  else reads afterwards.
* There is no implicit broadcasting. Binary elementwise ops require equal
  shapes; the only sanctioned mixed-shape ops are the explicit per-row
  ones (``add_bias``, ``layer_norm`` gain/bias) and scalar ``scale``.
* Heap policy: on glibc, importing this module sets ``M_TOP_PAD`` to
  64 MB (``mallopt``), so up to 64 MB of freed heap top stays mapped and
  glibc does not trim what one training window frees just before the
  next needs it. Any ``mallopt`` call also freezes glibc's mmap
  threshold, at 128 KB unless set, so it is set to 32 MB, the value
  glibc's own sliding threshold tops out at. Measured in fresh processes
  (glibc 2.36, 2 cores): a warm default-model training window (24
  windows at batch 4, after a warm-up ``train_loop`` call) takes 0.3 to
  6.5 minor faults from probe to probe, about 5,000 with both calls
  skipped; right after import, an 800 KB temporary takes 3.9, 196 with
  ``M_TOP_PAD`` alone.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

MASK_SENTINEL = -1e9


def _pad_heap_top() -> None:
    """The heap policy above; a no-op where the libc is not glibc."""
    with suppress(ValueError, OSError, AttributeError):
        if os.confstr("CS_GNU_LIBC_VERSION"):
            libc = ctypes.CDLL(None)
            libc.mallopt(-2, 64 << 20)  # M_TOP_PAD
            libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's own 64-bit ceiling


_pad_heap_top()

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

    ``data`` is the array given, view or not (copied only when it is not a
    float64 array); ``transpose``, ``reshape`` and ``narrow`` return views
    whether or not the tape records, so both paths hand every op the same
    operand layouts and compute the same forward bits. ``requires_grad``
    marks a leaf whose gradient ``backward`` accumulates. Tensors produced
    by ops inherit graph membership automatically; their gradients are
    transient and never stored.
    ``node`` is the recorded op that produced the tensor; ``backward``
    empties it when it replays it (and unsets the loss's).
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
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


@dataclass(eq=False)
class TapeNode:
    """One recorded op, owned by the tensor it produced.

    ``inputs`` has one entry per operand: the operand's own ``TapeNode``
    when a recorded op produced it, the operand itself when it is a leaf
    that requires grad, else None. ``bwd`` maps the upstream gradient of
    the output to per-input gradients (None for inputs that need none);
    its closure keeps, decided at record time, only the forward arrays
    that rule reads for the gradients that are wanted. So a graph lives
    exactly as long as the tensors that own it. ``seq`` is the op's
    creation index. Once ``backward`` has replayed the node, ``inputs``
    is empty and ``bwd`` is None.
    """

    op: str
    inputs: tuple
    bwd: Optional[Callable[[np.ndarray], tuple]]
    seq: int


_RECORDING = True
_SEQ = 0           # ops recorded so far
_SEQ_CLEARED = 0   # _SEQ when backward was last called


def tape_size() -> int:
    """Ops recorded since the last ``backward`` call, refused or not."""
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
    """Define-by-run: each op computes ``out``, defines ``bwd`` and hands
    both here, one body for both paths. While recording, an op with an
    input that requires grad attaches its node to ``out``; under
    ``no_tape`` no node is built and ``bwd`` is dropped."""
    global _SEQ
    if _RECORDING and any(t.requires_grad for t in inputs):
        _SEQ += 1
        out.requires_grad = True
        out.node = TapeNode(op, tuple(map(_link, inputs)), bwd, _SEQ)
    return out


def _link(t: Tensor):
    """What a node keeps of an operand: its node, even a replayed one (so
    ``backward`` refuses to pass through it), or the operand itself if
    it is a grad leaf."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _out_buffer(out: Optional[Tensor]) -> Optional[np.ndarray]:
    """The array an op may overwrite: ``out``'s, unless recording."""
    return None if _RECORDING or out is None else out.data


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
    # Each gradient reads only the other operand.
    keep_b = bd if a.requires_grad else None
    keep_a = ad if b.requires_grad else None

    def bwd(g):
        return (None if keep_b is None else np.matmul(g, keep_b.swapaxes(-1, -2)),
                None if keep_a is None else np.matmul(keep_a.swapaxes(-1, -2), g))

    return _record("matmul", (a, b), out, bwd)


def add(a: Tensor, b: Tensor, out: Optional[Tensor] = None) -> Tensor:
    return elementwise("add", a, b, out=out)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("sub", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("mul", a, b)


def scale(a: Tensor, c: float, out: Optional[Tensor] = None) -> Tensor:
    return elementwise("scale", a, c, out=out)


def relu(a: Tensor, out: Optional[Tensor] = None) -> Tensor:
    return elementwise("relu", a, out=out)


def elementwise(kind: str, a: Tensor, b=None, out: Optional[Tensor] = None) -> Tensor:
    """Pointwise op dispatcher. Binary kinds demand equal shapes."""
    buf = _out_buffer(out)
    if kind in ("add", "sub", "mul"):
        if not isinstance(b, Tensor):
            raise TypeError(f"elementwise '{kind}' needs a Tensor second operand")
        if a.shape != b.shape:
            raise ShapeError(f"elementwise '{kind}' shape mismatch: {a.shape} vs {b.shape}")
        ad, bd = a.data, b.data
        ufunc = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[kind]
        res = Tensor(ufunc(ad, bd, out=buf))
        if kind == "add":
            bwd = lambda g: (g, g)
        elif kind == "sub":
            bwd = lambda g: (g, -g)
        else:  # as in matmul, each gradient reads only the other operand
            keep_b = bd if a.requires_grad else None
            keep_a = ad if b.requires_grad else None
            bwd = lambda g: (None if keep_b is None else g * keep_b,
                             None if keep_a is None else g * keep_a)
        return _record(kind, (a, b), res, bwd)
    if kind == "scale":
        c = float(b)
        res = Tensor(np.multiply(a.data, c, out=buf))
        return _record("scale", (a,), res, lambda g: (g * c,))
    if kind == "relu":
        # Every entry that is not > 0, NaN included, maps to 0 (fmax,
        # unlike maximum, drops a NaN operand); fmax may keep the sign of
        # a -0.0. So y > 0 exactly where a > 0, and bwd reads only y.
        y = np.fmax(a.data, 0.0, out=buf)
        return _record("relu", (a,), Tensor(y), lambda g: (g * (y > 0),))
    raise ValueError(f"unknown elementwise kind '{kind}'")


def add_bias(x: Tensor, b: Tensor, out: Optional[Tensor] = None) -> Tensor:
    """Add a length-d bias vector to every row of x[..., d]."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit rows of {x.shape}")
    res = Tensor(np.add(x.data, b.data, out=_out_buffer(out)))
    need_b, d = b.requires_grad, b.shape[0]

    def bwd(g):
        return g, (g.reshape(-1, d).sum(axis=0) if need_b else None)

    return _record("add_bias", (x, b), res, bwd)


def softmax_masked(scores: Tensor, mask=None, out: Optional[Tensor] = None) -> Tensor:
    """Row-softmax over the last axis with an optional additive mask.

    Mask entries are 0 (open) or the MASK_SENTINEL (closed), a large
    negative number instead of -inf; the mask must match the scores shape
    or their trailing two axes. Closed columns come out exactly 0 because
    exp underflows, without a NaN. A row with every column closed is an
    error, never a NaN.
    """
    s = scores.data
    m = None
    if mask is not None:
        m = mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)
        if m.shape != s.shape and m.shape != s.shape[-2:]:
            raise ShapeError(f"mask shape {m.shape} does not fit scores {s.shape}")
        if np.any(np.all(m <= MASK_SENTINEL / 2, axis=-1)):
            raise FullyMaskedRowError("softmax row with all columns masked")
    # One buffer, out's when not recording; bwd reads only y.
    y = _out_buffer(out)
    y = np.positive(s, out=y) if m is None else np.add(s, m, out=y)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    res = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax_masked", (scores,), res, bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine {gain.shape}/{bias.shape} does not fit {x.shape}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu  # centred here, scaled in place below
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gain.data  # a new array: bwd keeps xhat
    y += bias.data
    out = Tensor(y)
    need_x, need_gain, need_bias = x.requires_grad, gain.requires_grad, bias.requires_grad
    gd = gain.data

    def bwd(g):
        gg = (g * xhat).reshape(-1, d).sum(axis=0) if need_gain else None
        gb = g.reshape(-1, d).sum(axis=0) if need_bias else None
        if need_x:
            dxhat = g * gd
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
    return _record("transpose", (x,), out,
                   lambda g: (np.transpose(g, np.argsort(perm)),))


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
    return _record("concat", tuple(parts), out, lambda g: tuple(np.split(g, splits, axis=axis)))


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"narrow [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(x.data[idx])
    shape = x.shape

    def bwd(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _record("narrow", (x,), out, bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    return narrow(x, 0, start, stop)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    shape = x.shape
    return _record("sum_all", (x,), out, lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    n, shape = x.size, x.shape
    out = Tensor(x.data.mean())
    return _record("mean_all", (x,), out, lambda g: (np.broadcast_to(g / n, shape).copy(),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all entries of the squared difference."""
    if a.shape != b.shape:
        raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    d = a.data - b.data
    n = d.size
    out = Tensor(np.float64((d * d).mean()))
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        base = (2.0 / n) * d * g
        return (base if need_a else None,
                -base if need_b else None)

    return _record("mse", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------

def _graph(root: TapeNode) -> list:
    """Every node reachable from ``root``, newest op first.

    Raises ``ValueError`` on reaching a node that an earlier ``backward``
    replayed: its closure is gone, so the gradient through it would be lost.
    """
    seen = {root}
    stack, found = [root], []
    while stack:
        node = stack.pop()
        found.append(node)
        for inp in node.inputs:
            if type(inp) is TapeNode and inp not in seen:
                if inp.bwd is None:
                    raise ValueError(f"backward through a replayed {inp.op!r} node: "
                                     "an earlier backward already freed it")
                seen.add(inp)
                stack.append(inp)
    found.sort(key=lambda n: n.seq, reverse=True)
    return found


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The loss must be scalar and the output of a recorded op that no
    ``backward`` has replayed yet, and so must every op it reaches;
    otherwise ``ValueError`` is raised before any gradient moves.
    Gradients add into existing ``.grad`` buffers, so fan-out and
    repeated backward calls over separate graphs both accumulate.
    Nodes are replayed in reverse creation order, and each drops its
    closure and links once replayed, so the saved arrays are freed as
    the pass goes.
    """
    global _SEQ_CLEARED
    _SEQ_CLEARED = _SEQ  # nothing records during the pass, so clear it now
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss.node
    if root is None or root.bwd is None:
        raise ValueError("loss is not on the tape")

    graph = _graph(root)
    grads: dict[TapeNode, np.ndarray] = {root: np.ones_like(loss.data)}
    try:
        for node in graph:
            g = grads.pop(node, None)
            inputs, bwd = node.inputs, node.bwd
            node.inputs, node.bwd = (), None
            if g is None:
                continue
            for inp, gi in zip(inputs, bwd(g)):
                if gi is None or inp is None:
                    continue
                if type(inp) is TapeNode:
                    if inp in grads:
                        grads[inp] = grads[inp] + gi
                    else:
                        grads[inp] = gi
                else:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += gi.reshape(inp.shape)
    finally:
        for node in graph:
            node.inputs, node.bwd = (), None
        loss.node = None


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

    data = x.data  # perturbed in place, even when it is a strided view
    numeric = np.empty(len(indices))
    nonfinite = []
    with no_tape():
        for j, i in enumerate(indices):
            at = np.unravel_index(i, x.shape)
            orig = data[at]
            data[at] = orig + step
            hi = float(f(x).data)
            data[at] = orig - step
            lo = float(f(x).data)
            data[at] = orig
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
