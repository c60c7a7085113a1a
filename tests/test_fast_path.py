"""The forward path taken when not recording (``no_tape``): no graph, views
instead of copies, ``out=`` buffers, cached positions and masks. The
recording path is the slow reference it must match."""

import math

import numpy as np
import pytest

from motioncast import tensor as tz
from motioncast.model import (AttentionWeights, ModelConfig, _causal_mask,
                              _positional_encoding, causal_mask, init_model,
                              mha_forward, model_forward, named_params,
                              positional_encoding, predict)
from motioncast.tensor import (MASK_SENTINEL, FullyMaskedRowError, Tensor,
                               backward, no_tape)

from oracles import scalar_mha


def default_model_with_decoders(seed):
    """Default-size model whose decoders are non-zero, so the forecast
    depends on every block of both channels."""
    model = init_model(ModelConfig(), seed=seed)
    rng = np.random.default_rng([seed, 7])
    for name, p in named_params(model).items():
        if name.endswith(("decoder.weight", "decoder.bias")):
            p.data[...] = rng.normal(scale=0.05, size=p.shape)
    return model


def test_default_model_forward_matches_recorded_path():
    model = default_model_with_decoders(41)
    cfg = model.config
    x = np.random.default_rng(41).normal(size=(cfg.total, cfg.n_params))
    recorded = model_forward(x, model)
    assert recorded.node is not None
    with no_tape():
        fast = model_forward(x, model)
    assert fast.node is None and not fast.requires_grad
    assert np.abs(recorded.data - x).max() > 1e-3  # the channels contribute
    np.testing.assert_array_equal(fast.data, recorded.data)


def test_mha_under_no_tape_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    tokens, d, heads = 5, 6, 3
    e = rng.normal(size=(tokens, d))
    w = [rng.normal(size=(d, d)) / math.sqrt(d) for _ in range(4)]
    weights = AttentionWeights(*(Tensor(a) for a in w))
    mask = causal_mask(tokens)
    with no_tape():
        out, attn = mha_forward(Tensor(e), weights, heads, mask, denominator=2.0)
    ref_out, ref_attn = scalar_mha(e, *w, heads, 2.0, mask)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(attn.data, ref_attn, rtol=0, atol=1e-12)


def _loss_grads(op, use_out):
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 4)))
    before = x.data.copy()
    y = op(x, x if use_out else None)
    loss = tz.sum_all(tz.mul(y, w))
    backward(loss)
    np.testing.assert_array_equal(x.data, before)  # the out operand is untouched
    return y.data, x.grad


OUT_OPS = {
    "add": lambda x, out: tz.add(x, Tensor(np.full(x.shape, 0.5)), out=out),
    "scale": lambda x, out: tz.scale(x, -1.5, out=out),
    "relu": lambda x, out: tz.relu(x, out=out),
    "add_bias": lambda x, out: tz.add_bias(x, Tensor(np.arange(4.0)), out=out),
    "softmax_masked": lambda x, out: tz.softmax_masked(
        x, np.where(np.eye(3, 4) > 0, MASK_SENTINEL, 0.0), out=out),
}


@pytest.mark.parametrize("name", sorted(OUT_OPS))
def test_out_is_ignored_while_recording(name):
    y_plain, g_plain = _loss_grads(OUT_OPS[name], use_out=False)
    y_out, g_out = _loss_grads(OUT_OPS[name], use_out=True)
    np.testing.assert_array_equal(y_out, y_plain)
    np.testing.assert_array_equal(g_out, g_plain)


@pytest.mark.parametrize("name", sorted(OUT_OPS))
def test_out_is_overwritten_under_no_tape(name):
    rng = np.random.default_rng(44)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    expected = OUT_OPS[name](Tensor(x.data.copy()), None).data
    with no_tape():
        y = OUT_OPS[name](x, x)
    assert y.data is x.data
    np.testing.assert_array_equal(x.data, expected)


def test_add_out_writes_into_first_operand_buffer():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    b = Tensor(np.ones((2, 3)))
    buf = a.data
    with no_tape():
        c = tz.add(a, b, out=a)
    assert c.data is buf and a.data is buf
    np.testing.assert_array_equal(buf, np.arange(6.0).reshape(2, 3) + 1.0)


def test_no_tape_keeps_transpose_and_reshape_as_views():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    with no_tape():
        t = tz.transpose(x, (1, 0, 2))
        r = tz.reshape(x, (6, 4))
    assert np.shares_memory(t.data, x.data) and not t.data.flags.c_contiguous
    assert np.shares_memory(r.data, x.data)
    assert t.node is None and r.node is None
    recorded = tz.transpose(x, (1, 0, 2))
    assert recorded.node is not None
    assert np.shares_memory(recorded.data, x.data) and not recorded.data.flags.c_contiguous


def test_softmax_rejects_fully_masked_row_under_no_tape():
    scores = Tensor(np.zeros((2, 2)))
    mask = np.array([[0.0, 0.0], [MASK_SENTINEL, MASK_SENTINEL]])
    with no_tape(), pytest.raises(FullyMaskedRowError):
        tz.softmax_masked(scores, mask, out=scores)
    np.testing.assert_array_equal(scores.data, 0.0)


def test_cached_encoding_and_mask_are_read_only():
    pe = _positional_encoding(7, 8)
    mask = _causal_mask(7)
    assert _positional_encoding(7, 8) is pe and _causal_mask(7) is mask
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0
    with pytest.raises(ValueError):
        mask[0, 1] = 0.0
    np.testing.assert_array_equal(pe, positional_encoding(7, 8))
    np.testing.assert_array_equal(mask, causal_mask(7))


def test_public_encoding_and_mask_stay_fresh_and_writable():
    for make, args, cached in ((positional_encoding, (7, 8), _positional_encoding),
                               (causal_mask, (7,), _causal_mask)):
        first = make(*args)
        assert first.flags.writeable
        first[...] = 3.0
        second = make(*args)
        assert second is not first and not np.shares_memory(second, cached(*args))
        np.testing.assert_array_equal(second, cached(*args))


def test_repeated_predicts_are_bit_identical_and_independent():
    model = default_model_with_decoders(45)
    prefix = np.random.default_rng(45).normal(size=(12, 99))
    recorded = tz.tape_size()
    first = predict(model, prefix)
    kept = first.copy()
    second = predict(model, prefix)
    np.testing.assert_array_equal(second, kept)
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)
    assert tz.tape_size() == recorded


def _both_paths(op, *arrays):
    """op's output while recording and under no_tape, on fresh copies."""
    recorded = op(*(Tensor(a.copy(), requires_grad=True) for a in arrays)).data
    with no_tape():
        fast = op(*(Tensor(a.copy()) for a in arrays)).data
    return recorded, fast


def _same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_relu_maps_non_finite_entries_alike_on_both_paths():
    x = np.tile([np.nan, -np.inf, np.inf, -0.0, 0.0, -1.0, 2.0], (3, 5))
    expected = np.tile([0.0, 0.0, np.inf, 0.0, 0.0, 0.0, 2.0], (3, 5))
    recorded, fast = _both_paths(lambda t: tz.relu(t), x)
    with no_tape():
        t = Tensor(x.copy())
        in_place = tz.relu(t, out=t).data
    for y in (recorded, fast, in_place):
        np.testing.assert_array_equal(y, expected)  # -0.0 == 0.0, NaN fails


def test_softmax_and_layer_norm_paths_are_bit_identical():
    rng = np.random.default_rng(46)
    s = rng.normal(size=(3, 5, 5))
    s[0, 1, 2] = np.inf        # an overflowed score
    s[1, 2, :] = 1e308         # a row whose shifted exps are exact
    mask = causal_mask(5)
    x = rng.normal(size=(4, 6)) * 10.0
    x[2, 3] = np.inf            # inf - inf inside the centring gives NaN
    gain, bias = rng.normal(size=6), rng.normal(size=6)
    with np.errstate(invalid="ignore"):
        for m in (None, mask):
            _same_bits(*_both_paths(lambda t: tz.softmax_masked(t, m), s))
        recorded, fast = _both_paths(tz.layer_norm, x, gain, bias)
    np.testing.assert_array_equal(np.isnan(recorded), np.isnan(fast))
    _same_bits(np.nan_to_num(recorded), np.nan_to_num(fast))


# Every pair of these values meets once across A and B (7 x 7). A ends
# in -0.0: fmax, which relu uses, keeps the sign of some -0.0 entries
# (the last one here) and not of others.
SPECIAL = np.array([0.0, np.nan, np.inf, -np.inf, 1.5, -2.0, -0.0])
A, B = np.repeat(SPECIAL, 7).reshape(7, 7), np.tile(SPECIAL, 7).reshape(7, 7)

FORWARD_OPS = {
    "matmul": (tz.matmul, (A, B)),
    "add": (tz.add, (A, B)),
    "sub": (tz.sub, (A, B)),
    "mul": (tz.mul, (A, B)),
    "scale": (lambda t: tz.scale(t, -0.5), (A,)),
    "relu": (tz.relu, (A,)),
    "add_bias": (tz.add_bias, (A, SPECIAL)),
    "transpose": (tz.transpose, (A,)),
    "reshape": (lambda t: tz.reshape(t, (49, 1)), (A,)),
}


@pytest.mark.parametrize("name", sorted(FORWARD_OPS))
def test_forward_op_gives_the_same_bits_on_both_paths(name):
    op, arrays = FORWARD_OPS[name]
    with np.errstate(invalid="ignore"):
        recorded = op(*(Tensor(a.copy(), requires_grad=True) for a in arrays))
        assert recorded.node is not None
        before = tz.tape_size()
        with no_tape():
            fast = op(*(Tensor(a.copy(), requires_grad=True) for a in arrays))
    assert fast.node is None and tz.tape_size() == before
    _same_bits(recorded.data, fast.data)


def test_relu_gradient_mask_from_output_is_the_input_mask():
    """relu's rule reads its output: y > 0 is a > 0 bit for bit, for NaN,
    ±0.0 and ±inf entries and under upstream gradients holding them too."""
    for g in (np.random.default_rng(47).normal(size=A.shape), B):
        x = Tensor(A.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):
            y = tz.relu(x)
            (gx,) = y.node.bwd(g)
            want = g * (A > 0)
        _same_bits(gx, want)
