"""Tensor engine: forward values against brute-force oracles, gradients
against central finite differences, and tape discipline."""

import numpy as np
import pytest

from motioncast import tensor as tz
from motioncast.tensor import (FullyMaskedRowError, ShapeError, Tensor,
                               backward, grad_check, no_tape)

from oracles import scalar_matmul, scalar_softmax_row, scalar_layer_norm


def t_(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = t_([[1.0, 0.0], [0.0, 1.0]], grad=False)
    b = t_([[3.0, 4.0], [5.0, 6.0]], grad=False)
    np.testing.assert_array_equal(tz.matmul(a, b).data, b.data)
    np.testing.assert_array_equal(tz.matmul(b, a).data, b.data)


def test_matmul_hand_sum():
    out = tz.matmul(t_([[1.0, 2.0]]), t_([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = tz.matmul(t_(a), t_(b)).data
        np.testing.assert_allclose(got, scalar_matmul(a, b), atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        tz.matmul(t_(np.zeros((2, 3))), t_(np.zeros((4, 2))))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4, 2)" in msg


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(5, 4, 2))
    got = tz.matmul(t_(a), t_(b)).data
    for h in range(5):
        np.testing.assert_allclose(got[h], a[h] @ b[h], atol=1e-12)


def test_matmul_gradients_fd():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    rep = grad_check(lambda a: tz.sum_all(tz.matmul(a, t_(b0, grad=False))), t_(a0))
    assert rep.passed, rep.max_rel_error
    rep = grad_check(lambda b: tz.sum_all(tz.matmul(t_(a0, grad=False), b)), t_(b0))
    assert rep.passed, rep.max_rel_error


def test_matmul_batched_gradients_fd():
    rng = np.random.default_rng(3)
    a0 = rng.normal(size=(2, 3, 4))
    b0 = rng.normal(size=(2, 4, 2))
    rep = grad_check(lambda a: tz.sum_all(tz.matmul(a, t_(b0, grad=False))), t_(a0))
    assert rep.passed
    rep = grad_check(lambda b: tz.sum_all(tz.matmul(t_(a0, grad=False), b)), t_(b0))
    assert rep.passed


# ---------------------------------------------------------------------------
# masked softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetric_row():
    out = tz.softmax_masked(t_([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_single_unmasked_column():
    mask = np.array([[0.0, tz.MASK_SENTINEL]])
    out = tz.softmax_masked(t_([[5.0, 7.0]]), mask)
    assert out.data[0, 0] == 1.0
    assert out.data[0, 1] == 0.0  # exactly, not approximately


def test_softmax_matches_exp_sum_oracle():
    out = tz.softmax_masked(t_([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(out.data[0], scalar_softmax_row([1.0, 2.0, 3.0]),
                               atol=1e-12)


def test_softmax_rows_sum_to_one_and_masked_exact_zero():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(6, 6)) * 3
    mask = np.zeros((6, 6))
    mask[np.triu_indices(6, k=1)] = tz.MASK_SENTINEL
    out = tz.softmax_masked(t_(scores), mask).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)
    assert np.all(out[np.triu_indices(6, k=1)] == 0.0)


@pytest.mark.parametrize("mask", [None, np.zeros((1, 2))], ids=["unmasked", "masked"])
def test_softmax_shifts_large_scores_before_exp(mask):
    """exp(800) overflows to inf, so only the row-max shift keeps the row finite."""
    scores = [[800.0, 0.0]]
    with tz.no_tape():
        fast = tz.softmax_masked(t_(scores), mask, out=Tensor(np.empty((1, 2))))
    x = t_(scores)
    recorded = tz.softmax_masked(x, mask)
    assert np.array_equal(fast.data, [[1.0, 0.0]])
    assert np.array_equal(recorded.data, [[1.0, 0.0]])
    tz.backward(tz.sum_all(tz.mul(recorded, t_([[1.0, 2.0]], grad=False))))
    assert np.isfinite(x.grad).all()


def test_softmax_fully_masked_row_raises():
    mask = np.full((1, 3), tz.MASK_SENTINEL)
    with pytest.raises(FullyMaskedRowError):
        tz.softmax_masked(t_([[1.0, 2.0, 3.0]]), mask)


def test_softmax_gradients_fd():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(4, 5))
    mask = np.zeros((4, 5))
    mask[0, 3] = mask[2, 1] = tz.MASK_SENTINEL
    w = rng.normal(size=(4, 5))

    def f(x):
        return tz.sum_all(tz.mul(tz.softmax_masked(x, mask), t_(w, grad=False)))

    rep = grad_check(f, t_(scores))
    assert rep.passed, rep.max_rel_error


def test_softmax_batched_heads():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=(3, 4, 4))
    mask = np.zeros((4, 4))
    mask[np.triu_indices(4, k=1)] = tz.MASK_SENTINEL
    out = tz.softmax_masked(t_(scores), mask).data
    for h in range(3):
        np.testing.assert_allclose(out[h].sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(out[h][np.triu_indices(4, k=1)] == 0.0)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    gain, bias = t_(np.ones(4), grad=False), t_(np.zeros(4), grad=False)
    out = tz.layer_norm(t_(np.full((2, 4), 3.25)), gain, bias)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_layer_norm_two_point_row():
    gain, bias = t_(np.ones(2), grad=False), t_(np.zeros(2), grad=False)
    out = tz.layer_norm(t_([[1.0, 3.0]]), gain, bias, eps=1e-14)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-10)


def test_layer_norm_matches_two_pass_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6)) * 2
    gain = rng.normal(size=6)
    bias = rng.normal(size=6)
    got = tz.layer_norm(t_(x), t_(gain), t_(bias)).data
    for i in range(3):
        np.testing.assert_allclose(got[i], scalar_layer_norm(list(x[i]), gain, bias),
                                   atol=1e-10)


def test_layer_norm_gradients_fd():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(3, 5))
    g0 = rng.normal(size=5)
    b0 = rng.normal(size=5)
    w = rng.normal(size=(3, 5))

    def loss_of(x, g, b):
        return tz.sum_all(tz.mul(tz.layer_norm(x, g, b), t_(w, grad=False)))

    assert grad_check(lambda x: loss_of(x, t_(g0, grad=False), t_(b0, grad=False)),
                      t_(x0)).passed
    assert grad_check(lambda g: loss_of(t_(x0, grad=False), g, t_(b0, grad=False)),
                      t_(g0)).passed
    assert grad_check(lambda b: loss_of(t_(x0, grad=False), t_(g0, grad=False), b),
                      t_(b0)).passed


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_add_identity():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 4))
    out = tz.add(t_(x), t_(np.zeros((3, 4))))
    np.testing.assert_array_equal(out.data, x)


def test_relu_definition():
    out = tz.relu(t_([[-1.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        tz.add(t_(np.zeros((2, 3))), t_(np.zeros((3, 2))))


def test_scale_gradient_is_constant_factor():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(4,))
    rep = grad_check(lambda x: tz.sum_all(tz.scale(x, 2.0)), t_(x0))
    assert rep.passed
    x = t_(x0)
    backward(tz.sum_all(tz.scale(x, 2.0)))
    np.testing.assert_allclose(x.grad, np.full(4, 2.0), atol=1e-12)


def test_elementwise_gradients_fd():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=(3, 3))
    b0 = rng.normal(size=(3, 3)) + 0.1  # keep relu inputs off the kink

    cases = {
        "add": lambda a: tz.sum_all(tz.add(a, t_(b0, grad=False))),
        "sub": lambda a: tz.sum_all(tz.sub(a, t_(b0, grad=False))),
        "mul": lambda a: tz.sum_all(tz.mul(a, t_(b0, grad=False))),
        "relu": lambda a: tz.sum_all(tz.relu(a)),
    }
    for name, f in cases.items():
        rep = grad_check(f, t_(a0))
        assert rep.passed, f"{name}: {rep.max_rel_error}"


def test_add_bias_and_gradient():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    out = tz.add_bias(t_(x), t_(b))
    np.testing.assert_allclose(out.data, x + b, atol=1e-15)

    bias = t_(b)
    backward(tz.sum_all(tz.add_bias(t_(x, grad=False), bias)))
    np.testing.assert_allclose(bias.grad, np.full(3, 4.0), atol=1e-12)


def test_reshape_transpose_concat_narrow_roundtrip():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 6))
    r = tz.reshape(t_(x), (2, 12))
    assert r.shape == (2, 12)
    tr = tz.transpose(t_(x))
    np.testing.assert_array_equal(tr.data, x.T)
    tr3 = tz.transpose(t_(rng.normal(size=(2, 3, 4))), (1, 0, 2))
    assert tr3.shape == (3, 2, 4)

    a, b = t_(x[:2]), t_(x[2:])
    cat = tz.concat([a, b], axis=0)
    np.testing.assert_array_equal(cat.data, x)
    nar = tz.narrow(t_(x), 0, 1, 3)
    np.testing.assert_array_equal(nar.data, x[1:3])


def test_view_op_gradients_fd():
    rng = np.random.default_rng(14)
    x0 = rng.normal(size=(4, 6))
    w_t = t_(rng.normal(size=(6, 4)), grad=False)
    w_r = t_(rng.normal(size=(2, 12)), grad=False)
    cases = [
        lambda x: tz.sum_all(tz.mul(tz.transpose(x), w_t)),
        lambda x: tz.sum_all(tz.mul(tz.reshape(x, (2, 12)), w_r)),
        lambda x: tz.sum_all(tz.narrow(x, 0, 1, 3)),
        lambda x: tz.sum_all(tz.concat([x, x], axis=1)),
    ]
    for f in cases:
        assert grad_check(f, t_(x0)).passed


def test_mse_value_and_gradient():
    rng = np.random.default_rng(15)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(3, 4))
    out = tz.mse(t_(a0), t_(b0))
    assert out.shape == ()
    np.testing.assert_allclose(float(out.data), np.mean((a0 - b0) ** 2), atol=1e-14)
    assert grad_check(lambda a: tz.mse(a, t_(b0, grad=False)), t_(a0)).passed


# ---------------------------------------------------------------------------
# backward / tape discipline
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = t_(np.arange(6, dtype=np.float64).reshape(2, 3))
    backward(tz.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = t_([1.0, 2.0])
    backward(tz.sum_all(tz.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_backward_accumulates_over_fanout():
    x = t_([3.0])
    y = tz.add(x, x)          # dy/dx = 2
    z = tz.mul(y, x)          # z = 2x^2, dz/dx = 4x = 12
    backward(tz.sum_all(z))
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)


def test_backward_non_scalar_rejected():
    x = t_([1.0, 2.0])
    y = tz.add(x, x)
    with pytest.raises(ValueError):
        backward(y)


def test_backward_linearity_of_gradients():
    """grad of (loss1 + loss2) equals the sum of separate passes."""
    rng = np.random.default_rng(16)
    x0 = rng.normal(size=(5,))

    x = t_(x0)
    backward(tz.add(tz.sum_all(tz.mul(x, x)), tz.sum_all(tz.scale(x, 3.0))))
    joint = x.grad.copy()

    x1 = t_(x0)
    backward(tz.sum_all(tz.mul(x1, x1)))
    x2 = t_(x0)
    backward(tz.sum_all(tz.scale(x2, 3.0)))
    np.testing.assert_allclose(joint, x1.grad + x2.grad, atol=1e-12)


def test_tape_cleared_after_backward():
    x = t_([1.0, 2.0])
    backward(tz.sum_all(tz.mul(x, x)))
    assert tz.tape_size() == 0


def test_backward_off_tape_scalar_rejected():
    with pytest.raises(ValueError):
        backward(Tensor(np.float64(1.0)))


def test_backward_through_a_replayed_node_raises():
    """A second loss over a node the first backward replayed cannot get its
    gradient through it, so the call refuses instead of dropping it."""
    x = t_([1.0])
    h = tz.mul(x, x)
    l1 = tz.sum_all(h)
    l2 = tz.sum_all(tz.scale(h, 2.0))
    backward(l1)
    np.testing.assert_array_equal(x.grad, [2.0])
    with pytest.raises(ValueError, match="replayed"):
        backward(l2)
    np.testing.assert_array_equal(x.grad, [2.0])
    assert l2.node is not None


def test_an_op_recorded_on_a_replayed_output_refuses_backward():
    """``h`` keeps its replayed node, so a later op links to that node, not to
    ``h`` as a leaf: backward raises instead of dropping x's share into h.grad."""
    x = t_([1.0])
    h = tz.mul(x, x)
    backward(tz.sum_all(h))
    l2 = tz.sum_all(tz.scale(h, 2.0))
    with pytest.raises(ValueError, match="replayed"):
        backward(l2)
    np.testing.assert_array_equal(x.grad, [2.0])
    assert h.grad is None


def test_a_refused_backward_clears_tape_size():
    """A refused call resets the count as a successful one does."""
    x = t_([1.0])
    h = tz.mul(x, x)
    backward(tz.sum_all(h))
    l2 = tz.sum_all(tz.scale(h, 2.0))
    assert tz.tape_size() == 2
    with pytest.raises(ValueError, match="replayed"):
        backward(l2)
    assert tz.tape_size() == 0


def test_no_tape_context_records_nothing():
    x = t_([1.0, 2.0])
    with no_tape():
        tz.sum_all(tz.mul(x, x))
    assert tz.tape_size() == 0


def test_no_grad_inputs_record_nothing():
    a = t_(np.ones((2, 2)), grad=False)
    b = t_(np.ones((2, 2)), grad=False)
    tz.matmul(a, b)
    assert tz.tape_size() == 0


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------

def test_grad_check_identity_sum_exact():
    rep = grad_check(tz.sum_all, t_(np.random.default_rng(17).normal(size=(8,))))
    assert rep.passed
    assert rep.max_rel_error < 1e-10


def test_grad_check_masked_softmax():
    rng = np.random.default_rng(18)
    mask = np.zeros((3, 3))
    mask[np.triu_indices(3, k=1)] = tz.MASK_SENTINEL
    w = t_(rng.normal(size=(3, 3)), grad=False)

    def f(x):
        return tz.sum_all(tz.mul(tz.softmax_masked(x, mask), w))

    assert grad_check(f, t_(np.random.default_rng(19).normal(size=(3, 3)))).passed


def test_grad_check_perturbs_a_strided_leaf_in_place():
    """A leaf over a transposed array keeps that view, so grad_check must
    perturb it where it lies, and put every value back."""
    rng = np.random.default_rng(21)
    base = rng.normal(size=(3, 4))
    before = base.copy()
    x = t_(base.T)
    assert np.shares_memory(x.data, base) and not x.data.flags.c_contiguous
    w = t_(rng.normal(size=(4, 3)), grad=False)
    rep = grad_check(lambda x: tz.sum_all(tz.mul(tz.mul(x, x), w)), x)
    assert rep.passed
    np.testing.assert_array_equal(base, before)


def test_grad_check_step_validation():
    x = t_(np.ones(3))
    with pytest.raises(ValueError):
        grad_check(tz.sum_all, x, step=1e-2)


def test_grad_check_sampling():
    rng = np.random.default_rng(20)
    rep = grad_check(lambda x: tz.sum_all(tz.mul(x, x)),
                     t_(rng.normal(size=(50,))), sample=10,
                     rng=np.random.default_rng(0))
    assert len(rep.indices) == 10
    assert rep.passed
