"""Numeric core: forward semantics of every primitive plus gradient checks
against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mffftnet import tensor as tn
from mffftnet.errors import DimensionError, NumericError, ParameterError
from mffftnet.tensor import Parameter, Tensor, finite_diff_check


def fdc(f, x, tol, step=1e-5):
    err = finite_diff_check(f, Tensor(np.asarray(x, dtype=np.float64)), step=step)
    assert err < tol, f"finite-difference rel. error {err} >= {tol}"


# -- matmul ------------------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = tn.matmul(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    out = tn.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient(rng):
    b = rng.normal(size=(4, 3))

    def f(a):
        return tn.tsum(tn.matmul(a, Tensor(b)))

    a = rng.normal(size=(5, 4))
    fdc(f, a, 1e-6)
    # gradient of sum(a @ b) w.r.t. a is the row-broadcast of b's column sums
    probe = Tensor(a, requires_grad=True)
    tn.tsum(tn.matmul(probe, Tensor(b))).backward()
    np.testing.assert_allclose(
        probe.grad, np.broadcast_to(b.sum(axis=1), (5, 4)), atol=1e-12
    )


def test_matmul_batched_leading_axes(rng):
    a = rng.normal(size=(3, 5, 4))
    b = rng.normal(size=(4, 2))
    out = tn.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, atol=1e-12)


# -- causal_conv1d -----------------------------------------------------------


def test_conv1d_kernel1_identity():
    x = np.arange(12.0).reshape(4, 3)
    w = np.eye(3)[None]  # k=1 channel identity
    out = tn.causal_conv1d(Tensor(x), Tensor(w))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_conv1d_hand_case():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    w = np.ones((2, 1, 1))
    out = tn.causal_conv1d(Tensor(x), Tensor(w), dilation=1)
    np.testing.assert_allclose(out.data.ravel(), [1.0, 3.0, 5.0, 7.0])


def test_conv1d_bad_params():
    x = Tensor(np.zeros((4, 1)))
    with pytest.raises(ParameterError):
        tn.causal_conv1d(x, Tensor(np.ones((1, 1, 1))), dilation=0)


def test_conv1d_gradient(rng):
    w = rng.normal(size=(3, 2, 2))

    def fx(x):
        return tn.tsum(tn.causal_conv1d(x, Tensor(w), dilation=4))

    fdc(fx, rng.normal(size=(16, 2)), 1e-5)

    x = rng.normal(size=(16, 2))

    def fw(wt):
        return tn.tsum(tn.causal_conv1d(Tensor(x), wt, dilation=4))

    fdc(fw, w, 1e-5)


def test_conv1d_causality(rng):
    x = rng.normal(size=(10, 2))
    w = rng.normal(size=(3, 2, 2))
    base = tn.causal_conv1d(Tensor(x), Tensor(w), dilation=2).data
    for t in range(10):
        x2 = x.copy()
        x2[t + 1 :] = 0.0
        out = tn.causal_conv1d(Tensor(x2), Tensor(w), dilation=2).data
        np.testing.assert_allclose(out[: t + 1], base[: t + 1], atol=1e-12)


# -- conv2d ------------------------------------------------------------------


def test_conv2d_1x1_identity():
    x = np.arange(6.0).reshape(1, 2, 3)
    w = np.ones((1, 1, 1, 1))
    out = tn.conv2d(Tensor(x), Tensor(w), padding="none")
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_conv2d_ones_hand_case():
    out = tn.conv2d(
        Tensor(np.ones((1, 3, 3))), Tensor(np.ones((3, 3, 1, 1))), padding="none"
    )
    np.testing.assert_allclose(out.data, [[[9.0]]])


def test_conv2d_kernel_too_large():
    with pytest.raises(ParameterError):
        tn.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((3, 3, 1, 1))), "none")


def test_conv2d_same_padding_preserves_shape(rng):
    x = rng.normal(size=(2, 6, 8))
    w = rng.normal(size=(3, 3, 2, 4))
    out = tn.conv2d(Tensor(x), Tensor(w), padding="same")
    assert out.shape == (4, 6, 8)


def test_conv2d_gradient(rng):
    w = rng.normal(size=(3, 3, 2, 2))

    def fx(x):
        return tn.tsum(tn.conv2d(x, Tensor(w), padding="same"))

    fdc(fx, rng.normal(size=(2, 6, 8)), 1e-5)

    x = rng.normal(size=(2, 6, 8))

    def fw(wt):
        return tn.tsum(tn.conv2d(Tensor(x), wt, padding="same"))

    fdc(fw, w, 1e-5)


# -- avg_pool2d --------------------------------------------------------------


def test_pool_window_1_identity(rng):
    x = rng.normal(size=(2, 3, 4))
    out = tn.avg_pool2d(Tensor(x), (1, 1))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_pool_hand_case():
    out = tn.avg_pool2d(Tensor([[[1.0, 2.0], [3.0, 4.0]]]), (2, 2))
    np.testing.assert_allclose(out.data, [[[2.5]]])


def test_pool_conservation(rng):
    x = rng.normal(size=(3, 6, 8))
    out = tn.avg_pool2d(Tensor(x), (3, 2))
    assert abs(out.data.sum() * 6 - x.sum()) < 1e-12


def test_pool_window_too_large():
    with pytest.raises(ParameterError):
        tn.avg_pool2d(Tensor(np.ones((1, 2, 2))), (3, 1))


def test_pool_gradient(rng):
    def f(x):
        return tn.tsum(tn.avg_pool2d(x, (2, 1)) * Tensor([[[1.0, -2.0, 3.0]]]))

    fdc(f, rng.normal(size=(1, 4, 3)), 1e-6)


# -- activations -------------------------------------------------------------


def test_silu_values():
    assert tn.silu(Tensor([0.0])).data[0] == 0.0
    np.testing.assert_allclose(tn.silu(Tensor([1.0])).data[0], 0.731058579, atol=1e-9)


def test_silu_gradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    tn.tsum(tn.silu(x)).backward()
    np.testing.assert_allclose(x.grad, [0.5], atol=1e-12)
    fdc(lambda t: tn.tsum(tn.silu(t)), np.array([0.0]), 1e-8)


def test_sigmoid_silu_no_overflow_at_large_magnitudes():
    for op in (tn.sigmoid, tn.silu):
        x = Tensor([-1000.0, 1000.0], requires_grad=True)
        with np.errstate(over="raise"):
            tn.tsum(op(x)).backward()
        assert np.all(np.isfinite(x.grad))
    # every x >= -709 keeps the uncapped formula's exact value
    x = np.linspace(-709.0, 709.0, 2001)
    s = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_array_equal(tn.sigmoid(Tensor(x)).data, s)
    np.testing.assert_array_equal(tn.silu(Tensor(x)).data, x * s)


def test_gelu_gradient(rng):
    fdc(lambda t: tn.tsum(tn.gelu(t)), rng.normal(size=(7,)), 1e-6)


def test_gelu_differs_from_silu(rng):
    x = Tensor(rng.normal(size=(5,)))
    assert not np.allclose(tn.gelu(x).data, tn.silu(x).data)


# -- dropout -----------------------------------------------------------------


def test_dropout_rate_zero_identity(rng):
    x = rng.normal(size=(4, 4))
    out = tn.dropout(Tensor(x), 0.0, 0, training=True)
    np.testing.assert_array_equal(out.data, x)


def test_dropout_eval_identity(rng):
    x = rng.normal(size=(4, 4))
    out = tn.dropout(Tensor(x), 0.9, 0, training=False)
    np.testing.assert_array_equal(out.data, x)


def test_dropout_statistics():
    x = np.ones(10**6)
    out = tn.dropout(Tensor(x), 0.5, 1, training=True).data
    zero_frac = np.mean(out == 0.0)
    assert abs(zero_frac - 0.5) < 0.01
    assert abs(out.mean() - 1.0) < 0.01


def test_dropout_bad_rate():
    with pytest.raises(ParameterError):
        tn.dropout(Tensor([1.0]), 1.0, 0, training=True)


def test_dropout_deterministic(rng):
    x = rng.normal(size=(16,))
    a = tn.dropout(Tensor(x), 0.3, 42, training=True).data
    b = tn.dropout(Tensor(x), 0.3, 42, training=True).data
    np.testing.assert_array_equal(a, b)


# -- backward ----------------------------------------------------------------


def test_backward_sum_gives_ones():
    p = Parameter(np.zeros((3, 2)), name="p")
    tn.tsum(p).backward()
    np.testing.assert_array_equal(p.grad, np.ones((3, 2)))


def test_backward_sum_of_squares(rng):
    data = rng.normal(size=(4,))
    p = Parameter(data, name="p")
    tn.tsum(p * p).backward()
    np.testing.assert_allclose(p.grad, 2 * data, atol=1e-12)


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_backward_accumulates_shared_parameter(rng):
    data = rng.normal(size=(3,))
    p = Parameter(data, name="p")
    (tn.tsum(p * 2.0) + tn.tsum(p * 3.0)).backward()
    np.testing.assert_allclose(p.grad, np.full(3, 5.0), atol=1e-12)


def test_backward_deterministic_after_reset(rng):
    data = rng.normal(size=(4,))

    def run():
        p = Parameter(data.copy(), name="p")
        tn.tsum(tn.silu(p * p)).backward()
        return p.grad.copy()

    np.testing.assert_array_equal(run(), run())


def test_unreachable_parameter_gets_no_gradient():
    p = Parameter(np.ones(2), name="p")
    q = Parameter(np.ones(2), name="q")
    tn.tsum(p).backward()
    assert q.grad is None  # treated as zero by the optimizer


# -- reductions and shape ops ------------------------------------------------


def test_logsumexp_matches_numpy(rng):
    x = rng.normal(size=(3, 5)) * 10
    out = tn.logsumexp(Tensor(x), axis=-1)
    expect = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_logsumexp_stable_at_large_magnitudes():
    out = tn.logsumexp(Tensor([[1000.0, 1000.0]]), axis=-1)
    np.testing.assert_allclose(out.data, [1000.0 + np.log(2.0)], atol=1e-12)


def test_logsumexp_gradient(rng):
    fdc(lambda t: tn.tsum(tn.logsumexp(t, axis=-1)), rng.normal(size=(3, 4)), 1e-6)


def test_diagonal(rng):
    x = rng.normal(size=(2, 3, 3))
    out = tn.diagonal(Tensor(x))
    np.testing.assert_array_equal(out.data, np.diagonal(x, axis1=-2, axis2=-1))
    fdc(lambda t: tn.tsum(tn.diagonal(t) * Tensor([1.0, -1.0, 2.0])), x, 1e-6)


def test_concat_and_gradient(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
    out = tn.concat([Tensor(a), Tensor(b)], axis=-1)
    np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=-1))
    fdc(lambda t: tn.tsum(tn.concat([t, Tensor(b)], axis=-1) * 1.5), a, 1e-6)


def test_unstack_and_gradient(rng):
    x = rng.normal(size=(2, 3, 2))
    parts = tn.unstack(Tensor(x))
    assert len(parts) == 2
    for i, part in enumerate(parts):
        np.testing.assert_array_equal(part.data, x[i])
    w0, w1 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

    def f(t):
        a, b = tn.unstack(t)
        return tn.tsum(a * Tensor(w0)) + tn.tsum(b * b * Tensor(w1))

    fdc(f, x, 1e-6)


def test_transpose_reshape_gradient(rng):
    def f(t):
        return tn.tsum(tn.reshape(tn.transpose(t, (1, 0)), (6,)) * Tensor(np.arange(6.0)))

    fdc(f, rng.normal(size=(2, 3)), 1e-6)


def test_mean_and_exp_log_sqrt_tanh_gradients(rng):
    x = np.abs(rng.normal(size=(5,))) + 0.5
    fdc(lambda t: tn.tmean(tn.texp(t)), x, 1e-6)
    fdc(lambda t: tn.tsum(tn.tlog(t)), x, 1e-6)
    fdc(lambda t: tn.tsum(tn.tsqrt(t)), x, 1e-6)
    fdc(lambda t: tn.tsum(tn.ttanh(t)), x, 1e-6)


def test_atan2_gradient(rng):
    y = rng.normal(size=(4,)) + 2.0
    x = rng.normal(size=(4,)) + 2.0
    fdc(lambda t: tn.tsum(tn.atan2(t, Tensor(x))), y, 1e-6)
    fdc(lambda t: tn.tsum(tn.atan2(Tensor(y), t)), x, 1e-6)


# -- finiteness and oracle self-tests ---------------------------------------


def test_finite_check_raises_on_overflow():
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        tn.texp(Tensor([1e308]))


def test_finite_diff_check_sum_of_squares(rng):
    err = finite_diff_check(lambda t: tn.tsum(t * t), Tensor(rng.normal(size=(6,))))
    assert err < 1e-9


def test_finite_diff_check_silu_sum(rng):
    err = finite_diff_check(
        lambda t: tn.tsum(tn.silu(t)), Tensor(rng.normal(size=(6,)))
    )
    assert err < 1e-7


def test_no_grad_blocks_graph(rng):
    p = Parameter(rng.normal(size=(3,)), name="p")
    with tn.no_grad():
        out = tn.tsum(p * p)
    assert out._backward_fn is None and not out.requires_grad


# -- property tests ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
def test_property_matmul_matches_numpy(seed, m, n):
    r = np.random.default_rng(seed)
    a, b = r.normal(size=(m, n)), r.normal(size=(n, m))
    np.testing.assert_allclose(tn.matmul(Tensor(a), Tensor(b)).data, a @ b, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_primitive_gradients(seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(4, 3))
    scale = Tensor(r.normal(size=(4, 3)))
    fdc(lambda t: tn.tsum(tn.silu(t) * scale), x, 1e-5)
    w = r.normal(size=(2, 3, 2))
    fdc(lambda t: tn.tsum(tn.causal_conv1d(t, Tensor(w))), x, 1e-5)
