"""Numeric core: forward semantics of every primitive plus gradient checks
against central finite differences."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mffftnet import tensor as tn
from mffftnet.config import RunConfig
from mffftnet.errors import ContractError, DimensionError, NumericError, ParameterError
from mffftnet.model import Model
from mffftnet.tensor import Parameter, Tensor
from mffftnet.training import total_loss
from tests.oracles import finite_diff_check


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


@pytest.mark.parametrize(
    "k,dilation,T",
    [
        pytest.param(3, 4, None, id="3-4"),
        pytest.param(16, 1, None, id="16-1"),
        pytest.param(128, 1, None, id="128-1"),
        # taps whose shift reaches past the window read only zeros
        pytest.param(3, 8, 10, id="3-8-T10"),
        pytest.param(4, 3, 7, id="4-3-T7"),
        pytest.param(5, 1, 1, id="5-1-T1"),
    ],
)
def test_conv1d_backward_matches_tap_oracle(rng, k, dilation, T):
    # tap i reads x[t - s] with s = (k - 1 - i) * dilation, and nothing when s >= T
    T = (k - 1) * dilation + 7 if T is None else T
    x, w, g = rng.normal(size=(2, T, 3)), rng.normal(size=(k, 3, 2)), rng.normal(size=(2, T, 2))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = tn.causal_conv1d(xt, wt, dilation)
    tn.tsum(out * Tensor(g)).backward()
    y, gx, gw = np.zeros(g.shape), np.zeros_like(x), np.zeros_like(w)
    for i in range(k):
        s = (k - 1 - i) * dilation
        if s >= T:
            continue
        y[:, s:] += x[:, : T - s] @ w[i]
        gx[:, : T - s] += g[:, s:] @ w[i].T
        gw[i] = np.einsum("btc,bto->co", x[:, : T - s], g[:, s:])
    np.testing.assert_allclose(out.data, y, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xt.grad, gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wt.grad, gw, rtol=0, atol=1e-12)


# -- conv2d ------------------------------------------------------------------


def conv2d_loop_oracle(x, w):
    """Direct cross-correlation, one output cell and one tap at a time, with
    (k-1)//2 zeros before and the rest after on each spatial axis."""
    kh, kw, _, cout = w.shape
    H, W = x.shape[-3], x.shape[-2]
    out = np.zeros(x.shape[:-1] + (cout,))
    for i in range(H):
        for j in range(W):
            for a in range(kh):
                for b in range(kw):
                    u, v = i + a - (kh - 1) // 2, j + b - (kw - 1) // 2
                    if 0 <= u < H and 0 <= v < W:
                        out[..., i, j, :] += x[..., u, v, :] @ w[a, b]
    return out


def test_conv2d_1x1_identity():
    x = np.arange(6.0).reshape(2, 3, 1)
    w = np.ones((1, 1, 1, 1))
    out = tn.conv2d(Tensor(x), Tensor(w))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_conv2d_ones_hand_case():
    out = tn.conv2d(Tensor(np.ones((3, 3, 1))), Tensor(np.ones((3, 3, 1, 1))))
    np.testing.assert_allclose(
        out.data[..., 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]
    )


def test_conv2d_same_padding_preserves_shape(rng):
    x = rng.normal(size=(6, 8, 2))
    w = rng.normal(size=(3, 3, 2, 4))
    out = tn.conv2d(Tensor(x), Tensor(w))
    assert out.shape == (6, 8, 4)


@pytest.mark.parametrize(
    "kh,kw,H,W",
    [(3, 3, 4, 5), (2, 2, 4, 5), (3, 3, 1, 5), (2, 2, 1, 1), (7, 3, 2, 5)],
    # H=1 is a one-kernel CTCM stack; there and at 7x3 on H=2 some taps read
    # only the zero border
    ids=["3x3", "2x2", "3x3-H1", "2x2-H1-W1", "7x3-H2"],
)
def test_conv2d_matches_loop_oracle(rng, kh, kw, H, W):
    x = rng.normal(size=(2, H, W, 3))
    w = rng.normal(size=(kh, kw, 3, 2))
    out = tn.conv2d(Tensor(x), Tensor(w))
    np.testing.assert_allclose(out.data, conv2d_loop_oracle(x, w), rtol=0, atol=1e-12)
    # the even kernel pads unevenly, so its backward crop is checked too
    g = rng.normal(size=out.shape)
    fdc(lambda t: tn.tsum(tn.conv2d(t, Tensor(w)) * Tensor(g)), x, 1e-5)
    fdc(lambda t: tn.tsum(tn.conv2d(Tensor(x), t) * Tensor(g)), w, 1e-5)


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        tn.conv2d(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 2, 1))))


def test_conv2d_gradient(rng):
    w = rng.normal(size=(3, 3, 2, 2))

    def fx(x):
        return tn.tsum(tn.conv2d(x, Tensor(w)))

    fdc(fx, rng.normal(size=(6, 8, 2)), 1e-5)

    x = rng.normal(size=(6, 8, 2))

    def fw(wt):
        return tn.tsum(tn.conv2d(Tensor(x), wt))

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


def test_first_gradient_is_an_owned_copy(rng):
    # add hands the same g to both parents; p is read twice
    p = Parameter(rng.normal(size=(3, 2)), name="p")
    q = Parameter(rng.normal(size=(3, 2)), name="q")
    c = rng.normal(size=(3, 2))
    s = p + q
    y = p + p
    (tn.tsum(s * Tensor(c)) + tn.tsum(y * Tensor(c))).backward()
    np.testing.assert_allclose(p.grad, 3 * c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(q.grad, c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(s.grad, c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(y.grad, c, rtol=0, atol=1e-15)
    grads = [p.grad, q.grad, s.grad, y.grad]
    for i in range(len(grads)):
        for j in range(i):
            assert not np.shares_memory(grads[i], grads[j])


def test_unreachable_parameter_gets_no_gradient():
    p = Parameter(np.ones(2), name="p")
    q = Parameter(np.ones(2), name="q")
    tn.tsum(p).backward()
    assert q.grad is None  # treated as zero by the optimizer


def test_backward_releases_intermediate_arrays(rng):
    p = Parameter(rng.normal(size=(3, 2)), name="p")
    y = p * Tensor(rng.normal(size=(3, 2)))
    ref = weakref.ref(y.data)
    loss = tn.tsum(tn.silu(y))
    del y
    loss.backward()
    assert ref() is None
    assert p.grad is not None


def test_second_backward_raises_and_keeps_leaf_grads(rng):
    p = Parameter(rng.normal(size=(3, 2)), name="p")
    loss = tn.tsum(tn.silu(p * Tensor(rng.normal(size=(3, 2)))))
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(ContractError, match="released"):
        loss.backward()
    np.testing.assert_array_equal(p.grad, first)


def test_backward_through_consumed_graph_raises_before_any_gradient(rng):
    p = Parameter(rng.normal(size=(3, 2)), name="p")
    q = Parameter(rng.normal(size=(3, 2)), name="q")
    y = tn.silu(p * Tensor(rng.normal(size=(3, 2))))
    tn.tsum(y).backward()
    first, y_first = p.grad.copy(), y.grad.copy()
    # a new loss over q and the consumed y: neither may change
    with pytest.raises(ContractError, match="released"):
        tn.tsum(y * q).backward()
    np.testing.assert_array_equal(p.grad, first)
    np.testing.assert_array_equal(y.grad, y_first)
    assert q.grad is None


def test_forward_frees_an_intermediate_no_rule_reads(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Parameter(rng.normal(size=(3, 2)), name="w")
    b = Parameter(rng.normal(size=(2,)), name="b")
    m = tn.matmul(x, w)
    ref = weakref.ref(m.data)
    y = m + b
    del m
    assert ref() is None  # before backward: add's rule reads no array
    c = rng.normal(size=(4, 2))
    tn.tsum(y * Tensor(c)).backward()
    np.testing.assert_allclose(x.grad, c @ w.data.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, c.sum(axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("op", [tn.matmul, tn.mul])
def test_operand_array_kept_only_for_the_other_operands_gradient(rng, op):
    # h needs a gradient and c does not: the rule reads c, never h's array
    p = Parameter(rng.normal(size=(3, 3)), name="p")
    c = rng.normal(size=(3, 3))
    h = p * 2.0
    ref = weakref.ref(h.data)
    y = op(h, Tensor(c))
    del h
    assert ref() is None
    tn.tsum(y).backward()
    g = np.ones((3, 3)) @ c.T if op is tn.matmul else c
    np.testing.assert_allclose(p.grad, 2.0 * g, rtol=0, atol=1e-12)


def _desk_step_loss(seed=1):
    """One desk-profile B=8 training step's loss terms, as a thunk."""
    cfg = RunConfig.resolve("desk")
    model = Model.build(cfg.model_config(7), init_seed=seed)
    batch = np.random.default_rng(seed).normal(size=(8, int(cfg["window.length"]), 7))
    return lambda: total_loss(batch, model, cfg.train_config(), cfg.augment_config())


def test_desk_forward_tape_is_at_most_5mb():
    # every op output stayed alive until backward before the tape held
    # nodes: 11.4 MB at the desk shape; 6.5 MB while SiLU kept its
    # logistic, dropout its mask and InfoNCE its softmax; 4.6 MB now
    step = _desk_step_loss()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        losses = step()
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(losses[0].item())
    assert live <= 5e6, live / 1e6


def test_desk_step_peak_is_at_most_7mb():
    # one desk loss and its backward: 8.2 MB while the activations above
    # were kept, 6.8 MB now
    step = _desk_step_loss()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()[0].backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, peak / 1e6


def test_no_backward_rule_closes_over_a_tensor():
    # walk a desk step's tape; a rule's helper functions count as the rule
    (loss, _, _) = _desk_step_loss()()
    seen, stack, rules = set(), [loss._node], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        fns = [node.backward_fn] if node.backward_fn is not None else []
        rules += len(fns)
        while fns:
            for cell in fns.pop().__closure__ or ():
                values = cell.cell_contents
                values = values if isinstance(values, (list, tuple)) else [values]
                assert not any(isinstance(v, Tensor) for v in values)
                fns += [v for v in values if callable(v) and hasattr(v, "__closure__")]
    assert rules >= 50  # the walk reached the whole step


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


def test_info_nce_matches_softmax_loop(rng):
    a, b = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
    out = tn.info_nce(Tensor(a), Tensor(b))
    assert out.shape == (2, 4)
    for n in range(2):
        for i in range(4):
            pos = np.exp(a[n, i] @ b[n, i])
            denom = sum(np.exp(a[n, i] @ b[n, j]) for j in range(4))
            assert abs(out.data[n, i] + np.log(pos / denom)) < 1e-12


def test_info_nce_gradient_in_both_arguments(rng):
    a, b = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
    w = Tensor(rng.normal(size=(2, 4)))
    fdc(lambda t: tn.tsum(tn.info_nce(t, Tensor(b)) * w), a, 1e-6)
    fdc(lambda t: tn.tsum(tn.info_nce(Tensor(a), t) * w), b, 1e-6)


def test_info_nce_shape_mismatch():
    with pytest.raises(ContractError):
        tn.info_nce(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))))


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


def test_unstack_inner_axis_gradient(rng):
    x = rng.normal(size=(3, 2, 4))
    parts = tn.unstack(Tensor(x), axis=-2)
    assert len(parts) == 2
    for i, part in enumerate(parts):
        np.testing.assert_array_equal(part.data, x[:, i])
    w0, w1 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

    def f(t):
        a, b = tn.unstack(t, axis=-2)
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


def test_numeric_error_names_op_and_shape():
    a, b = Tensor(np.full((2, 3), 1e200)), Tensor(np.full((3, 4), 1e200))
    with np.errstate(over="ignore"), pytest.raises(
        NumericError, match=r"matmul output of shape \(2, 4\)"
    ):
        tn.matmul(a, b)
    x, w = Tensor(np.full((1, 5, 3), 1e200)), Tensor(np.full((2, 3, 4), 1e200))
    with np.errstate(over="ignore"), pytest.raises(
        NumericError, match=r"causal_conv1d output of shape \(1, 5, 4\)"
    ):
        tn.causal_conv1d(x, w)


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
