"""Backward rules that recompute an activation instead of keeping it:
``silu``, ``gelu``, ``dropout`` and ``info_nce`` must give the outputs and
gradients of their stored-activation forms in ``tests.oracles`` bit for
bit, one op at a time and over whole desk training steps."""

import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mffftnet import tensor as tn
from mffftnet.config import RunConfig
from mffftnet.errors import NumericError
from mffftnet.model import Model
from mffftnet.tensor import Tensor
from mffftnet.training import sgd_step, total_loss
from tests import oracles

# the desk step's activation shapes: encoder blocks, MSFF's scale stack,
# the time InfoNCE operands, FACM's bin rows; and one row
SHAPES = [(2, 8, 64, 16), (2, 8, 5, 64, 16), (2, 8, 64, 32), (2, 8, 33, 16), (1, 16)]


def _dropout(x):
    return tn.dropout(x, 0.3, [5, 29], True)


def _oracle_dropout(x):
    return oracles.dropout(x, 0.3, [5, 29], True)


UNARY = {
    "silu": (tn.silu, oracles.silu),
    "gelu": (tn.gelu, oracles.gelu),
    "dropout": (_dropout, _oracle_dropout),
}


def _run(op, inputs, w):
    """op's output and every input's gradient under the upstream weight w."""
    ts = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    y = op(*ts)
    tn.tsum(y * Tensor(w)).backward()
    return [y.data] + [t.grad for t in ts]


def assert_bitwise(got, want):
    """Equal arrays with equal bytes, so signed zeros count too."""
    assert len(got) == len(want)
    for g, o in zip(got, want):
        assert np.array_equal(g, o)
        assert g.shape == o.shape and g.tobytes() == o.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_recompute_matches_stored_form_bitwise(rng, name, shape):
    op, oracle = UNARY[name]
    x = rng.normal(size=shape) * 3.0
    w = rng.normal(size=shape)
    assert_bitwise(_run(op, [x], w), _run(oracle, [x], w))


def _elementwise_grid(extra) -> np.ndarray:
    """x across [-1000, 1000]: a regular grid, ±709 (the logistic's cap) and
    their neighbours, signed zeros, the smallest subnormals, and ``extra``."""
    cap = [np.nextafter(709.0, d) for d in (0.0, np.inf)] + [709.0]
    edges = cap + [-c for c in cap] + [0.0, -0.0, 5e-324, -5e-324, 1000.0, -1000.0]
    return np.concatenate([np.linspace(-1000.0, 1000.0, 4001), edges, extra])


@settings(max_examples=20, deadline=None)
@given(extra=st.lists(st.floats(-1000.0, 1000.0), max_size=64),
       rate=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_oracle_in_place_elementwise_rules_match_previous_expressions_bitwise(extra, rate, seed):
    # the in-place logistic, SiLU, GELU and dropout mask against the
    # out-of-place expressions they replaced, on the same x and upstream g
    x = _elementwise_grid(extra)
    w = np.random.default_rng(seed).normal(size=x.shape)
    assert tn._logistic(x).tobytes() == oracles.logistic(x).tobytes()
    if rate:
        mask = tn.dropout(Tensor(np.ones_like(x)), rate, [seed], True).data
        assert mask.tobytes() == oracles.dropout_mask([seed], x.shape, rate).tobytes()
    for op, oracle in [(tn.silu, oracles.silu), (tn.gelu, oracles.gelu),
                       (lambda t: tn.dropout(t, rate, [seed], True),
                        lambda t: oracles.dropout(t, rate, [seed], True))]:
        assert_bitwise(_run(op, [x], w), _run(oracle, [x], w))


# scale 12 spreads a row's logits by hundreds, so softmax entries underflow
# to zero and meet negative upstream weights
@pytest.mark.parametrize("scale", [1.0, 12.0])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_info_nce_node_matches_primitive_composition_bitwise(rng, shape, scale):
    a, b = rng.normal(size=shape) * scale, rng.normal(size=shape) * scale
    w = rng.normal(size=shape[:-1])
    assert_bitwise(_run(tn.info_nce, [a, b], w), _run(oracles.info_nce, [a, b], w))


def test_info_nce_is_one_tape_node_keeping_no_logits(rng):
    a = Tensor(rng.normal(size=(8, 64, 32)), requires_grad=True)
    b = Tensor(rng.normal(size=(8, 64, 32)), requires_grad=True)
    out = tn.info_nce(a, b)
    assert out._node.parents == (a._node, b._node)
    kept = [c.cell_contents for c in out._backward_fn.__closure__]
    sizes = sorted(v.size for v in kept if isinstance(v, np.ndarray))
    # a, b and one max and one exp-sum per row: no rows x rows array
    assert sizes == [8 * 64, 8 * 64, a.data.size, b.data.size]


def test_dropout_mask_ignores_seed_list_mutated_after_forward(rng):
    x = rng.normal(size=(2, 8, 64, 16))
    w = rng.normal(size=x.shape)
    seed = [5, 29]
    t = Tensor(x.copy(), requires_grad=True)
    y = tn.dropout(t, 0.3, seed, True)
    seed[0] = 6
    tn.tsum(y * Tensor(w)).backward()
    assert_bitwise([y.data, t.grad], _run(_oracle_dropout, [x], w))


def test_activations_keep_only_their_input(rng):
    for op in (tn.silu, tn.gelu, _dropout):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = op(x)
        kept = [c.cell_contents for c in y._backward_fn.__closure__]
        assert not any(isinstance(v, np.ndarray) and v is not x.data for v in kept)
        ref = weakref.ref(y.data)
        del y
        assert ref() is None


def test_non_finite_info_nce_operand_names_info_nce():
    a = Tensor(np.array([[np.inf, 1.0], [0.5, 2.0]]), requires_grad=True)
    b = Tensor(np.ones((2, 2)))
    with pytest.raises(NumericError, match=r"info_nce .* of shape \(2, 2\)"):
        tn.info_nce(a, b)


def _desk_steps_digest(overrides, n_steps=5):
    """sha256 over n desk SGD steps' loss terms and every parameter's gradient."""
    cfg = RunConfig.resolve("desk", flag_overrides=overrides)
    model = Model.build(cfg.model_config(7), init_seed=3)
    train_cfg, aug_cfg = cfg.train_config(), cfg.augment_config()
    rng = np.random.default_rng(4)
    digest, velocities = hashlib.sha256(), {}
    for step in range(n_steps):
        batch = rng.normal(size=(8, int(cfg["window.length"]), 7))
        losses = total_loss(batch, model, train_cfg, aug_cfg, step=step)
        model.zero_grad()
        losses[0].backward()
        for loss in losses:
            digest.update(loss.data.tobytes())
        for p in model.parameters():
            digest.update(p.name.encode() + p.grad.tobytes())
        sgd_step(model.parameters(), velocities, train_cfg.learning_rate,
                 train_cfg.momentum, train_cfg.weight_decay)
    return digest.hexdigest()


@pytest.mark.parametrize("overrides", [
    {},
    {"backbone.activation": "gelu", "backbone.dropout": 0.2},
], ids=["desk", "desk-gelu-dropout"])
def test_desk_steps_match_stored_activation_path_bitwise(monkeypatch, overrides):
    got = _desk_steps_digest(overrides)
    for name in ("silu", "gelu", "dropout", "info_nce"):
        monkeypatch.setattr(tn, name, getattr(oracles, name))
    assert got == _desk_steps_digest(overrides)
