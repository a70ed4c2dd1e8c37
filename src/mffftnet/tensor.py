"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor op records its inputs and a backward rule on an implicit tape
(the parent links of the output). ``backward`` on a scalar walks the graph
in reverse topological order and accumulates gradients with ``+=`` so a
tensor read by several ops (e.g. the backbone output, which feeds both
FACM and CTCM) receives contributions from all of them.

Ops are batch-agnostic: the documented shapes are the trailing axes and any
leading axes are treated as batch dimensions.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor; ``self`` must be scalar."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ParameterError("tensor/tensor division is not supported")
        return mul(self, _as_tensor(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable tensor; ``weight_decay_exempt`` marks biases and the like."""

    __slots__ = ("name", "weight_decay_exempt")

    def __init__(self, data, name: str, weight_decay_exempt: bool = False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.weight_decay_exempt = weight_decay_exempt

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    if not np.all(np.isfinite(data)):
        # an op's backward rule is defined inside it, so its qualified name
        # starts with the op's name
        op = backward_fn.__qualname__.split(".")[0]
        raise NumericError(f"non-finite value in the {op} output of shape {np.shape(data)}")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t's gradient. The first g is kept as it is when ``owned``
    (the backward rule built it for t alone), and copied otherwise: it may
    be another node's gradient or a view of one, as ``add`` passes its own
    g to both parents."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- arithmetic ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape), owned=True)
        _accum(b, _unbroadcast(g * a.data, b.shape), owned=True)

    return _make(a.data * b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: _accum(a, -g, owned=True))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}"
        )

    def bw(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape), owned=True)
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape), owned=True)

    return _make(np.matmul(a.data, b.data), (a, b), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).copy(), owned=True)
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.shape).copy(), owned=True)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def texp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: _accum(a, g * out_data))


def tlog(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: _accum(a, g / a.data))


def tsqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bw(g):
        # guarded at zero so masked-to-zero amplitudes don't blow up
        _accum(a, g * 0.5 / np.maximum(out_data, 1e-12), owned=True)

    return _make(out_data, (a,), bw)


def ttanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return _make(out_data, (a,), lambda g: _accum(a, g * (1.0 - out_data**2)))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) without overflow: e^-x is capped at e^709, just under
    the float64 limit, so x < -709 gives a tiny positive value instead of an
    overflow warning, and every x >= -709 gets exactly the uncapped value."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 709.0)))


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.data)
    return _make(s, (a,), lambda g: _accum(a, g * s * (1.0 - s)))


def silu(a: Tensor) -> Tensor:
    s = _logistic(a.data)

    def bw(g):
        _accum(a, g * s * (1.0 + a.data * (1.0 - s)), owned=True)

    return _make(a.data * s, (a,), bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, available as the backbone ablation activation."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        _accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner), owned=True)

    return _make(0.5 * x * (1.0 + t), (a,), bw)


def atan2(y: Tensor, x: Tensor) -> Tensor:
    def bw(g):
        denom = x.data**2 + y.data**2
        denom = np.maximum(denom, 1e-24)
        _accum(y, _unbroadcast(g * x.data / denom, y.shape), owned=True)
        _accum(x, _unbroadcast(-g * y.data / denom, x.shape), owned=True)

    return _make(np.arctan2(y.data, x.data), (y, x), bw)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)

    def bw(g):
        _accum(a, np.expand_dims(g, axis) * (e / s), owned=True)

    return _make(out_data, (a,), bw)


# -- shape ops -------------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _make(
        a.data.reshape(shape), (a,), lambda g: _accum(a, g.reshape(a.shape))
    )


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(
        a.data.transpose(axes), (a,), lambda g: _accum(a, g.transpose(inv))
    )


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def unstack(a: Tensor) -> list[Tensor]:
    """Split along the leading axis: ``unstack(a)[i].data == a.data[i]``."""

    def piece(i: int) -> Tensor:
        def bw(g):
            gg = np.zeros_like(a.data)
            gg[i] = g
            _accum(a, gg, owned=True)

        return _make(a.data[i], (a,), bw)

    return [piece(i) for i in range(a.shape[0])]


def diagonal(a: Tensor) -> Tensor:
    """Diagonal of the last two axes; used by the contrastive losses."""
    if a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"diagonal needs a square trailing block, got {a.shape}")

    def bw(g):
        gg = np.zeros_like(a.data)
        idx = np.arange(a.shape[-1])
        gg[..., idx, idx] = g
        _accum(a, gg, owned=True)

    return _make(np.diagonal(a.data, axis1=-2, axis2=-1).copy(), (a,), bw)


# -- neural primitives -----------------------------------------------------
#
# Every convolution is a list of taps run by one core, ``_tap_conv``. A tap
# is a (Cin x Cout) weight matrix and a shift: channels first, it multiplies
# the unpadded input by its matrix, and the product lands in the output
# shifted along the spatial axes. ``causal_conv1d``, ``conv2d`` and the CTCM
# scale stack differ only in their taps.

# Columns of the largest gradient block: with Cout output channels a block
# holds _BLOCK_COLS // Cout taps (at least one). Without a bound the paper
# stack's 255 taps at 320 channels would make one N x 81 600 block (2.1 GB at
# B=8). The value is measured in CHANGES.md.
_BLOCK_COLS = 1024


def _tap_conv(x: Tensor, taps, out: np.ndarray, op: str, biases=()) -> Tensor:
    """Channels-first core of every convolution: each tap contracts the
    channels of the unpadded input, and its shift is a slice add after.

    Each tap is ``(w, i, src, dst)``. ``w`` is a weight tensor of shape
    (..., Cin, Cout) and ``i`` the tap's index over w's leading axes in C
    order. ``src`` is a tuple ``(..., s_1, ..., s_d)`` of slices over x's
    d spatial axes, and ``dst`` an index tuple into ``out``, channel axis
    included, of the same shape. The tap adds ``x[src] @ w_i`` into
    ``out[dst]``, so no zero-padded border is built; a tap that would read
    only the border (its shift is at least the axis length) is left out by
    the caller. ``out`` is the buffer the taps add into (zeros, or biases
    already in place); each ``(b, dst)`` in ``biases`` names a bias tensor
    added into ``out[dst]``, for its gradient.

    The forward pass runs one matmul per tap; on the desk step that beat
    one GEMM per tap block followed by slice adds (CHANGES.md). The
    backward pass is ``_kn2row``.

    ``op`` is the calling op's name; the backward rule carries it in its
    qualified name, as every other op's does."""
    cin, cout = x.shape[-1], out.shape[-1]
    weights = list({id(w): w for w, _, _, _ in taps}.values())

    def tap_weight(w, i):
        return w.data.reshape(-1, cin, cout)[i]

    for w, i, src, dst in taps:
        out[dst] += x.data[src + (slice(None),)] @ tap_weight(w, i)

    def bw(g):
        gw = {id(w): np.zeros(w.shape) for w in weights}
        gx = _kn2row(x.data, g, [
            (tap_weight(w, i), gw[id(w)].reshape(-1, cin, cout)[i], src, dst)
            for w, i, src, dst in taps
        ])
        _accum(x, gx, owned=True)
        for w in weights:
            _accum(w, gw.pop(id(w)), owned=True)
        for b, dst in biases:
            gb = g[dst]
            _accum(b, gb.sum(axis=tuple(range(gb.ndim - 1))))

    bw.__qualname__ = f"{op}.<locals>.bw"
    return _make(out, (x, *weights, *(b for b, _ in biases)), bw)


def _kn2row(x: np.ndarray, g: np.ndarray, taps) -> np.ndarray:
    """Backward pass of a tap list: the kn2row form of Vasudevan et al.
    (arXiv 1704.04428) on blocks of at most ``_BLOCK_COLS`` columns.

    Each tap is ``(w, gw, src, dst)``: its (Cin x Cout) weight matrix, the
    (Cin x Cout) array its weight gradient is written into, and its slices
    as in ``_tap_conv``; ``g`` is the gradient of the output. Each tap's
    ``g[dst]`` goes into its rows and columns of a zeroed (N x block) gQ,
    then two GEMMs give ``gx += gQ @ W_blockᵀ`` and ``gW_block = xᵀ @ gQ``,
    where W_block = [w_i | w_i+1 | ...] is (Cin x block). Returns gx."""
    cin, cout = x.shape[-1], g.shape[-1]
    x2 = x.reshape(-1, cin)
    gx = np.zeros(x2.shape)
    per = max(1, _BLOCK_COLS // cout)
    for j in range(0, len(taps), per):
        block = taps[j:j + per]
        gq = np.zeros(x.shape[:-1] + (len(block), cout))
        for b, (_, _, src, dst) in enumerate(block):
            gq[src + (b, slice(None))] = g[dst]
        gq = gq.reshape(len(x2), -1)
        wb = np.stack([w for w, _, _, _ in block], axis=1)
        gx += gq @ wb.reshape(cin, -1).T
        gwb = (x2.T @ gq).reshape(cin, len(block), cout)
        for b, (_, gw, _, _) in enumerate(block):
            gw[...] = gwb[:, b]
    return gx.reshape(x.shape)


def _shift(o: int, n: int) -> tuple[slice, slice]:
    """(src, dst) slices of an axis of length n for the offset o, so that
    out[dst] reads in[src] = in[dst + o]; |o| < n."""
    return slice(max(o, 0), n + min(o, 0)), slice(max(-o, 0), n - max(o, 0))


def _causal_taps(w: Tensor, T: int, dilation: int = 1, at: tuple = ()) -> list:
    """``_tap_conv`` taps of a causal kernel w (k, Cin, Cout) over T steps:
    tap i reads (k-1-i)*dilation steps back and writes ``out[..., *at, t, :]``
    from t = its shift on; taps that shift by T or more are left out."""
    taps = []
    for i in range(w.shape[0]):
        s = (w.shape[0] - 1 - i) * dilation
        if s < T:
            src, dst = _shift(-s, T)
            taps.append((w, i, (..., src), (..., *at, dst, slice(None))))
    return taps


def causal_conv1d(x: Tensor, w: Tensor, dilation: int = 1) -> Tensor:
    """Causal 1-D convolution: x (..., T, Cin), w (k, Cin, Cout) -> (..., T, Cout).

    Tap i reads the input (k-1-i)*dilation steps back, so the output keeps
    length T and position t never sees inputs later than t; rows before the
    start read zeros. It runs on ``_tap_conv``: a tap whose shift is at
    least T reads only zeros and is skipped.
    """
    k = w.shape[0]
    if k < 1 or dilation < 1:
        raise ParameterError(
            f"kernel size and dilation must be >= 1, got k={k}, dilation={dilation}"
        )
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(
            f"conv1d channel mismatch: input {x.shape} vs kernel {w.shape}"
        )
    taps = _causal_taps(w, x.shape[-2], dilation)
    return _tap_conv(x, taps, np.zeros(x.shape[:-1] + w.shape[-1:]), "causal_conv1d")


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded 2-D cross-correlation, channels last:
    x (..., H, W, Cin), w (kh, kw, Cin, Cout) -> (..., H, W, Cout).

    Output cell (h, v) reads tap (a, b) at input cell (h + a - (kh-1)//2,
    v + b - (kw-1)//2) and zeros outside the input, so an even kernel reads
    one more row or column after than before. It runs on ``_tap_conv``: a
    tap whose offset is at least the axis length (a 3x3 kernel over one
    row) is skipped.

    The model folds its only 2-D convolution, MSFF's, into
    ``ctcm.composite_conv``; this op stays as that fold's unfused
    reference in the tests, and the benchmark tracer wraps it by name.
    """
    kh, kw, cin, _ = w.shape
    if x.shape[-1] != cin:
        raise DimensionError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}"
        )
    H, W = x.shape[-3], x.shape[-2]
    taps = []
    for a in range(kh):
        for b in range(kw):
            oa, ob = a - (kh - 1) // 2, b - (kw - 1) // 2
            if abs(oa) < H and abs(ob) < W:
                (sa, da), (sb, db) = _shift(oa, H), _shift(ob, W)
                taps.append((w, a * kw + b, (..., sa, sb), (..., da, db, slice(None))))
    return _tap_conv(x, taps, np.zeros(x.shape[:-1] + w.shape[-1:]), "conv2d")


def avg_pool2d(x: Tensor, window: tuple[int, int]) -> Tensor:
    """Non-overlapping window means over the trailing H, W axes."""
    ph, pw = window
    H, W = x.shape[-2], x.shape[-1]
    if ph < 1 or pw < 1 or ph > H or pw > W:
        raise ParameterError(f"pool window {window} invalid for input {H}x{W}")
    Ho, Wo = H // ph, W // pw
    lead = x.shape[:-2]
    trimmed = x.data[..., : Ho * ph, : Wo * pw]
    blocks = trimmed.reshape(lead + (Ho, ph, Wo, pw))
    out_data = blocks.mean(axis=(-3, -1))

    def bw(g):
        gx = np.zeros_like(x.data)
        expanded = np.repeat(np.repeat(g, ph, axis=-2), pw, axis=-1) / (ph * pw)
        gx[..., : Ho * ph, : Wo * pw] = expanded
        _accum(x, gx)

    return _make(out_data, (x,), bw)


def dropout(x: Tensor, rate: float, rng_seed, training: bool) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate) so eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return _make(x.data.copy(), (x,), lambda g: _accum(x, g))
    rng = np.random.default_rng(rng_seed)
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make(x.data * mask, (x,), lambda g: _accum(x, g * mask, owned=True))


# -- gradient oracle -------------------------------------------------------

def finite_diff_check(
    f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5
) -> float:
    """Max relative error between the analytic gradient of f at x and
    central finite differences; f must be deterministic."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    loss = f(probe)
    loss.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.copy().ravel()
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(Tensor(flat.reshape(x.shape))).item()
            flat[i] = orig - step
            lo = f(Tensor(flat.reshape(x.shape))).item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * step)
    err = np.abs(analytic.ravel() - numeric) / (np.abs(analytic.ravel()) + 1e-8)
    return float(err.max()) if err.size else 0.0
