"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor op records its inputs and a backward rule on an implicit tape
(the parent links of the output). ``backward`` on a scalar walks the graph
in reverse topological order and accumulates gradients with ``+=`` so a
tensor read by several ops (e.g. the backbone output, which feeds both
FACM and CTCM) receives contributions from all of them.

``backward`` releases the graph as it consumes it: each node drops its
parent links and its backward rule (with the arrays the rule saved) once
the rule has run, so only one step's graph is alive at a time. A tensor
the caller still holds keeps its ``data`` and ``grad``. A graph can be
walked once: a second ``backward`` that reaches a released node raises
``ContractError`` before it touches any gradient.

Ops are batch-agnostic: the documented shapes are the trailing axes and any
leading axes are treated as batch dimensions.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError, ParameterError

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
        """Populate ``grad`` on every reachable tensor; ``self`` must be scalar.

        The graph is released as it is consumed: each node loses its parent
        links and its backward rule once the rule has run. Tensors the
        caller holds keep their ``data`` and ``grad``. A second backward
        through a released node raises ``ContractError`` before any
        gradient changes.
        """
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
            if node._backward_fn is _released:
                # raise before any rule runs, so no gradient changes
                _released(node.data)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # popping from the end visits the nodes in reverse topological order
        # and drops the list's reference to each one as it is visited
        while order:
            node = order.pop()
            fn = node._backward_fn
            if fn is None:
                continue
            node._backward_fn = _released
            node._parents = ()
            if node.grad is not None:
                fn(node.grad)

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


def _released(g: np.ndarray) -> None:
    """The backward rule of a node whose graph ``backward`` has consumed."""
    raise ContractError(
        "backward reached a tensor whose graph an earlier backward released; "
        "build the loss again"
    )


class Parameter(Tensor):
    """Named trainable tensor; ``weight_decay_exempt`` marks biases and the like."""

    __slots__ = ("name", "weight_decay_exempt")

    def __init__(self, data, name: str, weight_decay_exempt: bool = False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.weight_decay_exempt = weight_decay_exempt

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterInit:
    """A module's named parameters, drawn in call order from one RNG seeded
    with ``init_seed``; ``params`` holds them in that order."""

    def __init__(self, init_seed: int):
        self.rng = np.random.default_rng(init_seed)
        self.params: dict[str, Parameter] = {}

    def add(self, name: str, data, exempt: bool = False) -> None:
        self.params[name] = Parameter(data, name=name, weight_decay_exempt=exempt)

    def kaiming(self, name: str, shape: tuple[int, ...], fan_in: int) -> None:
        """Kaiming-uniform weight: U(-sqrt(6/fan_in), sqrt(6/fan_in))."""
        bound = np.sqrt(6.0 / fan_in)
        self.add(name, self.rng.uniform(-bound, bound, size=shape))

    def zeros(self, name: str, shape) -> None:
        """A zero bias, exempt from weight decay."""
        self.add(name, np.zeros(shape), exempt=True)


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


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t's gradient, C-contiguous and zero if t had none, for a backward rule
    to add into in place (scratch if t needs no gradient); safe, as
    ``_accum`` keeps only gradients built for t alone."""
    if not t.requires_grad:
        return np.zeros(t.shape)
    t.grad = np.zeros(t.shape) if t.grad is None else np.ascontiguousarray(t.grad)
    return t.grad


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


def unstack(a: Tensor, axis: int = 0) -> list[Tensor]:
    """Split along ``axis``: ``unstack(a, axis)[i].data == np.take(a.data, i, axis)``."""

    def piece(i: int) -> Tensor:
        index = (slice(None),) * (axis % a.ndim) + (i,)

        def bw(g):
            gg = np.zeros_like(a.data)
            gg[index] = g
            _accum(a, gg, owned=True)

        return _make(a.data[index], (a,), bw)

    return [piece(i) for i in range(a.shape[axis])]


def diagonal(a: Tensor) -> Tensor:
    """Diagonal of the last two axes; used by ``info_nce``."""
    if a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"diagonal needs a square trailing block, got {a.shape}")

    def bw(g):
        gg = np.zeros_like(a.data)
        idx = np.arange(a.shape[-1])
        gg[..., idx, idx] = g
        _accum(a, gg, owned=True)

    return _make(np.diagonal(a.data, axis1=-2, axis2=-1).copy(), (a,), bw)


def info_nce(a: Tensor, b: Tensor) -> Tensor:
    """Per-row InfoNCE (arXiv 1807.03748) of two (..., rows, dim) tensors:
    logsumexp(a @ bᵀ) - diag(a @ bᵀ), shape (..., rows); row i's positive
    is b[i] and its negatives the other rows of b."""
    if a.shape != b.shape:
        raise ContractError(f"InfoNCE operand shapes differ: {a.shape} vs {b.shape}")
    logits = matmul(a, transpose(b, (*range(b.ndim - 2), b.ndim - 1, b.ndim - 2)))
    return logsumexp(logits, axis=-1) - diagonal(logits)


# -- neural primitives -----------------------------------------------------
#
# Every convolution is a list of taps run by one core, ``_tap_conv``. A tap
# is an index into the stacked (Cin x Cout) weight matrices and a shift:
# channels first, it multiplies the unpadded input by its matrix, and the
# product lands in the output shifted along the spatial axes.
# ``causal_conv1d`` and ``conv2d`` differ only in their taps.

# Columns of the largest gradient block: with Cout output channels a block
# holds _BLOCK_COLS // Cout taps (at least one). Without a bound the paper
# stack's 255 taps at 320 channels would make one N x 81 600 block (2.1 GB at
# B=8). The value is measured in CHANGES.md.
_BLOCK_COLS = 1024

# Elements of one gradient chunk: a block's rows are taken a chunk of whole
# windows at a time, as many as keep it within _BLOCK_ELEMS (at least one),
# so the block no longer grows with the batch. Desk-train peak RSS, seeds
# 4-6, 10 s runs on 2 cores: 66.3-66.8 MB unchunked, 64.1-64.3 MB at 2^19,
# 60.2-60.5 MB at 2^18, 56.9-57.1 MB at 2^17. Where one window fills the
# budget the GEMMs get thinner: the paper-shaped composite backward at B=8
# (one 201-row window per chunk) takes ~5.3 s against ~4.9 s unchunked.
_BLOCK_ELEMS = 1 << 17


def _tap_conv(x: Tensor, w: Tensor, taps, op: str, shape=None) -> Tensor:
    """Channels-first core of every convolution: each tap contracts the
    channels of the unpadded input, and its shift is a slice add after.

    ``w`` has shape (..., Cin, Cout); its leading axes, flattened in C
    order, stack the tap matrices W. Each tap is ``(i, src, dst)``: ``i``
    indexes W, ``src`` is a tuple ``(..., s_1, ..., s_d)`` of slices over
    x's d spatial axes, and ``dst`` an index tuple, channel axis included,
    of the same shape into the output, of shape ``shape`` (x.shape[:-1] by
    default) + (Cout,), which starts at zero. The tap adds ``x[src] @ W[i]``
    into ``out[dst]``, so no zero-padded border is built; a tap that would
    read only the border (its shift is at least the axis length) is left
    out by the caller.

    The forward pass runs one matmul per tap; on the desk step that beat
    one GEMM per tap block followed by slice adds (CHANGES.md). The
    backward pass is ``_kn2row``.

    ``op`` is the calling op's name; the backward rule carries it in its
    qualified name, as every other op's does."""
    W = w.data.reshape((-1,) + w.shape[-2:])
    out = np.zeros((x.shape[:-1] if shape is None else shape) + W.shape[-1:])
    for i, src, dst in taps:
        out[dst] += x.data[src + (slice(None),)] @ W[i]

    def bw(g):
        gW = np.zeros(W.shape)
        _kn2row(x.data, g, W, gW, taps, _grad_buffer(x))
        _accum(w, gW.reshape(w.shape), owned=True)

    bw.__qualname__ = f"{op}.<locals>.bw"
    return _make(out, (x, w), bw)


def _kn2row(x: np.ndarray, g: np.ndarray, W: np.ndarray, gW: np.ndarray, taps,
            gx: np.ndarray) -> None:
    """Backward pass of a tap list: the kn2row form of Vasudevan et al.
    (arXiv 1704.04428) on blocks of at most ``_BLOCK_COLS`` columns.

    ``W`` stacks the (Cin x Cout) tap matrices, ``gW`` of the same shape
    receives their gradients, and each tap is ``(i, src, dst)`` as in
    ``_tap_conv``; ``g`` is the gradient of the output. The windows are the
    leading axes that x and g share, those before the taps' spatial slices.
    A block's rows are taken in chunks of whole windows, each within
    ``_BLOCK_ELEMS`` elements (at least one window): each tap's ``g[dst]``
    goes into its rows and columns of the chunk's zeroed gQ, then two GEMMs
    give ``gx[chunk] += gQ @ W_blockᵀ`` and ``gW_block += x[chunk]ᵀ @ gQ``,
    where W_block = [W[i] | W[i'] | ...] is (Cin x block). Each gW[i] of a
    tap is overwritten after the block's last chunk, so no two taps may
    share an i. The input gradient is added into ``gx``, a C-contiguous
    array of x's shape.

    At the desk composite convolution (16 windows of 64 rows, 896 columns)
    an unchunked gQ is 7.3 MB, 11x the largest array on the tape, and sets
    desk-train's peak RSS: 66.3-66.8 MB, against 64.1-64.3, 60.2-60.5 and
    56.9-57.1 MB at budgets of 2^19, 2^18 and 2^17 elements (seeds 4-6,
    2 cores)."""
    cin, cout = x.shape[-1], g.shape[-1]
    d = x.ndim - len(taps[0][1])  # the window axes: src is (..., spatial slices)
    xw, gw = x.reshape((-1,) + x.shape[d:]), g.reshape((-1,) + g.shape[d:])
    rows = math.prod(x.shape[d:-1])
    gx = gx.reshape(xw.shape)
    per = max(1, _BLOCK_COLS // cout)
    for j in range(0, len(taps), per):
        block = taps[j:j + per]
        wb = np.stack([W[i] for i, _, _ in block], axis=1).reshape(cin, -1)
        gwb = np.zeros(wb.shape)
        step = max(1, _BLOCK_ELEMS // (rows * wb.shape[1]))
        for c in range(0, len(xw), step):
            xc, gc = xw[c:c + step], gw[c:c + step]
            gq = np.zeros(xc.shape[:-1] + (len(block), cout))
            for b, (_, src, dst) in enumerate(block):
                gq[src + (b, slice(None))] = gc[dst]
            gq = gq.reshape(-1, wb.shape[1])
            gx[c:c + step] += (gq @ wb.T).reshape(xc.shape)
            gwb += xc.reshape(-1, cin).T @ gq
        gwb = gwb.reshape(cin, len(block), cout)
        for b, (i, _, _) in enumerate(block):
            gW[i] = gwb[:, b]


def _shift(o: int, n: int) -> tuple[slice, slice]:
    """(src, dst) slices of an axis of length n for the offset o, so that
    out[dst] reads in[src] = in[dst + o]; |o| < n."""
    return slice(max(o, 0), n + min(o, 0)), slice(max(-o, 0), n - max(o, 0))


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
    T, taps = x.shape[-2], []
    for i in range(k):
        s = (k - 1 - i) * dilation
        if s < T:
            src, dst = _shift(-s, T)
            taps.append((i, (..., src), (..., dst, slice(None))))
    return _tap_conv(x, w, taps, "causal_conv1d")


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded 2-D cross-correlation, channels last:
    x (..., H, W, Cin), w (kh, kw, Cin, Cout) -> (..., H, W, Cout).

    Output cell (h, v) reads tap (a, b) at input cell (h + a - (kh-1)//2,
    v + b - (kw-1)//2) and zeros outside the input, so an even kernel reads
    one more row or column after than before. It runs on ``_tap_conv``: a
    tap whose offset is at least the axis length (a 3x3 kernel over one
    row) is skipped.

    The model runs it for the scale biases' rows of
    ``ctcm.composite_conv``, which folds MSFF's 3x3 convolution.
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
                taps.append((a * kw + b, (..., sa, sb), (..., da, db, slice(None))))
    return _tap_conv(x, w, taps, "conv2d")


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
    """Inverted dropout: survivors scaled by 1/(1-rate). Out of training or
    at rate 0 it returns ``x`` itself, with no tape node."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    rng = np.random.default_rng(rng_seed)
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make(x.data * mask, (x,), lambda g: _accum(x, g * mask, owned=True))
