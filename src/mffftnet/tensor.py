"""Dense float64 tensors with reverse-mode automatic differentiation.

A tensor is its value, ``data``, and a small graph ``Node`` that holds its
gradient, whether it needs one, and, for an op output, the nodes of the
op's inputs and the op's backward rule. The tape links nodes only, and each
backward rule closes over its inputs' nodes and exactly the arrays it
reads, never over a tensor. So an op output that the caller drops and no
rule reads (a matmul output before its bias add, the InfoNCE logits) is
freed as soon as the forward pass moves on, as in PyTorch's autograd
(Paszke et al., arXiv 1912.01703). ``backward`` on a scalar walks the
graph in reverse topological order and accumulates gradients with ``+=``
so a tensor read by several ops (e.g. the backbone output, which feeds
both FACM and CTCM) receives contributions from all of them.

Where one or two ufunc passes rebuild an array from what a rule keeps
anyway, the rule recomputes it instead of keeping it (Chen et al., arXiv
1604.06174): ``silu`` and ``gelu`` keep only their input and recompute the
logistic or the tanh, ``dropout`` keeps only its seed, frozen as a tuple,
and draws its mask again, and ``info_nce`` is one node that keeps its two
operands and each row's max and exp-sum and recomputes the logits and the
softmax. Each rebuilds its arrays with the forward's own expressions in
the same order, so every output and gradient is bit-identical to keeping
them.

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


class Node:
    """A tensor's place on the tape: its gradient, whether it needs one, its
    shape, the nodes of the op's inputs and the op's backward rule. The
    tape links nodes, never tensors, so an op output that no backward rule
    reads is freed as soon as its caller drops it."""

    __slots__ = ("shape", "grad", "requires_grad", "parents", "backward_fn")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.shape = shape
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents: tuple[Node, ...] = ()
        self.backward_fn: Callable[[np.ndarray], None] | None = None


def _on_node(attr: str) -> property:
    """A tensor attribute that reads and sets its node's ``attr``."""
    return property(lambda t: getattr(t._node, attr),
                    lambda t, value: setattr(t._node, attr, value))


class Tensor:
    """An array and its tape node; ``grad``, ``requires_grad`` and
    ``_backward_fn`` live on the node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = Node(self.data.shape, requires_grad)

    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _backward_fn = _on_node("backward_fn")

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
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward_fn is _released:
                # raise before any rule runs, so no gradient changes
                _released(None)
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # popping from the end visits the nodes in reverse topological order
        # and drops the list's reference to each one as it is visited
        while order:
            node = order.pop()
            fn = node.backward_fn
            if fn is None:
                continue
            node.backward_fn = _released
            node.parents = ()
            if node.grad is not None:
                fn(node.grad)

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

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
    """The output tensor of an op; if an input needs a gradient, its node
    links the inputs' nodes and takes ``backward_fn``, which closes over
    those nodes and the arrays it reads, never over a tensor."""
    if not np.all(np.isfinite(data)):
        # an op's backward rule is defined inside it, so its qualified name
        # starts with the op's name
        op = backward_fn.__qualname__.split(".")[0]
        raise NumericError(f"non-finite value in the {op} output of shape {np.shape(data)}")
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p._node for p in parents)
        if any(n.requires_grad for n in nodes):
            node = out._node
            node.requires_grad = True
            node.parents = nodes
            node.backward_fn = backward_fn
    return out


def _accum(n: Node, g: np.ndarray, owned: bool = False) -> None:
    """Add g into node n's gradient. The first g is kept as it is when
    ``owned`` (the backward rule built it for n alone), and copied
    otherwise: it may be another node's gradient or a view of one, as
    ``add`` passes its own g to both parents."""
    if not n.requires_grad:
        return
    if n.grad is None:
        n.grad = g if owned else np.array(g)
    else:
        n.grad += g


def _grad_buffer(n: Node) -> np.ndarray:
    """Node n's gradient, C-contiguous and zero if n had none, for a
    backward rule to add into in place (scratch if n needs no gradient);
    safe, as ``_accum`` keeps only gradients built for n alone."""
    if not n.requires_grad:
        return np.zeros(n.shape)
    n.grad = np.zeros(n.shape) if n.grad is None else np.ascontiguousarray(n.grad)
    return n.grad


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
    na, nb = a._node, b._node

    def bw(g):
        _accum(na, _unbroadcast(g, na.shape))
        _accum(nb, _unbroadcast(g, nb.shape))

    return _make(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand's array is kept for backward, and
    the product that uses it computed, only if the other operand needs a
    gradient."""
    na, nb = a._node, b._node
    ad = a.data if nb.requires_grad else None
    bd = b.data if na.requires_grad else None

    def bw(g):
        if bd is not None:
            _accum(na, _unbroadcast(g * bd, na.shape), owned=True)
        if ad is not None:
            _accum(nb, _unbroadcast(g * ad, nb.shape), owned=True)

    return _make(a.data * b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    na = a._node
    return _make(-a.data, (a,), lambda g: _accum(na, -g, owned=True))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}"
        )

    # as in ``mul``, each operand's array only if the other needs a gradient
    na, nb = a._node, b._node
    ad = a.data if nb.requires_grad else None
    bd = b.data if na.requires_grad else None

    def bw(g):
        if bd is not None:
            _accum(na, _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), na.shape), owned=True)
        if ad is not None:
            _accum(nb, _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), nb.shape), owned=True)

    return _make(np.matmul(a.data, b.data), (a, b), bw)


def tsum(a: Tensor, axis=None) -> Tensor:
    na = a._node

    def bw(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(gg, na.shape).copy(), owned=True)

    return _make(a.data.sum(axis=axis), (a,), bw)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis) * (1.0 / n)


def tsqrt(a: Tensor) -> Tensor:
    na, out_data = a._node, np.sqrt(a.data)

    def bw(g):
        # guarded at zero so masked-to-zero amplitudes don't blow up
        _accum(na, g * 0.5 / np.maximum(out_data, 1e-12), owned=True)

    return _make(out_data, (a,), bw)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) without overflow: e^-x is capped at e^709, just under
    the float64 limit, so x < -709 gives a tiny positive value instead of an
    overflow warning, and every x >= -709 gets exactly the uncapped value."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 709.0)))


def silu(a: Tensor) -> Tensor:
    """x·σ(x); backward keeps x and recomputes σ(x) from it."""
    na, x = a._node, a.data

    def bw(g):
        s = _logistic(x)
        _accum(na, g * s * (1.0 + x * (1.0 - s)), owned=True)

    return _make(x * _logistic(x), (a,), bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(_GELU_C * (x + 0.044715 * x**3))


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, available as the backbone ablation
    activation; backward keeps x and recomputes the tanh from it."""
    na, x = a._node, a.data

    def bw(g):
        t = _gelu_tanh(x)
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        _accum(na, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner), owned=True)

    return _make(0.5 * x * (1.0 + _gelu_tanh(x)), (a,), bw)


def atan2(y: Tensor, x: Tensor) -> Tensor:
    ny, nx, yd, xd = y._node, x._node, y.data, x.data

    def bw(g):
        denom = xd**2 + yd**2
        denom = np.maximum(denom, 1e-24)
        _accum(ny, _unbroadcast(g * xd / denom, ny.shape), owned=True)
        _accum(nx, _unbroadcast(-g * yd / denom, nx.shape), owned=True)

    return _make(np.arctan2(y.data, x.data), (y, x), bw)


# -- shape ops -------------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    na, shape = a._node, tuple(shape)
    return _make(
        a.data.reshape(shape), (a,), lambda g: _accum(na, g.reshape(na.shape))
    )


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    nodes = [t._node for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bw(g):
        for n, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accum(n, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def unstack(a: Tensor, axis: int = 0) -> list[Tensor]:
    """Split along ``axis``: ``unstack(a, axis)[i].data == np.take(a.data, i, axis)``."""

    na = a._node

    def piece(i: int) -> Tensor:
        index = (slice(None),) * (axis % a.ndim) + (i,)

        def bw(g):
            gg = np.zeros(na.shape)
            gg[index] = g
            _accum(na, gg, owned=True)

        return _make(a.data[index], (a,), bw)

    return [piece(i) for i in range(a.shape[axis])]


def info_nce(a: Tensor, b: Tensor) -> Tensor:
    """Per-row InfoNCE (arXiv 1807.03748) of two (..., rows, dim) tensors:
    logsumexp(a @ bᵀ) - diag(a @ bᵀ), shape (..., rows); row i's positive
    is b[i] and its negatives the other rows of b.

    One tape node that keeps a, b and each row's max and exp-sum; backward
    recomputes the logits and the softmax from them with the forward's
    expressions, so the gradients equal those of the composition of tape
    nodes in ``tests/oracles.py`` bit for bit."""
    if a.shape != b.shape:
        raise ContractError(f"InfoNCE operand shapes differ: {a.shape} vs {b.shape}")
    na, nb, ad, bd = a._node, b._node, a.data, b.data
    e = np.matmul(ad, np.swapaxes(bd, -1, -2))
    if not np.all(np.isfinite(e)):
        raise NumericError(f"non-finite value in the info_nce logits of shape {e.shape}")
    diag = np.diagonal(e, axis1=-2, axis2=-1).copy()
    m = e.max(axis=-1, keepdims=True)
    e -= m
    s = np.exp(e, out=e).sum(axis=-1, keepdims=True)
    lse = np.squeeze(m + np.log(s), axis=-1)

    def bw(g):
        # in place: each array this allocates between the tape's frees can
        # make the heap grow back (CHANGES.md)
        gl = np.matmul(ad, np.swapaxes(bd, -1, -2))
        gl -= m
        np.exp(gl, out=gl)
        gl /= s
        gl *= np.expand_dims(g, -1)
        idx = np.arange(gl.shape[-1])
        gl[..., idx, idx] -= g
        _accum(na, np.matmul(gl, bd), owned=True)
        _accum(nb, np.swapaxes(np.matmul(np.swapaxes(ad, -1, -2), gl), -1, -2))

    return _make(lse - diag, (a, b), bw)


# -- neural primitives -----------------------------------------------------
#
# Every convolution is a list of taps run by one core, ``_tap_conv``. A tap
# is an index into the stacked (Cin x Cout) weight matrices and a shift:
# channels first, it multiplies the unpadded input by its matrix, and the
# product lands in the output shifted along the spatial axes.
# ``causal_conv1d`` and ``conv2d`` differ only in their taps, and
# ``ctcm._compose`` runs the same per-tap loop and ``_kn2row`` on blocks of
# weight rows.

# Columns of the largest gradient block: with Cout output channels a block
# holds _BLOCK_COLS // Cout taps (at least one), so a long tap list is never
# one block of all its columns (README's time-domain paragraph).
_BLOCK_COLS = 1024

# Elements of one gradient chunk: a block's rows are taken a chunk of whole
# windows at a time, as many as keep it within _BLOCK_ELEMS (at least one),
# so the block does not grow with the batch (measured in README).
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
    nx, nw, xd = x._node, w._node, x.data
    W = w.data.reshape((-1,) + w.shape[-2:])
    out = np.zeros((x.shape[:-1] if shape is None else shape) + W.shape[-1:])
    for i, src, dst in taps:
        out[dst] += xd[src + (slice(None),)] @ W[i]

    def bw(g):
        gW = np.zeros(W.shape)
        _kn2row(xd, g, W, gW, taps, _grad_buffer(nx))
        _accum(nw, gW.reshape(nw.shape), owned=True)

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
    where W_block = [W[i] | W[i'] | ...] is (Cin x block). After the
    block's last chunk each tap's columns are added into its gW[i], so taps
    may share an i and gW receives the sum. The input gradient is added
    into ``gx``, a C-contiguous array of x's shape."""
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
            gW[i] += gwb[:, b]


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


def dropout(x: Tensor, rate: float, rng_seed, training: bool) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate). The mask is drawn
    from ``np.random.default_rng(rng_seed)``, ``rng_seed`` an int or a
    sequence of ints; backward keeps the seed as a tuple, so a caller may
    reuse its list, and draws the mask again. Out of training or at rate 0
    it returns ``x`` itself, with no tape node."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    nx, seed = x._node, tuple(np.atleast_1d(rng_seed).tolist())

    def mask():
        return (np.random.default_rng(seed).random(nx.shape) >= rate) / (1.0 - rate)

    return _make(x.data * mask(), (x,), lambda g: _accum(nx, g * mask(), owned=True))


# -- removed names -----------------------------------------------------------

def _removed(name: str) -> Callable:
    """A stub that raises when called. The benchmark tracer still wraps the
    removed names by identity, so each gets its own until ROADMAP item 3
    drops them from its lists."""

    def stub(*args, **kwargs):
        raise NotImplementedError(
            f"{name} was removed; ROADMAP item 3 drops it from the benchmark tracer")

    stub.__name__ = stub.__qualname__ = name
    return stub


texp, tlog, ttanh, sigmoid, logsumexp, transpose, diagonal, avg_pool2d = map(
    _removed, "texp tlog ttanh sigmoid logsumexp transpose diagonal avg_pool2d".split())
