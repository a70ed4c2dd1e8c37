"""Complementary time-domain contrastive module.

In the paper, parallel causal 1-D convolutions at several kernel sizes
produce an n x T x K stack (scales, time, channels; channels last
throughout), and the multi-scale feature fusion (MSFF) block collapses it
to T x K/2: a 3x3 2-D convolution over (scale, time), SiLU, the mean over
the n scales (the paper's average pool spans the whole scale axis) and a
per-timestep linear map (the paper's 1x1 convolution). Fusion
concatenates the time- and frequency-domain halves and projects back to
K; the time contrastive loss ties each fused timestep to its backbone
representation with the InfoNCE that the frequency loss also uses,
``tensor.info_nce``.

Under that loss ``ctcm.msff.conv2.b``, ``ctcm.proj.b`` and ``fuse.b`` get
an exactly-zero analytic gradient: each only adds one vector v to every
fused row, which adds r_i · v to every logit of row i, and the InfoNCE of
a row does not change when all its logits shift together. Nothing else
reads them, so training leaves them at their initial zeros up to
rounding (computed gradients of at most 1.5e-13 on a desk step).

The scale convolutions and MSFF's 3x3 convolution are both linear, so
the model folds them into one convolution from r (RepVGG's structural
re-parameterization, Ding et al., arXiv 2101.03697) and never builds the
stack: ``composite_conv`` composes K x H taps from the weights alone,
runs them on r with the convolutions' shared tap core, takes the scale
biases' rows from ``tensor.conv2d`` and corrects the last output row,
where MSFF reads zeros past the stack. The unfused pair that builds the
stack, the tests' reference, is in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, ParameterError
from . import tensor as tn
from .tensor import Parameter, ParameterInit, Tensor

DEFAULT_KERNELS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class CtcmConfig:
    kernels: tuple[int, ...] = DEFAULT_KERNELS
    msff_hidden: int = 96

    def __post_init__(self):
        self.kernels = tuple(self.kernels)
        if not self.kernels:
            raise ConfigurationError("kernel list must be non-empty")
        if any(b <= a for a, b in zip(self.kernels, self.kernels[1:])):
            raise ConfigurationError(f"kernels must be strictly increasing: {self.kernels}")
        if self.kernels[0] < 1:
            raise ConfigurationError("kernel sizes must be >= 1")
        if self.msff_hidden < 1:
            raise ConfigurationError(f"msff_hidden must be >= 1, got {self.msff_hidden}")


def make_ctcm_params(
    K: int, cfg: CtcmConfig, init_seed: int = 0
) -> dict[str, Parameter]:
    half = K // 2
    H = cfg.msff_hidden
    init = ParameterInit(init_seed)
    for kj in cfg.kernels:
        init.kaiming(f"ctcm.scale{kj}.w", (kj, K, K), kj * K)
        init.zeros(f"ctcm.scale{kj}.b", K)
    init.kaiming("ctcm.msff.conv1.w", (3, 3, K, H), 9 * K)
    init.zeros("ctcm.msff.conv1.b", H)
    init.kaiming("ctcm.msff.conv2.w", (H, half), H)
    init.zeros("ctcm.msff.conv2.b", half)
    init.kaiming("ctcm.proj.w", (half, half), half)
    init.zeros("ctcm.proj.b", half)
    init.kaiming("fuse.w", (K, K), K)
    init.zeros("fuse.b", K)
    return init.params


def _msff_tail(z: Tensor, params: dict[str, Parameter]) -> Tensor:
    """MSFF after its 3x3 conv: (..., n, T, H) -> (..., T, K/2)."""
    z = tn.tmean(tn.silu(z), axis=-3)
    return tn.matmul(z, params["ctcm.msff.conv2.w"]) + params["ctcm.msff.conv2.b"]


def _check_kernels(kernels: tuple[int, ...], T: int) -> None:
    for kj in kernels:
        if kj > T:
            raise ParameterError(f"kernel {kj} exceeds window length {T}")


def composite_conv(
    r: Tensor, params: dict[str, Parameter], kernels: tuple[int, ...]
) -> Tensor:
    """MSFF's conv1 pre-activation straight from r: (..., T, K) -> (..., n, T, H).

    Equal up to rounding to ``tn.conv2d(h_d, w1) + b1``, where h_d stacks
    the scales' causal convolutions of r, (..., n, T, K).
    Scale j' reads r[t-s] through W_j'[k-1-s], and MSFF tap (a, b) reads
    stack cell (j+a-1, t+b-1), so output scale j reads r[t-u] through the
    composite matrix

        V_j[u] = sum of W_j'[k-1-s] @ w1[a, b] over j' = j+a-1, s-(b-1) = u

    for u = -1 .. the largest kernel among scales j-1 .. j+1 (u = -1 is
    MSFF's step ahead). ``_compose`` builds V from the weights alone and
    ``tn._tap_conv`` runs it on r. The bias rows are ``tn.conv2d`` of the
    scale biases over a first, an interior and a last step (fewer if T < 3),
    plus b1: conv2d's zero padding gives each of those steps its row. MSFF
    reads zeros past the last stack row, but the taps read there the
    scales' convolution one step past the window, c_j'[T] = sum over s >= 1
    of r[T-s] @ W_j'[k-1-s]. A last node adds the bias rows and subtracts
    c_j'[T] @ w1[a, 2] from the last output row.
    """
    T, K = r.shape[-2:]
    _check_kernels(kernels, T)
    ws = [params[f"ctcm.scale{kj}.w"] for kj in kernels]
    bs = [params[f"ctcm.scale{kj}.b"] for kj in kernels]
    w1, b1 = params["ctcm.msff.conv1.w"], params["ctcm.msff.conv1.b"]
    n, H, lead = len(kernels), w1.shape[-1], r.shape[:-2]
    # V_j[u] sits at top[j] - u for u = kmax_j .. -1, so that row i of a
    # source scale's w, the lag k-1-i, lands on V at a rising index
    kmax = [max(kernels[max(j - 1, 0):j + 2]) for j in range(n)]
    top = np.cumsum([k + 2 for k in kmax]) - 2
    taps = []
    for j in range(n):
        for u in range(-1, kmax[j] + 1):
            if abs(u) < T:
                src, dst = tn._shift(-u, T)
                taps.append((top[j] - u, (..., src), (..., j, dst, slice(None))))
    out = tn._tap_conv(r, _compose(ws, w1, kernels, top), taps, "composite_conv", lead + (n, T))
    L = min(T, 3)  # step t takes bias row at[t]
    stack = tn.reshape(tn.concat(bs, axis=0), (n, 1, K)) * Tensor(np.ones((1, L, 1)))
    rows, at = tn.conv2d(stack, w1) + b1, np.minimum(np.arange(T), 1)
    at[-1] = L - 1

    # w1 row a takes source scale j' = j + a - 1 to output scale j: the
    # (output, source) slices of every a
    pairs = [(slice(max(0, 1 - a), min(n, n + 1 - a)),
              slice(max(0, a - 1), min(n, n + a - 1))) for a in range(3)]

    rd, wds, w1d = r.data, [w.data for w in ws], w1.data

    def tail(jj):
        """r's last k-1 rows, flattened per window, and the matching taps of
        scale jj: c_jj[T] = tail_r @ tail_w (zero for k = 1)."""
        k = kernels[jj]
        return (rd[..., T - k + 1:, :].reshape(math.prod(lead), (k - 1) * K),
                wds[jj][:k - 1].reshape(-1, K))

    phantom = np.stack([tr @ tw for tr, tw in map(tail, range(n))], 1).reshape(lead + (n, K))
    # in place: only this node reads the taps' output, and _tap_conv's
    # backward never reads it, so no second activation-sized array is made
    y = out.data
    y += rows.data[:, at]
    for a, (jo, js) in enumerate(pairs):
        y[..., jo, T - 1, :] -= phantom[..., js, :] @ w1d[a, 2]
    nout, nrows, nr, nw1 = out._node, rows._node, r._node, w1._node
    nws = [w._node for w in ws]

    def bw(g):
        # the taps' output has no other reader: g is its whole gradient
        tn._accum(nout, g, owned=True)
        gt = g.reshape((-1, n, T, H)).sum(axis=0)
        tn._accum(nrows, np.stack([gt[:, at == i].sum(axis=1) for i in range(L)], 1), owned=True)
        glast = g[..., T - 1, :]
        gph, gw1 = np.zeros(phantom.shape), np.zeros(w1d.shape)
        for a, (jo, js) in enumerate(pairs):
            gph[..., js, :] -= glast[..., jo, :] @ w1d[a, 2].T
            gw1[a, 2] -= phantom[..., js, :].reshape(-1, K).T @ glast[..., jo, :].reshape(-1, H)
        gx = tn._grad_buffer(nr)
        for jj, nw in enumerate(nws):
            (tr, tw), k = tail(jj), kernels[jj]
            gp = gph[..., jj, :].reshape(-1, K)
            tn._grad_buffer(nw)[:k - 1] += (tr.T @ gp).reshape(k - 1, K, K)
            gx[..., T - k + 1:, :] += (gp @ tw.T).reshape(lead + (k - 1, K))
        tn._accum(nw1, gw1, owned=True)

    return tn._make(y, (out, rows, r, *ws, w1), bw)


# Elements of one block of composite products, (taps x K x 9H): 16 MB. A
# whole paper-shaped scale (128 x 320 x 864) would be 283 MB.
_COMPOSE_ELEMS = 1 << 21


def _compose(ws: list[Parameter], w1: Parameter, kernels: tuple[int, ...], top) -> Tensor:
    """The composite taps V, V_j[u] at row top[j] - u, as one tape node whose
    parents are the scale weights and w1 only: V reads no batch data. It
    runs in blocks of ``_COMPOSE_ELEMS`` products, which go straight into V."""
    n, (K, H) = len(ws), w1.shape[-2:]
    wds, nws, nw1 = [w.data for w in ws], [w._node for w in ws], w1._node
    # column (a, b, h) of w1cat is w1[a, b, :, h]
    w1cat = w1.data.transpose(2, 0, 1, 3).reshape(K, 9 * H)
    per = max(1, _COMPOSE_ELEMS // (9 * K * H))

    def blocks(jj):
        """Row blocks [i0, i1) of source scale jj's w, and for each (a, b)
        whose output scale j exists, the V index of row 0: u = k-i-b."""
        k = kernels[jj]
        at = [(a, b, top[jj + 1 - a] - k + b) for a in range(3)
              if 0 <= jj + 1 - a < n for b in range(3)]
        for i0 in range(0, k, per):
            yield i0, min(k, i0 + per), at

    V = np.zeros((top[-1] + 2, K, H))
    for jj, wd in enumerate(wds):
        for i0, i1, at in blocks(jj):
            p = (wd[i0:i1].reshape(-1, K) @ w1cat).reshape(i1 - i0, K, 3, 3, H)
            for a, b, v in at:
                V[v + i0:v + i1] += p[:, :, a, b]

    def bw(gV):
        gw1 = np.zeros((K, 3, 3, H))
        gw1cat = gw1.reshape(K, 9 * H)
        for jj, (wd, nw) in enumerate(zip(wds, nws)):
            gw = tn._grad_buffer(nw)
            for i0, i1, at in blocks(jj):
                gp = np.zeros((i1 - i0, K, 3, 3, H))
                for a, b, v in at:
                    gp[:, :, a, b] = gV[v + i0:v + i1]
                gp = gp.reshape(-1, 9 * H)
                gw[i0:i1] += (gp @ w1cat.T).reshape(i1 - i0, K, K)
                gw1cat += wd[i0:i1].reshape(-1, K).T @ gp
        tn._accum(nw1, gw1.transpose(1, 2, 0, 3).copy(), owned=True)

    return tn._make(V, (*ws, w1), bw)


def ctcm_forward(
    r: Tensor, cfg: CtcmConfig, params: dict[str, Parameter]
) -> Tensor:
    """(..., T, K) -> (..., T, K/2): composite conv (scale stack and MSFF's
    3x3 conv in one), the rest of MSFF, project."""
    h_t = _msff_tail(composite_conv(r, params, cfg.kernels), params)
    return tn.matmul(h_t, params["ctcm.proj.w"]) + params["ctcm.proj.b"]


def fuse(h_time: Tensor, h_freq: Tensor, params: dict[str, Parameter]) -> Tensor:
    """Concatenate the two K/2 halves and project back to K per timestep."""
    if h_time.shape[:-1] != h_freq.shape[:-1]:
        raise ContractError(
            f"fusion length mismatch: {h_time.shape} vs {h_freq.shape}"
        )
    h = tn.concat([h_time, h_freq], axis=-1)
    return tn.matmul(h, params["fuse.w"]) + params["fuse.b"]


def time_contrastive_loss(r: Tensor, h: Tensor) -> Tensor:
    """Per-timestep InfoNCE between the backbone representation and the
    fused representation; summed over time, averaged over the batch."""
    return tn.tmean(tn.tsum(tn.info_nce(r, h), axis=-1))


# The benchmark tracer still wraps these names; see ``tensor._removed``.
multiscale_conv, msff = map(tn._removed, ("multiscale_conv", "msff"))
