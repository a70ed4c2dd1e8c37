"""Complementary time-domain contrastive module.

In the paper, parallel causal 1-D convolutions at several kernel sizes
produce an n x T x K stack (scales, time, channels; channels last
throughout), and the multi-scale feature fusion (MSFF) block collapses it
to T x K/2: a 3x3 2-D convolution over (scale, time), SiLU, the mean over
the n scales (the paper's average pool spans the whole scale axis) and a
per-timestep linear map (the paper's 1x1 convolution). Fusion
concatenates the time- and frequency-domain halves and projects back to
K; the time contrastive loss ties each fused timestep to its backbone
representation.

The scale convolutions and MSFF's 3x3 convolution are both linear, so
the model folds them into one convolution from r (RepVGG's structural
re-parameterization, Ding et al., arXiv 2101.03697): ``composite_conv``
builds K x H composite taps from the scale and MSFF weights, runs them on
r as one tape node, and never builds the stack. MSFF reads zeros past the
last stack row, where the composite reads the scales' convolution one
step past the window; the last output row subtracts that term. The
unfused pair, ``multiscale_conv`` then ``msff``, stays as the reference
that the tests compare against and that the benchmark tracer wraps by
name; the model does not run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, ParameterError
from . import tensor as tn
from .tensor import Parameter, Tensor

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


def make_ctcm_params(
    K: int, cfg: CtcmConfig, init_seed: int = 0
) -> dict[str, Parameter]:
    rng = np.random.default_rng(init_seed)
    half = K // 2
    H = cfg.msff_hidden
    params: dict[str, Parameter] = {}

    def add(name, data, exempt=False):
        params[name] = Parameter(data, name=name, weight_decay_exempt=exempt)

    def kaiming(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    for kj in cfg.kernels:
        add(f"ctcm.scale{kj}.w", kaiming((kj, K, K), kj * K))
        add(f"ctcm.scale{kj}.b", np.zeros(K), exempt=True)
    add("ctcm.msff.conv1.w", kaiming((3, 3, K, H), 9 * K))
    add("ctcm.msff.conv1.b", np.zeros(H), exempt=True)
    add("ctcm.msff.conv2.w", kaiming((H, half), H))
    add("ctcm.msff.conv2.b", np.zeros(half), exempt=True)
    add("ctcm.proj.w", kaiming((half, half), half))
    add("ctcm.proj.b", np.zeros(half), exempt=True)
    add("fuse.w", kaiming((K, K), K))
    add("fuse.b", np.zeros(K), exempt=True)
    return params


def multiscale_conv(
    r: Tensor, params: dict[str, Parameter], kernels: tuple[int, ...]
) -> Tensor:
    """Stack causal depth-preserving convolutions: (..., T, K) -> (..., n, T, K).

    The unfused reference for ``composite_conv``, which the model runs
    instead: the tests use it as the oracle, and the benchmark tracer
    (``perfbench/tracing.py``) wraps it by name. One ``tn._tap_conv`` call
    runs the taps of every scale on the shared input and adds each scale,
    over its bias, straight into its slot of the stack: one tape node for
    all n scales.
    """
    T, K = r.shape[-2:]
    _check_kernels(kernels, T)
    out = np.empty(r.shape[:-2] + (len(kernels), T, K))
    taps, biases = [], []
    for j, kj in enumerate(kernels):
        b = params[f"ctcm.scale{kj}.b"]
        out[..., j, :, :] = b.data
        biases.append((b, (..., j, slice(None), slice(None))))
        taps += tn._causal_taps(params[f"ctcm.scale{kj}.w"], T, at=(j,))
    return tn._tap_conv(r, taps, out, "multiscale_conv", biases)


def msff(h_d: Tensor, params: dict[str, Parameter]) -> Tensor:
    """(..., n, T, K) -> (..., T, K/2) via 3x3 conv / SiLU / scale mean / linear.

    The unfused reference, with ``multiscale_conv`` before it, for the
    model's ``composite_conv`` and ``_msff_tail``: the tests use it as the
    oracle, and the benchmark tracer wraps it by name."""
    z = tn.conv2d(h_d, params["ctcm.msff.conv1.w"]) + params["ctcm.msff.conv1.b"]
    return _msff_tail(z, params)


def _msff_tail(z: Tensor, params: dict[str, Parameter]) -> Tensor:
    """MSFF after its 3x3 conv: (..., n, T, H) -> (..., T, K/2)."""
    z = tn.tmean(tn.silu(z), axis=-3)
    return tn.matmul(z, params["ctcm.msff.conv2.w"]) + params["ctcm.msff.conv2.b"]


def _check_kernels(kernels: tuple[int, ...], T: int) -> None:
    for kj in kernels:
        if kj > T:
            raise ParameterError(f"kernel {kj} exceeds window length {T}")


# Elements of one block of composite products, (taps x K x 9H): 16 MB. A
# whole paper-shaped scale (128 x 320 x 864) would be 283 MB.
_COMPOSE_ELEMS = 1 << 21


def composite_conv(
    r: Tensor, params: dict[str, Parameter], kernels: tuple[int, ...]
) -> Tensor:
    """MSFF's conv1 pre-activation straight from r: (..., T, K) -> (..., n, T, H).

    Equal to ``tn.conv2d(multiscale_conv(r), w1) + b1`` up to rounding, as
    one tape node. Scale j' reads r[t-s] through W_j'[k-1-s], and MSFF tap
    (a, b) reads stack cell (j+a-1, t+b-1), so output scale j reads r[t-u]
    through the composite matrix

        V_j[u] = sum of W_j'[k-1-s] @ w1[a, b] over j' = j+a-1, s-(b-1) = u

    for u = -1 .. the largest kernel among scales j-1 .. j+1 (u = -1 is
    MSFF's step ahead). The scale biases go through w1 the same way, over
    the (a, b) whose stack cell exists: one row for t = 0, one for the
    interior and one for t = T-1. MSFF reads zeros past the last stack row,
    but the composite reads there the scales' convolution one step past the
    window, c_j'[T] = sum over s >= 1 of r[T-s] @ W_j'[k-1-s]; the last
    output row subtracts c_j'[T] @ w1[a, 2]. The composition runs in blocks
    of ``_COMPOSE_ELEMS``; the products go straight into V, which is the
    only buffer kept for the backward pass besides c[T].
    """
    T, K = r.shape[-2:]
    _check_kernels(kernels, T)
    ws = [params[f"ctcm.scale{kj}.w"] for kj in kernels]
    bs = [params[f"ctcm.scale{kj}.b"] for kj in kernels]
    w1, b1 = params["ctcm.msff.conv1.w"], params["ctcm.msff.conv1.b"]
    n, H = len(kernels), w1.shape[-1]
    lead = r.shape[:-2]
    x = r.data
    # column (a, b, h) of w1cat is w1[a, b, :, h]
    w1cat = w1.data.transpose(2, 0, 1, 3).reshape(K, 9 * H)
    # w1 row a takes source scale j' = j + a - 1 to output scale j: the
    # (output, source) slices of every a
    pairs = [(slice(max(0, 1 - a), min(n, n + 1 - a)),
              slice(max(0, a - 1), min(n, n + a - 1))) for a in range(3)]
    # V_j[u] sits at top[j] - u for u = kmax_j .. -1, so that row i of a
    # source scale's w, the lag k-1-i, lands on V at a rising index
    kmax = [max(kernels[max(j - 1, 0):j + 2]) for j in range(n)]
    top = np.cumsum([k + 2 for k in kmax]) - 2
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
    for jj, w in enumerate(ws):
        for i0, i1, at in blocks(jj):
            p = (w.data[i0:i1].reshape(-1, K) @ w1cat).reshape(i1 - i0, K, 3, 3, H)
            for a, b, v in at:
                V[v + i0:v + i1] += p[:, :, a, b]

    q = np.stack([b.data for b in bs]) @ w1cat  # (n, 9H): b_j' @ w1[a, b]
    qs = np.zeros((n, 3, H))
    for a, (jo, js) in enumerate(pairs):
        qs[jo] += q[js].reshape(-1, 3, 3, H)[:, a]
    rows = np.broadcast_to(b1.data + qs[:, 1, None], (n, T, H)).copy()
    rows[:, 1:] += qs[:, 0, None]
    rows[:, :-1] += qs[:, 2, None]
    out = np.empty(lead + (n, T, H))
    out[...] = rows

    taps = []
    for j in range(n):
        for u in range(-1, kmax[j] + 1):
            if abs(u) < T:
                src, dst = tn._shift(-u, T)
                taps.append((top[j] - u, (..., src), (..., j, dst, slice(None))))
    for v, src, dst in taps:
        out[dst] += x[src + (slice(None),)] @ V[v]

    def tail(jj):
        """r's last k-1 rows, flattened per window, and the matching taps of
        scale jj: c_jj[T] = tail_r @ tail_w."""
        k = kernels[jj]
        return (x[..., T - k + 1:, :].reshape(-1, (k - 1) * K),
                ws[jj].data[:k - 1].reshape(-1, K))

    phantom = np.zeros(lead + (n, K))
    for jj in range(n):
        if kernels[jj] > 1:
            tr, tw = tail(jj)
            phantom[..., jj, :] = (tr @ tw).reshape(lead + (K,))
    for a, (jo, js) in enumerate(pairs):
        out[..., jo, T - 1, :] -= phantom[..., js, :] @ w1.data[a, 2]

    def bw(g):
        gV = np.zeros(V.shape)
        gx = tn._kn2row(x, g, [(V[v], gV[v], src, dst) for v, src, dst in taps])
        gws = [np.zeros(w.shape) for w in ws]
        gw1 = np.zeros((K, 3, 3, H))
        gw1cat = gw1.reshape(K, 9 * H)
        for jj, w in enumerate(ws):
            for i0, i1, at in blocks(jj):
                gp = np.zeros((i1 - i0, K, 3, 3, H))
                for a, b, v in at:
                    gp[:, :, a, b] = gV[v + i0:v + i1]
                gp = gp.reshape(-1, 9 * H)
                gws[jj][i0:i1] = (gp @ w1cat.T).reshape(i1 - i0, K, K)
                gw1cat += w.data[i0:i1].reshape(-1, K).T @ gp

        gt = g.reshape((-1, n, T, H)).sum(axis=0)
        gqs = np.stack([gt[:, 1:].sum(axis=1), gt.sum(axis=1), gt[:, :-1].sum(axis=1)], axis=1)
        gq = np.zeros((n, 3, 3, H))
        for a, (jo, js) in enumerate(pairs):
            gq[js, a] = gqs[jo]
        gq = gq.reshape(n, 9 * H)
        gbs = gq @ w1cat.T
        gw1cat += np.stack([b.data for b in bs]).T @ gq

        glast = g[..., T - 1, :]
        gph = np.zeros(phantom.shape)
        for a, (jo, js) in enumerate(pairs):
            gph[..., js, :] -= glast[..., jo, :] @ w1.data[a, 2].T
            gw1[:, a, 2] -= phantom[..., js, :].reshape(-1, K).T @ glast[..., jo, :].reshape(-1, H)
        for jj in range(n):
            k = kernels[jj]
            if k > 1:
                tr, tw = tail(jj)
                gp = gph[..., jj, :].reshape(-1, K)
                gws[jj][:k - 1] += (tr.T @ gp).reshape(k - 1, K, K)
                gx[..., T - k + 1:, :] += (gp @ tw.T).reshape(lead + (k - 1, K))

        tn._accum(r, gx, owned=True)
        for w, gw in zip(ws, gws):
            tn._accum(w, gw, owned=True)
        for b, gb in zip(bs, gbs):
            tn._accum(b, gb, owned=True)
        tn._accum(w1, gw1.transpose(1, 2, 0, 3).copy(), owned=True)
        tn._accum(b1, gt.sum(axis=(0, 1)), owned=True)

    return tn._make(out, (r, *ws, *bs, w1, b1), bw)


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
    if r.shape != h.shape:
        raise ContractError(f"shape mismatch: {r.shape} vs {h.shape}")
    axes = (*range(h.ndim - 2), h.ndim - 1, h.ndim - 2)
    logits = tn.matmul(r, tn.transpose(h, axes))
    per_t = tn.logsumexp(logits, axis=-1) - tn.diagonal(logits)
    return tn.tmean(tn.tsum(per_t, axis=-1))
