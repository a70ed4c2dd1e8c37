"""In-memory span tracer that instruments mffftnet from the outside.

``Tracer.install()`` replaces public functions of the package's modules
with timing wrappers and ``uninstall()`` puts the originals back; nothing
under ``src/`` is edited, and the wrappers only call through, so the
arithmetic is unchanged.

Spans come in two views that never nest into each other:

* ``module`` spans partition a training step: the step itself, the loss,
  encoder, FACM, FFT, CTCM parts, backward and SGD.  A module's self time
  is its span minus its child module spans.
* ``op`` spans cover the autodiff primitives of ``mffftnet.tensor``; an op's
  self time excludes ops it calls (``tmean`` calls ``tsum``).

Backward time is caught by wrapping the ``_backward_fn`` of every tape
node as it is created.  A node's backward span is charged to the op that
created it (``tensor.<op>.bwd``) and to the innermost module span open at
creation (``<module>.bwd``).
"""

from __future__ import annotations

import json
import time
import warnings
from collections import defaultdict

import numpy as np

from mffftnet import (
    augment,
    ctcm,
    data,
    encoder,
    evaluation,
    facm,
    fourier,
    model,
    tensor,
    training,
)

_PACKAGE = (augment, ctcm, data, encoder, evaluation, facm, fourier, model, tensor, training)

TENSOR_OPS = (
    "add", "mul", "neg", "matmul", "tsum", "tmean", "texp", "tlog", "tsqrt",
    "ttanh", "sigmoid", "silu", "gelu", "atan2", "logsumexp", "reshape",
    "transpose", "concat", "diagonal", "causal_conv1d", "conv2d",
    "avg_pool2d", "dropout",
)

# (module object, attribute, span name): module-view spans around functions.
MODULE_FUNCS = (
    (data, "load_csv", "data.load_csv"),
    (data, "split", "data.split"),
    (data, "standardize", "data.standardize"),
    (data, "window_batch", "data.window_batch"),
    (training, "total_loss", "training.total_loss"),
    (training, "augment_view", "augment.view"),
    (training, "sgd_step", "training.sgd_step"),
    (training, "save_checkpoint", "training.checkpoint_save"),
    (training, "load_checkpoint", "training.checkpoint_load"),
    (facm, "rfft", "fourier.rfft"),
    (facm, "irfft", "fourier.irfft"),
    (facm, "freq_contrastive_loss", "facm.loss"),
    (ctcm, "multiscale_conv", "ctcm.multiscale"),
    (ctcm, "msff", "ctcm.msff"),
    (ctcm, "time_contrastive_loss", "ctcm.loss"),
    (evaluation, "evaluate_horizons", "evaluation.evaluate_horizons"),
    (evaluation, "extract_features", "evaluation.extract_features"),
    (evaluation, "fit_ridge", "evaluation.fit_ridge"),
    (evaluation, "score", "evaluation.score"),
)

MODEL_METHODS = (
    ("encode", "encoder"),
    ("facm", "facm.apply"),
    ("ctcm", "ctcm.forward"),
    ("fuse", "ctcm.fuse"),
)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in used by untraced runs: spans and phases cost nothing."""

    phase = "setup"
    _null = _NullSpan()

    def span(self, name):
        return self._null

    def begin_step(self):
        pass

    def fail_step(self):
        pass


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer._open("module", self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close("module")
        return False


class Tracer:
    """Records spans as ``(id, name, kind, start, end, parent_id, phase)``.

    Spans are appended when they close, as tuples of plain values, which the
    cyclic garbage collector stops tracking; a list per span would make
    every collection walk the whole trace.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._next_id = 0
        self._stacks: dict[str, list[tuple]] = {"module": [], "op": []}
        self._tape_owners: set[int] = set()
        self._step_mark: tuple[int, dict] = (0, {})
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, kind, name):
        stack = self._stacks[kind]
        stack.append((self._next_id, name, stack[-1][0] if stack else -1, time.perf_counter()))
        self._next_id += 1

    def _close(self, kind):
        span_id, name, parent, start = self._stacks[kind].pop()
        self.spans.append((span_id, name, kind, start, time.perf_counter(), parent, self.phase))

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n=1.0):
        self.counters[(self.phase, name)] += n

    def begin_step(self):
        """Start a new tape: ``tensor.tape_mb`` de-duplicates arrays per step."""
        self._tape_owners = set()
        self._step_mark = (len(self.spans), dict(self.counters))

    def fail_step(self):
        """Move the spans and counts of the step that just failed to the
        ``failed`` phase, so per-step metrics cover completed steps only."""
        since, before = self._step_mark
        self.spans[since:] = [s[:6] + ("failed",) for s in self.spans[since:]]
        for key, value in list(self.counters.items()):
            moved = value - before.get(key, 0.0)
            if moved:
                self.counters[key] = value - moved
                self.counters[("failed", key[1])] += moved

    def _current(self, kind):
        stack = self._stacks[kind]
        return stack[-1][1] if stack else None

    def _under(self, prefix):
        return any(entry[1].startswith(prefix) for entry in self._stacks["module"])

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, name, kind="module"):
        def wrapper(*args, **kwargs):
            self._open(kind, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(kind)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_make(self, make):
        def traced_make(data_, parents, backward_fn):
            out = make(data_, parents, backward_fn)
            if out._backward_fn is not None:
                self._record_tape_node(out)
                out._backward_fn = self._wrap_backward(out._backward_fn)
            return out

        return traced_make

    def _wrap_backward(self, fn):
        op = self._current("op")
        module_name = (self._current("module") or "step") + ".bwd"
        op_name = None if op is None else op + ".bwd"

        def traced_backward(g):
            start = time.perf_counter()
            try:
                fn(g)
            finally:
                end = time.perf_counter()
                stack = self._stacks["module"]
                parent = stack[-1][0] if stack else -1
                self.spans.append(
                    (self._next_id, module_name, "module", start, end, parent, self.phase))
                if op_name is not None:
                    self.spans.append(
                        (self._next_id + 1, op_name, "op", start, end, -1, self.phase))
                self._next_id += 2

        return traced_backward

    def _record_tape_node(self, out):
        """Count the node and the bytes of arrays it keeps alive: its output
        plus every array its backward closure holds, each buffer once."""
        self.count("tensor.tape_nodes")
        arrays = [out.data]
        for cell in getattr(out._backward_fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (list, tuple)):
                arrays.extend(v for v in value if isinstance(v, np.ndarray))
        fresh = 0
        for arr in arrays:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            if id(arr) not in self._tape_owners:
                self._tape_owners.add(id(arr))
                fresh += arr.nbytes
        self.count("tensor.tape_bytes", fresh)

    def _wrap_encode(self, fn):
        def encode(model_self, x, *args, **kwargs):
            if self._under("evaluation.extract_features"):
                self.count("evaluation.encoded_windows", int(np.prod(x.shape[:-2])))
            return fn(model_self, x, *args, **kwargs)

        return encode

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Replace ``original`` in every package module that holds it by name."""
        for mod in _PACKAGE:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        for name in TENSOR_OPS:
            fn = getattr(tensor, name)
            self._patch_everywhere(fn, self._wrap(fn, "tensor." + name, kind="op"))
        self._patch_everywhere(tensor._make, self._wrap_make(tensor._make))
        for owner, attr, name in MODULE_FUNCS:
            original = getattr(owner, attr)
            self._patch_everywhere(original, self._wrap(original, name))
        Model = model.Model
        for attr, name in MODEL_METHODS:
            fn = Model.__dict__[attr]
            if attr == "encode":
                fn = self._wrap_encode(fn)
            self._patch(Model, attr, self._wrap(fn, name))
        build = Model.__dict__["build"].__func__
        self._patch(Model, "build", classmethod(self._wrap(build, "model.build")))
        self._patch(tensor.Tensor, "backward",
                    self._wrap(tensor.Tensor.backward, "tensor.backward"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[tuple[str, str, str], tuple[float, int]]:
        """(phase, kind, name) -> (total self seconds, span count)."""
        child = [0.0] * self._next_id
        for _, _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str, str], list] = defaultdict(lambda: [0.0, 0])
        for span_id, name, kind, start, end, _, phase in self.spans:
            acc = out[(phase, kind, name)]
            acc[0] += end - start - child[span_id]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        payload = {
            "fields": ["id", "name", "kind", "start", "end", "parent", "phase"],
            "spans": self.spans,
            "counters": [[p, n, v] for (p, n), v in sorted(self.counters.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class WarningCounter:
    """Counts every ``RuntimeWarning`` and still shows each one."""

    def __init__(self):
        self.count = 0
        self._catcher = None

    def __enter__(self):
        self._catcher = warnings.catch_warnings()
        self._catcher.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        previous = warnings.showwarning

        def show(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                self.count += 1
            previous(message, category, *args, **kwargs)

        warnings.showwarning = show
        return self

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)
        return False


# -- per-layer metrics -------------------------------------------------------

MODULES = (
    "encoder",
    "fourier.rfft",
    "fourier.irfft",
    "facm.apply",
    "facm.loss",
    "ctcm.multiscale",
    "ctcm.msff",
    "ctcm.forward",
    "ctcm.fuse",
    "ctcm.loss",
)
REPORTED_OPS = (
    "matmul", "causal_conv1d", "conv2d", "avg_pool2d", "logsumexp", "silu",
    "atan2", "tsqrt", "concat", "transpose", "diagonal", "dropout", "add", "mul",
)


def per_layer(tracer: Tracer, n_setups: int, n_loop: int, runtime_warnings: int,
              wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Set-up layers are per set-up, checkpoint layers per save/load, evaluation
    layers per ``evaluate_horizons`` call, and everything else per completed
    step of the measured loop (spans in the ``loop`` phase only).
    """
    loop: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
    every: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
    for (phase, kind, name), (secs, n) in tracer.self_times().items():
        for table in (every, loop) if phase == "loop" else (every,):
            table[(kind, name)][0] += secs
            table[(kind, name)][1] += n

    n_loop = max(1, n_loop)
    n_eval = max(1, every[("module", "evaluation.evaluate_horizons")][1])
    n_ckpt = max(1, every[("module", "training.checkpoint_save")][1])

    def secs(table, name, kind="module"):
        return table[(kind, name)][0]

    m: dict[str, tuple[float, str]] = {}
    for key, name in (("data.load_csv_s", "data.load_csv"),
                      ("data.window_batch_s", "data.window_batch"),
                      ("model.build_s", "model.build")):
        m[key] = (secs(every, name) / n_setups, "s")
    m["augment.view_s"] = (secs(loop, "augment.view") / n_loop, "s")
    m["augment.view_calls"] = (loop[("module", "augment.view")][1] / n_loop, "count")
    for mod in MODULES:
        m[mod + ".fwd_s"] = (secs(loop, mod) / n_loop, "s")
        m[mod + ".bwd_s"] = (secs(loop, mod + ".bwd") / n_loop, "s")
    for op in REPORTED_OPS:
        name = "tensor." + op
        m[name + ".fwd_s"] = (secs(loop, name, "op") / n_loop, "s")
        m[name + ".bwd_s"] = (secs(loop, name + ".bwd", "op") / n_loop, "s")
        m[name + ".calls"] = (loop[("op", name)][1] / n_loop, "count")
    m["tensor.backward_s"] = (secs(loop, "tensor.backward") / n_loop, "s")
    counters: dict[tuple[bool, str], float] = defaultdict(float)
    for (phase, name), value in tracer.counters.items():
        counters[(phase == "loop", name)] += value
        counters[(None, name)] += value
    m["tensor.tape_nodes"] = (counters[(True, "tensor.tape_nodes")] / n_loop, "count")
    m["tensor.tape_mb"] = (counters[(True, "tensor.tape_bytes")] / n_loop / 1e6, "MB")
    m["tensor.runtime_warnings"] = (float(runtime_warnings), "count")
    m["training.step_other_s"] = (
        (secs(loop, "step") + secs(loop, "step.bwd")) / n_loop, "s")
    m["training.total_loss_s"] = (
        (secs(loop, "training.total_loss") + secs(loop, "training.total_loss.bwd")) / n_loop,
        "s")
    m["training.sgd_step_s"] = (secs(loop, "training.sgd_step") / n_loop, "s")
    m["training.checkpoint_save_s"] = (secs(every, "training.checkpoint_save") / n_ckpt, "s")
    m["training.checkpoint_load_s"] = (secs(every, "training.checkpoint_load") / n_ckpt, "s")
    m["evaluation.extract_features_s"] = (
        secs(every, "evaluation.extract_features") / n_eval, "s")
    m["evaluation.encoded_windows"] = (
        counters[(None, "evaluation.encoded_windows")] / n_eval, "count")
    m["evaluation.fit_ridge_s"] = (secs(every, "evaluation.fit_ridge") / n_eval, "s")
    m["evaluation.score_s"] = (secs(every, "evaluation.score") / n_eval, "s")
    m["trace.wall_s"] = (wall_s, "s")
    return m


def loop_module_self_sum(tracer: Tracer, n_loop: int) -> float:
    """Sum of all module-view self times in the loop phase, per completed step."""
    total = sum(secs for (phase, kind, _), (secs, _n) in tracer.self_times().items()
                if phase == "loop" and kind == "module")
    return total / max(1, n_loop)
