"""The three benchmark workloads and the inputs they are fed.

Every workload is a closed loop: one caller, and each step starts when the
previous one has returned.  The workload seed only shapes the generated
corpus; the program's own ``seed`` key stays at its default, so every run
trains the same initial network on different data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from mffftnet import data, evaluation, training
from mffftnet.config import RunConfig
from mffftnet.errors import NumericError
from mffftnet.model import Model

SETUP_REPEATS = 9
ETTH1_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
PAPER_HORIZONS = "24,48,168,336,720"


# -- generated inputs ----------------------------------------------------------

def _write_csv(path: Path, names, values: np.ndarray) -> None:
    origin = datetime(2016, 7, 1)
    lines = ["date," + ",".join(names)]
    for i, row in enumerate(values):
        stamp = (origin + timedelta(hours=i)).isoformat(sep=" ")
        lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def two_sine_csv(path: Path, seed: int, n: int = 1600) -> None:
    """The bundled two-sinusoid corpus (``scripts/specs/two_sine.json``) with
    its noise drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    f0 = np.sin(2 * np.pi * t / 24) + 0.5 * np.sin(2 * np.pi * t / 12 + 0.7)
    f1 = np.sin(2 * np.pi * t / 16 + 1.1)
    noise = rng.normal(0.0, 0.05, size=(n, 2))
    _write_csv(path, ("f0", "f1"), np.column_stack([f0, f1]) + noise)


def etth1_like_csv(path: Path, seed: int, n: int = 17420) -> None:
    """ETTh1's shape (17 420 hourly rows x 7 features, so the fixed
    8640/2880/2880 split applies): daily and weekly cycles with seeded
    amplitudes and phases, a linear drift and noise; OT mixes the loads."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    cols = []
    for _ in range(6):
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
        p1, p2 = rng.uniform(0.0, 2 * np.pi, size=2)
        drift = rng.uniform(-1.0, 1.0) * t / n
        cols.append(a * np.sin(2 * np.pi * t / 24 + p1)
                    + b * np.sin(2 * np.pi * t / 168 + p2)
                    + drift + rng.normal(0.0, 0.3, size=n))
    loads = np.column_stack(cols)
    ot = loads @ rng.uniform(-0.5, 0.5, size=6) + rng.normal(0.0, 0.3, size=n)
    _write_csv(path, ETTH1_COLUMNS, np.column_stack([loads, ot]))


# -- one pass of a workload ------------------------------------------------------

@dataclass
class PassResult:
    """Plain numbers only, so a pass frees its model and tape on return."""

    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)  # completed steps only
    losses: list[float | None] = field(default_factory=list)  # None = failed step
    loop_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    train_windows: int = 0
    probe_windows: int = 0
    probe_s: list[float] = field(default_factory=list)
    probe_mse: float | None = None
    checks: dict[str, bool] = field(default_factory=dict)
    n_loop: int = 0  # completed loop steps: the per-layer denominator

    def fingerprint(self) -> dict:
        first = self.losses[0] if self.losses else None
        return {
            "first_step_loss": None if first is None else repr(first),
            "probe_mse": None if self.probe_mse is None else repr(self.probe_mse),
        }


def _setup(csv_path: Path, cfg: RunConfig, tracer, train: bool, res: PassResult):
    """CSV read, split, standardise, windowing and ``Model.build``, timed
    ``SETUP_REPEATS`` times; the last set-up is the one used."""
    tracer.phase = "setup"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        table = data.load_csv(csv_path)
        spec = data.split(table)
        std = data.standardize(table, spec)
        wins = None
        if train:
            T, stride = int(cfg["window.length"]), int(cfg["window.stride"])
            wins = data.window_batch(std, spec.train_range, T, stride).windows
        model = Model.build(cfg.model_config(std.num_features), init_seed=int(cfg["seed"]))
        res.setup_s.append(time.perf_counter() - t0)
    return std, spec, wins, model


def _train_loop(model, wins, cfg: RunConfig, n_steps: int, tracer, res: PassResult):
    """``training.fit``'s epoch/permutation schedule, one timed step at a time.

    A step that raises ``NumericError`` or yields a non-finite loss counts
    as failed, its time stays in the loop total, and training continues
    from the initial parameters.
    """
    tcfg, acfg = cfg.train_config(), cfg.augment_config()
    B = tcfg.batch_size
    per_epoch = len(wins) // B
    init_state = model.state_arrays()
    velocities: dict[str, np.ndarray] = {}
    tracer.phase = "loop"
    loop_start = time.perf_counter()
    for step in range(n_steps):
        epoch, k = divmod(step, per_epoch)
        if k == 0:
            order = np.random.default_rng([tcfg.seed, 1000 + epoch]).permutation(len(wins))
        batch = wins[order[k * B:(k + 1) * B]]
        tracer.begin_step()
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("step"):
                l_total, _, _ = training.total_loss(batch, model, tcfg, acfg, step=step)
                loss = l_total.item()
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at step {step}")
                model.zero_grad()
                l_total.backward()
                training.sgd_step(model.parameters(), velocities, tcfg.learning_rate,
                                  tcfg.momentum, tcfg.weight_decay)
        except NumericError:
            tracer.fail_step()
            res.failed += 1
            res.losses.append(None)
            if step + 1 < n_steps:
                model.load_state(init_state)
                velocities.clear()
            continue
        res.step_s.append(time.perf_counter() - t0)
        res.losses.append(loss)
        res.train_windows += B
    res.loop_s = time.perf_counter() - loop_start
    res.n_loop = len(res.step_s)
    # Both contrastive terms are means of logsumexp(row) - row[i] >= 0.
    res.checks["losses_nonnegative"] = all(v >= 0 for v in res.losses if v is not None)


def _probe(model, std, spec, cfg: RunConfig, res: PassResult) -> None:
    """One ``evaluate_horizons`` call; each requested horizon must come back
    finite, or it counts as a failed operation."""
    T = int(cfg["window.length"])
    horizons = cfg.int_list("eval.horizons")
    for a, b in (spec.train_range, spec.valid_range, spec.test_range):
        res.probe_windows += sum(max(0, (b - a) - T - P + 1) for P in horizons)
    alphas = tuple(cfg.float_list("eval.ridge_alphas"))
    t0 = time.perf_counter()
    report = evaluation.evaluate_horizons(
        model, std, spec, T=T, horizons=horizons, mode=str(cfg["eval.mode"]),
        alpha_grid=alphas,
    )
    res.probe_s.append(time.perf_counter() - t0)
    got = {e["horizon"]: e["mse"] for e in report.entries}
    ok = [P for P in horizons if P in got and math.isfinite(got[P])]
    res.attempted += len(horizons)
    res.failed += len(horizons) - len(ok)
    res.probe_mse = float(report.avg_mse)
    # MAE^2 <= MSE holds for any error vector (Jensen); the average must be
    # the mean of the entries and every alpha must come from the grid.
    consistent = bool(report.entries) and report.avg_mse == float(
        np.mean([e["mse"] for e in report.entries])) and all(
        e["ridge_alpha"] in alphas and e["mae"] ** 2 <= e["mse"] * (1 + 1e-9)
        for e in report.entries)
    res.checks["probe_report"] = res.checks.get("probe_report", True) and consistent


def _checkpoint_round_trip(model, cfg: RunConfig, workdir: Path, res: PassResult) -> None:
    """Save and load the trained model; every parameter must come back bit
    for bit, with its name and weight-decay flag."""
    path = workdir / "model.bin"
    training.save_checkpoint(path, model, cfg.to_canonical_text(), step=len(res.losses))
    ckpt = training.load_checkpoint(path)
    res.attempted += 1
    res.checks["checkpoint_bitwise"] = (
        set(ckpt.params) == set(model.params)
        and all(ckpt.params[n].shape == p.data.shape
                and ckpt.params[n].tobytes() == p.data.tobytes()
                for n, p in model.params.items())
        and ckpt.exempt == {n for n, p in model.params.items() if p.weight_decay_exempt}
    )


# -- workloads -----------------------------------------------------------------

def desk_train(csv_path: Path, workdir: Path, seconds: int, tracer) -> PassResult:
    """``scripts/run_desk.py`` in one process: desk-profile training steps,
    a checkpoint round trip, then the probe at horizon 24."""
    res = PassResult()
    cfg = RunConfig.resolve("desk")  # its eval.horizons is "24"
    std, spec, wins, model = _setup(csv_path, cfg, tracer, True, res)
    t0 = time.perf_counter()
    _train_loop(model, wins, cfg, 10 * seconds, tracer, res)
    tracer.phase = "tail"
    _checkpoint_round_trip(model, cfg, workdir, res)
    _probe(model, std, spec, cfg, res)
    res.wall_s = time.perf_counter() - t0
    return res


def paper_step(csv_path: Path, workdir: Path, seconds: int, tracer) -> PassResult:
    """Default (paper) dimensions at B=8.  A step takes about 30 s, so the
    loop runs ``max(3, seconds // 30)`` steps: three is the fewest that reach
    the divergence documented for the shipped learning rate of 1e-3 (step 2
    overflows in ``silu``, step 3 raises ``NumericError``)."""
    res = PassResult()
    cfg = RunConfig.resolve("paper", flag_overrides={"train.batch_size": 8})
    _, _, wins, model = _setup(csv_path, cfg, tracer, True, res)
    t0 = time.perf_counter()
    _train_loop(model, wins, cfg, max(3, seconds // 30), tracer, res)
    res.wall_s = time.perf_counter() - t0
    return res


def probe_eval(csv_path: Path, workdir: Path, seconds: int, tracer) -> PassResult:
    """The paper's probe protocol (multivariate, horizons 24..720, default
    alpha grid) on the desk encoder at its seeded initialisation."""
    res = PassResult()
    cfg = RunConfig.resolve("desk", flag_overrides={"eval.horizons": PAPER_HORIZONS})
    std, spec, _, model = _setup(csv_path, cfg, tracer, False, res)
    tracer.phase = "loop"
    t0 = time.perf_counter()
    for _ in range(max(1, round(seconds / 15))):
        _probe(model, std, spec, cfg, res)
    res.wall_s = res.loop_s = time.perf_counter() - t0
    res.step_s = list(res.probe_s)
    res.n_loop = len(res.probe_s)
    return res


# name -> (workload function, corpus writer)
WORKLOADS = {
    "desk-train": (desk_train, two_sine_csv),
    "paper-step": (paper_step, two_sine_csv),
    "probe-eval": (probe_eval, etth1_like_csv),
}
