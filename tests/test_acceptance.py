"""Acceptance gate: eleven end-to-end checks, each printing one PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

The long check (number 6) trains the desk profile for its full 50 epochs
and stays under five minutes on an ordinary laptop core.
"""

import contextlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mffftnet import tensor as tn
from mffftnet.augment import AugmentConfig, draw_factors
from mffftnet.cli import ABLATION_VARIANTS, main
from mffftnet.config import RunConfig
from mffftnet.data import (
    PerturbationSpec,
    inject,
    load_csv,
    split,
    standardize,
    window_batch,
)
from mffftnet.errors import ConfigurationError
from mffftnet.evaluation import evaluate_horizons, fit_ridge, score, train_mean_baseline
from mffftnet.facm import (
    FacmConfig,
    facm_apply,
    freq_contrastive_loss,
    make_facm_params,
)
from mffftnet.ctcm import time_contrastive_loss
from mffftnet.fourier import as_complex, irfft, rfft
from mffftnet.model import Model
from mffftnet.tensor import Tensor
from mffftnet.training import TrainConfig, fit, total_loss
from tests.oracles import finite_diff_check, naive_dft
from tests.test_evaluation import probe_targets
from tests.test_data import two_sine
from tests.test_facm import kept_bins, stacked
from tests.test_training import tiny_model


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_01_spectral_oracle():
    with criterion(1, "spectral oracle"):
        start = time.time()
        r = np.random.default_rng(0)
        for T in range(2, 129):
            x = r.normal(size=(T, 2))
            fast = rfft(Tensor(x)).data
            slow = naive_dft(Tensor(x)).data
            assert np.abs(fast - slow).max() < 1e-9, T
            back = irfft(rfft(Tensor(x)), T).data
            assert np.abs(back - x).max() < 1e-9, T
            # energy conservation, with the shared-bin halves doubled
            spec = as_complex(rfft(Tensor(x)).data)
            c = T // 2 + 1
            weights = np.full(c, 2.0)
            weights[0] = 1.0
            if T % 2 == 0:
                weights[-1] = 1.0
            freq_energy = (weights[:, None] * np.abs(spec) ** 2).sum() / T
            time_energy = (x**2).sum()
            assert abs(freq_energy - time_energy) / time_energy < 1e-9, T
        assert time.time() - start < 10.0


def test_criterion_02_gradient_suite():
    with criterion(2, "gradient suite"):
        start = time.time()
        r = np.random.default_rng(1)

        def check(f, x, tol=1e-5):
            assert finite_diff_check(f, Tensor(x)) < tol

        w = Tensor(r.normal(size=(4, 3)))
        probe = Tensor(r.normal(size=(5, 3)))
        check(lambda x: tn.tsum(tn.matmul(x, w) * probe), r.normal(size=(5, 4)))
        mw = Tensor(r.normal(size=(5, 4)))
        check(lambda x: tn.tsum(x * mw), r.normal(size=(5, 4)))
        check(lambda x: tn.tsum(tn.texp(x * 0.1)), r.normal(size=(6,)))
        check(lambda x: tn.tsum(tn.tlog(x)), r.uniform(1.0, 2.0, size=(6,)))
        check(lambda x: tn.tsum(tn.tsqrt(x)), r.uniform(1.0, 2.0, size=(6,)))
        check(lambda x: tn.tsum(tn.ttanh(x)), r.normal(size=(6,)))
        check(lambda x: tn.tsum(tn.sigmoid(x)), r.normal(size=(6,)))
        check(lambda x: tn.tsum(tn.silu(x)), r.normal(size=(6,)))
        check(lambda x: tn.tsum(tn.gelu(x)), r.normal(size=(6,)))
        check(lambda x: tn.tsum(tn.logsumexp(x, axis=-1)), r.normal(size=(4, 5)))
        ck = Tensor(r.normal(size=(3, 2, 2)))
        cw = Tensor(r.normal(size=(8, 2)))
        check(lambda x: tn.tsum(tn.causal_conv1d(x, ck) * cw), r.normal(size=(8, 2)))
        c2 = Tensor(r.normal(size=(3, 3, 2, 2)))
        c2w = Tensor(r.normal(size=(4, 5, 2)))
        check(lambda x: tn.tsum(tn.conv2d(x, c2) * c2w), r.normal(size=(4, 5, 2)))
        pw = Tensor(r.normal(size=(1, 2, 4)))
        check(lambda x: tn.tsum(tn.avg_pool2d(x, (2, 1)) * pw), r.normal(size=(1, 4, 4)))
        denom = Tensor(r.uniform(0.5, 1.5, size=(6,)))
        check(lambda x: tn.tsum(tn.atan2(x, denom)), r.normal(size=(6,)))

        # full joint loss on the toy model, spot-checking every parameter
        model = tiny_model()
        for name in ("facm.beta.re", "facm.beta.im"):
            # move off the amplitude/phase singularity at the exact origin
            model.params[name].data += 0.05 * r.normal(size=model.params[name].shape)
        batch = r.normal(size=(2, 16, 2))
        cfg = TrainConfig()
        aug = AugmentConfig(seed=3)

        def loss_value() -> float:
            with tn.no_grad():
                l_total, _, _ = total_loss(batch, model, cfg, aug, training=False)
                return l_total.item()

        l_total, _, _ = total_loss(batch, model, cfg, aug, training=False)
        model.zero_grad()
        l_total.backward()
        step = 1e-5
        pick = np.random.default_rng(0)
        for name, p in sorted(model.params.items()):
            if p.grad is None:
                continue
            flat, grad = p.data.reshape(-1), p.grad.reshape(-1)
            for idx in pick.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = loss_value()
                flat[idx] = orig - step
                lo = loss_value()
                flat[idx] = orig
                numeric = (hi - lo) / (2 * step)
                if abs(grad[idx]) < 1e-6 and abs(numeric) < 1e-6:
                    continue  # both under the central-difference noise floor
                rel = abs(grad[idx] - numeric) / (abs(grad[idx]) + 1e-8)
                assert rel < 1e-3, (name, idx, rel)
        assert time.time() - start < 60.0


def test_criterion_03_loss_oracles():
    with criterion(3, "loss oracles"):
        r = np.random.default_rng(2)
        # dual frequency loss on two spectrum rows vs a softmax loop
        v1 = r.normal(size=(2, 4)) + 1j * r.normal(size=(2, 4))
        v2 = r.normal(size=(2, 4)) + 1j * r.normal(size=(2, 4))

        def spectrum(vals):
            return Tensor(np.concatenate([vals.real, vals.imag], axis=-1))

        def nce(f1, f2):
            c = f1.shape[0]
            total = 0.0
            for j in range(c):
                pos = np.exp(f1[j] @ f2[j])
                denom = sum(np.exp(f1[j] @ f2[k]) for k in range(c))
                total += -np.log(pos / denom)
            return total / c

        l_amp, l_phase, _ = freq_contrastive_loss(stacked(spectrum(v1), spectrum(v2)), 0.5)
        assert abs(l_amp.item() - nce(np.abs(v1), np.abs(v2))) < 1e-12
        assert abs(l_phase.item() - nce(np.angle(v1), np.angle(v2))) < 1e-12

        # time loss on three timesteps vs a softmax loop
        a, b = r.normal(size=(3, 4)), r.normal(size=(3, 4))
        brute = 0.0
        for t in range(3):
            pos = np.exp(a[t] @ b[t])
            denom = sum(np.exp(a[t] @ b[u]) for u in range(3))
            brute += -np.log(pos / denom)
        assert abs(time_contrastive_loss(Tensor(a), Tensor(b)).item() - brute) < 1e-12

        # endpoint identities
        _, _, l1 = freq_contrastive_loss(stacked(spectrum(v1), spectrum(v2)), 1.0)
        assert l1.item() == l_amp.item()
        _, _, l0 = freq_contrastive_loss(stacked(spectrum(v1), spectrum(v2)), 0.0)
        assert l0.item() == l_phase.item()
        model = tiny_model()
        batch = r.normal(size=(2, 16, 2))
        aug = AugmentConfig(seed=3)
        l_total, l_time, _ = total_loss(
            batch, model, TrainConfig(gamma2=0.0), aug, training=False
        )
        assert l_total.item() == l_time.item()


def test_criterion_04_frequency_selection():
    with criterion(4, "frequency selection"):
        K, T = 8, 64
        params = make_facm_params(K, T, 0)
        half = K // 2
        w = np.zeros((K, half))
        w[:half, :half] = np.eye(half)
        params["facm.omega.re"].data = w
        params["facm.omega.im"].data = np.zeros((K, half))
        params["facm.beta.re"].data[:] = 0.0
        params["facm.beta.im"].data[:] = 0.0
        t = np.arange(T)
        r = np.tile(np.sin(2 * np.pi * t / 16)[:, None], (1, K))
        c = T // 2 + 1
        assert kept_bins(rfft(Tensor(r)).data, 1.0 / c) == [4]
        out = facm_apply(
            Tensor(r), params, FacmConfig(mask_ratio=1.0 / c, dropout_rate=0.0)
        )[0]
        energy = np.abs(as_complex(naive_dft(out).data)) ** 2
        assert energy[4].sum() / energy.sum() >= 0.999999


def test_criterion_05_shape_contracts():
    with criterion(5, "shape contracts"):
        cfg = RunConfig.resolve("paper")
        model_cfg = cfg.model_config(input_dim=7)
        assert model_cfg.backbone.output_dim == 320
        assert model_cfg.ctcm.msff_hidden == 96
        assert len(model_cfg.ctcm.kernels) == 8
        model = Model.build(model_cfg, init_seed=0)
        T = int(cfg["window.length"])
        x = np.random.default_rng(3).normal(size=(T, 7))
        r = model.encode(Tensor(x))
        assert r.shape == (T, 320)
        h_hat, _ = model.facm(r)
        assert h_hat.shape == (T, 160)
        h_time = model.ctcm(r)
        assert h_time.shape == (T, 160)
        fused = model.fuse(h_time, h_hat)
        assert fused.shape == (T, 320)


def test_criterion_06_training_progress():
    with criterion(6, "training progress"):
        start = time.time()
        cfg = RunConfig.resolve("desk")
        table = two_sine()
        spec = split(table)
        std = standardize(table, spec)
        T = int(cfg["window.length"])
        wins = window_batch(std, spec.train_range, T, int(cfg["window.stride"])).windows
        model = Model.build(cfg.model_config(std.num_features), init_seed=0)
        history = fit(wins, model, cfg.train_config(), cfg.augment_config())
        assert len(history) == 50
        first, last = history[0]["loss_total"], history[-1]["loss_total"]
        assert last <= 0.7 * first, (first, last)

        P = 24
        report = evaluate_horizons(model, std, spec, T=T, horizons=[P])
        a, b = spec.train_range
        train_y = probe_targets(std.values[a:b], T, P, std.target_index)
        a, b = spec.test_range
        test_y = probe_targets(std.values[a:b], T, P, std.target_index)
        base_mse, _ = train_mean_baseline(train_y, test_y)
        probe_mse = report.entries[0]["mse"]
        assert probe_mse <= 0.7 * base_mse, (probe_mse, base_mse)
        assert time.time() - start < 300.0


def test_criterion_07_ablation_plumbing(tmp_path):
    with criterion(7, "ablation plumbing"):
        table = two_sine(600)
        # run every variant end to end at reduced epochs (the row-distinctness
        # property does not depend on training length)
        csv = tmp_path / "two.csv"
        lines = ["date," + ",".join(table.feature_names)]
        for stamp, row in zip(table.timestamps, table.values):
            lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
        csv.write_text("\n".join(lines) + "\n")
        variants = [v for v in ABLATION_VARIANTS if v != "full"]
        out = tmp_path / "ablate.json"
        rc = main(
            [
                "ablate",
                str(csv),
                "--variants",
                ",".join(variants),
                "--out",
                str(out),
                "--train.epochs",
                "1",
                "--seed",
                "0",
            ]
        )
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["variant"] for r in rows] == variants
        metrics = [(r["avg_mse"], r["avg_mae"]) for r in rows]
        assert len(set(metrics)) == len(metrics), "variant rows must be distinct"

        # the frequency-branch-disabled variant reduces to the weighted time
        # term at every step
        cfg = RunConfig.resolve("desk")
        spec = split(table)
        std = standardize(table, spec)
        wins = window_batch(
            std, spec.train_range, int(cfg["window.length"]), int(cfg["window.stride"])
        ).windows
        model = Model.build(replace(cfg.model_config(std.num_features), facm=None), init_seed=0)
        tcfg = cfg.train_config()
        aug = cfg.augment_config()
        for step in range(3):
            batch = wins[step * tcfg.batch_size : (step + 1) * tcfg.batch_size]
            l_total, l_time, l_freq = total_loss(batch, model, tcfg, aug, step=step)
            assert l_freq.item() == 0.0
            assert abs(l_total.item() - tcfg.gamma1 * l_time.item()) < 1e-12


def test_criterion_08_robustness_harness():
    with criterion(8, "robustness harness"):
        table = two_sine(500)
        spec = PerturbationSpec(kind="noise", ratio=0.13, seed=1)
        assert spec.noise_mean == 10.0 and spec.noise_std == 10.0
        noisy = inject(table, spec)
        changed = int((noisy.values != table.values).sum())
        assert changed == int(np.ceil(0.13 * table.values.size))
        untouched = inject(table, PerturbationSpec(kind="noise", ratio=0.0, seed=1))
        assert untouched.values.tobytes() == table.values.tobytes()
        masked = inject(table, PerturbationSpec(kind="missing", ratio=0.2, seed=1))
        changed = masked.values != table.values
        assert int(changed.sum()) == int(np.ceil(0.2 * table.values.size))
        assert np.all(masked.values[changed] == 0.0)


def test_criterion_09_augmentation_statistics():
    with criterion(9, "augmentation statistics"):
        cfg = AugmentConfig(alpha=0.5, beta=0.1, seed=0)
        sigma = np.full(10**5, 2.0)
        eps_s, _ = draw_factors(cfg, sigma, 1)
        assert abs(eps_s.mean() - 1.0) < 0.01
        assert abs(eps_s.std() - 1.0) < 0.02


def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    with criterion(10, "reproducibility"):
        monkeypatch.setenv("MFF_TIMESTAMP", "2020-01-01T00:00:00+00:00")
        table = two_sine(300)
        csv = tmp_path / "two.csv"
        lines = ["date," + ",".join(table.feature_names)]
        for stamp, row in zip(table.timestamps, table.values):
            lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
        csv.write_text("\n".join(lines) + "\n")
        fast = [
            "--window.length", "32",
            "--train.epochs", "1",
            "--train.batch-size", "4",
            "--eval.horizons", "8",
        ]
        blobs = []
        for name in ("a", "b"):
            ck = tmp_path / f"{name}.bin"
            rep = tmp_path / f"{name}.json"
            assert main(["train", str(csv), "--out", str(ck), "--seed", "7", *fast]) == 0
            assert (
                main(["eval", str(ck), str(csv), "--report", str(rep), "--eval.horizons", "8"])
                == 0
            )
            blobs.append((ck.read_bytes(), rep.read_bytes()))
        assert blobs[0] == blobs[1]


def test_criterion_11_data_contracts(tmp_path):
    with criterion(11, "data contracts"):
        # golden miniature with the standard schema
        golden = tmp_path / "mini.csv"
        golden.write_text(
            "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n"
            "2016-07-01 00:00:00,5.8,2.0,1.6,0.4,4.3,1.3,30.5\n"
            "2016-07-01 01:00:00,5.7,2.1,1.5,0.3,4.2,1.2,30.1\n"
            "2016-07-01 02:00:00,5.6,2.0,1.4,0.2,4.1,1.1,29.8\n"
        )
        table = load_csv(golden)
        assert table.num_rows == 3 and table.num_features == 7
        assert table.feature_names[-1] == "OT" and table.target_index == 6

        expected = {
            "ETTh1": (17420, (8640, 2880, 2880)),
            "ETTm1": (69680, (34560, 11520, 11520)),
        }
        checked = 0
        for name, (n, (tr, va, te)) in expected.items():
            for base in (Path("data"), Path("examples"), Path("datasets")):
                path = base / f"{name}.csv"
                if not path.exists():
                    continue
                real = load_csv(path)
                assert real.num_rows == n and real.num_features == 7
                spec = split(real)
                assert (spec.train_end, spec.valid_end - spec.train_end) == (tr, va)
                assert spec.total - spec.valid_end == te
                checked += 1
        if checked == 0:
            # full-size files absent; verify the boundary table directly on
            # size-matched synthetic stand-ins
            from mffftnet.data import KNOWN_SPLITS

            assert KNOWN_SPLITS[(17420, 7)] == (8640, 2880, 2880)
            assert KNOWN_SPLITS[(69680, 7)] == (34560, 11520, 11520)
