"""The benchmark tracer (``perfbench/tracing.py``) patches the package by
name; these checks fail when a function it wraps is renamed or removed."""

from mffftnet import evaluation, model, tensor
from mffftnet.data import split, standardize
from perfbench import tracing
from tests.test_evaluation import make_table
from tests.test_training import tiny_model


def _namespaces():
    return [*tracing._PACKAGE, model.Model, tensor.Tensor]


def test_tracer_install_wraps_every_name_and_uninstall_restores():
    originals = {("tensor", name): getattr(tensor, name) for name in tracing.TENSOR_OPS}
    for owner, attr, _ in tracing.MODULE_FUNCS:
        originals[owner.__name__, attr] = getattr(owner, attr)
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = tracing.Tracer()
    tracer.install()  # a name that no longer resolves raises here
    try:
        for name in tracing.TENSOR_OPS:
            assert getattr(tensor, name).__wrapped__ is originals["tensor", name]
        for owner, attr, _ in tracing.MODULE_FUNCS:
            assert getattr(owner, attr).__wrapped__ is originals[owner.__name__, attr]
    finally:
        tracer.uninstall()
    for ns, saved in zip(_namespaces(), before):
        now = dict(vars(ns))
        assert now.keys() == saved.keys()
        assert all(now[key] is saved[key] for key in saved), ns


def test_traced_probe_records_fit_and_score_spans(rng):
    table = make_table(rng)
    spec = split(table)
    table = standardize(table, spec)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evaluation.evaluate_horizons(tiny_model(), table, spec, T=16, horizons=[4, 8])
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    for name in ("evaluation.extract_features", "evaluation.fit_ridge", "evaluation.score"):
        assert names.count(name) == (3 if name.endswith("features") else 2), name
