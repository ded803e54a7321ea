"""The bench tracer's layer table against the library it wraps.

``bench/spans.py`` replaces each layer target by module attribute, so a
renamed or moved function makes its span go quiet rather than fail, and its
count functions read parameter names and result attributes, so renaming one
of those breaks a traced run.  These checks catch both in the tier-1 suite.
"""

from __future__ import annotations

from bilingap import experiments
from bilingap.envelopes import EvaluationPoint, gap_report
from bilingap.experiments import ExperimentConfig
from bilingap.instances import random_pm1_complete

from conftest import load_bench_module


def test_every_layer_target_resolves_to_a_callable():
    spans = load_bench_module("spans")
    targets = [target for layer in spans.LAYERS for target in layer.targets]
    assert len(targets) == len(set(targets)) > 0
    for target in targets:
        owner, attr = spans._resolve(target)
        assert callable(vars(owner).get(attr)), target


def test_a_small_traced_run_reaches_every_layer_with_its_counts():
    spans = load_bench_module("spans")
    g = random_pm1_complete(4, 3)
    with spans.Tracer().installed() as tracer:
        gap_report(g, EvaluationPoint.from_iterable((0.3, 0.7, 0.6, 1.0)))  # an f = 3 LP
        gap_report(g, EvaluationPoint.all_half(4))
        for cfg in (
            ExperimentConfig(kind="hull_census", n_min=3, n_max=3, num_instances=2),
            ExperimentConfig(
                kind="cutfinder_stress", n_min=3, n_max=4, num_instances=2, trial_budget=1
            ),
        ):
            experiments.run_experiment(cfg)  # looked up at call time, as the tracer wraps it
    totals = spans.layer_totals(tracer.spans)
    for layer in spans.LAYERS:
        assert totals.get(layer.name, {}).get("calls", 0) >= 1, layer.name
        if layer.counts is not None:
            assert all(sp.counts for sp in tracer.spans if sp.name == layer.name), layer.name
    for metric, (layer, key) in spans.COUNT_METRICS.items():
        assert key in totals[layer], metric
