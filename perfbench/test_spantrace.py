"""Checks of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spantrace  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        (-1, 0.0, 10.0),   # root
        (0, 1.0, 3.0),     # child
        (1, 1.5, 2.5),     # grandchild: counts against the child, not the root
        (0, 4.0, 8.0),     # second child
    ]
    assert spantrace.self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [(-1, 0.0, 10.0), (0, 2.0, 6.0), (0, 4.0, 8.0), (0, 9.0, 12.0)]
    # children cover [2, 8] and [9, 10] of the root interval
    assert spantrace.self_times(spans)[0] == pytest.approx(3.0)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))          # 100 samples: p90 = 90, ten above it
    assert spantrace.percentile(samples, 0.9) == 90
    assert spantrace.percentile(samples[:99], 0.9) == 0.0
    # the median is always reported, even from one sample
    assert spantrace.percentile([7.0], 0.5) == 7.0
    assert spantrace.percentile([3, 1, 2], 0.5) == 2
    assert spantrace.percentile([], 0.5) == 0.0


def test_metric_names_and_units_fit_the_charset():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(spantrace.valid_name(n) for n in names), names
    assert all(spantrace.valid_unit(m["unit"]) for m in metrics)
    assert not spantrace.valid_name("_leading") and not spantrace.valid_name("a b")
    assert not spantrace.valid_name("x" * 65) and not spantrace.valid_unit("1/s/" * 5)
    # every per-layer metric belongs to a traced function or to the benchmark
    traced = {f"{module}.{attr}" for module, attr in spantrace.TRACED} | {"bench.trace"}
    assert all(m["name"].rsplit(".", 1)[0] in traced for m in bench["per_layer"])


def test_tracer_wraps_every_binding_and_restores_them():
    from spin7 import algebra, flow, lattice
    from spin7.orbit import so8_exp

    originals = (algebra.metric_from_form, flow.metric_from_form, lattice.unpack4)
    spec = lattice.LatticeSpec(active_axes=(0,), points=8)
    state = flow.initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        flow.metric_drift(state)                    # reaches metric_from_form via flow
        algebra.metric_from_form(state.phi_dense())  # and via algebra
        lattice.torsion(spec, state.phi)
        so8_exp(algebra.PHI0[0, 0])                 # a binding taken before install
    finally:
        tracer.uninstall()
    tracer.finish()
    assert (algebra.metric_from_form, flow.metric_from_form, lattice.unpack4) == originals
    stats = tracer.per_function()
    assert stats["algebra.metric_from_form"]["calls"] == 2
    assert stats["flow.metric_drift"]["calls"] == 1
    assert stats["orbit.so8_exp"]["calls"] == 0
    # metric_drift's own time excludes the metric_from_form call inside it
    drift = stats["flow.metric_drift"]
    assert drift["self_s"] < drift["s"]
    layers = spantrace.layer_metrics(tracer, ops=2)
    assert all(spantrace.valid_name(n) for n in layers)
    assert layers["lattice.torsion.calls"] == 0.5       # per operation
    assert layers["lattice.torsion.samples"] == 1       # over the whole run
    assert layers["lattice.torsion.evals_per_state"] == 1.0
    # torsion on 8 points, one axis: 2 * 512 * 64 flops per point
    assert layers["lattice.torsion.flops_computed"] == 2 * 512 * 64 * 8 / 2
