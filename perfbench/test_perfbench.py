"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import plans  # noqa: E402
from spans import Tracer, span_stats  # noqa: E402


def test_same_seed_gives_same_inputs():
    for workload in plans.WORKLOADS:
        for pass_index in (0, 3):
            assert plans.plan(workload, 11, pass_index) == plans.plan(workload, 11, pass_index)


def test_different_seeds_and_passes_give_different_inputs():
    for workload in plans.WORKLOADS:
        assert plans.plan(workload, 11, 0) != plans.plan(workload, 12, 0)
        assert plans.plan(workload, 11, 0) != plans.plan(workload, 11, 1)


def test_pass_mix_is_fixed_across_seeds():
    for workload in plans.WORKLOADS:
        mixes = {tuple(sorted(plans.describe(op).split(":")[0] for op in plans.plan(workload, s, 0))) for s in range(5)}
        assert len(mixes) == 1


def test_seeds_share_shapes_but_not_values():
    def triples(seed):
        return [op["polys"] for op in plans.plan("star_exact", seed, 2) if op["kind"] == "triple"]

    def keys(triple_list):
        return [[[key for key, _ in poly["terms"]] for poly in polys] for polys in triple_list]

    a, b = triples(11), triples(12)
    assert keys(a) == keys(b)
    assert a != b


def test_large_decay_sweep_reaches_the_fock_budget_exactly():
    from qclimit import contraction_lab

    for seed in range(20):
        for op in plans.plan("fock_contract", seed, 0):
            if op["kind"] == "decay" and op["k_values"][-1] == 48.0:
                pair = tuple(tuple(label) for label in op["pair"])
                assert contraction_lab.required_cutoff(32.0, pair) == plans.FOCK_MAX_CUTOFF
                assert contraction_lab.required_cutoff(48.0, pair) > plans.FOCK_MAX_CUTOFF


def test_self_time_on_synthetic_nested_spans():
    # op [0, 10] > a [1, 7] > b [2, 4]; a also holds a nested a [4.5, 6.5]; c [8, 9] under op
    spans = [
        ["op", 0.0, 10.0, None, 1],
        ["a", 1.0, 7.0, 0, 1],
        ["b", 2.0, 4.0, 1, 1],
        ["a", 4.5, 6.5, 1, 1],
        ["c", 8.0, 9.0, 0, 1],
    ]
    stats = span_stats(spans)
    assert stats["op"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 6.0 - 1.0}
    # the nested a is counted in calls and self time but not twice in busy time
    assert stats["a"] == {"calls": 2, "busy_s": 6.0, "self_s": (6.0 - 2.0 - 2.0) + 2.0}
    assert stats["b"] == {"calls": 1, "busy_s": 2.0, "self_s": 2.0}
    assert stats["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_wrap_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer", count=lambda c, a, k, r: c.__setitem__("n", c["n"] + r))
    assert traced_outer(1) == 4
    (outer_span, inner_span) = tracer.spans
    assert outer_span[0] == "outer" and outer_span[3] is None
    assert inner_span[0] == "inner" and inner_span[3] == 0
    assert tracer.counters["n"] == 4


def test_install_patches_every_binding_and_uninstall_restores():
    from qclimit import contraction_lab, hilbert, star_product

    originals = (hilbert.build_fock_space, hilbert.WeylOperator.apply, star_product.PhasePolynomial.evaluate)
    assert contraction_lab.build_fock_space is hilbert.build_fock_space
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert hilbert.build_fock_space is not originals[0]
        assert contraction_lab.build_fock_space is hilbert.build_fock_space
        assert hilbert.WeylOperator.apply is not originals[1]
        config = contraction_lab.ContractionRunConfig(k_values=(1.0, 2.0), pairs=(contraction_lab.canonical_pair(),))
        contraction_lab.overlap_decay_sweep(config)
        space = hilbert.build_fock_space(1, 16)
        hilbert.weyl_unitary(space, 0.1, 0.2, form="single").apply(hilbert.vacuum_state(space))
    finally:
        tracer.uninstall()
    assert (hilbert.build_fock_space, hilbert.WeylOperator.apply, star_product.PhasePolynomial.evaluate) == originals
    assert contraction_lab.build_fock_space is originals[0]

    names = [s[0] for s in tracer.spans]
    sweep = names.index("contraction_lab.overlap_decay_sweep")
    assert tracer.spans[names.index("hilbert.build_fock_space")][3] == sweep
    assert "hilbert.weyl_unitary.single" in names and "hilbert.WeylOperator.apply" in names
    values = layers.layer_values(tracer, passes=1)
    assert values["hilbert.build_fock_space.calls"] == 3
    assert values["contraction_lab.fock_record_ratio"] == 1.0
    assert values["hilbert.build_fock_space.bytes_computed"] == 2 * 8 * 65**2 + 8 * 17**2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m["name"] for m in layers.per_layer_metrics()]
    assert [w["name"] for w in spec["workloads"]] == list(plans.WORKLOADS)
