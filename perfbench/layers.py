"""The six qclimit modules as benchmark layers.

Lists the public functions traced in each module, the work counters recorded
at their boundaries, and the per-layer metrics a traced run reports.
"""

from __future__ import annotations

import importlib

from spans import Tracer, span_stats

LAYERS = ("cli", "star_product", "hilbert", "contraction_lab", "coset_rep", "lie_core")
CRITERIA = tuple(f"criterion_{n:02d}" for n in range(1, 13))

TRACED = {
    "cli": ("main", *CRITERIA, "overlap_grid_max_rel_err", "matrix_element_grid_max_rel_err", "serialize_report"),
    "star_product": (
        "star",
        "moyal_bracket",
        "poisson_bracket",
        "PhasePolynomial.evaluate",
        "classical_limit_sweep",
        "harmonic_evolution_check",
        "canonical_commutator_check",
    ),
    "hilbert": (
        "build_fock_space",
        "weyl_unitary",
        "WeylOperator.apply",
        "coherent_state",
        "overlap",
        "matrix_element",
        "projective_flow_check",
        "operator_commutator_check",
        "fock_overlap_hp",
        "fock_matrix_element_hp",
        "cross_validate_backends",
    ),
    "contraction_lab": ("overlap_decay_sweep", "gram_matrix", "eigenvalue_residual"),
    "coset_rep": ("group_element", "compose", "weyl_compose_formula"),
    "lie_core": ("build_standard_algebra", "verify_algebra", "verify_algebra_symbolic", "limit_algebra"),
}

# counters: name -> (unit, better)
COUNTERS = {
    "star_product.star.term_pairs": ("count", "lower"),
    "hilbert.build_fock_space.bytes_computed": ("bytes", "lower"),
    "hilbert.projective_flow_check.rk4_steps": ("count", "lower"),
    "contraction_lab.fock_record_ratio": ("ratio", "higher"),
    "cli.report_bytes": ("bytes", "lower"),
}
RUN_METRICS = {
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.untraced_share": ("ratio", "lower"),
    "checks_failed_ratio": ("ratio", "lower"),
}
# spans whose own time is covered by no layer below them
UNCOVERED = ("op", "cli.main")


def _star_pairs(counters, args, kwargs, result):
    counters["star_product.star.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _fock_bytes(counters, args, kwargs, result):
    # computed, not measured: one dense float64 n x n matrix per call, n = cutoff + 1
    counters["hilbert.build_fock_space.bytes_computed"] += 8 * (result.cutoff + 1) ** 2


def _rk4_steps(counters, args, kwargs, result):
    # route (a) and route (b) at dt, route (a) again at dt/2
    counters["hilbert.projective_flow_check.rk4_steps"] += 4 * result.steps


def _decay_records(counters, args, kwargs, result):
    counters["contraction_lab.fock_records"] += sum(r.backend == "fock" for r in result)
    counters["contraction_lab.decay_cases"] += sum(r.backend == "closed_form" for r in result)


def _weyl_form(args, kwargs):
    return "hilbert.weyl_unitary." + kwargs.get("form", args[4] if len(args) > 4 else "factored")


COUNT = {
    "star_product.star": _star_pairs,
    "hilbert.build_fock_space": _fock_bytes,
    "hilbert.projective_flow_check": _rk4_steps,
    "contraction_lab.overlap_decay_sweep": _decay_records,
}


def _cli_function(module, short: str) -> str:
    """cli criteria are traced under their number: criterion_01_algebra_axioms -> criterion_01."""
    if short in CRITERIA:
        return next(n for n in vars(module) if n.startswith(short + "_") and callable(getattr(module, n)))
    return short


def install(tracer: Tracer) -> None:
    """Patch every traced function of every layer; undo with tracer.uninstall()."""
    targets = {}
    for layer, names in TRACED.items():
        module = importlib.import_module(f"qclimit.{layer}")
        for name in names:
            span = f"{layer}.{name}"
            # weyl_unitary is traced per form: hilbert.weyl_unitary.factored / .single
            namer = _weyl_form if span == "hilbert.weyl_unitary" else None
            kwargs = {"namer": namer, "count": COUNT.get(span)}
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                tracer.patch_method(cls, attr, tracer.wrap(cls.__dict__[attr], span, **kwargs))
            else:
                fn = getattr(module, _cli_function(module, name) if layer == "cli" else name)
                targets[id(fn)] = tracer.wrap(fn, span, **kwargs)
    tracer.patch_functions(targets)


def _span_names() -> list[str]:
    names = []
    for layer, functions in TRACED.items():
        for name in functions:
            span = f"{layer}.{name}"
            if span == "hilbert.weyl_unitary":
                names += [f"{span}.factored", f"{span}.single"]
            else:
                names.append(span)
    return names


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric, in report order, as BENCHMARK.json lists them."""
    out = []
    for span in _span_names():
        stats = ("busy_s",) if span.startswith("cli.criterion_") else ("calls", "busy_s", "self_s")
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            out.append({"name": f"{span}.{stat}", "unit": unit, "better": "lower"})
    for name, (unit, better) in {**COUNTERS, **RUN_METRICS}.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def layer_values(tracer: Tracer, passes: int) -> dict:
    """Span stats and counters per traced pass, keyed by metric name."""
    stats = span_stats(tracer.spans)
    values = {}
    for span in _span_names():
        entry = stats.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat, value in entry.items():
            values[f"{span}.{stat}"] = value / passes
    counters = tracer.counters
    for name in COUNTERS:
        values[name] = counters.get(name, 0.0) / passes
    cases = counters.get("contraction_lab.decay_cases", 0.0)
    values["contraction_lab.fock_record_ratio"] = counters["contraction_lab.fock_records"] / cases if cases else 0.0
    op_time = stats.get("op", {}).get("busy_s", 0.0)
    uncovered = sum(stats.get(name, {}).get("self_s", 0.0) for name in UNCOVERED)
    values["trace.untraced_share"] = uncovered / op_time if op_time else 0.0
    return values
