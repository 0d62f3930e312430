"""Batch front end: run the verification checks of every module and emit
machine-readable reports.

Each check record carries a short `law` string naming the identity being
tested ("plumbing" for pure artifact checks), the measured and predicted
values, and the absolute error against a fixed tolerance.  Reports are
serialized with 17-significant-digit floats and a stable field order, so a
rerun with the same seed is byte-identical apart from the manifest timestamp.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

import qclimit
from qclimit import contraction_lab, coset_rep, hilbert, lie_core, star_product

ACCEPT_EPS = (0.0, 1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0, 1.0)
GRID_VALUES = (-3.0, -1.5, 0.0, 1.5, 3.0)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    law: str
    measured: float
    predicted: float
    tolerance: float

    @property
    def abs_err(self) -> float:
        return abs(self.measured - self.predicted)

    @property
    def passed(self) -> bool:
        return self.abs_err <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "law": self.law,
            "measured": self.measured,
            "predicted": self.predicted,
            "abs_err": self.abs_err,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


def build_manifest(command: str, parameters: dict, seed: int, timestamp: str | None = None) -> dict:
    return {
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "input_digests": {},
        "seed": seed,
        "version": qclimit.__version__,
        "timestamp": timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat(),
    }


def build_report(manifest: dict, records) -> dict:
    records = list(records)
    passed = sum(1 for r in records if r.passed)
    return {
        "manifest": manifest,
        "checks": [r.to_json_dict() for r in records],
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
    }


def serialize_report(report: dict) -> str:
    """JSON text with floats at 17 significant digits and stable ordering."""
    return _to_json(report) + "\n"


def _to_json(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            raise ValueError(f"non-finite value {f} in report")
        return format(f, ".17g")
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def comparable_payload(text: str) -> str:
    """Report text with the manifest timestamp nulled, for determinism diffs."""
    tree = json.loads(text)
    if "manifest" in tree:
        tree["manifest"]["timestamp"] = None
    return _to_json(tree)


# ---------------------------------------------------------------------------
# high-precision helpers for the overlap and matrix-element grids
# ---------------------------------------------------------------------------


def _hp_dot(c1, c2):
    return mpmath.fsum((mpmath.conj(a) * b for a, b in zip(c1, c2)), absolute=False)


def _hp_label_tables(labels, cutoff: int):
    """Per-label coherent coefficients plus ladder-applied X and P images."""
    tables = {}
    for p, x in labels:
        c = hilbert._hp_mode_coeffs(hilbert._hp_alpha(x, p), cutoff + 1)
        lowered = [mpmath.sqrt(n + 1) * c[n + 1] for n in range(cutoff)] + [mpmath.mpc(0)]
        raised = [mpmath.mpc(0)] + [mpmath.sqrt(n) * c[n - 1] for n in range(1, cutoff + 1)]
        xc = [(lo + ra) / mpmath.sqrt(2) for lo, ra in zip(lowered, raised)]
        pc = [(lo - ra) / (1j * mpmath.sqrt(2)) for lo, ra in zip(lowered, raised)]
        tables[(p, x)] = {"c": c, "X": xc, "P": pc}
    return tables


def overlap_grid_max_rel_err(cutoff: int = 64, dps: int = 30) -> float:
    """Closed form vs. high-precision truncated sum over the 1D label grid."""
    labels = list(itertools.product(GRID_VALUES, GRID_VALUES))
    worst = 0.0
    with mpmath.workdps(dps):
        tables = _hp_label_tables(labels, cutoff)
        for (p1, x1), (p2, x2) in itertools.product(labels, labels):
            got = complex(_hp_dot(tables[(p1, x1)]["c"], tables[(p2, x2)]["c"]))
            want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
            worst = max(worst, abs(got - want) / abs(want))
    return worst


def matrix_element_grid_max_rel_err(cutoff: int = 64, dps: int = 30) -> float:
    """Closed form vs. high-precision sums for X and P elements on the grid.

    Where the predicted element vanishes (label symmetry kills the prefactor)
    the error is scaled by the overlap magnitude instead, which is the natural
    size of the element at that label pair.
    """
    labels = list(itertools.product(GRID_VALUES, GRID_VALUES))
    worst = 0.0
    with mpmath.workdps(dps):
        tables = _hp_label_tables(labels, cutoff)
        for (p1, x1), (p2, x2) in itertools.product(labels, labels):
            ovl = abs(hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0))
            for kind in ("X", "P"):
                got = complex(_hp_dot(tables[(p1, x1)]["c"], tables[(p2, x2)][kind]))
                want = hilbert.matrix_element_formula(kind, 1, p1, x1, 0.0, p2, x2, 0.0)
                worst = max(worst, abs(got - want) / max(abs(want), ovl))
    return worst


def overlap_3d_max_rel_err(rng, n_pairs: int = 40, cutoff: int = 16) -> float:
    worst = 0.0
    for _ in range(n_pairs):
        p1, x1, p2, x2 = (rng.uniform(-1.5, 1.5, size=3) for _ in range(4))
        got = hilbert.fock_overlap_hp(p1, x1, 0.0, p2, x2, 0.0, cutoff=cutoff)
        want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
        worst = max(worst, abs(got - want) / abs(want))
    return worst


# ---------------------------------------------------------------------------
# acceptance battery (shared by `cli all` and the acceptance tests)
# ---------------------------------------------------------------------------


def criterion_01_algebra_axioms() -> list[CheckRecord]:
    records = []
    for name in ("HR3", "HR3_with_H"):
        table = lie_core.build_standard_algebra(name)
        ver = lie_core.verify_algebra(table, ACCEPT_EPS)
        tag = name.lower()
        records.append(
            CheckRecord(f"C01.{tag}-antisymmetry", "bracket-antisymmetry", ver.antisymmetry_max, 0.0, 0.0)
        )
        records.append(
            CheckRecord(f"C01.{tag}-jacobi", "jacobi-identity", ver.jacobi_max, 0.0, 1e-12)
        )
    return records


def criterion_02_contraction_limit() -> list[CheckRecord]:
    family = lie_core.standard_contraction_family("HR3")
    limit = lie_core.limit_algebra(family)
    base = family.base
    names = [g.name for g in limit.generators]

    canon = 0.0
    for i in (1, 2, 3):
        a, b = names.index(f"X{i}"), names.index(f"P{i}")
        canon = max(canon, max((abs(t[1]) for t in limit.bracket_terms(a, b)), default=0.0))

    j_idx = [i for i, g in enumerate(limit.generators) if g.role == "rotation"]
    j_diff = 0.0
    for a in j_idx:
        for b in range(limit.dimension):
            if limit.bracket_terms(a, b) != base.bracket_terms(a, b):
                j_diff = 1.0

    central = names.index("I")
    central_hits = sum(
        1 for terms in limit.entries.values() for t in terms if t[0] == central
    )
    jac = lie_core.verify_algebra(limit, (0.0,)).jacobi_max
    return [
        CheckRecord("C02.canonical-pairs-commute", "contracted-bracket-limit", canon, 0.0, 0.0),
        CheckRecord("C02.rotation-sector-unchanged", "contracted-bracket-limit", j_diff, 0.0, 0.0),
        CheckRecord("C02.center-absent", "contracted-bracket-limit", float(central_hits), 0.0, 0.0),
        CheckRecord("C02.limit-jacobi", "jacobi-identity", jac, 0.0, 0.0),
    ]


def criterion_03_group_law(rng) -> list[CheckRecord]:
    worst = 0.0
    for _ in range(1000):
        w1 = coset_rep.WeylLabel(
            rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi)
        )
        w2 = coset_rep.WeylLabel(
            rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi)
        )
        g1 = coset_rep.group_element("phase", w1)
        g2 = coset_rep.group_element("phase", w2)
        product, _ = coset_rep.compose(g1, g2)
        closed = coset_rep.group_element("phase", coset_rep.weyl_compose_formula(w1, w2))
        worst = max(worst, float(np.abs(product.entries - closed.entries).max()))
    return [CheckRecord("C03.group-law", "weyl-composition", worst, 0.0, 1e-10)]


def criterion_04_overlaps(rng) -> list[CheckRecord]:
    grid_err = overlap_grid_max_rel_err(cutoff=64)
    three_err = overlap_3d_max_rel_err(rng, n_pairs=40, cutoff=16)
    space = hilbert.build_fock_space(1, 32)
    spot = abs(
        hilbert.overlap(
            hilbert.coherent_state(space, 0.0, 0.0), hilbert.coherent_state(space, 0.0, 2.0)
        )
    )
    return [
        CheckRecord("C04.overlap-grid-1d", "overlap-closed-form", grid_err, 0.0, 1e-8),
        CheckRecord("C04.overlap-3d", "overlap-closed-form", three_err, 0.0, 1e-6),
        CheckRecord("C04.overlap-spot", "overlap-closed-form", spot, math.exp(-1.0), 1e-12),
    ]


def criterion_05_matrix_elements() -> list[CheckRecord]:
    grid_err = matrix_element_grid_max_rel_err(cutoff=64)
    space = hilbert.build_fock_space(1, 48)
    diag = 0.0
    for p, x in itertools.product(GRID_VALUES, GRID_VALUES):
        s = hilbert.coherent_state(space, p, x)
        diag = max(diag, abs(hilbert.matrix_element(space, "X", 1, s, s) - x))
        diag = max(diag, abs(hilbert.matrix_element(space, "P", 1, s, s) - p))
    return [
        CheckRecord("C05.element-grid-1d", "matrix-element-closed-form", grid_err, 0.0, 1e-8),
        CheckRecord("C05.diagonal-labels", "matrix-element-closed-form", diag, 0.0, 1e-10),
    ]


def criterion_06_bch(rng) -> list[CheckRecord]:
    space = hilbert.build_fock_space(1, 64)
    vac = hilbert.vacuum_state(space)
    form_err = 0.0
    for _ in range(20):
        p, x = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(-np.pi, np.pi)
        a = hilbert.weyl_unitary(space, p, x, theta, form="factored").apply(vac)
        b = hilbert.weyl_unitary(space, p, x, theta, form="single").apply(vac)
        form_err = max(form_err, float(np.abs(a.coefficients - b.coefficients).max()))

    space3 = hilbert.build_fock_space(3, 20)
    vac3 = hilbert.vacuum_state(space3)
    law_err = 0.0
    for _ in range(10):
        w1 = coset_rep.WeylLabel(rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3), rng.uniform(-1, 1))
        w2 = coset_rep.WeylLabel(rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3), rng.uniform(-1, 1))
        seq = hilbert.weyl_unitary(space3, w1.p, w1.x, w1.theta).apply(
            hilbert.weyl_unitary(space3, w2.p, w2.x, w2.theta).apply(vac3)
        )
        w12 = coset_rep.weyl_compose_formula(w1, w2)
        direct = hilbert.weyl_unitary(space3, w12.p, w12.x, w12.theta).apply(vac3)
        law_err = max(law_err, float(np.abs(seq.coefficients - direct.coefficients).max()))
    return [
        CheckRecord("C06.factored-vs-single", "weyl-factorization", form_err, 0.0, 1e-8),
        CheckRecord("C06.group-law-on-vacuum", "weyl-composition", law_err, 0.0, 1e-8),
    ]


def criterion_07_operator_realization() -> list[CheckRecord]:
    report = hilbert.operator_commutator_check(hilbert.build_fock_space(3, 10))
    return [
        CheckRecord("C07.bracket-realization", "structure-constant-realization", report.max_deviation, 0.0, 1e-10)
    ]


def criterion_08_contraction_sweep() -> list[CheckRecord]:
    config = contraction_lab.ContractionRunConfig(
        k_values=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0), pairs=(contraction_lab.canonical_pair(),)
    )
    records = contraction_lab.overlap_decay_sweep(config)
    closed_err = max(r.abs_err for r in records if r.backend == "closed_form")
    fock_err = max(r.abs_err for r in records if r.backend == "fock" and r.k <= 4.0)
    slope = contraction_lab.decay_slope(records, 0, backend="fock")
    return [
        CheckRecord("C08.closed-form-decay", "contracted-overlap-decay", closed_err, 0.0, 1e-12),
        CheckRecord("C08.fock-decay", "contracted-overlap-decay", fock_err, 0.0, 1e-4),
        CheckRecord("C08.decay-slope", "contracted-overlap-decay", slope, -0.25, 0.0025),
    ]


def criterion_09_eigenvalue_emergence() -> list[CheckRecord]:
    l1, l2 = (0.2, 0.3, 0.0), (0.5, 0.7, 0.0)
    want = 0.5 * ((l1[1] + l2[1]) - 1j * (l1[0] - l2[0]))
    ratio_err = 0.0
    diag_err = 0.0
    for k in (1.0, 2.0, 4.0, 6.0, 8.0):
        cutoff = contraction_lab.required_cutoff(k, (l1, l2))
        space = hilbert.build_fock_space(1, cutoff)
        s1 = contraction_lab.relabel_coherent(space, k, *l1)
        s2 = contraction_lab.relabel_coherent(space, k, *l2)
        ratio = hilbert.matrix_element(space, "X", 1, s1, s2) / hilbert.overlap(s1, s2) / k
        ratio_err = max(ratio_err, abs(ratio - want))
        diag = hilbert.matrix_element(space, "X", 1, s2, s2).real / k
        diag_err = max(diag_err, abs(diag - l2[1]))
    closed, fock = contraction_lab.gram_matrix(6.0, contraction_lab.canonical_pair())
    gram_err = abs(abs(fock[0, 1]) - math.exp(-9.0)) / math.exp(-9.0)
    return [
        CheckRecord("C09.element-ratio", "matrix-element-ratio", ratio_err, 0.0, 1e-8),
        CheckRecord("C09.contracted-diagonal", "matrix-element-ratio", diag_err, 0.0, 1e-10),
        CheckRecord("C09.gram-offdiagonal", "contracted-overlap-decay", gram_err, 0.0, 1e-6),
    ]


def criterion_10_star_algebra(rng) -> list[CheckRecord]:
    x = star_product.PhasePolynomial.variable(1, "x")
    p = star_product.PhasePolynomial.variable(1, "p")
    hbar = star_product.PhasePolynomial.variable(1, "hbar")

    def random_poly():
        terms = {}
        for _ in range(4):
            while True:
                ex, ep = int(rng.integers(0, 5)), int(rng.integers(0, 5))
                if ex + ep <= 4:
                    break
            coeff = star_product.CRat(
                Fraction(int(rng.integers(-3, 4))), Fraction(int(rng.integers(-2, 3)))
            )
            key = (ex, ep, 0)
            terms[key] = terms.get(key, star_product.CRat()) + coeff
        return star_product.PhasePolynomial(1, terms)

    defects = 0
    for _ in range(100):
        f, g, h = random_poly(), random_poly(), random_poly()
        if star_product.star(star_product.star(f, g), h) != star_product.star(
            f, star_product.star(g, h)
        ):
            defects += 1
        cyc = (
            star_product.moyal_bracket(f, star_product.moyal_bracket(g, h))
            + star_product.moyal_bracket(g, star_product.moyal_bracket(h, f))
            + star_product.moyal_bracket(h, star_product.moyal_bracket(f, g))
        )
        if not cyc.is_zero:
            defects += 1

    comm = star_product.star(x, p) - star_product.star(p, x)
    canonical = 0.0 if comm == hbar.scale(star_product.CRat(im=Fraction(1))) else 1.0

    sweep = star_product.classical_limit_sweep(x * x * x, p * p * p)
    flow = star_product.harmonic_evolution_check()
    flow_defect = 0.0 if (
        flow["quadratic_flow_has_no_corrections"] and flow["closes_on_linear_span"]
    ) else 1.0
    return [
        CheckRecord("C10.associativity-jacobi", "star-associativity", float(defects), 0.0, 0.0),
        CheckRecord("C10.canonical-commutator", "canonical-star-commutator", canonical, 0.0, 0.0),
        CheckRecord("C10.classical-slope", "bracket-classical-limit", sweep["slope"], 2.0, 0.05),
        CheckRecord("C10.quadratic-flow-exact", "harmonic-star-flow", flow_defect, 0.0, 0.0),
        CheckRecord(
            "C10.quadratic-flow-coefficients", "harmonic-star-flow", flow["max_coefficient_error"], 0.0, 1e-10
        ),
    ]


def criterion_11_projective_flow() -> list[CheckRecord]:
    space = hilbert.build_fock_space(1, 32)
    xo = space.x_op().toarray()
    po = space.p_op().toarray()
    h = 0.5 * (xo @ xo + po @ po)
    initial = hilbert.coherent_state(space, 0.8, 0.6)
    report = hilbert.projective_flow_check(space, h, initial, t_final=10.0, dt=1e-3)
    return [
        CheckRecord("C11.route-deviation", "hamilton-schroedinger-equivalence", report.max_deviation, 0.0, 1e-6),
        CheckRecord("C11.norm-drift", "hamilton-schroedinger-equivalence", report.norm_drift, 0.0, 1e-8),
        CheckRecord("C11.step-halving", "plumbing", report.halving_deviation, 0.0, 1e-6),
    ]


def criterion_12_determinism(seed: int) -> list[CheckRecord]:
    """In-process double run of the seeded subcommand payloads.

    The full end-to-end double run of `all` is exercised by the acceptance
    test through the installed entry point.
    """

    def payload():
        records = []
        records.extend(criterion_01_algebra_axioms())
        records.extend(criterion_03_group_law(np.random.default_rng(seed)))
        manifest = build_manifest("determinism-probe", {"seed": seed}, seed, timestamp="")
        return serialize_report(build_report(manifest, records))

    same = payload() == payload()
    return [CheckRecord("C12.determinism", "plumbing", 0.0 if same else 1.0, 0.0, 0.0)]


CRITERION_RUNNERS = {
    1: ("algebra axioms", lambda rng, seed: criterion_01_algebra_axioms()),
    2: ("contraction limit", lambda rng, seed: criterion_02_contraction_limit()),
    3: ("group law", lambda rng, seed: criterion_03_group_law(rng)),
    4: ("overlap formula", lambda rng, seed: criterion_04_overlaps(rng)),
    5: ("matrix elements", lambda rng, seed: criterion_05_matrix_elements()),
    6: ("factorization consistency", lambda rng, seed: criterion_06_bch(rng)),
    7: ("operator realization", lambda rng, seed: criterion_07_operator_realization()),
    8: ("contraction sweep", lambda rng, seed: criterion_08_contraction_sweep()),
    9: ("eigenvalue emergence", lambda rng, seed: criterion_09_eigenvalue_emergence()),
    10: ("star algebra", lambda rng, seed: criterion_10_star_algebra(rng)),
    11: ("projective flow", lambda rng, seed: criterion_11_projective_flow()),
    12: ("determinism", lambda rng, seed: criterion_12_determinism(seed)),
}


def run_battery(seed: int = 7):
    """All acceptance criteria in order; returns (records, per-criterion seconds)."""
    rng = np.random.default_rng(seed)
    records = []
    timings = {}
    for number, (label, runner) in CRITERION_RUNNERS.items():
        start = time.perf_counter()
        records.extend(runner(rng, seed))
        timings[number] = time.perf_counter() - start
    return records, timings


def battery_by_criterion(records) -> dict:
    grouped = {}
    for r in records:
        number = int(r.check_id[1:3])
        grouped.setdefault(number, []).append(r)
    return grouped


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _positive_float_list(text: str) -> tuple:
    """argparse type: comma-separated finite values > 0."""
    try:
        values = _float_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None
    for v in values:
        if not 0.0 < v < math.inf:
            raise argparse.ArgumentTypeError(f"{v:g} is not a finite positive value")
    return values


def _positive_rational(text: str) -> Fraction:
    """argparse type: an exact rational > 0, such as 1/10 or 0.25."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not an exact finite rational") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def cmd_algebra_verify(args) -> list[CheckRecord]:
    table = lie_core.build_standard_algebra(args.builtin)
    eps = _float_list(args.eps) if args.eps else ACCEPT_EPS
    ver = lie_core.verify_algebra(table, eps)
    sym = lie_core.verify_algebra_symbolic(table)
    return [
        CheckRecord("antisymmetry", "bracket-antisymmetry", ver.antisymmetry_max, 0.0, 0.0),
        CheckRecord("jacobi", "jacobi-identity", ver.jacobi_max, 0.0, args.tolerance or 1e-12),
        CheckRecord("jacobi-per-power", "jacobi-identity", sym.jacobi_max, 0.0, 0.0),
    ]


def cmd_algebra_contract(args) -> list[CheckRecord]:
    family = lie_core.standard_contraction_family(args.builtin)
    records = criterion_02_contraction_limit()
    scaled = lie_core.apply_contraction(family, args.k)
    names = [g.name for g in scaled.generators]
    a, b = names.index("X1"), names.index("P1")
    coeff = dict((t[0], t[1]) for t in scaled.bracket_terms(a, b)).get(names.index("I"), 0.0)
    records.append(
        CheckRecord(
            "central-coefficient-at-k", "contracted-bracket-limit", coeff, 1.0 / args.k**2, 1e-15
        )
    )
    return records


def cmd_coset_compose(args) -> list[CheckRecord]:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        w1 = coset_rep.WeylLabel(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi))
        w2 = coset_rep.WeylLabel(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi))
        g1 = coset_rep.group_element(args.kind, w1)
        g2 = coset_rep.group_element(args.kind, w2)
        product, label = coset_rep.compose(g1, g2)
        closed = coset_rep.group_element(args.kind, coset_rep.weyl_compose_formula(w1, w2, kind=args.kind))
        worst = max(worst, float(np.abs(product.entries - closed.entries).max()))
    records = [
        CheckRecord("compose-vs-closed-form", "weyl-composition", worst, 0.0, args.tolerance or 1e-10)
    ]
    if args.kind == "phase":
        w1 = coset_rep.WeylLabel([1, 0, 0], [0, 0, 0], 0.0)
        w2 = coset_rep.WeylLabel([0, 0, 0], [1, 0, 0], 0.0)
        w12 = coset_rep.weyl_compose_formula(w1, w2)
        records.append(CheckRecord("pinned-phase-shift", "weyl-composition", w12.theta, 0.5, 0.0))
    else:
        w1 = coset_rep.WeylLabel([1, 0, 0], [0, 0, 0], 0.0)
        w2 = coset_rep.WeylLabel([0, 0, 0], [0, 1, 0], 0.0)
        w12 = coset_rep.weyl_compose_formula(w1, w2, kind="config")
        records.append(CheckRecord("pinned-config-shift", "weyl-composition", w12.theta, 0.0, 0.0))
        records.append(
            CheckRecord(
                "pinned-config-cross-term",
                "weyl-composition",
                coset_rep.weyl_compose_formula(
                    coset_rep.WeylLabel([1, 0, 0], [0, 0, 0], 0.0),
                    coset_rep.WeylLabel([0, 0, 0], [1, 0, 0], 0.0),
                    kind="config",
                ).theta,
                1.0,
                0.0,
            )
        )
    return records


def cmd_coherent_overlap(args) -> list[CheckRecord]:
    rng = np.random.default_rng(args.seed)
    space = hilbert.build_fock_space(1, args.cutoff)
    spot = abs(
        hilbert.overlap(
            hilbert.coherent_state(space, 0.0, 0.0), hilbert.coherent_state(space, 0.0, 2.0)
        )
    )
    records = [CheckRecord("spot-value", "overlap-closed-form", spot, math.exp(-1.0), 1e-12)]
    if args.backend == "fock":
        corner = hilbert.fock_overlap_hp(3.0, 3.0, 0.0, -3.0, -3.0, 0.0, cutoff=args.cutoff)
        corner_want = hilbert.coherent_overlap_formula(3.0, 3.0, 0.0, -3.0, -3.0, 0.0)
        records.append(
            CheckRecord(
                "far-corner-relative",
                "overlap-closed-form",
                abs(corner - corner_want) / abs(corner_want),
                0.0,
                1e-8,
            )
        )
        worst = 0.0
        for _ in range(50):
            p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
            got = hilbert.overlap(
                hilbert.coherent_state(space, p1, x1), hilbert.coherent_state(space, p2, x2)
            )
            want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
            worst = max(worst, abs(got - want))
        records.append(CheckRecord("moderate-labels", "overlap-closed-form", worst, 0.0, 1e-10))
        if args.modes == 3:
            records.append(
                CheckRecord(
                    "three-mode-sample",
                    "overlap-closed-form",
                    overlap_3d_max_rel_err(rng, n_pairs=10, cutoff=16),
                    0.0,
                    1e-6,
                )
            )
    else:
        grid = hilbert.GridSpace(args.grid_extent, args.grid_points)
        worst = 0.0
        for _ in range(50):
            p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
            got = hilbert.overlap(
                hilbert.grid_coherent_state(grid, p1, x1), hilbert.grid_coherent_state(grid, p2, x2)
            )
            want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
            worst = max(worst, abs(got - want))
        records.append(CheckRecord("grid-vs-closed-form", "overlap-closed-form", worst, 0.0, 1e-9))
        pairs = []
        for _ in range(50):
            p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
            pairs.append(((p1, x1, 0.0), (p2, x2, 0.0)))
        diffs = hilbert.cross_validate_backends(pairs, space, grid)
        records.append(
            CheckRecord(
                "backend-cross-validation",
                "plumbing",
                max(r["abs_diff"] for r in diffs),
                0.0,
                1e-7,
            )
        )
    return records


def _parse_pair(text: str):
    parts = dict(kv.split("=") for kv in text.split(","))
    dx = float(parts.get("dx", 1.0))
    dp = float(parts.get("dp", 0.0))
    return ((0.0, 0.0, 0.0), (dp, dx, 0.0))


def cmd_contract_sweep(args) -> tuple:
    pair = _parse_pair(args.pair)
    config = contraction_lab.ContractionRunConfig(
        k_values=_float_list(args.k), pairs=(pair,), seed=args.seed
    )
    sweep = contraction_lab.overlap_decay_sweep(config)
    records = []
    for r in sweep:
        if r.backend == "closed_form":
            records.append(
                CheckRecord(
                    f"decay-closed-k{r.k:g}", "contracted-overlap-decay", r.abs_err, 0.0, 1e-12
                )
            )
        elif r.k <= 4.0:
            records.append(
                CheckRecord(
                    f"decay-fock-k{r.k:g}", "contracted-overlap-decay", r.abs_err, 0.0, 1e-4
                )
            )
    if len(config.k_values) >= 2:
        backend = "fock" if any(r.backend == "fock" for r in sweep) else "closed_form"
        slope = contraction_lab.decay_slope(sweep, 0, backend=backend)
        d2 = (pair[0][0] - pair[1][0]) ** 2 + (pair[0][1] - pair[1][1]) ** 2
        records.append(
            CheckRecord(
                "decay-slope", "contracted-overlap-decay", slope, -0.25 * d2, 0.01 * 0.25 * d2
            )
        )
    preferred = {}
    for r in sweep:
        key = (r.k, r.pair_id)
        if key not in preferred or r.backend == "fock":
            preferred[key] = r
    csv_rows = [preferred[key] for key in sorted(preferred)]
    return records, csv_rows


def cmd_star_bracket(args) -> list[CheckRecord]:
    f = star_product.from_text(1, args.f)
    g = star_product.from_text(1, args.g)
    bracket = star_product.moyal_bracket(f, g)
    print(f"moyal_bracket({args.f}, {args.g}) = {bracket.to_text()}")
    if args.hbar is not None:
        fixed = bracket.substitute_hbar(args.hbar)
        print(f"at hbar = {args.hbar}: {fixed.to_text()}")

    x = star_product.PhasePolynomial.variable(1, "x")
    p = star_product.PhasePolynomial.variable(1, "p")
    hb = star_product.PhasePolynomial.variable(1, "hbar")
    comm = star_product.star(x, p) - star_product.star(p, x)
    canonical = 0.0 if comm == hb.scale(star_product.CRat(im=Fraction(1))) else 1.0
    records = [
        CheckRecord("canonical-commutator", "canonical-star-commutator", canonical, 0.0, 0.0),
        CheckRecord(
            "bracket-antisymmetry-exact",
            "star-associativity",
            0.0 if bracket == -star_product.moyal_bracket(g, f) else 1.0,
            0.0,
            0.0,
        ),
    ]
    if args.f.replace(" ", "") == "x^3" and args.g.replace(" ", "") == "p^3":
        correction = bracket.terms.get((0, 0, 2), star_product.CRAT_ZERO)
        records.append(
            CheckRecord(
                "cubic-correction-coefficient",
                "bracket-classical-limit",
                float(correction.re),
                -1.5,
                0.0,
            )
        )
    return records


def cmd_star_limit_sweep(args) -> list[CheckRecord]:
    f = star_product.from_text(1, args.f)
    g = star_product.from_text(1, args.g)
    sweep = star_product.classical_limit_sweep(
        f, g, hbar_values=args.hbar, seed=args.seed
    )
    for r in sweep["records"]:
        print(f"hbar={r['hbar']:g}: max bracket deviation {r['max_abs_err']:.6g}")
    records = []
    if sweep["slope"] is not None:
        records.append(
            CheckRecord("limit-slope", "bracket-classical-limit", sweep["slope"], 2.0, args.tolerance or 0.05)
        )
    return records


def cmd_flow_check(args) -> list[CheckRecord]:
    space = hilbert.build_fock_space(1, args.cutoff)
    xo = space.x_op().toarray()
    po = space.p_op().toarray()
    h = 0.5 * (xo @ xo + po @ po)
    initial = hilbert.coherent_state(space, args.p, args.x)
    report = hilbert.projective_flow_check(space, h, initial, t_final=args.t_final, dt=args.dt)
    return [
        CheckRecord("route-deviation", "hamilton-schroedinger-equivalence", report.max_deviation, 0.0, 1e-6),
        CheckRecord("norm-drift", "hamilton-schroedinger-equivalence", report.norm_drift, 0.0, 1e-8),
        CheckRecord("step-halving", "plumbing", report.halving_deviation, 0.0, 1e-6),
    ]


def cmd_all(args) -> tuple:
    records, timings = run_battery(args.seed)
    grouped = battery_by_criterion(records)
    for number in sorted(grouped):
        label = CRITERION_RUNNERS[number][0]
        ok = all(r.passed for r in grouped[number])
        print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}  [{timings[number]:.2f}s]")
    config = contraction_lab.ContractionRunConfig(
        k_values=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0), pairs=(contraction_lab.canonical_pair(),)
    )
    sweep = contraction_lab.overlap_decay_sweep(config)
    preferred = {}
    for r in sweep:
        key = (r.k, r.pair_id)
        if key not in preferred or r.backend == "fock":
            preferred[key] = r
    csv_rows = [preferred[key] for key in sorted(preferred)]
    return records, csv_rows


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclimit", description="verification and sweep front end"
    )
    parser.add_argument("--out", default=".", help="directory for report files")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tolerance", type=float, default=None, help="override the main tolerance")
    # same flags accepted after the subcommand as well; SUPPRESS keeps the
    # top-level value when the subcommand does not repeat them
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser(
        "algebra-verify", help="bracket axioms of a built-in table", parents=[shared]
    )
    s.add_argument("--builtin", default="HR3", choices=["HR3", "HR3_with_H"])
    s.add_argument("--eps", default=None, help="comma-separated deformation values")
    s.set_defaults(func=cmd_algebra_verify)

    s = sub.add_parser(
        "algebra-contract", help="contract and take the limit table", parents=[shared]
    )
    s.add_argument("--builtin", default="HR3", choices=["HR3", "HR3_with_H"])
    s.add_argument("--k", type=float, default=10.0)
    s.set_defaults(func=cmd_algebra_contract)

    s = sub.add_parser(
        "coset-compose", help="matrix composition vs closed form", parents=[shared]
    )
    s.add_argument("--kind", default="phase", choices=["phase", "config"])
    s.add_argument("--samples", type=int, default=300)
    s.set_defaults(func=cmd_coset_compose)

    s = sub.add_parser(
        "coherent-overlap", help="overlap checks on a backend", parents=[shared]
    )
    s.add_argument("--backend", default="fock", choices=["fock", "grid"])
    s.add_argument("--cutoff", type=int, default=64)
    s.add_argument("--modes", type=int, default=1, choices=[1, 3])
    s.add_argument("--grid-extent", type=float, default=10.0)
    s.add_argument("--grid-points", type=int, default=160)
    s.set_defaults(func=cmd_coherent_overlap)

    s = sub.add_parser(
        "contract-sweep", help="overlap decay under contraction", parents=[shared]
    )
    s.add_argument("--pair", default="dx=1,dp=0")
    s.add_argument("--k", default="1,2,3,4,6,8")
    s.set_defaults(func=cmd_contract_sweep, writes_csv="contract_sweep.csv")

    s = sub.add_parser(
        "star-bracket", help="deformed bracket of two polynomials", parents=[shared]
    )
    s.add_argument("--f", default="x^3")
    s.add_argument("--g", default="p^3")
    s.add_argument("--hbar", type=_positive_rational, default=None, help="rational value > 0 to substitute")
    s.set_defaults(func=cmd_star_bracket)

    s = sub.add_parser(
        "star-limit-sweep", help="bracket error against hbar", parents=[shared]
    )
    s.add_argument("--f", default="x^3")
    s.add_argument("--g", default="p^3")
    s.add_argument(
        "--hbar", type=_positive_float_list, default="1e-1,1e-2,1e-3", help="comma-separated values > 0"
    )
    s.set_defaults(func=cmd_star_limit_sweep)

    s = sub.add_parser(
        "flow-check", help="ray flow: coefficient vs canonical routes", parents=[shared]
    )
    s.add_argument("--cutoff", type=int, default=32)
    s.add_argument("--t-final", type=float, default=10.0)
    s.add_argument("--dt", type=float, default=1e-3)
    s.add_argument("--p", type=float, default=0.8)
    s.add_argument("--x", type=float, default=0.6)
    s.set_defaults(func=cmd_flow_check)

    s = sub.add_parser("all", help="full acceptance battery", parents=[shared])
    s.set_defaults(func=cmd_all, writes_csv="contract_sweep.csv")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    parameters = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "command", "writes_csv") and not callable(v)
    }
    try:
        result = args.func(args)
    except (ValueError, hilbert.TruncationGuardError) as exc:
        records = [CheckRecord("diagnostic", "plumbing", 1.0, 0.0, 0.0)]
        manifest = build_manifest(args.command, parameters, args.seed)
        report = build_report(manifest, records)
        report["error"] = str(exc)
        path = out_dir / f"{args.command.replace('-', '_')}_report.json"
        path.write_text(serialize_report(report))
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if isinstance(result, tuple):
        records, csv_rows = result
    else:
        records, csv_rows = result, None

    manifest = build_manifest(args.command, parameters, args.seed)
    report = build_report(manifest, records)
    path = out_dir / f"{args.command.replace('-', '_')}_report.json"
    path.write_text(serialize_report(report))
    if csv_rows is not None:
        contraction_lab.write_decay_csv(csv_rows, out_dir / getattr(args, "writes_csv"))

    for r in records:
        print(
            f"{r.check_id} [{r.law}]: {'PASS' if r.passed else 'FAIL'} "
            f"(measured={r.measured:.6g}, predicted={r.predicted:.6g}, tol={r.tolerance:.3g})"
        )
    summary = report["summary"]
    print(f"{summary['passed']}/{summary['total']} checks passed; report: {path}")
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
