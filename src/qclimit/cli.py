"""Batch front end: run the verification checks of every module and emit
machine-readable reports.

Each check record carries a short `law` string naming the identity being
tested ("plumbing" for pure artifact checks), the measured and predicted
values, and the absolute error against a fixed tolerance.  Reports are
serialized with 17-significant-digit floats and a stable field order, so a
rerun with the same seed is byte-identical apart from the manifest timestamp.

Each law is computed by one check function, which its battery criterion and
its subcommand both call with their own check-ID prefix: the bracket axioms
(C01, algebra-verify), the Weyl group law (C03, coset-compose), the coherent
spot overlap (C04, coherent-overlap), the contraction decay (C08,
contract-sweep), the star laws of associativity and Jacobi (C10 only), the
canonical star commutator (C10, star-bracket), the classical limit of the
star bracket (C10, star-limit-sweep), the hbar^2 coefficient of {x^3, p^3}
(C10, star-bracket) and the ray flow (C11, flow-check).  C10's quadratic
covariance has no subcommand.
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

import numpy as np

import qclimit
from qclimit import contraction_lab, coset_rep, hilbert, lie_core, star_product

GRID_VALUES = (-3.0, -1.5, 0.0, 1.5, 3.0)
# the flow integrates dense N x N matrices, O(N^3) time: about 1 s at 512,
# and minutes and gigabytes at the 4096 of FOCK_MAX_CUTOFF
FLOW_MAX_CUTOFF = 512
# group_law_check keeps about 3 KB of 8 x 8 stacks per sample: 10^7 samples
# would need about 30 GB
MAX_SAMPLES = 100_000
# the grid backend's time grows with the point count: about 2 s at 65536 on a
# 2-CPU machine, so 10^8 points would run for about an hour
MAX_GRID_POINTS = 65536
# coherent-overlap's grid settings; only the grid backend reads them
GRID_DEFAULTS = {"grid_extent": 10.0, "grid_points": 160}


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
        # bool(): a numpy measured value would otherwise give a numpy.bool_
        return bool(self.abs_err <= self.tolerance)

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
# closed forms against the high-precision Fock sums
# ---------------------------------------------------------------------------


def _worst(errors) -> float:
    """Largest error; np.max, unlike max(), propagates NaN (and an empty
    sample raises instead of passing)."""
    return float(np.max(errors))


def _grid_label_pairs():
    """The 1D label grid as a list of (p, x) and as (rows, cols): label arrays
    of shapes (n, 1, 1) and (1, n, 1) that broadcast to every (row, column)
    pair of the closed forms, mode axis last."""
    labels = list(itertools.product(GRID_VALUES, GRID_VALUES))
    p, x = np.array(labels).T
    return labels, (p[:, None, None], x[:, None, None]), (p[None, :, None], x[None, :, None])


def overlap_grid_max_rel_err() -> float:
    """Closed form vs. high-precision truncated sum at cutoff 64 over the 1D
    label grid."""
    labels, rows, cols = _grid_label_pairs()
    (gram,) = hilbert.fock_gram_hp(labels, labels, 64, ("c",))
    want = hilbert.coherent_overlap_formula(*rows, 0.0, *cols, 0.0)
    return _worst(np.abs(gram - want) / np.abs(want))


def matrix_element_grid_max_rel_err() -> float:
    """Closed form vs. high-precision sums at cutoff 64 for X and P elements
    on the grid.

    Where the predicted element vanishes (label symmetry kills the prefactor)
    the error is scaled by the overlap magnitude instead, which is the natural
    size of the element at that label pair.
    """
    labels, rows, cols = _grid_label_pairs()
    ovl = np.abs(hilbert.coherent_overlap_formula(*rows, 0.0, *cols, 0.0))
    errors = []
    # X and P share one set of coefficients
    for kind, gram in zip(("X", "P"), hilbert.fock_gram_hp(labels, labels, 64, ("X", "P"))):
        want = hilbert.matrix_element_formula(kind, 1, *rows, 0.0, *cols, 0.0)
        errors.append(np.abs(gram - want) / np.maximum(np.abs(want), ovl))
    return _worst(errors)


def overlap_3d_max_rel_err(rng, n_pairs: int) -> float:
    """Closed form vs. high-precision sum at cutoff 16 on random 3-mode pairs."""
    errors = []
    for _ in range(n_pairs):
        p1, x1, p2, x2 = (rng.uniform(-1.5, 1.5, size=3) for _ in range(4))
        got = hilbert.fock_overlap_hp(p1, x1, 0.0, p2, x2, 0.0, cutoff=16)
        want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
        errors.append(abs(got - want) / abs(want))
    return _worst(errors)


# ---------------------------------------------------------------------------
# acceptance battery (shared by `cli all` and the acceptance tests)
# ---------------------------------------------------------------------------


def algebra_axiom_check(table, prefix: str) -> list[CheckRecord]:
    """Worst bracket antisymmetry (exact) and Jacobi defect of a structure
    constant table, per eps power (so at every eps), with check IDs prefixed
    by `prefix`."""
    ver = lie_core.verify_algebra_symbolic(table)
    return [
        CheckRecord(f"{prefix}antisymmetry", "bracket-antisymmetry", ver.antisymmetry_max, 0.0, 0.0),
        CheckRecord(f"{prefix}jacobi", "jacobi-identity", ver.jacobi_max, 0.0, 1e-12),
    ]


def criterion_01_algebra_axioms() -> list[CheckRecord]:
    records = []
    for name in ("HR3", "HR3_with_H"):
        table = lie_core.build_standard_algebra(name)
        records.extend(algebra_axiom_check(table, f"C01.{name.lower()}-"))
    return records


def criterion_02_contraction_limit() -> list[CheckRecord]:
    family = lie_core.standard_contraction_family("HR3")
    limit = lie_core.limit_algebra(family)
    base = family.base
    names = [g.name for g in limit.generators]

    pairs = [(names.index(f"X{i}"), names.index(f"P{i}")) for i in (1, 2, 3)]
    # np.max, not a running max(): a NaN coefficient reads NaN, not 0
    canon = float(np.max([0.0] + [abs(t[1]) for a, b in pairs for t in limit.bracket_terms(a, b)]))

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


# bounds of one group-law label pair, in draw order (p1, x1, theta1, p2, x2, theta2)
_PAIR_LOW = np.array(([-2.0] * 6 + [-np.pi]) * 2)
_PAIR_HIGH = -_PAIR_LOW


def group_law_check(rng, kind: str, samples: int, check_id: str) -> list[CheckRecord]:
    """Matrix product g(w1) g(w2) against g(w1 w2) on random label pairs, as one stacked product.

    One rng.random draw scaled as low + (high - low) u gives the same doubles,
    and leaves the generator in the same state, as per-pair rng.uniform calls.
    """
    u = _PAIR_LOW + (_PAIR_HIGH - _PAIR_LOW) * rng.random((samples, 14))
    w1, w2 = (u[:, 0:3], u[:, 3:6], u[:, 6]), (u[:, 7:10], u[:, 10:13], u[:, 13])
    product = coset_rep.group_elements(kind, *w1) @ coset_rep.group_elements(kind, *w2)
    closed = coset_rep.group_elements(kind, *coset_rep.weyl_compose_labels(w1, w2, kind))
    return [CheckRecord(check_id, "weyl-composition", _worst(np.abs(product - closed)), 0.0, 1e-10)]


def criterion_03_group_law(rng) -> list[CheckRecord]:
    return group_law_check(rng, "phase", 1000, "C03.group-law")


def overlap_spot_check(cutoff: int, check_id: str) -> list[CheckRecord]:
    """|<(0, 0)|(0, 2)>| = exp(-1) on the one-mode Fock space at `cutoff`."""
    (spot,) = hilbert.coherent_pair_overlaps(hilbert.build_fock_space(1, cutoff), [((0.0, 0.0, 0.0), (0.0, 2.0, 0.0))])
    return [CheckRecord(check_id, "overlap-closed-form", abs(spot), math.exp(-1.0), 1e-12)]


def criterion_04_overlaps(rng) -> list[CheckRecord]:
    grid_err = overlap_grid_max_rel_err()
    three_err = overlap_3d_max_rel_err(rng, 40)
    return [
        CheckRecord("C04.overlap-grid-1d", "overlap-closed-form", grid_err, 0.0, 1e-8),
        CheckRecord("C04.overlap-3d", "overlap-closed-form", three_err, 0.0, 1e-6),
        *overlap_spot_check(32, "C04.overlap-spot"),
    ]


def criterion_05_matrix_elements() -> list[CheckRecord]:
    grid_err = matrix_element_grid_max_rel_err()
    space = hilbert.build_fock_space(1, 48)
    diag = []
    for p, x in itertools.product(GRID_VALUES, GRID_VALUES):
        s = hilbert.coherent_state(space, p, x)
        diag.append(abs(hilbert.matrix_element(space, "X", 1, s, s) - x))
        diag.append(abs(hilbert.matrix_element(space, "P", 1, s, s) - p))
    return [
        CheckRecord("C05.element-grid-1d", "matrix-element-closed-form", grid_err, 0.0, 1e-8),
        CheckRecord("C05.diagonal-labels", "matrix-element-closed-form", _worst(diag), 0.0, 1e-10),
    ]


def criterion_06_bch(rng) -> list[CheckRecord]:
    space = hilbert.build_fock_space(1, 64)
    vac = hilbert.vacuum_state(space)
    form_err = []
    for _ in range(20):
        p, x = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(-np.pi, np.pi)
        a = hilbert.weyl_unitary(space, p, x, theta, form="factored").apply(vac)
        b = hilbert.weyl_unitary(space, p, x, theta, form="single").apply(vac)
        form_err.append(float(np.abs(a.coefficients - b.coefficients).max()))

    space3 = hilbert.build_fock_space(3, 20)
    vac3 = hilbert.vacuum_state(space3)
    law_err = []
    for _ in range(10):
        w1 = coset_rep.WeylLabel(rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3), rng.uniform(-1, 1))
        w2 = coset_rep.WeylLabel(rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3), rng.uniform(-1, 1))
        seq = hilbert.weyl_unitary(space3, w1.p, w1.x, w1.theta).apply(
            hilbert.weyl_unitary(space3, w2.p, w2.x, w2.theta).apply(vac3)
        )
        w12 = coset_rep.weyl_compose_formula(w1, w2)
        direct = hilbert.weyl_unitary(space3, w12.p, w12.x, w12.theta).apply(vac3)
        law_err.append(float(np.abs(seq.coefficients - direct.coefficients).max()))
    return [
        CheckRecord("C06.factored-vs-single", "weyl-factorization", _worst(form_err), 0.0, 1e-8),
        CheckRecord("C06.group-law-on-vacuum", "weyl-composition", _worst(law_err), 0.0, 1e-8),
    ]


def criterion_07_operator_realization() -> list[CheckRecord]:
    report = hilbert.operator_commutator_check(hilbert.build_fock_space(3, 10))
    return [
        CheckRecord("C07.bracket-realization", "structure-constant-realization", report.max_deviation, 0.0, 1e-10)
    ]


def decay_law_check(records, pair, prefix: str) -> list[CheckRecord]:
    """The contracted overlap decay of one label pair from its sweep records.

    The closed-form maximum always; the Fock maximum only when the sweep has
    a Fock record at k <= 4; and the log-slope against k^2, predicted
    -d^2/4 for label distance d, only when the sweep has at least two k
    values.  The slope is fitted on the Fock route when it has nonzero
    overlaps at two or more distinct k, and on the closed form otherwise.
    """
    law = "contracted-overlap-decay"
    closed_err = _worst([r.abs_err for r in records if r.backend == "closed_form"])
    checks = [CheckRecord(f"{prefix}closed-form-decay", law, closed_err, 0.0, 1e-12)]
    fock_err = [r.abs_err for r in records if r.backend == "fock" and r.k <= 4.0]
    if fock_err:
        checks.append(CheckRecord(f"{prefix}fock-decay", law, _worst(fock_err), 0.0, 1e-4))
    if len({r.k for r in records}) >= 2:
        fock_k = {r.k for r in records if r.backend == "fock" and r.overlap_abs > 0.0}
        backend = "fock" if len(fock_k) >= 2 else "closed_form"
        slope = contraction_lab.decay_slope(records, 0, backend=backend)
        d2 = (pair[0][0] - pair[1][0]) ** 2 + (pair[0][1] - pair[1][1]) ** 2
        checks.append(CheckRecord(f"{prefix}decay-slope", law, slope, -0.25 * d2, 0.01 * 0.25 * d2))
    return checks


def criterion_08_contraction_sweep() -> tuple:
    """The C08 checks and the decay records they read, which `all` writes as CSV."""
    pair = contraction_lab.canonical_pair()
    config = contraction_lab.ContractionRunConfig(k_values=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0), pairs=(pair,))
    records = contraction_lab.overlap_decay_sweep(config)
    return decay_law_check(records, pair, "C08."), records


def criterion_09_eigenvalue_emergence() -> list[CheckRecord]:
    l1, l2 = (0.2, 0.3, 0.0), (0.5, 0.7, 0.0)
    want = 0.5 * ((l1[1] + l2[1]) - 1j * (l1[0] - l2[0]))
    ratio_err = []
    diag_err = []
    loc_err = []
    for k in (1.0, 2.0, 4.0, 6.0, 8.0):
        cutoff = contraction_lab.required_cutoff(k, (l1, l2))
        space = hilbert.build_fock_space(1, cutoff)
        s1 = hilbert.coherent_state(space, *contraction_lab.relabel(k, *l1))
        s2 = hilbert.coherent_state(space, *contraction_lab.relabel(k, *l2))
        ratio = hilbert.matrix_element(space, "X", 1, s1, s2) / hilbert.overlap(s1, s2) / k
        ratio_err.append(abs(ratio - want))
        diag = hilbert.matrix_element(space, "X", 1, s2, s2).real / k
        diag_err.append(abs(diag - l2[1]))
        res = contraction_lab.eigenvalue_residual(k, l2[0], l2[1])
        loc_err.extend(abs(res[key] - res["predicted"]) / res["predicted"] for key in ("residual_x", "residual_p"))
    closed, fock = contraction_lab.gram_matrix(6.0, contraction_lab.canonical_pair())
    gram_err = abs(abs(fock[0, 1]) - math.exp(-9.0)) / math.exp(-9.0)
    return [
        CheckRecord("C09.element-ratio", "matrix-element-ratio", _worst(ratio_err), 0.0, 1e-8),
        CheckRecord("C09.contracted-diagonal", "matrix-element-ratio", _worst(diag_err), 0.0, 1e-10),
        CheckRecord("C09.gram-offdiagonal", "contracted-overlap-decay", gram_err, 0.0, 1e-6),
        CheckRecord("C09.localization", "contracted-localization", _worst(loc_err), 0.0, 1e-9),
    ]


def star_commutator_check(check_id: str) -> list[CheckRecord]:
    """Failing cases of x * (p * m) - p * (x * m) == i hbar m, exactly, over
    every 1D basis monomial m up to degree 4."""
    result = star_product.canonical_commutator_check(1, 4)
    return [CheckRecord(check_id, "canonical-star-commutator", float(result["failing"]), 0.0, 0.0)]


def classical_limit_check(sweep, prefix: str) -> list[CheckRecord]:
    """The hbar -> 0 limit of the star bracket from a classical_limit_sweep:
    its log-log slope, predicted 2, or an exact check when the bracket is the
    Poisson bracket.  A sweep with neither raises ValueError, so that a sweep
    which measured no slope cannot pass, nor one whose corrections all round
    to 0."""
    law = "bracket-classical-limit"
    if sweep["slope"] is not None:
        return [CheckRecord(f"{prefix}slope", law, sweep["slope"], 2.0, 0.05)]
    if not sweep["exact"]:
        raise ValueError("need a nonzero bracket deviation at two or more distinct hbar values to fit a slope")
    return [CheckRecord(f"{prefix}exact", law, _worst([r["max_abs_err"] for r in sweep["records"]]), 0.0, 0.0)]


def cubic_correction_check(bracket, check_id: str) -> list[CheckRecord]:
    """The hbar^2 coefficient of the star bracket {x^3, p^3}, exactly -3/2
    for Moyal's product; an equivalent product or a slip of the order-3
    term of x^3 * p^3 moves it while the limit slope stays 2."""
    correction = float(bracket.terms.get((0, 0, 2), star_product.CRAT_ZERO).re)
    return [CheckRecord(check_id, "bracket-classical-limit", correction, -1.5, 0.0)]


def star_laws_check(check_id: str) -> list[CheckRecord]:
    """Failing cases of star associativity and of the bracket's antisymmetry
    and Jacobi identity, exactly, over every triple of 1D basis monomials up
    to degree 4."""
    result = star_product.associativity_jacobi_check(4)
    return [CheckRecord(check_id, "star-associativity", float(result["failing"]), 0.0, 0.0)]


def criterion_10_star_algebra(seed: int) -> list[CheckRecord]:
    x = star_product.PhasePolynomial.variable(1, "x")
    p = star_product.PhasePolynomial.variable(1, "p")
    x3, p3 = x * x * x, p * p * p
    covariance = star_product.harmonic_evolution_check(1, 4)
    return [
        *star_laws_check("C10.associativity-jacobi"),
        *star_commutator_check("C10.canonical-commutator"),
        *classical_limit_check(star_product.classical_limit_sweep(x3, p3, seed=seed), "C10.classical-"),
        CheckRecord("C10.quadratic-covariance", "quadratic-covariance", float(covariance["failing"]), 0.0, 0.0),
        *cubic_correction_check(star_product.moyal_bracket(x3, p3), "C10.cubic-correction-coefficient"),
    ]


def flow_law_check(p: float, x: float, cutoff: int, t_final: float, dt: float, prefix: str) -> list[CheckRecord]:
    """Coefficient vs canonical routes of the harmonic ray flow from the
    coherent state at (p, x), with check IDs prefixed by `prefix`."""
    space = hilbert.build_fock_space(1, cutoff)
    xo, po = space.x_op(), space.p_op()
    h = 0.5 * (xo @ xo + po @ po)
    initial = hilbert.coherent_state(space, p, x)
    report = hilbert.projective_flow_check(space, h, initial, t_final=t_final, dt=dt)
    return [
        CheckRecord(f"{prefix}route-deviation", "hamilton-schroedinger-equivalence", report.max_deviation, 0.0, 1e-6),
        CheckRecord(f"{prefix}norm-drift", "hamilton-schroedinger-equivalence", report.norm_drift, 0.0, 1e-8),
        CheckRecord(f"{prefix}step-halving", "plumbing", report.halving_deviation, 0.0, 1e-6),
    ]


def criterion_11_projective_flow() -> list[CheckRecord]:
    return flow_law_check(0.8, 0.6, 32, 10.0, 1e-3, "C11.")


def criterion_12_determinism(seed: int) -> list[CheckRecord]:
    """In-process double run of the seeded subcommand payloads.

    The full end-to-end double run of `all` is exercised by the acceptance
    test through the installed entry point.
    """

    def payload():
        rng = np.random.default_rng(seed)
        records = [*criterion_01_algebra_axioms(), *criterion_03_group_law(rng)]
        # with the generator state after the draw, so that changed samples change the payload
        manifest = build_manifest("determinism-probe", {"seed": seed, "rng": rng.bit_generator.state}, seed, "")
        return serialize_report(build_report(manifest, records))

    same = payload() == payload()
    return [CheckRecord("C12.determinism", "plumbing", 0.0 if same else 1.0, 0.0, 0.0)]


# each runner returns its check records; C08's returns (records, decay records)
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
    10: ("star algebra", lambda rng, seed: criterion_10_star_algebra(seed)),
    11: ("projective flow", lambda rng, seed: criterion_11_projective_flow()),
    12: ("determinism", lambda rng, seed: criterion_12_determinism(seed)),
}


def run_battery(seed: int):
    """All acceptance criteria in order; returns (check records by criterion
    number, seconds by criterion number, C08's decay records)."""
    rng = np.random.default_rng(seed)
    grouped = {}
    timings = {}
    sweep = None
    for number, (label, runner) in CRITERION_RUNNERS.items():
        start = time.perf_counter()
        result = runner(rng, seed)
        timings[number] = time.perf_counter() - start
        if isinstance(result, tuple):
            result, sweep = result
        grouped[number] = result
    return grouped, timings, sweep


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _bounded(convert=float, low=None, high=None, *, positive=False, many=False):
    """argparse type factory: text -> convert(text), a float, int or Fraction,
    or with `many` a tuple of floats from comma-separated text.

    A value must be finite (floats), > 0 when `positive`, and in [low, high]
    where those are given; otherwise argparse prints "<value> is not <what>",
    with ints and rationals shown by str and floats by :g.  A scalar float
    is checked finite before its bounds, so inf reads "is not a finite
    value"; a list entry is checked for both at once.
    """
    if convert is int:
        what = f"an integer >= {low}" if high is None else f"an integer in [{low}, {high}]"
    elif positive:
        what = "positive" if convert is Fraction else "a finite positive value"
    else:
        what = "a finite value" if low is None else f"a finite value >= {low:g}"

    def parse(text: str):
        try:
            values = tuple(convert(v) for v in (text.split(",") if many else [text]))
        except (ValueError, ZeroDivisionError):
            nouns = {float: "a number", int: "an integer", Fraction: "an exact finite rational"}
            noun = "a comma-separated list of numbers" if many else nouns[convert]
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        for v in values:
            shown = f"{v:g}" if convert is float else str(v)
            if convert is float and not many and not math.isfinite(v):
                raise argparse.ArgumentTypeError(f"{shown} is not a finite value")
            in_bounds = (not positive or v > 0) and (low is None or v >= low) and (high is None or v <= high)
            if not (in_bounds and (convert is not float or math.isfinite(v))):
                raise argparse.ArgumentTypeError(f"{shown} is not {what}")
        return values if many else values[0]

    return parse


_finite_float = _bounded()


def cmd_algebra_verify(args) -> list[CheckRecord]:
    records = algebra_axiom_check(lie_core.build_standard_algebra(args.builtin), "")
    # the rescaled family carries eps = 1/k^2, so Jacobi per eps power holds at every k
    sym = lie_core.verify_algebra_symbolic(lie_core.standard_contraction_family(args.builtin).rescaled)
    records.append(CheckRecord("jacobi-per-power", "jacobi-identity", sym.jacobi_max, 0.0, 0.0))
    return records


def cmd_algebra_contract(args) -> list[CheckRecord]:
    records = criterion_02_contraction_limit()
    scaled = lie_core.standard_contraction_family("HR3").rescaled
    coeff = scaled.coefficient_tensor(1.0 / (args.k * args.k))[scaled.index("X1"), scaled.index("P1"), scaled.index("I")]
    records.append(
        CheckRecord("central-coefficient-at-k", "contracted-bracket-limit", float(coeff), 1.0 / args.k**2, 1e-15)
    )
    return records


def cmd_coset_compose(args) -> list[CheckRecord]:
    records = group_law_check(np.random.default_rng(args.seed), args.kind, args.samples, "compose-vs-closed-form")

    def pinned_theta(x2) -> float:
        """Phase of (p = e1) composed with (x = x2)."""
        w1, w2 = coset_rep.WeylLabel([1, 0, 0], [0, 0, 0], 0.0), coset_rep.WeylLabel([0, 0, 0], x2, 0.0)
        return coset_rep.weyl_compose_formula(w1, w2, args.kind).theta

    if args.kind == "phase":
        records.append(CheckRecord("pinned-phase-shift", "weyl-composition", pinned_theta([1, 0, 0]), 0.5, 0.0))
    else:
        records.append(CheckRecord("pinned-config-shift", "weyl-composition", pinned_theta([0, 1, 0]), 0.0, 0.0))
        records.append(CheckRecord("pinned-config-cross-term", "weyl-composition", pinned_theta([1, 0, 0]), 1.0, 0.0))
    return records


def _overlap_errors(labels, space) -> list[float]:
    """|<p1, x1|p2, x2> - closed form| on `space`, a 1-mode Fock space or a
    position grid, for each 1D label row (p1, x1, p2, x2).  The states are
    built at once (coherent_pair_overlaps) and the closed forms are one
    broadcast call; tolist() makes them Python complexes, so each error takes
    Python's abs."""
    p1, x1, p2, x2 = labels.T[:, :, None]
    want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0).tolist()
    pairs = np.insert(labels, [2, 4], 0.0, axis=1).reshape(-1, 2, 3)  # theta = 0 after each (p, x)
    return [abs(got - w) for got, w in zip(hilbert.coherent_pair_overlaps(space, pairs), want)]


def cmd_coherent_overlap(args) -> list[CheckRecord]:
    if args.modes == 3 and args.backend != "fock":
        raise ValueError("--modes 3 needs --backend fock: the grid backend is one-dimensional")
    for name in GRID_DEFAULTS:
        if args.backend == "fock" and name in vars(args):
            raise ValueError(f"--{name.replace('_', '-')} needs --backend grid: the fock backend has no grid")
    rng = np.random.default_rng(args.seed)
    law = "overlap-closed-form"
    records = overlap_spot_check(args.cutoff, "spot-value")
    space = hilbert.build_fock_space(1, args.cutoff)
    if args.backend == "fock":
        corner = hilbert.fock_overlap_hp(3.0, 3.0, 0.0, -3.0, -3.0, 0.0, cutoff=args.cutoff)
        corner_want = hilbert.coherent_overlap_formula(3.0, 3.0, 0.0, -3.0, -3.0, 0.0)
        corner_err = abs(corner - corner_want) / abs(corner_want)
        records.append(CheckRecord("far-corner-relative", law, corner_err, 0.0, 1e-8))
        errors = _overlap_errors(rng.uniform(-2, 2, size=(50, 4)), space)
        records.append(CheckRecord("moderate-labels", law, _worst(errors), 0.0, 1e-10))
        if args.modes == 3:
            three_err = overlap_3d_max_rel_err(rng, 10)
            records.append(CheckRecord("three-mode-sample", law, three_err, 0.0, 1e-6))
    else:
        for name, value in GRID_DEFAULTS.items():  # so the manifest records the grid used
            vars(args).setdefault(name, value)
        grid = hilbert.GridSpace(args.grid_extent, args.grid_points)
        errors = _overlap_errors(rng.uniform(-2, 2, size=(50, 4)), grid)
        records.append(CheckRecord("grid-vs-closed-form", law, _worst(errors), 0.0, 1e-9))
        pairs = [((p1, x1, 0.0), (p2, x2, 0.0)) for p1, x1, p2, x2 in rng.uniform(-2, 2, size=(50, 4))]
        cross_err = _worst([r["abs_diff"] for r in hilbert.cross_validate_backends(pairs, space, grid)])
        records.append(CheckRecord("backend-cross-validation", "plumbing", cross_err, 0.0, 1e-7))
    return records


def _parse_pair(text: str):
    """argparse type: "dx=<value>,dp=<value>" (dx defaults to 1, dp to 0) ->
    the label pair ((0, 0, 0), (dp, dx, 0)); any other key, a repeated key or
    a non-finite value is rejected."""
    values = {"dx": 1.0, "dp": 0.0}
    seen = set()
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in values or key in seen:
            raise argparse.ArgumentTypeError(f"{item!r} is not dx=<value> or dp=<value> (each at most once)")
        seen.add(key)
        values[key] = _finite_float(value)
    if values["dx"] == 0.0 and values["dp"] == 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} separates no labels, so there is no decay to measure")
    return ((0.0, 0.0, 0.0), (values["dp"], values["dx"], 0.0))


def cmd_contract_sweep(args) -> tuple:
    config = contraction_lab.ContractionRunConfig(k_values=args.k, pairs=(args.pair,))
    sweep = contraction_lab.overlap_decay_sweep(config)
    return decay_law_check(sweep, args.pair, ""), contraction_lab.csv_rows(sweep)


def _polynomial_flags(args) -> dict:
    """--f and --g parsed as 1D polynomials, keyed by flag; a rejected text
    raises a ValueError that starts with its flag."""
    polys = {}
    for flag, text in (("--f", args.f), ("--g", args.g)):
        try:
            polys[flag] = star_product.from_text(1, text)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from exc
    return polys


def cmd_star_bracket(args) -> list[CheckRecord]:
    f, g = _polynomial_flags(args).values()
    bracket = star_product.moyal_bracket(f, g)
    print(f"moyal_bracket({args.f}, {args.g}) = {bracket.to_text()}")
    if args.hbar is not None:
        fixed = bracket.substitute_hbar(args.hbar)
        print(f"at hbar = {args.hbar}: {fixed.to_text()}")

    antisymmetry = 0.0 if bracket == -star_product.moyal_bracket(g, f) else 1.0
    records = [
        *star_commutator_check("canonical-commutator"),
        CheckRecord("bracket-antisymmetry-exact", "bracket-antisymmetry", antisymmetry, 0.0, 0.0),
    ]
    if (f, g) == (star_product.from_text(1, "x^3"), star_product.from_text(1, "p^3")):
        records += cubic_correction_check(bracket, "cubic-correction-coefficient")
    return records


def cmd_star_limit_sweep(args) -> list[CheckRecord]:
    polys = _polynomial_flags(args)
    for flag, poly in polys.items():
        if poly.degree_in(-1):
            raise ValueError(f"{flag}: the polynomial contains hbar; the limit slope 2 holds only for hbar-free ones")
    f, g = polys.values()
    sweep = star_product.classical_limit_sweep(f, g, hbar_values=args.hbar, seed=args.seed)
    for r in sweep["records"]:
        print(f"hbar={r['hbar']:g}: max bracket deviation {r['max_abs_err']:.6g}")
    return classical_limit_check(sweep, "limit-")


def cmd_flow_check(args) -> list[CheckRecord]:
    return flow_law_check(args.p, args.x, args.cutoff, args.t_final, args.dt, "")


def cmd_all(args) -> tuple:
    grouped, timings, sweep = run_battery(args.seed)
    for number, records in grouped.items():
        label = CRITERION_RUNNERS[number][0]
        ok = all(r.passed for r in records)
        print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}  [{timings[number]:.2f}s]")
    return [r for records in grouped.values() for r in records], contraction_lab.csv_rows(sweep)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclimit", description="verification and sweep front end"
    )
    parser.add_argument("--out", default=".", help="directory for report files")
    parser.add_argument("--seed", type=int, default=7)
    # same flags accepted after the subcommand as well; SUPPRESS keeps the
    # top-level value when the subcommand does not repeat them
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, **defaults) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help, parents=[shared])
        s.set_defaults(func=func, **defaults)
        return s

    s = command("algebra-verify", "bracket axioms of a built-in table", cmd_algebra_verify)
    s.add_argument("--builtin", default="HR3", choices=["HR3", "HR3_with_H"])

    s = command("algebra-contract", "contract HR3 and take the limit table", cmd_algebra_contract)
    s.add_argument("--k", type=_bounded(low=1.0), default=10.0)

    s = command("coset-compose", "matrix composition vs closed form", cmd_coset_compose)
    s.add_argument("--kind", default="phase", choices=["phase", "config"])
    s.add_argument("--samples", type=_bounded(int, 1, MAX_SAMPLES), default=300)

    s = command("coherent-overlap", "overlap checks on a backend", cmd_coherent_overlap)
    s.add_argument("--backend", default="fock", choices=["fock", "grid"])
    s.add_argument("--cutoff", type=_bounded(int, 2, contraction_lab.FOCK_MAX_CUTOFF), default=64)
    s.add_argument("--modes", type=int, default=1, choices=[1, 3])
    # absent unless given: the fock backend rejects them, the grid backend fills in GRID_DEFAULTS
    s.add_argument("--grid-extent", type=_bounded(positive=True), default=argparse.SUPPRESS)
    s.add_argument("--grid-points", type=_bounded(int, 8, MAX_GRID_POINTS), default=argparse.SUPPRESS)

    s = command(
        "contract-sweep", "overlap decay under contraction", cmd_contract_sweep, writes_csv="contract_sweep.csv"
    )
    s.add_argument("--pair", type=_parse_pair, default="dx=1,dp=0")
    s.add_argument(
        "--k", type=_bounded(low=1.0, many=True), default="1,2,3,4,6,8", help="comma-separated values >= 1"
    )

    s = command("star-bracket", "deformed bracket of two polynomials", cmd_star_bracket)
    s.add_argument("--f", default="x^3")
    s.add_argument("--g", default="p^3")
    s.add_argument(
        "--hbar", type=_bounded(Fraction, positive=True), default=None, help="rational value > 0 to substitute"
    )

    s = command("star-limit-sweep", "bracket error against hbar", cmd_star_limit_sweep)
    s.add_argument("--f", default="x^3")
    s.add_argument("--g", default="p^3")
    s.add_argument(
        "--hbar", type=_bounded(positive=True, many=True), default="1e-1,1e-2,1e-3", help="comma-separated values > 0"
    )

    s = command("flow-check", "ray flow: coefficient vs canonical routes", cmd_flow_check)
    s.add_argument("--cutoff", type=_bounded(int, 2, FLOW_MAX_CUTOFF), default=32)
    s.add_argument("--t-final", type=_bounded(positive=True), default=10.0)
    s.add_argument("--dt", type=_bounded(positive=True), default=1e-3)
    s.add_argument("--p", type=_finite_float, default=0.8)
    s.add_argument("--x", type=_finite_float, default=0.6)

    command("all", "full acceptance battery", cmd_all, writes_csv="contract_sweep.csv")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    error = None
    try:
        result = args.func(args)
        records, csv_rows = result if isinstance(result, tuple) else (result, None)
        for r in records:
            for value in (r.measured, r.predicted, r.tolerance):
                if not math.isfinite(value):
                    raise ValueError(f"check {r.check_id}: non-finite value {value}")
    # TruncationGuardError is a ValueError; OverflowError is an ArithmeticError;
    # build_fock_space's ladder and Hermiticity guards raise AssertionError
    except (ValueError, ArithmeticError, AssertionError) as exc:
        records, csv_rows = [CheckRecord("diagnostic", "plumbing", 1.0, 0.0, 0.0)], None
        error = f"{type(exc).__name__}: {exc}"

    # read after the command ran, which fills in the defaults it resolves itself
    parameters = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "command", "writes_csv") and not callable(v)
    }
    report = build_report(build_manifest(args.command, parameters, args.seed), records)
    if error is not None:
        report["error"] = error
    path = out_dir / f"{args.command.replace('-', '_')}_report.json"
    path.write_text(serialize_report(report))
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
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
