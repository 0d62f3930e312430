"""One benchmark op per plan entry: call qclimit's public functions on the
generated inputs and check the results against the repo's own tolerances.

Every op returns an `Outcome` holding the number of checks made, how many
failed and a digest of its results.  Calls go through module attributes
(`hilbert.overlap`, not a local alias) so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import plans

from qclimit import cli, contraction_lab, coset_rep, hilbert, star_product

# checks an op would have made, counted as failed when it raises
EXPECTED_CHECKS = {
    "triple": 4,
    "classical": 1,
    "decay": 4,
    "weyl": 2,
    "group_law": 1,
    "overlap": 4,
    "flow": 3,
    "cross_validate": 1,
    "contraction": 2,
}


@dataclass(frozen=True)
class Outcome:
    checks: int
    failed: int
    digest: str
    report_bytes: int = 0

    @property
    def result(self) -> tuple:
        """What must not change when tracing is on."""
        return self.checks, self.failed, self.digest


def _outcome(passed: list[bool], parts) -> Outcome:
    text = "\n".join(str(p) for p in parts)
    return Outcome(len(passed), passed.count(False), hashlib.sha256(text.encode()).hexdigest())


def _within(value: float, tolerance: float) -> bool:
    """True when value <= tolerance; a NaN never passes."""
    return bool(value <= tolerance)


def _worst(values) -> float:
    """Largest value, propagating NaN (unlike the builtin max)."""
    return float(np.max(np.asarray(list(values), dtype=float)))


def run_op(op: dict, workdir: Path) -> Outcome:
    return _RUNNERS[op["kind"]](op, workdir)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def _battery(op: dict, workdir: Path) -> Outcome:
    """`qclimit all --seed s` in process; checks are counted from the report summary."""
    with tempfile.TemporaryDirectory(dir=workdir) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", out, "--seed", str(op["seed"]), "all"])
        files = list(Path(out).iterdir())
        text = (Path(out) / "all_report.json").read_text()
        csv_text = (Path(out) / "contract_sweep.csv").read_text()
        report_bytes = sum(f.stat().st_size for f in files)
    summary = json.loads(text)["summary"]
    failed = summary["failed"] + (1 if code != 0 and summary["failed"] == 0 else 0)
    digest = hashlib.sha256((cli.comparable_payload(text) + csv_text).encode()).hexdigest()
    return Outcome(summary["total"], failed, digest, report_bytes)


# ---------------------------------------------------------------------------
# star_exact
# ---------------------------------------------------------------------------


def _poly(spec: dict) -> star_product.PhasePolynomial:
    terms = {
        tuple(key): star_product.CRat(Fraction(rn, rd), Fraction(im_n, im_d))
        for key, (rn, rd, im_n, im_d) in spec["terms"]
    }
    return star_product.PhasePolynomial(spec["dims"], terms)


def _triple(op: dict, workdir: Path) -> Outcome:
    """Associativity, Jacobi, antisymmetry and the canonical commutator, all exact."""
    star, bracket = star_product.star, star_product.moyal_bracket
    f, g, h = (_poly(s) for s in op["polys"])
    dims = f.dims
    left = star(star(f, g), h)
    right = star(f, star(g, h))
    fg = bracket(f, g)
    cyc = bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, fg)
    antisym = bracket(g, f) == -fg

    # [x_i, p_i]_star acting on f, and the library's own basis check
    hbar = star_product.PhasePolynomial.variable(dims, "hbar")
    i_hbar_f = (hbar * f).scale(star_product.CRat(im=Fraction(1)))
    canonical = True
    for axis in range(1, dims + 1):
        x = star_product.PhasePolynomial.variable(dims, "x", axis)
        p = star_product.PhasePolynomial.variable(dims, "p", axis)
        canonical &= star(x, star(p, f)) - star(p, star(x, f)) == i_hbar_f
    degree = 2 if dims == 3 else plans.STAR_SIZES[op["size"]][1]
    basis = star_product.canonical_commutator_check(dims, degree)
    expected = dims * math.comb(2 * dims + degree, degree)
    canonical &= basis["exact"] and basis["checked"] == expected

    passed = [left == right, cyc.is_zero, antisym, canonical]
    return _outcome(passed, [left.to_text(), fg.to_text(), cyc.to_text()])


def _classical(op: dict, workdir: Path) -> Outcome:
    """Float-evaluation path: bracket error against hbar has slope 2 (C10 tolerance)."""
    sweep = star_product.classical_limit_sweep(_poly(op["f"]), _poly(op["g"]), seed=op["points_seed"])
    slope = sweep["slope"]
    passed = [slope is not None and _within(abs(slope - 2.0), 0.05)]
    return _outcome(passed, [repr(slope)])


# ---------------------------------------------------------------------------
# fock_contract
# ---------------------------------------------------------------------------


def _decay(op: dict, workdir: Path) -> Outcome:
    """Decay sweep: closed form and Fock route against the prediction (C08 and
    contract-sweep tolerances), with the slope fitted on each route."""
    pair = tuple(tuple(label) for label in op["pair"])
    config = contraction_lab.ContractionRunConfig(k_values=tuple(op["k_values"]), pairs=(pair,))
    records = contraction_lab.overlap_decay_sweep(config)
    closed = [r for r in records if r.backend == "closed_form"]
    fock = [r for r in records if r.backend == "fock"]
    d2 = (pair[0][0] - pair[1][0]) ** 2 + (pair[0][1] - pair[1][1]) ** 2
    slope_closed = contraction_lab.decay_slope(closed, 0, backend="closed_form")
    slope_fock = contraction_lab.decay_slope([r for r in fock if r.k <= 8.0], 0, backend="fock")
    passed = [
        _within(_worst(r.abs_err for r in closed), 1e-12),
        bool(fock) and _within(_worst(r.abs_err for r in fock), 1e-4),
        _within(abs(slope_closed + 0.25 * d2), 0.01 * 0.25 * d2),
        _within(abs(slope_fock + 0.25 * d2), 0.01 * 0.25 * d2),
    ]
    return _outcome(passed, [(r.backend, r.cutoff, repr(r.overlap_abs)) for r in records])


def _weyl(op: dict, workdir: Path) -> Outcome:
    """Factored vs single exponential on the vacuum, and vs the coherent state (C06 tolerance)."""
    space = hilbert.build_fock_space(1, op["cutoff"])
    vac = hilbert.vacuum_state(space)
    a = hilbert.weyl_unitary(space, op["p"], op["x"], op["theta"], form="factored").apply(vac)
    b = hilbert.weyl_unitary(space, op["p"], op["x"], op["theta"], form="single").apply(vac)
    target = hilbert.coherent_state(space, op["p"], op["x"], op["theta"])
    form_err = _worst(np.abs(a.coefficients - b.coefficients))
    state_err = _worst(np.abs(a.coefficients - target.coefficients))
    return _outcome([_within(form_err, 1e-8), _within(state_err, 1e-8)], [repr(form_err), repr(state_err)])


def _group_law(op: dict, workdir: Path) -> Outcome:
    """U(w1) U(w2)|0> == U(w1 w2)|0> on three modes (C06 tolerance)."""
    space = hilbert.build_fock_space(3, op["cutoff"])
    vac = hilbert.vacuum_state(space)
    w1, w2 = (coset_rep.WeylLabel(w["p"], w["x"], w["theta"]) for w in (op["w1"], op["w2"]))
    seq = hilbert.weyl_unitary(space, w1.p, w1.x, w1.theta).apply(
        hilbert.weyl_unitary(space, w2.p, w2.x, w2.theta).apply(vac)
    )
    w12 = coset_rep.weyl_compose_formula(w1, w2)
    direct = hilbert.weyl_unitary(space, w12.p, w12.x, w12.theta).apply(vac)
    err = _worst(np.abs(seq.coefficients - direct.coefficients))
    return _outcome([_within(err, 1e-8)], [repr(err)])


def _overlap(op: dict, workdir: Path) -> Outcome:
    """Overlaps and X/P elements against the closed forms and the mpmath sums
    (coherent-overlap and C05 tolerances)."""
    cutoff = op["cutoff"]
    space = hilbert.build_fock_space(1, cutoff)
    ovl_err, ovl_hp_err, elem_err, elem_hp_err = [], [], [], []
    for p1, x1, p2, x2 in op["pairs"]:
        s1, s2 = hilbert.coherent_state(space, p1, x1), hilbert.coherent_state(space, p2, x2)
        want = hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
        ovl_err.append(abs(hilbert.overlap(s1, s2) - want))
        hp = hilbert.fock_overlap_hp(p1, x1, 0.0, p2, x2, 0.0, cutoff=cutoff)
        ovl_hp_err.append(abs(hp - want) / abs(want))
        for kind in ("X", "P"):
            elem = hilbert.matrix_element_formula(kind, 1, p1, x1, 0.0, p2, x2, 0.0)
            scale = max(abs(elem), abs(want))
            elem_err.append(abs(hilbert.matrix_element(space, kind, 1, s1, s2) - elem) / scale)
            elem_hp = hilbert.fock_matrix_element_hp(kind, p1, x1, 0.0, p2, x2, 0.0, cutoff=cutoff)
            elem_hp_err.append(abs(elem_hp - elem) / scale)
    worst = [_worst(v) for v in (ovl_err, ovl_hp_err, elem_err, elem_hp_err)]
    passed = [_within(worst[0], 1e-10), _within(worst[1], 1e-8), _within(worst[2], 1e-8), _within(worst[3], 1e-8)]
    return _outcome(passed, [repr(w) for w in worst])


def _flow(op: dict, workdir: Path) -> Outcome:
    """Schroedinger vs Hamilton routes for the harmonic oscillator (C11 tolerances)."""
    space = hilbert.build_fock_space(1, op["cutoff"])
    xo, po = space.x_op().toarray(), space.p_op().toarray()
    h = 0.5 * (xo @ xo + po @ po)
    initial = hilbert.coherent_state(space, op["p"], op["x"])
    report = hilbert.projective_flow_check(space, h, initial, t_final=op["t_final"], dt=op["dt"])
    passed = [
        report.steps > 0 and _within(report.max_deviation, 1e-6),
        _within(report.norm_drift, 1e-8),
        _within(report.halving_deviation, 1e-6),
    ]
    return _outcome(passed, [repr(report.max_deviation), repr(report.norm_drift), repr(report.halving_deviation)])


def _cross_validate(op: dict, workdir: Path) -> Outcome:
    """Fock and position-grid overlaps agree (coherent-overlap grid tolerance)."""
    space = hilbert.build_fock_space(1, op["cutoff"])
    grid = hilbert.GridSpace(10.0, 160)
    pairs = [((p1, x1, 0.0), (p2, x2, 0.0)) for p1, x1, p2, x2 in op["pairs"]]
    diffs = hilbert.cross_validate_backends(pairs, space, grid)
    worst = _worst(r["abs_diff"] for r in diffs)
    return _outcome([len(diffs) == len(pairs) and _within(worst, 1e-7)], [repr(worst)])


def _contraction(op: dict, workdir: Path) -> Outcome:
    """Gram off-diagonal (C09 tolerance) and localization residual (1e-9 relative)."""
    k = op["k"]
    labels = tuple(tuple(label) for label in op["labels"])
    closed, fock = contraction_lab.gram_matrix(k, labels)
    gram_err = abs(abs(fock[0, 1]) - abs(closed[0, 1])) / abs(closed[0, 1])
    p_c, x_c, _ = labels[0]
    res = contraction_lab.eigenvalue_residual(k, p_c, x_c)
    res_err = _worst(abs(res[key] - res["predicted"]) / res["predicted"] for key in ("residual_x", "residual_p"))
    return _outcome([_within(gram_err, 1e-6), _within(res_err, 1e-9)], [repr(gram_err), repr(res_err)])


_RUNNERS = {
    "all": _battery,
    "triple": _triple,
    "classical": _classical,
    "decay": _decay,
    "weyl": _weyl,
    "group_law": _group_law,
    "overlap": _overlap,
    "flow": _flow,
    "cross_validate": _cross_validate,
    "contraction": _contraction,
}
