"""Negative controls: each mutant breaks one piece of the program, and the
checks it targets must fail while their report still serializes.

A check that no broken program can fail has measured nothing; this is
mutation analysis (DeMillo, Lipton & Sayward, Computer 11(4), 1978), written
by hand.  Each case runs only the criteria its mutant targets, from a seed-7
generator, and asserts the exact set of failing check IDs.  The caches a
mutant reaches are cleared before and after each case, so that no genuine
value hides a mutant and no mutated value outlives its case.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qclimit import cli, contraction_lab, coset_rep, hilbert, lie_core, star_product

CACHES = (
    star_product._axis_star,
    star_product._multi_axis_star,
    hilbert._quadrature_bands,
    hilbert._x_spectrum,
    hilbert._fixed_coherent,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def failing_ids(criteria) -> set:
    """IDs of the failing checks of the given criteria, read back from their
    serialized report."""
    rng = np.random.default_rng(7)
    records = []
    for number in criteria:
        result = cli.CRITERION_RUNNERS[number][1](rng, 7)
        records.extend(result[0] if isinstance(result, tuple) else result)
    manifest = cli.build_manifest("all", {"seed": 7}, 7, timestamp="")
    report = json.loads(cli.serialize_report(cli.build_report(manifest, records)))
    return {check["check_id"] for check in report["checks"] if not check["pass"]}


def slip_entry(monkeypatch, pair, order, change):
    """_monomial_star(*pair) with change(c) in place of the integer c of its
    order-`order` entry, in the full and the odd-order tuple alike."""
    genuine = star_product._monomial_star

    def mutant(f_xp, g_xp):
        parts = genuine(f_xp, g_xp)
        if (f_xp, g_xp) != pair:
            return parts
        return tuple(tuple((xp, n, change(c) if n == order else c) for xp, n, c in part) for part in parts)

    monkeypatch.setattr(star_product, "_monomial_star", mutant)


def x_star_p8_sign(monkeypatch):
    """x * p^8 with its order-1 entry negated: a degree-9 product that only
    the associativity of x, p^4, p^4 reaches."""
    slip_entry(monkeypatch, ((1, 0), (0, 8)), 1, lambda c: -c)


def x2p_star_xp2_order2(monkeypatch):
    """x^2 p * x p^2 with 1 added to its order-2 entry: an even-order slip
    that the brackets cannot see and many associativity triples can."""
    slip_entry(monkeypatch, ((2, 1), (1, 2)), 2, lambda c: c + 1)


def xp2_star_x2p_sign(monkeypatch):
    """x p^2 * x^2 p with its order-1 entry negated: a bracket slip that
    fails Jacobi cyclic sums as well as products and antisymmetry."""
    slip_entry(monkeypatch, ((1, 2), (2, 1)), 1, lambda c: -c)


def x_star_p2_order1(monkeypatch):
    """x * p^2 with 1 added to its order-1 entry: the bracket of x with the
    quadratic p^2, so quadratic covariance fails along with the laws."""
    slip_entry(monkeypatch, ((1, 0), (0, 2)), 1, lambda c: c + 1)


def x3_star_p3_order1(monkeypatch):
    """x^3 * p^3 with 1 added to its order-1 entry: the bracket the classical
    limit sweep takes, whose hbar^0 term then misses the Poisson bracket."""
    slip_entry(monkeypatch, ((3, 0), (0, 3)), 1, lambda c: c + 1)


def x3_star_p3_order3_doubled(monkeypatch):
    """x^3 * p^3 with its order-3 entry doubled: the hbar^2 correction of
    {x^3, p^3} reads -3 instead of -3/2, and the limit slope stays 2."""
    slip_entry(monkeypatch, ((3, 0), (0, 3)), 3, lambda c: 2 * c)


def equivalent_star(monkeypatch):
    """star and moyal_bracket conjugated by T = exp(hbar^2 sum_i d_xi^2
    d_pi^2), a finite sum on polynomials: f *' g = T^-1(Tf * Tg) is a star
    product equivalent to Moyal's (Bayen et al. 1978) that is not Moyal's.
    Associativity, the commutator and the limit slope hold for it; it gives
    {x^3, p^3} = 9 x^2 p^2 - (75/2) hbar^2."""

    def transform(f, sign):
        """exp(sign hbar^2 sum_i d_xi^2 d_pi^2) f, term n of the series from term n - 1."""
        d = f.dims
        hbar2 = star_product.from_text(d, "hbar^2")
        total = term = f
        for n in itertools.count(1):
            parts = (hbar2 * term.diff(i).diff(i).diff(d + i).diff(d + i) for i in range(d))
            term = sum(parts, star_product.PhasePolynomial.zero(d)).scale(star_product.CRat(Fraction(sign, n)))
            if term.is_zero:
                return total
            total = total + term

    def conjugated(genuine):
        return lambda f, g: transform(genuine(transform(f, 1), transform(g, 1)), -1)

    monkeypatch.setattr(star_product, "star", conjugated(star_product.star))
    monkeypatch.setattr(star_product, "moyal_bracket", conjugated(star_product.moyal_bracket))


def p_star_x4_order1(monkeypatch):
    """p * x^4 on one axis with 1 added to its order-1 entry: a one-entry
    slip of the per-axis table, which the canonical commutator reaches
    through p * x^4 and p * (x * x^3)."""
    genuine = star_product._axis_star

    def mutant(a, b, c, d):
        parts = genuine(a, b, c, d)
        if (a, b, c, d) != (0, 1, 4, 0):
            return parts
        return tuple(tuple((xp, n, s + 1 if n == 1 else s) for xp, n, s in part) for part in parts)

    monkeypatch.setattr(star_product, "_axis_star", mutant)


def unflipped_mirror(monkeypatch):
    """make_table stores its first mirrored entry without the sign flip."""
    genuine = lie_core.make_table

    def mutant(name, generators, half_entries):
        table = genuine(name, generators, half_entries)
        (a, b), terms = next(iter(half_entries.items()))
        return lie_core.StructureConstantTable(name, generators, {**table.entries, (b, a): tuple(terms)})

    monkeypatch.setattr(lie_core, "make_table", mutant)


def weighted_rotations(monkeypatch):
    """The contraction family gives the rotations weight 1, like X and P."""

    def mutant(name="HR3"):
        table = lie_core.build_standard_algebra(name)
        roles = ("rotation", "position", "momentum")
        return lie_core.ContractionFamily(table, {g.name: 1 for g in table.generators if g.role in roles})

    monkeypatch.setattr(lie_core, "standard_contraction_family", mutant)


def limit_without_j23_x2(monkeypatch):
    """The limit table drops [J23, X2] and its mirror."""
    genuine = lie_core.limit_algebra

    def mutant(family):
        table = genuine(family)
        dropped = {(table.index("J23"), table.index("X2")), (table.index("X2"), table.index("J23"))}
        entries = {pair: terms for pair, terms in table.entries.items() if pair not in dropped}
        return lie_core.StructureConstantTable(table.name, table.generators, entries)

    monkeypatch.setattr(lie_core, "limit_algebra", mutant)


def stretched_relabel(monkeypatch):
    """relabel scales the labels by 1.05 k instead of k."""
    genuine = contraction_lab.relabel
    monkeypatch.setattr(contraction_lab, "relabel", lambda k, *label: genuine(1.05 * k, *label))


def short_sqrt2(monkeypatch):
    """The sqrt(2) of the quadratures is 1e-9 short."""
    monkeypatch.setattr(hilbert, "SQRT2", hilbert.SQRT2 * (1 - 1e-9))


def limit_keeps_eps1_terms(monkeypatch):
    """limit_algebra keeps the eps-power-1 terms as well as the eps-free ones."""

    def mutant(family):
        sym = family.rescaled
        entries = {pair: tuple(t for t in terms if t[2] <= 1) for pair, terms in sym.entries.items()}
        return lie_core.StructureConstantTable(family.base.name + "_limit", sym.generators, entries)

    monkeypatch.setattr(lie_core, "limit_algebra", mutant)


def flipped_symplectic_phase(monkeypatch):
    """weyl_compose_labels adds the symplectic term of the phase kind
    instead of subtracting it."""
    genuine = coset_rep.weyl_compose_labels

    def mutant(w1, w2, kind="phase"):
        p, x, theta = genuine(w1, w2, kind)
        if kind == "phase":
            # theta1 + theta2 - s becomes theta1 + theta2 + s
            theta = 2 * (np.asarray(w1[2]) + np.asarray(w2[2])) - theta
        return p, x, theta

    monkeypatch.setattr(coset_rep, "weyl_compose_labels", mutant)


def conjugated_overlap_formula(monkeypatch):
    """The closed-form coherent overlap is conjugated: its symplectic phase
    turns the wrong way."""
    genuine = hilbert.coherent_overlap_formula
    monkeypatch.setattr(hilbert, "coherent_overlap_formula", lambda *labels: genuine(*labels).conjugate())


def scaled_fixed_exp(monkeypatch):
    """_fixed_exp returns exp(z) (1 + 2^-20): the start c_0 of every
    fixed-point coherent recursion and every fixed-point phase, so the exact
    Fock sums that C04 and C05 check the closed forms against are off, not
    the closed forms."""
    genuine = hilbert._fixed_exp

    def mutant(re_num, im_num, den, bits):
        r, i = genuine(re_num, im_num, den, bits)
        return r + (r >> 20), i + (i >> 20)

    monkeypatch.setattr(hilbert, "_fixed_exp", mutant)


def shifted_single_form(monkeypatch):
    """weyl_unitary(form="single") carries theta + 1e-6 as its global phase."""
    genuine = hilbert.weyl_unitary

    def mutant(space, p, x, theta=0.0, form="factored"):
        return genuine(space, p, x, theta + 1e-6 if form == "single" else theta, form)

    monkeypatch.setattr(hilbert, "weyl_unitary", mutant)


def negated_rotation_generator(monkeypatch):
    """FockSpace.j_axis_op returns -J_axis."""
    genuine = hilbert.FockSpace.j_axis_op
    monkeypatch.setattr(hilbert.FockSpace, "j_axis_op", lambda space, axis: -1.0 * genuine(space, axis))


def damped_predicted_overlap(monkeypatch):
    """The contracted-label overlap decays faster by exp(-0.25e-6 k^2 d^2)."""
    genuine = contraction_lab.predicted_overlap

    def mutant(k, label1, label2):
        d2 = (label1[0] - label2[0]) ** 2 + (label1[1] - label2[1]) ** 2
        return genuine(k, label1, label2) * math.exp(-0.25e-6 * k * k * d2)

    monkeypatch.setattr(contraction_lab, "predicted_overlap", mutant)


def unseeded_generator(monkeypatch):
    """Every generator ignores its seed, so C12's two probe runs draw
    different samples whose worst errors can still agree."""
    genuine = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: genuine())


MUTANTS = [
    (x_star_p8_sign, (10,), {"C10.associativity-jacobi"}),
    (x2p_star_xp2_order2, (10,), {"C10.associativity-jacobi"}),
    (p_star_x4_order1, (10,), {"C10.associativity-jacobi", "C10.canonical-commutator"}),
    (
        x_star_p2_order1,
        (10,),
        {"C10.associativity-jacobi", "C10.canonical-commutator", "C10.quadratic-covariance"},
    ),
    (x3_star_p3_order1, (10,), {"C10.associativity-jacobi", "C10.classical-slope"}),
    (x3_star_p3_order3_doubled, (10,), {"C10.associativity-jacobi", "C10.cubic-correction-coefficient"}),
    (equivalent_star, (10,), {"C10.quadratic-covariance", "C10.cubic-correction-coefficient"}),
    (
        unflipped_mirror,
        (1, 2),
        {
            "C01.hr3-antisymmetry",
            "C01.hr3-jacobi",
            "C01.hr3_with_h-antisymmetry",
            "C01.hr3_with_h-jacobi",
            "C02.limit-jacobi",
        },
    ),
    (weighted_rotations, (2,), {"C02.rotation-sector-unchanged"}),
    (limit_without_j23_x2, (2,), {"C02.limit-jacobi", "C02.rotation-sector-unchanged"}),
    (limit_keeps_eps1_terms, (2,), {"C02.canonical-pairs-commute", "C02.center-absent"}),
    (flipped_symplectic_phase, (3, 6), {"C03.group-law", "C06.group-law-on-vacuum"}),
    (conjugated_overlap_formula, (4, 5), {"C04.overlap-3d", "C04.overlap-grid-1d", "C05.element-grid-1d"}),
    (scaled_fixed_exp, (4, 5), {"C04.overlap-3d", "C04.overlap-grid-1d", "C05.element-grid-1d"}),
    (shifted_single_form, (6,), {"C06.factored-vs-single"}),
    (negated_rotation_generator, (7,), {"C07.bracket-realization"}),
    (damped_predicted_overlap, (8, 9), {"C08.closed-form-decay"}),
    (
        stretched_relabel,
        (8, 9),
        {
            "C08.closed-form-decay",
            "C08.fock-decay",
            "C08.decay-slope",
            "C09.element-ratio",
            "C09.contracted-diagonal",
            "C09.gram-offdiagonal",
            "C09.localization",
        },
    ),
    (
        short_sqrt2,
        (4, 5, 7, 9),
        {"C04.overlap-spot", "C05.diagonal-labels", "C07.bracket-realization", "C09.contracted-diagonal"},
    ),
    (unseeded_generator, (12,), {"C12.determinism"}),
]


# seed-7 checks that no mutant above fails yet
UNCONTROLLED = ("C11.route-deviation", "C11.norm-drift", "C11.step-halving")


def test_every_check_has_a_mutant_or_is_listed_uncontrolled():
    """The checks that some mutant fails and UNCONTROLLED split the seed-7
    battery's check IDs between them."""
    grouped, _, _ = cli.run_battery(7)
    battery = {r.check_id for records in grouped.values() for r in records}
    controlled = set().union(*(failing for _, _, failing in MUTANTS))
    assert controlled | set(UNCONTROLLED) == battery
    assert not controlled & set(UNCONTROLLED)
    assert len(UNCONTROLLED) == len(set(UNCONTROLLED))


@pytest.mark.parametrize(("mutate", "criteria", "failing"), MUTANTS, ids=[m[0].__name__ for m in MUTANTS])
def test_mutant_fails_its_checks(monkeypatch, mutate, criteria, failing):
    mutate(monkeypatch)
    assert failing_ids(criteria) == failing


def test_cleared_caches_keep_a_mutant_from_hiding_or_outliving_its_case(monkeypatch):
    """What fresh_caches prevents, shown on _fixed_coherent: coefficients
    cached by a genuine run hide scaled_fixed_exp from C04's grid check, and
    coefficients cached under the mutant fail that check after the genuine
    _fixed_exp is back."""
    assert failing_ids((4, 5)) == set()
    scaled_fixed_exp(monkeypatch)
    assert failing_ids((4, 5)) == {"C04.overlap-3d", "C05.element-grid-1d"}
    hilbert._fixed_coherent.cache_clear()
    assert failing_ids((4, 5)) == {"C04.overlap-3d", "C04.overlap-grid-1d", "C05.element-grid-1d"}
    monkeypatch.undo()
    assert failing_ids((4, 5)) == {"C04.overlap-grid-1d"}
    hilbert._fixed_coherent.cache_clear()
    assert failing_ids((4, 5)) == set()


def per_triple_defects() -> int:
    """C10.associativity-jacobi's count taken one case at a time: every
    ordered triple's two products, every ordered pair's two brackets and
    every triple of distinct monomials' cyclic sum."""
    basis = list(star_product.monomial_basis(1, 4))
    star, bracket = star_product.star, star_product.moyal_bracket
    defects = sum(star(star(a, b), c) != star(a, star(b, c)) for a, b, c in itertools.product(basis, repeat=3))
    defects += sum(bracket(a, b) != -bracket(b, a) for a, b in itertools.product(basis, repeat=2))
    for a, b, c in itertools.combinations(basis, 3):
        defects += not (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))).is_zero
    return defects


# the last mutant fails 60 associativity triples, 2 antisymmetry pairs and 12 cyclic sums
@pytest.mark.parametrize(
    ("mutate", "count"), [(x_star_p8_sign, 1), (x2p_star_xp2_order2, 60), (xp2_star_x2p_sign, 60 + 2 + 12)]
)
def test_star_laws_count_every_failing_case(monkeypatch, mutate, count):
    """The banded check counts every failing triple, pair and cyclic sum:
    under each C10 mutant it reads what a loop over single cases reads."""
    mutate(monkeypatch)
    (record,) = cli.star_laws_check("laws")
    assert record.measured == per_triple_defects() == count


def per_monomial_failing(dims: int, degree: int) -> int:
    """canonical_commutator_check's count taken one (axis, monomial) case at
    a time, four products each."""
    star = star_product.star
    i_hbar = star_product.from_text(dims, "i*hbar")
    failing = 0
    for axis in range(1, dims + 1):
        x = star_product.PhasePolynomial.variable(dims, "x", axis)
        p = star_product.PhasePolynomial.variable(dims, "p", axis)
        for m in star_product.monomial_basis(dims, degree):
            failing += star(x, star(p, m)) - star(p, star(x, m)) != i_hbar * m
    return failing


@pytest.mark.parametrize(("dims", "degree", "count"), [(1, 4, 2), (2, 3, 2), (3, 3, 3)])
def test_commutator_check_counts_every_failing_case(monkeypatch, dims, degree, count):
    """Under the p * x^4 slip the banded commutator check counts what a loop
    over single (axis, monomial) cases counts, and C10 reports that count."""
    p_star_x4_order1(monkeypatch)
    result = star_product.canonical_commutator_check(dims, degree)
    assert (result["failing"], result["exact"]) == (per_monomial_failing(dims, degree), False)
    assert result["failing"] == count
    (record,) = cli.star_commutator_check("commutator")
    assert record.measured == 2.0


def per_case_covariance_failing(dims: int, degree: int, m_first=(False, True)) -> int:
    """harmonic_evolution_check's count taken one (Q, m, order) case at a
    time, with m in the slots that `m_first` lists (True: m first)."""
    variable = star_product.PhasePolynomial.variable
    variables = [variable(dims, kind, axis) for kind in "xp" for axis in range(1, dims + 1)]
    failing = 0
    for a, b in itertools.combinations_with_replacement(variables, 2):
        for m in star_product.monomial_basis(dims, degree):
            for first in m_first:
                f, g = (m, a * b) if first else (a * b, m)
                failing += star_product.moyal_bracket(f, g) != star_product.poisson_bracket(f, g)
    return failing


@pytest.mark.parametrize(("mutate", "count"), [(x_star_p2_order1, 1), (equivalent_star, 4)])
def test_covariance_check_counts_every_failing_case(monkeypatch, mutate, count):
    """Under each mutant the banded covariance check counts what a loop over
    single (Q, m, order) cases counts."""
    mutate(monkeypatch)
    result = star_product.harmonic_evolution_check(1, 4)
    assert (result["failing"], result["exact"]) == (per_case_covariance_failing(1, 4), False)
    assert result["failing"] == count


def test_covariance_needs_m_in_both_slots(monkeypatch):
    """The x * p^2 slip reaches only {x, p^2}, with m = x in the first slot:
    a check with m in the second slot alone reads 0."""
    x_star_p2_order1(monkeypatch)
    assert per_case_covariance_failing(1, 4, m_first=(False,)) == 0
    assert per_case_covariance_failing(1, 4, m_first=(True,)) == 1
