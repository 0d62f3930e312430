import math
from fractions import Fraction

import numpy as np
import pytest

from qclimit.lie_core import (
    ContractionFamily,
    GeneratorLabel,
    StructureConstantTable,
    apply_contraction,
    build_standard_algebra,
    limit_algebra,
    make_table,
    rotation_rotation_bracket,
    rotation_vector_bracket,
    standard_contraction_family,
    verify_algebra,
    verify_algebra_symbolic,
)

EPS_SAMPLES = (0.0, 1 / 64, 1 / 16, 1 / 4, 1.0)


def basis_vec(table, name):
    v = np.zeros(table.dimension)
    v[table.index(name)] = 1.0
    return v


def test_build_hr3_shape():
    t = build_standard_algebra("HR3")
    assert t.dimension == 10
    assert [g.name for g in t.generators] == [
        "J23", "J31", "J12", "X1", "X2", "X3", "P1", "P2", "P3", "I",
    ]
    th = build_standard_algebra("HR3_with_H")
    assert th.dimension == 11
    assert th.generators[-1].name == "H"


def test_unknown_algebra_name_rejected():
    with pytest.raises(ValueError):
        build_standard_algebra("HR4")


def test_canonical_pair_entries():
    t = build_standard_algebra("HR3")
    assert t.bracket_terms("X1", "P1") == ((t.index("I"), 1.0, Fraction(0)),)
    assert t.bracket_terms("X1", "P2") == ()
    assert t.bracket_terms("P1", "X1") == ((t.index("I"), -1.0, Fraction(0)),)
    assert t.bracket_terms("X1", "X2") == ()
    assert t.bracket_terms("P2", "P3") == ()


def test_rotation_vector_entries():
    t = build_standard_algebra("HR3")
    assert t.bracket_terms("J12", "P2") == ((t.index("P1"), 1.0, Fraction(0)),)
    assert t.bracket_terms("J12", "X2") == ((t.index("X1"), 1.0, Fraction(0)),)
    assert t.bracket_terms("J12", "X1") == ((t.index("X2"), -1.0, Fraction(0)),)
    assert t.bracket_terms("J12", "X3") == ()
    assert t.bracket_terms("J23", "P3") == ((t.index("P2"), 1.0, Fraction(0)),)


def test_hamiltonian_variant_entries():
    t = build_standard_algebra("HR3_with_H")
    assert t.bracket_terms("X1", "H") == ((t.index("P1"), -1.0, Fraction(0)),)
    assert t.bracket_terms("P1", "H") == ()
    assert t.bracket_terms("J12", "H") == ()
    assert build_standard_algebra("HR3").dimension == 10


def adjoint_vector_matrices():
    """The 3x3 matrices rho(J_a) acting on the vector sector.

    rho is fixed by the J-vector brackets: the terms of [J_a, V_k] are the
    column k of rho(J_a).  Closure of these matrices under commutation is an
    oracle for the J-J sector that is independent of the table construction.
    """
    rho = {}
    for axis, (i, j) in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))):
        m = np.zeros((3, 3))
        for k in (1, 2, 3):
            for target, coeff in rotation_vector_bracket(i, j, k).items():
                m[target - 1, k - 1] = coeff
        rho[axis] = m
    return rho


def test_jj_sector_matches_vector_rep_closure():
    """[rho(J_a), rho(J_b)] must equal sum_c f_c rho(J_c) with f from the table."""
    t = build_standard_algebra("HR3")
    rho = adjoint_vector_matrices()
    names = {1: "J23", 2: "J31", 3: "J12"}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            lhs = rho[a] @ rho[b] - rho[b] @ rho[a]
            rhs = np.zeros((3, 3))
            for tgt, coeff, power in t.bracket_terms(names[a], names[b]):
                assert power == 0
                axis = t.generators[tgt].axis
                rhs += coeff * rho[axis]
            np.testing.assert_allclose(lhs, rhs, atol=0)


def test_jj_bracket_value():
    t = build_standard_algebra("HR3")
    assert t.bracket_terms("J12", "J23") == ((t.index("J31"), -1.0, Fraction(0)),)
    assert t.bracket_terms("J23", "J31") == ((t.index("J12"), -1.0, Fraction(0)),)
    assert t.bracket_terms("J31", "J12") == ((t.index("J23"), -1.0, Fraction(0)),)


def test_four_index_formula_antisymmetries():
    # J_ij = -J_ji on either argument, and [A, A] = 0
    assert rotation_rotation_bracket(1, 2, 2, 3) == {
        a: -c for a, c in rotation_rotation_bracket(2, 1, 2, 3).items()
    }
    assert rotation_rotation_bracket(1, 2, 2, 3) == {
        a: -c for a, c in rotation_rotation_bracket(1, 2, 3, 2).items()
    }
    assert rotation_rotation_bracket(1, 2, 1, 2) == {}
    assert rotation_rotation_bracket(1, 2, 2, 1) == {}


def test_bracket_vectors():
    t = build_standard_algebra("HR3")
    assert t.bracket_terms("X1", "P1") == ((t.index("I"), 1.0, Fraction(0)),)
    assert t.bracket_terms("J12", "J23") == ((t.index("J31"), -1.0, Fraction(0)),)


def test_verify_standard_algebras_clean():
    for name in ("HR3", "HR3_with_H"):
        rep = verify_algebra(build_standard_algebra(name), EPS_SAMPLES)
        assert rep.antisymmetry_max == 0.0
        assert rep.jacobi_max == 0.0


def test_verify_detects_missing_mirror():
    t = build_standard_algebra("HR3")
    broken = StructureConstantTable(
        "broken",
        t.generators,
        {(t.index("X1"), t.index("P1")): ((t.index("I"), 1.0, Fraction(0)),)},
    )
    rep = verify_algebra(broken, [0.0])
    assert rep.antisymmetry_max > 0


def test_verify_detects_jacobi_violation():
    # flipping one J-J sign breaks closure against the J-vector brackets
    t = build_standard_algebra("HR3")
    entries = dict(t.entries)
    a, b = t.index("J12"), t.index("J23")
    entries[(a, b)] = ((t.index("J31"), +1.0, Fraction(0)),)
    entries[(b, a)] = ((t.index("J31"), -1.0, Fraction(0)),)
    rep = verify_algebra(StructureConstantTable("flipped", t.generators, entries), [0.0])
    assert rep.antisymmetry_max == 0.0
    assert rep.jacobi_max >= 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_propagates_non_finite_structure_constant(bad):
    # a running max(0.0, nan) returns 0.0 and would report a clean table
    t = build_standard_algebra("HR3")
    entries = dict(t.entries)
    a, b = t.index("X1"), t.index("P1")
    entries[(a, b)] = ((t.index("I"), bad, Fraction(0)),)
    entries[(b, a)] = ((t.index("I"), -bad, Fraction(0)),)
    broken = StructureConstantTable("non-finite", t.generators, entries)
    with np.errstate(invalid="ignore"):
        reports = (verify_algebra(broken, [0.0, 1.0]), verify_algebra_symbolic(broken))
    for rep in reports:
        assert math.isnan(rep.antisymmetry_max) or math.isnan(rep.jacobi_max)
        # fails C01's tolerances: antisymmetry exact, Jacobi within 1e-12
        assert not (rep.antisymmetry_max <= 0.0 and rep.jacobi_max <= 1e-12)


def test_verify_requires_samples():
    t = build_standard_algebra("HR3")
    with pytest.raises(ValueError):
        verify_algebra(t, [])
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            verify_algebra(t, [0.0, eps])


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_standard_family_powers():
    fam = standard_contraction_family("HR3")
    sym = fam.rescaled
    assert sym.bracket_terms("X1", "P1") == ((sym.index("I"), 1.0, Fraction(1)),)
    assert sym.bracket_terms("J12", "P2") == ((sym.index("P1"), 1.0, Fraction(0)),)
    assert sym.bracket_terms("J12", "J23") == ((sym.index("J31"), -1.0, Fraction(0)),)


def test_family_with_h_keeps_boost_bracket():
    fam = standard_contraction_family("HR3_with_H")
    sym = fam.rescaled
    assert sym.bracket_terms("X1", "H") == ((sym.index("P1"), -1.0, Fraction(0)),)


def test_rescaled_family_verifies():
    fam = standard_contraction_family("HR3")
    rep = verify_algebra(fam.rescaled, EPS_SAMPLES)
    assert rep.antisymmetry_max == 0.0
    assert rep.jacobi_max < 1e-12
    srep = verify_algebra_symbolic(fam.rescaled)
    assert srep.antisymmetry_max == 0.0
    assert srep.jacobi_max == 0.0


def test_apply_contraction_k1_is_base():
    fam = standard_contraction_family("HR3")
    assert apply_contraction(fam, 1.0).entries == fam.base.entries


def test_apply_contraction_k10():
    fam = standard_contraction_family("HR3")
    t = apply_contraction(fam, 10.0)
    ((tgt, coeff, power),) = t.bracket_terms("X1", "P1")
    assert t.generators[tgt].name == "I"
    assert coeff == pytest.approx(0.01, abs=0)
    assert power == 0
    # rotation action on the rescaled vectors is k-independent
    assert t.bracket_terms("J12", "P2") == ((t.index("P1"), 1.0, Fraction(0)),)


def test_apply_contraction_rejects_small_k():
    fam = standard_contraction_family("HR3")
    with pytest.raises(ValueError):
        apply_contraction(fam, 0.5)


def test_limit_algebra_structure():
    fam = standard_contraction_family("HR3")
    lim = limit_algebra(fam)
    assert lim.bracket_terms("X1", "P1") == ()
    assert lim.bracket_terms("J12", "J23") == fam.base.bracket_terms("J12", "J23")
    assert lim.bracket_terms("J12", "X2") == fam.base.bracket_terms("J12", "X2")
    idx_central = lim.index("I")
    for terms in lim.entries.values():
        assert all(tgt != idx_central for tgt, _, _ in terms)
    rep = verify_algebra(lim, [0.0, 1.0])
    assert rep.antisymmetry_max == 0.0 and rep.jacobi_max == 0.0


def test_limit_equals_eps_zero_evaluation():
    fam = standard_contraction_family("HR3")
    np.testing.assert_allclose(
        limit_algebra(fam).coefficient_tensor(1.0),
        fam.rescaled.coefficient_tensor(0.0),
        atol=0,
    )


def test_non_contractible_family_rejected():
    base = build_standard_algebra("HR3")
    with pytest.raises(ValueError, match="not contractible"):
        ContractionFamily(base, {"I": 1})


def test_family_input_validation():
    base = build_standard_algebra("HR3")
    with pytest.raises(ValueError):
        ContractionFamily(base, {"X1": -1})
    rescaled = standard_contraction_family("HR3").rescaled
    with pytest.raises(ValueError, match="eps-free"):
        ContractionFamily(rescaled, {})


# ---------------------------------------------------------------------------
# fractional powers and table construction
# ---------------------------------------------------------------------------


def test_json_fractional_power():
    # weights (X: 1, P: 0) give a half-integer power on the canonical pair
    fam = ContractionFamily(
        build_standard_algebra("HR3"),
        {f"X{i}": 1 for i in (1, 2, 3)},
    )
    sym = fam.rescaled
    assert sym.bracket_terms("X1", "P1") == ((sym.index("I"), 1.0, Fraction(1, 2)),)


def test_make_table_mirrors():
    gens = (GeneratorLabel("A", "position", 1), GeneratorLabel("B", "momentum", 1),
            GeneratorLabel("C", "central"))
    t = make_table("toy", gens, {(0, 1): ((2, 2.0, Fraction(0)),)})
    assert t.bracket_terms(1, 0) == ((2, -2.0, Fraction(0)),)
    rep = verify_algebra(t, [0.0])
    assert rep.antisymmetry_max == 0.0 and rep.jacobi_max == 0.0
