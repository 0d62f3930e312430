import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qclimit import star_product
from qclimit.star_product import (
    CRAT_ONE,
    CRat,
    PhasePolynomial,
    canonical_commutator_check,
    classical_limit_sweep,
    from_text,
    harmonic_evolution_check,
    monomial_basis,
    moyal_bracket,
    poisson_bracket,
    star,
)


def _x(d=1, axis=1):
    return PhasePolynomial.variable(d, "x", axis)


def _p(d=1, axis=1):
    return PhasePolynomial.variable(d, "p", axis)


def _hbar(d=1):
    return PhasePolynomial.variable(d, "hbar")


def _random_poly(rng, dims=1, max_degree=4, n_terms=4, allow_hbar=False):
    terms = {}
    for _ in range(n_terms):
        while True:
            exps = rng.integers(0, max_degree + 1, size=2 * dims)
            if exps.sum() <= max_degree:
                break
        h = int(rng.integers(0, 2)) if allow_hbar else 0
        key = tuple(int(e) for e in exps) + (h,)
        coeff = CRat(Fraction(int(rng.integers(-3, 4))), Fraction(int(rng.integers(-2, 3))))
        terms[key] = terms.get(key, CRat()) + coeff
    return PhasePolynomial(dims, terms)


def _rational_poly(rng, dims, max_degree, n_terms):
    """Terms with distinct coefficient denominators and hbar exponents 0 to 2."""
    dens = rng.permutation([2, 3, 4, 5, 7, 9, 11, 13])
    terms = {}
    for t in range(n_terms):
        while True:
            exps = rng.integers(0, max_degree + 1, size=2 * dims)
            if exps.sum() <= max_degree:
                break
        key = tuple(int(e) for e in exps) + (int(rng.integers(0, 3)),)
        terms[key] = CRat(
            Fraction(int(rng.integers(-9, 10)), int(dens[t])),
            Fraction(int(rng.integers(-9, 10)), int(dens[-1 - t])),
        )
    return PhasePolynomial(dims, terms)


def _reference_star(f, g):
    """The module docstring's derivative sum, evaluated with PhasePolynomial.diff."""
    d = f.dims
    bounds = [min(f.degree_in(i), g.degree_in(d + i)) for i in range(d)]
    bounds += [min(f.degree_in(d + i), g.degree_in(i)) for i in range(d)]
    total = PhasePolynomial.zero(d)
    for ab in itertools.product(*(range(n + 1) for n in bounds)):
        a, b = ab[:d], ab[d:]
        df, dg = f, g
        for i in range(d):
            for _ in range(a[i]):
                df, dg = df.diff(i), dg.diff(d + i)
            for _ in range(b[i]):
                df, dg = df.diff(d + i), dg.diff(i)
        order = sum(ab)
        coeff = CRat(Fraction((-1) ** sum(b), 2**order * math.prod(math.factorial(e) for e in ab)))
        for _ in range(order):
            coeff = coeff.times_i()
        total = total + (df * dg).scale(coeff).shift_hbar(order)
    return total


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


def test_gaussian_rational_arithmetic():
    a = CRat(Fraction(1, 2), Fraction(3))
    b = CRat(Fraction(2), Fraction(-1, 3))
    assert (a * b).re == Fraction(1, 2) * 2 - Fraction(3) * Fraction(-1, 3)
    assert (a * b).im == Fraction(1, 2) * Fraction(-1, 3) + Fraction(3) * 2
    assert a.times_i() == CRat(Fraction(-3), Fraction(1, 2))
    assert (a - a).is_zero


def test_variable_constructors_and_validation():
    with pytest.raises(ValueError, match="axis"):
        PhasePolynomial.variable(1, "x", 2)
    with pytest.raises(ValueError, match="kind"):
        PhasePolynomial.variable(1, "y")
    with pytest.raises(ValueError, match="dims"):
        PhasePolynomial.zero(0)
    x2 = PhasePolynomial.variable(3, "x", 2)
    assert x2.terms == {(0, 1, 0, 0, 0, 0, 0): CRAT_ONE}


def test_product_and_derivative_are_exact():
    x, p = _x(), _p()
    f = (x + p) * (x + p)
    assert f.terms[(2, 0, 0)] == CRAT_ONE
    assert f.terms[(1, 1, 0)] == CRat(Fraction(2))
    assert f.diff(0).terms == ((x + p) + (x + p)).terms
    assert f.evaluate([0.5], [2.0], 0.0) == pytest.approx((2.5) ** 2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        _x(1) + _x(3)
    with pytest.raises(ValueError, match="dimension"):
        _x(3).evaluate([1.0], [1.0], 0.0)


def test_canonical_form_equality_and_hash():
    x, p = _x(), _p()
    half = CRat(Fraction(1, 2))
    assert x.scale(half) + x.scale(half) == x
    # x + (5/4 - i/6) p, once over thirds and once scaled down by 1/6
    a = x.scale(CRat(Fraction(1, 3))) + x.scale(CRat(Fraction(2, 3))) + p.scale(CRat(Fraction(5, 4), Fraction(-1, 6)))
    b = (x.scale(CRat(Fraction(6))) + p.scale(CRat(Fraction(15, 2), Fraction(-1)))).scale(CRat(Fraction(1, 6)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.den == b.den == 12
    assert a.nums == b.nums == {(1, 0, 0): (12, 0), (0, 1, 0): (15, -2)}
    assert len({a, b, a - b}) == 2


def test_difference_with_itself_stores_no_terms():
    rng = np.random.default_rng(8)
    for dims in (1, 3):
        f = _rational_poly(rng, dims, 4, 4)
        zero = f - f
        assert zero.is_zero
        assert zero.nums == {}
        assert zero.den == 1
        assert len(zero.terms) == 0
        assert zero == PhasePolynomial.zero(dims)
        assert hash(zero) == hash(PhasePolynomial.zero(dims))


def test_terms_is_a_read_only_crat_view(monkeypatch):
    from qclimit import star_product

    f = from_text(1, "x*p/3 + i*hbar/2 - 7")
    assert dict(f.terms) == {
        (1, 1, 0): CRat(Fraction(1, 3)),
        (0, 0, 1): CRat(im=Fraction(1, 2)),
        (0, 0, 0): CRat(Fraction(-7)),
    }
    assert all(isinstance(c, CRat) for c in f.terms.values())
    with pytest.raises(TypeError):
        f.terms[(0, 0, 0)] = CRAT_ONE
    with pytest.raises(TypeError):
        del f.terms[(0, 0, 0)]
    with pytest.raises(AttributeError):
        f.terms = {}
    # size and membership read the stored numerators and build no CRat
    monkeypatch.setattr(star_product, "CRat", None)
    assert len(f.terms) == 3
    assert (1, 1, 0) in f.terms and (2, 0, 0) not in f.terms


def test_evaluate_rounds_each_coefficient_as_fraction_does():
    # 2^60 + 1 is not a float, so float(num) / float(den) would round twice
    q1 = CRat(Fraction(2**60 + 1, 3), Fraction(-(2**61) - 3, 7))
    q2 = CRat(Fraction(5, 11))
    f = PhasePolynomial(1, {(0, 0, 0): q1, (1, 0, 0): q2})
    assert f.den == 231
    assert f.evaluate([0.0], [0.0], 0.0) == complex(float(q1.re), float(q1.im))
    assert f.evaluate([1.0], [0.0], 0.0) == complex(float(q1.re), float(q1.im)) + float(q2.re)


def test_text_parsing_round_trip():
    cases = ["x*p + 1/2", "(x + p)^2 - x^2", "3/2*hbar^2*x - i*p", "x^4 + 2*p^3*x"]
    for text in cases:
        poly = from_text(1, text)
        again = from_text(1, poly.to_text())
        assert poly == again
    three = from_text(3, "x2*p3 - 1/3*x1^2")
    assert three.terms[(0, 1, 0, 0, 0, 1, 0)] == CRAT_ONE
    assert three.terms[(2, 0, 0, 0, 0, 0, 0)] == CRat(Fraction(-1, 3))


def test_text_parsing_rejects_non_polynomials():
    with pytest.raises(ValueError, match="polynomial"):
        from_text(1, "sin(x)")
    with pytest.raises(ValueError, match="polynomial"):
        from_text(1, "1/x")


# ---------------------------------------------------------------------------
# product identities
# ---------------------------------------------------------------------------


def test_canonical_pair_product_values():
    x, p, hbar = _x(), _p(), _hbar()
    half_i = CRat(im=Fraction(1, 2))
    assert star(x, p) == x * p + hbar.scale(half_i)
    assert star(p, x) == x * p - hbar.scale(half_i)
    comm = star(x, p) - star(p, x)
    assert comm == hbar.scale(CRat(im=Fraction(1)))
    assert star(x, p).to_text() == "1/2*i*hbar + x*p"


def test_cubic_bracket_correction_value():
    x, p = _x(), _p()
    f = x * x * x
    g = p * p * p
    mb = moyal_bracket(f, g)
    xxpp = (x * x) * (p * p)
    hbar2 = _hbar() * _hbar()
    expected = xxpp.scale(CRat(Fraction(9))) + hbar2.scale(CRat(Fraction(-3, 2)))
    assert mb == expected
    assert poisson_bracket(f, g) == xxpp.scale(CRat(Fraction(9)))


def test_star_matches_derivative_sum_on_rational_coefficients():
    rng = np.random.default_rng(404)
    cases = [(1, 8, 4)] * 100 + [(3, 4, 3)] * 30
    for dims, max_degree, n_terms in cases:
        f = _rational_poly(rng, dims, max_degree, int(rng.integers(1, n_terms + 1)))
        g = _rational_poly(rng, dims, max_degree, int(rng.integers(1, n_terms + 1)))
        assert star(f, g) == _reference_star(f, g)
    for dims in (1, 3):
        f = _rational_poly(rng, dims, 4, 3)
        zero = PhasePolynomial.zero(dims)
        for left, right in ((zero, f), (f, zero), (zero, zero)):
            assert star(left, right) == _reference_star(left, right) == zero


def test_star_is_associative_on_random_triples():
    rng = np.random.default_rng(101)
    for _ in range(30):
        f = _random_poly(rng)
        g = _random_poly(rng)
        h = _random_poly(rng, allow_hbar=True)
        assert star(star(f, g), h) == star(f, star(g, h))


def test_star_is_associative_in_three_dimensions():
    rng = np.random.default_rng(55)
    for _ in range(5):
        f = _random_poly(rng, dims=3, max_degree=2, n_terms=3)
        g = _random_poly(rng, dims=3, max_degree=2, n_terms=3)
        h = _random_poly(rng, dims=3, max_degree=2, n_terms=3)
        assert star(star(f, g), h) == star(f, star(g, h))


def test_bracket_antisymmetry_and_jacobi_are_exact():
    rng = np.random.default_rng(77)
    for _ in range(15):
        f = _random_poly(rng, max_degree=3)
        g = _random_poly(rng, max_degree=3)
        h = _random_poly(rng, max_degree=3)
        assert moyal_bracket(f, g) == -moyal_bracket(g, f)
        cyc = (
            moyal_bracket(f, moyal_bracket(g, h))
            + moyal_bracket(g, moyal_bracket(h, f))
            + moyal_bracket(h, moyal_bracket(f, g))
        )
        assert cyc.is_zero


def test_commutator_identity_on_monomial_basis():
    out = canonical_commutator_check(1, 4)
    assert out["exact"] is True
    assert out["checked"] == sum(1 for _ in monomial_basis(1, 4))
    assert canonical_commutator_check(3, 2)["exact"] is True


def _reference_bracket(f, g):
    """(f * g - g * f) / (i hbar) from two full star products."""
    return (star(f, g) - star(g, f)).shift_hbar(-1).scale(CRat(im=Fraction(-1)))


def test_one_pass_bracket_matches_commutator_of_two_products():
    rng = np.random.default_rng(606)
    cases = [(1, 8, 4)] * 100 + [(3, 4, 3)] * 30
    for dims, max_degree, n_terms in cases:
        f = _rational_poly(rng, dims, max_degree, int(rng.integers(1, n_terms + 1)))
        g = _rational_poly(rng, dims, max_degree, int(rng.integers(1, n_terms + 1)))
        assert moyal_bracket(f, g) == _reference_bracket(f, g)
    for dims in (1, 3):
        f = _rational_poly(rng, dims, 4, 3)
        zero = PhasePolynomial.zero(dims)
        assert moyal_bracket(f, f).is_zero
        assert moyal_bracket(zero, f) == moyal_bracket(f, zero) == zero


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------


def test_zero_hbar_limit_of_product_is_pointwise_product():
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert star(f, g).substitute_hbar(0) == (f * g).substitute_hbar(0)


def test_bracket_limit_equals_poisson_for_hbar_free_inputs():
    rng = np.random.default_rng(14)
    for _ in range(10):
        f = _random_poly(rng, allow_hbar=False)
        g = _random_poly(rng, allow_hbar=False)
        assert moyal_bracket(f, g).substitute_hbar(0) == poisson_bracket(f, g)


def test_classical_limit_sweep_slope():
    x, p = _x(), _p()
    out = classical_limit_sweep(x * x * x, p * p * p)
    for rec in out["records"]:
        assert rec["max_abs_err"] == pytest.approx(1.5 * rec["hbar"] ** 2, rel=1e-12)
    assert out["slope"] == pytest.approx(2.0, abs=1e-10)


def test_classical_limit_sweep_keeps_nan_error():
    x, p = _x(), _p()
    out = classical_limit_sweep(x * x * x, p * p * p, hbar_values=(math.nan, 1e-2, 1e-3))
    assert math.isnan(out["records"][0]["max_abs_err"])
    assert math.isnan(out["slope"])


def test_classical_limit_sweep_quadratic_has_no_corrections():
    x, p = _x(), _p()
    out = classical_limit_sweep(x * x, p * p)
    assert all(r["max_abs_err"] == 0.0 for r in out["records"])
    assert out["slope"] is None


def test_harmonic_flow_follows_classical_rotation():
    out = harmonic_evolution_check()
    assert out["quadratic_flow_has_no_corrections"] is True
    assert out["closes_on_linear_span"] is True
    assert out["max_coefficient_error"] < 1e-10


def test_harmonic_flow_keeps_nan_error(monkeypatch):
    # a NaN coefficient at the last of the three times must survive the maximum
    real_rk4, calls = star_product._rk4, []

    def rk4(*args):
        calls.append(args)
        path = real_rk4(*args)
        return np.full_like(path, math.nan) if len(calls) == 3 else path

    monkeypatch.setattr(star_product, "_rk4", rk4)
    out = harmonic_evolution_check()
    assert len(calls) == 3
    assert math.isnan(out["max_coefficient_error"])
