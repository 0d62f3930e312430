import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qclimit import star_product
from qclimit.star_product import (
    CRAT_ONE,
    MAX_DEGREE,
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
        re, im = terms.get(key, (0, 0))
        terms[key] = (re + int(rng.integers(-3, 4)), im + int(rng.integers(-2, 3)))
    return PhasePolynomial(dims, {key: CRat(Fraction(re), Fraction(im)) for key, (re, im) in terms.items()})


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


def _times_i(c: CRat) -> CRat:
    return CRat(-c.im, c.re)


def _shift_hbar(poly: PhasePolynomial, amount: int) -> PhasePolynomial:
    """poly times hbar^amount; a negative amount must leave every hbar exponent >= 0."""
    assert all(k[-1] + amount >= 0 for k in poly.nums)
    return PhasePolynomial._of(poly.dims, poly.den, {k[:-1] + (k[-1] + amount,): v for k, v in poly.nums.items()})


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
            coeff = _times_i(coeff)
        total = total + _shift_hbar((df * dg).scale(coeff), order)
    return total


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


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


def _reference_coefficient_text(c: CRat) -> str:
    """A coefficient as to_text wrote it from CRat parts, through str(Fraction)."""
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        return {1: "i", -1: "-i"}.get(c.im, f"{c.im}*i")
    return f"({c.re}{'+' if c.im > 0 else '-'}{abs(c.im)}*i)"


def _reference_to_text(poly: PhasePolynomial) -> str:
    """to_text rebuilt on the CRat view of the coefficients."""
    pieces = []
    for key in sorted(poly.terms, key=lambda k: (sum(k), k)):
        names = [poly._var_name(slot) + (f"^{e}" if e > 1 else "") for slot, e in enumerate(key) if e]
        cs, body = _reference_coefficient_text(poly.terms[key]), "*".join(names)
        pieces.append(cs if not body else body if cs == "1" else "-" + body if cs == "-1" else f"{cs}*{body}")
    return " + ".join(pieces).replace(" + -", " - ") if pieces else "0"


def test_to_text_matches_the_crat_formatter():
    edges = [
        CRat(Fraction(1)),
        CRat(Fraction(-1)),
        CRat(im=Fraction(1)),
        CRat(im=Fraction(-1)),
        CRat(im=Fraction(3, 4)),
        CRat(im=Fraction(-5, 2)),
        CRat(im=Fraction(2)),
        CRat(Fraction(-1, 2), Fraction(3, 4)),
        CRat(Fraction(2), Fraction(1)),
        CRat(Fraction(7, 6), Fraction(-1)),
    ]
    x, p = _x(), _p()
    for c in edges:
        for poly in (PhasePolynomial.constant(1, c), x.scale(c), (x * p).scale(c) + PhasePolynomial.constant(1, c)):
            assert poly.to_text() == _reference_to_text(poly)
    # all edges in one polynomial: one denominator (12) that each part reduces on its own
    mixed = PhasePolynomial(1, {(i, 1, i % 2): c for i, c in enumerate(edges)})
    assert mixed.den == 12
    assert mixed.to_text() == _reference_to_text(mixed)
    assert PhasePolynomial.constant(1, CRat(Fraction(2), Fraction(1))).to_text() == "(2+1*i)"
    assert x.scale(CRat(Fraction(-1, 2), Fraction(3, 4))).to_text() == "(-1/2+3/4*i)*x"
    assert from_text(1, "-i*p + i - 5/2*i*x").to_text() == "i - i*p - 5/2*i*x"
    assert PhasePolynomial.zero(3).to_text() == _reference_to_text(PhasePolynomial.zero(3)) == "0"
    rng = np.random.default_rng(909)
    for dims, max_degree in [(1, 6)] * 30 + [(3, 3)] * 10:
        f, g = (_rational_poly(rng, dims, max_degree, int(rng.integers(1, 5))) for _ in range(2))
        for poly in (f, star(f, g), moyal_bracket(f, g)):
            assert poly.to_text() == _reference_to_text(poly)


def test_text_parsing_rejects_non_polynomials():
    rejected = [
        "sin(x)",
        "1/x",
        "x/hbar",
        "x/0",
        "x/(p - p)",
        "x.real",
        "x[0]",
        "(lambda: x)()",
        "__import__('os').getpid()*x",
        "y*x",
        "True*x",
        "1j*x",
        "'x'",
        "x % 2",
        "x // 2",
        "x == p",
        "x^-1",
        "x^2.0",
        "x^p",
        "x^True",
        "",
        "x; p",
        "x\n+ p",
        "1e-99999999999*x",
        "+".join(["x"] * 5000),
    ]
    for text in rejected:
        with pytest.raises(ValueError, match="polynomial"):
            from_text(1, text)
    with pytest.raises(ValueError, match="polynomial"):
        from_text(3, "x*p")


def _sympy_from_text(dims: int, text: str) -> PhasePolynomial:
    """Independent reference parser: sympy's parse_expr (which runs eval, so
    it reads only the fixed corpus here) and Poly over QQ_I."""
    import sympy
    from sympy.parsing.sympy_parser import convert_xor, standard_transformations

    symbols, gens = {"hbar": sympy.Symbol("hbar"), "i": sympy.I, "I": sympy.I}, []
    for axis in range(1, dims + 1):
        symbols[f"x{axis}"], symbols[f"p{axis}"] = sympy.Symbol(f"x{axis}"), sympy.Symbol(f"p{axis}")
        gens += [symbols[f"x{axis}"], symbols[f"p{axis}"]]
    if dims == 1:
        symbols["x"], symbols["p"] = symbols["x1"], symbols["p1"]
    expr = sympy.parse_expr(text, local_dict=symbols, transformations=standard_transformations + (convert_xor,))
    poly = sympy.Poly(sympy.expand(expr), *gens, symbols["hbar"], domain="QQ_I")
    terms = {}
    for exps, coeff in poly.terms():
        re, im = sympy.sympify(coeff).as_real_imag()
        # generator order is x1, p1, x2, p2, ..., hbar; key order is all x then all p
        key = tuple(exps[0:-1:2]) + tuple(exps[1:-1:2]) + (exps[-1],)
        terms[key] = CRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return PhasePolynomial(dims, terms)


@pytest.mark.parametrize(
    "dims, text",
    [
        (1, "x*p + 1/2"),
        (1, "(x + p)^2 - x^2"),
        (1, "3/2*hbar^2*x - i*p"),
        (1, "x^4 + 2*p**3*x"),
        (1, "-x + +p - -hbar"),
        (1, "-(x - p)*(x + p) + (x^2 - p^2)"),
        (1, "(1 + I)^3*x/(2 - 3*i)"),
        (1, "0.1*x + 1.5e2*p - .5 + 2.50*hbar"),
        (1, "x/2/3 + p/(0.5) + hbar/(1 + 0.5*i)"),
        (1, "i^2*hbar + I*x1*p1"),
        (1, " x^3 "),
        (1, "7"),
        (1, "0*x"),
        (1, "x^0 + 0^0"),
        (1, "(x + p + hbar + 1)^10"),
        (1, "hbar^2*(x*p + p*x)/4 - (x - 1/3)^5"),
        (3, "x2*p3 - 1/3*x1^2"),
        (3, "(x1 + p2 + hbar)^3 - x3*p3"),
        (3, "x3**2*p3^2 - i*x1*p1/7 + 0.25"),
        (3, "-(x1 - I*p1)^2/(1 - i) + +hbar*(p2 - x2)"),
    ],
)
def test_text_parsing_matches_sympy_reference(dims, text):
    assert from_text(dims, text) == _sympy_from_text(dims, text)


def test_text_parsing_departs_from_sympy_on_purpose():
    # a decimal is read exactly from its text, where sympy rounds it
    assert _sympy_from_text(1, "0.3333333333333333*x") == _x().scale(CRat(Fraction(1, 3)))
    for text, exact in [
        ("0.3333333333333333*x", Fraction(3333333333333333, 10**16)),
        ("1e-400*x", Fraction(1, 10**400)),
        ("1_000.5e-1*x", Fraction(10005, 100)),
    ]:
        assert from_text(1, text) == _x().scale(CRat(exact)) != _sympy_from_text(1, text)
    # an exponent must be an integer literal in [0, MAX_DEGREE], and a product
    # may not exceed MAX_DEGREE; sympy expands each of these
    over = [
        "2**-1",
        "x^(1+1)",
        "x^2^3",
        f"x^{MAX_DEGREE + 1}",
        f"2^{MAX_DEGREE + 1}",
        f"x^{MAX_DEGREE}*hbar",
        f"(x^2 + p)^{MAX_DEGREE // 2 + 1}",
    ]
    for text in over:
        assert not _sympy_from_text(1, text).is_zero
        with pytest.raises(ValueError, match="polynomial"):
            from_text(1, text)


def test_text_parsing_bounds_degree_before_expanding(monkeypatch):
    products = []
    mul = PhasePolynomial.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(PhasePolynomial, "__mul__", counting)
    for text in ("x^1000000", "(x + p)^14*(x + p)^14", "x^(10^6)"):
        with pytest.raises(ValueError, match="polynomial"):
            from_text(1, text)
    assert products == []
    # each power builds, the product of the two is refused before it is formed
    with pytest.raises(ValueError, match=f"degree {2 * MAX_DEGREE} exceeds MAX_DEGREE"):
        from_text(1, f"(x + p)^{MAX_DEGREE}*(x + p)^{MAX_DEGREE}")
    assert len(products) == 2 * MAX_DEGREE



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


def test_axis_star_sums_each_order_once():
    """Every (j, l) of the double sum, grouped by order n = j + l: they share
    the monomial x^(a+c-n) p^(b+d-n), and orders that sum to zero drop out."""
    for a, b, c, d in itertools.product(range(7), repeat=4):
        grouped = {}
        for j in range(min(a, d) + 1):
            for l in range(min(b, c) + 1):
                coeff = (-1) ** l * math.comb(a, j) * math.perm(d, j) * math.comb(b, l) * math.perm(c, l)
                key = (a - j + c - l, b - l + d - j, j + l)
                grouped[key] = grouped.get(key, 0) + coeff
        want = sorted(((*key, s) for key, s in grouped.items() if s), key=lambda entry: entry[2])
        assert list(star_product._axis_star(a, b, c, d)) == want
    # x p * x p: the two order-1 terms cancel
    assert [n for _, _, n, _ in star_product._axis_star(1, 1, 1, 1)] == [0, 2]


def test_star_and_bracket_share_one_expansion_per_key_pair():
    rng = np.random.default_rng(505)
    f, g = _rational_poly(rng, 3, 4, 4), _rational_poly(rng, 3, 4, 4)
    star_product._monomial_star.cache_clear()
    star(f, g)
    info = star_product._monomial_star.cache_info()
    assert info.misses == len({k[:-1] for k in f.nums}) * len({k[:-1] for k in g.nums})
    moyal_bracket(f, g)
    assert star_product._monomial_star.cache_info().misses == info.misses


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
    for dims, degree in ((1, 4), (3, 2), (2, 4), (3, 3)):
        out = canonical_commutator_check(dims, degree)
        assert out == {"checked": dims * math.comb(2 * dims + degree, degree), "exact": True, "failing": 0}
        assert out["checked"] == dims * sum(1 for _ in monomial_basis(dims, degree))


@pytest.mark.parametrize(("dims", "degree"), [(1, 4), (2, 3), (3, 3)])
def test_monomial_basis_walks_the_filtered_product_in_order(dims, degree):
    want = [e + (0,) for e in itertools.product(range(degree + 1), repeat=2 * dims) if sum(e) <= degree]
    basis = list(monomial_basis(dims, degree))
    assert [key for m in basis for key in m.nums] == want
    assert all((m.dims, m.den, list(m.nums.values())) == (dims, 1, [(1, 0)]) for m in basis)


@pytest.mark.parametrize(("dims", "degree"), [(1, 4), (3, 2)])
def test_commutator_check_takes_four_products_per_axis_over_the_per_monomial_term_pairs(monkeypatch, dims, degree):
    """The banded check makes 4 dims products instead of 4 per (axis,
    monomial), and they expand the same monomial key pairs, with the same
    multiplicities, as the per-monomial loop: no monomial, axis or term pair
    is dropped."""
    expansions = []
    genuine = star_product._monomial_star
    monkeypatch.setattr(star_product, "_monomial_star", lambda f, g: expansions.append((f, g)) or genuine(f, g))
    for axis in range(1, dims + 1):
        x, p = _x(dims, axis), _p(dims, axis)
        for m in monomial_basis(dims, degree):
            star(x, star(p, m)), star(p, star(x, m))
    per_monomial = collections.Counter(expansions)
    expansions.clear()
    calls = []
    monkeypatch.setattr(star_product, "star", lambda f, g: calls.append(1) or star(f, g))
    assert canonical_commutator_check(dims, degree)["exact"] is True
    assert len(calls) == 4 * dims
    assert collections.Counter(expansions) == per_monomial


@pytest.mark.parametrize(("dims", "degree"), [(1, 4), (3, 2)])
def test_commutator_bands_never_overlap(monkeypatch, dims, degree):
    """Every product of canonical_commutator_check with a banded right factor
    equals the sum of its parts' own products, each shifted into its band and
    each below hbar^width.  That result is banded in turn by those products,
    so the outer products are checked as well."""
    tagged = {}
    banded = star_product._banded

    def spy_banded(parts, width, other_weight):
        parts = list(parts)
        poly = banded(parts, width, other_weight)
        tagged[id(poly)] = (poly, parts, width)
        return poly

    checked = []

    def spy_star(f, g):
        result = star(f, g)
        if id(g) in tagged:
            _, parts, width = tagged[id(g)]
            own = [(band, star(f, part)) for band, part in parts]
            assert all(poly.degree_in(-1) < width for _, poly in own)
            assert result == sum((_shift_hbar(poly, width * band) for band, poly in own), PhasePolynomial.zero(dims))
            tagged[id(result)] = (result, own, width)
            checked.append(len(own))
        return result

    monkeypatch.setattr(star_product, "_banded", spy_banded)
    monkeypatch.setattr(star_product, "star", spy_star)
    canonical_commutator_check(dims, degree)
    assert checked == [math.comb(2 * dims + degree, degree)] * (4 * dims)


def _reference_bracket(f, g):
    """(f * g - g * f) / (i hbar) from two full star products."""
    return _shift_hbar(star(f, g) - star(g, f), -1).scale(CRat(im=Fraction(-1)))


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
    out = classical_limit_sweep(x * x * x, p * p * p, seed=7)
    for rec in out["records"]:
        assert rec["max_abs_err"] == pytest.approx(1.5 * rec["hbar"] ** 2, rel=1e-12)
    assert out["slope"] == pytest.approx(2.0, abs=1e-10)
    assert out["exact"] is False


def test_classical_limit_sweep_evaluates_the_poisson_bracket_once_per_point(monkeypatch):
    """The hbar-free Poisson bracket is evaluated at each of the 25 points
    once, not once per hbar, and the records are those of the per-hbar loop."""
    x, p = _x(), _p()
    f, g = x * x * x, p * p * p
    hbars = (1e-1, 1e-2, 1e-3)
    mb, pb = moyal_bracket(f, g), poisson_bracket(f, g)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(25, 2))
    want = []
    for hb in hbars:
        errs = [abs(mb.evaluate(r[:1], r[1:], hb) - pb.evaluate(r[:1], r[1:], 0.0)) for r in pts]
        want.append({"hbar": hb, "max_abs_err": float(np.max(errs))})
    calls = collections.Counter()
    genuine = PhasePolynomial.evaluate

    def counted(self, xs, ps, hbar):
        calls[hbar == 0.0] += 1
        return genuine(self, xs, ps, hbar)

    monkeypatch.setattr(PhasePolynomial, "evaluate", counted)
    out = classical_limit_sweep(f, g, seed=7, hbar_values=hbars)
    assert out["records"] == want
    assert calls == {True: 25, False: 75}


def test_classical_limit_sweep_keeps_nan_error():
    x, p = _x(), _p()
    out = classical_limit_sweep(x * x * x, p * p * p, seed=7, hbar_values=(math.nan, 1e-2, 1e-3))
    assert math.isnan(out["records"][0]["max_abs_err"])
    assert math.isnan(out["slope"])


def test_classical_limit_sweep_quadratic_has_no_corrections():
    x, p = _x(), _p()
    out = classical_limit_sweep(x * x, p * p, seed=7)
    assert all(r["max_abs_err"] == 0.0 for r in out["records"])
    assert (out["slope"], out["exact"]) == (None, True)


def test_classical_limit_sweep_sees_a_correction_that_rounds_to_zero():
    # {x^4, p^4} = 16 x^3 p^3 - 24 x p hbar^2: at these hbar the correction is lost in rounding
    x, p = _x(), _p()
    out = classical_limit_sweep(x * x * x * x, p * p * p * p, seed=7, hbar_values=(1e-30, 1e-20))
    assert all(r["max_abs_err"] == 0.0 for r in out["records"])
    assert (out["slope"], out["exact"]) == (None, False)


# ---------------------------------------------------------------------------
# quadratic covariance
# ---------------------------------------------------------------------------


# checked = 2 orders x d (2d + 1) quadratics x basis size: 2 x 3 x 15, 2 x 10 x 35 and 2 x 21 x 28
@pytest.mark.parametrize(("dims", "degree", "checked"), [(1, 4, 90), (2, 3, 700), (3, 2, 1176)])
def test_quadratic_covariance_on_monomial_basis(dims, degree, checked):
    """Every quadratic's Moyal bracket with every basis monomial, in both
    orders, is its Poisson bracket."""
    assert harmonic_evolution_check(dims, degree) == {"checked": checked, "exact": True, "failing": 0}


@pytest.mark.parametrize(("dims", "degree"), [(1, 4), (2, 2)])
def test_covariance_check_takes_two_brackets_per_quadratic_over_the_per_case_term_pairs(monkeypatch, dims, degree):
    """The banded check makes one Moyal and one Poisson bracket per quadratic
    and order, and its Moyal brackets expand the same monomial key pairs,
    with the same multiplicities, as a loop over single (Q, m, order) cases."""
    variables = [PhasePolynomial.variable(dims, kind, axis) for kind in "xp" for axis in range(1, dims + 1)]
    quadratics = [a * b for a, b in itertools.combinations_with_replacement(variables, 2)]
    expansions = []
    genuine = star_product._monomial_star
    monkeypatch.setattr(star_product, "_monomial_star", lambda f, g: expansions.append((f, g)) or genuine(f, g))
    for q in quadratics:
        for m in monomial_basis(dims, degree):
            moyal_bracket(q, m), moyal_bracket(m, q)
    per_case = collections.Counter(expansions)
    expansions.clear()
    calls = collections.Counter()
    monkeypatch.setattr(star_product, "moyal_bracket", lambda f, g: calls.update(["moyal"]) or moyal_bracket(f, g))
    monkeypatch.setattr(
        star_product, "poisson_bracket", lambda f, g: calls.update(["poisson"]) or poisson_bracket(f, g)
    )
    assert harmonic_evolution_check(dims, degree)["exact"] is True
    assert calls == {"moyal": 2 * len(quadratics), "poisson": 2 * len(quadratics)}
    assert collections.Counter(expansions) == per_case
