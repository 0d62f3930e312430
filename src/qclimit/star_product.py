"""Exact deformation quantization on polynomial observables.

Polynomials in (x_1..x_d, p_1..p_d, hbar) are stored in integers: one
positive common denominator and, per exponent tuple, the integer numerators
(re, im) of a Gaussian-rational coefficient.  The form is canonical (zero
terms dropped, denominator and numerators reduced by their gcd), so sums,
products, brackets, limits, equality and hashing all stay in integers and
nothing is rounded.  Gaussian rationals (`CRat`) appear only at the edges:
the read-only `terms` view, parsing, printing and float evaluation.  sympy
appears only at the text boundary, to parse user-supplied expressions.

The product implemented is

    f * g = sum over multi-indices a, b of
            (i hbar / 2)^(|a|+|b|) (-1)^|b| / (a! b!)
            (d_x^a d_p^b f) (d_p^a d_x^b g)

whose antisymmetric part, divided by i hbar, reduces to the Poisson bracket
as hbar -> 0.  On monomials the sum closes (Groenewold 1946; Moyal 1949):
on one axis

    x^a p^b * x^c p^d = sum over j, l of
            (i hbar / 2)^(j+l) (-1)^l C(a, j) (d)_j C(b, l) (c)_l
            x^(a-j+c-l) p^(b-l+d-j)

with (d)_j = d! / (d-j)!; over several axes the product of two monomials
is the product of the per-axis sums.  `star` applies this to every pair of
terms, accumulating integer numerators over the common denominator
D_f D_g 2^top, with D_f, D_g the stored denominators and top a bound on the
order n = |a| + |b|.

The order-n term changes sign as (-1)^n when f and g swap, so f * g - g * f
is twice the odd-order part of f * g: Moyal's sine bracket.
`moyal_bracket` therefore takes one pass over the odd orders of f * g
instead of forming both products.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from qclimit.hilbert import _rk4


@dataclass(frozen=True)
class CRat:
    """Gaussian rational: exact complex number with Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "CRat") -> "CRat":
        return CRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRat") -> "CRat":
        return CRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CRat") -> "CRat":
        return CRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def times_i(self) -> "CRat":
        return CRat(-self.im, self.re)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def scale(self, q: Fraction) -> "CRat":
        return CRat(self.re * q, self.im * q)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


CRAT_ZERO = CRat()
CRAT_ONE = CRat(Fraction(1))


def _numerators(c: CRat, den: int) -> tuple:
    """(re, im) of c as integers over den, a common multiple of their denominators."""
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)


def _add_into(acc: dict, key: tuple, re: int, im: int) -> None:
    old = acc.get(key)
    acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)


def _reduce(den: int, nums: dict) -> tuple:
    """(den / g, every nonzero (re, im) / g), with g = gcd(den, every numerator)."""
    g = math.gcd(den, *itertools.chain.from_iterable(nums.values()))
    return den // g, {k: (re // g, im // g) for k, (re, im) in nums.items() if re or im}


class _Terms(Mapping):
    """Read-only key -> CRat view of stored numerators over one denominator."""

    __slots__ = ("_den", "_nums")

    def __init__(self, den: int, nums: dict):
        self._den, self._nums = den, nums

    def __getitem__(self, key) -> CRat:
        re, im = self._nums[key]
        return CRat(Fraction(re, self._den), Fraction(im, self._den))

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, key) -> bool:
        return key in self._nums


class PhasePolynomial:
    """Polynomial in d position variables, d momentum variables, and hbar.

    Keys are exponent tuples (x_1..x_d, p_1..p_d, hbar).  The coefficient of
    key k is (nums[k][0] + i nums[k][1]) / den, kept canonical: den > 0, no
    zero (0, 0) pair stored, and gcd(den, every numerator) == 1, so the zero
    polynomial has den == 1 and equal polynomials have equal storage.
    `terms` is a read-only key -> CRat view of the coefficients.
    """

    __slots__ = ("dims", "den", "nums")

    def __init__(self, dims: int, terms: dict | None = None):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        terms = terms or {}
        width = 2 * dims + 1
        for key in terms:
            if len(key) != width or any(e < 0 for e in key):
                raise ValueError(f"bad exponent key {key} for dims={dims}")
        den = math.lcm(*(q.denominator for c in terms.values() for q in (c.re, c.im)))
        self.dims = dims
        self.den, self.nums = _reduce(
            den, {tuple(key): _numerators(c, den) for key, c in terms.items()}
        )

    @classmethod
    def _of(cls, dims: int, den: int, nums: dict) -> "PhasePolynomial":
        """From integer (re, im) numerators over den > 0, reduced to canonical form."""
        poly = object.__new__(cls)
        poly.dims = dims
        poly.den, poly.nums = _reduce(den, nums)
        return poly

    @property
    def terms(self) -> "_Terms":
        return _Terms(self.den, self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dims: int) -> "PhasePolynomial":
        return cls(dims)

    @classmethod
    def constant(cls, dims: int, value: CRat) -> "PhasePolynomial":
        return cls(dims, {(0,) * (2 * dims + 1): value})

    @classmethod
    def one(cls, dims: int) -> "PhasePolynomial":
        return cls.constant(dims, CRAT_ONE)

    @classmethod
    def variable(cls, dims: int, kind: str, axis: int = 1) -> "PhasePolynomial":
        if kind not in ("x", "p", "hbar"):
            raise ValueError("kind must be 'x', 'p', or 'hbar'")
        if kind != "hbar" and not 1 <= axis <= dims:
            raise ValueError(f"axis {axis} out of range for dims={dims}")
        key = [0] * (2 * dims + 1)
        if kind == "x":
            key[axis - 1] = 1
        elif kind == "p":
            key[dims + axis - 1] = 1
        else:
            key[-1] = 1
        return cls(dims, {tuple(key): CRAT_ONE})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "PhasePolynomial") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    def _plus(self, other: "PhasePolynomial", sign: int) -> "PhasePolynomial":
        """self + sign * other over lcm(self.den, other.den)."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {key: (re * a, im * a) for key, (re, im) in self.nums.items()}
        for key, (re, im) in other.nums.items():
            _add_into(out, key, re * b, im * b)
        return PhasePolynomial._of(self.dims, den, out)

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "PhasePolynomial":
        return PhasePolynomial._of(
            self.dims, self.den, {k: (-re, -im) for k, (re, im) in self.nums.items()}
        )

    def __mul__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        self._check(other)
        out = {}
        for k1, (r1, i1) in self.nums.items():
            for k2, (r2, i2) in other.nums.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                _add_into(out, key, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        return PhasePolynomial._of(self.dims, self.den * other.den, out)

    def scale(self, coeff: CRat) -> "PhasePolynomial":
        c_den = math.lcm(coeff.re.denominator, coeff.im.denominator)
        cr, ci = _numerators(coeff, c_den)
        return PhasePolynomial._of(
            self.dims,
            self.den * c_den,
            {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self.nums.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhasePolynomial)
            and self.dims == other.dims
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.dims, self.den, frozenset(self.nums.items())))

    @property
    def is_zero(self) -> bool:
        return not self.nums

    # -- calculus ----------------------------------------------------------

    def diff(self, slot: int) -> "PhasePolynomial":
        """Derivative with respect to exponent slot (0-based key position)."""
        out = {}
        for key, (re, im) in self.nums.items():
            e = key[slot]
            if e:
                out[key[:slot] + (e - 1,) + key[slot + 1 :]] = (re * e, im * e)
        return PhasePolynomial._of(self.dims, self.den, out)

    def degree_in(self, slot: int) -> int:
        return max((k[slot] for k in self.nums), default=0)

    def shift_hbar(self, amount: int) -> "PhasePolynomial":
        if any(k[-1] + amount < 0 for k in self.nums):
            raise ValueError("negative hbar exponent")
        return PhasePolynomial._of(
            self.dims, self.den, {k[:-1] + (k[-1] + amount,): v for k, v in self.nums.items()}
        )

    def substitute_hbar(self, value: Fraction) -> "PhasePolynomial":
        """Replace the deformation symbol by an exact rational value."""
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        top = self.degree_in(2 * self.dims)
        out = {}
        # (re / den) (p / q)^e = re p^e q^(top - e) / (den q^top)
        for key, (re, im) in self.nums.items():
            w = p ** key[-1] * q ** (top - key[-1])
            _add_into(out, key[:-1] + (0,), re * w, im * w)
        return PhasePolynomial._of(self.dims, self.den * q**top, out)

    def evaluate(self, xs, ps, hbar: float) -> complex:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        if xs.shape != (self.dims,) or ps.shape != (self.dims,):
            raise ValueError("evaluation point has wrong dimension")
        total = 0.0 + 0.0j
        for key, (re, im) in self.nums.items():
            # int / int rounds correctly, as float(Fraction(re, den)) does
            val = complex(re / self.den, im / self.den)
            for i in range(self.dims):
                val *= xs[i] ** key[i] * ps[i] ** key[self.dims + i]
            val *= hbar ** key[-1]
            total += val
        return total

    # -- text form ---------------------------------------------------------

    def _var_name(self, slot: int) -> str:
        if slot == 2 * self.dims:
            return "hbar"
        if self.dims == 1:
            return "x" if slot == 0 else "p"
        if slot < self.dims:
            return f"x{slot + 1}"
        return f"p{slot - self.dims + 1}"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            factors = []
            for slot, e in enumerate(key):
                if e == 1:
                    factors.append(self._var_name(slot))
                elif e > 1:
                    factors.append(f"{self._var_name(slot)}^{e}")
            cs = _format_crat(self.terms[key])
            body = "*".join(factors)
            if not body:
                pieces.append(cs)
            elif cs == "1":
                pieces.append(body)
            elif cs == "-1":
                pieces.append("-" + body)
            else:
                pieces.append(f"{cs}*{body}")
        return " + ".join(pieces).replace(" + -", " - ")

    def __repr__(self):
        return f"PhasePolynomial({self.dims}, {self.to_text()})"


def _format_crat(c: CRat) -> str:
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    return f"({c.re}{'+' if c.im > 0 else '-'}{abs(c.im)}*i)"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def from_text(dims: int, text: str) -> PhasePolynomial:
    """Parse an expression in x/p (or x1..xd, p1..pd), hbar, and i."""
    import sympy

    symbols = {}
    gens = []
    for i in range(1, dims + 1):
        xs = sympy.Symbol(f"x{i}")
        ps = sympy.Symbol(f"p{i}")
        symbols[f"x{i}"], symbols[f"p{i}"] = xs, ps
        gens.extend([xs, ps])
    if dims == 1:
        symbols["x"], symbols["p"] = symbols["x1"], symbols["p1"]
    hb = sympy.Symbol("hbar")
    symbols["hbar"] = hb
    symbols["i"] = sympy.I
    symbols["I"] = sympy.I
    gens.append(hb)
    from sympy.parsing.sympy_parser import convert_xor, standard_transformations

    try:
        expr = sympy.parse_expr(
            text,
            local_dict=symbols,
            transformations=standard_transformations + (convert_xor,),
        )
        poly = sympy.Poly(sympy.expand(expr), *gens, domain="QQ_I")
    except Exception as exc:
        raise ValueError(f"cannot parse {text!r} as a phase-space polynomial: {exc}") from exc

    terms = {}
    for exps, coeff in poly.terms():
        re, im = sympy.sympify(coeff).as_real_imag()
        # generator order is x1, p1, x2, p2, ..., hbar; key order is all x then all p
        key = [0] * (2 * dims + 1)
        for i in range(dims):
            key[i] = exps[2 * i]
            key[dims + i] = exps[2 * i + 1]
        key[-1] = exps[-1]
        terms[tuple(key)] = CRat(
            Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
        )
    return PhasePolynomial(dims, terms)


# ---------------------------------------------------------------------------
# star product and brackets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _axis_star(a: int, b: int, c: int, d: int) -> tuple:
    """x^a p^b * x^c p^d on one axis, without the factor (i hbar / 2)^n.

    Entries are (x exponent, p exponent, order n = j + l, integer
    (-1)^l C(a, j) (d)_j C(b, l) (c)_l), with (d)_j the falling factorial.
    """
    return tuple(
        (
            a - j + c - l,
            b - l + d - j,
            j + l,
            (-1) ** l * math.comb(a, j) * math.perm(d, j) * math.comb(b, l) * math.perm(c, l),
        )
        for j in range(min(a, d) + 1)
        for l in range(min(b, c) + 1)
    )


@lru_cache(maxsize=1 << 12)
def _monomial_star(f_xp: tuple, g_xp: tuple, odd_only: bool) -> tuple:
    """Per-axis expansions of two hbar-free keys multiplied across axes:
    (x and p exponents, n, integer), keeping only odd n if odd_only."""
    dims = len(f_xp) // 2
    out = [((), (), 0, 1)]
    for axis in range(dims):
        table = _axis_star(f_xp[axis], f_xp[dims + axis], g_xp[axis], g_xp[dims + axis])
        out = [
            (xs + (xe,), ps + (pe,), n + m, c * e)
            for xs, ps, n, c in out
            for xe, pe, m, e in table
        ]
    return tuple((xs + ps, n, c) for xs, ps, n, c in out if n & 1 or not odd_only)


def _star_numerators(f: PhasePolynomial, g: PhasePolynomial, odd_only: bool) -> tuple:
    """(numerators, den): the terms of f * g, or only its odd orders n, over
    den = D_f D_g 2^top, where top bounds the order n of every correction."""
    f._check(g)
    d = f.dims
    top = sum(
        min(f.degree_in(i), g.degree_in(d + i)) + min(f.degree_in(d + i), g.degree_in(i))
        for i in range(d)
    )
    g_terms = [(k[:-1], k[-1], re, im) for k, (re, im) in g.nums.items()]
    acc = {}
    for f_key, (fr, fi) in f.nums.items():
        f_xp = f_key[:-1]
        for g_xp, g_hbar, gr, gi in g_terms:
            re, im = fr * gr - fi * gi, fr * gi + fi * gr
            # (re + i im) * i^n, indexed by n mod 4
            turns = ((re, im), (-im, re), (-re, -im), (im, -re))
            hbar = f_key[-1] + g_hbar
            for xp, n, c in _monomial_star(f_xp, g_xp, odd_only):
                tr, ti = turns[n & 3]
                # (i hbar / 2)^n = i^n hbar^n 2^(top - n) / 2^top
                c <<= top - n
                key = xp + (hbar + n,)
                entry = acc.get(key)
                if entry is None:
                    acc[key] = [c * tr, c * ti]
                else:
                    entry[0] += c * tr
                    entry[1] += c * ti
    return acc, (f.den * g.den) << top


def star(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Associative deformed product; noncommutative at order hbar."""
    nums, den = _star_numerators(f, g, odd_only=False)
    return PhasePolynomial._of(f.dims, den, nums)


def moyal_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """(f*g - g*f) / (i hbar), exact, as 2 (f*g)_odd / (i hbar) in one pass.

    Every odd-order term carries at least one hbar, so the division lowers
    the hbar exponent by one; (re + i im) * 2 / i = 2 im - 2 i re.
    """
    nums, den = _star_numerators(f, g, odd_only=True)
    return PhasePolynomial._of(
        f.dims, den, {k[:-1] + (k[-1] - 1,): (2 * im, -2 * re) for k, (re, im) in nums.items()}
    )


def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    f._check(g)
    d = f.dims
    out = PhasePolynomial.zero(d)
    for i in range(d):
        out = out + f.diff(i) * g.diff(d + i) - f.diff(d + i) * g.diff(i)
    return out


def monomial_basis(dims: int, max_degree: int):
    """All hbar-free monomials of total degree <= max_degree."""
    width = 2 * dims
    for exps in itertools.product(range(max_degree + 1), repeat=width):
        if sum(exps) <= max_degree:
            yield PhasePolynomial(dims, {tuple(exps) + (0,): CRAT_ONE})


def canonical_commutator_check(dims: int, max_degree: int) -> dict:
    """x_i * (p_i * m) - p_i * (x_i * m) == i hbar m for every basis monomial."""
    hbar = PhasePolynomial.variable(dims, "hbar")
    checked = 0
    worst_ok = True
    for axis in range(1, dims + 1):
        x = PhasePolynomial.variable(dims, "x", axis)
        p = PhasePolynomial.variable(dims, "p", axis)
        for m in monomial_basis(dims, max_degree):
            lhs = star(x, star(p, m)) - star(p, star(x, m))
            rhs = (hbar * m).scale(CRat(im=Fraction(1)))
            if lhs != rhs:
                worst_ok = False
            checked += 1
    return {"checked": checked, "exact": worst_ok}


# ---------------------------------------------------------------------------
# limits and flows
# ---------------------------------------------------------------------------


def classical_limit_sweep(f: PhasePolynomial, g: PhasePolynomial, hbar_values=(1e-1, 1e-2, 1e-3), seed: int = 7) -> dict:
    """Deviation of the deformed bracket from the Poisson bracket at 25
    points drawn from the box [-1, 1)^(2d), with the log-log convergence slope
    (2 when the first correction survives).  A NaN error at any hbar makes the
    slope NaN; with nonzero errors at fewer than two distinct hbar values the
    slope is None."""
    mb = moyal_bracket(f, g)
    pb = poisson_bracket(f, g)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(25, 2 * f.dims))
    records = []
    for hb in hbar_values:
        errs = []
        for row in pts:
            xs, ps = row[: f.dims], row[f.dims :]
            errs.append(abs(mb.evaluate(xs, ps, hb) - pb.evaluate(xs, ps, 0.0)))
        # np.max, unlike max(), propagates NaN
        records.append({"hbar": float(hb), "max_abs_err": float(np.max(errs))})
    usable = [(r["hbar"], r["max_abs_err"]) for r in records if r["max_abs_err"] > 0.0]
    slope = None
    if any(math.isnan(r["max_abs_err"]) for r in records):
        slope = math.nan
    elif len({h for h, _ in usable}) >= 2:
        hs, es = zip(*usable)
        slope = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    return {"records": records, "slope": slope}


def harmonic_evolution_check() -> dict:
    """Flow of x and p under H = (x^2 + p^2)/2 via the deformed bracket.

    For quadratic H the bracket closes exactly on span{x, p} with no hbar
    corrections, so the coefficients integrated to t = pi/4, pi/2 and pi, in
    RK4 steps of about 1e-3, must follow (cos t, sin t).
    """
    x = PhasePolynomial.variable(1, "x")
    p = PhasePolynomial.variable(1, "p")
    h = (x * x + p * p).scale(CRat(Fraction(1, 2)))

    mb_x = moyal_bracket(x, h)
    mb_p = moyal_bracket(p, h)
    quadratic_exact = mb_x == poisson_bracket(x, h) and mb_p == poisson_bracket(p, h)

    def coeffs_in_xp(poly):
        cx = poly.terms.get((1, 0, 0), CRAT_ZERO).to_complex()
        cp = poly.terms.get((0, 1, 0), CRAT_ZERO).to_complex()
        in_span = set(poly.terms) <= {(1, 0, 0), (0, 1, 0)}
        return cx, cp, in_span

    gx = coeffs_in_xp(mb_x)
    gp = coeffs_in_xp(mb_p)
    closes = gx[2] and gp[2]
    # generator matrix for d/dt (a, b) with x_t = a x + b p
    gen = np.array([[gx[0].real, gp[0].real], [gx[1].real, gp[1].real]])

    errors = []
    for t in (math.pi / 4, math.pi / 2, math.pi):
        steps = round(t / 1e-3)
        y = _rk4(gen, np.array([1.0, 0.0]), t / steps, steps, steps)[-1]
        errors += [abs(y[0] - math.cos(t)), abs(y[1] - math.sin(t))]
    # np.max, unlike max(), propagates NaN
    return {
        "quadratic_flow_has_no_corrections": quadratic_exact,
        "closes_on_linear_span": closes,
        "max_coefficient_error": np.max(errors),
    }
