"""Exact deformation quantization on polynomial observables.

Polynomials in (x_1..x_d, p_1..p_d, hbar) are stored in integers: one
positive common denominator and, per exponent tuple, the integer numerators
(re, im) of a Gaussian-rational coefficient.  The form is canonical (zero
terms dropped, denominator and numerators reduced by their gcd), so sums,
products, brackets, limits, equality and hashing all stay in integers and
nothing is rounded.  Gaussian rationals (`CRat`) appear only at the edges:
the read-only `terms` view and parsing.  User text is parsed by walking its
syntax tree on this same arithmetic.

The product implemented is

    f * g = sum over multi-indices a, b of
            (i hbar / 2)^(|a|+|b|) (-1)^|b| / (a! b!)
            (d_x^a d_p^b f) (d_p^a d_x^b g)

whose antisymmetric part, divided by i hbar, reduces to the Poisson bracket
as hbar -> 0.  On monomials the sum closes (Groenewold 1946; Moyal 1949):
on one axis every (j, l) with j + l = n lands on the same monomial, so

    x^a p^b * x^c p^d = sum over n of (i hbar / 2)^n x^(a+c-n) p^(b+d-n)
            sum over j + l = n of (-1)^l C(a, j) (d)_j C(b, l) (c)_l

with (d)_j = d! / (d-j)!; an order whose inner sum is zero is dropped.
Over several axes the product of two monomials is the product of the
per-axis sums.  `star` applies this to every pair of terms, accumulating
integer numerators over the common denominator D_f D_g 2^top, with D_f, D_g
the stored denominators and top = min(deg f, deg g) of the total degrees: an
order-n term takes n derivatives from each factor, so n <= top.

The order-n term changes sign as (-1)^n when f and g swap, so f * g - g * f
is twice the odd-order part of f * g: Moyal's sine bracket.
`moyal_bracket` therefore takes one pass over the odd orders of f * g
instead of forming both products.  Each pair of monomial keys is expanded
once and cached with its odd-order entries split out, so `star` and
`moyal_bracket` share one cache entry per pair.  Two caches hold them.  The
per-axis cache (16,384 entries) holds every one-axis table, and so the whole
expansion of every 1D key pair.  Pairs over several axes have a cache of
their own (4,096 entries).  Each is built from the per-axis tables of its
coupled axes only, those where x of one key meets p of the other.  So the
many new pairs of a 3D product never evict a 1D expansion.

The exact law checks batch many products into one call in hbar bands
(Kronecker substitution on the exponent of hbar; Harvey, J. Symb. Comput.
44, 2009).  Give an x, p term of degree d with hbar^h the weight d + 2h.  The
order-n term of a product takes n derivatives from each factor and adds
hbar^n, so weights add: f * g holds hbar^e only for e <= (weight f + weight
g) // 2, and a bracket one power less.  hbar is central and the product
bilinear, so if part k of a sum is multiplied by hbar^(width k) and no
part's own result reaches hbar^width, then band k of the summed result (the
hbar exponents width k to width (k + 1) - 1) is part k's own result, shifted.
`_banded` builds such a sum and refuses a part that could reach the next
band.  A check takes width = (w + v) // 2 + 1 from the largest weight w of
the basis it tags and v of what meets it, the least width that guard admits.
A failing part leaves a nonzero band of its own, so a check counts the
nonzero bands of a difference to count its failing cases.

Three exact laws run on whole monomial bases this way: associativity with
the bracket's antisymmetry and Jacobi identity, the canonical commutator,
and quadratic covariance, {Q, m} = {Q, m}_PB for every quadratic Q and
monomial m.  The first two hold for every product equivalent to this one,
f *' g = T^-1(Tf * Tg) with T = exp(hbar^2 d_x^2 d_p^2), say (Bayen et al.,
Ann. Phys. 111, 1978); the third holds for Moyal's product and not for that
one.
"""

from __future__ import annotations

import ast
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np


@dataclass(frozen=True)
class CRat:
    """Gaussian rational: exact complex number with Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)


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
        if not self.nums:
            return "0"
        den = self.den
        written = {}  # numerators repeat across terms, so each is written once

        def part(n: int) -> str:
            """n / den in lowest terms, as str(Fraction(n, den)) writes it."""
            text = written.get(n)
            if text is None:
                g = math.gcd(n, den)
                text = written[n] = str(n // g) if g == den else f"{n // g}/{den // g}"
            return text

        # factors[slot][e]: the factor for exponent e >= 1 of the slot
        top = max(map(max, self.nums))
        factors = [
            ["", name] + [f"{name}^{e}" for e in range(2, top + 1)]
            for name in map(self._var_name, range(2 * self.dims + 1))
        ]
        keys = sorted(self.nums)
        keys.sort(key=sum)  # stable: by total degree, then by key
        pieces = []
        for key in keys:
            body = "*".join([names[e] for names, e in zip(factors, key) if e])
            re, im = self.nums[key]
            if not im:
                cs = part(re)
            elif not re:
                cs = "i" if im == den else "-i" if im == -den else f"{part(im)}*i"
            else:
                cs = f"({part(re)}{'+' if im > 0 else '-'}{part(abs(im))}*i)"
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


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# Total degree bound, hbar counted: star-bracket on (x+p+hbar+1)^10, (x-p+hbar+1)^10 runs 0.65 s
# wall on 2 CPUs, of which one moyal_bracket is 0.25 s.
MAX_DEGREE = 10
# longest piece of the input text that a parse error quotes
QUOTE_CHARS = 60


def _quote(text: str) -> str:
    """repr of text, cut to QUOTE_CHARS characters with '...' marking a cut."""
    return repr(text) if len(text) <= QUOTE_CHARS else repr(text[:QUOTE_CHARS]) + "..."


def from_text(dims: int, text: str) -> PhasePolynomial:
    """Parse a polynomial in x/p (or x1..xd, p1..pd), hbar and i (or I).

    The Python syntax tree of the text, with ^ as **, is walked and never
    evaluated: +, -, *, unary signs, powers by an int literal, division by a
    nonzero constant, ints and exact decimals (0.1 is 1/10).  Anything else,
    or a product or power of total degree over MAX_DEGREE, is a ValueError."""
    names = {f"{v}{axis}": PhasePolynomial.variable(dims, v, axis) for v in "xp" for axis in range(1, dims + 1)}
    names.update({"x": names["x1"], "p": names["p1"]} if dims == 1 else {}, hbar=PhasePolynomial.variable(dims, "hbar"))
    names["i"] = names["I"] = PhasePolynomial.constant(dims, CRat(im=Fraction(1)))
    source = text.replace("^", "**").strip()

    def product(a: PhasePolynomial, b: PhasePolynomial) -> PhasePolynomial:
        total = sum(max(map(sum, poly.nums), default=0) for poly in (a, b))
        if total > MAX_DEGREE:
            raise ValueError(f"degree {total} exceeds MAX_DEGREE = {MAX_DEGREE}")
        return a * b

    def walk(node) -> PhasePolynomial:
        op = type(getattr(node, "op", None))
        if isinstance(node, ast.BinOp) and op is ast.Pow:
            if type(n := getattr(node.right, "value", None)) is not int or not 0 <= n <= MAX_DEGREE:
                raise ValueError(f"an exponent must be an integer literal in [0, {MAX_DEGREE}]")
            return reduce(product, [walk(node.left)] * n, PhasePolynomial.one(dims))
        if isinstance(node, ast.BinOp) and op in (ast.Add, ast.Sub, ast.Mult, ast.Div):
            a, b = walk(node.left), walk(node.right)
            if op is not ast.Div:
                return {ast.Add: PhasePolynomial.__add__, ast.Sub: PhasePolynomial.__sub__, ast.Mult: product}[op](a, b)
            if set(b.nums) != {(0,) * (2 * dims + 1)}:
                raise ValueError("a divisor must be a nonzero constant")
            [(re, im)] = b.nums.values()  # b = (re + i im) / den, so 1 / b = den (re - i im) / (re^2 + im^2)
            return a.scale(CRat(Fraction(b.den * re, re * re + im * im), Fraction(-b.den * im, re * re + im * im)))
        if isinstance(node, ast.UnaryOp) and op in (ast.UAdd, ast.USub):
            return -walk(node.operand) if op is ast.USub else walk(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            literal = ast.get_source_segment(source, node) if type(node.value) is float else str(node.value)
            if len(literal.lower().partition("e")[2].lstrip("+-")) > 3:  # Fraction(literal) builds 10^exponent
                raise ValueError(f"{_quote(literal)}: a decimal exponent has at most three digits")
            return PhasePolynomial.constant(dims, CRat(Fraction(literal)))
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        raise ValueError(f"{_quote(ast.get_source_segment(source, node))} is outside the polynomial grammar")

    try:
        return walk(ast.parse(source, mode="eval").body)
    except (SyntaxError, RecursionError, ValueError) as exc:
        raise ValueError(f"cannot parse {_quote(text)} as a phase-space polynomial: {exc}") from exc


# ---------------------------------------------------------------------------
# star product and brackets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _axis_star(a: int, b: int, c: int, d: int) -> tuple:
    """x^a p^b * x^c p^d on one axis, without the factor (i hbar / 2)^n, as
    (every entry, the odd-order entries).

    Entries are ((a+c-n, b+d-n), order n, integer sum over j + l = n of
    (-1)^l C(a, j) (d)_j C(b, l) (c)_l), with (d)_j the falling factorial, in
    ascending n; orders whose sum is zero are dropped.  The order-0 entry is
    always there, with sum 1, and it is the only one unless the axis couples
    x to p (a and d, or b and c).
    """
    sums = {}
    for j in range(min(a, d) + 1):
        for l in range(min(b, c) + 1):
            term = (-1) ** l * math.comb(a, j) * math.perm(d, j) * math.comb(b, l) * math.perm(c, l)
            sums[j + l] = sums.get(j + l, 0) + term
    out = tuple([((a + c - n, b + d - n), n, s) for n, s in sums.items() if s])
    return out, tuple([entry for entry in out if entry[1] & 1])


@lru_cache(maxsize=1 << 12)
def _multi_axis_star(f_xp: tuple, g_xp: tuple) -> tuple:
    """_monomial_star over two or more axes: the product of the per-axis
    sums.  Every axis's order-0 entry is 1, so the product starts from the
    summed key at order 0 with coefficient 1.  An axis without x-p coupling
    has that entry alone; each coupled axis adds, after every entry built so
    far, one entry per order m >= 1 of its table, its x and p exponents
    lowered by m."""
    dims = len(f_xp) // 2
    out = [([e + h for e, h in zip(f_xp, g_xp)], 0, 1)]
    for axis, a, c, b, d in zip(range(dims), f_xp, g_xp, f_xp[dims:], g_xp[dims:]):
        if a and d or b and c:
            table = _axis_star(a, b, c, d)[0][1:]
            grown = []
            for key, n, s in out:
                grown.append((key, n, s))
                for (xe, pe), m, e in table:
                    lowered = key.copy()
                    lowered[axis], lowered[dims + axis] = xe, pe
                    grown.append((lowered, n + m, s * e))
            out = grown
    out = tuple([(tuple(key), n, s) for key, n, s in out])
    return out, tuple([entry for entry in out if entry[1] & 1])


def _monomial_star(f_xp: tuple, g_xp: tuple) -> tuple:
    """The expansion of two hbar-free keys, as (every entry, the odd-order
    entries), each entry (x and p exponents, n, integer), over the product of
    the per-axis sums; `star` and `moyal_bracket` share one cache entry per
    key pair.  One axis reads _axis_star's cache, several read their own, so
    that multi-axis pairs never evict one-axis ones."""
    if len(f_xp) == 2:
        return _axis_star(*f_xp, *g_xp)
    return _multi_axis_star(f_xp, g_xp)


def _star_numerators(f: PhasePolynomial, g: PhasePolynomial, odd_only: bool) -> tuple:
    """(numerators, den): the terms of f * g, or only its odd orders n, over
    den = D_f D_g 2^top, where top bounds the order n of every correction."""
    f._check(g)
    top = min(max(map(sum, f.nums), default=0), max(map(sum, g.nums), default=0))
    g_terms = [(k[:-1], k[-1], re, im) for k, (re, im) in g.nums.items()]
    acc = {}
    expand, get = _monomial_star, acc.get
    for f_key, (fr, fi) in f.nums.items():
        f_xp, f_hbar = f_key[:-1], f_key[-1]
        for g_xp, g_hbar, gr, gi in g_terms:
            re, im = fr * gr - fi * gi, fr * gi + fi * gr
            hbar = f_hbar + g_hbar
            # index 1 (True) picks the odd-order entries
            for xp, n, c in expand(f_xp, g_xp)[odd_only]:
                # (i hbar / 2)^n = i^n hbar^n 2^(top - n) / 2^top, with i^n = (-1)^(n // 2) i^(n % 2)
                c = -(c << (top - n)) if n & 2 else c << (top - n)
                key = xp + (hbar + n,)
                entry = get(key)
                # c i^(n % 2) (re + i im)
                if n & 1:
                    tr, ti = -c * im, c * re
                else:
                    tr, ti = c * re, c * im
                if entry is None:
                    acc[key] = [tr, ti]
                else:
                    entry[0] += tr
                    entry[1] += ti
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


def _weight(poly: PhasePolynomial) -> int:
    """Largest x, p degree plus twice the hbar exponent over the terms of
    poly; weights add under the product."""
    return max((sum(key) + key[-1] for key in poly.nums), default=0)


def _banded(parts, width: int, other_weight: int) -> PhasePolynomial:
    """Sum of hbar^(width k) part over the (k, part) pairs: one operand that
    multiplies every part by untagged polynomials of total weight <=
    other_weight in a single product or bracket, each part's result in its
    own band.  A part whose result could hold hbar^width, and so reach the
    next band, raises ValueError."""
    parts = list(parts)
    den = math.lcm(*(part.den for _, part in parts))
    nums = {}
    for band, part in parts:
        if (reach := (_weight(part) + other_weight) // 2) >= width:
            raise ValueError(f"band {band} could reach hbar^{reach}, past its width {width}")
        scale = den // part.den
        for key, (re, im) in part.nums.items():
            nums[key[:-1] + (key[-1] + width * band,)] = (re * scale, im * scale)
    return PhasePolynomial._of(parts[0][1].dims, den, nums)


def _nonzero_bands(poly: PhasePolynomial, width: int) -> int:
    """Number of bands of `width` hbar exponents in which poly has a term."""
    return len({key[-1] // width for key in poly.nums})


def monomial_basis(dims: int, max_degree: int):
    """All hbar-free monomials of total degree <= max_degree, in the order of
    itertools.product over the exponents: each slot runs over what the slots
    before it leave of max_degree."""
    keys = [()]
    for _ in range(2 * dims):
        keys = [key + (e,) for key in keys for e in range(max_degree - sum(key) + 1)]
    return (PhasePolynomial._of(dims, 1, {key + (0,): (1, 0)}) for key in keys)


def canonical_commutator_check(dims: int, max_degree: int) -> dict:
    """x_i * (p_i * m) - p_i * (x_i * m) == i hbar m for every axis i and basis
    monomial m, with the count of failing (axis, monomial) cases.

    Monomial t runs in hbar band t, so each axis takes four products of one
    banded sum, over the same term pairs as four products per monomial."""
    basis = list(monomial_basis(dims, max_degree))
    i_hbar = PhasePolynomial._of(dims, 1, {(0,) * (2 * dims) + (1,): (0, 1)})
    width = (max(map(_weight, basis)) + 2) // 2 + 1  # x_i and p_i, of weight 1 each, meet every monomial
    tagged = _banded(enumerate(basis), width, 2)
    failing = 0
    for axis in range(1, dims + 1):
        x = PhasePolynomial.variable(dims, "x", axis)
        p = PhasePolynomial.variable(dims, "p", axis)
        failing += _nonzero_bands(star(x, star(p, tagged)) - star(p, star(x, tagged)) - i_hbar * tagged, width)
    return {"checked": dims * len(basis), "exact": not failing, "failing": failing}


def associativity_jacobi_check(max_degree: int) -> dict:
    """(a * b) * c == a * (b * c) on every ordered triple, {a, b} == -{b, a}
    on every ordered pair and the Jacobi cyclic sum on every triple of
    distinct 1D basis monomials, which by trilinearity covers all polynomials
    of degree <= max_degree, with the count of failing cases.  Pair (i, j)
    compares (e_i * e_j) * sum_k hbar^(width k) e_k with e_i * sum_k
    hbar^(width k) (e_j * e_k); triple t's three inner brackets sit in band t."""
    basis = list(monomial_basis(1, max_degree))
    weight = max(map(_weight, basis))
    width = (weight + 2 * weight) // 2 + 1  # the tagged basis meets pair products
    tagged_basis = _banded(enumerate(basis), width, 2 * weight)
    n = len(basis)
    pairs = list(itertools.product(range(n), repeat=2))
    prod = {(i, j): star(basis[i], basis[j]) for i, j in pairs}
    bracket = {(i, j): moyal_bracket(basis[i], basis[j]) for i, j in pairs}
    failing = 0
    for j in range(n):
        tagged_row = _banded(((k, prod[j, k]) for k in range(n)), width, weight)
        for i in range(n):
            left = star(prod[i, j], tagged_basis)
            right = star(basis[i], tagged_row)
            if left != right:
                failing += _nonzero_bands(left - right, width)
    failing += sum(bracket[i, j] != -bracket[j, i] for i, j in pairs)
    # an antisymmetric bracket makes the cyclic sum alternating, so sorted distinct triples suffice
    inner = [[] for _ in basis]
    for t, (i, j, k) in enumerate(itertools.combinations(range(n), 3)):
        inner[i].append((t, bracket[j, k]))
        inner[j].append((t, bracket[k, i]))
        inner[k].append((t, bracket[i, j]))
    cyclic = sum((moyal_bracket(basis[a], _banded(inner[a], width, weight)) for a in range(n)), PhasePolynomial.zero(1))
    failing += _nonzero_bands(cyclic, width)
    return {"checked": n**3 + n**2 + math.comb(n, 3), "exact": not failing, "failing": failing}


def harmonic_evolution_check(dims: int, max_degree: int) -> dict:
    """{Q, m} == {Q, m}_PB and {m, Q} == {m, Q}_PB exactly, with no hbar
    correction, for every quadratic Q (x_i x_j, x_i p_j and p_i p_j) and
    every basis monomial m, with the count of failing (Q, m, order) cases.

    A quadratic Hamiltonian moves every observable along its classical flow:
    this covariance under linear symplectic maps singles out Moyal's product
    among the equivalent ones (Folland, Harmonic Analysis in Phase Space,
    1989), which the other laws cannot tell apart.  The two orders read
    different monomial key pairs, so both are checked.  Monomial t runs in
    hbar band t, so each Q takes one bracket per order."""
    basis = list(monomial_basis(dims, max_degree))
    width = (max(map(_weight, basis)) + 2) // 2 + 1  # every quadratic, of weight 2, meets every monomial
    tagged = _banded(enumerate(basis), width, 2)
    variables = [PhasePolynomial.variable(dims, kind, axis) for kind in "xp" for axis in range(1, dims + 1)]
    quadratics = [a * b for a, b in itertools.combinations_with_replacement(variables, 2)]
    failing = 0
    for q in quadratics:
        failing += _nonzero_bands(moyal_bracket(q, tagged) - poisson_bracket(q, tagged), width)
        failing += _nonzero_bands(moyal_bracket(tagged, q) - poisson_bracket(tagged, q), width)
    return {"checked": 2 * len(quadratics) * len(basis), "exact": not failing, "failing": failing}


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------


def classical_limit_sweep(f: PhasePolynomial, g: PhasePolynomial, seed: int, hbar_values=(1e-1, 1e-2, 1e-3)) -> dict:
    """Deviation of the deformed bracket from the Poisson bracket at 25
    points drawn from the box [-1, 1)^(2d), with the log-log convergence slope
    (2 when the first correction survives).  A NaN error at any hbar makes the
    slope NaN; with nonzero errors at fewer than two distinct hbar values the
    slope is None.  `exact` says whether the deformed bracket is the Poisson
    bracket, compared exactly, since a correction can round to 0 at small
    hbar."""
    mb = moyal_bracket(f, g)
    pb = poisson_bracket(f, g)
    rng = np.random.default_rng(seed)
    pts = [(row[: f.dims], row[f.dims :]) for row in rng.uniform(-1.0, 1.0, size=(25, 2 * f.dims))]
    classical = [pb.evaluate(xs, ps, 0.0) for xs, ps in pts]  # hbar-free: once per point
    records = []
    for hb in hbar_values:
        errs = [abs(mb.evaluate(xs, ps, hb) - c) for (xs, ps), c in zip(pts, classical)]
        # np.max, unlike max(), propagates NaN
        records.append({"hbar": float(hb), "max_abs_err": float(np.max(errs))})
    usable = [(r["hbar"], r["max_abs_err"]) for r in records if r["max_abs_err"] > 0.0]
    slope = None
    if any(math.isnan(r["max_abs_err"]) for r in records):
        slope = math.nan
    elif len({h for h, _ in usable}) >= 2:
        hs, es = zip(*usable)
        slope = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    return {"records": records, "slope": slope, "exact": mb == pb}
