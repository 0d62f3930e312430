"""Unitary representation on a truncated Fock space, with a 1D position-grid
backend for cross-validation.

Conventions, fixed once and used everywhere:

- per mode, X = (a + a*)/sqrt(2), P = (a - a*)/(i sqrt(2)), so [X, P] = i
  away from the truncation edge and a coherent label (p, x) means
  alpha = (x + i p)/sqrt(2);
- the rotation generators are J_ij = X_j P_i - X_i P_j = i(a_i* a_j - a_j* a_i),
  matching the structure-constant tables of lie_core (and annihilating the
  vacuum);
- states carry the label phase: state(p, x, theta) = exp(i theta) D(alpha)|0>.

Per mode, everything is derived from one ladder vector sqrt(1..N), the
superdiagonal of the truncated annihilator.  The coherent coefficients are
one running product of exp(-|alpha|^2/2) and alpha/sqrt(n).  X and P act on
states through their two bands, matrix-free (apply_quadrature).  Where an
operator is itself the object (the bracket check C07, the flow Hamiltonian,
the rotation generators j_op) it is an OffsetOperator: per offset d between
occupation tuples, the array of entries <r|A|r + d>, so a product of banded
operators is a few shifted array products.  The truncated X is a Jacobi
matrix whose spectrum X = V L V^T (one symmetric eigensolve per mode
dimension, cached) gives every Weyl factor
exactly on the truncated space (Golub-Welsch 1969): exp(i a X) =
V exp(i a L) V^T, and P = D X D^dagger with D = diag(i^n).  Building a
space and checking its ladder cost O(N).  Weyl factors are applied through
V^T, a diagonal and V, never formed (f(A) b without f(A), Higham 2008,
ch. 13): O(N^2) per mode per vector.

All tolerance-critical closed forms (overlap, matrix elements) have high
precision Fock-sum counterparts (suffix _hp), so that formula checks are not
polluted by float64 cancellation at small overlaps.  One kernel,
fock_gram_hp, computes them as exact dot products (Kulisch-Miranker 1981):
the coherent coefficients come from an integer recursion with guard bits,
correctly rounded to prec(HP_DPS) + 32 fractional bits; X and P act through
fixed-point band roots, every sum is exact in integers, and each result is
rounded once at the end.  The closed forms broadcast over grids of label
pairs, so a grid check is one array expression.

The ray flow is linear, y' = A y, so one RK4 step is exactly the matrix
polynomial sum_{k<=4} (hA)^k / k!, built once and raised to the sampling
stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

import mpmath
import numpy as np

from qclimit.lie_core import _DUAL_PAIR

SQRT2 = math.sqrt(2.0)


class TruncationGuardError(ValueError):
    """Raised when a coherent label would concentrate too close to the cutoff."""

    def __init__(self, mean_occupation: float, cutoff: int):
        self.required_cutoff = int(math.ceil(4.0 * mean_occupation))
        super().__init__(
            f"mean occupation {mean_occupation:.3f} exceeds cutoff/4 = {cutoff / 4:.3f}; "
            f"use cutoff >= {self.required_cutoff}"
        )


# ---------------------------------------------------------------------------
# Fock space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockSpace:
    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes not in (1, 3):
            raise ValueError("modes must be 1 or 3")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")

    @property
    def mode_dim(self) -> int:
        return self.cutoff + 1

    @property
    def dim(self) -> int:
        return self.mode_dim**self.modes

    # -- full-space operators, for where an operator is itself the object

    def _lift(self, kind: str, mode: int) -> "OffsetOperator":
        """The banded X or P of one mode (1-based) on the full space."""
        if not 1 <= mode <= self.modes:
            raise ValueError(f"mode {mode} out of range for {self.modes} modes")
        n = self.mode_dim
        sub, sup = _quadrature_bands(n)[kind]
        # <r|A|r - e> = sub[r_mode - 1] and <r|A|r + e> = sup[r_mode], zero past the edge
        lower, upper = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        lower[1:], upper[:-1] = sub, sup
        along = [1] * self.modes
        along[mode - 1] = n
        grid = (n,) * self.modes
        e = tuple(int(i == mode) for i in range(1, self.modes + 1))
        bands = {tuple(-k for k in e): lower, e: upper}
        return OffsetOperator(grid, {d: np.broadcast_to(b.reshape(along), grid).copy() for d, b in bands.items()})

    def x_op(self, mode: int = 1) -> "OffsetOperator":
        return self._lift("X", mode)

    def p_op(self, mode: int = 1) -> "OffsetOperator":
        return self._lift("P", mode)

    def j_op(self, i: int, j: int) -> "OffsetOperator":
        """Rotation generator J_ij = X_j P_i - X_i P_j (two distinct modes)."""
        if self.modes != 3:
            raise ValueError("rotation generators need modes = 3")
        if i == j:
            raise ValueError("J_ii vanishes identically")
        return self.x_op(j) @ self.p_op(i) - self.x_op(i) @ self.p_op(j)

    def j_axis_op(self, axis: int) -> "OffsetOperator":
        i, j = _DUAL_PAIR[axis]
        return self.j_op(i, j)

    def identity(self) -> "OffsetOperator":
        grid = (self.mode_dim,) * self.modes
        return OffsetOperator(grid, {(0,) * self.modes: np.ones(grid, dtype=complex)})

    def occupations(self) -> np.ndarray:
        """Per-mode occupation numbers of every basis state, shape (dim, modes)."""
        return np.stack(np.unravel_index(np.arange(self.dim), (self.mode_dim,) * self.modes), axis=1)

    def safe_mask(self, margin: int = 2) -> np.ndarray:
        """Basis states keeping `margin` empty top levels in every mode."""
        return (self.occupations() <= self.cutoff - margin).all(axis=1)


def _offset_slices(d: tuple, grid: tuple) -> tuple:
    """(rows, cols): the slices of r and of r + d over the r for which both
    lie inside the grid."""
    rows, cols = [], []
    for k, n in zip(d, grid):
        lo = max(0, -k)
        hi = max(lo, min(n, n - k))
        rows.append(slice(lo, hi))
        cols.append(slice(lo + k, hi + k))
    return tuple(rows), tuple(cols)


def _shifted(a: np.ndarray, d: tuple) -> np.ndarray:
    """out[r] = a[r + d], zero where r + d leaves the grid."""
    out = np.zeros_like(a)
    rows, cols = _offset_slices(d, a.shape)
    out[rows] = a[cols]
    return out


class OffsetOperator:
    """Operator on a truncated Fock space of m modes, n levels each, stored by
    offset: `bands` maps an offset d = (d1, ..., dm) to the (n,)*m array of
    the entries <r|A|r + d>, zero where r + d leaves the space.

    A product of two such operators is C[da + db][r] += A[da][r] B[db][r + da];
    the offsets of A are taken in sorted order, which is the order of the
    intermediate basis index, so every entry sums its terms as a CSR product
    does.  Supports `@` (with an operator or a coefficient vector), `+`, `-`,
    scalar `*` and `/`, and toarray() for the dense matrix.
    """

    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, grid: tuple, bands: dict):
        self.grid = tuple(grid)
        self.bands = bands

    @property
    def dim(self) -> int:
        return math.prod(self.grid)

    def _same_space(self, other: "OffsetOperator") -> None:
        if self.grid != other.grid:
            raise ValueError(f"operators live on different spaces: {self.grid} vs {other.grid}")

    def _merge(self, other, op) -> "OffsetOperator":
        if not isinstance(other, OffsetOperator):
            return NotImplemented
        self._same_space(other)
        bands = dict(self.bands)
        for d, b in other.bands.items():
            bands[d] = op(bands[d], b) if d in bands else op(0.0, b)
        return OffsetOperator(self.grid, bands)

    def __add__(self, other):
        return self._merge(other, np.add)

    def __sub__(self, other):
        return self._merge(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return OffsetOperator(self.grid, {d: scalar * b for d, b in self.bands.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return OffsetOperator(self.grid, {d: b / scalar for d, b in self.bands.items()})

    def __matmul__(self, other):
        if isinstance(other, OffsetOperator):
            self._same_space(other)
            bands = {}
            for da in sorted(self.bands):
                a = self.bands[da]
                for db, b in other.bands.items():
                    d = tuple(i + j for i, j in zip(da, db))
                    term = a * _shifted(b, da)
                    bands[d] = bands[d] + term if d in bands else term
            return OffsetOperator(self.grid, bands)
        v = np.asarray(other)
        if v.shape != (self.dim,):
            raise ValueError(f"expected an operator or a vector of length {self.dim}, got shape {v.shape}")
        v = v.reshape(self.grid)
        out = np.zeros(self.grid, dtype=np.result_type(v, *self.bands.values()))
        for d in sorted(self.bands):
            out += self.bands[d] * _shifted(v, d)
        return out.reshape(-1)

    def norm1(self) -> float:
        """Largest column sum of |entries|, the matrix 1-norm."""
        # column c collects <c - d|A|c> from every offset d
        sums = sum(_shifted(np.abs(b), tuple(-k for k in d)) for d, b in self.bands.items())
        return float(np.max(sums, initial=0.0))

    def toarray(self) -> np.ndarray:
        index = np.arange(self.dim).reshape(self.grid)
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(*self.bands.values()))
        for d, b in self.bands.items():
            rows, cols = _offset_slices(d, self.grid)
            out[index[rows].ravel(), index[cols].ravel()] = b[rows].ravel()
        return out


def _ladder(mode_dim: int) -> np.ndarray:
    """Superdiagonal of the truncated annihilator: a|n> = sqrt(n)|n-1>."""
    return np.sqrt(np.arange(1.0, mode_dim))


@lru_cache(maxsize=16)
def _quadrature_bands(mode_dim: int) -> MappingProxyType:
    """(subdiagonal, superdiagonal) of X = (a + a*)/sqrt(2) and
    P = (a - a*)/(i sqrt(2)), read-only; both have a zero diagonal."""
    s = _ladder(mode_dim) / SQRT2
    bands = {"X": (s, s), "P": (1j * s, -1j * s)}
    for band in (s, *bands["P"]):
        band.flags.writeable = False
    return MappingProxyType(bands)


@lru_cache(maxsize=8)
def _x_spectrum(mode_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues L and orthonormal real eigenvectors V of the truncated X,
    X = V diag(L) V^T, as read-only arrays."""
    s = _ladder(mode_dim) / SQRT2
    lam, vec = np.linalg.eigh(np.diag(s, -1) + np.diag(s, 1))
    lam.flags.writeable = False
    vec.flags.writeable = False
    return lam, vec


def build_fock_space(modes: int, cutoff: int) -> FockSpace:
    """Construct the space and verify the ladder/quadrature sanity conditions.

    Both checks read the per-mode bands, so they cost O(cutoff).
    """
    space = FockSpace(modes, cutoff)
    # a has the one band s, so [a, a*] is diagonal with entries s_n^2 - s_{n-1}^2
    s2 = np.concatenate(([0.0], _ladder(space.mode_dim) ** 2, [0.0]))
    # canonical up to the truncation edge, where the correction -(N+1)|N><N| lives
    edge = np.ones(space.mode_dim)
    edge[-1] = -space.cutoff
    if not np.abs(np.diff(s2) - edge).max() <= 1e-12:
        raise AssertionError("ladder commutator defect outside the truncation edge")
    for sub, sup in _quadrature_bands(space.mode_dim).values():
        if not np.abs(sub - sup.conj()).max() <= 1e-14:
            raise AssertionError("quadrature operator failed Hermiticity check")
    return space


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StateVector:
    backend: str
    space: object
    coefficients: np.ndarray
    truncation_bound: float = 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def _as_mode_vector(value, modes: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (modes,):
        raise ValueError(f"label must have one entry per mode, got shape {v.shape}")
    return v


def vacuum_state(space: FockSpace) -> StateVector:
    c = np.zeros(space.dim, dtype=complex)
    c[0] = 1.0
    return StateVector("fock", space, c)


def _mode_coherent_coeffs(alpha: complex, dim: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!), n < dim, as one running
    product of [exp(-|alpha|^2/2), alpha/sqrt(1), ..., alpha/sqrt(dim - 1)]."""
    factors = np.empty(dim, dtype=complex)
    factors[0] = math.exp(-0.5 * abs(alpha) ** 2)
    factors[1:] = alpha / _ladder(dim)
    return np.cumprod(factors)


def _poisson_tail(lam: float, cutoff: int) -> float:
    """P(cutoff + 1, lam) = sum_{n > cutoff} exp(-lam) lam^n / n! (DLMF 8.4.10):
    the occupation mass above the cutoff of a mode with mean occupation lam.
    The series is summed forward from its first term, taken in log space."""
    if lam == 0.0:
        return 0.0
    n = cutoff + 1
    term = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
    total = 0.0
    while total + term != total:
        total += term
        n += 1
        term *= lam / n
    return total


def coherent_state(space: FockSpace, p, x, theta: float = 0.0) -> StateVector:
    """exp(i theta) D(alpha)|0> with alpha_i = (x_i + i p_i)/sqrt(2) per mode.

    The truncation guard requires mean occupation |alpha|^2 <= cutoff/4 in
    every mode; the reported truncation bound is the exact norm^2 the cutoff
    drops, 1 - prod_i (1 - P(cutoff + 1, |alpha_i|^2)).
    """
    p = _as_mode_vector(p, space.modes)
    x = _as_mode_vector(x, space.modes)
    alphas = (x + 1j * p) / SQRT2
    worst = float(np.max(np.abs(alphas) ** 2))
    if worst > space.cutoff / 4.0:
        raise TruncationGuardError(worst, space.cutoff)
    vec = reduce(np.kron, [_mode_coherent_coeffs(complex(alpha), space.mode_dim) for alpha in alphas])
    vec = vec * np.exp(1j * theta)
    kept_log = sum(math.log1p(-_poisson_tail(abs(alpha) ** 2, space.cutoff)) for alpha in alphas)
    return StateVector("fock", space, vec, abs(math.expm1(kept_log)))


def overlap(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    if s1.backend != s2.backend:
        raise ValueError(f"backend mismatch: {s1.backend} vs {s2.backend}")
    if s1.space != s2.space:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(s1.coefficients, s2.coefficients))


def coherent_overlap_formula(p1, x1, theta1, p2, x2, theta2):
    """Closed form of <p1,x1,theta1|p2,x2,theta2>: a symplectic phase
    (x1.p2 - p1.x2)/2 on top of a Gaussian in the label separation.

    Labels broadcast over leading axes with the mode axis last (a scalar is
    one 1-mode label, a 1-D array one label per mode); one label pair gives
    a complex, a grid of pairs an array with the mode axis summed out.
    """
    p1, x1, p2, x2 = (np.atleast_1d(np.asarray(v, float)) for v in (p1, x1, p2, x2))
    # vecdot takes each pair through the dot kernel of a 1-D `@`, so a grid keeps each pair's bits
    phase = 0.5 * (np.vecdot(x1, p2) - np.vecdot(p1, x2)) + (theta2 - theta1)
    decay = -0.25 * (np.sum((x1 - x2) ** 2, axis=-1) + np.sum((p1 - p2) ** 2, axis=-1))
    out = np.exp(decay) * np.exp(1j * phase)
    return complex(out) if out.ndim == 0 else out


def matrix_element_formula(kind: str, axis: int, p1, x1, theta1, p2, x2, theta2):
    """Closed form of <s1|O|s2> for O = X_axis or P_axis between coherent
    states; labels broadcast as in coherent_overlap_formula."""
    p1, x1, p2, x2 = (np.atleast_1d(np.asarray(v, float)) for v in (p1, x1, p2, x2))
    i = axis - 1
    if kind == "X":
        pref = 0.5 * ((x1[..., i] + x2[..., i]) - 1j * (p1[..., i] - p2[..., i]))
    elif kind == "P":
        pref = 0.5 * ((p1[..., i] + p2[..., i]) + 1j * (x1[..., i] - x2[..., i]))
    else:
        raise ValueError("kind must be 'X' or 'P'")
    ovl = coherent_overlap_formula(p1, x1, theta1, p2, x2, theta2)
    # the textbook product, as scalar complex arithmetic rounds it (numpy's
    # complex multiply loop fuses a multiply-add and changes the last bit)
    re = pref.real * ovl.real - pref.imag * ovl.imag
    return re + 1j * (pref.real * ovl.imag + pref.imag * ovl.real)


def apply_quadrature(space: FockSpace, kind: str, axis: int, coefficients: np.ndarray) -> np.ndarray:
    """X or P of mode `axis` (1-based) applied to a coefficient vector through
    its two bands, with no operator formed.  On the (n^(axis-1), n, rest) view,
    row m gets sub[m-1] t[m-1] + sup[m] t[m+1], the two products the sparse
    matvec sums, so the result equals x_op(axis) @ c (or p_op) bit for bit."""
    if kind not in ("X", "P"):
        raise ValueError("kind must be 'X' or 'P'")
    if not 1 <= axis <= space.modes:
        raise ValueError(f"mode {axis} out of range for {space.modes} modes")
    n = space.mode_dim
    sub, sup = _quadrature_bands(n)[kind]
    t = np.asarray(coefficients, dtype=complex).reshape(n ** (axis - 1), n, -1)
    out = np.zeros_like(t)
    out[:, :-1] = sup[:, None] * t[:, 1:]
    out[:, 1:] += sub[:, None] * t[:, :-1]
    return out.reshape(-1)


def matrix_element(space: FockSpace, kind: str, axis: int, s1: StateVector, s2: StateVector) -> complex:
    return complex(np.vdot(s1.coefficients, apply_quadrature(space, kind, axis, s2.coefficients)))


# ---------------------------------------------------------------------------
# high-precision Fock sums: exact fixed-point dot products
# ---------------------------------------------------------------------------

FOCK_GRAM_KINDS = ("c", "X", "P")
HP_DPS = 30  # decimal digits of the high-precision sums


def _fixed(value, bits: int) -> int:
    """round(value * 2^bits) for a real mpf, from its exact mantissa and exponent."""
    sign, man, exp, _ = value._mpf_  # mpmath's raw (sign, mantissa, exponent, bitcount)
    if sign:
        man = -man
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return (man + (1 << (-shift - 1))) >> -shift


@lru_cache(maxsize=8)
def _fixed_band(mode_dim: int, bits: int) -> tuple:
    """floor(sqrt(n/2) 2^bits) for n = 1..mode_dim-1: the X and P band
    sqrt(n)/sqrt(2) in fixed point, exact integer square roots."""
    return tuple(math.isqrt(n << (2 * bits - 1)) for n in range(1, mode_dim))


@lru_cache(maxsize=16)
def _fixed_step(mode_dim: int, bits: int) -> tuple:
    """floor(2^bits / sqrt(2n)) for n = 1..mode_dim-1: the step 1/sqrt(2n)
    of the coherent recursion in fixed point, exact integer square roots."""
    return tuple(math.isqrt((1 << (2 * bits - 1)) // n) for n in range(1, mode_dim))


def _fixed_coherent(p: float, x: float, dim: int, bits: int) -> tuple:
    """(re, im): lists of round(c_n 2^bits), n < dim, for the coherent
    coefficients c_n = exp(-(x^2 + p^2)/4) (x + i p)^n / sqrt(2^n n!).

    The recursion c_n = c_{n-1} (x + i p)/sqrt(2n) runs in integers with
    w = bits + guard fractional bits, from c_0 (one mpmath exp at w bits) and
    X + iP = round((x + i p) 2^w), rounding each step to nearest.  The guard
    covers the growth of the error in c_0 up to the Poisson peak (at most
    exp((x^2 + p^2)/4)), one rounding per step and 32 bits more, so each
    result is correctly rounded unless it lies within 2^-32 units of a tie.
    """
    lam = 0.5 * (x * x + p * p)  # mean occupation |alpha|^2
    # log of the largest |c_n|: the Poisson peak at n = floor(lam), or the last level
    top = dim - 1 if lam >= dim - 1 else math.floor(lam)
    log_peak = 0.5 * (top * math.log(lam) - math.lgamma(top + 1) - lam) if top else -0.5 * lam
    if not log_peak >= -(bits + 2) * math.log(2.0):
        # every |c_n| 2^bits < 1/4 (also when lam overflows to inf)
        return [0] * dim, [0] * dim
    guard = 36 + dim.bit_length() + math.ceil(0.5 * lam * math.log2(math.e))
    w = bits + guard
    with mpmath.workprec(w + 8):
        cr, ci = _fixed(mpmath.exp(-(mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2) / 4), w), 0
    big_x, big_p = _fixed(mpmath.mpf(x), w), _fixed(mpmath.mpf(p), w)
    half, shift = 1 << (2 * w - 1), 2 * w
    re, im = [cr], [ci]
    for r in _fixed_step(dim, w):
        cr, ci = ((cr * big_x - ci * big_p) * r + half) >> shift, ((cr * big_p + ci * big_x) * r + half) >> shift
        re.append(cr)
        im.append(ci)
    half = 1 << (guard - 1)
    return [(v + half) >> guard for v in re], [(v + half) >> guard for v in im]


def _fock_gram_fixed(rows, cols, cutoff: int, kind: str) -> tuple:
    """Exact integer sums behind fock_gram_hp: (re, im, frac_bits), where
    re + i im over 2^frac_bits is <r|O|c> for every row and column label."""
    if kind not in FOCK_GRAM_KINDS:
        raise ValueError(f"kind must be one of {FOCK_GRAM_KINDS}, got {kind!r}")
    dim = cutoff + 1
    bits = mpmath.libmp.dps_to_prec(HP_DPS) + 32
    rows = [(float(p), float(x)) for p, x in rows]
    cols = [(float(p), float(x)) for p, x in cols]
    if not all(math.isfinite(v) for label in rows + cols for v in label):
        raise ValueError("labels must be finite")
    fixed = {label: _fixed_coherent(*label, dim, bits) for label in dict.fromkeys(rows + cols)}
    # real and imaginary parts as (labels, dim) arrays of Python ints
    r_re, r_im = np.array([fixed[label] for label in rows], dtype=object).transpose(1, 0, 2)
    c_re, c_im = np.array([fixed[label] for label in cols], dtype=object).transpose(1, 0, 2)
    frac = 2 * bits
    if kind != "c":
        # (a v)_n = s_{n+1} v_{n+1} and (a* v)_n = s_n v_{n-1}, with s the band
        band = np.array(_fixed_band(dim, bits), dtype=object)
        lowered, raised = [], []
        for v in (c_re, c_im):
            lo, ra = np.zeros_like(v), np.zeros_like(v)
            lo[:, :-1] = v[:, 1:] * band
            ra[:, 1:] = v[:, :-1] * band
            lowered.append(lo)
            raised.append(ra)
        if kind == "X":
            c_re, c_im = (lo + ra for lo, ra in zip(lowered, raised))
        else:
            # P v = -i (lowered - raised)
            c_re, c_im = lowered[1] - raised[1], raised[0] - lowered[0]
        frac += bits
    # conj(r) . c = (r_re c_re + r_im c_im) + i (r_re c_im - r_im c_re)
    re = r_re @ c_re.T + r_im @ c_im.T
    im = r_re @ c_im.T - r_im @ c_re.T
    return re, im, frac


def fock_gram_hp(rows, cols, cutoff: int, kind: str = "c") -> np.ndarray:
    """<r|O|c> on the 1D Fock space truncated at `cutoff`, for every row label
    r = (p, x) and column label c, with O the identity ("c"), X or P; a
    complex array of shape (len(rows), len(cols)).

    Each distinct label's coherent coefficients are computed once, correctly
    rounded to integers with prec(HP_DPS) + 32 fractional bits (_fixed_coherent);
    the X and P images use fixed-point band roots, and every element is one
    exact integer sum (an exact dot product, Kulisch-Miranker 1981), rounded
    once to complex at the end.
    """
    re, im, frac = _fock_gram_fixed(rows, cols, cutoff, kind)
    scale = 1 << frac
    out = np.empty(re.shape, dtype=complex)
    for idx in np.ndindex(re.shape):
        # int / int is correctly rounded
        out[idx] = complex(re[idx] / scale, im[idx] / scale)
    return out


def _hp_mode_element(label1, label2, cutoff: int, kind: str):
    """One <label1|O|label2> of fock_gram_hp as an mpc, rounded once to the
    working precision of the caller."""
    re, im, frac = _fock_gram_fixed([label1], [label2], cutoff, kind)
    return mpmath.mpc(mpmath.ldexp(int(re[0, 0]), -frac), mpmath.ldexp(int(im[0, 0]), -frac))


def _hp_phase(theta1, theta2):
    return mpmath.exp(1j * (mpmath.mpf(float(theta2)) - mpmath.mpf(float(theta1))))


def fock_overlap_hp(p1, x1, theta1, p2, x2, theta2, cutoff: int) -> complex:
    """Truncated Fock inner product from the exact per-mode sums of
    fock_gram_hp, multiplied and phased at HP_DPS decimal digits.

    Factorizes over modes (exact for product states), so 3D sums cost three
    1D sums.
    """
    p1, x1 = np.atleast_1d(p1), np.atleast_1d(x1)
    p2, x2 = np.atleast_1d(p2), np.atleast_1d(x2)
    with mpmath.workdps(HP_DPS):
        total = mpmath.mpc(1)
        for i in range(len(p1)):
            total *= _hp_mode_element((p1[i], x1[i]), (p2[i], x2[i]), cutoff, "c")
        return complex(total * _hp_phase(theta1, theta2))


def fock_matrix_element_hp(kind: str, p1, x1, theta1, p2, x2, theta2, cutoff: int) -> complex:
    """1D high-precision <s1|O|s2> with the ladder action applied exactly."""
    if kind not in ("X", "P"):
        raise ValueError("kind must be 'X' or 'P'")
    with mpmath.workdps(HP_DPS):
        element = _hp_mode_element((p1, x1), (p2, x2), cutoff, kind)
        return complex(element * _hp_phase(theta1, theta2))


# ---------------------------------------------------------------------------
# Weyl and rotation unitaries
# ---------------------------------------------------------------------------


def _spectral_steps(steps: tuple, w: np.ndarray) -> np.ndarray:
    """One mode's steps on the columns of a complex C-array w of shape (N, K):
    (pre, alpha, post) maps w to post * V(exp(i alpha L) * V^T(pre * w))."""
    lam, v = _x_spectrum(w.shape[0])
    for pre, alpha, post in steps:
        w = w if pre is None else pre[:, None] * w
        # the real V acts on the interleaved (re, im) columns of the complex array
        w = np.exp(1j * alpha * lam)[:, None] * (v.T @ w.view(float)).view(complex)
        w = (v @ w.view(float)).view(complex)
        w = w if post is None else post[:, None] * w
    return w


@dataclass(frozen=True)
class WeylOperator:
    """Matrix-free product-form unitary: a global phase and, per mode, spectral
    steps (pre, alpha, post) = post * exp(i alpha X) * pre with diagonal phases
    pre and post (None: identity).  apply() forms no N x N factor and costs
    O(N^2) per mode per vector (O(N^(m+1)) on m modes); matrix() is a test aid.
    """

    space: FockSpace
    phase: complex
    steps: tuple

    def apply(self, state: StateVector) -> StateVector:
        if state.backend != "fock" or state.space != self.space:
            raise ValueError("operator and state live on different spaces")
        n = self.space.mode_dim
        t = np.ascontiguousarray(state.coefficients, dtype=complex)
        for steps in self.steps:
            # the current mode leads; the transpose rotates the next one to the front
            t = _spectral_steps(steps, t.reshape(n, -1)).T
        return StateVector("fock", self.space, self.phase * t.reshape(-1))

    def matrix(self) -> np.ndarray:
        """The dense unitary (a test aid): each mode's steps on the identity."""
        m = self.phase * np.ones((1, 1))
        for steps in self.steps:
            m = np.kron(m, _spectral_steps(steps, np.eye(self.space.mode_dim, dtype=complex)))
        return m


def weyl_unitary(space: FockSpace, p, x, theta: float = 0.0, form: str = "factored") -> WeylOperator:
    """U(p, x, theta) as per-mode spectral steps, each exp(i alpha X) between
    diagonal phases (see WeylOperator); recording them costs O(N) per mode.

    form='factored' multiplies exp(i x.p/2) exp(-i x.P) exp(i p.X) per mode,
    with exp(-i x P) = D exp(-i x X) D^dagger for D = diag(i^n);
    form='single' exponentiates i(p.X - x.P) in one step, as the rotated
    quadrature p X - x P = r R X R^dagger with r = hypot(p, x),
    R = diag(exp(-i phi n)) and phi = atan2(x, p).  Both carry the global
    exp(i theta) and are exact on the truncated space up to rounding.
    Agreement of the two forms is the standard Baker-Campbell-Hausdorff
    consistency check for the canonical pair.
    """
    if form not in ("factored", "single"):
        raise ValueError("form must be 'factored' or 'single'")
    p = _as_mode_vector(p, space.modes)
    x = _as_mode_vector(x, space.modes)
    levels = np.arange(space.mode_dim)
    quarter_turns = np.array([1.0, 1j, -1.0, -1j])[levels % 4]
    steps = []
    for i in range(space.modes):
        if form == "factored":
            shift = (quarter_turns.conj(), -x[i], np.exp(0.5j * x[i] * p[i]) * quarter_turns)
            steps.append(((None, p[i], None), shift))
        else:
            rotation = np.exp(-1j * math.atan2(x[i], p[i]) * levels)
            steps.append(((rotation.conj(), math.hypot(p[i], x[i]), rotation),))
    return WeylOperator(space, np.exp(1j * float(theta)), tuple(steps))


# theta_m of Al-Mohy & Higham (2011), Table 3.1: the largest 1-norm for which
# the degree-m Taylor polynomial of exp meets the unit roundoff 2^-53
_TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


def _expm_apply(op: OffsetOperator, v: np.ndarray) -> np.ndarray:
    """exp(op) v without forming exp(op) (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011): s steps of the degree-m Taylor series of exp(op/s), with
    s = ceil(|op|_1 / theta_m) and m chosen to make m s least.  A step stops
    early once two successive terms are negligible against the sum."""
    norm = op.norm1()
    if norm == 0.0:
        return v
    m, s = min(((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()), key=lambda ms: ms[0] * ms[1])
    tol = 2.0**-53
    out = v
    for _ in range(s):
        term = out
        c1 = np.abs(term).max()
        for j in range(1, m + 1):
            term = (op @ term) / (s * j)
            c2 = np.abs(term).max()
            out = out + term
            if c1 + c2 <= tol * np.abs(out).max():
                break
            c1 = c2
    return out


def rotation_unitary_apply(space: FockSpace, omega, state: StateVector) -> StateVector:
    """Apply exp(-i sum_a omega_a J_axis_a) to a state.

    Sends the coherent state at (p, x) to the one at (R p, R x) with
    R = exp(Omega(omega)) from coset_rep.rotation_from_omega.
    """
    omega = np.asarray(omega, dtype=float).reshape(3)
    gen = None
    for axis in (1, 2, 3):
        if omega[axis - 1] != 0.0:
            term = omega[axis - 1] * space.j_axis_op(axis)
            gen = term if gen is None else gen + term
    if gen is None:
        return state
    out = _expm_apply(-1j * gen, np.asarray(state.coefficients, dtype=complex))
    return StateVector("fock", space, out)


# ---------------------------------------------------------------------------
# operator-realization check against the structure constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutatorCheckReport:
    max_deviation: float
    per_bracket: dict


def _safe_max(op: OffsetOperator, top: int) -> float:
    """Largest |<r|A|r + d>| with every occupation of r and r + d at most
    `top`; 0.0 for no such entry, NaN if any is NaN."""
    safe = (top + 1,) * len(op.grid)
    worst = [0.0]
    for d, b in op.bands.items():
        rows, _ = _offset_slices(d, safe)
        block = b[rows]
        if block.size:
            worst.append(np.abs(block).max())
    return float(np.max(worst))


def operator_commutator_check(space: FockSpace, table=None) -> CommutatorCheckReport:
    """Deviation of every realized bracket from its structure-constant value,
    measured on the safe subspace (top two levels of each mode excluded)."""
    from qclimit.lie_core import build_standard_algebra

    if space.modes != 3:
        raise ValueError("the full bracket check needs modes = 3")
    if table is None:
        table = build_standard_algebra("HR3")

    ops = {}
    for axis, name in ((1, "J23"), (2, "J31"), (3, "J12")):
        ops[name] = space.j_axis_op(axis)
    for i in (1, 2, 3):
        ops[f"X{i}"] = space.x_op(i)
        ops[f"P{i}"] = space.p_op(i)
    ops["I"] = space.identity()

    top = space.cutoff - 2
    names = [g.name for g in table.generators]
    detail = {}
    for ia in range(len(names)):
        for ib in range(ia + 1, len(names)):
            a, b = ops[names[ia]], ops[names[ib]]
            delta = a @ b - b @ a
            for tgt, coeff, _ in table.entries.get((ia, ib), ()):
                delta = delta - 1j * coeff * ops[names[tgt]]
            detail[f"{names[ia]},{names[ib]}"] = _safe_max(delta, top)
    return CommutatorCheckReport(float(np.max(list(detail.values()))), detail)


# ---------------------------------------------------------------------------
# position-grid backend (1D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpace:
    """Uniform 1D grid on [-extent, extent) with a spectral momentum action."""

    extent: float
    points: int

    def __post_init__(self):
        if self.points % 2 != 0 or self.points < 8:
            raise ValueError("points must be even and >= 8")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.points

    @property
    def positions(self) -> np.ndarray:
        return -self.extent + self.spacing * np.arange(self.points)

    @property
    def momentum_limit(self) -> float:
        return math.pi / self.spacing


def grid_coherent_state(grid: GridSpace, p: float, x: float, theta: float = 0.0) -> StateVector:
    """Sampled wavefunction pi^(-1/4) exp(-(y-x)^2/2 + i p y - i p x / 2).

    Guards keep five standard deviations of position inside the box and of
    momentum inside the spectral band, which bounds norm defects near 1e-12.
    """
    if abs(x) + 5.0 > grid.extent:
        raise ValueError(f"label x={x} too close to the box edge (extent {grid.extent})")
    if abs(p) + 5.0 > grid.momentum_limit:
        raise ValueError(f"label p={p} too close to the spectral band edge")
    y = grid.positions
    psi = np.pi**-0.25 * np.exp(-0.5 * (y - x) ** 2 + 1j * p * y - 0.5j * p * x + 1j * theta)
    coeff = psi * math.sqrt(grid.spacing)
    return StateVector("grid", grid, coeff)


def cross_validate_backends(
    pairs, space: FockSpace, grid: GridSpace
) -> list[dict]:
    """Overlap of each 1D label pair on both backends, with the difference."""
    if space.modes != 1:
        raise ValueError("cross-validation is defined for the 1D backends")
    records = []
    for pair_id, (l1, l2) in enumerate(pairs):
        p1, x1, t1 = l1
        p2, x2, t2 = l2
        fock = overlap(coherent_state(space, p1, x1, t1), coherent_state(space, p2, x2, t2))
        gridv = overlap(grid_coherent_state(grid, p1, x1, t1), grid_coherent_state(grid, p2, x2, t2))
        records.append(
            {
                "pair_id": pair_id,
                "fock": fock,
                "grid": gridv,
                "abs_diff": abs(fock - gridv),
            }
        )
    return records


# ---------------------------------------------------------------------------
# projective flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowReport:
    max_deviation: float
    norm_drift: float
    halving_deviation: float
    steps: int
    dt: float


FLOW_SAMPLE_EVERY = 50  # RK4 steps between the samples the two flow routes compare


def _rk4(gen: np.ndarray, y0: np.ndarray, dt: float, steps: int, every: int) -> np.ndarray:
    """Classical RK4 for the linear equation y' = gen y, sampled every
    `every` steps and at the last step.

    For a linear right-hand side one RK4 step is exactly the matrix
    polynomial M = sum_{k<=4} (dt gen)^k / k!, so M is built once and each
    sample advances by M^every; a remainder power reaches `steps`.
    """
    if steps < 1 or every < 1:
        raise ValueError(f"need at least one step and one step per sample, got {steps} and {every}")
    hg = dt * np.asarray(gen)
    eye = np.eye(hg.shape[0])
    step = eye
    for k in (4, 3, 2, 1):
        step = eye + (hg / k) @ step
    stride = np.linalg.matrix_power(step, every)
    y = np.asarray(y0).copy()
    samples = [y]
    for _ in range(steps // every):
        y = stride @ y
        samples.append(y)
    if steps % every:
        y = np.linalg.matrix_power(step, steps % every) @ y
        samples.append(y)
    return np.array(samples)


def _canonical_generator(h: np.ndarray) -> np.ndarray:
    """Real generator of Hamilton's equations for c = q + i p under the
    function (1/2)<phi(c)|H|phi(c)>: d(q, p)/dt = [[Im H, Re H], [-Re H, Im H]] (q, p)."""
    a, b = h.real, h.imag
    return np.block([[b, a], [-a, b]])


def projective_flow_check(
    space: FockSpace,
    hamiltonian,
    initial: StateVector,
    t_final: float = 10.0,
    dt: float = 1e-3,
) -> FlowReport:
    """Integrate the same ray flow two ways and compare.

    Route (a): the linear coefficient equation dc/dt = -i H c.  Route (b):
    real canonical equations for c = q + i p generated by the function
    (1/2) <phi(c)|H|phi(c)>, whose gradients are evaluated from the real and
    imaginary parts of H.  The two routes are algebraically identical flows,
    so their numerical trajectories must agree to integrator accuracy, and
    route (a) run at dt and dt/2 gives the step-halving convergence figure.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise ValueError(f"dt and t_final must be finite and > 0, got dt={dt}, t_final={t_final}")
    steps = int(round(t_final / dt))
    if steps < 1:
        raise ValueError(f"t_final={t_final} is less than one step of dt={dt}")
    h = hamiltonian.toarray() if hasattr(hamiltonian, "toarray") else np.asarray(hamiltonian)
    if not np.abs(h - h.conj().T).max() <= 1e-12:
        raise ValueError("hamiltonian must be Hermitian")
    c0 = initial.coefficients.astype(complex)
    if not abs(np.linalg.norm(c0) - 1.0) <= 1e-6:
        raise ValueError("initial state must be normalized")

    path_a = _rk4(-1j * h, c0, dt, steps, FLOW_SAMPLE_EVERY)
    y0 = np.concatenate([c0.real, c0.imag])
    path_b = _rk4(_canonical_generator(h), y0, dt, steps, FLOW_SAMPLE_EVERY)
    n = c0.size
    path_b_c = path_b[:, :n] + 1j * path_b[:, n:]

    deviation = float(np.abs(path_a - path_b_c).max())
    norms = np.linalg.norm(path_a, axis=1)
    drift = float(np.abs(norms - np.linalg.norm(c0)).max())
    path_half = _rk4(-1j * h, c0, dt / 2.0, int(round(t_final / (dt / 2.0))), 2 * FLOW_SAMPLE_EVERY)
    halving = float(np.abs(path_a - path_half).max())
    return FlowReport(deviation, drift, halving, steps, dt)
