"""Unitary representation on a truncated Fock space, with a 1D position-grid
backend for cross-validation.  A StateVector is a state on a FockSpace; the
grid enters only through 1D pair overlaps (coherent_pair_overlaps,
cross_validate_backends).

Conventions, fixed once and used everywhere:

- per mode, X = (a + a*)/sqrt(2), P = (a - a*)/(i sqrt(2)), so [X, P] = i
  away from the truncation edge and a coherent label (p, x) means
  alpha = (x + i p)/sqrt(2);
- the rotation generators are J_ij = X_j P_i - X_i P_j = i(a_i* a_j - a_j* a_i),
  matching the structure-constant tables of lie_core (and annihilating the
  vacuum);
- states carry the label phase: state(p, x, theta) = exp(i theta) D(alpha)|0>.

Per mode, everything is derived from one ladder vector sqrt(1..N), the
superdiagonal of the truncated annihilator.  The coherent coefficients of a
whole label set are one cumulative product, a row per label, of
exp(-|alpha|^2/2) and alpha/sqrt(n); on the position grid a label set's
wavefunctions are one broadcast exp.  Every pair overlap <l1|l2> of a label
set, on either backend or both at once, takes one guard pass over the set,
builds its rows once per space and is one vdot of two rows; on the Fock
backend that is bit for bit overlap() of the two coherent_state states.
Every operator (x_op, p_op, the rotation generators j_axis_op, identity) is
an OffsetOperator: per offset d between occupation tuples, the array of entries
<r|A|r + d>, so a product of banded operators is a few shifted array
products and an operator acts on a state with no matrix formed; matrix
elements and the bracket check C07 go through the same operators.  The
truncated X is a Jacobi matrix whose spectrum X = V L V^T (one symmetric
eigensolve per mode dimension, cached) gives every Weyl factor exactly on
the truncated space (Golub-Welsch 1969): exp(i a X) = V exp(i a L) V^T,
and P = D X D^dagger with D = diag(i^n).  Building a
space and checking its ladder cost O(N).  Weyl factors are applied through
V^T, a diagonal and V, never formed (f(A) b without f(A), Higham 2008,
ch. 13): O(N^2) per mode per vector.

All tolerance-critical closed forms (overlap, matrix elements) have high
precision Fock-sum counterparts (suffix _hp), so that formula checks are not
polluted by float64 cancellation at small overlaps.  They are exact dot
products (Kulisch-Miranker 1981) of fixed-point integers: the coherent
coefficients come from an integer recursion with guard bits, started from
an integer Taylor series and squarings for exp(-(x^2 + p^2)/4) (the scheme
of the fixed-point phase), correctly rounded to FRAC_BITS fractional bits,
once per distinct label and cutoff per process, in a bounded cache; X and P
act through fixed-point band roots.
fock_gram_hp sums a whole grid of label pairs, for one or more kinds, on
BLAS (Ozaki-Ogita-Oishi-Rump 2012): each integer is split once into signed
16-bit digits held in float64, and matmuls over the whole grid, one set
per row digit, form every row-digit x column-digit product.  Each product
is below 2^32 and each
partial sum of 2N of them below 2^53 while N < 2^20 (larger N is refused),
so every entry is exact whatever the BLAS summation order or thread count;
the digit diagonals and carries are then added in int64 and each integer
rebuilt once.  A single pair (fock_overlap_hp, fock_matrix_element_hp) uses
the same coefficients and images with a plain integer dot, cheaper than
digit arrays for one element.  The products over modes and the fixed-point
phase exp(i(theta2 - theta1)) are exact too, so each result is rounded once
at the end.
The closed forms broadcast over grids of label pairs, so a grid check is one
array expression.

The ray flow is linear, y' = A y, so one RK4 step is exactly the matrix
polynomial sum_{k<=4} (hA)^k / k!, built once and raised to the sampling
stride.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType

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

    def j_axis_op(self, axis: int) -> "OffsetOperator":
        """Rotation generator J_axis = J_ij = X_j P_i - X_i P_j, with (i, j)
        the cyclic index pair dual to `axis`."""
        if self.modes != 3:
            raise ValueError("rotation generators need modes = 3")
        if axis not in _DUAL_PAIR:
            raise ValueError(f"rotation axis must be 1, 2 or 3, got {axis}")
        i, j = _DUAL_PAIR[axis]
        return self.x_op(j) @ self.p_op(i) - self.x_op(i) @ self.p_op(j)

    def identity(self) -> "OffsetOperator":
        grid = (self.mode_dim,) * self.modes
        return OffsetOperator(grid, {(0,) * self.modes: np.ones(grid, dtype=complex)})


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
    scalar `*`, and toarray() for the dense matrix.
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

    def toarray(self) -> np.ndarray:
        index = np.arange(self.dim).reshape(self.grid)
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(*self.bands.values()))
        for d, b in self.bands.items():
            rows, cols = _offset_slices(d, self.grid)
            out[index[rows].ravel(), index[cols].ravel()] = b[rows].ravel()
        return out


@lru_cache(maxsize=16)
def _ladder(mode_dim: int) -> np.ndarray:
    """Superdiagonal of the truncated annihilator: a|n> = sqrt(n)|n-1>, read-only."""
    s = np.sqrt(np.arange(1.0, mode_dim))
    s.flags.writeable = False
    return s


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
    space: FockSpace
    coefficients: np.ndarray
    truncation_bound: float = 0.0


def _as_mode_vector(value, modes: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (modes,):
        raise ValueError(f"label must have one entry per mode, got shape {v.shape}")
    return v


def vacuum_state(space: FockSpace) -> StateVector:
    c = np.zeros(space.dim, dtype=complex)
    c[0] = 1.0
    return StateVector(space, c)


def _mode_coherent_coeffs(alphas, dim: int) -> np.ndarray:
    """Row k: c_n = exp(-|a|^2/2) a^n / sqrt(n!), n < dim, for a = alphas[k],
    as the running product along the row of
    [exp(-|a|^2/2), a/sqrt(1), ..., a/sqrt(dim - 1)]: one cumprod for all rows."""
    alphas = np.asarray(alphas, dtype=complex)
    factors = np.empty((len(alphas), dim), dtype=complex)
    # math's hypot and exp per label: numpy's SIMD loops may round the leading factor differently
    factors[:, 0] = [math.exp(-0.5 * abs(a) ** 2) for a in alphas.tolist()]
    factors[:, 1:] = alphas[:, None] / _ladder(dim)
    return np.cumprod(factors, axis=1)


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


def _check_labels(labels: np.ndarray, spaces) -> None:
    """Raise for the first label in input order that is not finite or breaks
    a guard of one of `spaces` (FockSpace or GridSpace), checked in that
    order.  Row k of `labels` is label k: its p per mode, its x per mode and
    its theta."""
    finite = np.isfinite(labels).all(axis=1)
    if not finite.all():
        labels = np.where(finite[:, None], labels, 0.0)  # so that no guard reads a NaN or an infinity
    failures = [(~finite, lambda k: ValueError("labels must be finite"))]
    for space in spaces:
        failures += _guard_failures(space, labels)
    bad = reduce(operator.or_, [mask for mask, _ in failures])
    if bad.any():
        k = int(np.argmax(bad))
        raise next(error(k) for mask, error in failures if mask[k])


def _guard_failures(space, labels: np.ndarray) -> list:
    """(mask, error) per guard of the space: mask[k] holds where label k
    breaks the guard, error(k) is the exception it raises.

    A FockSpace requires mean occupation |alpha|^2 <= cutoff/4 in every mode.
    A GridSpace keeps five standard deviations of position inside the box and
    of momentum inside the spectral band, which bounds norm defects near 1e-12.
    """
    if isinstance(space, FockSpace):
        p, x = labels[:, : space.modes], labels[:, space.modes : 2 * space.modes]
        occupation = np.abs((x + 1j * p) / SQRT2).max(axis=1) ** 2
        return [(occupation > space.cutoff / 4.0, lambda k: TruncationGuardError(float(occupation[k]), space.cutoff))]
    p, x = labels[:, 0], labels[:, 1]
    return [
        (
            np.abs(x) + 5.0 > space.extent,
            lambda k: ValueError(f"label x={x[k]} too close to the box edge (extent {space.extent})"),
        ),
        (
            np.abs(p) + 5.0 > space.momentum_limit,
            lambda k: ValueError(f"label p={p[k]} too close to the spectral band edge"),
        ),
    ]


def coherent_state(space: FockSpace, p, x, theta: float = 0.0) -> StateVector:
    """exp(i theta) D(alpha)|0> with alpha_i = (x_i + i p_i)/sqrt(2) per mode.

    The truncation guard requires mean occupation |alpha|^2 <= cutoff/4 in
    every mode, and the label must be finite; the reported truncation bound
    is the exact norm^2 the cutoff drops, 1 - prod_i (1 - P(cutoff + 1, |alpha_i|^2)).
    """
    p = _as_mode_vector(p, space.modes)
    x = _as_mode_vector(x, space.modes)
    _check_labels(np.concatenate((p, x, [theta]))[None], (space,))
    alphas = (x + 1j * p) / SQRT2
    vec = reduce(np.kron, _mode_coherent_coeffs(alphas, space.mode_dim)) * np.exp(1j * theta)
    kept_log = sum(math.log1p(-_poisson_tail(abs(alpha) ** 2, space.cutoff)) for alpha in alphas)
    return StateVector(space, vec, abs(math.expm1(kept_log)))


def overlap(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
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


def matrix_element(space: FockSpace, kind: str, axis: int, s1: StateVector, s2: StateVector) -> complex:
    """<s1|O|s2> for O = X or P of mode `axis` (1-based)."""
    if kind not in ("X", "P"):
        raise ValueError("kind must be 'X' or 'P'")
    return complex(np.vdot(s1.coefficients, space._lift(kind, axis) @ s2.coefficients))


# ---------------------------------------------------------------------------
# high-precision Fock sums: exact fixed-point dot products
# ---------------------------------------------------------------------------

FOCK_GRAM_KINDS = ("c", "X", "P")
FRAC_BITS = 135  # fractional bits of the fixed-point coherent coefficients and phases


def _fixed(value, bits: int) -> int:
    """floor(value 2^bits + 1/2), exactly, for a float, Fraction or Decimal."""
    return _fixed_ratio(*value.as_integer_ratio(), bits)


def _fixed_ratio(num: int, den: int, bits: int) -> int:
    """floor(num/den 2^bits + 1/2), exactly, for ints num and den > 0."""
    return ((num << (bits + 1)) + den) // (den << 1)


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


@lru_cache(maxsize=32)
def _fixed_coherent(p: float, x: float, dim: int, bits: int) -> tuple:
    """(re, im): tuples of round(c_n 2^bits), n < dim, for the coherent
    coefficients c_n = exp(-(x^2 + p^2)/4) (x + i p)^n / sqrt(2^n n!).
    Cached per (p, x, dim, bits); the tuples cannot be changed by a caller.

    The recursion c_n = c_{n-1} (x + i p)/sqrt(2n) runs in integers with
    w = bits + guard fractional bits, from c_0 (_fixed_exp on the exact
    rational -(x^2 + p^2)/4, within 0.5 + 2^-30 units at w bits) and
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
        return (0,) * dim, (0,) * dim
    guard = 36 + dim.bit_length() + math.ceil(0.5 * lam * math.log2(math.e))
    w = bits + guard
    # the exact -(x^2 + p^2)/4 from the integer ratios of x and p
    (xn, xd), (pn, pd) = x.as_integer_ratio(), p.as_integer_ratio()
    cr, ci = _fixed_exp(-(xn * xn * pd * pd + pn * pn * xd * xd), 0, 4 * xd * xd * pd * pd, w)
    big_x, big_p = _fixed(x, w), _fixed(p, w)
    half, shift = 1 << (2 * w - 1), 2 * w
    re, im = [cr], [ci]
    for r in _fixed_step(dim, w):
        cr, ci = ((cr * big_x - ci * big_p) * r + half) >> shift, ((cr * big_p + ci * big_x) * r + half) >> shift
        re.append(cr)
        im.append(ci)
    half = 1 << (guard - 1)
    return tuple((v + half) >> guard for v in re), tuple((v + half) >> guard for v in im)


def _fixed_image(coeffs: tuple, kind: str) -> tuple:
    """(re, im) of O c for fixed-point coefficients c = (re, im) with
    FRAC_BITS fractional bits: c itself for "c", else the X or P image through
    the fixed-point band roots, with 2 FRAC_BITS fractional bits."""
    if kind == "c":
        return coeffs
    band = _fixed_band(len(coeffs[0]), FRAC_BITS)
    # (a v)_n = s_{n+1} v_{n+1} and (a* v)_n = s_n v_{n-1}, with s the band
    lowered = [[*map(operator.mul, band, v[1:]), 0] for v in coeffs]
    raised = [[0, *map(operator.mul, band, v)] for v in coeffs]
    if kind == "X":
        return tuple([*map(operator.add, lo, ra)] for lo, ra in zip(lowered, raised))
    # P v = -i (lowered - raised)
    return [*map(operator.sub, lowered[1], raised[1])], [*map(operator.sub, raised[0], lowered[0])]


def _frac_bits(kind: str) -> int:
    """Fractional bits of the fixed-point <r|O|c>: bra times _fixed_image."""
    return (2 if kind == "c" else 3) * FRAC_BITS


def _cutoff_index(cutoff) -> int:
    """cutoff as a Python int (numpy integers too), refusing bools, floats
    and negative values."""
    try:
        index = None if isinstance(cutoff, bool) else operator.index(cutoff)  # numpy bools raise
    except TypeError:
        index = None
    if index is None or index < 0:
        raise ValueError(f"cutoff must be a non-negative integer, got {cutoff!r}")
    return index


def _fixed_coefficients(rows, cols, cutoff: int, kinds) -> tuple:
    """(rows, cols, coefficients): the row and column labels as float pairs,
    and each distinct label's _fixed_coherent (re, im), computed once per
    label and cutoff in a process (a bounded cache) and shared by every call
    and kind."""
    cutoff = _cutoff_index(cutoff)
    for kind in kinds:
        if kind not in FOCK_GRAM_KINDS:
            raise ValueError(f"kind must be one of {FOCK_GRAM_KINDS}, got {kind!r}")
    rows = [(float(p), float(x)) for p, x in rows]
    cols = [(float(p), float(x)) for p, x in cols]
    if not rows or not cols:
        raise ValueError(f"need at least one row and one column label, got {len(rows)} and {len(cols)}")
    if not all(math.isfinite(v) for label in rows + cols for v in label):
        raise ValueError("labels must be finite")
    coeffs = {label: _fixed_coherent(*label, cutoff + 1, FRAC_BITS) for label in dict.fromkeys(rows + cols)}
    return rows, cols, coeffs


DIGIT_BITS = 16
# A product of two signed 16-bit digits is below 2^32 in magnitude, so a sum
# of 2 dim of them is below dim 2^33: exact in float64 while dim < 2^20.
MAX_EXACT_DIM = 1 << (53 - 2 * DIGIT_BITS - 1)


def _digits(vectors) -> np.ndarray:
    """Fixed-point vectors (re, im) as a float64 array of shape
    (2 dim, len(vectors), D), entry [k, j] the k-th term of [re | im] of
    vector j: each integer in D signed 16-bit digits, least significant
    first with the top digit in two's complement, D the fewest that hold
    every integer.  Each integer is converted once."""
    ints = [v for vector in vectors for part in vector for v in part]
    width = max(map(int.bit_length, ints), default=0) // DIGIT_BITS + 1
    raw = b"".join(v.to_bytes(2 * width, "little", signed=True) for v in ints)
    digits = np.frombuffer(raw, "<u2").reshape(len(vectors), -1, width).transpose(1, 0, 2)
    out = np.array(digits, dtype=np.float64, order="C")
    out[..., -1] = digits[..., -1].view("<i2")
    return out


def _digit_gram(bras: np.ndarray, kets: np.ndarray) -> list:
    """Exact conj(b) . k for every bra b and ket k given as _digits arrays
    (dim < MAX_EXACT_DIM): a flat list of Python ints, (re, im) per (bra, ket)
    in row-major order.

    For each bra digit, float64 matmuls give its products with every ket
    digit: [b_re | b_im] . [k_re | k_im] for the real part and
    b_re . k_im - b_im . k_re for the imaginary part, all exact integers.
    They add into the digit diagonals in int64 (at most bras.shape[2], 9 for
    coefficients, terms below 2^53 each), carries reduce the diagonals to
    16-bit digits, and int.from_bytes rebuilds each integer once.
    """
    terms, n_bras, d_bra = bras.shape
    _, n_kets, d_ket = kets.shape
    half = terms // 2
    right = kets.reshape(terms, n_kets * d_ket)
    width = d_bra + d_ket + 2  # digits of the result, with room for the carries and the sign
    acc = np.zeros((n_bras, n_kets, 2, width), dtype=np.int64)
    for a in range(d_bra):
        left = bras[:, :, a].T
        re = left @ right
        im = left[:, :half] @ right[half:]
        im -= left[:, half:] @ right[:half]
        acc[:, :, 0, a:a + d_ket] += re.astype(np.int64).reshape(n_bras, n_kets, d_ket)
        acc[:, :, 1, a:a + d_ket] += im.astype(np.int64).reshape(n_bras, n_kets, d_ket)
    for s in range(width - 1):
        acc[..., s + 1] += acc[..., s] >> DIGIT_BITS
    raw = (acc & 0xFFFF).astype("<u2").tobytes()
    size = 2 * width
    return [int.from_bytes(raw[i:i + size], "little", signed=True) for i in range(0, len(raw), size)]


def _fock_gram_fixed(rows, cols, cutoff: int, kinds) -> list:
    """Exact integer sums behind fock_gram_hp: per kind (re, im, frac_bits),
    where re + i im over 2^frac_bits is <r|O|c> for every row and column
    label, re and im object arrays of Python ints."""
    if _cutoff_index(cutoff) + 1 >= MAX_EXACT_DIM:
        raise ValueError(f"exact digit products need cutoff + 1 < {MAX_EXACT_DIM}, got cutoff {cutoff}")
    rows, cols, coeffs = _fixed_coefficients(rows, cols, cutoff, kinds)
    index = {label: i for i, label in enumerate(coeffs)}
    coeff_digits = _digits(list(coeffs.values()))
    bras = coeff_digits[:, [index[label] for label in rows]]
    out = []
    for kind in kinds:
        if kind == "c":
            kets = coeff_digits[:, [index[label] for label in cols]]
        else:
            kets = _digits([_fixed_image(coeffs[label], kind) for label in cols])
        ints = np.array(_digit_gram(bras, kets), dtype=object).reshape(len(rows), len(cols), 2)
        out.append((ints[..., 0], ints[..., 1], _frac_bits(kind)))
    return out


def fock_gram_hp(rows, cols, cutoff: int, kinds) -> tuple:
    """<r|O|c> on the 1D Fock space truncated at `cutoff`, for every row label
    r = (p, x) and column label c, with O the identity ("c"), X or P: one
    complex array of shape (len(rows), len(cols)) per kind in `kinds`.

    Each distinct label's coherent coefficients are computed once for all
    kinds, correctly rounded to integers with FRAC_BITS fractional bits
    (_fixed_coherent); the X and P images use fixed-point band roots, and
    every element is one exact integer sum (an exact dot product,
    Kulisch-Miranker 1981, on float64 digit products: _digit_gram), rounded
    once to complex at the end.
    """
    out = []
    for re, im, frac in _fock_gram_fixed(rows, cols, cutoff, kinds):
        scale = 1 << frac
        # int / int is correctly rounded
        values = [complex(r / scale, i / scale) for r, i in zip(re.flat, im.flat)]
        out.append(np.array(values, dtype=complex).reshape(re.shape))
    return tuple(out)


EXP_REDUCTION_BITS = 8  # 8 more squarings cut a 185-bit c_0 series from 46 terms to 20


def _fixed_exp(re_num: int, im_num: int, den: int, bits: int) -> tuple:
    """(re, im) = round(exp(z) 2^bits) for z = (re_num + i im_num)/den with
    re_num <= 0 < den, each within 0.5 + 2^-30 units: the Taylor series of
    exp(z/2^s), |z/2^s| < 2^-EXP_REDUCTION_BITS, summed in integers with
    w = bits + s + 40 fractional bits and squared s times.  Every value stays
    within 1 + 2^-w of the unit disk, so each squaring at most doubles the
    absolute error, and the 40 guard bits cover the 2^s growth of every error
    made before the squarings."""
    s = (max(-re_num, abs(im_num)) // den).bit_length() + EXP_REDUCTION_BITS
    w = bits + s + 40
    yr, yi = _fixed_ratio(re_num, den, bits + 40), _fixed_ratio(im_num, den, bits + 40)  # z/2^s, w fractional bits
    re = tr = 1 << w
    im = ti = k = 0
    while tr or ti:
        k += 1
        # term *= y / k, rounded to nearest, so |term| falls to 0: floor(floor(v / 2^w) / k)
        # is floor(v / (k 2^w)), so the division is by the small k
        half = k << (w - 1)
        tr, ti = ((tr * yr - ti * yi + half) >> w) // k, ((tr * yi + ti * yr + half) >> w) // k
        re, im = re + tr, im + ti
    for _ in range(s):
        re, im = (re * re - im * im) >> w, (2 * re * im) >> w
    half = 1 << (w - bits - 1)
    return (re + half) >> (w - bits), (im + half) >> (w - bits)


def _fixed_phase(phi: Fraction, bits: int) -> tuple:
    """(re, im) = round(exp(i phi) 2^bits), each within 0.5 + 2^-30 units."""
    return _fixed_exp(0, *phi.as_integer_ratio(), bits)


def _hp_element(kind: str, pairs, theta1, theta2, cutoff: int) -> complex:
    """exp(i(theta2 - theta1)) prod_k <l_k|O|r_k> over the label pairs
    (l_k, r_k), one per mode: each factor is a plain integer dot over the
    fixed-point vectors fock_gram_hp uses (for one pair, cheaper than digit
    arrays); the factors and the fixed-point phase are multiplied exactly,
    then rounded once to complex."""
    phi = Fraction(float(theta2)) - Fraction(float(theta1))  # exact
    (re, im), frac = _fixed_phase(phi, FRAC_BITS), FRAC_BITS
    for label1, label2 in pairs:
        (row,), (col,), coeffs = _fixed_coefficients([label1], [label2], cutoff, (kind,))
        # conj(bra) . ket = (b_re k_re + b_im k_im) + i (b_re k_im - b_im k_re), in integers
        (b_re, b_im), (k_re, k_im) = coeffs[row], _fixed_image(coeffs[col], kind)
        r = sum(map(operator.mul, b_re, k_re)) + sum(map(operator.mul, b_im, k_im))
        i = sum(map(operator.mul, b_re, k_im)) - sum(map(operator.mul, b_im, k_re))
        re, im, frac = re * r - im * i, re * i + im * r, frac + _frac_bits(kind)
    # int / int is correctly rounded
    return complex(re / (1 << frac), im / (1 << frac))


def fock_overlap_hp(p1, x1, theta1, p2, x2, theta2, cutoff: int) -> complex:
    """Truncated Fock inner product from the exact per-mode sums of
    fock_gram_hp, multiplied and phased exactly and rounded once.

    Factorizes over modes (exact for product states), so 3D sums cost three
    1D sums.
    """
    p1, x1, p2, x2 = np.atleast_1d(p1, x1, p2, x2)
    pairs = zip(zip(p1, x1, strict=True), zip(p2, x2, strict=True), strict=True)
    return _hp_element("c", pairs, theta1, theta2, cutoff)


def fock_matrix_element_hp(kind: str, p1, x1, theta1, p2, x2, theta2, cutoff: int) -> complex:
    """1D high-precision <s1|O|s2> with the ladder action applied exactly."""
    if kind not in ("X", "P"):
        raise ValueError("kind must be 'X' or 'P'")
    return _hp_element(kind, [((p1, x1), (p2, x2))], theta1, theta2, cutoff)


# ---------------------------------------------------------------------------
# Weyl unitaries
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
    O(N^2) per mode per vector (O(N^(m+1)) on m modes).
    """

    space: FockSpace
    phase: complex
    steps: tuple

    def apply(self, state: StateVector) -> StateVector:
        if state.space != self.space:
            raise ValueError("operator and state live on different spaces")
        n = self.space.mode_dim
        t = np.ascontiguousarray(state.coefficients, dtype=complex)
        for steps in self.steps:
            # the current mode leads; the transpose rotates the next one to the front
            t = _spectral_steps(steps, t.reshape(n, -1)).T
        return StateVector(self.space, self.phase * t.reshape(-1))


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

    realize = {"rotation": space.j_axis_op, "position": space.x_op, "momentum": space.p_op}
    ops = []
    for g in table.generators:
        if g.role == "central":
            ops.append(space.identity())
        elif g.role in realize:
            ops.append(realize[g.role](g.axis))
        else:
            raise ValueError(f"generator {g.name} ({g.role}) has no operator on the Fock space")

    top = space.cutoff - 2
    names = [g.name for g in table.generators]
    detail = {}
    for ia in range(len(names)):
        for ib in range(ia + 1, len(names)):
            a, b = ops[ia], ops[ib]
            delta = a @ b - b @ a
            for tgt, coeff, _ in table.entries.get((ia, ib), ()):
                delta = delta - 1j * coeff * ops[tgt]
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


def _coherent_rows(space, p: np.ndarray, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Row k: the coefficients of the 1D coherent state (p[k], x[k], theta[k]),
    for labels already checked.  On a 1-mode FockSpace they are bit for bit
    coherent_state's, one cumprod for the whole label set; on a GridSpace the
    sampled wavefunction pi^(-1/4) exp(-(y-x)^2/2 + i p y - i p x / 2 + i theta)
    times sqrt(spacing), one broadcast exp."""
    if isinstance(space, GridSpace):
        y = space.positions
        p, x, theta = p[:, None], x[:, None], theta[:, None]
        psi = np.pi**-0.25 * np.exp(-0.5 * (y - x) ** 2 + 1j * p * y - 0.5j * p * x + 1j * theta)
        return psi * math.sqrt(space.spacing)
    return _mode_coherent_coeffs((x + 1j * p) / SQRT2, space.mode_dim) * np.exp(1j * theta)[:, None]


def _pair_overlaps(pairs, spaces) -> list[list[complex]]:
    """Per space, <l1|l2> for each 1D label pair (l1, l2), l = (p, x, theta).
    One guard pass (_check_labels) covers every space, so the first bad label
    in input order raises; then each space builds all its rows at once, and
    each overlap is one vdot of two rows, as overlap() takes it."""
    if any(isinstance(space, FockSpace) and space.modes != 1 for space in spaces):
        raise ValueError("pair overlaps are defined for the 1D backends")
    labels = np.array(list(pairs), dtype=float).reshape(-1, 3)  # rows (p, x, theta), in input order
    _check_labels(labels, spaces)
    return [
        [complex(np.vdot(a, b)) for a, b in zip(rows[0::2], rows[1::2])]
        for rows in (_coherent_rows(space, *labels.T) for space in spaces)
    ]


def coherent_pair_overlaps(space, pairs) -> list[complex]:
    """<l1|l2> for each 1D label pair (l1, l2), l = (p, x, theta), on a
    1-mode FockSpace (bit for bit overlap() of the two coherent_state states)
    or a GridSpace."""
    return _pair_overlaps(pairs, (space,))[0]


def cross_validate_backends(pairs, space: FockSpace, grid: GridSpace) -> list[dict]:
    """Overlap of each 1D label pair on both backends, with the difference."""
    fock, gridv = _pair_overlaps(pairs, (space, grid))
    return [
        {"pair_id": pair_id, "fock": f, "grid": g, "abs_diff": abs(f - g)}
        for pair_id, (f, g) in enumerate(zip(fock, gridv))
    ]


# ---------------------------------------------------------------------------
# projective flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowReport:
    max_deviation: float
    norm_drift: float
    halving_deviation: float
    steps: int


FLOW_SAMPLE_EVERY = 50  # RK4 steps between the samples the two flow routes compare
# the routes keep about 1 KB of samples per step at cutoff 512: 10^6 steps take 8 s and 1 GB on 2 CPUs
FLOW_MAX_STEPS = 1_000_000


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
    t_final: float,
    dt: float,
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
    if not 1 <= steps <= FLOW_MAX_STEPS:
        raise ValueError(f"t_final={t_final} / dt={dt} rounds to {steps} steps, outside [1, {FLOW_MAX_STEPS}]")
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
    return FlowReport(deviation, drift, halving, steps)
