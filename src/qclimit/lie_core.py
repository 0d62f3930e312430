"""Lie algebras given by structure constants, with parametrized contractions.

Brackets are stored in the convention

    [T_a, T_b] = i * sum_c  coeff * eps**power * T_c

with real ``coeff`` and ``eps = 1/k**2`` the contraction parameter, so the
tables stay real and the k -> infinity limit is an exact truncation of the
terms with positive ``power`` rather than a numerical limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ROLES = ("rotation", "position", "momentum", "central", "hamiltonian")

# dual axis a <-> antisymmetric index pair (i, j), cyclic convention
_DUAL_PAIR = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


@dataclass(frozen=True)
class GeneratorLabel:
    """Basis generator with a role tag and (where applicable) a spatial axis."""

    name: str
    role: str
    axis: int | None = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown generator role {self.role!r}")


# one bracket term: (target generator index, real coefficient, eps power)
Term = tuple[int, float, Fraction]


@dataclass(frozen=True)
class StructureConstantTable:
    """Structure constants of a finite-dimensional real Lie algebra.

    ``entries`` maps an ordered generator pair (a, b) to the terms of
    [T_a, T_b]; both (a, b) and (b, a) are stored so that broken
    (non-antisymmetric) tables can be represented and then flagged by
    :func:`verify_algebra`.
    """

    name: str
    generators: tuple[GeneratorLabel, ...]
    entries: dict[tuple[int, int], tuple[Term, ...]]

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise KeyError(f"no generator named {name!r}")

    def bracket_terms(self, a: str | int, b: str | int) -> tuple[Term, ...]:
        ia = a if isinstance(a, int) else self.index(a)
        ib = b if isinstance(b, int) else self.index(b)
        return self.entries.get((ia, ib), ())

    def coefficient_tensor(self, eps: float) -> np.ndarray:
        """Dense C[a, b, c] with all eps powers evaluated at ``eps``."""
        n = self.dimension
        c = np.zeros((n, n, n))
        for (a, b), terms in self.entries.items():
            for tgt, coeff, power in terms:
                c[a, b, tgt] += coeff * _eps_pow(eps, power)
        return c

    def coefficient_tensor_by_power(self) -> dict[Fraction, np.ndarray]:
        """One dense C[a, b, c] per distinct eps power (symbolic form)."""
        n = self.dimension
        out: dict[Fraction, np.ndarray] = {}
        for (a, b), terms in self.entries.items():
            for tgt, coeff, power in terms:
                out.setdefault(power, np.zeros((n, n, n)))[a, b, tgt] += coeff
        return out


def _eps_pow(eps: float, power: Fraction) -> float:
    if power == 0:
        return 1.0
    if eps == 0:
        return 0.0
    return float(eps) ** float(power) if power.denominator != 1 else eps ** int(power)


def _negate(terms: tuple[Term, ...]) -> tuple[Term, ...]:
    return tuple((tgt, -coeff, power) for tgt, coeff, power in terms)


def make_table(
    name: str,
    generators: tuple[GeneratorLabel, ...],
    half_entries: dict[tuple[int, int], tuple[Term, ...]],
) -> StructureConstantTable:
    """Build a table from the a < b half, filling mirrored entries."""
    entries: dict[tuple[int, int], tuple[Term, ...]] = {}
    for (a, b), terms in half_entries.items():
        if a == b or not terms:
            continue
        entries[(a, b)] = tuple(terms)
        entries[(b, a)] = _negate(tuple(terms))
    return StructureConstantTable(name, generators, entries)


# ---------------------------------------------------------------------------
# standard algebra: rotations + position + momentum + central charge (+ H)
# ---------------------------------------------------------------------------


def _pair_to_dual(i: int, j: int) -> tuple[int, float] | None:
    """Antisymmetric index pair -> (dual rotation axis, sign), None if i == j."""
    if i == j:
        return None
    for axis, (h, k) in _DUAL_PAIR.items():
        if (i, j) == (h, k):
            return axis, 1.0
        if (i, j) == (k, h):
            return axis, -1.0
    raise ValueError(f"bad index pair ({i}, {j})")


def rotation_rotation_bracket(i: int, j: int, h: int, k: int) -> dict[int, float]:
    """[J_ij, J_hk] expanded onto the three independent rotation generators.

    Returns a map dual-axis -> coefficient (of i * J_axis).  The sign layout
    is the unique one compatible with the Jacobi identity given the J-vector
    brackets; see tests for the closure and adjoint-matrix cross-checks.
    """
    out: dict[int, float] = {}
    for sign, (delta_a, delta_b), (r, s) in (
        (-1.0, (j, k), (i, h)),
        (+1.0, (j, h), (i, k)),
        (-1.0, (i, h), (j, k)),
        (+1.0, (i, k), (j, h)),
    ):
        if delta_a != delta_b:
            continue
        dual = _pair_to_dual(r, s)
        if dual is None:
            continue
        axis, dsign = dual
        out[axis] = out.get(axis, 0.0) + sign * dsign
    return {a: c for a, c in out.items() if c != 0.0}


def rotation_vector_bracket(i: int, j: int, k: int) -> dict[int, float]:
    """[J_ij, V_k] for a spatial vector V: map axis -> coefficient of i*V_axis."""
    out: dict[int, float] = {}
    if j == k:
        out[i] = out.get(i, 0.0) + 1.0
    if i == k:
        out[j] = out.get(j, 0.0) - 1.0
    return {a: c for a, c in out.items() if c != 0.0}


def build_standard_algebra(name: str) -> StructureConstantTable:
    """The ten-generator rotation + Heisenberg algebra, or its eleven-generator
    variant with a Hamiltonian generator appended.

    Recognized names: ``HR3`` and ``HR3_with_H``.
    """
    if name not in ("HR3", "HR3_with_H"):
        raise ValueError(f"unknown algebra name {name!r}; expected HR3 or HR3_with_H")
    with_h = name == "HR3_with_H"

    gens = [GeneratorLabel(f"J{i}{j}", "rotation", axis) for axis, (i, j) in _DUAL_PAIR.items()]
    gens += [GeneratorLabel(f"X{i}", "position", i) for i in (1, 2, 3)]
    gens += [GeneratorLabel(f"P{i}", "momentum", i) for i in (1, 2, 3)]
    gens += [GeneratorLabel("I", "central")]
    if with_h:
        gens += [GeneratorLabel("H", "hamiltonian")]
    table_gens = tuple(gens)

    def idx(n: str) -> int:
        return next(i for i, g in enumerate(table_gens) if g.name == n)

    jdx = {axis: idx(f"J{i}{j}") for axis, (i, j) in _DUAL_PAIR.items()}
    xdx = {i: idx(f"X{i}") for i in (1, 2, 3)}
    pdx = {i: idx(f"P{i}") for i in (1, 2, 3)}
    cdx = idx("I")

    zero = Fraction(0)
    half: dict[tuple[int, int], tuple[Term, ...]] = {}

    # rotation-rotation, via the four-index expansion on the dual basis
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if jdx[a] >= jdx[b]:
                continue
            expansion = rotation_rotation_bracket(*_DUAL_PAIR[a], *_DUAL_PAIR[b])
            half[(jdx[a], jdx[b])] = tuple(
                (jdx[axis], coeff, zero) for axis, coeff in sorted(expansion.items())
            )

    # rotation-position and rotation-momentum
    for a in (1, 2, 3):
        i, j = _DUAL_PAIR[a]
        for k in (1, 2, 3):
            for vdx in (xdx, pdx):
                expansion = rotation_vector_bracket(i, j, k)
                terms = tuple(
                    (vdx[axis], coeff, zero) for axis, coeff in sorted(expansion.items())
                )
                if terms:
                    half[(jdx[a], vdx[k])] = terms

    # canonical pairs
    for i in (1, 2, 3):
        half[(xdx[i], pdx[i])] = ((cdx, 1.0, zero),)

    if with_h:
        hdx = idx("H")
        for i in (1, 2, 3):
            half[(xdx[i], hdx)] = ((pdx[i], -1.0, zero),)

    return make_table(name, table_gens, half)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Worst antisymmetry / Jacobi violations over the sampled eps values."""

    antisymmetry_max: float
    jacobi_max: float
    eps_samples: tuple[float, ...]


def _jacobi_residual(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Sum over e of C1[b,c,e] C2[a,e,f] + cyclic permutations of (a, b, c)."""
    t1 = np.einsum("bce,aef->abcf", c1, c2)
    t2 = np.einsum("cae,bef->abcf", c1, c2)
    t3 = np.einsum("abe,cef->abcf", c1, c2)
    return t1 + t2 + t3


def verify_algebra(
    table: StructureConstantTable, eps_samples: list[float] | tuple[float, ...]
) -> VerificationReport:
    """Check antisymmetry and the Jacobi identity at each sampled eps."""
    if len(eps_samples) == 0:
        raise ValueError("eps_samples must be non-empty")
    if not all(0.0 <= e < math.inf for e in eps_samples):
        raise ValueError("eps samples must be finite and >= 0")
    anti, jac = [], []
    for eps in eps_samples:
        c = table.coefficient_tensor(eps)
        anti.append(np.abs(c + c.transpose(1, 0, 2)).max())
        jac.append(np.abs(_jacobi_residual(c, c)).max())
    # np.max, unlike a running max(), propagates NaN
    return VerificationReport(
        float(np.max(anti)), float(np.max(jac)), tuple(float(e) for e in eps_samples)
    )


def verify_algebra_symbolic(table: StructureConstantTable) -> VerificationReport:
    """Exact verification: residuals collected per eps power instead of sampled."""
    by_power = table.coefficient_tensor_by_power()
    residuals: dict[Fraction, np.ndarray] = {}
    for p1, c1 in by_power.items():
        for p2, c2 in by_power.items():
            r = _jacobi_residual(c1, c2)
            key = p1 + p2
            residuals[key] = residuals.get(key, 0.0) + r
    # 0.0 stands for an empty table; np.max propagates NaN
    anti = np.max([0.0, *(np.abs(c + c.transpose(1, 0, 2)).max() for c in by_power.values())])
    jac = np.max([0.0, *(np.abs(r).max() for r in residuals.values())])
    return VerificationReport(float(anti), float(jac), ())


# ---------------------------------------------------------------------------
# contraction families
# ---------------------------------------------------------------------------


class ContractionFamily:
    """An eps-free algebra with per-generator rescaling weights.

    The rescaled basis is T^c = k**(-w) T; a bracket [T_a, T_b] = i c T_d
    then becomes [T_a^c, T_b^c] = i c * eps**((w_a + w_b - w_d)/2) T_d^c with
    eps = 1/k**2.  Construction fails if any combined power is negative, in
    which case no k -> infinity limit exists.
    """

    def __init__(self, base: StructureConstantTable, weights: dict[str, Fraction | int]):
        for (a, b), terms in base.entries.items():
            for _, _, power in terms:
                if power != 0:
                    raise ValueError("contraction base table must be eps-free")
        self.base = base
        self.weights = {g.name: Fraction(weights.get(g.name, 0)) for g in base.generators}
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("rescaling weights must be >= 0")
        self.rescaled = self._build_rescaled()

    def _build_rescaled(self) -> StructureConstantTable:
        gens = self.base.generators
        w = [self.weights[g.name] for g in gens]
        entries: dict[tuple[int, int], tuple[Term, ...]] = {}
        for (a, b), terms in self.base.entries.items():
            new_terms = []
            for tgt, coeff, _ in terms:
                power = (w[a] + w[b] - w[tgt]) / 2
                if power < 0:
                    raise ValueError(
                        f"family is not contractible: bracket ({gens[a].name}, "
                        f"{gens[b].name}) -> {gens[tgt].name} has eps power {power}"
                    )
                new_terms.append((tgt, coeff, power))
            entries[(a, b)] = tuple(new_terms)
        return StructureConstantTable(self.base.name + "_rescaled", gens, entries)


def standard_contraction_family(name: str = "HR3") -> ContractionFamily:
    """Position and momentum carry weight 1; rotations, I and H weight 0."""
    table = build_standard_algebra(name)
    weights = {
        g.name: Fraction(1) if g.role in ("position", "momentum") else Fraction(0)
        for g in table.generators
    }
    return ContractionFamily(table, weights)


def apply_contraction(family: ContractionFamily, k: float) -> StructureConstantTable:
    """Numeric table for the rescaled basis at finite k (eps = 1/k**2 folded in)."""
    if k < 1:
        raise ValueError("contraction parameter k must be >= 1")
    eps = 1.0 / (k * k)
    sym = family.rescaled
    entries = {
        pair: tuple((tgt, coeff * _eps_pow(eps, power), Fraction(0)) for tgt, coeff, power in terms)
        for pair, terms in sym.entries.items()
    }
    entries = {
        pair: tuple(t for t in terms if t[1] != 0.0) for pair, terms in entries.items()
    }
    entries = {pair: terms for pair, terms in entries.items() if terms}
    return StructureConstantTable(f"{family.base.name}_k={k:g}", sym.generators, entries)


def limit_algebra(family: ContractionFamily) -> StructureConstantTable:
    """The k -> infinity table: every term with a positive eps power is dropped."""
    sym = family.rescaled
    entries = {
        pair: tuple(t for t in terms if t[2] == 0)
        for pair, terms in sym.entries.items()
    }
    entries = {pair: terms for pair, terms in entries.items() if terms}
    return StructureConstantTable(family.base.name + "_limit", sym.generators, entries)
