"""Matrix realizations of the two coset spaces carrying the symmetry action.

Phase-space points (p, x, theta) ride in homogeneous 8-vectors
(p1 p2 p3, x1 x2 x3, theta, 1); configuration points (x, theta) in 5-vectors
(x1 x2 x3, theta, 1).  Group elements are square matrices with bottom row
(0, ..., 0, 1); algebra elements have an all-zero bottom row.  The rescaled
(contracted) action takes k in [1, inf], with k = math.inf meaning the exact
limit where the theta coupling is deleted.

The translation-sector group law works on label arrays: p and x of shape
(N, 3) and theta of shape (N,).  :func:`group_elements` builds the (N, n, n)
stack of their matrices and :func:`weyl_compose_labels` composes two sets of
rows in closed form, so a check of the law is one stacked matrix product.
:func:`group_element` and :func:`weyl_compose_formula` are the N = 1 cases
on a :class:`WeylLabel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KIND_DIMS = {"phase": 8, "config": 5}

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class WeylLabel:
    """Group-element label (p, x, theta) of the translation sector."""

    p: np.ndarray
    x: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(3))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class AlgebraParams:
    """Algebra-element parameters (omega, pbar, xbar, thetabar).

    omega holds the 3 independent entries (w23, w31, w12) of the
    antisymmetric rotation matrix; see :func:`omega_matrix`.
    """

    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pbar: np.ndarray = field(default_factory=lambda: np.zeros(3))
    xbar: np.ndarray = field(default_factory=lambda: np.zeros(3))
    thetabar: float = 0.0

    def __post_init__(self):
        for name in ("omega", "pbar", "xbar"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        object.__setattr__(self, "thetabar", float(self.thetabar))


@dataclass(frozen=True)
class CosetMatrix:
    kind: str
    entries: np.ndarray

    def __post_init__(self):
        if self.kind not in KIND_DIMS:
            raise ValueError(f"unknown coset kind {self.kind!r}")
        m = np.asarray(self.entries, dtype=float)
        n = KIND_DIMS[self.kind]
        if m.shape != (n, n):
            raise ValueError(f"{self.kind} matrices are {n}x{n}, got {m.shape}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return KIND_DIMS[self.kind]


def omega_matrix(omega: np.ndarray) -> np.ndarray:
    """Antisymmetric 3x3 from the independent entries (w23, w31, w12)."""
    w1, w2, w3 = np.asarray(omega, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, w3, -w2],
            [-w3, 0.0, w1],
            [w2, -w1, 0.0],
        ]
    )


def rotation_from_omega(omega: np.ndarray) -> np.ndarray:
    """Finite rotation exp(Omega(omega)); proper orthogonal for any omega.

    Rodrigues' formula: Omega^3 = -t^2 Omega with t = |omega|, so
    exp(Omega) = I + (sin t / t) Omega + ((1 - cos t) / t^2) Omega^2, with
    (1 - cos t) / t^2 = (sin(t/2) / (t/2))^2 / 2; both quotients are sinc
    values, so t = 0 needs no branch.
    """
    k = omega_matrix(omega)
    t = math.hypot(*np.asarray(omega, dtype=float).reshape(3))
    return np.eye(3) + np.sinc(t / np.pi) * k + 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2 * (k @ k)


def _check_rotation(rotation: np.ndarray) -> np.ndarray:
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be 3x3")
    if not np.abs(r.T @ r - np.eye(3)).max() <= ORTHO_TOL:
        raise ValueError("rotation is not orthogonal within 1e-12")
    if np.linalg.det(r) < 0:
        raise ValueError("rotation must have determinant +1")
    return r


# ---------------------------------------------------------------------------
# algebra elements and the infinitesimal action
# ---------------------------------------------------------------------------


def algebra_matrix(kind: str, params: AlgebraParams) -> CosetMatrix:
    """Matrix of the algebra element with the given parameters."""
    omega = omega_matrix(params.omega)
    if kind == "phase":
        m = np.zeros((8, 8))
        m[0:3, 0:3] = omega
        m[3:6, 3:6] = omega
        m[0:3, 7] = params.pbar
        m[3:6, 7] = params.xbar
        m[6, 0:3] = -0.5 * params.xbar
        m[6, 3:6] = 0.5 * params.pbar
        m[6, 7] = params.thetabar
    elif kind == "config":
        m = np.zeros((5, 5))
        m[0:3, 0:3] = omega
        m[0:3, 4] = params.xbar
        m[3, 0:3] = params.pbar
        m[3, 4] = params.thetabar
    else:
        raise ValueError(f"unknown coset kind {kind!r}")
    return CosetMatrix(kind, m)


def infinitesimal_action(kind: str, params: AlgebraParams, point) -> tuple:
    """Coordinate differentials of the algebra action at a coset point.

    Phase kind: point (p, x, theta) -> (dp, dx, dtheta) with
    dtheta = (pbar.x - xbar.p)/2 + thetabar.  Config kind: point (x, theta)
    -> (dx, dtheta) with dtheta = pbar.x + thetabar.
    """
    m = algebra_matrix(kind, params).entries
    vec = _point_vector(kind, point)
    out = m @ vec
    if kind == "phase":
        return out[0:3], out[3:6], float(out[6])
    return out[0:3], float(out[3])


def _point_vector(kind: str, point) -> np.ndarray:
    if kind == "phase":
        p, x, theta = point
        return np.concatenate(
            [np.asarray(p, float).reshape(3), np.asarray(x, float).reshape(3), [theta, 1.0]]
        )
    if kind == "config":
        x, theta = point
        return np.concatenate([np.asarray(x, float).reshape(3), [theta, 1.0]])
    raise ValueError(f"unknown coset kind {kind!r}")


def contracted_action(kind: str, params: AlgebraParams, point, k: float) -> tuple:
    """Differentials of the rescaled action at contraction parameter k.

    Labels and coordinates are the rescaled (classical) ones.  The theta
    coupling carries 1/(2 k^2) (phase) or 1/k^2 (config); k = math.inf
    deletes those terms exactly, leaving dtheta = thetabar.
    """
    if not (k >= 1):
        raise ValueError("contraction parameter k must be >= 1 (math.inf allowed)")
    inv_k2 = 0.0 if math.isinf(k) else 1.0 / (k * k)
    omega = omega_matrix(params.omega)
    if kind == "phase":
        p, x, theta = point
        p = np.asarray(p, float).reshape(3)
        x = np.asarray(x, float).reshape(3)
        dp = omega @ p + params.pbar
        dx = omega @ x + params.xbar
        dtheta = 0.5 * inv_k2 * (params.pbar @ x - params.xbar @ p) + params.thetabar
        return dp, dx, float(dtheta)
    if kind == "config":
        x, theta = point
        x = np.asarray(x, float).reshape(3)
        dx = omega @ x + params.xbar
        dtheta = inv_k2 * (params.pbar @ x) + params.thetabar
        return dx, float(dtheta)
    raise ValueError(f"unknown coset kind {kind!r}")


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def _label_arrays(p, x, theta) -> tuple:
    """Float label arrays p, x of shape (N, 3) and theta of shape (N,)."""
    p, x, theta = (np.asarray(a, dtype=float) for a in (p, x, theta))
    if p.ndim != 2 or p.shape[1] != 3 or x.shape != p.shape or theta.shape != p.shape[:1]:
        raise ValueError(
            f"labels need p, x of shape (N, 3) and theta of shape (N,), got {p.shape}, {x.shape}, {theta.shape}"
        )
    return p, x, theta


def _rows(w: WeylLabel) -> tuple:
    """A single label as label arrays with N = 1."""
    return w.p[None], w.x[None], np.array([w.theta])


def group_elements(kind: str, p, x, theta, rotation: np.ndarray | None = None) -> np.ndarray:
    """Stack (N, n, n) of translation factors for label rows (p, x, theta),
    each times the same rotation; n is 8 (phase) or 5 (config)."""
    if kind not in KIND_DIMS:
        raise ValueError(f"unknown coset kind {kind!r}")
    p, x, theta = _label_arrays(p, x, theta)
    r = np.eye(3) if rotation is None else _check_rotation(rotation)
    n = KIND_DIMS[kind]
    m = np.broadcast_to(np.eye(n), (len(theta), n, n)).copy()
    if kind == "phase":
        m[:, 0:3, 0:3] = r
        m[:, 3:6, 3:6] = r
        m[:, 0:3, 7] = p
        m[:, 3:6, 7] = x
        m[:, 6, 0:3] = -0.5 * x @ r
        m[:, 6, 3:6] = 0.5 * p @ r
        m[:, 6, 7] = theta
    else:
        m[:, 0:3, 0:3] = r
        m[:, 0:3, 4] = x
        m[:, 3, 0:3] = p @ r
        m[:, 3, 4] = theta
    return m


def group_element(kind: str, w: WeylLabel, rotation: np.ndarray | None = None) -> CosetMatrix:
    """Finite element: translation factor for label w times the rotation."""
    return CosetMatrix(kind, group_elements(kind, *_rows(w), rotation)[0])


def is_pure_weyl(g: CosetMatrix, tol: float = 1e-12) -> bool:
    """True when the rotation block is the identity."""
    return np.abs(g.entries[0:3, 0:3] - np.eye(3)).max() <= tol


def extract_weyl_label(g: CosetMatrix) -> WeylLabel:
    """Label of a pure-Weyl group element (rotation block = identity)."""
    if not is_pure_weyl(g):
        raise ValueError("matrix has a nontrivial rotation block")
    m = g.entries
    if g.kind == "phase":
        return WeylLabel(m[0:3, 7], m[3:6, 7], m[6, 7])
    return WeylLabel(m[3, 0:3], m[0:3, 4], m[3, 4])


def compose(g1: CosetMatrix, g2: CosetMatrix) -> tuple[CosetMatrix, WeylLabel | None]:
    """Matrix product; the label is extracted when both factors are pure Weyl."""
    if g1.kind != g2.kind:
        raise ValueError(f"kind mismatch: {g1.kind} vs {g2.kind}")
    product = CosetMatrix(g1.kind, g1.entries @ g2.entries)
    label = None
    if is_pure_weyl(g1) and is_pure_weyl(g2):
        label = extract_weyl_label(product)
    return product, label


def weyl_compose_labels(w1: tuple, w2: tuple, kind: str = "phase") -> tuple:
    """Closed-form composition law of the translation sector on label arrays.

    w1 and w2 are (p, x, theta) rows as for :func:`group_elements`; the result
    is the (p, x, theta) rows of the products.  Phase kind picks up the
    symplectic phase theta = theta1 + theta2 - (x1.p2 - p1.x2)/2; config kind
    is abelian in (x, theta) with the momenta adding.
    """
    p1, x1, theta1 = _label_arrays(*w1)
    p2, x2, theta2 = _label_arrays(*w2)
    if p1.shape != p2.shape:
        raise ValueError(f"label rows differ in number: {len(p1)} vs {len(p2)}")
    # vecdot takes each row through the dot kernel of a 1-D `@`, so one label keeps its bits
    if kind == "phase":
        theta = theta1 + theta2 - 0.5 * (np.vecdot(x1, p2) - np.vecdot(p1, x2))
    elif kind == "config":
        theta = theta1 + theta2 + np.vecdot(p1, x2)
    else:
        raise ValueError(f"unknown coset kind {kind!r}")
    return p1 + p2, x1 + x2, theta


def weyl_compose_formula(w1: WeylLabel, w2: WeylLabel, kind: str = "phase") -> WeylLabel:
    """Closed-form composition of two labels; see :func:`weyl_compose_labels`."""
    p, x, theta = weyl_compose_labels(_rows(w1), _rows(w2), kind)
    return WeylLabel(p[0], x[0], theta[0])
