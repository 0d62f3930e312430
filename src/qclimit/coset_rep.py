"""Matrix realizations of the translation sector on the two coset spaces.

Phase-space points (p, x, theta) ride in homogeneous 8-vectors
(p1 p2 p3, x1 x2 x3, theta, 1); configuration points (x, theta) in 5-vectors
(x1 x2 x3, theta, 1).  Group elements are square matrices with bottom row
(0, ..., 0, 1).  A rotation block other than the identity is not built here;
:func:`compose` and :func:`extract_weyl_label` still tell such a matrix apart.

The translation-sector group law works on label arrays: p and x of shape
(N, 3) and theta of shape (N,).  :func:`group_elements` builds the (N, n, n)
stack of their matrices and :func:`weyl_compose_labels` composes two sets of
rows in closed form, so a check of the law is one stacked matrix product.
:func:`group_element` and :func:`weyl_compose_formula` are the N = 1 cases
on a :class:`WeylLabel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KIND_DIMS = {"phase": 8, "config": 5}


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


def group_elements(kind: str, p, x, theta) -> np.ndarray:
    """Stack (N, n, n) of translation-sector elements for label rows
    (p, x, theta); n is 8 (phase) or 5 (config)."""
    if kind not in KIND_DIMS:
        raise ValueError(f"unknown coset kind {kind!r}")
    p, x, theta = _label_arrays(p, x, theta)
    n = KIND_DIMS[kind]
    m = np.broadcast_to(np.eye(n), (len(theta), n, n)).copy()
    if kind == "phase":
        m[:, 0:3, 7] = p
        m[:, 3:6, 7] = x
        m[:, 6, 0:3] = -0.5 * x
        m[:, 6, 3:6] = 0.5 * p
        m[:, 6, 7] = theta
    else:
        m[:, 0:3, 4] = x
        m[:, 3, 0:3] = p
        m[:, 3, 4] = theta
    return m


def group_element(kind: str, w: WeylLabel) -> CosetMatrix:
    """Finite element of the translation sector for label w."""
    return CosetMatrix(kind, group_elements(kind, *_rows(w))[0])


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
