"""Numerical experiments on the large-k limit of the 1D coherent family.

The contracted generators are X_c = X/k and P_c = P/k, so [X_c, P_c] = i/k^2
and 1/k^2 plays the role of an effective Planck constant.  A contracted label
(p_c, x_c) is represented by the coherent state at the physical label
(k p_c, k x_c), which relabel gives; expectation values of the contracted
quadratures then sit at the contracted label for every k, while overlaps
between distinct labels decay like exp(-k^2 d^2/4) with d^2 the squared label
separation.  The sweep below measures that decay on the Fock backend against
the closed form and writes the records to CSV for inspection; both records
take their labels from relabel.  Its Fock overlaps and the Fock Gram matrix
take every pair of relabeled states at once (hilbert.coherent_pair_overlaps).
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from qclimit.hilbert import (
    build_fock_space,
    coherent_overlap_formula,
    coherent_pair_overlaps,
    coherent_state,
)

CSV_COLUMNS = (
    "k",
    "hbar",
    "pair_id",
    "overlap_abs",
    "overlap_phase",
    "predicted_abs",
    "predicted_phase",
    "abs_err",
    "phase_err",
    "backend",
    "cutoff",
)


BASE_CUTOFF = 64  # the smallest cutoff used
FOCK_MAX_CUTOFF = 4096  # the largest cutoff used; the float64 ladder check first fails at 4105


def hbar_effective(k: float) -> float:
    """hbar = 1/k^2 at contraction parameter k; the one check of the rule k >= 1."""
    if not k >= 1.0:
        raise ValueError(f"contraction parameter must satisfy k >= 1, got {k}")
    return 1.0 / (k * k)


def required_cutoff(k: float, labels) -> int:
    """Cutoff policy: ceil(4 k^2 L^2), floored at BASE_CUTOFF, where L^2 is the
    largest squared contracted label.  That is eight times the largest physical
    mean occupation k^2 L^2 / 2, twice the margin coherent_state's guard needs."""
    worst = max(p * p + x * x for p, x, _ in labels)
    return max(BASE_CUTOFF, int(math.ceil(4.0 * k * k * worst)))


def relabel(k: float, p_c: float, x_c: float, theta: float = 0.0) -> tuple:
    """The physical label (k p_c, k x_c, theta), whose coherent state has its
    contracted expectation values at (p_c, x_c)."""
    hbar_effective(k)
    return (k * p_c, k * x_c, theta)


def predicted_overlap(k: float, label1, label2) -> complex:
    """Contracted-label form of the overlap: Gaussian decay at rate k^2 d^2/4
    under a symplectic phase that grows like k^2."""
    p1, x1, t1 = label1
    p2, x2, t2 = label2
    d2 = (x1 - x2) ** 2 + (p1 - p2) ** 2
    phase = 0.5 * k * k * (x1 * p2 - p1 * x2) + (t2 - t1)
    return complex(math.exp(-0.25 * k * k * d2) * np.exp(1j * phase))


@dataclass(frozen=True)
class ContractionRunConfig:
    k_values: tuple
    pairs: tuple

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("need at least one k value")
        for k in self.k_values:
            hbar_effective(k)  # raises unless k >= 1
        if not self.pairs:
            raise ValueError("need at least one label pair")


@dataclass(frozen=True)
class DecayRecord:
    k: float
    hbar: float
    pair_id: int
    overlap_abs: float
    overlap_phase: float
    predicted_abs: float
    predicted_phase: float
    abs_err: float
    phase_err: float
    backend: str
    cutoff: int


def canonical_pair():
    """Unit label separation along x, both momenta zero: decay exp(-k^2/4)."""
    return ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def _wrapped_phase_error(measured: float, predicted: float) -> float:
    return abs((measured - predicted + math.pi) % (2.0 * math.pi) - math.pi)


def _record(k, pair_id, measured: complex, predicted: complex, backend: str, cutoff: int) -> DecayRecord:
    pm, pp = abs(predicted), float(np.angle(predicted))
    mm, mp = abs(measured), float(np.angle(measured))
    return DecayRecord(
        k=float(k),
        hbar=hbar_effective(k),
        pair_id=pair_id,
        overlap_abs=mm,
        overlap_phase=mp,
        predicted_abs=pm,
        predicted_phase=pp,
        abs_err=abs(mm - pm),
        phase_err=_wrapped_phase_error(mp, pp),
        backend=backend,
        cutoff=cutoff,
    )


def overlap_decay_sweep(config: ContractionRunConfig) -> list[DecayRecord]:
    """One closed-form record per (k, pair), plus a Fock record whenever the
    cutoff policy stays within FOCK_MAX_CUTOFF."""
    records = []
    for k in config.k_values:
        for pair_id, (l1, l2) in enumerate(config.pairs):
            predicted = predicted_overlap(k, l1, l2)
            pair = (relabel(k, *l1), relabel(k, *l2))
            closed = coherent_overlap_formula(*pair[0], *pair[1])
            cutoff = required_cutoff(k, (l1, l2))
            records.append(_record(k, pair_id, closed, predicted, "closed_form", cutoff))
            if cutoff <= FOCK_MAX_CUTOFF:
                (fock,) = coherent_pair_overlaps(build_fock_space(1, cutoff), (pair,))
                records.append(_record(k, pair_id, fock, predicted, "fock", cutoff))
    return records


def csv_rows(records) -> list[DecayRecord]:
    """One record per (k, pair) in (k, pair) order: the Fock record where
    there is one, else the closed form."""
    preferred = {}
    for r in records:
        key = (r.k, r.pair_id)
        if key not in preferred or r.backend == "fock":
            preferred[key] = r
    return [preferred[key] for key in sorted(preferred)]


def write_decay_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in records:
            row = asdict(r)
            writer.writerow(
                {
                    c: format(row[c], ".17g") if isinstance(row[c], float) else row[c]
                    for c in CSV_COLUMNS
                }
            )


def decay_slope(records, pair_id: int, backend: str) -> float:
    """Least-squares slope of log|overlap| against k^2 for one pair."""
    pts = [
        (r.k * r.k, math.log(r.overlap_abs))
        for r in records
        if r.pair_id == pair_id and r.backend == backend and r.overlap_abs > 0.0
    ]
    if len({x for x, _ in pts}) < 2:
        raise ValueError("need two usable records at distinct k to fit a slope")
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])


def eigenvalue_residual(k: float, p_c: float, x_c: float) -> dict:
    """Residual of the relabeled state as an approximate X_c eigenvector.

    The exact value is sqrt(hbar_eff/2) = 1/(k sqrt(2)) for both quadratures,
    so the states localize on classical phase-space points as k grows.
    """
    hbar = hbar_effective(k)
    cutoff = required_cutoff(k, ((p_c, x_c, 0.0),))
    space = build_fock_space(1, cutoff)
    state = coherent_state(space, *relabel(k, p_c, x_c))
    c = state.coefficients
    rx = float(np.linalg.norm(space.x_op() @ c / k - x_c * c))
    rp = float(np.linalg.norm(space.p_op() @ c / k - p_c * c))
    return {
        "k": float(k),
        "hbar": hbar,
        "residual_x": rx,
        "residual_p": rp,
        "predicted": 1.0 / (k * math.sqrt(2.0)),
        "cutoff": cutoff,
    }


def gram_matrix(k: float, labels):
    """Gram matrices of the relabeled family: (closed form, Fock), with Fock
    None when the cutoff policy exceeds FOCK_MAX_CUTOFF."""
    hbar_effective(k)
    closed = np.array([[predicted_overlap(k, a, b) for b in labels] for a in labels])
    cutoff = required_cutoff(k, labels)
    if cutoff > FOCK_MAX_CUTOFF:
        return closed, None
    physical = [relabel(k, *label) for label in labels]
    pairs = [(a, b) for a in physical for b in physical]
    fock = coherent_pair_overlaps(build_fock_space(1, cutoff), pairs)
    return closed, np.array(fock).reshape(len(labels), len(labels))
