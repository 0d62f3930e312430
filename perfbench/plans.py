"""Seeded inputs for the three benchmark workloads.

Every input is plain data drawn with `random.Random`, so one seed gives the
same inputs on any machine and the program under test only sees the generated
values.  Each pass draws from two streams:

- the shape stream, seeded by (workload, pass index) alone, fixes what sets
  the cost of an op: polynomial exponents, label magnitudes, cutoffs;
- the value stream, seeded by (workload, seed, pass index), fixes everything
  else: coefficients, label signs and symmetries, phases.

The shape stream also fixes the op order, because the time of a small BLAS
call depends on what ran before it (whether the BLAS threads are awake).

A pass is a fixed mix of op kinds and sizes and the shapes change from pass
to pass, so a run covers many input shapes, no two passes repeat an input,
and two seeds do the same work on different values.

This module is stdlib-only so it can be tested without importing qclimit.
"""

from __future__ import annotations

import random

WORKLOADS = ("battery", "star_exact", "fock_contract")

# star_exact triple sizes: (dims, degree, terms).  The pass mix puts the median
# op among the 1D degree-4 and 3D degree-3 triples and the tail in the two
# largest classes.
STAR_SIZES = {
    "1d-deg2": (1, 2, 3),
    "1d-deg4": (1, 4, 5),
    "1d-deg6": (1, 6, 8),
    "3d-deg2": (3, 2, 3),
    "3d-deg3": (3, 3, 6),
    "3d-deg4": (3, 4, 8),
}
STAR_PASS = (
    ("triple", "1d-deg2", 1),
    ("triple", "3d-deg2", 1),
    ("triple", "1d-deg4", 2),
    ("triple", "3d-deg3", 2),
    ("triple", "3d-deg4", 1),
    ("triple", "1d-deg6", 1),
    ("classical", "1d-cubic", 1),
    ("classical", "3d-cubic", 1),
)

# fock_contract: eight cheap ops (< 10 ms), the 3-mode group law (~15 ms) as
# the median class, then eight larger ops up to the heavy tail (cutoff 512
# expm, RK4 flow, and the k = 32 decay sweeps that build a cutoff-4096 space).
# Equal counts below and above keep the median inside the group-law class.
FOCK_PASS = (
    ("contraction", "k2-8", 2),
    ("decay", "small", 3),
    ("cross_validate", 64, 1),
    ("overlap", 32, 2),
    ("group_law", 20, 4),
    ("weyl", 64, 1),
    ("overlap", 128, 1),
    ("weyl", 128, 1),
    ("weyl", 256, 1),
    ("weyl", 512, 1),
    ("flow", 32, 1),
    ("decay", "large", 2),
)
DECAY_K = {"small": (1.0, 2.0, 3.0, 4.0, 6.0, 8.0), "large": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0)}
FOCK_MAX_CUTOFF = 4096


def plan(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The ops of one pass, in the order they run."""
    if workload not in _PLANNERS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = random.Random(f"{workload}:shape:{pass_index}")
    values = random.Random(f"{workload}:{seed}:{pass_index}")
    ops = _PLANNERS[workload](shape, values)
    shape.shuffle(ops)
    return ops


def describe(op: dict) -> str:
    """Size class of an op, used to record input sizes."""
    kind = op["kind"]
    if kind == "all":
        return "all"
    if kind in ("triple", "classical"):
        return f"{kind}:{op['size']}"
    if kind == "decay":
        return f"decay:kmax{op['k_values'][-1]:g}"
    if kind == "contraction":
        return f"contraction:k{op['k']:g}"
    return f"{kind}:cutoff{op['cutoff']}"


def sizes(workload: str) -> dict:
    """Input sizes of one pass, as recorded in the benchmark output."""
    if workload == "battery":
        return {"ops_per_pass": 1, "op": "qclimit all --seed <per-op seed>"}
    if workload == "star_exact":
        return {
            "triple_sizes": {name: {"dims": d, "degree": g, "terms": t} for name, (d, g, t) in STAR_SIZES.items()},
            "ops_per_pass": {f"{kind}:{size}": n for kind, size, n in STAR_PASS},
        }
    return {
        "decay_k_values": {k: list(v) for k, v in DECAY_K.items()},
        "fock_max_cutoff": FOCK_MAX_CUTOFF,
        "ops_per_pass": {f"{kind}:{size}": n for kind, size, n in FOCK_PASS},
    }


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def _battery(shape: random.Random, values: random.Random) -> list[dict]:
    return [{"kind": "all", "seed": values.randrange(2**31)}]


# ---------------------------------------------------------------------------
# star_exact
# ---------------------------------------------------------------------------


def _coeff(rng: random.Random) -> tuple:
    """Nonzero Gaussian rational as (re_num, re_den, im_num, im_den)."""
    while True:
        c = (rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-2, 2), rng.randint(1, 2))
        if c[0] or c[2]:
            return c


def _monomial(rng: random.Random, width: int, degree: int) -> tuple:
    exps = [0] * width
    for _ in range(degree):
        exps[rng.randrange(width)] += 1
    return tuple(exps) + (0,)


def _poly(shape: random.Random, values: random.Random, dims: int, degree: int, n_terms: int) -> dict:
    """n_terms distinct monomials of total degree <= degree, one of them exactly degree."""
    keys = {_monomial(shape, 2 * dims, degree)}
    while len(keys) < n_terms:
        keys.add(_monomial(shape, 2 * dims, shape.randint(0, degree)))
    return {"dims": dims, "terms": [(key, _coeff(values)) for key in sorted(keys)]}


def _cubic_pair(shape: random.Random, values: random.Random, dims: int) -> tuple:
    """f = a x_i^3 + (degree <= 2), g = b p_i^3 + (degree <= 2).

    Only the two cubes have third derivatives, so the Moyal bracket differs
    from the Poisson bracket by the constant -(3/2) a b hbar^2 alone and the
    error slope against hbar is 2.
    """
    axis = shape.randrange(dims)
    pair = []
    for slot in (axis, dims + axis):
        cube = [0] * (2 * dims)
        cube[slot] = 3
        keys = {tuple(cube) + (0,)}
        while len(keys) < 3:
            keys.add(_monomial(shape, 2 * dims, shape.randint(0, 2)))
        pair.append({"dims": dims, "terms": [(key, _coeff(values)) for key in sorted(keys)]})
    return tuple(pair)


def _star_exact(shape: random.Random, values: random.Random) -> list[dict]:
    ops = []
    for kind, size, count in STAR_PASS:
        for _ in range(count):
            if kind == "triple":
                dims, degree, n_terms = STAR_SIZES[size]
                polys = [_poly(shape, values, dims, degree, n_terms) for _ in range(3)]
                ops.append({"kind": kind, "size": size, "polys": polys})
            else:
                f, g = _cubic_pair(shape, values, 1 if size.startswith("1d") else 3)
                ops.append({"kind": kind, "size": size, "f": f, "g": g, "points_seed": values.randrange(2**31)})
    return ops


# ---------------------------------------------------------------------------
# fock_contract
# ---------------------------------------------------------------------------


def _u(rng: random.Random, bound: float) -> float:
    return rng.uniform(-bound, bound)


def _signed(shape: random.Random, values: random.Random, bound: float) -> float:
    """Magnitude from the shape stream, sign from the value stream."""
    return values.choice((-1.0, 1.0)) * shape.uniform(0.0, bound)


def _disk_label(rng: random.Random, radius: float) -> list:
    while True:
        p, x = _u(rng, radius), _u(rng, radius)
        if p * p + x * x <= radius * radius:
            return [p, x, 0.0]


def _decay_pair(shape: random.Random, values: random.Random, on_unit_circle: bool, max_d2: float = 2.0) -> list:
    """Label pair with squared separation in [0.25, max_d2] inside the unit disk.

    The shape stream draws the geometry and the value stream one of the eight
    symmetries of the square, which keeps radii and separation exact.  On the
    large sweep the first label sits exactly on the unit circle, so the cutoff
    policy 4 k^2 L^2 reaches exactly 4096 at k = 32 and k = 48 falls outside
    the Fock budget.
    """
    while True:
        if on_unit_circle:
            l1 = [0.0, 1.0, 0.0]
            l2 = _disk_label(shape, 0.9)
        else:
            l1, l2 = _disk_label(shape, 1.0), _disk_label(shape, 1.0)
        d2 = (l1[0] - l2[0]) ** 2 + (l1[1] - l2[1]) ** 2
        if 0.25 <= d2 <= max_d2:
            break
    swap, sp, sx = values.random() < 0.5, values.choice((-1.0, 1.0)), values.choice((-1.0, 1.0))
    pair = []
    for p, x, theta in (l1, l2):
        if swap:
            p, x = x, p
        pair.append([sp * p, sx * x, theta])
    return pair


def _fock_contract(shape: random.Random, values: random.Random) -> list[dict]:
    ops = []
    for kind, size, count in FOCK_PASS:
        for _ in range(count):
            if kind == "decay":
                pair = _decay_pair(shape, values, size == "large")
                ops.append({"kind": kind, "k_values": list(DECAY_K[size]), "pair": pair})
            elif kind == "weyl":
                p, x = _signed(shape, values, 2), _signed(shape, values, 2)
                ops.append({"kind": kind, "cutoff": size, "p": p, "x": x, "theta": _u(values, 3.14159)})
            elif kind == "group_law":
                labels = [
                    {
                        "p": [_signed(shape, values, 0.8) for _ in range(3)],
                        "x": [_signed(shape, values, 0.8) for _ in range(3)],
                        "theta": _u(values, 1),
                    }
                    for _ in range(2)
                ]
                ops.append({"kind": kind, "cutoff": size, "w1": labels[0], "w2": labels[1]})
            elif kind == "overlap":
                ops.append({"kind": kind, "cutoff": size, "pairs": [[_u(values, 2) for _ in range(4)] for _ in range(2)]})
            elif kind == "flow":
                ops.append({"kind": kind, "cutoff": size, "p": _u(values, 1), "x": _u(values, 1), "t_final": 10.0, "dt": 1e-3})
            elif kind == "cross_validate":
                ops.append({"kind": kind, "cutoff": size, "pairs": [[_u(values, 2) for _ in range(4)] for _ in range(50)]})
            else:
                k = shape.choice((2.0, 4.0, 6.0, 8.0))
                # the Gram check needs |overlap| >= exp(-9), i.e. k^2 d^2 <= 36
                ops.append({"kind": kind, "k": k, "labels": _decay_pair(shape, values, False, max_d2=min(2.0, 36.0 / k**2))})
    return ops


_PLANNERS = {"battery": _battery, "star_exact": _star_exact, "fock_contract": _fock_contract}
