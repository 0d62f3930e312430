import itertools
import math
from functools import reduce

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, expm

from qclimit.coset_rep import WeylLabel, rotation_from_omega, weyl_compose_formula
from qclimit.hilbert import (
    FockSpace,
    GridSpace,
    StateVector,
    TruncationGuardError,
    apply_quadrature,
    build_fock_space,
    coherent_overlap_formula,
    coherent_state,
    cross_validate_backends,
    fock_gram_hp,
    fock_matrix_element_hp,
    fock_overlap_hp,
    grid_coherent_state,
    matrix_element,
    matrix_element_formula,
    operator_commutator_check,
    overlap,
    projective_flow_check,
    rotation_unitary_apply,
    vacuum_state,
    weyl_unitary,
)

SQRT2 = math.sqrt(2.0)


def _csr_quadrature(space, kind, mode):
    """Test-local reference: X or P of one mode as a scipy CSR matrix,
    Kronecker-built from the bands."""
    from qclimit.hilbert import _quadrature_bands

    eye = sp.identity(space.mode_dim, format="csr")
    band = sp.diags(_quadrature_bands(space.mode_dim)[kind], [-1, 1], format="csr")
    factors = [band if i == mode else eye for i in range(1, space.modes + 1)]
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors).astype(complex)


def _csr_generators(space):
    """Test-local reference: the C07 generators of a 3-mode space as CSR
    matrices, with J_ij = X_j P_i - X_i P_j."""
    from qclimit.lie_core import _DUAL_PAIR

    ops = {f"{kind}{i}": _csr_quadrature(space, kind, i) for kind in "XP" for i in (1, 2, 3)}
    for axis, name in ((1, "J23"), (2, "J31"), (3, "J12")):
        i, j = _DUAL_PAIR[axis]
        ops[name] = (ops[f"X{j}"] @ ops[f"P{i}"] - ops[f"X{i}"] @ ops[f"P{j}"]).tocsr()
    ops["I"] = sp.identity(space.dim, format="csr", dtype=complex)
    return ops


# ---------------------------------------------------------------------------
# space construction
# ---------------------------------------------------------------------------


def test_build_validates_arguments():
    with pytest.raises(ValueError, match="modes"):
        build_fock_space(2, 8)
    with pytest.raises(ValueError, match="cutoff"):
        build_fock_space(1, 1)


def test_corrupt_ladder_fails_commutator_check(monkeypatch):
    from qclimit import hilbert

    ladder = hilbert._ladder

    def corrupt(mode_dim):
        s = ladder(mode_dim).copy()
        s[mode_dim // 2] *= 1.0 + 1e-9
        return s

    monkeypatch.setattr(hilbert, "_ladder", corrupt)
    with pytest.raises(AssertionError, match="ladder commutator defect"):
        build_fock_space(1, 16)


def test_non_hermitian_quadrature_fails_check(monkeypatch):
    from qclimit import hilbert

    bands = hilbert._quadrature_bands

    def skewed(mode_dim):
        out = dict(bands(mode_dim))
        sub, sup = out["P"]
        out["P"] = (sub, -sup)
        return out

    monkeypatch.setattr(hilbert, "_quadrature_bands", skewed)
    with pytest.raises(AssertionError, match="Hermiticity"):
        build_fock_space(1, 16)


@pytest.mark.parametrize("band", ["ladder", "quadrature"])
def test_nan_band_fails_fock_space_checks(monkeypatch, band):
    from qclimit import hilbert

    ladder, bands = hilbert._ladder, hilbert._quadrature_bands
    if band == "ladder":
        monkeypatch.setattr(hilbert, "_ladder", lambda n: np.append(ladder(n)[:-1], math.nan))
        message = "ladder commutator defect"
    else:
        nan_x = (np.full(16, math.nan),) * 2
        monkeypatch.setattr(hilbert, "_quadrature_bands", lambda n: {**bands(n), "X": nan_x})
        message = "Hermiticity"
    with pytest.raises(AssertionError, match=message):
        build_fock_space(1, 16)


def test_position_operator_small_cutoff_matrix():
    space = build_fock_space(1, 2)
    expected = np.array(
        [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, SQRT2],
            [0.0, SQRT2, 0.0],
        ]
    ) / SQRT2
    assert np.allclose(space.x_op().toarray(), expected, atol=1e-15)


def test_quadrature_hermiticity_and_edge_commutator():
    space = build_fock_space(1, 12)
    x = space.x_op().toarray()
    p = space.p_op().toarray()
    assert np.abs(x - x.conj().T).max() == 0.0
    assert np.abs(p - p.conj().T).max() < 1e-15
    comm = x @ p - p @ x
    inner = np.eye(space.dim, dtype=complex)
    # the truncation defect of [X, P] - iI is confined to the top level
    dev = comm - 1j * inner
    assert np.abs(dev[:-1, :-1]).max() < 1e-14
    assert abs(dev[-1, -1] + 1j * (space.cutoff + 1)) < 1e-12


def test_safe_mask_excludes_top_two_levels():
    space = build_fock_space(1, 4)
    mask = space.safe_mask(margin=2)
    assert mask.tolist() == [True, True, True, False, False]
    space3 = build_fock_space(3, 3)
    mask3 = space3.safe_mask(margin=2)
    occ = space3.occupations()
    assert mask3.sum() == 2**3
    assert (occ[mask3] <= 1).all()


def test_rotation_generator_needs_three_modes():
    with pytest.raises(ValueError, match="modes"):
        build_fock_space(1, 4).j_op(1, 2)
    with pytest.raises(ValueError, match="vanishes"):
        build_fock_space(3, 3).j_op(2, 2)


def test_rotation_generators_are_hermitian_and_kill_vacuum():
    space = build_fock_space(3, 4)
    vac = vacuum_state(space).coefficients
    for axis in (1, 2, 3):
        j = space.j_axis_op(axis).toarray()
        assert np.abs(j - j.conj().T).max() < 1e-14
        assert np.abs(j @ vac).max() == 0.0


# ---------------------------------------------------------------------------
# coherent states and overlaps
# ---------------------------------------------------------------------------


def test_coherent_state_coefficients_and_norm():
    space = build_fock_space(1, 40)
    s = coherent_state(space, p=1.0, x=0.5, theta=0.3)
    alpha = (0.5 + 1.0j) / SQRT2
    c0 = np.exp(0.3j) * math.exp(-0.5 * abs(alpha) ** 2)
    assert abs(s.coefficients[0] - c0) < 1e-15
    assert abs(s.coefficients[3] - c0 * alpha**3 / math.sqrt(6.0)) < 1e-15
    assert abs(s.norm() - 1.0) < 1e-12
    assert s.truncation_bound < 1e-12


def _loop_coherent_coeffs(alpha: complex, dim: int) -> np.ndarray:
    """Reference: the step-by-step recursion c_n = c_(n-1) alpha / sqrt(n)."""
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


@pytest.mark.parametrize("cutoff", [32, 512, 4096])
def test_running_product_coefficients_match_the_recursion(cutoff):
    from qclimit.hilbert import _mode_coherent_coeffs

    for occupation in (0.1, 1.0, 10.0, cutoff / 4 - 1):
        for phase in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
            alpha = math.sqrt(occupation) * complex(math.cos(phase), math.sin(phase))
            got = _mode_coherent_coeffs(alpha, cutoff + 1)
            assert np.abs(got - _loop_coherent_coeffs(alpha, cutoff + 1)).max() <= 4e-15


def test_truncation_guard_reports_required_cutoff():
    space = build_fock_space(1, 16)
    with pytest.raises(TruncationGuardError) as err:
        coherent_state(space, p=3.0, x=3.0)
    assert err.value.required_cutoff == 36
    coherent_state(build_fock_space(1, 36), p=3.0, x=3.0)


@pytest.mark.parametrize("p, x, tail", [(0.8, 0.6, 2.009e-111), (3.0, 2.0, 1.397e-41)])
def test_truncation_bound_is_the_dropped_poisson_mass(p, x, tail):
    lam = (p * p + x * x) / 2.0
    with mpmath.workdps(40):
        ref = float(mpmath.gammainc(65, 0, lam, regularized=True))
    assert ref == pytest.approx(tail, rel=1e-3, abs=0.0)
    assert coherent_state(build_fock_space(1, 64), p, x).truncation_bound == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_truncation_bound_combines_modes_and_vanishes_at_the_vacuum():
    assert coherent_state(build_fock_space(1, 64), 0.0, 0.0).truncation_bound == 0.0
    p, x = np.array([1.5, 0.2, -1.0]), np.array([1.0, 0.0, 1.0])
    lams = (p * p + x * x) / 2.0
    with mpmath.workdps(40):
        kept = mpmath.fprod(1 - mpmath.gammainc(17, 0, lam, regularized=True) for lam in lams)
        ref = float(1 - kept)
    assert coherent_state(build_fock_space(3, 16), p, x).truncation_bound == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_overlap_requires_matching_spaces():
    a = coherent_state(build_fock_space(1, 8), 0.0, 0.0)
    b = coherent_state(build_fock_space(1, 10), 0.0, 0.0)
    with pytest.raises(ValueError, match="different spaces"):
        overlap(a, b)
    g = grid_coherent_state(GridSpace(10.0, 160), 0.0, 0.0)
    with pytest.raises(ValueError, match="backend"):
        overlap(a, g)


def test_overlap_conjugate_symmetry_is_exact():
    space = build_fock_space(1, 32)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        s1 = coherent_state(space, p1, x1, t1)
        s2 = coherent_state(space, p2, x2, t2)
        assert overlap(s1, s2) == np.conj(overlap(s2, s1))


def test_overlap_matches_closed_form_moderate_labels():
    space = build_fock_space(1, 48)
    rng = np.random.default_rng(12)
    for _ in range(50):
        p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        got = overlap(coherent_state(space, p1, x1, t1), coherent_state(space, p2, x2, t2))
        want = coherent_overlap_formula(p1, x1, t1, p2, x2, t2)
        assert abs(got - want) < 1e-12


def test_unit_label_separation_overlap_value():
    # |<0,0|0,2>| for x-separation 2 must be exp(-1)
    space = build_fock_space(1, 32)
    got = overlap(coherent_state(space, 0.0, 0.0), coherent_state(space, 0.0, 2.0))
    assert abs(abs(got) - math.exp(-1.0)) < 1e-13
    assert abs(got.imag) < 1e-15


def test_overlap_phase_tracks_theta_difference():
    space = build_fock_space(1, 16)
    s1 = coherent_state(space, 0.3, 0.1, theta=0.25)
    s2 = coherent_state(space, 0.3, 0.1, theta=1.0)
    got = overlap(s1, s2)
    assert abs(got - np.exp(0.75j)) < 1e-12


def test_high_precision_sum_agrees_with_closed_form_at_far_corner():
    # the smallest overlap on the [-3, 3] label grid, where float64 summation
    # loses digits to cancellation
    got = fock_overlap_hp(3.0, 3.0, 0.0, -3.0, -3.0, 0.0, cutoff=64)
    want = coherent_overlap_formula(3.0, 3.0, 0.0, -3.0, -3.0, 0.0)
    assert abs(want) == pytest.approx(math.exp(-18.0), rel=1e-12)
    assert abs(got - want) / abs(want) < 1e-10


def test_float64_overlap_stays_near_high_precision_sum():
    space = build_fock_space(1, 64)
    got = overlap(coherent_state(space, 3.0, 3.0), coherent_state(space, -3.0, -3.0))
    hp = fock_overlap_hp(3.0, 3.0, 0.0, -3.0, -3.0, 0.0, cutoff=64)
    assert abs(got - hp) / abs(hp) < 1e-4


def test_three_mode_overlap_matches_closed_form():
    p1 = np.array([1.5, -1.2, 0.7])
    x1 = np.array([0.3, 1.5, -0.9])
    p2 = np.array([-1.0, 0.4, 1.5])
    x2 = np.array([1.1, -1.5, 0.2])
    got = fock_overlap_hp(p1, x1, 0.4, p2, x2, -0.2, cutoff=16)
    want = coherent_overlap_formula(p1, x1, 0.4, p2, x2, -0.2)
    assert abs(got - want) / abs(want) < 1e-8
    space = build_fock_space(3, 16)
    direct = overlap(coherent_state(space, p1, x1, 0.4), coherent_state(space, p2, x2, -0.2))
    assert abs(direct - want) / abs(want) < 1e-9


def _fsum_reference(rows, cols, cutoff, kind, dps=50):
    """The mpmath route the kernel replaced: per-label coefficients and
    ladder images in mpmath, one fsum per element; mpc values."""
    with mpmath.workdps(dps):
        tables = {}
        for p, x in dict.fromkeys(list(rows) + list(cols)):
            alpha = (mpmath.mpf(x) + 1j * mpmath.mpf(p)) / mpmath.sqrt(2)
            c = [mpmath.exp(-0.5 * abs(alpha) ** 2)]
            for n in range(1, cutoff + 1):
                c.append(c[-1] * alpha / mpmath.sqrt(n))
            lowered = [mpmath.sqrt(n + 1) * c[n + 1] for n in range(cutoff)] + [mpmath.mpc(0)]
            raised = [mpmath.mpc(0)] + [mpmath.sqrt(n) * c[n - 1] for n in range(1, cutoff + 1)]
            xc = [(lo + ra) / mpmath.sqrt(2) for lo, ra in zip(lowered, raised)]
            pc = [(lo - ra) / (1j * mpmath.sqrt(2)) for lo, ra in zip(lowered, raised)]
            tables[(p, x)] = {"c": c, "X": xc, "P": pc}
        return [
            [
                mpmath.fsum((mpmath.conj(a) * b for a, b in zip(tables[r]["c"], tables[c][kind])), absolute=False)
                for c in cols
            ]
            for r in rows
        ]


GRID_LABELS = list(itertools.product((-3.0, -1.5, 0.0, 1.5, 3.0), repeat=2))


@pytest.mark.parametrize("kind", ["c", "X", "P"])
def test_fock_gram_hp_matches_fsum_reference_on_the_label_grid(kind):
    from qclimit.hilbert import _fock_gram_fixed

    ref = _fsum_reference(GRID_LABELS, GRID_LABELS, 64, kind)
    got = fock_gram_hp(GRID_LABELS, GRID_LABELS, 64, kind)
    re, im, frac = _fock_gram_fixed(GRID_LABELS, GRID_LABELS, 64, kind)
    assert got.shape == (25, 25)
    with mpmath.workdps(50):
        for i, j in itertools.product(range(25), repeat=2):
            # the exact 30-digit sums, before the final rounding
            exact = mpmath.mpc(mpmath.ldexp(int(re[i, j]), -frac), mpmath.ldexp(int(im[i, j]), -frac))
            assert abs(exact - ref[i][j]) <= 1e-28
            # rounded once, so equal to the rounded reference
            assert abs(got[i, j] - complex(ref[i][j])) <= 1e-28


def test_fock_gram_hp_rectangular_rows_and_columns():
    rows = [(0.3, -1.2), (2.0, 0.5)]
    cols = [(-0.7, 0.1), (0.3, -1.2), (1.1, 1.1)]
    got = fock_gram_hp(rows, cols, 24, "X")
    ref = _fsum_reference(rows, cols, 24, "X")
    assert got.shape == (2, 3)
    for i, j in itertools.product(range(2), range(3)):
        assert abs(got[i, j] - complex(ref[i][j])) <= 1e-28


def test_fock_overlap_hp_matches_fsum_reference_in_three_modes():
    rng = np.random.default_rng(16)
    for _ in range(20):
        p1, x1, p2, x2 = (rng.uniform(-1.5, 1.5, size=3) for _ in range(4))
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        with mpmath.workdps(50):
            ref = mpmath.mpc(1)
            for i in range(3):
                ref *= _fsum_reference([(p1[i], x1[i])], [(p2[i], x2[i])], 16, "c")[0][0]
            ref *= mpmath.exp(1j * (mpmath.mpf(t2) - mpmath.mpf(t1)))
            got = fock_overlap_hp(p1, x1, t1, p2, x2, t2, cutoff=16)
            assert abs(got - complex(ref)) <= 1e-28


def test_fock_gram_hp_rejects_unknown_kind_and_non_finite_labels():
    with pytest.raises(ValueError, match="kind must be one of"):
        fock_gram_hp([(0.0, 0.0)], [(0.0, 0.0)], 8, "Y")
    with pytest.raises(ValueError, match="kind must be 'X' or 'P'"):
        fock_matrix_element_hp("c", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, cutoff=8)
    with pytest.raises(ValueError, match="finite"):
        fock_gram_hp([(math.nan, 0.0)], [(0.0, 0.0)], 8, "c")


def _coherent_reference(p, x, dim, bits, dps=120):
    """c_n 2^bits for n < dim by the plain recursion at `dps` digits."""
    with mpmath.workdps(dps):
        z = mpmath.mpf(x) + 1j * mpmath.mpf(p)
        c = mpmath.exp(-(mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2) / 4)
        out = [c]
        for n in range(1, dim):
            c = c * z / mpmath.sqrt(2 * n)
            out.append(c)
        return [v * mpmath.mpf(2) ** bits for v in out]


@pytest.mark.parametrize("p, x, cutoff", [(14.0, 14.0, 512), (3.0, -3.0, 64), (1.5, 0.0, 64), (0.0, 15.0, 64)])
def test_fixed_coherent_is_within_one_unit_of_a_120_digit_reference(p, x, cutoff):
    from qclimit.hilbert import _fixed_coherent

    bits = mpmath.libmp.dps_to_prec(30) + 32
    re, im = _fixed_coherent(p, x, cutoff + 1, bits)
    ref = _coherent_reference(p, x, cutoff + 1, bits)
    assert len(re) == len(im) == cutoff + 1
    with mpmath.workdps(120):
        assert max(max(abs(a - r.real), abs(b - r.imag)) for a, b, r in zip(re, im, ref)) <= 1


def test_fixed_coherent_far_beyond_the_cutoff_rounds_to_zero():
    from qclimit.hilbert import _fixed_coherent

    # every |c_n| with n <= 64 is below 2^-135 at both labels; at x = 1e200, x^2 overflows
    for p, x in ((40.0, 0.0), (0.0, 1e200)):
        assert _fixed_coherent(p, x, 65, 135) == ([0] * 65, [0] * 65)


@pytest.mark.parametrize("modes", [1, 3])
def test_broadcast_closed_forms_equal_scalar_calls_bit_for_bit(modes):
    rng = np.random.default_rng(40 + modes)
    p1, x1, p2, x2 = (rng.uniform(-3.0, 3.0, size=(200, modes)) for _ in range(4))
    t1, t2 = rng.uniform(-np.pi, np.pi, size=(2, 200))

    def labels(i):
        """Pair i as a scalar call takes it: plain floats for 1 mode, 1-D arrays for 3."""
        one = (lambda v: float(v[0])) if modes == 1 else (lambda v: v)
        return one(p1[i]), one(x1[i]), t1[i], one(p2[i]), one(x2[i]), t2[i]

    grid = coherent_overlap_formula(p1, x1, t1, p2, x2, t2)
    one = np.array([coherent_overlap_formula(*labels(i)) for i in range(200)])
    assert grid.shape == (200,) and grid.tobytes() == one.tobytes()
    for kind, axis in itertools.product(("X", "P"), range(1, modes + 1)):
        grid = matrix_element_formula(kind, axis, p1, x1, t1, p2, x2, t2)
        one = np.array([matrix_element_formula(kind, axis, *labels(i)) for i in range(200)])
        assert grid.tobytes() == one.tobytes(), (kind, axis)


def test_closed_forms_broadcast_rows_against_columns():
    rows = np.array([[0.5, -1.0], [2.0, 0.25]])[:, None, :]  # (p, x) along the last axis
    cols = np.array([[-1.5, 0.0], [0.0, 3.0], [1.0, 1.0]])[None, :, :]
    grid = coherent_overlap_formula(rows[..., :1], rows[..., 1:], 0.0, cols[..., :1], cols[..., 1:], 0.0)
    assert grid.shape == (2, 3)
    for i, j in itertools.product(range(2), range(3)):
        (p1, x1), (p2, x2) = rows[i, 0], cols[0, j]
        assert grid[i, j] == coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)
    assert isinstance(coherent_overlap_formula(0.5, -1.0, 0.0, 0.0, 3.0, 0.0), complex)


# ---------------------------------------------------------------------------
# matrix elements
# ---------------------------------------------------------------------------


def test_matrix_elements_match_closed_form():
    space = build_fock_space(1, 48)
    rng = np.random.default_rng(21)
    for _ in range(30):
        p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
        s1 = coherent_state(space, p1, x1)
        s2 = coherent_state(space, p2, x2)
        for kind in ("X", "P"):
            got = matrix_element(space, kind, 1, s1, s2)
            want = matrix_element_formula(kind, 1, p1, x1, 0.0, p2, x2, 0.0)
            assert abs(got - want) < 1e-12


def test_diagonal_expectations_recover_labels():
    space = build_fock_space(1, 48)
    for p, x in ((0.0, 0.0), (1.5, -3.0), (3.0, 3.0), (-2.25, 0.75)):
        s = coherent_state(space, p, x)
        assert abs(matrix_element(space, "X", 1, s, s) - x) < 1e-10
        assert abs(matrix_element(space, "P", 1, s, s) - p) < 1e-10


def test_matrix_element_high_precision_at_far_corner():
    for kind in ("X", "P"):
        got = fock_matrix_element_hp(kind, 3.0, 3.0, 0.0, -3.0, -1.5, 0.0, cutoff=64)
        want = matrix_element_formula(kind, 1, 3.0, 3.0, 0.0, -3.0, -1.5, 0.0)
        assert abs(got - want) / abs(want) < 1e-10


def test_three_mode_matrix_elements_touch_only_their_axis():
    space = build_fock_space(3, 10)
    p = np.array([0.4, -0.3, 0.2])
    x = np.array([-0.1, 0.5, 0.3])
    s = coherent_state(space, p, x)
    for axis in (1, 2, 3):
        assert abs(matrix_element(space, "X", axis, s, s) - x[axis - 1]) < 1e-10
        assert abs(matrix_element(space, "P", axis, s, s) - p[axis - 1]) < 1e-10


@pytest.mark.parametrize("modes, cutoff", [(1, 32), (1, 128), (3, 10)])
def test_band_quadratures_equal_the_sparse_matvec_bit_for_bit(modes, cutoff):
    space = build_fock_space(modes, cutoff)
    rng = np.random.default_rng(cutoff)
    for axis in range(1, modes + 1):
        for _ in range(3):
            c = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            for kind in ("X", "P"):
                assert np.array_equal(apply_quadrature(space, kind, axis, c), _csr_quadrature(space, kind, axis) @ c)


def test_apply_quadrature_rejects_unknown_kind_and_mode():
    space = build_fock_space(3, 4)
    c = np.ones(space.dim, dtype=complex)
    with pytest.raises(ValueError, match="kind must be 'X' or 'P'"):
        apply_quadrature(space, "J", 1, c)
    with pytest.raises(ValueError, match="mode 4 out of range"):
        apply_quadrature(space, "X", 4, c)


def test_cached_quadrature_bands_are_read_only():
    from qclimit.hilbert import _quadrature_bands

    for band in (*_quadrature_bands(9)["X"], *_quadrature_bands(9)["P"]):
        assert not band.flags.writeable


# ---------------------------------------------------------------------------
# Weyl unitaries
# ---------------------------------------------------------------------------


def test_weyl_unitary_forms_agree_and_make_coherent_states():
    space = build_fock_space(1, 64)
    vac = vacuum_state(space)
    rng = np.random.default_rng(33)
    for _ in range(10):
        p, x = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(-np.pi, np.pi)
        fact = weyl_unitary(space, p, x, theta, form="factored").apply(vac)
        single = weyl_unitary(space, p, x, theta, form="single").apply(vac)
        target = coherent_state(space, p, x, theta)
        assert np.abs(fact.coefficients - single.coefficients).max() < 1e-12
        assert np.abs(fact.coefficients - target.coefficients).max() < 1e-12


def test_weyl_unitary_is_unitary():
    space = build_fock_space(1, 32)
    u = weyl_unitary(space, 1.2, -0.7, 0.5)
    m = u.matrix()
    assert np.abs(m @ m.conj().T - np.eye(space.dim)).max() < 1e-12


def test_weyl_group_law_on_vacuum():
    space = build_fock_space(1, 64)
    vac = vacuum_state(space)
    rng = np.random.default_rng(40)
    for _ in range(10):
        p1, x1, p2, x2 = rng.uniform(-1.5, 1.5, size=4)
        t1, t2 = rng.uniform(-1.0, 1.0, size=2)
        seq = weyl_unitary(space, p1, x1, t1).apply(weyl_unitary(space, p2, x2, t2).apply(vac))
        theta = t1 + t2 - 0.5 * (x1 * p2 - p1 * x2)
        direct = weyl_unitary(space, p1 + p2, x1 + x2, theta).apply(vac)
        assert np.abs(seq.coefficients - direct.coefficients).max() < 1e-12


def test_weyl_group_law_matches_coset_composition():
    space = build_fock_space(3, 20)
    vac = vacuum_state(space)
    w1 = WeylLabel(p=[0.5, -0.2, 0.1], x=[0.3, 0.4, -0.6], theta=0.7)
    w2 = WeylLabel(p=[-0.3, 0.2, 0.4], x=[0.1, -0.5, 0.2], theta=-0.4)
    seq = weyl_unitary(space, w1.p, w1.x, w1.theta).apply(
        weyl_unitary(space, w2.p, w2.x, w2.theta).apply(vac)
    )
    w12 = weyl_compose_formula(w1, w2, kind="phase")
    direct = weyl_unitary(space, w12.p, w12.x, w12.theta).apply(vac)
    assert np.abs(seq.coefficients - direct.coefficients).max() < 1e-10


def test_three_mode_apply_matches_kron_matrix():
    space = build_fock_space(3, 3)
    u = weyl_unitary(space, [0.3, -0.2, 0.5], [0.1, 0.4, -0.3], 0.2)
    rng = np.random.default_rng(8)
    c = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    from qclimit.hilbert import StateVector

    s = StateVector("fock", space, c)
    got = u.apply(s).coefficients
    want = u.matrix() @ c
    assert np.abs(got - want).max() < 1e-12


def _expm_weyl(space, p, x, theta, form):
    """Test-local reference: scipy expm of the dense one-mode quadratures,
    one factor per mode, Kronecker-multiplied."""
    mode = build_fock_space(1, space.cutoff)
    xm = _csr_quadrature(mode, "X", 1).toarray()
    pm = _csr_quadrature(mode, "P", 1).toarray()
    out = np.exp(1j * theta) * np.ones((1, 1))
    for pi, xi in zip(np.atleast_1d(p), np.atleast_1d(x)):
        if form == "factored":
            f = np.exp(0.5j * xi * pi) * expm(-1j * xi * pm) @ expm(1j * pi * xm)
        else:
            f = expm(1j * (pi * xm - xi * pm))
        out = np.kron(out, f)
    return out


@pytest.mark.parametrize("cutoff", [20, 64, 256])
def test_spectral_weyl_factors_match_expm_one_mode(cutoff):
    space = build_fock_space(1, cutoff)
    rng = np.random.default_rng(cutoff)
    labels = [(0.0, 0.0), (1.3, 0.0), (0.0, -0.9)] + [tuple(rng.uniform(-2, 2, size=2)) for _ in range(2)]
    for p, x in labels:
        theta = rng.uniform(-np.pi, np.pi)
        for form in ("factored", "single"):
            got = weyl_unitary(space, p, x, theta, form=form).matrix()
            want = _expm_weyl(space, p, x, theta, form)
            assert np.abs(got - want).max() <= 1e-12, (cutoff, p, x, form)


def test_spectral_weyl_factors_match_expm_three_modes():
    space = build_fock_space(3, 8)
    rng = np.random.default_rng(3)
    for _ in range(2):
        p, x = rng.uniform(-0.8, 0.8, size=(2, 3))
        theta = rng.uniform(-1.0, 1.0)
        for form in ("factored", "single"):
            got = weyl_unitary(space, p, x, theta, form=form).matrix()
            want = _expm_weyl(space, p, x, theta, form)
            assert np.abs(got - want).max() <= 1e-12, form


@pytest.mark.parametrize("modes, cutoff", [(1, 20), (1, 64), (1, 256), (1, 512), (3, 8)])
def test_weyl_apply_matches_expm_on_random_states(modes, cutoff):
    space = build_fock_space(modes, cutoff)
    rng = np.random.default_rng(100 * modes + cutoff)
    extent = 2.0 if modes == 1 else 0.8
    p, x = rng.uniform(-extent, extent, size=(2, modes))
    theta = rng.uniform(-np.pi, np.pi)
    c = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    c /= np.linalg.norm(c)
    state = StateVector("fock", space, c)
    for form in ("factored", "single"):
        got = weyl_unitary(space, p, x, theta, form=form).apply(state).coefficients
        want = _expm_weyl(space, p, x, theta, form) @ c
        assert np.abs(got - want).max() <= 1e-12, (modes, cutoff, form)


def test_weyl_operator_holds_no_formed_factor():
    """Only scalars and length-N phase vectors: an N x N factor cannot return unnoticed."""
    space = build_fock_space(1, 512)
    for form in ("factored", "single"):
        u = weyl_unitary(space, 1.1, -0.6, 0.3, form=form)
        assert np.ndim(u.phase) == 0
        for steps in u.steps:
            for pre, alpha, post in steps:
                assert np.ndim(alpha) == 0
                for diag in (pre, post):
                    assert diag is None or diag.shape == (space.mode_dim,)


def test_weyl_forms_are_distinct_routes_that_agree():
    """C06.factored-vs-single compares two computations, not one twice."""
    space = build_fock_space(1, 64)
    vac = vacuum_state(space)
    fact = weyl_unitary(space, 0.83, -1.27, 0.4, form="factored").apply(vac).coefficients
    single = weyl_unitary(space, 0.83, -1.27, 0.4, form="single").apply(vac).coefficients
    assert not np.array_equal(fact, single)
    assert np.abs(fact - single).max() <= 1e-12


def test_weyl_unitary_rejects_unknown_form():
    with pytest.raises(ValueError, match="form"):
        weyl_unitary(build_fock_space(1, 4), 0.1, 0.2, form="bch")


def test_cached_x_spectrum_is_read_only():
    from qclimit.hilbert import _x_spectrum

    space = build_fock_space(1, 12)
    weyl_unitary(space, 0.5, 0.5)
    lam, vec = _x_spectrum(space.mode_dim)
    assert not lam.flags.writeable and not vec.flags.writeable
    x = space.x_op().toarray().real
    assert np.abs(vec @ np.diag(lam) @ vec.T - x).max() < 1e-13


@pytest.mark.parametrize("mode_dim", [21, 65, 513])
def test_x_spectrum_matches_the_tridiagonal_eigensolver(mode_dim):
    """The cached dense eigh against scipy's eigh_tridiagonal (test-local reference)."""
    from qclimit.hilbert import _ladder, _x_spectrum

    lam, vec = _x_spectrum(mode_dim)
    want_lam, want_vec = eigh_tridiagonal(np.zeros(mode_dim), _ladder(mode_dim) / SQRT2)
    assert np.abs(lam - want_lam).max() <= 1e-12
    # eigenvectors agree up to the sign of each column
    assert np.abs(np.abs(np.sum(vec * want_vec, axis=0)) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_rotation_fixes_vacuum_and_preserves_norm():
    space = build_fock_space(3, 8)
    vac = vacuum_state(space)
    rot = rotation_unitary_apply(space, [0.4, -0.7, 1.1], vac)
    assert np.abs(rot.coefficients - vac.coefficients).max() < 1e-12
    s = coherent_state(space, [0.5, 0.2, -0.3], [0.1, -0.4, 0.6])
    rs = rotation_unitary_apply(space, [0.4, -0.7, 1.1], s)
    assert abs(rs.norm() - s.norm()) < 1e-12


def test_rotation_maps_coherent_to_rotated_labels():
    space = build_fock_space(3, 16)
    rng = np.random.default_rng(17)
    for _ in range(5):
        omega = rng.uniform(-1.0, 1.0, size=3)
        p = rng.uniform(-0.8, 0.8, size=3)
        x = rng.uniform(-0.8, 0.8, size=3)
        rot = rotation_from_omega(omega)
        got = rotation_unitary_apply(space, omega, coherent_state(space, p, x))
        want = coherent_state(space, rot @ p, rot @ x)
        assert np.abs(got.coefficients - want.coefficients).max() < 1e-7


def test_rotation_apply_matches_expm():
    """The Taylor-step apply against scipy's expm of the dense CSR-built generator."""
    space = build_fock_space(3, 6)
    ops = _csr_generators(space)
    rng = np.random.default_rng(23)
    for omega in ([0.0, 0.0, 0.9], rng.uniform(-2.0, 2.0, size=3)):
        gen = omega[0] * ops["J23"] + omega[1] * ops["J31"] + omega[2] * ops["J12"]
        c = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        got = rotation_unitary_apply(space, omega, StateVector("fock", space, c)).coefficients
        want = expm(-1j * gen.toarray()) @ c
        assert np.abs(got - want).max() <= 1e-12 * np.abs(c).max()


def test_rotation_preserves_overlaps():
    space = build_fock_space(3, 16)
    omega = [0.3, 0.9, -0.5]
    s1 = coherent_state(space, [0.4, 0.0, -0.2], [0.1, 0.3, 0.0])
    s2 = coherent_state(space, [-0.1, 0.5, 0.2], [0.6, -0.2, 0.1])
    before = overlap(s1, s2)
    after = overlap(
        rotation_unitary_apply(space, omega, s1), rotation_unitary_apply(space, omega, s2)
    )
    assert abs(before - after) < 1e-10


# ---------------------------------------------------------------------------
# bracket realization
# ---------------------------------------------------------------------------


def test_operator_brackets_match_structure_constants():
    space = build_fock_space(3, 10)
    report = operator_commutator_check(space)
    # C07's tolerance
    assert report.max_deviation <= 1e-10
    assert len(report.per_bracket) == 45


def test_operator_bracket_check_matches_dense_reference():
    from qclimit.lie_core import build_standard_algebra

    space = build_fock_space(3, 6)
    table = build_standard_algebra("HR3")
    ops = _csr_generators(space)
    mask = space.safe_mask(margin=2)
    names = [g.name for g in table.generators]
    want = {}
    for ia, ib in itertools.combinations(range(len(names)), 2):
        a, b = ops[names[ia]], ops[names[ib]]
        delta = a @ b - b @ a
        for tgt, coeff, _ in table.entries.get((ia, ib), ()):
            delta = delta - 1j * coeff * ops[names[tgt]]
        want[f"{names[ia]},{names[ib]}"] = float(np.abs(delta.toarray()[np.ix_(mask, mask)]).max())
    report = operator_commutator_check(space, table)
    assert list(report.per_bracket) == list(want)
    for key, value in want.items():
        assert report.per_bracket[key] == value, key
    assert report.max_deviation == max(want.values())


def test_offset_operators_equal_the_csr_reference():
    space = build_fock_space(3, 4)
    ref = _csr_generators(space)
    ops = {"J23": space.j_axis_op(1), "J31": space.j_axis_op(2), "J12": space.j_axis_op(3), "I": space.identity()}
    for i in (1, 2, 3):
        ops[f"X{i}"] = space.x_op(i)
        ops[f"P{i}"] = space.p_op(i)
    for name, op in ops.items():
        assert np.array_equal(op.toarray(), ref[name].toarray()), name
    rng = np.random.default_rng(4)
    c = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    for a, b in [("J23", "X2"), ("P1", "J12"), ("J31", "J23")]:
        assert np.abs((ops[a] @ ops[b]).toarray() - (ref[a] @ ref[b]).toarray()).max() <= 1e-14
        assert np.abs(ops[a] @ c - ref[a] @ c).max() <= 1e-13
    mixed = np.float64(0.5) * ops["X1"] - 2j * ops["P3"] + ops["J12"] / 4.0
    want = 0.5 * ref["X1"] - 2j * ref["P3"] + ref["J12"] / 4.0
    assert np.array_equal(mixed.toarray(), want.toarray())
    assert ops["J23"].norm1() == pytest.approx(np.abs(ref["J23"].toarray()).sum(axis=0).max(), rel=1e-14)
    with pytest.raises(ValueError, match="different spaces"):
        ops["X1"] + build_fock_space(3, 5).x_op(1)


def test_operator_bracket_check_propagates_nan():
    from qclimit.lie_core import build_standard_algebra, make_table

    good = build_standard_algebra("HR3")
    names = [g.name for g in good.generators]
    poisoned = {}
    for (a, b), terms in good.entries.items():
        if a < b:
            if (names[a], names[b]) == ("X2", "P2"):
                terms = ((terms[0][0], math.nan, terms[0][2]),)
            poisoned[(a, b)] = terms
    report = operator_commutator_check(build_fock_space(3, 6), make_table("poisoned", good.generators, poisoned))
    assert math.isnan(report.per_bracket["X2,P2"])
    assert math.isnan(report.max_deviation)
    assert not report.max_deviation <= 1e-10


def test_operator_bracket_check_flags_wrong_table():
    from qclimit.lie_core import build_standard_algebra, make_table

    space = build_fock_space(3, 6)
    good = build_standard_algebra("HR3")
    broken = {}
    for (a, b), terms in good.entries.items():
        if a < b:
            if good.generators[a].name == "X1" and good.generators[b].name == "P1":
                terms = ((good.dimension - 1, 2.0, terms[0][2]),)
            broken[(a, b)] = terms
    table = make_table("broken", good.generators, broken)
    report = operator_commutator_check(space, table)
    assert report.max_deviation > 0.5


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------


def test_grid_space_validation():
    with pytest.raises(ValueError, match="even"):
        GridSpace(10.0, 15)
    with pytest.raises(ValueError, match="positive"):
        GridSpace(-1.0, 16)


def test_grid_coherent_norm_and_guards():
    grid = GridSpace(10.0, 160)
    s = grid_coherent_state(grid, p=1.0, x=2.0, theta=0.4)
    assert abs(s.norm() - 1.0) < 1e-9
    with pytest.raises(ValueError, match="box edge"):
        grid_coherent_state(grid, p=0.0, x=5.5)
    with pytest.raises(ValueError, match="band edge"):
        grid_coherent_state(grid, p=21.0, x=0.0)


def test_grid_overlap_matches_closed_form():
    grid = GridSpace(10.0, 160)
    rng = np.random.default_rng(29)
    for _ in range(30):
        p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        got = overlap(
            grid_coherent_state(grid, p1, x1, t1), grid_coherent_state(grid, p2, x2, t2)
        )
        want = coherent_overlap_formula(p1, x1, t1, p2, x2, t2)
        assert abs(got - want) < 1e-9


def test_backend_cross_validation():
    space = build_fock_space(1, 64)
    grid = GridSpace(10.0, 160)
    rng = np.random.default_rng(71)
    pairs = []
    for _ in range(100):
        p1, x1, p2, x2 = rng.uniform(-2, 2, size=4)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        pairs.append(((p1, x1, t1), (p2, x2, t2)))
    records = cross_validate_backends(pairs, space, grid)
    assert len(records) == 100
    assert max(r["abs_diff"] for r in records) < 1e-7


# ---------------------------------------------------------------------------
# projective flow
# ---------------------------------------------------------------------------


def _harmonic(space):
    x = space.x_op().toarray()
    p = space.p_op().toarray()
    return 0.5 * (x @ x + p @ p)


def test_flow_routes_agree_for_harmonic_hamiltonian():
    space = build_fock_space(1, 32)
    h = _harmonic(space)
    initial = coherent_state(space, 0.8, 0.6)
    report = projective_flow_check(space, h, initial, t_final=2.0, dt=1e-3)
    assert report.max_deviation < 1e-9
    assert report.norm_drift < 1e-10
    assert report.halving_deviation < 1e-9


def test_flow_matches_exact_propagator():
    space = build_fock_space(1, 24)
    h = _harmonic(space)
    initial = coherent_state(space, 0.5, -0.4)
    t_final, dt = 1.5, 1e-3
    from qclimit.hilbert import _rk4

    path = _rk4(-1j * h, initial.coefficients.astype(complex), dt, 1500, 1500)
    exact = expm(-1j * h * t_final) @ initial.coefficients
    assert np.abs(path[-1] - exact).max() < 1e-9


def test_complex_hamiltonian_flow_matches_exact_propagator():
    # the P term and the squeezing term XP + PX make H complex, so route (b)
    # runs on the imaginary part of H as well as the real part
    from qclimit.hilbert import _canonical_generator, _rk4

    space = build_fock_space(1, 16)
    x = space.x_op().toarray()
    p = space.p_op().toarray()
    h = _harmonic(space) + 0.3 * (x @ p + p @ x) + 0.2 * p
    assert np.abs(h.imag).max() > 0.1
    initial = coherent_state(space, 0.5, -0.4)
    c0 = initial.coefficients
    t_final, dt = 1.0, 1e-3
    exact = expm(-1j * h * t_final) @ c0
    route_a = _rk4(-1j * h, c0, dt, 1000, 1000)[-1]
    route_b = _rk4(_canonical_generator(h), np.concatenate([c0.real, c0.imag]), dt, 1000, 1000)[-1]
    n = c0.size
    assert np.abs(route_a - exact).max() < 1e-9
    assert np.abs(route_b[:n] + 1j * route_b[n:] - exact).max() < 1e-9
    report = projective_flow_check(space, h, initial, t_final=t_final, dt=dt)
    assert report.max_deviation < 1e-9
    # C11's norm-drift tolerance
    assert report.norm_drift <= 1e-8


def _loop_rk4(gen, y0, dt, steps, every):
    """Test-local reference: the four-stage RK4 loop, one step at a time."""
    y = y0.copy()
    samples = [y.copy()]
    for step in range(1, steps + 1):
        k1 = gen @ y
        k2 = gen @ (y + 0.5 * dt * k1)
        k3 = gen @ (y + 0.5 * dt * k2)
        k4 = gen @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % every == 0 or step == steps:
            samples.append(y.copy())
    return np.array(samples)


def test_rk4_step_polynomial_matches_stage_loop():
    from qclimit.hilbert import _rk4

    space = build_fock_space(1, 12)
    x = space.x_op().toarray()
    p = space.p_op().toarray()
    h = _harmonic(space) + 0.3 * (x @ p + p @ x) + 0.2 * p
    c0 = coherent_state(space, 0.3, 0.2).coefficients
    # 1000 = 33 * 30 + 10: strided samples and one remainder sample
    got = _rk4(-1j * h, c0, 1e-3, 1000, 30)
    want = _loop_rk4(-1j * h, c0, 1e-3, 1000, 30)
    assert got.shape == want.shape == (35, space.dim)
    # the same integrator, rounded in another order
    assert np.abs(got - want).max() < 1e-12
    with pytest.raises(ValueError, match="at least one step"):
        _rk4(-1j * h, c0, 1e-3, 0, 1)


@pytest.mark.parametrize(
    "t_final, dt",
    [
        (1.0, 0.0),
        (1.0, -1e-3),
        (-1.0, 1e-3),
        (0.0, 1e-3),
        (math.nan, 1e-3),
        (1.0, math.nan),
        (math.inf, 1e-3),
        (1.0, math.inf),
        (1e-4, 1e-3),
    ],
)
def test_flow_rejects_bad_time_grid(t_final, dt):
    space = build_fock_space(1, 8)
    initial = coherent_state(space, 0.1, 0.1)
    with pytest.raises(ValueError, match="dt|step"):
        projective_flow_check(space, _harmonic(space), initial, t_final=t_final, dt=dt)


def test_flow_identity_hamiltonian_gives_global_phase():
    space = build_fock_space(1, 16)
    h = np.eye(space.dim)
    initial = coherent_state(space, 0.4, 0.3)
    report = projective_flow_check(space, h, initial, t_final=1.0, dt=1e-3)
    assert report.max_deviation < 1e-11
    # the exact orbit multiplies every coefficient by the same phase
    assert report.norm_drift < 1e-12


def test_flow_validates_inputs():
    space = build_fock_space(1, 8)
    bad = np.triu(np.ones((space.dim, space.dim)))
    initial = coherent_state(space, 0.1, 0.1)
    with pytest.raises(ValueError, match="Hermitian"):
        projective_flow_check(space, bad, initial, t_final=0.1)
    from qclimit.hilbert import StateVector

    unnorm = StateVector("fock", space, 2.0 * initial.coefficients)
    with pytest.raises(ValueError, match="normalized"):
        projective_flow_check(space, _harmonic(space), unnorm, t_final=0.1)
    nan_h = _harmonic(space)
    nan_h[0, 0] = math.nan
    with pytest.raises(ValueError, match="Hermitian"):
        projective_flow_check(space, nan_h, initial, t_final=0.1)
    nan_state = StateVector("fock", space, np.full(space.dim, math.nan + 0j))
    with pytest.raises(ValueError, match="normalized"):
        projective_flow_check(space, _harmonic(space), nan_state, t_final=0.1)
