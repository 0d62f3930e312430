import csv
import math

import numpy as np
import pytest

from qclimit.contraction_lab import (
    CSV_COLUMNS,
    ContractionRunConfig,
    canonical_pair,
    decay_slope,
    FOCK_MAX_CUTOFF,
    eigenvalue_residual,
    gram_matrix,
    hbar_effective,
    overlap_decay_sweep,
    predicted_overlap,
    relabel,
    required_cutoff,
    write_decay_csv,
)
from qclimit import contraction_lab, hilbert
from qclimit.hilbert import (
    build_fock_space,
    coherent_overlap_formula,
    coherent_pair_overlaps,
    coherent_state,
    matrix_element,
    overlap,
)


def test_effective_hbar_mapping():
    assert hbar_effective(1.0) == 1.0
    assert hbar_effective(2.0) == 0.25
    assert hbar_effective(10.0) == pytest.approx(0.01)
    with pytest.raises(ValueError, match="k >= 1"):
        hbar_effective(0.5)
    with pytest.raises(ValueError, match="k >= 1"):
        hbar_effective(float("nan"))


def test_rescaled_commutator_gives_effective_hbar():
    space = build_fock_space(1, 16)
    for k in (1.0, 3.0, 8.0):
        xc, pc = (1.0 / k) * space.x_op(), (1.0 / k) * space.p_op()
        comm = (xc @ pc - pc @ xc).toarray()
        body = comm[:-1, :-1]
        target = 1j * hbar_effective(k) * np.eye(space.dim - 1)
        assert np.abs(body - target).max() < 1e-14


def test_relabeled_state_sits_at_contracted_labels():
    for k in (1.0, 2.0, 4.0):
        cutoff = required_cutoff(k, ((0.4, -0.6, 0.0),))
        space = build_fock_space(1, cutoff)
        s = coherent_state(space, *relabel(k, 0.4, -0.6))
        assert abs(matrix_element(space, "X", 1, s, s).real / k - (-0.6)) < 1e-12
        assert abs(matrix_element(space, "P", 1, s, s).real / k - 0.4) < 1e-12


def test_predicted_overlap_equals_physical_label_formula():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = rng.uniform(1.0, 8.0)
        p1, x1, p2, x2 = rng.uniform(-1.0, 1.0, size=4)
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        got = predicted_overlap(k, (p1, x1, t1), (p2, x2, t2))
        want = coherent_overlap_formula(k * p1, k * x1, t1, k * p2, k * x2, t2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_canonical_pair_decay_values():
    l1, l2 = canonical_pair()
    for k in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
        pred = predicted_overlap(k, l1, l2)
        assert abs(abs(pred) - math.exp(-0.25 * k * k)) < 1e-12
        assert abs(pred.imag) < 1e-15


def test_sweep_fock_route_tracks_closed_form():
    config = ContractionRunConfig(k_values=(1.0, 2.0, 3.0, 4.0), pairs=(canonical_pair(),))
    records = overlap_decay_sweep(config)
    fock = [r for r in records if r.backend == "fock"]
    closed = [r for r in records if r.backend == "closed_form"]
    assert len(fock) == 4 and len(closed) == 4
    for r in closed:
        assert r.abs_err < 1e-12
        assert r.phase_err < 1e-12
    for r in fock:
        assert r.abs_err < 1e-4
        assert r.abs_err < 1e-9 * max(1.0, r.predicted_abs)
        assert r.cutoff == max(64, int(math.ceil(4.0 * r.k * r.k)))


def test_sweep_skips_fock_beyond_cutoff_budget():
    # k = 32 needs exactly FOCK_MAX_CUTOFF = 4096 and keeps the Fock route; k = 33 does not
    pair = canonical_pair()
    assert required_cutoff(32.0, pair) == FOCK_MAX_CUTOFF == 4096
    assert required_cutoff(33.0, pair) == 4356
    records = overlap_decay_sweep(ContractionRunConfig(k_values=(32.0, 33.0), pairs=(pair,)))
    assert [(r.k, r.backend, r.cutoff) for r in records] == [
        (32.0, "closed_form", 4096),
        (32.0, "fock", 4096),
        (33.0, "closed_form", 4356),
    ]
    assert records[1].abs_err < 1e-12
    closed, fock = gram_matrix(32.0, pair)
    assert fock is not None and fock.shape == closed.shape == (2, 2)
    assert abs(fock[0, 1] - closed[0, 1]) < 1e-12 and abs(fock[0, 0] - 1.0) < 1e-12
    closed, fock = gram_matrix(33.0, pair)
    assert fock is None
    assert abs(abs(closed[0, 1]) - math.exp(-0.25 * 33.0**2)) <= 1e-12 * math.exp(-0.25 * 33.0**2)


# the canonical pair, and one with momenta, phases and both signs
SWEEP_PAIRS = (canonical_pair(), ((0.3, -0.2, 0.5), (-0.1, 0.4, -0.7)))


@pytest.mark.parametrize("k", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
def test_sweep_pair_overlaps_equal_the_per_state_overlap(k):
    """The Fock records rest on coherent_pair_overlaps equalling overlap() of
    two coherent_state states bit for bit, at every cutoff the sweep uses."""
    records = overlap_decay_sweep(ContractionRunConfig(k_values=(k,), pairs=SWEEP_PAIRS))
    fock = [r for r in records if r.backend == "fock"]
    assert [r.pair_id for r in fock] == [0, 1]
    for r, (l1, l2) in zip(fock, SWEEP_PAIRS):
        space = build_fock_space(1, required_cutoff(k, (l1, l2)))
        a, b = relabel(k, *l1), relabel(k, *l2)
        want = overlap(coherent_state(space, *a), coherent_state(space, *b))
        assert coherent_pair_overlaps(space, [(a, b)]) == [want]
        assert (r.cutoff, r.overlap_abs, r.overlap_phase) == (space.cutoff, abs(want), float(np.angle(want)))
    assert fock[0].cutoff == max(64, int(4 * k * k))


@pytest.mark.parametrize("k", [1.0, 2.0, 6.0])
def test_gram_fock_entries_equal_the_per_state_loop(monkeypatch, k):
    """One row per label for all nine entries, each the per-state overlap."""
    labels = ((0.0, 0.0, 0.0), (0.2, -0.5, 0.4), (-0.3, 0.1, -1.1))
    rows = []
    genuine = hilbert._coherent_rows
    monkeypatch.setattr(hilbert, "_coherent_rows", lambda space, p, *rest: rows.append(len(p)) or genuine(space, p, *rest))
    _, fock = gram_matrix(k, labels)
    assert rows == [3]
    space = build_fock_space(1, required_cutoff(k, labels))
    states = [coherent_state(space, *relabel(k, *label)) for label in labels]
    assert np.array_equal(fock, np.array([[overlap(a, b) for b in states] for a in states]))


def test_relabel_scales_the_contracted_label():
    assert relabel(4.0, 0.25, -0.5, 0.3) == (1.0, -2.0, 0.3)
    assert relabel(2.0, 1.0, 1.0) == (2.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="k >= 1"):
        relabel(0.5, 0.0, 0.0)


@pytest.mark.parametrize("labels", [((0.0, 100.0, 0.0), (0.0, 99.0, 0.0)), canonical_pair()], ids=["far", "near"])
def test_k_below_one_is_refused_before_any_space_is_built(monkeypatch, labels):
    """Far labels skip the Fock route (cutoff 10,000 at k = 0.5), so the
    check of k cannot wait for the relabeling."""

    def no_space(*args):
        raise AssertionError("a space was built")

    monkeypatch.setattr(contraction_lab, "build_fock_space", no_space)
    with pytest.raises(ValueError, match="k >= 1"):
        gram_matrix(0.5, labels)
    with pytest.raises(ValueError, match="k >= 1"):
        eigenvalue_residual(0.5, *labels[0][:2])


def test_decay_slope_matches_quarter_rate():
    config = ContractionRunConfig(
        k_values=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0), pairs=(canonical_pair(),)
    )
    records = overlap_decay_sweep(config)
    slope = decay_slope(records, 0, backend="fock")
    assert abs(slope - (-0.25)) < 0.0025
    slope_closed = decay_slope(records, 0, backend="closed_form")
    assert abs(slope_closed - (-0.25)) < 1e-12


def test_decay_slope_needs_two_points():
    config = ContractionRunConfig(k_values=(2.0,), pairs=(canonical_pair(),))
    records = overlap_decay_sweep(config)
    with pytest.raises(ValueError, match="two usable records"):
        decay_slope(records, 0, backend="fock")


def test_localization_residual_matches_prediction():
    for k in (2.0, 4.0, 8.0):
        out = eigenvalue_residual(k, 0.3, -0.2)
        assert out["residual_x"] == pytest.approx(out["predicted"], rel=1e-9)
        assert out["residual_p"] == pytest.approx(out["predicted"], rel=1e-9)
        assert out["predicted"] == pytest.approx(1.0 / (k * math.sqrt(2.0)))


def test_gram_offdiagonal_at_k6():
    closed, fock = gram_matrix(6.0, canonical_pair())
    want = math.exp(-9.0)
    assert abs(abs(closed[0, 1]) - want) < 1e-15
    assert fock is not None
    assert abs(abs(fock[0, 1]) - want) / want < 1e-6
    assert abs(fock[0, 0] - 1.0) < 1e-12 and abs(fock[1, 1] - 1.0) < 1e-12


def test_matrix_element_ratio_is_k_independent():
    l1 = (0.2, 0.3, 0.0)
    l2 = (0.5, 0.7, 0.0)
    want = 0.5 * ((l1[1] + l2[1]) - 1j * (l1[0] - l2[0]))
    for k in (1.0, 2.0, 4.0, 6.0, 8.0):
        cutoff = required_cutoff(k, (l1, l2))
        space = build_fock_space(1, cutoff)
        s1 = coherent_state(space, *relabel(k, *l1))
        s2 = coherent_state(space, *relabel(k, *l2))
        ratio = matrix_element(space, "X", 1, s1, s2) / overlap(s1, s2) / k
        assert abs(ratio - want) < 1e-8
        s = coherent_state(space, *relabel(k, 0.4, -0.25))
        diag = matrix_element(space, "X", 1, s, s).real / k
        assert abs(diag - (-0.25)) < 1e-10


def test_csv_round_trip(tmp_path):
    config = ContractionRunConfig(k_values=(1.0, 2.0), pairs=(canonical_pair(),))
    records = overlap_decay_sweep(config)
    path = tmp_path / "decay.csv"
    write_decay_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == len(records)
    assert float(rows[0]["overlap_abs"]) == records[0].overlap_abs
    assert rows[0]["backend"] in ("fock", "closed_form")


def test_config_validation():
    with pytest.raises(ValueError, match="k value"):
        ContractionRunConfig(k_values=(), pairs=(canonical_pair(),))
    with pytest.raises(ValueError, match="k >= 1"):
        ContractionRunConfig(k_values=(0.5,), pairs=(canonical_pair(),))
    with pytest.raises(ValueError, match="label pair"):
        ContractionRunConfig(k_values=(2.0,), pairs=())
