import itertools
import math

import numpy as np
import pytest

from qclimit.coset_rep import (
    KIND_DIMS,
    CosetMatrix,
    WeylLabel,
    compose,
    extract_weyl_label,
    group_element,
    group_elements,
    is_pure_weyl,
    weyl_compose_formula,
    weyl_compose_labels,
)
from qclimit.lie_core import build_standard_algebra


def test_structure_constants_realized_by_both_kinds():
    """The translation elements are 1 + (a nilpotent generator), linear in
    the label, so group_elements at a unit label minus 1 is the generator:
    X_i at p = e_i, P_i at x = e_i and I at theta = 1.  Their matrix
    commutators reproduce HR3's brackets among X, P and I."""
    table = build_standard_algebra("HR3")
    names = [g.name for g in table.generators]
    labels = np.eye(7)  # rows: p = e1, e2, e3, then x = e1, e2, e3, then theta = 1
    for kind in ("phase", "config"):
        units = group_elements(kind, labels[:, 0:3], labels[:, 3:6], labels[:, 6]) - np.eye(KIND_DIMS[kind])
        mats = dict(zip(["X1", "X2", "X3", "P1", "P2", "P3", "I"], units))
        pairs = [(ia, ib) for ia, ib in itertools.product(range(len(names)), repeat=2)
                 if names[ia] in mats and names[ib] in mats]
        assert len(pairs) == 49
        for ia, ib in pairs:
            lhs = mats[names[ia]] @ mats[names[ib]] - mats[names[ib]] @ mats[names[ia]]
            rhs = np.zeros_like(lhs)
            for tgt, coeff, _ in table.entries.get((ia, ib), ()):
                rhs += coeff * mats[names[tgt]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_group_element_phase_blocks():
    w = WeylLabel([1, 2, 3], [4, 5, 6], 0.5)
    m = group_element("phase", w).entries
    np.testing.assert_array_equal(m[0:3, 0:3], np.eye(3))
    np.testing.assert_array_equal(m[3:6, 3:6], np.eye(3))
    np.testing.assert_array_equal(m[0:3, 7], w.p)
    np.testing.assert_array_equal(m[3:6, 7], w.x)
    np.testing.assert_array_equal(m[6, 0:3], -0.5 * w.x)
    np.testing.assert_array_equal(m[6, 3:6], 0.5 * w.p)
    assert m[6, 6] == 1.0 and m[6, 7] == 0.5
    np.testing.assert_array_equal(m[7], [0, 0, 0, 0, 0, 0, 0, 1])


def test_group_element_identity():
    m = group_element("phase", WeylLabel(np.zeros(3), np.zeros(3), 0.0)).entries
    np.testing.assert_array_equal(m, np.eye(8))


def test_compose_pinned_pair():
    # theta of W(p'=(1,0,0)) o W(x=(1,0,0)) is +1/2
    g1 = group_element("phase", WeylLabel([1, 0, 0], [0, 0, 0], 0.0))
    g2 = group_element("phase", WeylLabel([0, 0, 0], [1, 0, 0], 0.0))
    _, label = compose(g1, g2)
    assert label is not None
    assert label.theta == 0.5
    np.testing.assert_array_equal(label.p, [1, 0, 0])
    np.testing.assert_array_equal(label.x, [1, 0, 0])


def test_compose_matches_formula_random():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(300):
        w1 = WeylLabel(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi))
        w2 = WeylLabel(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi))
        product, label = compose(group_element("phase", w1), group_element("phase", w2))
        formula = weyl_compose_formula(w1, w2)
        expected = group_element("phase", formula)
        worst = max(worst, np.abs(product.entries - expected.entries).max())
        assert label is not None
        assert abs(label.theta - formula.theta) < 1e-12
    assert worst < 1e-12


def test_compose_inverse_is_identity():
    w = WeylLabel([0.3, -1.2, 0.8], [1.1, 0.0, -0.4], 0.9)
    product, label = compose(group_element("phase", w), group_element("phase", WeylLabel(-w.p, -w.x, -w.theta)))
    np.testing.assert_allclose(product.entries, np.eye(8), atol=1e-14)
    assert label.theta == pytest.approx(0.0, abs=1e-14)


def test_compose_kind_mismatch():
    g1 = group_element("phase", WeylLabel(np.zeros(3), np.zeros(3), 0.0))
    g2 = group_element("config", WeylLabel(np.zeros(3), np.zeros(3), 0.0))
    with pytest.raises(ValueError):
        compose(g1, g2)


def _rotated(kind, w, angle):
    """The matrix of label w with its rotation block set to a turn by angle
    about axis 1, written by hand: coset_rep builds translations only."""
    m = group_element(kind, w).entries.copy()
    c, s = math.cos(angle), math.sin(angle)
    m[0:3, 0:3] = [[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]
    return CosetMatrix(kind, m)


def test_compose_with_rotation_gives_no_label():
    g1 = _rotated("phase", WeylLabel([1, 0, 0], [0, 1, 0], 0.0), 0.4)
    g2 = group_element("phase", WeylLabel([0, 1, 0], [0, 0, 1], 0.0))
    product, label = compose(g1, g2)
    assert label is None
    assert not is_pure_weyl(product)


def test_config_compose_abelian():
    w1 = WeylLabel(np.zeros(3), [1.0, 2.0, 3.0], 0.25)
    w2 = WeylLabel(np.zeros(3), [-0.5, 0.0, 1.0], 0.5)
    product, label = compose(group_element("config", w1), group_element("config", w2))
    np.testing.assert_array_equal(label.x, w1.x + w2.x)
    assert label.theta == 0.75
    np.testing.assert_array_equal(label.p, 0.0)


def test_config_compose_with_momenta():
    rng = np.random.default_rng(23)
    for _ in range(100):
        w1 = WeylLabel(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-1, 1))
        w2 = WeylLabel(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-1, 1))
        product, label = compose(group_element("config", w1), group_element("config", w2))
        formula = weyl_compose_formula(w1, w2, kind="config")
        np.testing.assert_allclose(label.p, formula.p, atol=1e-13)
        np.testing.assert_allclose(label.x, formula.x, atol=1e-13)
        assert abs(label.theta - formula.theta) < 1e-12


def test_extract_rejects_rotated_element():
    for kind in ("phase", "config"):
        g = _rotated(kind, WeylLabel(np.zeros(3), np.zeros(3), 0.0), 1.0)
        with pytest.raises(ValueError, match="rotation block"):
            extract_weyl_label(g)


def _block_layout(kind, w):
    """One group element written out block by block (the layout that
    test_group_element_phase_blocks pins), independent of coset_rep's builders."""
    if kind == "phase":
        m = np.eye(8)
        m[0:3, 7] = w.p
        m[3:6, 7] = w.x
        m[6, 0:3] = -0.5 * w.x
        m[6, 3:6] = 0.5 * w.p
        m[6, 7] = w.theta
    else:
        m = np.eye(5)
        m[0:3, 4] = w.x
        m[3, 0:3] = w.p
        m[3, 4] = w.theta
    return m


def _old_compose_theta(w1, w2, kind):
    if kind == "phase":
        return w1.theta + w2.theta - 0.5 * (w1.x @ w2.p - w1.p @ w2.x)
    return w1.theta + w2.theta + w1.p @ w2.x


def _random_rows(rng, n):
    return rng.uniform(-2, 2, (n, 3)), rng.uniform(-2, 2, (n, 3)), rng.uniform(-np.pi, np.pi, n)


@pytest.mark.parametrize("kind", ["phase", "config"])
def test_group_elements_stack_matches_per_label_builder(kind):
    rng = np.random.default_rng(41)
    p, x, theta = _random_rows(rng, 50)
    stack = group_elements(kind, p, x, theta)
    assert stack.shape == (50, KIND_DIMS[kind], KIND_DIMS[kind])
    for i in range(50):
        w = WeylLabel(p[i], x[i], theta[i])
        np.testing.assert_array_equal(stack[i], _block_layout(kind, w))


@pytest.mark.parametrize("kind", ["phase", "config"])
def test_weyl_compose_labels_bitwise_per_label_formula(kind):
    rng = np.random.default_rng(43)
    w1, w2 = _random_rows(rng, 300), _random_rows(rng, 300)
    p, x, theta = weyl_compose_labels(w1, w2, kind)
    for i in range(300):
        a, b = WeylLabel(w1[0][i], w1[1][i], w1[2][i]), WeylLabel(w2[0][i], w2[1][i], w2[2][i])
        assert theta[i] == _old_compose_theta(a, b, kind)
        single = weyl_compose_formula(a, b, kind)
        assert single.theta == theta[i]
        np.testing.assert_array_equal(single.p, p[i])
        np.testing.assert_array_equal(single.x, x[i])
    np.testing.assert_array_equal(p, w1[0] + w2[0])
    np.testing.assert_array_equal(x, w1[1] + w2[1])


def test_nan_label_reaches_the_stack_and_the_composition():
    p, x, theta = np.zeros((3, 3)), np.ones((3, 3)), np.array([0.0, math.nan, 0.0])
    p[2, 1] = math.nan
    stack = group_elements("phase", p, x, theta)
    assert math.isnan(stack[1, 6, 7]) and math.isnan(stack[2, 1, 7]) and math.isnan(stack[2, 6, 4])
    assert not np.isnan(stack[0]).any()
    other = (np.ones((3, 3)), np.ones((3, 3)), np.zeros(3))
    _, _, composed = weyl_compose_labels((p, x, theta), other)
    assert np.isnan(composed).tolist() == [False, True, True]


@pytest.mark.parametrize(
    "p, x, theta",
    [
        (np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(4)),
        (np.zeros(3), np.zeros(3), np.zeros(1)),
        (np.zeros((4, 3)), np.zeros((5, 3)), np.zeros(4)),
        (np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((4, 1))),
        (np.zeros((4, 3)), np.zeros((4, 3)), np.zeros(3)),
    ],
)
def test_batched_law_rejects_misshaped_labels(p, x, theta):
    with pytest.raises(ValueError, match="labels need"):
        group_elements("phase", p, x, theta)
    with pytest.raises(ValueError, match="labels need"):
        weyl_compose_labels((p, x, theta), (p, x, theta))


def test_batched_law_rejects_unknown_kind_and_unequal_rows():
    rows = (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="unknown coset kind"):
        group_elements("spiral", *rows)
    with pytest.raises(ValueError, match="unknown coset kind"):
        weyl_compose_labels(rows, rows, "spiral")
    with pytest.raises(ValueError, match="differ in number"):
        weyl_compose_labels(rows, (np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3)))


def test_coset_matrix_shape_validation():
    with pytest.raises(ValueError):
        CosetMatrix("phase", np.eye(5))
    with pytest.raises(ValueError):
        CosetMatrix("spiral", np.eye(8))
