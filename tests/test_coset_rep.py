import itertools
import math

import numpy as np
import pytest

from qclimit.coset_rep import (
    KIND_DIMS,
    AlgebraParams,
    CosetMatrix,
    WeylLabel,
    algebra_matrix,
    compose,
    contracted_action,
    extract_weyl_label,
    group_element,
    group_elements,
    infinitesimal_action,
    is_pure_weyl,
    omega_matrix,
    rotation_from_omega,
    weyl_compose_formula,
    weyl_compose_labels,
)
from qclimit.lie_core import build_standard_algebra


def test_omega_matrix_layout():
    m = omega_matrix([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(m, -m.T)
    assert m[1, 2] == 1.0 and m[2, 0] == 2.0 and m[0, 1] == 3.0


def test_rotation_about_axis_three():
    phi = 0.7
    r = rotation_from_omega([0.0, 0.0, phi])
    expected = np.array(
        [
            [math.cos(phi), math.sin(phi), 0.0],
            [-math.sin(phi), math.cos(phi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(r, expected, atol=1e-14)


def test_rotation_from_omega_matches_expm():
    """Rodrigues' closed form against scipy's scaling-and-squaring expm (test-local reference)."""
    from scipy.linalg import expm

    rng = np.random.default_rng(11)
    for omega in [np.zeros(3), np.array([1e-9, 0.0, 0.0]), *rng.uniform(-3, 3, size=(20, 3))]:
        np.testing.assert_allclose(rotation_from_omega(omega), expm(omega_matrix(omega)), rtol=0, atol=1e-13)


def test_rotation_is_special_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = rotation_from_omega(rng.uniform(-3, 3, size=3))
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)


def test_algebra_matrix_bottom_row_zero():
    params = AlgebraParams(omega=[0.1, 0.2, 0.3], pbar=[1, 2, 3], xbar=[4, 5, 6], thetabar=7.0)
    for kind in ("phase", "config"):
        m = algebra_matrix(kind, params).entries
        np.testing.assert_array_equal(m[-1], 0.0)


def test_infinitesimal_action_phase_example():
    params = AlgebraParams(pbar=[1.0, 0.0, 0.0])
    dp, dx, dtheta = infinitesimal_action("phase", params, ([0, 0, 0], [1, 0, 0], 0.0))
    np.testing.assert_array_equal(dp, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(dx, 0.0)
    assert dtheta == 0.5


def test_infinitesimal_action_zero_params():
    dp, dx, dtheta = infinitesimal_action("phase", AlgebraParams(), ([1, 2, 3], [4, 5, 6], 7.0))
    assert np.all(dp == 0) and np.all(dx == 0) and dtheta == 0.0


def test_infinitesimal_action_config_example():
    params = AlgebraParams(pbar=[1.0, 0.0, 0.0])
    dx, dtheta = infinitesimal_action("config", params, ([1, 0, 0], 0.0))
    np.testing.assert_array_equal(dx, 0.0)
    assert dtheta == 1.0


def test_infinitesimal_action_rotation_mixes_coordinates():
    params = AlgebraParams(omega=[0.0, 0.0, 1.0])
    dp, dx, dtheta = infinitesimal_action("phase", params, ([1, 0, 0], [0, 1, 0], 0.0))
    np.testing.assert_allclose(dp, [0.0, -1.0, 0.0])
    np.testing.assert_allclose(dx, [1.0, 0.0, 0.0])
    assert dtheta == 0.0


def test_structure_constants_realized_by_both_kinds():
    """Matrix commutators of the basis algebra matrices reproduce the bracket
    table, with J_axis, X_i, P_i, I riding in the omega, pbar, xbar, thetabar
    slots respectively."""
    table = build_standard_algebra("HR3")
    eye3 = np.eye(3)
    for kind in ("phase", "config"):
        mats = {}
        for axis, name in ((1, "J23"), (2, "J31"), (3, "J12")):
            mats[name] = algebra_matrix(kind, AlgebraParams(omega=eye3[axis - 1])).entries
        for i in (1, 2, 3):
            mats[f"X{i}"] = algebra_matrix(kind, AlgebraParams(pbar=eye3[i - 1])).entries
            mats[f"P{i}"] = algebra_matrix(kind, AlgebraParams(xbar=eye3[i - 1])).entries
        mats["I"] = algebra_matrix(kind, AlgebraParams(thetabar=1.0)).entries

        names = [g.name for g in table.generators]
        for ia, ib in itertools.product(range(10), repeat=2):
            lhs = mats[names[ia]] @ mats[names[ib]] - mats[names[ib]] @ mats[names[ia]]
            rhs = np.zeros_like(lhs)
            for tgt, coeff, _ in table.entries.get((ia, ib), ()):
                rhs += coeff * mats[names[tgt]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_group_element_phase_blocks():
    w = WeylLabel([1, 2, 3], [4, 5, 6], 0.5)
    r = rotation_from_omega([0.3, -0.2, 0.9])
    m = group_element("phase", w, r).entries
    np.testing.assert_array_equal(m[0:3, 0:3], r)
    np.testing.assert_array_equal(m[3:6, 3:6], r)
    np.testing.assert_array_equal(m[0:3, 7], w.p)
    np.testing.assert_array_equal(m[3:6, 7], w.x)
    np.testing.assert_allclose(m[6, 0:3], -0.5 * w.x @ r)
    np.testing.assert_allclose(m[6, 3:6], 0.5 * w.p @ r)
    assert m[6, 6] == 1.0 and m[6, 7] == 0.5
    np.testing.assert_array_equal(m[7], [0, 0, 0, 0, 0, 0, 0, 1])


def test_group_element_zero_label_is_rotation_only():
    r = rotation_from_omega([0, 0, math.pi / 2])
    m = group_element("phase", WeylLabel([0, 0, 0], [0, 0, 0], 0.0), r).entries
    np.testing.assert_array_equal(m[6], [0, 0, 0, 0, 0, 0, 1, 0])
    np.testing.assert_allclose(m[0:3, 0:3], r)


def test_group_element_identity():
    m = group_element("phase", WeylLabel(np.zeros(3), np.zeros(3), 0.0)).entries
    np.testing.assert_array_equal(m, np.eye(8))


def test_group_element_rejects_bad_rotation():
    w = WeylLabel(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        group_element("phase", w, np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        group_element("phase", w, np.diag([1.0, 1.0, -1.0]))
    nan_rotation = np.eye(3)
    nan_rotation[0, 1] = math.nan
    with pytest.raises(ValueError, match="orthogonal"):
        group_element("phase", w, nan_rotation)


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


def test_compose_with_rotation_gives_no_label():
    r = rotation_from_omega([0.4, 0.0, 0.0])
    g1 = group_element("phase", WeylLabel([1, 0, 0], [0, 1, 0], 0.0), r)
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
    g = group_element("phase", WeylLabel(np.zeros(3), np.zeros(3), 0.0),
                      rotation_from_omega([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        extract_weyl_label(g)


def test_algebra_matrix_phase_nilpotent_order_two():
    a = algebra_matrix("phase", AlgebraParams(pbar=[1, 2, 3], xbar=[4, 5, 6], thetabar=7)).entries
    np.testing.assert_array_equal(a @ a, 0.0)


def test_algebra_matrix_config_nilpotent_order_three():
    a = algebra_matrix("config", AlgebraParams(pbar=[1, 0, 0], xbar=[1, 0, 0], thetabar=0)).entries
    assert np.abs(a @ a).max() > 0
    np.testing.assert_array_equal(a @ a @ a, 0.0)


def test_contracted_action_k1_matches_infinitesimal():
    rng = np.random.default_rng(29)
    for _ in range(20):
        params = AlgebraParams(
            omega=rng.uniform(-1, 1, 3),
            pbar=rng.uniform(-1, 1, 3),
            xbar=rng.uniform(-1, 1, 3),
            thetabar=rng.uniform(-1, 1),
        )
        point = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1))
        dp1, dx1, dth1 = infinitesimal_action("phase", params, point)
        dp2, dx2, dth2 = contracted_action("phase", params, point, 1.0)
        np.testing.assert_allclose(dp1, dp2, atol=1e-14)
        np.testing.assert_allclose(dx1, dx2, atol=1e-14)
        assert dth1 == pytest.approx(dth2, abs=1e-14)


def test_contracted_action_config_example():
    params = AlgebraParams(pbar=[1.0, 0.0, 0.0])
    _, dtheta = contracted_action("config", params, ([1.0, 0.0, 0.0], 0.0), 2.0)
    assert dtheta == 0.25


def test_contracted_action_relabel_identity():
    """The rescaled action is the original action written in scaled labels."""
    rng = np.random.default_rng(31)
    for k in (2.0, 5.0):
        for _ in range(20):
            params = AlgebraParams(
                omega=rng.uniform(-1, 1, 3),
                pbar=rng.uniform(-1, 1, 3),
                xbar=rng.uniform(-1, 1, 3),
                thetabar=rng.uniform(-1, 1),
            )
            scaled = AlgebraParams(params.omega, k * params.pbar, k * params.xbar, params.thetabar)
            p, x, theta = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1)
            dp, dx, dth = infinitesimal_action("phase", params, (p, x, theta))
            dpc, dxc, dthc = contracted_action("phase", scaled, (k * p, k * x, theta), k)
            np.testing.assert_allclose(dpc, k * dp, atol=1e-12)
            np.testing.assert_allclose(dxc, k * dx, atol=1e-12)
            assert dthc == pytest.approx(dth, abs=1e-12)


def test_contracted_action_infinite_k():
    params = AlgebraParams(omega=[0, 0, 1], pbar=[1, 2, 3], xbar=[4, 5, 6], thetabar=0.25)
    point = ([1, 1, 1], [2, 2, 2], 0.7)
    dp, dx, dtheta = contracted_action("phase", params, point, math.inf)
    assert dtheta == 0.25
    np.testing.assert_allclose(dp, omega_matrix(params.omega) @ [1, 1, 1] + params.pbar)
    _, dtheta_c = contracted_action("config", params, ([1, 1, 1], 0.0), math.inf)
    assert dtheta_c == 0.25


def test_contracted_action_rejects_small_k():
    params = AlgebraParams()
    with pytest.raises(ValueError):
        contracted_action("phase", params, (np.zeros(3), np.zeros(3), 0.0), 0.99)
    with pytest.raises(ValueError):
        contracted_action("config", params, (np.zeros(3), 0.0), float("nan"))


def _block_layout(kind, w, rotation=None):
    """One group element written out block by block (the layout that
    test_group_element_phase_blocks pins), independent of coset_rep's builders."""
    r = np.eye(3) if rotation is None else rotation
    if kind == "phase":
        m = np.eye(8)
        m[0:3, 0:3] = r
        m[3:6, 3:6] = r
        m[0:3, 7] = w.p
        m[3:6, 7] = w.x
        m[6, 0:3] = -0.5 * w.x @ r
        m[6, 3:6] = 0.5 * w.p @ r
        m[6, 7] = w.theta
    else:
        m = np.eye(5)
        m[0:3, 0:3] = r
        m[0:3, 4] = w.x
        m[3, 0:3] = w.p @ r
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
    r = rotation_from_omega([0.3, -0.2, 0.9])
    rotated = group_elements(kind, p, x, theta, r)
    for i in range(50):
        want = _block_layout(kind, WeylLabel(p[i], x[i], theta[i]), r)
        np.testing.assert_allclose(rotated[i], want, rtol=1e-15, atol=1e-15)


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
