"""Boundary-ellipse coefficients, area, curvature oracle and the optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdacovert import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    DegenerateEllipseError,
    DegenerateGeometryError,
    DomainError,
    FrequencyPlan,
    PolarPoint,
    ellipse_area,
    g_coefficients,
    hessian_consistency,
    linear_fda_plan,
    lpa_plan,
    objective_and_gradient,
    optimize_offsets,
    psi_vector,
    random_fda_plan,
)
from fdacovert.ellipse import _search_from, anchor_starts

G = ArrayGeometry(n_antennas=64, carrier_hz=3e9)
BOB = PolarPoint(7.0711, math.radians(45.0))


def g_coefficients_double_loop(g, plan, bob):
    """O(N^2) reference for the closed-form reductions."""
    psi = psi_vector(g, plan, bob.r_m)
    n = g.n_antennas
    k4 = 4 * math.pi**2 / SPEED_OF_LIGHT**2
    kappa = g.carrier_hz * g.spacing_m * math.cos(bob.theta_rad)
    g1 = g2 = g3 = 0.0
    for i in range(n):
        for j in range(n):
            dpsi = psi[i] - psi[j]
            didx = i - j
            g1 += dpsi * dpsi
            g2 += dpsi * didx
            g3 += didx * didx
    return k4 * g1, k4 * kappa * g2, k4 * kappa**2 * g3


def test_psi_increasing_without_offsets():
    psi = psi_vector(G, lpa_plan(G), BOB.r_m)
    assert np.all(np.diff(psi) > 0)


def test_psi_limits_to_negated_offsets():
    plan = linear_fda_plan(G, 1e6)
    psi = psi_vector(G, plan, 1e9)  # curvature term ~ 1e-14 of the offsets
    np.testing.assert_allclose(psi, -plan.offsets(), rtol=1e-9)


def test_index_sum_identity():
    # sum over pairs of (n-m)^2 equals N^2(N^2-1)/6, exactly in integers
    for n in range(2, 65):
        total = sum((i - j) ** 2 for i in range(n) for j in range(n))
        assert total * 6 == n * n * (n * n - 1)


def test_g_coefficients_two_element_identity():
    g2el = ArrayGeometry(n_antennas=2, carrier_hz=3e9)
    _, _, g3 = g_coefficients(g2el, lpa_plan(g2el), BOB)
    k4 = 4 * math.pi**2 / SPEED_OF_LIGHT**2
    kappa = g2el.carrier_hz * g2el.spacing_m * math.cos(BOB.theta_rad)
    assert g3 == pytest.approx(k4 * kappa**2 * 2.0, rel=1e-14)


def test_constant_psi_zeroes_difference_coefficients():
    curvature = G.carrier_hz * G.spacing_m**2 / (2 * BOB.r_m**2)
    delta = np.arange(G.n_antennas, dtype=float)
    plan = FrequencyPlan(tuple(curvature * delta * delta), "OptimizedFDA")
    g1, g2, _ = g_coefficients(G, plan, BOB)
    assert abs(g1) < 1e-20
    assert abs(g2) < 1e-12


def test_g_coefficients_match_double_loop():
    for n in (3, 17, 64):
        g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
        plan = random_fda_plan(g, 1e6, seed=n)
        fast = g_coefficients(g, plan, BOB)
        slow = g_coefficients_double_loop(g, plan, BOB)
        for a, b in zip(fast, slow):
            assert a == pytest.approx(b, rel=1e-12)


def test_g1_nonnegative():
    for seed in range(8):
        plan = random_fda_plan(G, 2e6, seed)
        g1, _, _ = g_coefficients(G, plan, BOB)
        assert g1 >= 0


def test_endfire_is_degenerate():
    near_endfire = PolarPoint(5.0, math.pi / 2 - 1e-14)
    with pytest.raises(DegenerateGeometryError):
        g_coefficients(G, lpa_plan(G), near_endfire)


def test_area_vanishes_at_unit_threshold():
    coeffs = g_coefficients(G, lpa_plan(G), BOB)
    areas = [ellipse_area(coeffs, 64, q) for q in (0.9, 0.99, 0.999999)]
    assert areas[0] > areas[1] > areas[2]
    assert ellipse_area(coeffs, 64, 1.0) == 0.0


def test_area_scales_inversely_with_coefficients():
    coeffs = g_coefficients(G, lpa_plan(G), BOB)
    a1 = ellipse_area(coeffs, 64, 0.1)
    scaled = tuple(3.0 * c for c in coeffs)
    assert ellipse_area(scaled, 64, 0.1) == pytest.approx(a1 / 3.0, rel=1e-12)


def test_area_matches_generic_conic_oracle():
    # eigen-decomposition of [[g1, g2], [g2, g3]] with level 2 N^2 (1 - q~):
    # semi-axes a, b give pi a b, an independent route to the closed form
    g1, g2, g3 = g_coefficients(G, lpa_plan(G), BOB)
    q_tilde = 0.1
    level = 2.0 * 64**2 * (1 - q_tilde)
    eig = np.linalg.eigvalsh(np.array([[g1, g2], [g2, g3]]))
    semi = np.sqrt(level / eig)
    oracle = math.pi * semi[0] * semi[1]
    closed = ellipse_area((g1, g2, g3), 64, q_tilde)
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_area_degenerate_discriminant():
    with pytest.raises(DegenerateEllipseError):
        ellipse_area((1.0, 10.0, 1.0), 64, 0.1)
    with pytest.raises(DomainError):
        ellipse_area((1.0, 0.1, 1.0), 64, 0.0)


def test_build_model_flags_empty_region():
    g1, g2, g3 = coeffs = g_coefficients(G, lpa_plan(G), BOB)
    assert ellipse_area(coeffs, G.n_antennas, 1.0) == 0.0
    assert ellipse_area(coeffs, G.n_antennas, 0.1) > 0
    assert g3 > 0
    assert g1 * g3 - g2**2 > 0


def test_hessian_consistency_at_defaults():
    dev = hessian_consistency(G, lpa_plan(G), BOB)
    assert dev <= 1e-4
    assert dev > 0.0  # truncation never vanishes exactly


def test_hessian_deviation_grows_with_step():
    small = hessian_consistency(G, lpa_plan(G), BOB, dr_step=1e-4, dtheta_step=1e-6)
    large = hessian_consistency(G, lpa_plan(G), BOB, dr_step=1e-2, dtheta_step=1e-4)
    assert large > small


def test_hessian_bounded_with_offsets():
    # offset plans retain the dropped cross terms: bounded, not tiny
    dev = hessian_consistency(G, linear_fda_plan(G, 1e6), BOB)
    assert dev < 0.1


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    box = 0.5e6
    for _ in range(10):
        f = rng.uniform(-box, box, G.n_antennas)
        _, grad = objective_and_gradient(G, BOB, f)
        for i in rng.choice(G.n_antennas, size=4, replace=False):
            e = np.zeros_like(f)
            e[i] = 1.0
            h = 1e3  # J is quadratic: central differences are h-exact
            jp = objective_and_gradient(G, BOB, f + h * e)[0]
            jm = objective_and_gradient(G, BOB, f - h * e)[0]
            fd = (jp - jm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5)


def test_objective_shift_invariance():
    rng = np.random.default_rng(3)
    f = rng.uniform(-0.5e6, 0.5e6, G.n_antennas)
    j0 = objective_and_gradient(G, BOB, f)[0]
    for c in (1e3, -2.5e5, 1e7):
        jc = objective_and_gradient(G, BOB, f + c)[0]
        assert jc == pytest.approx(j0, rel=1e-9)


def test_objective_positive_at_zero_offsets():
    j, _ = objective_and_gradient(G, BOB, np.zeros(G.n_antennas))
    assert j > 0


def test_optimize_dominates_starts_and_stays_feasible():
    box = 0.5e6
    res = optimize_offsets(G, BOB, box)
    j_zero = objective_and_gradient(G, BOB, np.zeros(G.n_antennas))[0]
    assert res.objective >= j_zero
    assert max(abs(v) for v in res.offsets_hz) <= box


def test_optimize_deterministic_and_reports_iterations():
    a = optimize_offsets(G, BOB, 0.5e6, seed=4)
    b = optimize_offsets(G, BOB, 0.5e6, seed=4)
    assert a.offsets_hz == b.offsets_hz
    assert a.start_index == b.start_index
    assert a.iterations >= 1


def test_optimize_rejects_bad_box():
    with pytest.raises(DomainError):
        optimize_offsets(G, BOB, 0.0)


def test_area_decreases_when_objective_increases():
    # the monotone link the optimizer relies on, at fixed q~ and N
    f_low = np.zeros(G.n_antennas)
    res = optimize_offsets(G, BOB, 4e6)
    f_high = np.asarray(res.offsets_hz)
    j_low = objective_and_gradient(G, BOB, f_low)[0]
    j_high = objective_and_gradient(G, BOB, f_high)[0]
    assert j_high > j_low
    plan_low = lpa_plan(G)
    plan_high = FrequencyPlan(tuple(f_high), "OptimizedFDA")
    area_low = ellipse_area(g_coefficients(G, plan_low, BOB), G.n_antennas, 0.1)
    area_high = ellipse_area(g_coefficients(G, plan_high, BOB), G.n_antennas, 0.1)
    assert area_high < area_low


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 128),
    carrier_hz=st.sampled_from((1e9, 3e9, 28e9)),
    r_m=st.floats(0.5, 50.0),
    theta_deg=st.floats(-80.0, 80.0),
    log_box=st.floats(2.0, 7.0),
    kind=st.sampled_from(("interior", "vertex", "edge")),
    seed=st.integers(0, 2**32 - 1),
)
def test_projected_step_never_moves_without_raising_objective(
    n, carrier_hz, r_m, theta_deg, log_box, kind, seed
):
    # J is convex, so J(x + m) >= J(x) + grad.m, and grad.m > 0 for any move
    # m of the box-projected gradient step: the one step the search takes
    # needs no line search
    g = ArrayGeometry(n_antennas=n, carrier_hz=carrier_hz)
    bob = PolarPoint(r_m, math.radians(theta_deg))
    box = 10.0**log_box
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, n)
    if kind == "vertex":
        x = box * np.where(x >= 0, 1.0, -1.0)
    elif kind == "edge":
        wall = rng.random(n) < 0.5
        x[wall] = box * np.sign(x[wall])
    j, grad = objective_and_gradient(g, bob, x)
    step = np.clip(x + (box / np.max(np.abs(grad))) * grad, -box, box)
    assert np.array_equal(step, x) or objective_and_gradient(g, bob, step)[0] > j


# (N, focus, box) -> (winning start, signs of the offsets over the box);
# the same for seeds 0 and 4
PINNED_SEARCH_FOCI = (PolarPoint(7.0711, math.radians(45.0)), PolarPoint(30.0, math.radians(-70.0)))
PINNED_SEARCH = {
    (3, 0, 5e5): (0, "-+-"),
    (3, 0, 4e6): (0, "-+-"),
    (3, 1, 5e5): (0, "-+-"),
    (3, 1, 4e6): (0, "-+-"),
    (8, 0, 5e5): (0, "--++++--"),
    (8, 0, 4e6): (0, "--++++--"),
    (8, 1, 5e5): (0, "--++++--"),
    (8, 1, 4e6): (0, "--++++--"),
    (16, 0, 5e5): (0, "---++++++++++---"),
    (16, 0, 4e6): (0, "----++++++++----"),
    (16, 1, 5e5): (1, "----++++++++----"),
    (16, 1, 4e6): (1, "----++++++++----"),
    (64, 0, 5e5): (0, "-" * 14 + "+" * 36 + "-" * 14),
    (64, 0, 4e6): (0, "-" * 14 + "+" * 36 + "-" * 14),
    (64, 1, 5e5): (0, "-" * 14 + "+" * 36 + "-" * 14),
    (64, 1, 4e6): (1, "-" * 15 + "+" * 34 + "-" * 15),
}


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("key", sorted(PINNED_SEARCH))
def test_optimize_offsets_keeps_its_pinned_vertices(key, seed):
    n, focus, box = key
    start_index, signs = PINNED_SEARCH[key]
    g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
    bob = PINNED_SEARCH_FOCI[focus]
    res = optimize_offsets(g, bob, box, seed=seed)
    assert res.offsets_hz == tuple(box if s == "+" else -box for s in signs)
    assert res.start_index == start_index
    assert res.objective == objective_and_gradient(g, bob, np.asarray(res.offsets_hz))[0]


@pytest.mark.parametrize(("seed", "start_index"), [(0, 3), (4, 2)])
def test_a_random_start_can_beat_both_anchors(seed, start_index):
    # at small N a random start can reach a vertex neither anchor's search
    # reaches, so the random starts stay
    g = ArrayGeometry(n_antennas=6, carrier_hz=3e9)
    bob = PolarPoint(10.0, math.radians(30.0))
    box = 1e6
    anchors = [_search_from(g, bob, x0, box)[1] for x0 in anchor_starts(6, box)]
    res = optimize_offsets(g, bob, box, seed=seed)
    assert res.start_index == start_index
    assert max(anchors) == pytest.approx(52.741, abs=1e-3)
    assert res.objective == pytest.approx(54.032, abs=1e-3)
