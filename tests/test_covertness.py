"""Covertness constraint: xi, its inverse, KL divergence and the threshold q."""

import math

import numpy as np
import pytest

from fdacovert import (
    CovertnessBudget,
    DomainError,
    kl_divergence,
    xi,
    xi_inv,
)


def bisect_xi_inv(y, lo=0.0, hi=None, iters=200):
    """Independent bisection oracle for the monotone xi."""
    if hi is None:
        hi = 2 * y + 2
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if xi(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_xi_anchor_values():
    assert xi(0.0) == 0.0
    assert xi(1.0) == pytest.approx(1 - math.log(2), rel=1e-14)


def test_xi_small_argument_taylor():
    for nu in (1e-4, 5e-5, 1e-6):
        assert xi(nu) == pytest.approx(nu**2 / 2, rel=1e-4)


def test_xi_rejects_negative():
    with pytest.raises(DomainError):
        xi(-0.1)


def test_xi_convex_increasing():
    nus = np.linspace(0.0, 10.0, 50)
    vals = [xi(v) for v in nus]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    h = 1e-4
    for nu in np.linspace(0.05, 10.0, 50):
        second = (xi(nu + h) - 2 * xi(nu) + xi(nu - h)) / h**2
        assert second >= -1e-9


def test_xi_inv_zero():
    assert xi_inv(0.0) == 0.0


def test_xi_inv_against_bisection_oracle():
    # bisection oracle gives 0.2135497...; quoted "0.2137" rounds it high
    assert xi_inv(0.02) == pytest.approx(0.21355, abs=1e-4)
    for y in (1e-6, 0.02, 0.5, 3.0, 10.0):
        assert xi_inv(y) == pytest.approx(bisect_xi_inv(y), abs=1e-12)


def test_xi_round_trip_both_ways():
    for y in np.geomspace(1e-8, 10.0, 100):
        nu = xi_inv(float(y))
        assert abs(xi(nu) - y) <= 1e-10
    for nu in np.geomspace(1e-4, 12.0, 60):
        assert abs(xi_inv(xi(float(nu))) - nu) <= 1e-10 * max(1.0, nu)


def test_xi_inv_strictly_increasing():
    ys = np.geomspace(1e-8, 10.0, 60)
    vals = [xi_inv(float(y)) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_kl_divergence_values():
    assert kl_divergence(0.0, 100) == 0.0
    # consistency with the xi_inv example: nu = xi_inv(0.02) and L = 100
    # recovers D = 2 = 2*eps^2 at eps = 1
    assert kl_divergence(xi_inv(0.02), 100) == pytest.approx(2.0, rel=1e-10)
    assert kl_divergence(0.37, 200) == pytest.approx(2 * kl_divergence(0.37, 100), rel=1e-14)


def test_detection_threshold_reference_value():
    b = CovertnessBudget(epsilon=1.0, blocklength=100, noise_willie_w=1e-9,
                         transmit_power_w=0.1)
    expected = 1e-8 * bisect_xi_inv(0.02)
    assert b.threshold_q == pytest.approx(expected, rel=1e-10)
    assert b.threshold_q == pytest.approx(2.1355e-9, rel=1e-3)


def test_detection_threshold_vanishes_with_epsilon():
    qs = [
        CovertnessBudget(eps, 100, 1e-9, 0.1).threshold_q
        for eps in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    assert all(b < a for a, b in zip(qs, qs[1:]))
    # q ~ (sigma/P) sqrt(2 * 2 eps^2 / L): 2e-13 at eps = 1e-4
    assert qs[-1] < 1e-12


def test_detection_threshold_linear_in_noise():
    q1 = CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q
    q2 = CovertnessBudget(1.0, 100, 3e-9, 0.1).threshold_q
    assert q2 == pytest.approx(3 * q1, rel=1e-12)


def test_detection_threshold_monotonicity_lattice():
    eps_vals = (0.5, 1.0, 2.0)
    l_vals = (50, 100, 200)
    sw_vals = (5e-10, 1e-9, 2e-9)
    pt_vals = (0.05, 0.1, 0.2)

    def q(e, l, s, p):
        return CovertnessBudget(e, l, s, p).threshold_q

    for l in l_vals:
        for s in sw_vals:
            for p in pt_vals:
                row = [q(e, l, s, p) for e in eps_vals]
                assert row[0] < row[1] < row[2]
    for e in eps_vals:
        for s in sw_vals:
            for p in pt_vals:
                row = [q(e, l, s, p) for l in l_vals]
                assert row[0] > row[1] > row[2]
    for e in eps_vals:
        for l in l_vals:
            for p in pt_vals:
                row = [q(e, l, s, p) for s in sw_vals]
                assert row[0] < row[1] < row[2]
            for s in sw_vals:
                row = [q(e, l, s, p) for p in pt_vals]
                assert row[0] > row[1] > row[2]


def test_budget_round_trip_invariant():
    b = CovertnessBudget(1.3, 250, 2e-9, 0.25)
    y = 2 * b.epsilon**2 / b.blocklength
    nu = b.threshold_q * b.transmit_power_w / b.noise_willie_w
    assert abs(xi(nu) - y) <= 1e-10


def test_budget_validation():
    with pytest.raises(DomainError):
        CovertnessBudget(0.0, 100, 1e-9, 0.1)
    with pytest.raises(DomainError):
        CovertnessBudget(1.0, 0, 1e-9, 0.1)
    with pytest.raises(DomainError):
        CovertnessBudget(1.0, 100, 0.0, 0.1)
    with pytest.raises(DomainError, match="noise_willie_w"):
        CovertnessBudget(1.0, 100, math.nan, 0.1)  # a NaN power must not pass as > 0
