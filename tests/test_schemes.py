"""Frequency-plan construction for the four transmission strategies."""

import math

import numpy as np
import pytest

from fdacovert import (
    ArrayGeometry,
    DomainError,
    PolarPoint,
    channel_vector,
    linear_fda_plan,
    lpa_plan,
    objective_and_gradient,
    optimized_fda_plan,
    random_fda_plan,
)

G = ArrayGeometry(n_antennas=64, carrier_hz=3e9)
G4 = ArrayGeometry(n_antennas=4, carrier_hz=3e9)
BOB = PolarPoint(7.0711, math.radians(45.0))


def test_lpa_all_zero():
    plan = lpa_plan(G4)
    assert plan.offsets_hz == (0.0, 0.0, 0.0, 0.0)
    assert plan.scheme == "LPA"


def test_lpa_channel_matches_zero_increment_linear():
    h1 = channel_vector(G, lpa_plan(G), BOB)
    h2 = channel_vector(G, linear_fda_plan(G, 0.0), BOB)
    np.testing.assert_array_equal(h1.entries, h2.entries)


def test_linear_plan_four_elements():
    # descending orientation: the mirrored form of the centred ramp
    # (see the shipped docs; the ascending mirror enlarges the region)
    offs = linear_fda_plan(G4, 1e6).offsets_hz
    assert offs == (1.5e6, 0.5e6, -0.5e6, -1.5e6)


def test_linear_plan_three_elements():
    g3 = ArrayGeometry(n_antennas=3, carrier_hz=3e9)
    assert linear_fda_plan(g3, 1e6).offsets_hz == (1e6, 0.0, -1e6)


def test_linear_plan_structure():
    for n in (2, 5, 17, 64):
        g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
        offs = linear_fda_plan(g, 2.5e5).offsets()
        assert offs.sum() == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(np.diff(offs), -2.5e5, rtol=1e-12)


def test_linear_zero_increment_is_lpa():
    plan = linear_fda_plan(G, 0.0)
    assert plan.scheme == "LPA"
    assert all(v == 0.0 for v in plan.offsets_hz)


def test_linear_rejects_negative_increment():
    with pytest.raises(DomainError):
        linear_fda_plan(G, -1e6)


def test_random_plan_bounds_and_bandwidth():
    for seed in range(10):
        offs = random_fda_plan(G, 1e6, seed).offsets()
        assert np.all(np.abs(offs) < G.n_antennas * 1e6 / 2)


def test_random_plan_seed_reproducibility():
    a = random_fda_plan(G, 1e6, 42)
    b = random_fda_plan(G, 1e6, 42)
    assert a.offsets_hz == b.offsets_hz
    assert a.seed == 42
    c = random_fda_plan(G, 1e6, 43)
    assert c.offsets_hz != a.offsets_hz


def test_random_plan_uniform_moments():
    # k_n ~ U(-N/2, N/2): mean 0, std N/sqrt(12); check the empirical mean
    draws = np.concatenate(
        [random_fda_plan(G, 1.0, s).offsets() for s in range(1600)]
    )
    assert draws.size >= 100_000
    sigma = G.n_antennas / math.sqrt(12.0)
    assert abs(draws.mean()) < 3 * sigma / math.sqrt(draws.size)


def test_optimized_dominates_reference_plans():
    plan = optimized_fda_plan(G, BOB, 1e6)
    j_opt = objective_and_gradient(G, BOB, plan.offsets())[0]
    j_zero = objective_and_gradient(G, BOB, np.zeros(G.n_antennas))[0]
    clipped = np.clip(linear_fda_plan(G, 1e6).offsets(), -0.5e6, 0.5e6)
    j_lin = objective_and_gradient(G, BOB, clipped)[0]
    assert j_opt >= j_zero
    assert j_opt >= j_lin


def test_optimized_respects_box_exactly():
    for box in (0.5e6, 4e6):
        plan = optimized_fda_plan(G, BOB, 1e6, box_half_width_hz=box)
        assert max(abs(v) for v in plan.offsets_hz) <= box


def test_optimized_deterministic():
    a = optimized_fda_plan(G, BOB, 1e6, seed=9)
    b = optimized_fda_plan(G, BOB, 1e6, seed=9)
    assert a.offsets_hz == b.offsets_hz


def test_optimized_small_instance_matches_vertex_enumeration():
    g8 = ArrayGeometry(n_antennas=8, carrier_hz=3e9)
    box = 0.5e6
    plan = optimized_fda_plan(g8, BOB, 1e6)
    j_opt = objective_and_gradient(g8, BOB, plan.offsets())[0]
    best = -np.inf
    for bits in np.ndindex(*(2,) * 8):
        vertex = box * (2.0 * np.array(bits) - 1.0)
        best = max(best, objective_and_gradient(g8, BOB, vertex)[0])
    assert j_opt >= best * (1 - 1e-6)


def test_plan_records_scheme_and_seed():
    assert random_fda_plan(G, 1e6, 5).scheme == "RandomFDA"
    assert optimized_fda_plan(G, BOB, 1e6).scheme == "OptimizedFDA"
    assert linear_fda_plan(G, 1e6).scheme == "LinearFDA"
    assert len(random_fda_plan(G, 1e6, 5)) == 64
