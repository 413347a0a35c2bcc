"""Geometry: coordinate conventions, element distances, near-field bound."""

import math

import numpy as np
import pytest

from fdacovert import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CartesianPoint,
    DomainError,
    PolarPoint,
    cartesian_to_polar,
    exact_element_distance,
    fresnel_element_distance,
    polar_to_cartesian,
    rayleigh_distance,
)

G64 = ArrayGeometry(n_antennas=64, carrier_hz=3e9)
BOB = PolarPoint(7.0711, math.radians(45.0))


def test_polar_to_cartesian_bob_convention():
    # the angle convention must place the focus of the reference set-up at (5, 5)
    c = polar_to_cartesian(BOB)
    assert abs(c.x_m - 5.0) < 1e-4
    assert abs(c.y_m - 5.0) < 1e-4


def test_polar_to_cartesian_broadside_axis():
    c = polar_to_cartesian(PolarPoint(1.0, 0.0))
    assert c.x_m == pytest.approx(1.0, abs=0)
    assert c.y_m == pytest.approx(0.0, abs=0)


def test_round_trip_random_points():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        r = rng.uniform(0.1, 100.0)
        th = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6)
        p = PolarPoint(r, th)
        back = cartesian_to_polar(polar_to_cartesian(p))
        assert back.r_m == pytest.approx(r, rel=1e-12)
        assert back.theta_rad == pytest.approx(th, rel=1e-12, abs=1e-12)


def test_cartesian_to_polar_rejects_origin():
    with pytest.raises(DomainError):
        cartesian_to_polar(CartesianPoint(0.0, 0.0))


def test_polar_point_domain():
    with pytest.raises(DomainError):
        PolarPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        PolarPoint(-1.0, 0.0)
    with pytest.raises(DomainError):
        PolarPoint(1.0, math.pi / 2)  # open interval


def test_array_geometry_derived_fields():
    lam = SPEED_OF_LIGHT / 3e9
    assert G64.wavelength_m == pytest.approx(lam, rel=0)
    assert G64.spacing_m == pytest.approx(lam / 2, rel=0)
    assert G64.aperture_m == pytest.approx(63 * lam / 2, rel=0)
    with pytest.raises(DomainError):
        ArrayGeometry(n_antennas=1, carrier_hz=3e9)
    with pytest.raises(DomainError):
        ArrayGeometry(n_antennas=4, carrier_hz=-1.0)
    for spacing in (0.0, -0.0, math.nan):  # only None means half a wavelength
        with pytest.raises(DomainError, match="spacing_m"):
            ArrayGeometry(n_antennas=4, carrier_hz=3e9, spacing_m=spacing)


def test_exact_distance_first_element_is_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = PolarPoint(rng.uniform(0.5, 50), rng.uniform(-1.4, 1.4))
        assert exact_element_distance(G64, 1, p) == pytest.approx(p.r_m, rel=1e-15)


def test_exact_distance_two_element_pythagoras():
    g = ArrayGeometry(n_antennas=2, carrier_hz=3e9, spacing_m=0.05)
    p = PolarPoint(10.0, 0.0)
    assert exact_element_distance(g, 2, p) == pytest.approx(
        math.sqrt(100.0 + 0.0025), rel=1e-15
    )


def test_exact_distance_index_range():
    with pytest.raises(DomainError):
        exact_element_distance(G64, 0, BOB)
    with pytest.raises(DomainError):
        exact_element_distance(G64, 65, BOB)


def test_fresnel_first_element_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = PolarPoint(rng.uniform(0.5, 100), rng.uniform(-1.4, 1.4))
        assert fresnel_element_distance(G64, 1, p) == p.r_m


def test_fresnel_broadside_exceeds_range():
    p = PolarPoint(10.0, 0.0)
    for n in range(2, 65):
        assert fresnel_element_distance(G64, n, p) >= p.r_m


def test_fresnel_matches_exact_near_rayleigh():
    # at ranges near the Rayleigh distance the truncation error stays below 1e-3*r
    rng = np.random.default_rng(2)
    r_ray = rayleigh_distance(G64)
    for _ in range(10):
        p = PolarPoint(rng.uniform(0.8, 1.2) * r_ray, rng.uniform(-1.0, 1.0))
        for n in range(1, 65):
            err = abs(
                fresnel_element_distance(G64, n, p) - exact_element_distance(G64, n, p)
            )
            assert err < 1e-3 * p.r_m


def test_fresnel_error_at_bob_reported():
    errs = [
        abs(fresnel_element_distance(G64, n, BOB) - exact_element_distance(G64, n, BOB))
        for n in range(1, 65)
    ]
    worst = max(errs)
    rel = worst / exact_element_distance(G64, int(np.argmax(errs)) + 1, BOB)
    print(f"max |fresnel - exact| at focus: {worst:.4f} m ({rel:.2%} relative)")
    assert worst < 0.5  # the second-order form holds to decimetres here


def test_fresnel_relative_error_decreases_with_range():
    # spot-check in the region where the expansion applies (r > aperture)
    theta = math.radians(30.0)
    radii = np.geomspace(5.0, 200.0, 10)
    rels = []
    for r in radii:
        p = PolarPoint(float(r), theta)
        worst = max(
            abs(fresnel_element_distance(G64, n, p) - exact_element_distance(G64, n, p))
            / exact_element_distance(G64, n, p)
            for n in range(1, 65)
        )
        rels.append(worst)
    assert all(a > b for a, b in zip(rels, rels[1:]))


def test_rayleigh_distance_defaults():
    # direct arithmetic with c = 299 792 458: D = 63*lambda/2 -> 2 D^2/lambda
    lam = SPEED_OF_LIGHT / 3e9
    expected = 2 * (63 * lam / 2) ** 2 / lam
    assert expected == pytest.approx(198.3127, abs=1e-4)
    assert rayleigh_distance(G64) == pytest.approx(expected, rel=1e-15)


def test_rayleigh_distance_two_elements():
    g = ArrayGeometry(n_antennas=2, carrier_hz=3e9, spacing_m=0.05)
    assert rayleigh_distance(g) == pytest.approx(2 * 0.05**2 / g.wavelength_m, rel=1e-15)


def test_rayleigh_distance_quadruples():
    g1 = ArrayGeometry(n_antennas=9, carrier_hz=3e9)   # N-1 = 8
    g2 = ArrayGeometry(n_antennas=17, carrier_hz=3e9)  # N-1 = 16
    assert rayleigh_distance(g2) == pytest.approx(4 * rayleigh_distance(g1), rel=1e-12)


def test_experiment_cell_is_near_field():
    # the far corner of the default 40 m cell stays inside the Rayleigh distance
    corner = cartesian_to_polar(CartesianPoint(40.0, 40.0))
    assert corner.r_m < rayleigh_distance(G64)
