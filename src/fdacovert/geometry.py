"""Array geometry, coordinates and element distances.

Conventions (fixed, validated by tests):
  * the transmit array lies on the y-axis with its first element at the
    origin, element n (1-based) at y = (n-1)*d;
  * theta is measured from the x-axis (broadside) toward the array axis,
    so sin(theta) is the along-array projection and the point
    (r=7.0711 m, theta=45 deg) maps to (x, y) ~ (5, 5) m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in vacuum, m/s."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


@dataclass(frozen=True)
class PolarPoint:
    """Receiver location (r, theta) relative to the array origin.

    r_m > 0 and theta_rad strictly inside (-pi/2, pi/2): the model covers
    the half-plane in front of the array, endfire excluded.
    """

    r_m: float
    theta_rad: float

    def __post_init__(self):
        if not (math.isfinite(self.r_m) and self.r_m > 0):
            raise DomainError(f"r_m must be finite and > 0, got {self.r_m}")
        if not (math.isfinite(self.theta_rad) and abs(self.theta_rad) < math.pi / 2):
            raise DomainError(
                f"theta_rad must lie in (-pi/2, pi/2), got {self.theta_rad}"
            )


@dataclass(frozen=True)
class CartesianPoint:
    """Point (x, y) in metres in the array's plane."""

    x_m: float
    y_m: float

    def __post_init__(self):
        if not (math.isfinite(self.x_m) and math.isfinite(self.y_m)):
            raise DomainError("coordinates must be finite")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear transmit array and its carrier.

    Attributes:
        n_antennas: number of elements N (>= 2).
        carrier_hz: carrier frequency f_c.
        spacing_m: inter-element spacing d, finite and > 0; None (the
            default) means half a carrier wavelength.
        wavelength_m: carrier wavelength, derived.
        aperture_m: array aperture D = (N-1)*d, derived.
    """

    n_antennas: int
    carrier_hz: float
    spacing_m: Optional[float] = None
    wavelength_m: float = field(init=False)
    aperture_m: float = field(init=False)

    def __post_init__(self):
        if self.n_antennas < 2:
            raise DomainError(f"n_antennas must be >= 2, got {self.n_antennas}")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise DomainError(f"carrier_hz must be > 0, got {self.carrier_hz}")
        lam = SPEED_OF_LIGHT / self.carrier_hz
        object.__setattr__(self, "wavelength_m", lam)
        if self.spacing_m is None:
            object.__setattr__(self, "spacing_m", lam / 2.0)
        elif not (math.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise DomainError(f"spacing_m must be finite and > 0, got {self.spacing_m}")
        object.__setattr__(self, "aperture_m", (self.n_antennas - 1) * self.spacing_m)

    def element_y(self, n: int) -> float:
        """y-coordinate of element n (1-based)."""
        self._check_index(n)
        return (n - 1) * self.spacing_m

    def _check_index(self, n: int) -> None:
        if not 1 <= n <= self.n_antennas:
            raise DomainError(
                f"antenna index {n} out of range 1..{self.n_antennas}"
            )


def polar_to_cartesian(p: PolarPoint) -> CartesianPoint:
    """Convert (r, theta) to (x, y) with x = r*cos(theta), y = r*sin(theta)."""
    return CartesianPoint(p.r_m * math.cos(p.theta_rad), p.r_m * math.sin(p.theta_rad))


def cartesian_to_polar(p: CartesianPoint) -> PolarPoint:
    """Inverse of :func:`polar_to_cartesian`; rejects the origin."""
    r = math.hypot(p.x_m, p.y_m)
    if r == 0.0:
        raise DomainError("cannot convert the origin to polar coordinates")
    return PolarPoint(r, math.atan2(p.y_m, p.x_m))


def exact_element_distance(g: ArrayGeometry, n: int, p: PolarPoint) -> float:
    """Euclidean distance from element n to p (brute-force reference)."""
    y_n = g.element_y(n)
    x = p.r_m * math.cos(p.theta_rad)
    y = p.r_m * math.sin(p.theta_rad)
    return math.hypot(x, y - y_n)


def fresnel_element_distance(g: ArrayGeometry, n: int, p: PolarPoint) -> float:
    """Second-order (Fresnel) element distance r + d_n^2 d^2/(2r) - d_n d sin(theta).

    d_n = n-1 is the positional index offset; the first element reproduces
    p.r_m exactly.
    """
    g._check_index(n)
    delta = n - 1
    d = g.spacing_m
    return (
        p.r_m
        + (delta * delta) * (d * d) / (2.0 * p.r_m)
        - delta * d * math.sin(p.theta_rad)
    )


def rayleigh_distance(g: ArrayGeometry) -> float:
    """Near-field/far-field boundary 2*D^2/lambda_c."""
    return 2.0 * g.aperture_m**2 / g.wavelength_m
