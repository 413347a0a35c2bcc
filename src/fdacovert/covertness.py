"""KL-divergence covertness budget and the warden detection threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import DomainError


def xi(nu: float) -> float:
    """xi(nu) = nu - ln(1 + nu); strictly increasing on [0, inf), xi(0) = 0.

    Uses log1p so the small-nu regime (xi ~ nu^2/2) keeps full precision.
    """
    if nu < 0:
        raise DomainError(f"xi is defined for nu >= 0, got {nu}")
    return nu - math.log1p(nu)


def xi_inv(y: float) -> float:
    """Inverse of :func:`xi` on [0, inf) by bracketed Newton iteration.

    Seeded with nu0 = sqrt(2 y) + y (exact in both the y->0 and y->inf
    limits); any Newton step leaving the bracket [lo, hi] falls back to
    bisection, so convergence on the monotone function is guaranteed.
    """
    if y < 0:
        raise DomainError(f"xi_inv is defined for y >= 0, got {y}")
    if y == 0.0:
        return 0.0
    lo, hi = 0.0, 2.0 * y + 2.0  # xi(2y+2) >= y for all y >= 0
    nu = math.sqrt(2.0 * y) + y
    for _ in range(100):
        f = xi(nu) - y
        if f > 0:
            hi = nu
        else:
            lo = nu
        dxi = nu / (1.0 + nu)  # xi'(nu)
        step = f / dxi if dxi > 0 else 0.0
        nxt = nu - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - nu) <= 1e-16 * (1.0 + abs(nu)):
            nu = nxt
            break
        nu = nxt
    return nu


def kl_divergence(nu: float, blocklength: int) -> float:
    """D(P0 || P1) = L * xi(nu) for the warden's energy statistic."""
    if blocklength < 1:
        raise DomainError(f"blocklength must be >= 1, got {blocklength}")
    return blocklength * xi(nu)


@dataclass(frozen=True)
class CovertnessBudget:
    """Covertness level and the derived warden-side beam-gain bound.

    threshold_q = (sigma_w^2 / P_t) * xi_inv(2 eps^2 / L): the largest
    |h_w^H w|^2 for which D(P0||P1) <= 2 eps^2 still holds.
    """

    epsilon: float
    blocklength: int
    noise_willie_w: float
    transmit_power_w: float
    threshold_q: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise DomainError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.blocklength < 1:
            raise DomainError(f"blocklength must be >= 1, got {self.blocklength}")
        if self.noise_willie_w <= 0 or self.transmit_power_w <= 0:
            raise DomainError("powers must be > 0")
        q = (self.noise_willie_w / self.transmit_power_w) * xi_inv(
            2.0 * self.epsilon**2 / self.blocklength
        )
        object.__setattr__(self, "threshold_q", q)


def detection_threshold(b: CovertnessBudget) -> float:
    """The beam-gain bound q of the budget."""
    return b.threshold_q


def is_covert_point(gain: float, q: float) -> bool:
    """True when a warden with beam gain `gain` stays undetectable.

    The boundary gain == q is the worst case for the legitimate system and
    is classified non-covert, keeping the non-covert region closed.
    """
    if gain < 0:
        raise DomainError(f"gain must be >= 0, got {gain}")
    return gain < q
