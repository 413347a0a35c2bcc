"""Near-field channels and their grid phase engine, MRT, SNR and the finite-blocklength rate."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    DomainError,
    PolarPoint,
    fresnel_element_distance,
)

TWO_PI = 2.0 * math.pi

SCHEME_LPA = "LPA"
SCHEME_LINEAR = "LinearFDA"
SCHEME_RANDOM = "RandomFDA"
SCHEME_OPTIMIZED = "OptimizedFDA"
SCHEMES = (SCHEME_LPA, SCHEME_LINEAR, SCHEME_RANDOM, SCHEME_OPTIMIZED)


@dataclass(frozen=True)
class FrequencyPlan:
    """Per-antenna frequency offsets and their provenance.

    offsets_hz is stored as an immutable tuple; element n (1-based)
    transmits at f_c + offsets_hz[n-1].
    """

    offsets_hz: tuple
    scheme: str
    seed: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        offs = tuple(float(v) for v in self.offsets_hz)
        if not all(math.isfinite(v) for v in offs):
            raise DomainError(f"frequency offsets must be finite, got {offs}")
        object.__setattr__(self, "offsets_hz", offs)
        if self.scheme == SCHEME_LPA and any(v != 0.0 for v in offs):
            raise DomainError("LPA plan must have all-zero offsets")

    def __len__(self) -> int:
        return len(self.offsets_hz)

    def offsets(self) -> np.ndarray:
        return np.asarray(self.offsets_hz, dtype=float)

    def frequencies_hz(self, g: ArrayGeometry) -> np.ndarray:
        """Absolute per-antenna frequencies f_n = f_c + f_dn."""
        self.check_length(g)
        offs = self.offsets()
        limit = g.carrier_hz / 100.0
        if np.max(np.abs(offs), initial=0.0) > limit:
            warnings.warn(
                "frequency offsets exceed carrier_hz/100; the small-offset "
                "model assumption is strained",
                stacklevel=2,
            )
        return g.carrier_hz + offs

    def check_length(self, g: ArrayGeometry) -> None:
        if len(self.offsets_hz) != g.n_antennas:
            raise DomainError(
                f"plan has {len(self.offsets_hz)} offsets for {g.n_antennas} antennas"
            )


@dataclass(frozen=True)
class ChannelVector:
    """Channel between the array and one point, scaled by 1/N.

    Every entry has magnitude beta(r)/N with beta(r) = lambda_c/(4 pi r)
    (channel_gain_amplitude); the squared norm is beta^2(r)/N.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def __len__(self) -> int:
        return len(self.entries)

    def squared_norm(self) -> float:
        return float(np.vdot(self.entries, self.entries).real)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, Bob's noise level and coding parameters (SI units)."""

    transmit_power_w: float
    noise_bob_w: float
    blocklength: int
    frame_error_prob: float

    def __post_init__(self):
        for name in ("transmit_power_w", "noise_bob_w"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be > 0, got {v}")
        if self.blocklength < 1:
            raise DomainError(f"blocklength must be >= 1, got {self.blocklength}")
        if not 0.0 < self.frame_error_prob < 1.0:
            raise DomainError(
                f"frame_error_prob must lie in (0, 1), got {self.frame_error_prob}"
            )


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise DomainError("power must be > 0 to express in dBm")
    return 10.0 * math.log10(watts) + 30.0


def channel_gain_amplitude(g: ArrayGeometry, r_m: float) -> float:
    """Free-space amplitude gain beta(r) = lambda_c / (4 pi r)."""
    if r_m <= 0:
        raise DomainError(f"r_m must be > 0, got {r_m}")
    return g.wavelength_m / (4.0 * math.pi * r_m)


def wrapped_propagation_phases(
    g: ArrayGeometry, plan: FrequencyPlan, r_m: float, sin_theta: float
) -> np.ndarray:
    """Absolute propagation phases k_n * r_n(r, theta), wrapped to [0, 2*pi).

    The per-point phases of the absolute-phase channel vectors and of
    focus_correlation (so of beampattern_at); wrapping keeps the two routes
    comparable at ~1e-14 despite multi-thousand-radian raw phases.  The
    grid map and the region search form their phases, relative to the
    focus, with _element_phases instead; this is their per-point oracle.
    """
    plan.check_length(g)
    k = TWO_PI * (g.carrier_hz + plan.offsets()) / SPEED_OF_LIGHT
    delta = np.arange(g.n_antennas, dtype=float)
    d = g.spacing_m
    raw = k * r_m + (k * delta * delta) * (d * d / 2.0) / r_m - (k * delta * d) * sin_theta
    return np.remainder(raw, TWO_PI)


def _phase_coefficients(g: ArrayGeometry, plan: FrequencyPlan, bob: PolarPoint):
    """Per element n, (k_n, c1_n, c2_n, ref_n) of its phase relative to the focus.

    At a node (r, theta) the phase is k_n r + c1_n / r - c2_n sin(theta) - ref_n,
    that is k_n times the Fresnel path difference
    (r - r_b) + delta_n^2 d^2/2 (1/r - 1/r_b) - delta_n d (sin(theta) - sin(theta_b)).
    """
    freqs = plan.frequencies_hz(g)  # validates length, warns on huge offsets
    k = TWO_PI * freqs / SPEED_OF_LIGHT
    delta = np.arange(g.n_antennas, dtype=float)
    d = g.spacing_m
    c1 = k * delta * delta * (d * d / 2.0)
    c2 = k * delta * d
    ref = k * bob.r_m + c1 / bob.r_m - c2 * math.sin(bob.theta_rad)
    return k, c1, c2, ref


class _Nodes:
    """r, 1/r and sin(theta) of the grid nodes (x, y); x and y broadcast together."""

    def __init__(self, x, y):
        self.r = np.hypot(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.inv_r = np.divide(1.0, self.r)
            self.sin_t = np.multiply(y, self.inv_r)

    @classmethod
    def of(cls, r, inv_r, sin_t):
        """The nodes whose r, 1/r and sin(theta) are these arrays themselves."""
        nodes = object.__new__(cls)
        nodes.r, nodes.inv_r, nodes.sin_t = r, inv_r, sin_t
        return nodes

    def astype(self, dtype):
        """The same nodes with r, 1/r and sin(theta) rounded to dtype."""
        return _Nodes.of(*(a.astype(dtype) for a in (self.r, self.inv_r, self.sin_t)))


def _element_phases(coeffs, nodes: _Nodes):
    """Each element's phase at the nodes in turn, in one reused buffer of the nodes' dtype.

    The one phase formation of the grid map (fieldmap's value and mask
    paths) and of the region search (schemes._RegionSample).  The phases
    are not reduced (up to thousands of radians); the r = 0 node gets nan
    from 0 * inf, so callers run this under np.errstate(invalid="ignore").
    Coefficients of the nodes' dtype keep every operation in that dtype.
    Coefficients shaped (groups, E, 1), against nodes shaped (1, M), give
    each group's E elements at once, as an (E, M) buffer, with the same
    operations on every value.  The caller may overwrite the buffer
    between yields.
    """
    k, c1, c2, ref = coeffs
    shape = np.broadcast_shapes(np.shape(k[0]), nodes.r.shape)
    phase, tmp = np.empty(shape, dtype=nodes.r.dtype), np.empty(shape, dtype=nodes.r.dtype)
    for n in range(len(k)):
        np.multiply(nodes.r, k[n], out=phase)
        np.multiply(nodes.inv_r, c1[n], out=tmp)
        phase += tmp
        np.multiply(nodes.sin_t, c2[n], out=tmp)
        phase -= tmp
        phase -= ref[n]
        yield phase


def _beta_sq(wavelength_m, r):
    """Free-space power gain beta^2(r) = (lambda / (4 pi r))^2 of the nodes at radii r."""
    return (wavelength_m / (4.0 * math.pi * r)) ** 2


def focus_correlation(
    g: ArrayGeometry, plan: FrequencyPlan, bob: PolarPoint, p: PolarPoint
) -> float:
    """Beamfocusing correlation |sum_n e^{j (phi_n(p) - phi_n(bob))}|^2 at p.

    N^2 at p = bob; the beampattern and the ellipse curvature check are
    both built on it.
    """
    ph = wrapped_propagation_phases(
        g, plan, p.r_m, math.sin(p.theta_rad)
    ) - wrapped_propagation_phases(g, plan, bob.r_m, math.sin(bob.theta_rad))
    return float(np.abs(np.exp(1j * ph).sum()) ** 2)


def element_channel(
    g: ArrayGeometry, n: int, f_n_hz: float, p: PolarPoint
) -> complex:
    """Single-element channel beta(r) * exp(-j k (r_n - r)) at frequency f_n."""
    beta = channel_gain_amplitude(g, p.r_m)
    path = fresnel_element_distance(g, n, p) - p.r_m
    return beta * complex(np.exp(-1j * TWO_PI * f_n_hz / SPEED_OF_LIGHT * path))


def channel_vector(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    p: PolarPoint,
    phase_reference: str = "element",
) -> ChannelVector:
    """Stacked per-element channels with the 1/N factor.

    phase_reference:
        "element"  -- each entry's phase is referenced to the direct path
                      r (the paper's per-receiver normalization); entry 1
                      has zero phase.
        "absolute" -- raw propagation phases; required when channels at
                      different locations are combined in one inner
                      product (beampattern evaluation), because the
                      reference itself is frequency dependent.
    """
    plan.check_length(g)
    beta = channel_gain_amplitude(g, p.r_m)
    sin_t = math.sin(p.theta_rad)
    if phase_reference == "element":
        k = TWO_PI * (g.carrier_hz + plan.offsets()) / SPEED_OF_LIGHT
        delta = np.arange(g.n_antennas, dtype=float)
        d = g.spacing_m
        path = (delta * delta) * (d * d / 2.0) / p.r_m - delta * d * sin_t
        phases = k * path
    elif phase_reference == "absolute":
        phases = wrapped_propagation_phases(g, plan, p.r_m, sin_t)
    else:
        raise DomainError(f"unknown phase_reference {phase_reference!r}")
    entries = (beta / g.n_antennas) * np.exp(-1j * phases)
    return ChannelVector(entries=entries)


def mrt_weights(h_b: ChannelVector) -> np.ndarray:
    """Maximum-ratio-transmission weights h_b / ||h_b||."""
    norm = math.sqrt(h_b.squared_norm())
    if norm == 0.0:
        raise DomainError("cannot form MRT weights from an all-zero channel")
    return h_b.entries / norm


def beam_gain(h_x: ChannelVector, w: np.ndarray) -> float:
    """Received beamforming gain |h_x^H w|^2."""
    if len(h_x) != len(w):
        raise DomainError(f"length mismatch: channel {len(h_x)} vs weights {len(w)}")
    return float(np.abs(np.vdot(h_x.entries, w)) ** 2)


def snr_bob(budget: LinkBudget, h_b: ChannelVector, w: np.ndarray) -> float:
    """Bob's received SNR P_t |h_b^H w|^2 / sigma_b^2."""
    return budget.transmit_power_w * beam_gain(h_b, w) / budget.noise_bob_w


def inverse_q(delta: float) -> float:
    """Inverse of the Gaussian tail function Q, Q^-1(delta) = -Phi^-1(delta)."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return -NormalDist().inv_cdf(delta)


def covert_rate_components(gamma_b: float, blocklength: int, delta: float):
    """(shannon term, backoff term, unclamped rate) of the normal approximation."""
    if gamma_b < 0:
        raise DomainError(f"gamma_b must be >= 0, got {gamma_b}")
    if blocklength < 1:
        raise DomainError(f"blocklength must be >= 1, got {blocklength}")
    shannon = math.log2(1.0 + gamma_b)
    dispersion = gamma_b * (gamma_b + 2.0) / (blocklength * (gamma_b + 1.0) ** 2)
    backoff = math.sqrt(dispersion) * inverse_q(delta) / math.log(2.0)
    return shannon, backoff, shannon - backoff


def covert_rate(gamma_b: float, blocklength: int, delta: float) -> float:
    """Finite-blocklength achievable rate in bits per channel use, floored at 0.

    log2(1+g) - sqrt(g(g+2)/(L(g+1)^2)) * Qinv(delta)/ln 2; the normal
    approximation can go negative for small g*L and a rate cannot.
    """
    return max(0.0, covert_rate_components(gamma_b, blocklength, delta)[2])
