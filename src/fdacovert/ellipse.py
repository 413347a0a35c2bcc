"""Analytic ellipse model of the non-covert boundary and the offset optimizer.

Around the focus point the correlation deficit N^2 - |sum_n e^{j z_n}|^2 is,
to second order in (dr, dtheta), the quadratic form

    g1*dr^2 + 2*g2*dr*dtheta + g3*dtheta^2   =  2 N^2 (1 - q~),

whose level set is an ellipse of area 2 pi N^2 (1-q~) / sqrt(g1 g3 - g2^2)
in mixed (metre x radian) coordinates.  The offset optimizer maximizes
J = g1 g3 - g2^2 (g3 does not depend on the offsets), which minimizes that
area, over the per-antenna box |f_dn| <= box half-width.

J only describes the region near the focus, not its far fan.  An
OptimizedFDA plan built for a grid and threshold therefore takes J's
optimum as its starting point and J of the anchor starts as its floor;
the measured region then chooses the plan (schemes.refine_for_region).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import FrequencyPlan, focus_correlation
from .geometry import SPEED_OF_LIGHT, ArrayGeometry, DomainError, PolarPoint

FOUR_PI_SQ = 4.0 * math.pi**2
_K4 = FOUR_PI_SQ / SPEED_OF_LIGHT**2

_N_RANDOM_STARTS = 8  # the multi-start solver's random starts, after the two anchors


class DegenerateEllipseError(ValueError):
    """The quadratic form does not describe a bounded ellipse."""


class DegenerateGeometryError(ValueError):
    """Endfire focus (cos(theta_b) ~ 0) collapses the angular axis."""


def psi_vector(g: ArrayGeometry, plan: FrequencyPlan, r_b_m: float) -> np.ndarray:
    """psi_n = f_c d^2 delta_n^2 / (2 r_b^2) - f_dn with delta_n = n-1, in Hz."""
    if r_b_m <= 0:
        raise DomainError(f"r_b_m must be > 0, got {r_b_m}")
    plan.check_length(g)
    return _psi(g, plan.offsets(), r_b_m)


def _psi(g: ArrayGeometry, offsets_hz: np.ndarray, r_b_m: float) -> np.ndarray:
    """psi_n for raw offsets; shared by psi_vector and the optimizer's objective."""
    delta = np.arange(g.n_antennas, dtype=float)
    curvature = g.carrier_hz * g.spacing_m**2 / (2.0 * r_b_m**2)
    return curvature * delta * delta - offsets_hz


def _angular_scale(g: ArrayGeometry, bob: PolarPoint) -> float:
    cos_b = math.cos(bob.theta_rad)
    if abs(cos_b) < 1e-12:
        raise DegenerateGeometryError(
            "focus at endfire (|theta_b| = pi/2) has no angular selectivity"
        )
    return g.carrier_hz * g.spacing_m * cos_b


def g_coefficients(g: ArrayGeometry, plan: FrequencyPlan, bob: PolarPoint):
    """(g1, g2, g3) of the boundary quadratic form, evaluated in O(N).

    The pairwise double sums reduce through sum(a_n - a_m)^2 =
    2 N sum(a^2) - 2 (sum a)^2 and its bilinear analogue.
    """
    psi = psi_vector(g, plan, bob.r_m)
    return _g_terms(g, psi, _angular_scale(g, bob))


def _g_terms(g: ArrayGeometry, psi: np.ndarray, kappa: float):
    """(g1, g2, g3) from psi and the angular scale kappa = f_c d cos(theta_b)."""
    n = g.n_antennas
    delta = np.arange(n, dtype=float)
    s_psi = float(psi.sum())
    g1 = _K4 * (2.0 * n * float(psi @ psi) - 2.0 * s_psi**2)
    g2 = _K4 * kappa * (2.0 * n * float(psi @ delta) - 2.0 * s_psi * float(delta.sum()))
    g3 = _K4 * kappa**2 * (n * n * (n * n - 1) / 6.0)
    return g1, g2, g3


def ellipse_area(coeffs, n_antennas: int, q_tilde: float) -> float:
    """Closed-form boundary area 2 pi N^2 (1-q~)/sqrt(g1 g3 - g2^2), m*rad.

    Returns 0.0 for q_tilde >= 1 (threshold at or above the peak: empty
    region); raises for a sign-indefinite form.
    """
    g1, g2, g3 = coeffs
    if q_tilde <= 0:
        raise DomainError(f"q_tilde must be > 0, got {q_tilde}")
    if q_tilde >= 1.0:
        return 0.0
    disc = g1 * g3 - g2 * g2
    if disc <= 0:
        raise DegenerateEllipseError(
            f"g1*g3 - g2^2 = {disc} is not positive; boundary is unbounded"
        )
    return 2.0 * math.pi * n_antennas**2 * (1.0 - q_tilde) / math.sqrt(disc)


def hessian_consistency(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    dr_step: float = 1e-4,
    dtheta_step: float = 1e-6,
) -> float:
    """Max relative deviation between (g1, g2, g3) and the true curvature.

    Central finite differences of the correlation deficit N^2 - F around the
    focus estimate the Hessian [[g1, g2], [g2, g3]]; exact agreement is not
    expected (the closed form drops offset-curvature cross terms), so the
    caller asserts a bound, not zero.
    """
    g1, g2, g3 = g_coefficients(g, plan, bob)
    n2 = float(g.n_antennas**2)
    h, k = dr_step, dtheta_step

    def f(dr, dth):
        p = PolarPoint(bob.r_m + dr, bob.theta_rad + dth)
        return focus_correlation(g, plan, bob, p)

    g1_fd = (2.0 * n2 - f(h, 0.0) - f(-h, 0.0)) / h**2
    g3_fd = (2.0 * n2 - f(0.0, k) - f(0.0, -k)) / k**2
    g2_fd = -(f(h, k) - f(h, -k) - f(-h, k) + f(-h, -k)) / (4.0 * h * k)
    devs = (
        abs(g1_fd - g1) / abs(g1),
        abs(g2_fd - g2) / abs(g2),
        abs(g3_fd - g3) / abs(g3),
    )
    return max(devs)


def objective_and_gradient(
    g: ArrayGeometry, bob: PolarPoint, f_delta_hz: np.ndarray
):
    """J = g1*g3 - g2^2 and its analytic gradient in the offsets.

    d psi_n / d f_dn = -1; with M0 x = N x - sum(x) the chain rule gives
    dJ = -4 k4 g3 M0 psi + 4 k4 kappa g2 M0 delta.
    """
    f = np.asarray(f_delta_hz, dtype=float)
    n = g.n_antennas
    if f.shape != (n,):
        raise DomainError(f"expected {n} offsets, got shape {f.shape}")
    kappa = _angular_scale(g, bob)
    psi = _psi(g, f, bob.r_m)
    g1, g2, g3 = _g_terms(g, psi, kappa)
    delta = np.arange(n, dtype=float)
    m0_psi = n * psi - psi.sum()
    m0_delta = n * delta - delta.sum()
    grad = -4.0 * _K4 * g3 * m0_psi + 4.0 * _K4 * kappa * g2 * m0_delta
    return float(g1 * g3 - g2 * g2), grad


@dataclass(frozen=True)
class OptimizeResult:
    offsets_hz: tuple
    objective: float
    start_index: int


def _search_from(g, bob, x0, box):
    """One projected-gradient step from clip(x0), then a greedy vertex search.

    The step moves box / max|grad| along the gradient and is kept if J
    rises.  J is convex in the offsets (its Hessian is psd by the
    Cauchy-Schwarz inequality in the M0 seminorm), so J(x + m) >= J(x) +
    grad.m, and grad.m > 0 for any move m the projected step makes: a
    shorter step is guaranteed less, so none is tried.  Convexity also puts
    every maximizer over the box at a vertex, so the kept point is snapped
    to the nearest one (a zero coordinate takes its gradient's sign) and
    single coordinates are flipped while J rises.  Returns the better of the
    kept point and that vertex, with its J.
    """
    x = np.clip(np.asarray(x0, dtype=float), -box, box)
    j, grad = objective_and_gradient(g, bob, x)
    gmax = float(np.max(np.abs(grad)))
    x_step = np.clip(x + (box / gmax if gmax > 0 else box) * grad, -box, box)
    j_step, grad_step = objective_and_gradient(g, bob, x_step)
    if j_step > j:
        x, j, grad = x_step, j_step, grad_step
    v = box * np.where(x != 0.0, np.sign(x), np.where(grad >= 0, 1.0, -1.0))
    jv = objective_and_gradient(g, bob, v)[0]
    improved = True
    while improved:
        improved = False
        for i in range(len(v)):
            v[i] = -v[i]
            j_flip = objective_and_gradient(g, bob, v)[0]
            if j_flip > jv:
                jv = j_flip
                improved = True
            else:
                v[i] = -v[i]
    return (v, jv) if jv > j else (x, j)


def anchor_starts(n_antennas: int, box_half_width_hz: float) -> list:
    """The solver's two fixed starts: the zero plan and the clipped ramp.

    The ramp is centred with increment 2*box and clipped to the box; at the
    default box F/2 it is exactly the box-clipped LinearFDA plan.  The
    optimum's J dominates both, and so must any plan chosen in its place.
    """
    n, box = n_antennas, float(box_half_width_hz)
    ramp = ((n + 1) / 2.0 - np.arange(1, n + 1)) * (2.0 * box)
    return [np.zeros(n), np.clip(ramp, -box, box)]


def optimize_offsets(
    g: ArrayGeometry,
    bob: PolarPoint,
    box_half_width_hz: float,
    seed: int = 0,
) -> OptimizeResult:
    """Maximize J over the box by a multi-start search; return the best point.

    Start set: the two anchor_starts (start 0 the zero plan, start 1 the
    clipped ramp), then 8 interior points drawn uniformly from the box by
    PCG64 seeded with seed (schemes.build_plan passes a plan's one seed,
    which also draws a RandomFDA plan).  Each start takes one
    projected-gradient step, then a greedy vertex search (J is convex, so
    its maxima over the box lie at vertices).  Ties keep the lowest start
    index, so results are reproducible for a fixed seed, and the returned
    objective dominates the zero plan's.  N = 2 is refused: J is
    identically 0 there.
    """
    if g.n_antennas < 3:  # g1*g3 = g2^2 for every plan at N = 2
        raise DomainError(f"n_antennas must be >= 3 for J to rank plans, got {g.n_antennas}")
    if box_half_width_hz <= 0:
        raise DomainError(f"box_half_width_hz must be > 0, got {box_half_width_hz}")
    n = g.n_antennas
    box = float(box_half_width_hz)
    rng = np.random.default_rng(seed)
    starts = anchor_starts(n, box)
    starts += [rng.uniform(-box, box, n) for _ in range(_N_RANDOM_STARTS)]

    best = None
    for idx, x0 in enumerate(starts):
        x, j = _search_from(g, bob, x0, box)
        if best is None or j > best.objective:
            best = OptimizeResult(tuple(float(v) for v in x), j, start_index=idx)
    return best
