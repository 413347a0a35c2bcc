"""Construction of the four transmission strategies' frequency plans."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .channel import (
    SCHEME_LINEAR,
    SCHEME_LPA,
    SCHEME_OPTIMIZED,
    SCHEME_RANDOM,
    FrequencyPlan,
)
from .ellipse import OptimizerConfig, OptimizeResult, optimize_offsets
from .geometry import ArrayGeometry, DomainError, PolarPoint


class SolverDidNotConverge(RuntimeError):
    """Optimizer hit its iteration cap; carries the best iterate found."""

    def __init__(self, result: OptimizeResult):
        super().__init__(
            f"offset solver hit the iteration cap (best objective {result.objective})"
        )
        self.result = result


def lpa_plan(g: ArrayGeometry) -> FrequencyPlan:
    """All elements on the carrier: zero offsets."""
    return FrequencyPlan(
        offsets_hz=(0.0,) * g.n_antennas, base_increment_hz=0.0, scheme=SCHEME_LPA
    )


def linear_fda_plan(g: ArrayGeometry, f_delta_hz: float) -> FrequencyPlan:
    """Offsets stepping by f_delta_hz per element, centred on the array.

    The increments descend along the element axis (element 1 at the origin
    carries +((N-1)/2)*F, element N carries -((N-1)/2)*F): with the array on
    +y and the focus in the first quadrant this orientation steers the
    range-coupled beam toward broadside and shrinks the non-covert region,
    matching the reported behaviour; the mirrored orientation enlarges it.
    Offsets sum to zero; f_delta_hz = 0 reduces to the LPA plan.
    """
    if f_delta_hz < 0:
        raise DomainError(f"f_delta_hz must be >= 0, got {f_delta_hz}")
    n = np.arange(1, g.n_antennas + 1, dtype=float)
    offsets = ((g.n_antennas + 1) / 2.0 - n) * f_delta_hz
    return FrequencyPlan(
        offsets_hz=tuple(offsets),
        base_increment_hz=f_delta_hz,
        scheme=SCHEME_LPA if f_delta_hz == 0.0 else SCHEME_LINEAR,
    )


def random_fda_plan(g: ArrayGeometry, f_delta_hz: float, seed: int) -> FrequencyPlan:
    """Offsets k_n * f_delta_hz with k_n ~ U(-N/2, N/2), PCG64-seeded.

    The same seed reproduces the same plan bit for bit on any platform;
    the total spanned bandwidth is N * f_delta_hz.
    """
    if f_delta_hz < 0:
        raise DomainError(f"f_delta_hz must be >= 0, got {f_delta_hz}")
    rng = np.random.default_rng(seed)
    k_n = rng.uniform(-g.n_antennas / 2.0, g.n_antennas / 2.0, g.n_antennas)
    return FrequencyPlan(
        offsets_hz=tuple(k_n * f_delta_hz),
        base_increment_hz=f_delta_hz,
        scheme=SCHEME_RANDOM,
        seed=seed,
    )


def box_half_width(f_delta_hz: float, box_half_width_hz: Optional[float] = None) -> float:
    """The optimizer's per-antenna box |f_dn| <= f_delta_hz/2, unless overridden."""
    return f_delta_hz / 2.0 if box_half_width_hz is None else box_half_width_hz


def optimized_fda_plan(
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    solver: OptimizerConfig = OptimizerConfig(),
    box_half_width_hz: Optional[float] = None,
) -> FrequencyPlan:
    """Offsets maximizing the boundary-ellipse objective over the box.

    The feasible box defaults to |f_dn| <= f_delta_hz/2; box_half_width_hz
    overrides it for exploration.  optimize_offsets owns the start set: the
    zero plan, the centred ramp with increment 2*box clipped to the box (the
    box-clipped LinearFDA plan at the default box) and seeded random interior
    points.  The returned objective therefore dominates the LPA plan's and,
    at the default box, the box-clipped LinearFDA plan's.
    """
    if f_delta_hz <= 0:
        raise DomainError(f"f_delta_hz must be > 0, got {f_delta_hz}")
    box = box_half_width(f_delta_hz, box_half_width_hz)
    result = optimize_offsets(g, bob, box, config=solver)
    if not result.converged:
        raise SolverDidNotConverge(result)
    return FrequencyPlan(
        offsets_hz=result.offsets_hz,
        base_increment_hz=f_delta_hz,
        scheme=SCHEME_OPTIMIZED,
        seed=solver.seed,
    )


def build_plan(
    scheme: str,
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    seed: int = 0,
    solver: OptimizerConfig = OptimizerConfig(),
    box_half_width_hz: Optional[float] = None,
) -> FrequencyPlan:
    """Construct the plan for a scheme tag (sweep/CLI convenience)."""
    if scheme == SCHEME_LPA:
        return lpa_plan(g)
    if scheme == SCHEME_LINEAR:
        return linear_fda_plan(g, f_delta_hz)
    if scheme == SCHEME_RANDOM:
        return random_fda_plan(g, f_delta_hz, seed)
    if scheme == SCHEME_OPTIMIZED:
        return optimized_fda_plan(
            g, bob, f_delta_hz, solver=solver, box_half_width_hz=box_half_width_hz
        )
    raise DomainError(f"unknown scheme {scheme!r}")
