"""Construction of the four transmission strategies' frequency plans."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .channel import (
    SCHEME_LINEAR,
    SCHEME_LPA,
    SCHEME_OPTIMIZED,
    SCHEME_RANDOM,
    FrequencyPlan,
)
from .ellipse import optimize_offsets
from .geometry import ArrayGeometry, DomainError, PolarPoint


def lpa_plan(g: ArrayGeometry) -> FrequencyPlan:
    """All elements on the carrier: zero offsets."""
    return FrequencyPlan(offsets_hz=(0.0,) * g.n_antennas, scheme=SCHEME_LPA)


def linear_fda_plan(g: ArrayGeometry, f_delta_hz: float) -> FrequencyPlan:
    """Offsets stepping by f_delta_hz per element, centred on the array.

    The increments descend along the element axis (element 1 at the origin
    carries +((N-1)/2)*F, element N carries -((N-1)/2)*F): with the array on
    +y and the focus in the first quadrant this orientation steers the
    range-coupled beam toward broadside and shrinks the non-covert region,
    matching the reported behaviour; the mirrored orientation enlarges it.
    Offsets sum to zero; f_delta_hz = 0 reduces to the LPA plan.
    """
    if not (math.isfinite(f_delta_hz) and f_delta_hz >= 0):
        raise DomainError(f"f_delta_hz must be finite and >= 0, got {f_delta_hz}")
    n = np.arange(1, g.n_antennas + 1, dtype=float)
    offsets = ((g.n_antennas + 1) / 2.0 - n) * f_delta_hz
    return FrequencyPlan(
        offsets_hz=tuple(offsets),
        scheme=SCHEME_LPA if f_delta_hz == 0.0 else SCHEME_LINEAR,
    )


def random_fda_plan(g: ArrayGeometry, f_delta_hz: float, seed: int) -> FrequencyPlan:
    """Offsets k_n * f_delta_hz with k_n ~ U(-N/2, N/2), PCG64-seeded.

    The same seed reproduces the same plan bit for bit on any platform;
    the total spanned bandwidth is N * f_delta_hz.
    """
    if not (math.isfinite(f_delta_hz) and f_delta_hz >= 0):
        raise DomainError(f"f_delta_hz must be finite and >= 0, got {f_delta_hz}")
    rng = np.random.default_rng(seed)
    k_n = rng.uniform(-g.n_antennas / 2.0, g.n_antennas / 2.0, g.n_antennas)
    return FrequencyPlan(
        offsets_hz=tuple(k_n * f_delta_hz),
        scheme=SCHEME_RANDOM,
        seed=seed,
    )


def box_half_width(f_delta_hz: float, box_half_width_hz: Optional[float] = None) -> float:
    """The optimizer's per-antenna box |f_dn| <= f_delta_hz/2, unless overridden.

    f_delta_hz, the OptimizedFDA plan's base increment, must be finite and
    > 0 even when the box is overridden; optimized_fda_plan and the optimize
    subcommand both check it here.
    """
    if not (math.isfinite(f_delta_hz) and f_delta_hz > 0):
        raise DomainError(f"f_delta_hz must be finite and > 0, got {f_delta_hz}")
    return f_delta_hz / 2.0 if box_half_width_hz is None else box_half_width_hz


def optimized_fda_plan(
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    seed: int = 0,
    box_half_width_hz: Optional[float] = None,
    region=None,
) -> FrequencyPlan:
    """Offsets in the box that shrink the non-covert region.

    The feasible box is box_half_width(f_delta_hz, box_half_width_hz), which
    also refuses an f_delta_hz that is not finite and > 0.  optimize_offsets
    maximizes the boundary-ellipse objective J by a multi-start search (the
    zero plan, the box-clipped ramp and random interior points drawn with
    seed, which the plan records).  Without a region the plan is that J
    optimum.  With one, a fieldmap.RegionSpec, J gives a starting point and
    the floor, and the measured region chooses the plan: region.refine sets
    one offset at a time to -box, 0 or +box, from J's optimum and from the
    zero plan, while that lowers the non-covert cells of a sample of the
    region's grid and J still dominates the zero plan's and the clipped
    ramp's.  It refuses the thresholds and focus that the map paths refuse.
    The plan depends only on the arguments.
    """
    box = box_half_width(f_delta_hz, box_half_width_hz)
    offsets = optimize_offsets(g, bob, box, seed=seed).offsets_hz
    if region is not None:
        offsets = region.refine(g, bob, box, offsets)
    return FrequencyPlan(
        offsets_hz=offsets,
        scheme=SCHEME_OPTIMIZED,
        seed=seed,
    )


def build_plan(
    scheme: str,
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    seed: int = 0,
    box_half_width_hz: Optional[float] = None,
    region=None,
) -> FrequencyPlan:
    """Construct the plan for a scheme tag (sweep/CLI convenience).

    seed is the plan's one seed: it draws the RandomFDA offsets and the
    OptimizedFDA solver's random starts, and the other schemes ignore it.
    box_half_width_hz and region only concern OptimizedFDA: given the grid
    and threshold a map will be measured with (a fieldmap.RegionSpec), the
    measured region chooses its plan (see optimized_fda_plan).
    """
    if scheme == SCHEME_LPA:
        return lpa_plan(g)
    if scheme == SCHEME_LINEAR:
        return linear_fda_plan(g, f_delta_hz)
    if scheme == SCHEME_RANDOM:
        return random_fda_plan(g, f_delta_hz, seed)
    if scheme == SCHEME_OPTIMIZED:
        return optimized_fda_plan(
            g, bob, f_delta_hz, seed=seed, box_half_width_hz=box_half_width_hz,
            region=region,
        )
    raise DomainError(f"unknown scheme {scheme!r}")
