"""Construction of the four transmission strategies' frequency plans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .channel import (
    SCHEME_LINEAR,
    SCHEME_LPA,
    SCHEME_OPTIMIZED,
    SCHEME_RANDOM,
    FrequencyPlan,
    _beta_sq,
    _element_phases,
    _Nodes,
    _phase_coefficients,
    _reduce_phase,
)
from .ellipse import anchor_starts, objective_and_gradient, optimize_offsets
from .geometry import (
    ArrayGeometry,
    DomainError,
    PolarPoint,
    polar_to_cartesian,
)

if TYPE_CHECKING:  # fieldmap imports this module
    from .fieldmap import GridSpec

# region refinement of the ellipse optimum (refine_for_region)
_SAMPLE_SPACING_M = 0.4  # spacing of the lattice of grid nodes sampled
_MAX_SCAN = 1 << 21  # lattice node x element pairs scanned, on any grid
_CHUNK = 1 << 16  # node x element pairs scanned at once for nearness
_MAX_SEARCH = 1 << 18  # near-threshold node x element pairs searched
_NEAR_FACTOR = 4.0  # near: value within this factor of the threshold at a start
_START_SCALES = (1.0, 0.25, 0.0)  # search starts, as multiples of the ellipse optimum
_STEPS = 25  # trial steps per start
_WIDTH = 0.25  # sigmoid width in ln(value / threshold)


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
    if not (math.isfinite(f_delta_hz) and f_delta_hz >= 0):
        raise DomainError(f"f_delta_hz must be finite and >= 0, got {f_delta_hz}")
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
    if not (math.isfinite(f_delta_hz) and f_delta_hz >= 0):
        raise DomainError(f"f_delta_hz must be finite and >= 0, got {f_delta_hz}")
    rng = np.random.default_rng(seed)
    k_n = rng.uniform(-g.n_antennas / 2.0, g.n_antennas / 2.0, g.n_antennas)
    return FrequencyPlan(
        offsets_hz=tuple(k_n * f_delta_hz),
        base_increment_hz=f_delta_hz,
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


@dataclass(frozen=True)
class RegionSpec:
    """The grid and threshold whose measured non-covert region a plan shapes.

    threshold_mode and threshold_value mean what they mean to
    fieldmap.extract_noncovert.
    """

    grid: "GridSpec"
    threshold_mode: str
    threshold_value: float


def optimized_fda_plan(
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    seed: int = 0,
    box_half_width_hz: Optional[float] = None,
    region: Optional[RegionSpec] = None,
) -> FrequencyPlan:
    """Offsets in the box that shrink the non-covert region.

    The feasible box is box_half_width(f_delta_hz, box_half_width_hz), which
    also refuses an f_delta_hz that is not finite and > 0.  optimize_offsets
    maximizes the boundary-ellipse objective J by a multi-start search (the
    zero plan, the box-clipped ramp and random interior points drawn with
    seed, which the plan records).  Without a region the plan is that J
    optimum.  With one, J gives the starting point and the floor, and the
    measured region chooses the plan: refine_for_region moves the offsets
    to a plan with fewer non-covert cells on the region's grid whose J
    still dominates the zero plan's and the clipped ramp's.  The plan
    depends only on the arguments.
    """
    box = box_half_width(f_delta_hz, box_half_width_hz)
    offsets = optimize_offsets(g, bob, box, seed=seed).offsets_hz
    if region is not None:
        offsets = refine_for_region(g, bob, box, offsets, region)
    return FrequencyPlan(
        offsets_hz=offsets,
        base_increment_hz=f_delta_hz,
        scheme=SCHEME_OPTIMIZED,
        seed=seed,
    )


class _RegionSample:
    """Grid nodes near the threshold, with the relaxed count of those above it.

    A node's ratio rho = value / threshold is what extract_noncovert
    compares with 1: in fraction mode value is |S|^2 over the focus cell's
    |S|^2 (the focus node rides along as the last row), in kl mode it is
    the warden gain |S|^2 beta^2(r) / N^3, S being the phasor sum.
    Per element n, the carrier phase 2 pi f_c dD_n / c is the map's, from
    _element_phases on the zero-offset plan, and its slope in f_dn,
    2 pi dD_n / c, is that unreduced phase over f_c.  Both are float32
    (sin/cos ~30x faster), as the search only ranks plans.
    """

    def __init__(self, g, bob, x, y, ln_scale, normalized):
        self.x, self.y = x, y
        self.carrier = np.empty((x.size, g.n_antennas), dtype=np.float32)
        self.slope = np.empty_like(self.carrier)
        turns = np.empty(x.shape)
        coeffs = _phase_coefficients(g, lpa_plan(g), bob)
        for n, phase in enumerate(_element_phases(coeffs, _Nodes(x, y))):
            self.slope[:, n] = phase / g.carrier_hz
            self.carrier[:, n] = _reduce_phase(phase, turns)
        self.ln_scale = ln_scale
        self.normalized = normalized

    def _power(self, f):
        phase = self.slope * f.astype(np.float32)
        phase += self.carrier
        cos = np.cos(phase)
        sin = np.sin(phase, out=phase)
        re = cos.sum(axis=1, dtype=np.float64)
        im = sin.sum(axis=1, dtype=np.float64)
        return cos, sin, re, im, np.maximum(re * re + im * im, np.finfo(float).tiny)

    def _ln_ratio(self, power):
        ln_power = np.log(power)
        if self.normalized:
            ln_power = ln_power[:-1] - ln_power[-1]
        return ln_power + self.ln_scale

    def ln_ratio(self, f):
        return self._ln_ratio(self._power(f)[4])

    def evaluate(self, f):
        """(nodes at or above the threshold, relaxed count, its gradient in f).

        The relaxed count sums sigmoid(ln(rho) / _WIDTH).  With P = |S|^2,
        d ln P / d f_n = -2 slope_n (Re S sin z_n - Im S cos z_n) / P.
        """
        cos, sin, re, im, power = self._power(f)
        ln_rho = self._ln_ratio(power)
        soft = 0.5 + 0.5 * np.tanh(0.5 * ln_rho / _WIDTH)
        weight = soft * (1.0 - soft) / _WIDTH  # d soft / d ln(rho)
        if self.normalized:
            weight = np.append(weight, -weight.sum())
        weight /= power
        sin *= (weight * re).astype(np.float32)[:, None]
        cos *= (weight * im).astype(np.float32)[:, None]
        sin -= cos
        sin *= self.slope
        grad = -2.0 * sin.sum(axis=0, dtype=np.float64)
        return int(np.count_nonzero(ln_rho >= 0.0)), float(soft.sum()), grad


def _region_sample(g, bob, starts, region):
    """The _RegionSample of the nodes near the threshold at some start, or None.

    The nodes are a lattice of the region's grid nodes about
    _SAMPLE_SPACING_M apart, coarser where _MAX_SCAN demands it; a node is
    near if its rho lies within _NEAR_FACTOR of 1 for one of the starts.
    None when no node is near, and when the threshold cannot be applied
    (the map paths then refuse the threshold, or a focus in the origin's cell).
    """
    grid, mode, value = region.grid, region.threshold_mode, region.threshold_value
    if mode not in ("fraction", "kl") or not value > 0.0:
        return None
    n = g.n_antennas
    stride = max(
        1,
        round(_SAMPLE_SPACING_M / grid.step_m),
        math.ceil(math.sqrt(grid.n_cells * n / _MAX_SCAN)),
    )
    xs, ys = grid.xs()[::stride], grid.ys()[::stride]
    x, y = np.tile(xs, ys.size), np.repeat(ys, xs.size)
    keep = np.hypot(x, y) > 0.0
    x, y = x[keep], y[keep]
    if mode == "fraction":
        focus = polar_to_cartesian(bob)
        cell = grid.cell_of(focus.x_m, focus.y_m)
        if cell is None:
            return None
        fx, fy = grid.xs()[cell[1]], grid.ys()[cell[0]]
        if math.hypot(fx, fy) == 0.0:
            return None

    def sample(xn, yn):
        if mode == "fraction":
            xn, yn = np.append(xn, fx), np.append(yn, fy)
            ln_scale = -math.log(value)
        else:
            ln_scale = np.log(_beta_sq(g.wavelength_m, np.hypot(xn, yn)) / (n**3 * value))
        return _RegionSample(g, bob, xn, yn, ln_scale, mode == "fraction")

    near = np.zeros(x.size, dtype=bool)
    chunk = max(1, _CHUNK // n)
    for i in range(0, x.size, chunk):
        part = sample(x[i:i + chunk], y[i:i + chunk])
        for f in starts:
            near[i:i + chunk] |= np.abs(part.ln_ratio(f)) <= math.log(_NEAR_FACTOR)
    idx = np.flatnonzero(near)
    if idx.size == 0:
        return None
    idx = idx[:: math.ceil(idx.size * n / _MAX_SEARCH)]
    return sample(x[idx], y[idx])


def refine_for_region(
    g: ArrayGeometry,
    bob: PolarPoint,
    box_half_width_hz: float,
    offsets_hz: tuple,
    region: RegionSpec,
) -> tuple:
    """Offsets in the box with fewer non-covert sample nodes than offsets_hz.

    offsets_hz is the ellipse optimum.  From it, from a quarter of it and
    from the zero plan, projected gradient descent lowers a smooth count of
    the region's non-covert nodes: sigmoid(ln(value / threshold) / _WIDTH)
    summed over _region_sample's nodes.  A step is scaled to the box,
    taken only if it lowers that sum, and grows after a success and shrinks
    after a failure.  Of the iterates whose J dominates J of both
    anchor_starts, the one with the fewest nodes at or above the threshold
    (then the smallest relaxed count) replaces offsets_hz if it has
    strictly fewer such nodes.  Otherwise, and when no node lies near the
    threshold, offsets_hz is returned as it is.
    """
    box = float(box_half_width_hz)
    x_e = np.asarray(offsets_hz, dtype=float)
    starts = [scale * x_e for scale in _START_SCALES]
    sample = _region_sample(g, bob, starts, region)
    if sample is None:
        return offsets_hz
    floor = max(objective_and_gradient(g, bob, s)[0] for s in anchor_starts(g.n_antennas, box))
    ellipse_count, ellipse_relaxed, _ = sample.evaluate(x_e)
    best_key, best = (ellipse_count, ellipse_relaxed), None
    for x in starts:
        count, relaxed, grad = sample.evaluate(x)
        step = 0.5
        for _ in range(_STEPS):
            norm = float(np.max(np.abs(grad)))
            if norm == 0.0:
                break
            x_new = np.clip(x - (step * box / norm) * grad, -box, box)
            trial = sample.evaluate(x_new)
            if trial[1] >= relaxed:
                step *= 0.5
                continue
            x, (count, relaxed, grad) = x_new, trial
            step *= 1.5
            if (count, relaxed) < best_key and objective_and_gradient(g, bob, x)[0] >= floor:
                best_key, best = (count, relaxed), x
    if best is None or best_key[0] >= ellipse_count:
        return offsets_hz
    return tuple(float(v) for v in best)


def build_plan(
    scheme: str,
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    seed: int = 0,
    box_half_width_hz: Optional[float] = None,
    region: Optional[RegionSpec] = None,
) -> FrequencyPlan:
    """Construct the plan for a scheme tag (sweep/CLI convenience).

    seed is the plan's one seed: it draws the RandomFDA offsets and the
    OptimizedFDA solver's random starts, and the other schemes ignore it.
    box_half_width_hz and region only concern OptimizedFDA: given the grid
    and threshold a map will be measured with, the measured region chooses
    its plan (see optimized_fda_plan).
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
