"""Grid evaluation of beampatterns, non-covert region extraction and sweeps.

FieldMap values are the beamfocusing correlation |sum_n e^{j z_n}|^2 / N^2
(the beampattern divided by its free-space gain envelope beta^2(r) beta^2(r_b)),
normalized so the cell containing the focus reads exactly 1.  The fractional
threshold mode operates on these values; the absolute ("kl") mode applies the
detection threshold q to the warden's physical beam gain |h_w^H w|^2, which
re-includes the per-cell beta(r).

Two paths form phases with channel._element_phases, as the region search does:
- the float64 value path, evaluate_grid and extract_noncovert, gives every
  cell's value; heatmap prints it, and it is the oracle of the mask path;
- the certified mask path, noncovert_region, gives only each cell's side of
  the threshold, from float32 sin/cos plus a float64 recompute of the cells
  within the float32 error bound of it, so its mask equals the value
  path's cell for cell.  region, sweep and monte_carlo_rate use it.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channel import (
    SCHEME_RANDOM,
    FrequencyPlan,
    LinkBudget,
    _beta_sq,
    _element_phases,
    _Nodes,
    _phase_coefficients,
    _reduce_phase,
    channel_gain_amplitude,
    channel_vector,
    covert_rate,
    focus_correlation,
    mrt_weights,
    snr_bob,
)
from .geometry import (
    ArrayGeometry,
    DomainError,
    PolarPoint,
    polar_to_cartesian,
    rayleigh_distance,
)
from .schemes import RegionSpec, build_plan

THREADS_ENV_VAR = "FDACOVERT_THREADS"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid sampled at nodes x_min + i*step."""

    x_min_m: float
    x_max_m: float
    y_min_m: float
    y_max_m: float
    step_m: float
    max_cells: int = 10_000_000

    def __post_init__(self):
        extents = (self.x_min_m, self.x_max_m, self.y_min_m, self.y_max_m)
        if not all(math.isfinite(v) for v in extents):
            raise DomainError(f"grid extents must be finite, got {extents}")
        if not (self.x_max_m > self.x_min_m and self.y_max_m > self.y_min_m):
            raise DomainError("grid extents must satisfy max > min on both axes")
        if not (math.isfinite(self.step_m) and self.step_m > 0):
            raise DomainError(f"step_m must be finite and > 0, got {self.step_m}")
        if self.n_cells > self.max_cells:
            raise DomainError(
                f"grid has {self.n_cells} cells, exceeding the cap {self.max_cells}"
            )

    @property
    def n_x(self) -> int:
        return int(math.floor((self.x_max_m - self.x_min_m) / self.step_m + 1e-9)) + 1

    @property
    def n_y(self) -> int:
        return int(math.floor((self.y_max_m - self.y_min_m) / self.step_m + 1e-9)) + 1

    @property
    def n_cells(self) -> int:
        return self.n_x * self.n_y

    def xs(self) -> np.ndarray:
        return self.x_min_m + self.step_m * np.arange(self.n_x)

    def ys(self) -> np.ndarray:
        return self.y_min_m + self.step_m * np.arange(self.n_y)

    def cell_of(self, x_m: float, y_m: float):
        """(iy, ix) of the cell whose node is nearest to (x, y)."""
        ix = int(round((x_m - self.x_min_m) / self.step_m))
        iy = int(round((y_m - self.y_min_m) / self.step_m))
        if 0 <= ix < self.n_x and 0 <= iy < self.n_y:
            return iy, ix
        return None


@dataclass
class FieldMap:
    """Normalized correlation values on a grid plus the extracted mask."""

    spec: GridSpec
    values: np.ndarray
    mask: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RegionResult:
    mask: np.ndarray
    n_noncovert: int
    area_m2: float
    area_fraction: float


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    value: float
    mean_area_fraction: float
    std_area_fraction: float
    mean_area_m2: float
    n_seeds: int


@dataclass(frozen=True)
class RateResult:
    mean_rate: float
    std_error: float
    point_rate: float
    area_fraction: float
    n_samples: int
    n_covert: int


def resolve_threads(n_threads: Optional[int] = None) -> int:
    if n_threads is not None:
        return max(1, n_threads)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer {THREADS_ENV_VAR}={env!r}")
    return min(4, os.cpu_count() or 1)


def beampattern_at(
    g: ArrayGeometry, plan: FrequencyPlan, bob: PolarPoint, p: PolarPoint
) -> float:
    """Beampattern |beta(r) beta(r_b)/N * sum_n e^{j k_n (r_n(p) - r_n(bob))}|^2.

    Exactly N * beta^2(r_b) times the warden beam gain |h_p^H w_b|^2 computed
    from absolute-phase channel vectors; tests assert the two routes agree.
    """
    scale = channel_gain_amplitude(g, p.r_m) * channel_gain_amplitude(g, bob.r_m)
    return float((scale / g.n_antennas) ** 2 * focus_correlation(g, plan, bob, p))


def _power(acc_re, acc_im, n_antennas):
    """|S|^2 / N^2 from the phasor sum S = acc_re + j acc_im, in acc_re's buffer."""
    acc_re *= acc_re
    acc_im *= acc_im
    acc_re += acc_im
    acc_re /= n_antennas**2
    return acc_re


def _correlation_block(coeffs, x, y):
    """Raw correlation |sum_n e^{j phase_n}|^2 / N^2 at the nodes (x, y): the value path.

    float64 sin/cos on the unreduced phases, accumulated in float64; this
    agrees with the per-point oracle, which reduces mod 2 pi, to ~1e-12
    relative.  Every operation is elementwise, so a row block of the grid
    and any gathered subset of its nodes get bit-identical values.  The
    r = 0 node is nan.
    """
    nodes = _Nodes(x, y)
    trig = np.empty(nodes.r.shape)
    acc_re = np.zeros(nodes.r.shape)
    acc_im = np.zeros(nodes.r.shape)
    with np.errstate(invalid="ignore"):
        for phase in _element_phases(coeffs, nodes):
            np.cos(phase, out=trig)
            acc_re += trig
            np.sin(phase, out=trig)
            acc_im += trig
    return _power(acc_re, acc_im, coeffs[0].size)


# The float32 kernel's error bound, in ulps of numpy's float32 sin and cos as
# validated by numpy's umath-validation-set-{sin,cos}.csv, and its safety factor.
_TRIG_ULPS = 2
_SAFETY = 2.0


def _float32_block(coeffs, nodes: _Nodes):
    """(raw32, bound): the raw correlation via float32 sin/cos, and how far it may be off.

    Each phase, formed in float64 as in _correlation_block, is reduced by
    _reduce_phase to phase - 2 pi rint(phase / 2 pi), cast to float32 for
    sin and cos, and the terms are accumulated in float64.  With
    eps = float32 eps = 2^-23, per term e^{j phase_n} is off by at most
        delta = 2 sqrt(2) eps           (2 ulps, of at most eps, in cos and sin)
              + 2 eps                   (the cast of a |phase| < 4)
              + eps64 (max|phase| + 6)  (the float64 reduction),
    with max|phase| bounded over the block from max r and max 1/r.  So
    |S32 - S64| / N <= delta, and since |S| <= N,
    |raw32 - raw64| <= 2 delta + delta^2; float64 trig, accumulation and
    squaring in both paths add 8 (N + 4) eps64.  bound is that sum, ~1.2e-6
    for grids within a few hundred wavelengths; _mask_block recomputes
    within _SAFETY = 2 times it.  The largest error measured on the default
    maps is ~2e-8.
    """
    k, c1, c2, ref = coeffs
    shape = nodes.r.shape
    turns = np.empty(shape)
    phase32 = np.empty(shape, dtype=np.float32)
    trig = np.empty(shape, dtype=np.float32)
    acc_re = np.zeros(shape)
    acc_im = np.zeros(shape)
    with np.errstate(invalid="ignore"):
        for phase in _element_phases(coeffs, nodes):
            phase32[...] = _reduce_phase(phase, turns)  # in the generator's buffer
            np.cos(phase32, out=trig)
            acc_re += trig
            np.sin(phase32, out=trig)
            acc_im += trig
    max_phase = (
        np.max(np.abs(k)) * np.max(nodes.r)
        + np.max(np.abs(c1)) * np.max(nodes.inv_r, where=nodes.r > 0.0, initial=0.0)
        + np.max(np.abs(c2)) + np.max(np.abs(ref))
    )
    eps, eps64 = float(np.finfo(np.float32).eps), float(np.finfo(float).eps)
    delta = math.sqrt(2.0) * _TRIG_ULPS * eps + 2.0 * eps + eps64 * (max_phase + 6.0)
    bound = 2.0 * delta + delta * delta + 8.0 * (k.size + 4) * eps64
    return _power(acc_re, acc_im, k.size), bound


def _mask_block(coeffs, x, y, cut, decide):
    """Non-covert mask at the nodes (x, y): the certified mask path.

    cut(r) is the threshold in raw units at radius r.  A node whose float32
    raw value lies more than _SAFETY times the _float32_block bound from cut
    is on the side the float64 value would put it; decide(x, y) settles the
    others from their float64 values.  No float64 value array outlives the
    block.
    """
    nodes = _Nodes(x, y)
    raw, bound = _float32_block(coeffs, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        threshold = cut(nodes.r)
        mask = raw >= threshold
        raw -= threshold
        near = np.nonzero(np.abs(raw, out=raw) <= _SAFETY * bound)
    if near[0].size:
        shape = nodes.r.shape
        mask[near] = decide(np.broadcast_to(x, shape)[near], np.broadcast_to(y, shape)[near])
    return mask


def _run_row_blocks(spec: GridSpec, n_threads: Optional[int], fill) -> None:
    """fill(i0, i1) for each block of grid rows, on a thread pool.

    The blocks are disjoint, so the result is the same for any thread count.
    """
    threads = resolve_threads(n_threads)
    block_rows = max(16, spec.n_y // (threads * 8) or 16)
    starts = range(0, spec.n_y, block_rows)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda i0: fill(i0, min(spec.n_y, i0 + block_rows)), starts))


def _focus_normalizer(coeffs, bob: PolarPoint, spec: GridSpec):
    """(focus cell, its raw correlation), by which every value is normalized.

    (None, 1.0) with a warning when the focus lies outside the grid, and
    DomainError when it shares the origin's cell.
    """
    bob_xy = polar_to_cartesian(bob)
    bob_cell = spec.cell_of(bob_xy.x_m, bob_xy.y_m)
    if bob_cell is None:
        warnings.warn("focus point lies outside the grid; peak normalization skipped")
        return None, 1.0
    iy, ix = bob_cell
    normalizer = float(
        _correlation_block(coeffs, spec.xs()[ix:ix + 1], spec.ys()[iy:iy + 1])[0]
    )
    if not (math.isfinite(normalizer) and normalizer > 0.0):
        raise DomainError(
            f"focus cell {bob_cell} has correlation {normalizer}; the focus "
            "must not share the origin's grid cell"
        )
    return bob_cell, normalizer


def _beyond_rayleigh(g: ArrayGeometry, spec: GridSpec) -> bool:
    """Whether the grid reaches past the Rayleigh distance, with a warning if so."""
    corner_r = max(
        math.hypot(x, y)
        for x in (spec.x_min_m, spec.x_max_m)
        for y in (spec.y_min_m, spec.y_max_m)
    )
    exceeds = corner_r >= rayleigh_distance(g)
    if exceeds:
        warnings.warn(
            "grid extends beyond the Rayleigh distance; the near-field model "
            "is extrapolated there"
        )
    return exceeds


def evaluate_grid(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    spec: GridSpec,
    n_threads: Optional[int] = None,
) -> FieldMap:
    """Normalized beampattern correlation on every grid cell: the value path.

    Cell (iy, ix) holds the value at node (x_i, y_i); the r = 0 node (the
    array origin) is flagged invalid as NaN, so a focus within step/2 of the
    origin leaves nothing to normalize by and raises DomainError.  Row
    blocks are evaluated in parallel with disjoint writes, so the result is
    identical for any thread count.
    """
    coeffs = _phase_coefficients(g, plan, bob)
    bob_cell, normalizer = _focus_normalizer(coeffs, bob, spec)
    xs, ys = spec.xs(), spec.ys()
    values = np.empty((spec.n_y, spec.n_x))

    def fill(i0, i1):
        values[i0:i1] = _correlation_block(coeffs, xs[None, :], ys[i0:i1, None])

    _run_row_blocks(spec, n_threads, fill)
    if bob_cell is not None:
        values /= normalizer

    meta = {
        "scheme": plan.scheme,
        "n_antennas": g.n_antennas,
        "wavelength_m": g.wavelength_m,
        "bob_cell": bob_cell,
        "bob_cell_raw_correlation": normalizer,
        "grid_exceeds_rayleigh": _beyond_rayleigh(g, spec),
    }
    return FieldMap(spec=spec, values=values, metadata=meta)


def _check_threshold(threshold_mode: str, threshold_value: float, bob_cell) -> None:
    if threshold_mode == "fraction":
        if not 0.0 < threshold_value <= 1.0:
            raise DomainError(
                f"fractional threshold must lie in (0, 1], got {threshold_value}"
            )
        if bob_cell is None:
            raise DomainError(
                "a fractional threshold needs the focus on the grid to normalize "
                "by; use the kl threshold mode or a grid that contains the focus"
            )
    elif threshold_mode == "kl":
        if not threshold_value > 0:
            raise DomainError(f"q must be > 0, got {threshold_value}")
    else:
        raise DomainError(f"unknown threshold mode {threshold_mode!r}")


def _non_covert(values, threshold_mode, threshold_value, ref, wavelength_m, n_antennas, r):
    """extract_noncovert's predicate on normalized values at radii r.

    kl mode compares the warden gain value * ref * beta^2(r) / N with q and
    excludes the r = 0 node.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if threshold_mode == "fraction":
            return values >= threshold_value
        gain = values * ref * _beta_sq(wavelength_m, r) / n_antennas
        mask = gain >= threshold_value
    mask[r == 0.0] = False
    return mask


def _region_result(spec: GridSpec, mask) -> RegionResult:
    count = int(np.count_nonzero(mask))
    return RegionResult(
        mask=mask,
        n_noncovert=count,
        area_m2=count * spec.step_m**2,
        area_fraction=count / spec.n_cells,
    )


def extract_noncovert(
    fmap: FieldMap, threshold_mode: str = "fraction", threshold_value: float = 0.1
) -> RegionResult:
    """Boolean non-covert mask, its cell-counted area and area fraction.

    fraction mode: non-covert where value >= threshold_value (0 < t <= 1).
    The fraction is of the focus cell's value, so a focus off the grid
    (map left unnormalized) raises DomainError.
    kl mode: threshold_value is the detection threshold q applied to the
    warden beam gain |h_w^H w|^2 = value * ref * beta^2(r_cell) / N.
    Threshold equality is non-covert (closed region).  The mask is stored
    back onto the FieldMap.
    """
    spec, meta = fmap.spec, fmap.metadata
    _check_threshold(threshold_mode, threshold_value, meta["bob_cell"])
    r = np.hypot(spec.xs()[None, :], spec.ys()[:, None]) if threshold_mode == "kl" else None
    mask = _non_covert(
        fmap.values, threshold_mode, threshold_value, meta["bob_cell_raw_correlation"],
        meta["wavelength_m"], meta["n_antennas"], r,
    )
    fmap.mask = mask
    return _region_result(spec, mask)


def noncovert_region(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    spec: GridSpec,
    threshold_mode: str = "fraction",
    threshold_value: float = 0.1,
    n_threads: Optional[int] = None,
) -> RegionResult:
    """extract_noncovert(evaluate_grid(...)) without the map: the certified mask path.

    Areas, sweeps and rates need each cell's side of the threshold, not
    its value.  Per row block, every cell is compared in raw units
    (|S|^2 / N^2) with the threshold: t times the focus cell's raw value
    (fraction mode) or q N / beta^2(r) (kl mode).  The raw value comes from
    float32 sin/cos, ~30x cheaper than float64, and every cell within the
    derived error bound of the threshold (see _float32_block) is recomputed
    in float64 and put through extract_noncovert's own predicate.  The
    focus cell's normalizer is the float64 kernel's value.  So the mask
    equals the value path's cell for cell, and only a bool mask is ever
    allocated for the whole grid.  Warnings and errors are evaluate_grid's
    and extract_noncovert's.
    """
    coeffs = _phase_coefficients(g, plan, bob)
    bob_cell, normalizer = _focus_normalizer(coeffs, bob, spec)
    _beyond_rayleigh(g, spec)
    _check_threshold(threshold_mode, threshold_value, bob_cell)
    n, lam = g.n_antennas, g.wavelength_m
    if threshold_mode == "fraction":
        raw_cut = threshold_value * normalizer

        def cut(r):
            return raw_cut
    else:

        def cut(r):
            return threshold_value * n / _beta_sq(lam, r)

    def decide(x, y):
        values = _correlation_block(coeffs, x, y) / normalizer
        return _non_covert(
            values, threshold_mode, threshold_value, normalizer, lam, n, np.hypot(x, y)
        )

    xs, ys = spec.xs(), spec.ys()
    mask = np.empty((spec.n_y, spec.n_x), dtype=bool)

    def fill(i0, i1):
        mask[i0:i1] = _mask_block(coeffs, xs[None, :], ys[i0:i1, None], cut, decide)

    _run_row_blocks(spec, n_threads, fill)
    return _region_result(spec, mask)


def float32_error(g: ArrayGeometry, plan: FrequencyPlan, bob: PolarPoint, spec: GridSpec):
    """(max |raw32 - raw64| over a small grid, the bound noncovert_region assumes for it).

    The bound rests on numpy's float32 sin/cos being accurate to _TRIG_ULPS
    ulps; this measures whether the installed numpy keeps it.  The grid is
    evaluated as one block.
    """
    coeffs = _phase_coefficients(g, plan, bob)
    x, y = spec.xs()[None, :], spec.ys()[:, None]
    raw32, bound = _float32_block(coeffs, _Nodes(x, y))
    return float(np.nanmax(np.abs(raw32 - _correlation_block(coeffs, x, y)))), bound


def sweep(
    parameter: str,
    values: Sequence[float],
    scheme_names: Sequence[str],
    g: ArrayGeometry,
    bob: PolarPoint,
    f_delta_hz: float,
    grid: GridSpec,
    seeds: Sequence[int] = (0,),
    threshold_mode: str = "fraction",
    threshold_value: float = 0.1,
    seed: int = 0,
    box_half_width_hz: Optional[float] = None,
) -> list:
    """Area fractions versus antenna count or frequency increment.

    parameter "n_antennas" rebuilds the array per value (spacing kept at
    half the carrier wavelength); "f_delta" varies the increment at fixed
    geometry.  Random-FDA rows aggregate mean and standard deviation over
    seeds, one plan per seed; the other schemes are single runs built with
    seed, the seed of the OptimizedFDA solver.  Each OptimizedFDA plan is
    built for this grid and threshold: J gives its starting point and
    floor, the measured region chooses it (see schemes.optimized_fda_plan).
    Every plan depends only on its own row's inputs, so equal rows of two
    sweeps are equal.
    """
    if parameter not in ("n_antennas", "f_delta"):
        raise DomainError(f"unknown sweep parameter {parameter!r}")
    if len(values) < 2:
        raise DomainError("a sweep needs at least two parameter values")
    target = RegionSpec(grid, threshold_mode, threshold_value)
    rows = []
    for value in values:
        if parameter == "n_antennas":
            g_v = ArrayGeometry(n_antennas=int(value), carrier_hz=g.carrier_hz)
            f_v = f_delta_hz
        else:
            g_v = g
            f_v = float(value)
        for scheme in scheme_names:
            run_seeds = list(seeds) if scheme == SCHEME_RANDOM else [seed]
            fractions = []
            for run_seed in run_seeds:
                plan = build_plan(
                    scheme, g_v, bob, f_v, seed=run_seed,
                    box_half_width_hz=box_half_width_hz, region=target,
                )
                region = noncovert_region(
                    g_v, plan, bob, grid, threshold_mode, threshold_value
                )
                fractions.append(region.area_fraction)
            arr = np.asarray(fractions)
            rows.append(
                SweepRow(
                    scheme=scheme,
                    value=float(value),
                    mean_area_fraction=float(arr.mean()),
                    std_area_fraction=float(arr.std()),
                    mean_area_m2=float(arr.mean() * grid.n_cells * grid.step_m**2),
                    n_seeds=len(run_seeds),
                )
            )
    return rows


def monte_carlo_rate(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    budget: LinkBudget,
    grid: GridSpec,
    n_samples: int,
    seed: int,
    threshold_mode: str = "fraction",
    threshold_value: float = 0.1,
) -> RateResult:
    """Mean covert rate over warden positions drawn uniformly from the grid's cells.

    Each sample is one cell, every cell with weight 1 / n_cells as in
    area_fraction, and scores 0 inside the non-covert mask and the
    (location independent) finite-blocklength rate outside, so the mean
    converges to rate * (1 - area_fraction); the reported standard error
    is the sample binomial one.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    region = noncovert_region(g, plan, bob, grid, threshold_mode, threshold_value)

    h_b = channel_vector(g, plan, bob)
    w = mrt_weights(h_b)
    gamma = snr_bob(budget, h_b, w)
    rate = covert_rate(gamma, budget.blocklength, budget.frame_error_prob)

    rng = np.random.default_rng(seed)
    detected = region.mask.ravel()[rng.integers(grid.n_cells, size=n_samples)]
    n_covert = int(n_samples - np.count_nonzero(detected))
    p_covert = n_covert / n_samples
    mean = rate * p_covert
    std_error = rate * math.sqrt(max(p_covert * (1.0 - p_covert), 0.0) / n_samples)
    return RateResult(
        mean_rate=mean,
        std_error=std_error,
        point_rate=rate,
        area_fraction=region.area_fraction,
        n_samples=n_samples,
        n_covert=n_covert,
    )
