"""Grid evaluation of beampatterns, non-covert region extraction and sweeps.

FieldMap values are the beamfocusing correlation |sum_n e^{j z_n}|^2 / N^2
(the beampattern divided by its free-space gain envelope beta^2(r) beta^2(r_b)),
normalized so the cell containing the focus reads exactly 1.  The fractional
threshold mode operates on these values; the absolute ("kl") mode applies the
detection threshold q to the warden's physical beam gain |h_w^H w|^2, which
re-includes the per-cell beta(r).
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
    TWO_PI,
    FrequencyPlan,
    LinkBudget,
    channel_gain_amplitude,
    channel_vector,
    covert_rate,
    focus_correlation,
    mrt_weights,
    snr_bob,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    DomainError,
    PolarPoint,
    polar_to_cartesian,
    rayleigh_distance,
)
from .schemes import OptimizerConfig, RegionSpec, build_plan

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
        if not (self.x_max_m > self.x_min_m and self.y_max_m > self.y_min_m):
            raise DomainError("grid extents must satisfy max > min on both axes")
        if self.step_m <= 0:
            raise DomainError(f"step_m must be > 0, got {self.step_m}")
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
    threshold_mode: str
    threshold_value: float


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    parameter: str
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


def _correlation_block(n_antennas, k, c1, c2, ref, xs, y_block):
    """Raw correlation |sum e^{j phase}|^2 / N^2 for one row block.

    Unlike the per-point oracle path this skips the mod-2pi reduction (the
    trig functions handle multi-thousand-radian arguments directly) and
    accumulates real and imaginary parts in preallocated buffers; the two
    paths agree to ~1e-12 relative.
    """
    x = xs[None, :]
    y = y_block[:, None]
    r = np.hypot(x, y)
    origin = r == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = 1.0 / r
        sin_t = y * inv_r
    shape = r.shape
    phase = np.empty(shape)
    tmp = np.empty(shape)
    trig = np.empty(shape)
    acc_re = np.zeros(shape)
    acc_im = np.zeros(shape)
    with np.errstate(invalid="ignore"):
        for n in range(n_antennas):
            np.multiply(r, k[n], out=phase)
            np.multiply(inv_r, c1[n], out=tmp)
            phase += tmp
            np.multiply(sin_t, c2[n], out=tmp)
            phase -= tmp
            phase -= ref[n]
            np.cos(phase, out=trig)
            acc_re += trig
            np.sin(phase, out=trig)
            acc_im += trig
    np.multiply(acc_re, acc_re, out=phase)
    np.multiply(acc_im, acc_im, out=tmp)
    phase += tmp
    phase /= n_antennas**2
    phase[origin] = np.nan
    return phase


def evaluate_grid(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    spec: GridSpec,
    n_threads: Optional[int] = None,
) -> FieldMap:
    """Normalized beampattern correlation on every grid cell.

    Cell (iy, ix) holds the value at node (x_i, y_i); the r = 0 node (the
    array origin) is flagged invalid as NaN, so a focus within step/2 of the
    origin leaves nothing to normalize by and raises DomainError.  Row
    blocks are evaluated in parallel with disjoint writes, so the result is
    identical for any thread count.
    """
    freqs = plan.frequencies_hz(g)  # validates length, warns on huge offsets
    k = TWO_PI * freqs / SPEED_OF_LIGHT
    delta = np.arange(g.n_antennas, dtype=float)
    d = g.spacing_m
    c1 = k * delta * delta * (d * d / 2.0)
    c2 = k * delta * d
    ref = k * bob.r_m + c1 / bob.r_m - c2 * math.sin(bob.theta_rad)

    xs, ys = spec.xs(), spec.ys()
    values = np.empty((spec.n_y, spec.n_x))
    threads = resolve_threads(n_threads)
    block_rows = max(16, spec.n_y // (threads * 8) or 16)
    blocks = [(i, min(spec.n_y, i + block_rows)) for i in range(0, spec.n_y, block_rows)]

    def fill(bounds):
        i0, i1 = bounds
        values[i0:i1] = _correlation_block(
            g.n_antennas, k, c1, c2, ref, xs, ys[i0:i1]
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, blocks))

    bob_xy = polar_to_cartesian(bob)
    bob_cell = spec.cell_of(bob_xy.x_m, bob_xy.y_m)
    if bob_cell is None:
        warnings.warn("focus point lies outside the grid; peak normalization skipped")
        normalizer = 1.0
    else:
        normalizer = float(values[bob_cell])
        if not (math.isfinite(normalizer) and normalizer > 0.0):
            raise DomainError(
                f"focus cell {bob_cell} has correlation {normalizer}; the focus "
                "must not share the origin's grid cell"
            )
        values /= normalizer

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

    meta = {
        "scheme": plan.scheme,
        "seed": plan.seed,
        "base_increment_hz": plan.base_increment_hz,
        "n_antennas": g.n_antennas,
        "carrier_hz": g.carrier_hz,
        "spacing_m": g.spacing_m,
        "wavelength_m": g.wavelength_m,
        "bob_r_m": bob.r_m,
        "bob_theta_rad": bob.theta_rad,
        "bob_cell": bob_cell,
        "bob_cell_raw_correlation": normalizer,
        "grid_exceeds_rayleigh": exceeds,
        "plan": plan,
        "geometry": g,
    }
    return FieldMap(spec=spec, values=values, metadata=meta)


def extract_noncovert(
    fmap: FieldMap, threshold_mode: str = "fraction", threshold_value: float = 0.1
) -> RegionResult:
    """Boolean non-covert mask, its cell-counted area and area fraction.

    fraction mode: non-covert where value >= threshold_value (0 < t < 1).
    The fraction is of the focus cell's value, so a focus off the grid
    (map left unnormalized) raises DomainError.
    kl mode: threshold_value is the detection threshold q applied to the
    warden beam gain |h_w^H w|^2 = value * ref * beta^2(r_cell) / N.
    Threshold equality is non-covert (closed region).  The mask is stored
    back onto the FieldMap.
    """
    spec = fmap.spec
    if threshold_mode == "fraction":
        if not 0.0 < threshold_value <= 1.0:
            raise DomainError(
                f"fractional threshold must lie in (0, 1], got {threshold_value}"
            )
        if fmap.metadata["bob_cell"] is None:
            raise DomainError(
                "a fractional threshold needs the focus on the grid to normalize "
                "by; use the kl threshold mode or a grid that contains the focus"
            )
        with np.errstate(invalid="ignore"):
            mask = fmap.values >= threshold_value
    elif threshold_mode == "kl":
        if threshold_value <= 0:
            raise DomainError(f"q must be > 0, got {threshold_value}")
        lam = fmap.metadata["wavelength_m"]
        n_ant = fmap.metadata["n_antennas"]
        ref = fmap.metadata["bob_cell_raw_correlation"]
        x = spec.xs()[None, :]
        y = spec.ys()[:, None]
        r = np.hypot(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta_sq = (lam / (4.0 * math.pi * r)) ** 2
            gain = fmap.values * ref * beta_sq / n_ant
            mask = gain >= threshold_value
        mask[r == 0.0] = False
    else:
        raise DomainError(f"unknown threshold mode {threshold_mode!r}")

    count = int(np.count_nonzero(mask))
    area = count * spec.step_m**2
    fraction = count / spec.n_cells
    fmap.mask = mask
    fmap.metadata["threshold_mode"] = threshold_mode
    fmap.metadata["threshold_value"] = threshold_value
    return RegionResult(
        mask=mask,
        n_noncovert=count,
        area_m2=area,
        area_fraction=fraction,
        threshold_mode=threshold_mode,
        threshold_value=threshold_value,
    )


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
    solver: OptimizerConfig = OptimizerConfig(),
    box_half_width_hz: Optional[float] = None,
) -> list:
    """Area fractions versus antenna count or frequency increment.

    parameter "n_antennas" rebuilds the array per value (spacing kept at
    half the carrier wavelength); "f_delta" varies the increment at fixed
    geometry.  Random-FDA rows aggregate mean and standard deviation over
    the seed list; the other schemes are deterministic single runs.  Each
    OptimizedFDA plan is built for this grid and threshold: J gives its
    starting point and floor, the measured region chooses it (see
    schemes.optimized_fda_plan).  Every plan depends only on its own row's
    inputs, so equal rows of two sweeps are equal.
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
            run_seeds = list(seeds) if scheme == SCHEME_RANDOM else [seeds[0]]
            fractions = []
            for seed in run_seeds:
                plan = build_plan(
                    scheme, g_v, bob, f_v, seed=seed, solver=solver,
                    box_half_width_hz=box_half_width_hz, region=target,
                )
                fmap = evaluate_grid(g_v, plan, bob, grid)
                region = extract_noncovert(fmap, threshold_mode, threshold_value)
                fractions.append(region.area_fraction)
            arr = np.asarray(fractions)
            rows.append(
                SweepRow(
                    scheme=scheme,
                    parameter=parameter,
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
    """Mean covert rate over uniformly random warden positions.

    Each sample scores 0 inside the non-covert mask and the (location
    independent) finite-blocklength rate outside, so the mean converges to
    rate * (1 - area_fraction); the reported standard error is the sample
    binomial one.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    fmap = evaluate_grid(g, plan, bob, grid)
    region = extract_noncovert(fmap, threshold_mode, threshold_value)

    h_b = channel_vector(g, plan, bob)
    w = mrt_weights(h_b)
    gamma = snr_bob(budget, h_b, w)
    rate = covert_rate(gamma, budget.blocklength, budget.frame_error_prob)

    rng = np.random.default_rng(seed)
    x = rng.uniform(grid.x_min_m, grid.x_max_m, n_samples)
    y = rng.uniform(grid.y_min_m, grid.y_max_m, n_samples)
    ix = np.clip(np.round((x - grid.x_min_m) / grid.step_m).astype(int), 0, grid.n_x - 1)
    iy = np.clip(np.round((y - grid.y_min_m) / grid.step_m).astype(int), 0, grid.n_y - 1)
    detected = region.mask[iy, ix]
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
