"""Grid evaluation of beampatterns, non-covert region extraction and sweeps.

FieldMap values are the beamfocusing correlation |sum_n e^{j z_n}|^2 / N^2
(the beampattern divided by its free-space gain envelope beta^2(r) beta^2(r_b)),
normalized so the cell containing the focus reads exactly 1.  The fractional
threshold mode operates on these values; the absolute ("kl") mode applies the
detection threshold q to the warden's physical beam gain |h_w^H w|^2, which
re-includes the per-cell beta(r).

Two paths form phases with channel._element_phases, as the region search does:
- the float64 value path, evaluate_grid and extract_noncovert, gives every
  cell's value; heatmap prints it, and it is the oracle of the mask path.
  Its sin and cos come from one table-driven kernel (_sincos), within
  eps64 = 2^-52 of libm's;
- the certified mask path, noncovert_region, gives only each cell's side of
  the threshold, and its mask equals the value path's cell for cell.
  region, sweep and monte_carlo_rate use it.  In kl mode each row band
  looks only at its own columns within the reach radius r* derived in
  noncovert_region, inside one rectangle per map: a staircase around the
  quarter disc of radius r* on the default grid.  Each band's step is cut
  into tiles of _TILE x _TILE nodes, and a tile is decided whole when a
  certified first-order bound at one float32 anchor per tile
  (_tile_screen) puts every value in it on one side of the threshold.
  Only the nodes of the other tiles are evaluated: their phases formed in
  float32, relative to the carrier, and their float32 sin/cos summed in
  float32 (_float32_block), then, in float64, the nodes within the
  derived error bound of the threshold.

A map is cut into row bands of up to _CHUNK nodes (_row_bands), whatever
the thread count, and comes as a stream of bands in row order.
value_bands streams the value path's bands, normalized, so that heatmap
writes each band's text as it arrives; on workers _pool_map hands out every
band at once, so finished bands wait in the parent, up to the whole map.
evaluate_grid and noncovert_region fill their arrays band by band.
monte_carlo_rate draws its cells _CHUNK at a time.  FDACOVERT_THREADS
(resolve_threads) sets how many forked worker processes (_pool_map) run a
value map's bands or a sweep's jobs; a mask, or a map of one band, runs in
the process that asks for it.  No output depends on it.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .channel import (
    SCHEME_OPTIMIZED,
    SCHEME_RANDOM,
    FrequencyPlan,
    LinkBudget,
    _beta_sq,
    _element_phases,
    _Nodes,
    _phase_coefficients,
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
from .schemes import RegionSpec, box_half_width, build_plan

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


@dataclass(frozen=True)
class FieldMap:
    """Normalized correlation values on a grid; extract_noncovert thresholds them."""

    spec: GridSpec
    values: np.ndarray
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


# The value path's sin and cos (_sincos): pi in hexadecimal (its fractional
# digits are Blowfish's P-array) as the integer _PI_FIXED / 2^_PI_BITS; the
# table of cos and sin of 2 pi j / _TURN_STEPS; the split 2 pi / _TURN_STEPS
# = C1 + C2 + C3 (_SPLIT), C1 and C2 with 20 significant bits each; and the
# largest |m| whose reduction is exact.
_PI_HEX = "3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89452821E"
_PI_FIXED, _PI_BITS = int(_PI_HEX, 16), 4 * (len(_PI_HEX) - 1)
_TURN_STEPS = 4096
_EXACT_STEPS = 2.0**33
# The size of the work: a map's row band holds up to _CHUNK nodes, or one
# row of a wider grid, and one of _correlation_block's _sincos calls up to
# _CHUNK phases, or one element's over a wider band.
_CHUNK = 1 << 15
# The mask path screens each band's staircase step in tiles of _TILE x
# _TILE nodes (_tile_screen).
_TILE = 4


def _unit_circle(steps):
    """Rows cos and sin of 2 pi j / steps, j < steps (a multiple of 8), correctly rounded.

    The powers of e^{2 pi i / steps} fill the first octant in fixed point,
    whose error (steps times 2^-_PI_BITS) is far below float64's; Python's
    int division rounds them correctly, and the octant's symmetries fill
    the rest of the circle.
    """
    one = 1 << _PI_BITS
    theta = 2 * _PI_FIXED // steps
    re, im, t_re, t_im, n = one, 0, one, 0, 0
    while t_re or t_im:  # e^{i theta} by its Taylor series
        n += 1
        t_re, t_im = -t_im * theta // (one * n), t_re * theta // (one * n)
        re, im = re + t_re, im + t_im
    table, quarter = np.empty((2, steps)), steps // 4
    w_re, w_im = one, 0
    for j in range(steps // 8 + 1):
        table[:, j] = table[::-1, quarter - j] = w_re / one, w_im / one
        w_re, w_im = (w_re * re - w_im * im) >> _PI_BITS, (w_re * im + w_im * re) >> _PI_BITS
    table[0, quarter:2 * quarter] = -table[1, :quarter]  # a quarter turn on
    table[1, quarter:2 * quarter] = table[0, :quarter]
    table[:, 2 * quarter:] = -table[:, :2 * quarter]  # half a turn on
    return table


def _split(n, bits):
    """The fixed-point n / 2^_PI_BITS as floats: the leading bits of each size, then the rest."""
    parts = []
    for size in bits:
        shift = n.bit_length() - size
        head = n >> shift << shift
        parts.append(head / (1 << _PI_BITS))
        n -= head
    return (*parts, n / (1 << _PI_BITS))


_TABLE = _unit_circle(_TURN_STEPS)
_SPLIT = _split(2 * _PI_FIXED // _TURN_STEPS, (20, 20))  # C1, C2, C3
# sin r = r + r^3 (r^2/120 - 1/6) and cos r - 1 = r^2 (r^2/24 - 1/2), by rows
_TAYLOR = np.array([[1.0 / 120.0, 1.0 / 6.0], [1.0 / 24.0, 0.5]])


def _sincos_scratch(size):
    """The scratch argument of _sincos for up to size phases."""
    return np.empty((6, size))


def _sincos(phase, scratch):
    """Rows cos and sin of each float64 phase, each within eps64 = 2^-52 of libm's.

    phase is overwritten, scratch is six rows of at least phase.size
    floats, as from _sincos_scratch, and the result is a view of two of
    its rows.  With h = 2 pi / K, K = _TURN_STEPS (Tang, ACM TOMS 1989,
    table driven; Cody and Waite, 1980, argument reduction):
      - m = rint(phase K / 2 pi), r = ((phase - m C1) - m C2) - m C3 and
        j = m mod K, so phase = 2 pi q + j h + r with |r| <= h/2 (1 + 2^-18);
      - cos(j h) and sin(j h) are looked up, correctly rounded, and
      - cos phase = cT + (cT (cos r - 1) - sT sin r), sin phase = sT +
        (sT (cos r - 1) + cT sin r), with cos r - 1 = r^2 (r^2/24 - 1/2) and
        sin r = r + r^3 (r^2/120 - 1/6).
    Error, for |phase| <= 2^22 pi (|m| <= 2^33, ~1.3e7 rad):
      - Reduction: m C1 and m C2 are exact (20-bit constants), and phase -
        m C1, up to 16 rad, is exact by Sterbenz's lemma (for |m| = 1 both
        are multiples of 2^-63 and differ by less than 2^-10).  Subtracting
        m C2 and then m C3 leaves less than 2^-10, so each rounds by at most
        2^-64; m C3 rounds by 2^-69, and the split misses h by 2^-104, which
        m turns into 2^-71.  So r is within 2^-62 of phase - 2 pi q - j h.
      - Polynomials: the Taylor terms left out are below 2^-71, and
        evaluating them rounds by < 2^-63.
      - Combination: the bracket is below 2^-10, so its roundings and the
        table's add < 2^-61, and adding it to the table entry rounds by
        half an ulp of the result.
    So each result is within ulp(result)/2 + ulp(table entry)/2 + 2^-60 of
    the exact value v, and libm's within ulp(v), the accuracy assumed of it
    (lattice_errors measures it).  Where |v| >= 1/4 these are at most
    eps64/4, eps64/4 and eps64/2, and both results, at least 1/8, are
    multiples of eps64/16, so they differ by at most eps64; where |v| < 1/4
    they are at most eps64/8 each.  Phases beyond 2^22 pi, where m C1 would
    round, and nan get libm's cos and sin themselves.  Run under
    np.errstate(invalid="ignore"): libm's cos and sin of +-inf are invalid.

    The six scratch rows hold, in turn: rows 0-1 m and each split m C_i,
    then r^2, then j, then u = (-sT, cT) sin r; rows 2-3 the polynomials
    sin r and cos r - 1, then the output; rows 4-5 the table entries.
    """
    n = phase.size
    m, r2 = scratch[0, :n], scratch[1, :n]
    np.multiply(phase, _TURN_STEPS / (2.0 * math.pi), out=m)
    np.rint(m, out=m)
    far = None
    # nan fails the test, and no phase at all passes it
    if not (m.min(initial=0.0) >= -_EXACT_STEPS and m.max(initial=0.0) <= _EXACT_STEPS):
        far = np.flatnonzero(~(np.abs(m) <= _EXACT_STEPS))
        far_phase = phase[far]
        phase[far] = m[far] = 0.0
    for split in _SPLIT:
        np.multiply(m, split, out=r2)
        phase -= r2
    r = phase
    np.multiply(r, r, out=r2)
    poly = scratch[2:4, :n]  # rows sin r and cos r - 1
    np.multiply(r2, _TAYLOR[:, :1], out=poly)
    poly -= _TAYLOR[:, 1:]
    poly *= r2
    poly[0] *= r
    poly[0] += r
    j = r2.view(np.int64)  # in r^2's row, now free
    np.copyto(j, m, casting="unsafe")
    np.bitwise_and(j, _TURN_STEPS - 1, out=j)
    # (cT, sT) + (cT, sT) (cos r - 1) + (-sT, cT) sin r; j is in range, and
    # numpy's "wrap" mode takes it fastest
    t = scratch[4:6, :n]
    np.take(_TABLE, j, axis=1, out=t, mode="wrap")
    u = scratch[0:2, :n]
    np.multiply(t[::-1], poly[0], out=u)
    np.negative(u[0], out=u[0])
    # t (cos r - 1) over the polynomials, a row at a time: cos r - 1 is row 3
    out = poly
    np.multiply(t[0], poly[1], out=out[0])
    np.multiply(t[1], poly[1], out=out[1])
    out += u
    out += t
    if far is not None:
        out[:, far] = np.cos(far_phase), np.sin(far_phase)
    return out


def _correlation_block(coeffs, x, y):
    """Raw correlation |sum_n e^{j phase_n}|^2 / N^2 at the nodes (x, y): the value path.

    Each element's float64 phase, unreduced, goes through _sincos and the
    phasors are summed in float64 in element order; this agrees with the
    per-point oracle, which reduces mod 2 pi, to ~1e-12 relative.  The
    nodes are taken in one piece, as one row, and each _sincos call takes
    the phases of as many elements as fit in _CHUNK, at least one: one
    element per call over a row band of a map, several over the few nodes
    of the focus cell or of the mask path's recomputed cells, so that a few
    nodes do not cost N rounds of calls.  Every operation is elementwise,
    so a row band of the grid and any gathered subset of its nodes get
    bit-identical values.  The r = 0 node is nan.
    """
    x, y = np.broadcast_arrays(x, y)
    n, size = coeffs[0].size, x.size
    rows = min(n, max(1, _CHUNK // max(1, size)))  # elements per _sincos call
    # each element's coefficients as a column, rows to a group; the last
    # group is padded with zero elements, whose phasors are not summed
    pad = np.zeros(-n % rows)
    columns = tuple(np.concatenate([c, pad]).reshape(-1, rows, 1) for c in coeffs)
    scratch = _sincos_scratch(rows * size)
    acc = np.zeros((2, size))
    with np.errstate(invalid="ignore"):
        nodes = _Nodes(x.reshape(1, -1), y.reshape(1, -1))
        for n0, phase in zip(range(0, n, rows), _element_phases(columns, nodes)):
            phasors = _sincos(phase.reshape(-1), scratch).reshape(2, rows, size)
            for e in range(min(rows, n - n0)):
                acc += phasors[:, e]
    # a copy: _power squares the sums in place, and a view would keep both alive
    return _power(acc[0], acc[1], n).reshape(x.shape).copy()


# The float32 kernel's error bound, in ulps of numpy's float32 sin and cos as
# validated by numpy's umath-validation-set-{sin,cos}.csv, and its safety factor.
_TRIG_ULPS = 2
_SAFETY = 2.0
_EPS64 = float(np.finfo(float).eps)


def _float64_slack(n):
    """8 (N + 4) eps64: what float64 trig, accumulation and squaring add to a raw value.

    It allows the value path's sin and cos 4 eps64 each, and _sincos keeps
    them within eps64/2 + 2^-60 of exact.  _float32_block's bound and
    noncovert_region's reach both end with it.
    """
    return 8.0 * (n + 4) * _EPS64


def _carrier_shifted(coeffs):
    """(k - k0, c1, c2, ref - c0), k0 and c0 the midranges of k and ref: _float32_block's phases."""
    k, c1, c2, ref = coeffs
    return k - 0.5 * (k.min() + k.max()), c1, c2, ref - 0.5 * (ref.min() + ref.max())


def _float32_block(coeffs, nodes: _Nodes):
    """(raw32, bound): the raw correlation in float32, and per node how far it may be off.

    Adding one phase to every element leaves |S| as it is, so the phases
    are formed less k0 r - c0, with k0 and c0 the midranges of k and ref (k0
    is the carrier wavenumber of LPA and LinearFDA plans).  That drops the
    largest term, ~3,000 rad at the default grid's far corner.  The shifted
    coefficients (k - k0, c1, c2, ref - c0) and the nodes' r, 1/r and
    sin(theta) are cast to float32, _element_phases forms the phases in
    float32 (up to a few hundred rad away from the origin), and their
    float32 sin and cos are summed in float32.  Only the squares of the two
    sums are taken in float64.

    The bound follows Higham, Accuracy and Stability of Numerical
    Algorithms (2nd ed., 2002), Lemma 3.1 and section 4.2, with u = eps / 2,
    eps = 2^-23 and gamma_m = m u / (1 - m u).  At a node, let T_n be the
    sum of the |terms| of element n's shifted phase, |(k_n - k0) r| +
    |c1_n / r| + |c2_n sin(theta)| + |ref_n - c0|, and T64_n that of its
    unshifted phase.
      - Casts: a coefficient, shifted in float64 and rounded to float32, is
        off by a factor (1 + u64)(1 + u) <= (1 + u)^2, a node value by
        (1 + u).
      - Formation: one product and at most three sums per term.  So each
        term carries at most 7 factors (1 + theta), |theta| <= u, and the
        phase is off by at most gamma_7 T_n <= 4 eps T_n.
      - Trig: cos and sin are off by _TRIG_ULPS ulps, of at most eps, each.
      - Accumulation: recursive summation of N phasors of modulus ~1 is off
        by at most gamma_(N-1) N <= N^2 eps in |S|.
    As |e^{ja} - e^{jb}| <= |a - b|, these give
        |S32 - S| / N <= 4 eps mean_n T_n + sqrt(2) _TRIG_ULPS eps + N eps.
    The float64 value path forms its unshifted phases to within gamma_4 of
    their |terms| in float64, which adds 4 eps64 mean_n T64_n; delta is the
    sum, per node.  Since |S| <= N, |raw32 - raw64| <= 2 delta + delta^2, to
    which float64 trig, accumulation and squaring in both paths add
    _float64_slack(N).  bound is that sum: ~3e-5 (N = 16) to ~1.3e-4
    (N = 64) over most of the default grid, and larger next to the origin,
    where c1 / r reaches thousands of rad.
    The largest error measured on the default grid's extent is 1-4% of it.
    noncovert_region recomputes within _SAFETY = 2 times it.  The r = 0 node
    gets nan.
    """
    k, c1, c2, ref = coeffs
    shifted = _carrier_shifted(coeffs)
    shape = nodes.r.shape
    trig = np.empty(shape, dtype=np.float32)
    acc_re = np.zeros(shape, dtype=np.float32)
    acc_im = np.zeros(shape, dtype=np.float32)
    coeffs32 = tuple(c.astype(np.float32) for c in shifted)
    eps = float(np.finfo(np.float32).eps)
    with np.errstate(invalid="ignore"):
        for phase in _element_phases(coeffs32, nodes.astype(np.float32)):
            np.cos(phase, out=trig)
            acc_re += trig
            np.sin(phase, out=trig)
            acc_im += trig
        # 4 eps mean_n T_n + 4 eps64 mean_n T64_n, weighing r, 1/r, |sin(theta)| and 1
        w_k, w_c1, w_c2, w_ref = (
            4.0 * eps * float(np.mean(np.abs(a))) + 4.0 * _EPS64 * float(np.mean(np.abs(b)))
            for a, b in zip(shifted, coeffs)
        )
        delta = w_k * nodes.r + w_c1 * nodes.inv_r
        delta += w_c2 * np.abs(nodes.sin_t)
        delta += w_ref + (math.sqrt(2.0) * _TRIG_ULPS + k.size) * eps
        bound = delta * (delta + 2.0)
        bound += _float64_slack(k.size)
    return _power(acc_re.astype(float), acc_im.astype(float), k.size), bound


def _row_bands(band, ys, n_cols: int, n_threads: Optional[int]):
    """(i0, band(ys[i0:i1, None])) for each band of the grid rows ys, in row order, on _pool_map.

    band is a picklable function of a band's y nodes, as a column, that
    gives n_cols values per row.  A band is as many rows as fit in _CHUNK
    nodes, at least one, whatever the thread count, so the disjoint bands
    are the same at any count, and a map of up to _CHUNK nodes is one job
    and starts no worker.  noncovert_region asks for one thread: its bands
    run here.  _pool_map is lazy: nothing runs before the first is asked for.
    """
    band_rows = max(1, _CHUNK // max(1, n_cols))
    starts = range(0, ys.size, band_rows)
    bands = _pool_map(band, [ys[i0:i0 + band_rows, None] for i0 in starts], n_threads)
    return zip(starts, bands, strict=True)  # strict: the map runs to its end


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


def value_bands(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    spec: GridSpec,
    n_threads: Optional[int] = None,
):
    """(metadata, bands): evaluate_grid's metadata and its values as a stream of row bands.

    The focus normalizer and the Rayleigh check run here, with their
    warnings and errors, before any band.  bands yields (first row, values
    of the rows from it) in row order, each band evaluated when it is asked
    for, on n_threads worker processes (_row_bands), and divided by the
    normalizer: 1.0 when the focus is off the grid, by which x / 1.0 = x.
    """
    coeffs = _phase_coefficients(g, plan, bob)
    bob_cell, normalizer = _focus_normalizer(coeffs, bob, spec)
    meta = {
        "scheme": plan.scheme,
        "n_antennas": g.n_antennas,
        "wavelength_m": g.wavelength_m,
        "bob_cell": bob_cell,
        "bob_cell_raw_correlation": normalizer,
        "grid_exceeds_rayleigh": _beyond_rayleigh(g, spec),
    }
    band = partial(_correlation_block, coeffs, spec.xs()[None, :])
    raw = _row_bands(band, spec.ys(), spec.n_x, n_threads)
    return meta, ((i0, np.divide(values, normalizer, out=values)) for i0, values in raw)


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
    origin leaves nothing to normalize by and raises DomainError.  The map
    is value_bands' bands put together, and is identical for any n_threads.
    """
    meta, bands = value_bands(g, plan, bob, spec, n_threads)
    values = np.empty((spec.n_y, spec.n_x))
    for i0, band in bands:
        values[i0:i0 + len(band)] = band
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


def _cut(r, threshold_mode, threshold_value, ref, wavelength_m, n_antennas):
    """The raw value at radius r from which on a cell is non-covert: t ref, or q N / beta^2(r)."""
    if threshold_mode == "fraction":
        return np.broadcast_to(threshold_value * ref, np.shape(r))
    return threshold_value * n_antennas / _beta_sq(wavelength_m, r)


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
    Threshold equality is non-covert (the warden detects gain >= q, so the
    region is closed).
    """
    spec, meta = fmap.spec, fmap.metadata
    _check_threshold(threshold_mode, threshold_value, meta["bob_cell"])
    r = np.hypot(spec.xs()[None, :], spec.ys()[:, None]) if threshold_mode == "kl" else None
    mask = _non_covert(
        fmap.values, threshold_mode, threshold_value, meta["bob_cell_raw_correlation"],
        meta["wavelength_m"], meta["n_antennas"], r,
    )
    return _region_result(spec, mask)


def noncovert_region(
    g: ArrayGeometry,
    plan: FrequencyPlan,
    bob: PolarPoint,
    spec: GridSpec,
    threshold_mode: str = "fraction",
    threshold_value: float = 0.1,
) -> RegionResult:
    """extract_noncovert(evaluate_grid(...)) without the map: the certified mask path.

    Areas, sweeps and rates need each cell's side of the threshold, not its
    value.  Per row band (_mask_band), each in the calling process, every
    cell is compared in raw units (|S|^2 / N^2) with the cut: t times the
    focus cell's raw value (fraction mode) or q N / beta^2(r) (kl mode).
    Three stages decide the cells, each only those the one before leaves:
      - the band's staircase step: no cell beyond reach (below) can be
        detected, and the rest of the band is False;
      - the tile screen (_tile_screen): a bound on every raw value of a
        tile of _TILE x _TILE nodes of the step (below) may put the whole
        tile on one side of its cuts;
      - the raw value of each remaining node from float32 phases, sin/cos
        and sums (_float32_block).  A node more than _SAFETY times its
        error bound from the cut is on the side the float64 value would
        put it; the others, 0.01-0.05% of the cells on the default and
        0.02 m grids, are recomputed in float64 and put through
        extract_noncovert's own predicate.
    The focus cell's normalizer is the float64 kernel's value.  So the mask
    equals the value path's cell for cell, and only a bool mask is ever
    allocated for the whole grid.  Every operation on a node is
    elementwise, so its values do not depend on its band, step or tile.
    Warnings and errors are evaluate_grid's and extract_noncovert's.

    No cell whose cut exceeds reach = 1 + _float64_slack(N) can be
    detected: reach bounds every raw value a detected cell can have, with
    u = eps64 / 2:
      - The float64 value path sums N phasors whose sin and cos are within
        4 eps64 of exact (_sincos keeps them within eps64/2 + 2^-60), so
        each has modulus <= 1 + 4 sqrt(2) eps64, and recursive summation
        adds gamma_(N-1) N.  So |S| <= N (1 + (6 + N / 2) eps64), and
        squaring, adding and dividing by N^2 round three times:
        raw <= 1 + (N + 14) eps64.
      - extract_noncovert's predicate value * ref * beta^2 / N >= q, with
        value = raw / ref, rounds four times, and cut = q N / beta^2 twice,
        with the same beta^2.  So a detected cell has cut <= raw (1 + u)^6
        <= 1 + (N + 18) eps64 < reach, and an undetected one cut > raw (1 -
        u)^6.
    cut's float64 operations are monotone in r, so a lower bound on a
    node's computed r = hypot(x, y) decides it.  hypot is within an ulp of
    exact, so computed and exact radii differ by a factor of at most
    1 + eps64 either way.  For nodes whose |y| is at least m, the exact
    radius is at least that of (x, m), so the computed r is at least
    hypot(x, m) (1 - eps64) / (1 + eps64) >= hypot(x, m) (1 - 2 eps64), and
    multiplying by 1 - 4 eps64 rounds to below that (_reach_span).  The
    nodes v from the first to the last whose bound has cut <= reach hold
    every node that can be detected, in two steps:
      - the map's rectangle: the rows y_i with m = min |x| over the
        columns, and the columns x_j with m = min |y| over the rows;
      - within it, each row band's staircase step: the rectangle's
        columns with m = min |y_i| over the band's own rows.  That is the
        band's row nearest the x axis, y = 0 itself in a band that holds
        it, so a band that straddles y = 0 keeps every column within r*
        of the origin, and a band beyond r* none.
    The fractional cut is at most the focus cell's raw value, below reach,
    so fraction mode's steps are whole bands.  In kl mode the cut grows as
    r^2 and exceeds reach beyond r* = lambda / (4 pi) sqrt(1 / (q N)),
    21.5 m at the defaults, so on a grid with a corner at the origin the
    steps form a staircase around the quarter disc of radius r*: with bands
    of 30 rows, 923,428 nodes of a 0.02 m grid, against the 1,157,776 of
    the square of side r* and the 909,569 of the disc.

    The tile bound.  Each element's phase is linear in (r, 1/r,
    sin(theta)): phi_n = a_n r + b_n / r - c_n sin(theta) - d_n, with the
    carrier-shifted coefficients of _float32_block (_carrier_shifted),
    which leave |S| as it is.  A tile's nodes, at most _TILE x _TILE of one
    band's step, have computed r, 1/r and sin(theta) in a box with centre
    p0 and half-widths h = (h_r, h_u, h_s), from its extreme coordinates:
      - r between hypot(least |x|, least |y|) and hypot(greatest |x|,
        greatest |y|), a least |v| being 0 in a tile that straddles v = 0,
        widened by 4 eps64 either way as in _reach_span;
      - 1/r between the reciprocals of those ends, widened by 4 eps64;
      - sin(theta) = y / r, which rises with y and, where y > 0, falls as
        |x| grows: its least at y_lo with the least |x| if y_lo < 0 and the
        greatest otherwise, its greatest at y_hi with the least |x| if
        y_hi > 0 and the greatest otherwise, widened by 8 eps64 (each of
        the node's and the box's own values is within 2 eps64 of y / r).
    The centre and half-widths are rounded outwards.  A tile that holds
    the origin has 0 as its least r, 1/r unbounded and a nan bound, which
    decides nothing.  A node's phase differs from p0's by at most D_n =
    |a_n| h_r + |b_n| h_u + |c_n| h_s, and e^{jx} = 1 + jx + R with |R| <=
    x^2 / 2, so, with the anchor sums S0 = sum_n e^{j phi_n(p0)} and
    G = sum_n (a_n, b_n, c_n) e^{j phi_n(p0)},
        |S - S0| <= sum_i |G_i| h_i + 1/2 sum_n D_n^2,
    where sum_n D_n^2 = h^T Q h with Q = C C^T, C the 3 x N matrix of |a|,
    |b| and |c|.  S0 and G are computed in float32, one matmul of the
    anchor's phasors per band.  By _float32_block's argument each phasor is
    off by at most e = 4 eps max_n T_n + sqrt(2) _TRIG_ULPS eps at the
    anchor, and the weights' casts and the sums add (N + 2) eps (1 + e), so
    S0 is within N e' of exact and G_i within e' sum_n C_in, with e' = e +
    (N + 2) eps (1 + e); both are taken _SAFETY times.  That puts |S| / N
    at every node of the tile within m0 +- w.  The float64 value path forms
    its phases within delta64 = 4 eps64 mean_n T64_n, taken at the box's
    greatest r, 1/r and |sin(theta)|, and its trig, accumulation and
    squaring add _float64_slack(N) to raw; a second _float64_slack(N), at
    least 40 eps64, covers the roundings of the bound's own float64
    arithmetic and of the predicate, a few eps64 of values below 2 (a tile
    whose upper end exceeds 2 is decided False only by a cut beyond
    reach).  So every node's raw value lies within
        [max(m0 - w - delta64, 0)^2 - 2 s, (m0 + w + delta64)^2 + 2 s],
    s = _float64_slack(N).  The tile is False when the upper end lies
    below the cut at the box's least r, and True when the lower end is at
    or above the cut at its greatest r.  With RandomFDA plan seed 1 at
    N = 64, _float32_block gets 122,164 of the default grid's 641,601
    nodes in fraction mode (19.0%), after 40,401 anchors, and 90,712 of
    the 923,428 step nodes of the 0.02 m kl map (9.8%), after 61,693; at
    N = 16 the default fraction map sends 2.7-6.7% of its nodes.
    """
    coeffs = _phase_coefficients(g, plan, bob)
    bob_cell, normalizer = _focus_normalizer(coeffs, bob, spec)
    _beyond_rayleigh(g, spec)
    _check_threshold(threshold_mode, threshold_value, bob_cell)
    rule = (threshold_mode, threshold_value, normalizer, g.wavelength_m, g.n_antennas)
    xs, ys = spec.xs(), spec.ys()
    mask = np.zeros((spec.n_y, spec.n_x), dtype=bool)
    rows = _reach_span(ys, np.abs(xs).min(), rule)
    cols = _reach_span(xs, np.abs(ys).min(), rule)
    live = mask[rows, cols]
    band = partial(_mask_band, coeffs, xs[cols], rule)
    for i0, block in _row_bands(band, ys[rows], live.shape[1], 1):
        live[i0:i0 + len(block)] = block
    return _region_result(spec, mask)


def _reach_span(v, m, rule):
    """The slice of the nodes v, first to last, that noncovert_region's reach lets through.

    Each node of v is paired with other coordinates of magnitude at least
    m; hypot(v, m) (1 - 4 eps64) bounds their computed radii from below.
    """
    with np.errstate(divide="ignore"):
        r = np.hypot(v, m) * (1.0 - 4.0 * _EPS64)
        live = np.flatnonzero(_cut(r, *rule) <= 1.0 + _float64_slack(rule[4]))
    return slice(live[0], live[-1] + 1) if live.size else slice(0, 0)


def _mask_band(coeffs, x, rule, y):
    """noncovert_region's mask on the nodes (x, y); rule = (mode, t or q, normalizer, lam, N).

    Only the band's staircase step (_reach_span) is looked at, and the rest
    is False.  _tile_screen decides the step's tiles it can; the nodes of
    the others are gathered and evaluated node by node: float32
    (_float32_block), and float64 within _SAFETY times its bound of the cut.
    """
    block = np.zeros((y.size, x.size), dtype=bool)
    cols = _reach_span(x, np.abs(y).min(), rule)
    x, step = x[cols], block[:, cols]
    decided, detected = _tile_screen(coeffs, x, y, rule)
    step[...] = detected
    iy, ix = np.nonzero(~decided)
    nodes = _Nodes(x[ix], y[iy, 0])
    raw, bound = _float32_block(coeffs, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        threshold = _cut(nodes.r, *rule)
        step[iy, ix] = raw >= threshold
        raw -= threshold
        near = np.flatnonzero(np.abs(raw, out=raw) <= _SAFETY * bound)
    iy, ix = iy[near], ix[near]
    values = _correlation_block(coeffs, x[ix], y[iy, 0]) / rule[2]
    step[iy, ix] = _non_covert(values, *rule, nodes.r[near])
    return block


def _tile_spans(v):
    """Per run of _TILE nodes of v: its least and greatest v, and its least and greatest |v|."""
    starts = np.arange(0, v.size, _TILE)
    lo, hi = np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)
    near = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    return lo, hi, near, np.maximum(-lo, hi)


def _tile_screen(coeffs, x, y, rule):
    """(decided, detected) per node of x (a row) by y (a column): noncovert_region's tile screen.

    The nodes are cut into tiles of _TILE x _TILE.  Each tile gets a box
    of its nodes' computed r, 1/r and sin(theta), and a float32 anchor at
    the box's centre: |S| and the three first-order sums there.  A tile is
    decided, all False or all True, when the bound derived in
    noncovert_region puts every raw value in it below its least cut or at
    or above its greatest; the others are not decided.  A nan bound, as
    that of a tile holding the origin, decides nothing.
    """
    n = coeffs[0].size
    widen = 4.0 * _EPS64
    _, _, x_near, x_far = _tile_spans(x)
    y_lo, y_hi, y_near, y_far = (s[:, None] for s in _tile_spans(y[:, 0]))
    with np.errstate(all="ignore"):
        r = np.hypot(x_near, y_near) * (1.0 - widen), np.hypot(x_far, y_far) * (1.0 + widen)
        # sin(theta) = y / r rises with y, and falls with |x| where y > 0
        sin_t = (
            y_lo / np.hypot(np.where(y_lo < 0.0, x_near, x_far), y_lo) - 2.0 * widen,
            y_hi / np.hypot(np.where(y_hi > 0.0, x_near, x_far), y_hi) + 2.0 * widen,
        )
        box = np.array([r, ((1.0 - widen) / r[1], (1.0 + widen) / r[0]), sin_t])
        shape = box.shape[2:]
        lo, hi = box.reshape(3, 2, -1).transpose(1, 0, 2)  # (r, 1/r, sin(theta)) by tiles
        centre = 0.5 * (lo + hi)
        half = np.maximum(hi - centre, centre - lo) * (1.0 + widen)
        shifted = _carrier_shifted(coeffs)
        columns = tuple(c.astype(np.float32)[None, :, None] for c in shifted)
        phase = next(_element_phases(columns, _Nodes.of(*centre[:, None].astype(np.float32))))
        weights = np.array([np.ones(n), *shifted[:3]], dtype=np.float32)
        sums = np.hypot((weights @ np.cos(phase)).astype(float),
                        (weights @ np.sin(phase)).astype(float))  # |S0|, |G_r|, |G_u|, |G_s|
        terms = np.abs(np.array(shifted[:3]))  # |d phase_n / d (r, 1/r, sin(theta))|
        eps = float(np.finfo(np.float32).eps)
        phasor = (4.0 * eps * (terms.max(axis=1) @ np.abs(centre) + np.abs(shifted[3]).max())
                  + math.sqrt(2.0) * _TRIG_ULPS * eps)
        error = _SAFETY * (phasor + (n + 2) * eps * (1.0 + phasor))
        spread = (
            (sums[1:] * half).sum(axis=0)
            + error * (n + terms.sum(axis=1) @ half)
            + 0.5 * ((terms @ terms.T @ half) * half).sum(axis=0)
        ) / n
        means = np.abs(np.array(coeffs)).mean(axis=1)
        extreme = np.array([hi[0], hi[1], np.maximum(-lo[2], hi[2])])
        spread += 4.0 * _EPS64 * (means[:3] @ extreme + means[3])
        slack = 2.0 * _float64_slack(n)
        low = np.maximum(sums[0] / n - spread, 0.0) ** 2 - slack
        high = (sums[0] / n + spread) ** 2 + slack
        detected = low >= _cut(hi[0], *rule)
        decided = detected | (high < _cut(lo[0], *rule))

    def nodes(tiles):
        whole = np.repeat(np.repeat(tiles.reshape(shape), _TILE, 0), _TILE, 1)
        return whole[:y.size, :x.size]

    return nodes(decided), nodes(detected)


def lattice_errors(g: ArrayGeometry, plan: FrequencyPlan, bob: PolarPoint, spec: GridSpec):
    """(float32, sincos): how near the two kernels come to their bounds, on the platform.

    float32 is the largest |raw32 - raw64| / bound: the bound rests on
    numpy's float32 sin/cos being accurate to _TRIG_ULPS ulps over the
    phases noncovert_region forms.  sincos is the largest |_sincos - libm|
    / eps64 over every phase: _sincos derives its eps64 bound from numpy's
    float64 arithmetic and libm's sin and cos being within 1 ulp.  Each
    measures whether the installed platform keeps what its bound rests on,
    so neither must exceed 1.  Both are taken over one sparse lattice of
    spec's nodes, evaluated as one block: the nodes at geometrically spaced
    indices from the second to the last, so from the one next to the
    grid's first corner out to its far corner.
    """

    def lattice(values):
        return values[np.unique(np.geomspace(1, values.size - 1, 48).astype(int))]

    coeffs = _phase_coefficients(g, plan, bob)
    x, y = lattice(spec.xs())[None, :], lattice(spec.ys())[:, None]
    nodes = _Nodes(x, y)
    raw32, bound = _float32_block(coeffs, nodes)
    float32 = float(np.nanmax(np.abs(raw32 - _correlation_block(coeffs, x, y)) / bound))
    with np.errstate(invalid="ignore"):
        phases = np.array([p.copy() for p in _element_phases(coeffs, nodes)]).reshape(-1)
        libm = np.cos(phases), np.sin(phases)
        fast = _sincos(phases, _sincos_scratch(phases.size))
    if not all(np.array_equal(np.isnan(a), np.isnan(b)) for a, b in zip(fast, libm)):
        return float32, math.inf
    worst = max(float(np.nanmax(np.abs(a - b), initial=0.0)) for a, b in zip(fast, libm))
    return float32, worst / _EPS64


def _workers(n_jobs: int, n_threads: Optional[int] = None) -> int:
    """How many worker processes _pool_map runs n_jobs jobs on: never more than the jobs."""
    return min(resolve_threads(n_threads), n_jobs)


def _pool_map(fn, jobs: list, n_threads: Optional[int] = None):
    """fn(job) for each job, in order, as each comes back from _workers(...) forked processes.

    The pool is started at the first result asked for and shut down, which
    joins every worker, after the last or at an error or close().
    The jobs run here, one after another, for one worker, where fork is
    missing, and while another thread runs: a forked child gets a copy of
    every lock, held or not, and only the forking thread.  A forked worker
    starts with the parent's modules, where a spawned one would import
    numpy and this package again.  multiprocessing is imported only here,
    as its import costs ~15 ms.  fn and the jobs are pickled.
    """
    workers = _workers(len(jobs), n_threads)
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # a fork pool starts every worker at its first submit, before its
            # own threads (CPython issue 90622)
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                yield from pool.map(fn, jobs)
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from map(fn, jobs)


def _recorded(fn, *args):
    """fn(*args) as (warnings, result), for _job_result to replay in the caller's process.

    Each warning the call issued is kept as (message, filename, lineno);
    result is what it returned or the exception it raised.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - raised again by _job_result
            result = exc
    return [(w.message, w.filename, w.lineno) for w in caught], result


def _sweep_job(job: tuple) -> tuple:
    """One job of sweep, job = (build_plan args, plan): (build, mask), each _recorded.

    build is build_plan(*args) when plan is None, and None otherwise; mask
    is the area fraction of the plan's mask, None if the build failed.
    """
    args, plan = job
    build = None
    if plan is None:
        build = _recorded(build_plan, *args)
        plan = build[1]
        if isinstance(plan, Exception):
            return build, None
    g, bob, target = args[1], args[2], args[-1]
    spec = (target.grid, target.threshold_mode, target.threshold_value)
    return build, _recorded(lambda: noncovert_region(g, plan, bob, *spec).area_fraction)


def _job_result(outcome):
    """The result of a _recorded call, after issuing its warnings here; raises its error.

    Each warning goes through this process's filters as from the line that
    issued it, with its module's registry, so "default" shows it once.
    """
    caught, result = outcome
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        name = None if module is None else module.__name__
        warnings.warn_explicit(message, type(message), filename, lineno, name, registry)
    if isinstance(result, Exception):
        raise result
    return result


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

    parameter "n_antennas" rebuilds g per value with only N changed;
    "f_delta" varies the increment at fixed geometry.  Random-FDA rows
    aggregate mean and standard deviation over seeds (at least one), one
    plan per seed; the other schemes are single runs built with seed, the
    seed of the OptimizedFDA solver.  Each OptimizedFDA plan is built for
    this grid and threshold: J gives its starting point and floor, the
    measured region chooses it (see schemes.optimized_fda_plan).
    Every plan depends only on its own row's inputs, so equal rows of two
    sweeps are equal.

    One pass over the rows records each run as its build record, or None
    for an OptimizedFDA plan, and the key of the job that measures it.  The
    LPA, LinearFDA and RandomFDA plans take microseconds and are built in
    that pass; each distinct one, such as LPA's at every increment, is
    measured once.  Each OptimizedFDA plan, a J and a region search, is
    searched once per distinct geometry, seed and box (a box_half_width_hz
    fixes it at every increment) and measured in that job.  _pool_map runs
    these jobs on forked worker processes, the searches first, each mask in
    its job's process, so no row depends on the thread count.  The rows are
    then put together from the records in row order, which issues each
    job's warnings and raises its error as a serial sweep would.
    """
    if parameter not in ("n_antennas", "f_delta"):
        raise DomainError(f"unknown sweep parameter {parameter!r}")
    if len(values) < 2:
        raise DomainError("a sweep needs at least two parameter values")
    if SCHEME_RANDOM in scheme_names and not seeds:
        raise DomainError("RandomFDA rows need at least one seed")
    target = RegionSpec(grid, threshold_mode, threshold_value)
    # runs: (scheme, value, [(build record or None, job key)]); job key ->
    # (build_plan args, plan), plan None for a search
    runs, searches, masks = [], {}, {}
    for value in values:
        if parameter == "n_antennas":
            g_v = replace(g, n_antennas=int(value))
            f_v = f_delta_hz
        else:
            g_v = g
            f_v = float(value)
        for scheme in scheme_names:
            records = []
            for s in seeds if scheme == SCHEME_RANDOM else [seed]:
                args = (scheme, g_v, bob, f_v, s, box_half_width_hz, target)
                if scheme == SCHEME_OPTIMIZED:
                    # an OptimizedFDA plan is decided by its geometry, seed and
                    # box, on which bob and the region are the sweep's own and
                    # f_v acts only through schemes.box_half_width; an increment
                    # that fails its check keys by the error that check raised,
                    # which no other row shares
                    build = None
                    key = (g_v, s, _recorded(box_half_width, f_v, box_half_width_hz)[1])
                    searches.setdefault(key, (args, None))
                else:
                    build = _recorded(build_plan, *args)
                    key = None  # a failed build gets no job: replaying it raises
                    if not isinstance(build[1], Exception):
                        key = (g_v, build[1].offsets_hz)
                        masks.setdefault(key, (args, build[1]))
                records.append((build, key))
            runs.append((scheme, float(value), records))
    jobs = {**searches, **masks}
    outcomes = dict(zip(jobs, _pool_map(_sweep_job, list(jobs.values())), strict=True))
    fraction_of = {}  # job key -> area fraction
    rows = []
    for scheme, value, records in runs:
        fractions = []
        for build, key in records:
            # the build's warnings at every use, raising its error; the mask's at the first
            _job_result(outcomes[key][0] if build is None else build)
            if key not in fraction_of:
                fraction_of[key] = _job_result(outcomes[key][1])
            fractions.append(fraction_of[key])
        arr = np.asarray(fractions)
        rows.append(
            SweepRow(
                scheme=scheme,
                value=value,
                mean_area_fraction=float(arr.mean()),
                std_area_fraction=float(arr.std()),
                mean_area_m2=float(arr.mean() * grid.n_cells * grid.step_m**2),
                n_seeds=len(records),
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
    is the sample binomial one.  The cells are drawn from one Generator
    _CHUNK at a time and counted block by block, so memory stays bounded
    whatever n_samples; PCG64 keeps the unused half of a 64-bit draw in its
    state, so the blocks draw exactly the cells of one draw of n_samples.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    region = noncovert_region(g, plan, bob, grid, threshold_mode, threshold_value)

    h_b = channel_vector(g, plan, bob)
    w = mrt_weights(h_b)
    gamma = snr_bob(budget, h_b, w)
    rate = covert_rate(gamma, budget.blocklength, budget.frame_error_prob)

    rng = np.random.default_rng(seed)
    mask = region.mask.ravel()
    n_covert = n_samples
    for start in range(0, n_samples, _CHUNK):
        cells = rng.integers(grid.n_cells, size=min(_CHUNK, n_samples - start))
        n_covert -= int(np.count_nonzero(mask[cells]))
    p_covert = n_covert / n_samples
    mean = rate * p_covert
    std_error = rate * math.sqrt(p_covert * (1.0 - p_covert) / n_samples)
    return RateResult(
        mean_rate=mean,
        std_error=std_error,
        point_rate=rate,
        area_fraction=region.area_fraction,
        n_samples=n_samples,
        n_covert=n_covert,
    )
