"""Grid engine: beampattern maps, non-covert regions, sweeps, Monte Carlo."""

import math
import multiprocessing
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fdacovert import (
    ArrayGeometry,
    CovertnessBudget,
    DomainError,
    GridSpec,
    LinkBudget,
    PolarPoint,
    beam_gain,
    beampattern_at,
    channel_gain_amplitude,
    channel_vector,
    covert_rate,
    evaluate_grid,
    extract_noncovert,
    linear_fda_plan,
    lpa_plan,
    monte_carlo_rate,
    mrt_weights,
    random_fda_plan,
    snr_bob,
    sweep,
)

G = ArrayGeometry(n_antennas=64, carrier_hz=3e9)
BOB = PolarPoint(7.0711, math.radians(45.0))
SMALL = GridSpec(0.0, 12.0, 0.0, 12.0, 0.1)
BUDGET = LinkBudget(0.1, 1e-9, 100, 1e-5)


def test_gridspec_shapes():
    assert SMALL.n_x == SMALL.n_y == 121
    full = GridSpec(0.0, 40.0, 0.0, 40.0, 0.05)
    assert full.n_x == full.n_y == 801
    assert full.cell_of(5.0, 5.0) == (100, 100)
    assert full.cell_of(45.0, 5.0) is None


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        GridSpec(0.0, 40.0, 0.0, 40.0, 0.01)  # 4001^2 > default cap
    GridSpec(0.0, 40.0, 0.0, 40.0, 0.01, max_cells=20_000_000)


def test_beampattern_peak_value_at_focus():
    beta4 = channel_gain_amplitude(G, BOB.r_m) ** 4
    for plan in (lpa_plan(G), linear_fda_plan(G, 1e6), random_fda_plan(G, 1e6, 2)):
        b = beampattern_at(G, plan, BOB, BOB)
        assert b == pytest.approx(beta4, rel=1e-12)


def test_beampattern_matches_channel_inner_product():
    # independent route: absolute-phase channel vectors -> MRT -> |h^H w|^2;
    # exact pattern nulls are redrawn (relative comparison is singular there)
    rng = np.random.default_rng(11)
    beta_b = channel_gain_amplitude(G, BOB.r_m)
    for plan in (lpa_plan(G), linear_fda_plan(G, 1e6), random_fda_plan(G, 1e6, 8)):
        h_b = channel_vector(G, plan, BOB, phase_reference="absolute")
        w = mrt_weights(h_b)
        scale = G.n_antennas * beta_b**2
        kept = 0
        while kept < 50:
            p = PolarPoint(rng.uniform(0.3, 50.0), rng.uniform(-1.2, 1.2))
            direct = beampattern_at(G, plan, BOB, p)
            if direct / (channel_gain_amplitude(G, p.r_m) ** 2 * beta_b**2) < 1e-6:
                continue
            kept += 1
            h_p = channel_vector(G, plan, p, phase_reference="absolute")
            via_channel = scale * beam_gain(h_p, w)
            assert direct == pytest.approx(via_channel, rel=1e-12)


def test_map_normalization_and_peak_cell():
    fmap = evaluate_grid(G, lpa_plan(G), BOB, SMALL)
    iy, ix = fmap.metadata["bob_cell"]
    assert fmap.values[iy, ix] == 1.0
    assert np.nanmax(fmap.values) == 1.0
    assert (iy, ix) == (50, 50)  # node nearest (5, 5)
    assert np.isnan(fmap.values[0, 0])  # array origin flagged invalid
    finite = fmap.values[np.isfinite(fmap.values)]
    assert finite.min() >= 0.0


def test_map_peak_at_focus_for_all_schemes():
    from fdacovert import optimized_fda_plan

    for plan in (
        lpa_plan(G),
        linear_fda_plan(G, 1e6),
        random_fda_plan(G, 1e6, 0),
        random_fda_plan(G, 1e6, 1),
        optimized_fda_plan(G, BOB, 1e6),
    ):
        fmap = evaluate_grid(G, plan, BOB, SMALL)
        assert np.unravel_index(np.nanargmax(fmap.values), fmap.values.shape) == (50, 50)
        # every off-focus cell sits strictly below the matched-focus gain
        assert np.nansum(fmap.values >= 1.0) == 1


def test_map_determinism_and_thread_invariance(monkeypatch):
    # bands of 16 rows: eight of them, on three workers at three threads
    monkeypatch.setattr(fieldmap, "_CHUNK", SMALL.n_x * 16)
    plan = random_fda_plan(G, 1e6, 3)
    a = evaluate_grid(G, plan, BOB, SMALL, n_threads=1)
    b = evaluate_grid(G, plan, BOB, SMALL, n_threads=1)
    c = evaluate_grid(G, plan, BOB, SMALL, n_threads=3)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.values, c.values)


def test_lpa_map_ridge_along_focus_angle():
    # angle-only selectivity: at the focus range the pattern is a narrow
    # angular ridge; far off-angle cells sit orders of magnitude lower
    plan = lpa_plan(G)
    on_ray = beampattern_at(G, plan, BOB, PolarPoint(BOB.r_m, BOB.theta_rad))
    for off_deg in (10.0, -10.0, 20.0):
        off = beampattern_at(
            G, plan, BOB, PolarPoint(BOB.r_m, BOB.theta_rad + math.radians(off_deg))
        )
        assert on_ray > 50 * off
    # the ridge persists at defocused ranges relative to far-off angles
    near_ray = beampattern_at(G, plan, BOB, PolarPoint(6.0, BOB.theta_rad))
    far_off = beampattern_at(G, plan, BOB, PolarPoint(6.0, math.radians(20.0)))
    assert near_ray > 20 * far_off


def test_grid_agrees_with_pointwise_beampattern():
    plan = random_fda_plan(G, 1e6, 4)
    fmap = evaluate_grid(G, plan, BOB, SMALL)
    beta_b = channel_gain_amplitude(G, BOB.r_m)
    ref = fmap.metadata["bob_cell_raw_correlation"]
    xs, ys = SMALL.xs(), SMALL.ys()
    rng = np.random.default_rng(0)
    for _ in range(25):
        iy, ix = int(rng.integers(1, SMALL.n_y)), int(rng.integers(1, SMALL.n_x))
        x, y = xs[ix], ys[iy]
        r = math.hypot(x, y)
        p = PolarPoint(r, math.atan2(y, x))
        corr = beampattern_at(G, plan, BOB, p) / (
            channel_gain_amplitude(G, r) ** 2 * beta_b**2
        )
        assert fmap.values[iy, ix] * ref == pytest.approx(corr, rel=1e-9)


def test_extract_threshold_extremes():
    fmap = evaluate_grid(G, lpa_plan(G), BOB, SMALL)
    top = extract_noncovert(fmap, "fraction", 1.0)
    assert top.n_noncovert == 1  # only the focus cell reaches the peak
    low = extract_noncovert(fmap, "fraction", 1e-12)
    assert low.n_noncovert == SMALL.n_cells - 1  # everything but the NaN origin


def test_extract_fraction_monotone_in_threshold():
    fmap = evaluate_grid(G, random_fda_plan(G, 1e6, 5), BOB, SMALL)
    fracs = [
        extract_noncovert(fmap, "fraction", t).area_fraction
        for t in (0.05, 0.1, 0.2, 0.5, 0.9)
    ]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_extract_area_accounting():
    fmap = evaluate_grid(G, lpa_plan(G), BOB, SMALL)
    region = extract_noncovert(fmap, "fraction", 0.1)
    assert region.area_m2 == pytest.approx(region.n_noncovert * 0.1**2, rel=1e-12)
    assert region.area_fraction == pytest.approx(
        region.n_noncovert / SMALL.n_cells, rel=1e-12
    )


def test_extract_kl_mode_includes_path_gain():
    # the absolute mode sees the beta(r) growth: cells close to the array
    # exceed q even where the correlation is small
    fmap = evaluate_grid(G, lpa_plan(G), BOB, SMALL)
    budget = CovertnessBudget(1.0, 100, 1e-9, 0.1)
    region = extract_noncovert(fmap, "kl", budget.threshold_q)
    mask = region.mask
    xs, ys = SMALL.xs(), SMALL.ys()
    near = mask[(np.nonzero(ys < 1.0)[0][:, None], np.nonzero(xs < 1.0)[0][None, :])]
    assert near.mean() > 0.5
    assert not mask[0, 0]  # origin stays excluded
    frac_region = extract_noncovert(fmap, "fraction", 0.1)
    assert region.n_noncovert != frac_region.n_noncovert


def test_extract_rejects_bad_thresholds():
    fmap = evaluate_grid(G, lpa_plan(G), BOB, SMALL)
    with pytest.raises(DomainError):
        extract_noncovert(fmap, "fraction", 0.0)
    with pytest.raises(DomainError):
        extract_noncovert(fmap, "kl", 0.0)
    with pytest.raises(DomainError):
        extract_noncovert(fmap, "banana", 0.1)


def test_random_beats_lpa_at_defaults_small_grid():
    lpa = extract_noncovert(evaluate_grid(G, lpa_plan(G), BOB, SMALL), "fraction", 0.1)
    rnd = np.mean(
        [
            extract_noncovert(
                evaluate_grid(G, random_fda_plan(G, 1e6, s), BOB, SMALL),
                "fraction",
                0.1,
            ).area_fraction
            for s in range(5)
        ]
    )
    assert rnd < lpa.area_fraction


def test_sweep_lpa_row_constant_in_increment():
    rows = sweep(
        "f_delta",
        (0.5e6, 1e6, 2e6),
        ("LPA",),
        G,
        BOB,
        1e6,
        SMALL,
        seeds=(0,),
    )
    fracs = {r.mean_area_fraction for r in rows}
    assert len(fracs) == 1


def test_sweep_shapes_and_seed_handling():
    rows = sweep(
        "n_antennas",
        (16, 32),
        ("LPA", "RandomFDA"),
        G,
        BOB,
        1e6,
        SMALL,
        seeds=(0, 1, 2),
    )
    assert len(rows) == 4
    by = {(r.scheme, r.value): r for r in rows}
    assert by[("RandomFDA", 16.0)].n_seeds == 3
    assert by[("LPA", 16.0)].n_seeds == 1
    assert by[("LPA", 16.0)].std_area_fraction == 0.0
    assert by[("RandomFDA", 32.0)].mean_area_fraction < by[("RandomFDA", 16.0)].mean_area_fraction


def test_sweep_validation():
    with pytest.raises(DomainError):
        sweep("n_antennas", (16,), ("LPA",), G, BOB, 1e6, SMALL)
    with pytest.raises(DomainError):
        sweep("bandwidth", (16, 32), ("LPA",), G, BOB, 1e6, SMALL)
    with pytest.raises(DomainError, match="seed"):  # RandomFDA rows with no seed
        sweep("f_delta", (1e6, 2e6), ("LPA", "RandomFDA"), G, BOB, 1e6, SMALL, seeds=())


def test_monte_carlo_degenerate_empty_mask():
    # an absurdly large q empties the mask: the mean equals the point rate
    result = monte_carlo_rate(
        G, lpa_plan(G), BOB, BUDGET, SMALL, 2000, seed=1,
        threshold_mode="kl", threshold_value=1.0,
    )
    assert result.area_fraction == 0.0
    assert result.mean_rate == result.point_rate
    assert result.std_error == 0.0


def test_monte_carlo_matches_area_identity():
    plan = random_fda_plan(G, 1e6, 7)
    result = monte_carlo_rate(
        G, plan, BOB, BUDGET, SMALL, 100_000, seed=5,
        threshold_mode="fraction", threshold_value=0.1,
    )
    h = channel_vector(G, plan, BOB)
    w = mrt_weights(h)
    rate = covert_rate(snr_bob(BUDGET, h, w), 100, 1e-5)
    assert result.point_rate == pytest.approx(rate, rel=1e-12)
    expected = rate * (1.0 - result.area_fraction)
    se = rate * math.sqrt(result.area_fraction * (1 - result.area_fraction) / 1e5)
    assert abs(result.mean_rate - expected) <= 3 * max(se, 1e-12)


def test_monte_carlo_random_scheme_beats_lpa():
    # smaller non-covert region -> higher mean covert rate, seed-averaged
    lpa = monte_carlo_rate(G, lpa_plan(G), BOB, BUDGET, SMALL, 20_000, seed=1)
    random_means = [
        monte_carlo_rate(
            G, random_fda_plan(G, 1e6, s), BOB, BUDGET, SMALL, 20_000, seed=1
        ).mean_rate
        for s in range(3)
    ]
    assert np.mean(random_means) >= lpa.mean_rate


def test_monte_carlo_reproducible():
    a = monte_carlo_rate(G, lpa_plan(G), BOB, BUDGET, SMALL, 5000, seed=3)
    b = monte_carlo_rate(G, lpa_plan(G), BOB, BUDGET, SMALL, 5000, seed=3)
    assert a == b
    with pytest.raises(DomainError):
        monte_carlo_rate(G, lpa_plan(G), BOB, BUDGET, SMALL, 0, seed=3)


def test_focus_outside_grid_warns():
    tiny = GridSpec(0.0, 2.0, 0.0, 2.0, 0.1)
    with pytest.warns(UserWarning, match="outside the grid"):
        evaluate_grid(G, lpa_plan(G), BOB, tiny)


def test_grid_beyond_rayleigh_is_flagged():
    g16 = ArrayGeometry(n_antennas=16, carrier_hz=3e9)  # Rayleigh ~ 11.2 m
    with pytest.warns(UserWarning, match="Rayleigh"):
        fmap = evaluate_grid(g16, lpa_plan(g16), BOB, SMALL)
    assert fmap.metadata["grid_exceeds_rayleigh"]
    fmap64 = evaluate_grid(G, lpa_plan(G), BOB, SMALL)
    assert not fmap64.metadata["grid_exceeds_rayleigh"]


def test_focus_in_origin_cell_raises():
    # the focus rounds onto the r = 0 node, whose value is NaN: no normalizer
    coarse = GridSpec(0.0, 4.0, 0.0, 4.0, 0.5)
    near_origin = PolarPoint(0.1, math.radians(45.0))
    for plan in (lpa_plan(G), linear_fda_plan(G, 1e6)):
        with pytest.raises(DomainError, match="origin"):
            evaluate_grid(G, plan, near_origin, coarse)
    with pytest.raises(DomainError, match="origin"):
        monte_carlo_rate(G, lpa_plan(G), near_origin, BUDGET, coarse, 100, seed=0)


def test_fraction_threshold_refuses_focus_off_grid():
    tiny = GridSpec(0.0, 2.0, 0.0, 2.0, 0.1)
    with pytest.warns(UserWarning, match="outside the grid"):
        fmap = evaluate_grid(G, lpa_plan(G), BOB, tiny)
    with pytest.raises(DomainError, match="focus"):
        extract_noncovert(fmap, "fraction", 0.1)
    # kl mode thresholds the raw correlation: still defined off the grid
    q = CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q
    region = extract_noncovert(fmap, "kl", q)
    assert region.n_noncovert > 0
    assert region.mask.shape == fmap.values.shape


# ------------------------------------------------- certified float32 mask path

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdacovert import RegionSpec, build_plan, fieldmap, noncovert_region  # noqa: E402


@pytest.fixture
def jobs_here(monkeypatch):
    # a spy's records stay in the process that made them, so run every
    # _pool_map job here, one after another; a map's row bands are the
    # ones workers would get
    monkeypatch.setattr(fieldmap, "_pool_map", lambda fn, jobs, n_threads=None: map(fn, jobs))


@pytest.fixture
def screened(monkeypatch, jobs_here):
    """Per mask band, in order: (the r of its staircase step's nodes, which the tile
    screen decided).  The screen gets the step; _float32_block must get the
    step's undecided nodes, in row order, so a subset of the step."""
    bands = []
    tile_screen, float32_block = fieldmap._tile_screen, fieldmap._float32_block

    def screening(coeffs, x, y, rule):
        decided, detected = tile_screen(coeffs, x, y, rule)
        bands.append((fieldmap._Nodes(x[None, :], y).r, decided))
        return decided, detected

    def evaluating(coeffs, nodes):
        step, decided = bands[-1]
        np.testing.assert_array_equal(nodes.r, step[~decided])
        return float32_block(coeffs, nodes)

    monkeypatch.setattr(fieldmap, "_tile_screen", screening)
    monkeypatch.setattr(fieldmap, "_float32_block", evaluating)
    return bands


def _pid_and(fn, job):
    """(the pid of the process that ran fn(job), fn(job))."""
    return os.getpid(), fn(job)


@pytest.fixture
def pool_pids(monkeypatch):
    """Per _pool_map call made in this process, the set of pids its jobs ran in."""
    calls = []
    pool_map = fieldmap._pool_map

    def recording(fn, jobs, n_threads=None):
        pids = set()
        calls.append(pids)
        for pid, result in pool_map(partial(_pid_and, fn), jobs, n_threads):
            pids.add(pid)
            yield result

    monkeypatch.setattr(fieldmap, "_pool_map", recording)
    return calls


DESK = GridSpec(0.0, 8.0, 0.0, 8.0, 0.1)


def gains(fmap):
    """The warden gain of every cell, as extract_noncovert's kl mode forms it."""
    meta = fmap.metadata
    r = np.hypot(fmap.spec.xs()[None, :], fmap.spec.ys()[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_sq = (meta["wavelength_m"] / (4.0 * math.pi * r)) ** 2
        return fmap.values * meta["bob_cell_raw_correlation"] * beta_sq / meta["n_antennas"]


def assert_same_region(exact, certified):
    np.testing.assert_array_equal(certified.mask, exact.mask)
    assert certified.n_noncovert == exact.n_noncovert
    assert certified.area_m2 == exact.area_m2
    assert certified.area_fraction == exact.area_fraction


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(["LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"]),
    n=st.sampled_from([8, 16, 64]),
    seed=st.integers(0, 2**16),
    fraction=st.floats(1e-4, 1.0),
    q_quantile=st.floats(0.0, 1.0),
)
def test_certified_mask_equals_float64_mask(scheme, n, seed, fraction, q_quantile):
    g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
    plan = build_plan(scheme, g, BOB, 1e6, seed=seed)
    fmap = evaluate_grid(g, plan, BOB, DESK)
    gain = gains(fmap)
    q = float(np.quantile(gain[gain > 0.0], q_quantile))  # q must be > 0
    with pytest.MonkeyPatch.context() as patch:
        # bands of 16 rows: DESK makes six
        patch.setattr(fieldmap, "_CHUNK", DESK.n_x * 16)
        for mode, value in (("fraction", fraction), ("kl", q)):
            exact = extract_noncovert(fmap, mode, value)
            assert_same_region(exact, noncovert_region(g, plan, BOB, DESK, mode, value))


def test_certified_mask_with_focus_off_grid():
    tiny = GridSpec(0.0, 2.0, 0.0, 2.0, 0.1)
    q = CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q
    with pytest.warns(UserWarning, match="outside the grid"):
        exact = extract_noncovert(evaluate_grid(G, lpa_plan(G), BOB, tiny), "kl", q)
    with pytest.warns(UserWarning, match="outside the grid"):
        assert_same_region(exact, noncovert_region(G, lpa_plan(G), BOB, tiny, "kl", q))
    with pytest.warns(UserWarning, match="outside the grid"):
        with pytest.raises(DomainError, match="focus"):
            noncovert_region(G, lpa_plan(G), BOB, tiny, "fraction", 0.1)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    low=st.floats(1e-3, 1.0),
    high=st.floats(1e-3, 1.0),
)
def test_certified_mask_monotone_in_threshold(seed, low, high):
    low, high = min(low, high), max(low, high)
    plan = random_fda_plan(G, 1e6, seed)
    q = CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q
    for mode, scale in (("fraction", 1.0), ("kl", q)):
        loose = noncovert_region(G, plan, BOB, DESK, mode, low * scale).mask
        strict = noncovert_region(G, plan, BOB, DESK, mode, high * scale).mask
        assert not np.any(strict & ~loose)


@settings(max_examples=10, deadline=None)
@given(f_delta=st.floats(1e3, 1e8))
def test_lpa_mask_invariant_in_increment(f_delta):
    reference = noncovert_region(G, build_plan("LPA", G, BOB, 1e6), BOB, DESK)
    region = noncovert_region(G, build_plan("LPA", G, BOB, f_delta), BOB, DESK)
    np.testing.assert_array_equal(region.mask, reference.mask)


def test_threshold_on_a_cell_value_is_decided_in_float64():
    plan = random_fda_plan(G, 1e6, 6)
    fmap = evaluate_grid(G, plan, BOB, DESK)
    coeffs = fieldmap._phase_coefficients(G, plan, BOB)
    iy, ix = 23, 61  # an ordinary cell: not the focus, not the origin
    x, y = DESK.xs()[ix], DESK.ys()[iy]
    raw32, bound = fieldmap._float32_block(coeffs, fieldmap._Nodes(np.array([x]), np.array([y])))
    ref = fmap.metadata["bob_cell_raw_correlation"]
    beta_sq = (G.wavelength_m / (4.0 * math.pi * math.hypot(x, y))) ** 2
    for mode, on_cell, raw_cut in (
        ("fraction", fmap.values[iy, ix], fmap.values[iy, ix] * ref),
        ("kl", gains(fmap)[iy, ix], gains(fmap)[iy, ix] * G.n_antennas / beta_sq),
    ):
        # the float32 value cannot tell which side the cell is on
        assert abs(raw32[0] - raw_cut) <= fieldmap._SAFETY * bound
        for value, inside in ((on_cell, True), (np.nextafter(on_cell, np.inf), False)):
            exact = extract_noncovert(fmap, mode, float(value))
            assert exact.mask[iy, ix] == inside
            assert_same_region(exact, noncovert_region(G, plan, BOB, DESK, mode, float(value)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    cells=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1, max_size=33),
)
def test_gathered_float64_recompute_matches_full_grid(seed, cells):
    plan = random_fda_plan(G, 1e6, seed)
    coeffs = fieldmap._phase_coefficients(G, plan, BOB)
    xs, ys = DESK.xs(), DESK.ys()
    full = fieldmap._correlation_block(coeffs, xs[None, :], ys[:, None])
    iy, ix = np.array(cells).T
    gathered = fieldmap._correlation_block(coeffs, xs[ix], ys[iy])
    np.testing.assert_array_equal(gathered, full[iy, ix])
    # and so the map's values, normalized by the focus cell alone
    fmap = evaluate_grid(G, plan, BOB, DESK)
    np.testing.assert_array_equal(gathered / fmap.metadata["bob_cell_raw_correlation"],
                                  fmap.values[iy, ix])


FAR = GridSpec(0.0, 40.0, 0.0, 40.0, 0.5)  # the default grid's extent, coarsely


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("scheme", ["LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"])
def test_float32_bound_holds_out_to_the_far_corner(scheme, n):
    # the far field is where |k_n - k0| r, the term the carrier shift keeps, is largest
    g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
    plan = build_plan(scheme, g, BOB, 2e6, seed=1)
    coeffs = fieldmap._phase_coefficients(g, plan, BOB)
    xs = FAR.xs()[None, :]
    for i0 in range(0, FAR.n_y, 16):  # the row blocks noncovert_region forms here
        ys = FAR.ys()[i0:i0 + 16, None]
        nodes = fieldmap._Nodes(xs, ys)
        raw32, bound = fieldmap._float32_block(coeffs, nodes)
        error = np.abs(raw32 - fieldmap._correlation_block(coeffs, xs, ys))
        off_origin = nodes.r > 0.0
        assert np.all(error[off_origin] <= bound[off_origin])
    fmap = evaluate_grid(g, plan, BOB, FAR)
    q = CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q
    for mode, value in (("fraction", 0.1), ("kl", q)):
        assert_same_region(
            extract_noncovert(fmap, mode, value),
            noncovert_region(g, plan, BOB, FAR, mode, value),
        )


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("scheme", ["LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"])
def test_float32_bound_holds_around_the_origin(scheme, n):
    # next to the origin c1 / r, the largest term of the float32 sgemm
    # there, reaches ~1.6e4 rad at r = 0.02 m for N = 64.  The grid holds the origin
    # (nan in both paths) and its nodes run through many blocks of the
    # product, the last one partial
    g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
    plan = build_plan(scheme, g, BOB, 2e6, seed=1)
    coeffs = fieldmap._phase_coefficients(g, plan, BOB)
    grid = GridSpec(-1.0, 3.0, -1.0, 3.0, 0.02)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    nodes = fieldmap._Nodes(xs, ys)
    raw32, bound = fieldmap._float32_block(coeffs, nodes)
    raw64 = fieldmap._correlation_block(coeffs, xs, ys)
    origin = nodes.r == 0.0
    assert np.count_nonzero(origin) == 1 and np.isnan(raw32[origin]).all()
    assert nodes.r[~origin].min() < 0.03
    assert np.all(np.abs(raw32 - raw64)[~origin] <= bound[~origin])


def test_sweep_measures_each_distinct_plan_once(monkeypatch):
    monkeypatch.setenv("FDACOVERT_THREADS", "1")
    measured = []
    noncovert = fieldmap.noncovert_region

    def counting(g, plan, *args):
        measured.append((g, plan.offsets_hz))
        return noncovert(g, plan, *args)

    monkeypatch.setattr(fieldmap, "noncovert_region", counting)
    seeds = (0, 1)
    rows = sweep(
        "f_delta", (0.5e6, 1e6, 2e6), ("LPA", "LinearFDA", "RandomFDA"), G, BOB, 1e6,
        SMALL, seeds=seeds,
    )
    # LPA's plan is the same at every increment
    assert len(measured) == len(set(measured)) == 1 + 3 + 3 * len(seeds)
    for row in rows:
        run_seeds = seeds if row.scheme == "RandomFDA" else (0,)
        fractions = np.array([
            noncovert(G, build_plan(row.scheme, G, BOB, row.value, seed=s), BOB, SMALL)
            .area_fraction
            for s in run_seeds
        ])
        assert (row.mean_area_fraction, row.std_area_fraction) == (
            float(fractions.mean()), float(fractions.std())
        )


def test_sweep_searches_and_measures_a_fixed_box_plan_once(monkeypatch):
    # with box_half_width_hz the OptimizedFDA plan no longer depends on the
    # increment, which must still be finite and > 0
    monkeypatch.setenv("FDACOVERT_THREADS", "1")
    searched, measured = [], []
    build, noncovert = fieldmap.build_plan, fieldmap.noncovert_region

    def counting_build(scheme, *args):
        searched.append(scheme)
        return build(scheme, *args)

    def counting(g, plan, *args):
        measured.append(plan.scheme)
        return noncovert(g, plan, *args)

    monkeypatch.setattr(fieldmap, "build_plan", counting_build)
    monkeypatch.setattr(fieldmap, "noncovert_region", counting)
    schemes = ("LPA", "LinearFDA", "OptimizedFDA")
    rows = sweep(
        "f_delta", (0.5e6, 1e6, 2e6), schemes, G, BOB, 1e6, SMALL, box_half_width_hz=2e5
    )
    assert searched.count("OptimizedFDA") == measured.count("OptimizedFDA") == 1
    assert len(measured) == 1 + 3 + 1
    optimized = [row for row in rows if row.scheme == "OptimizedFDA"]
    assert len(optimized) == 3 and all(row == replace(optimized[0], value=row.value)
                                       for row in optimized)
    plan = build("OptimizedFDA", G, BOB, 1e6, 0, 2e5, RegionSpec(SMALL, "fraction", 0.1))
    assert optimized[0].mean_area_fraction == noncovert(G, plan, BOB, SMALL).area_fraction
    with pytest.raises(DomainError, match="f_delta_hz must be finite and > 0, got 0.0"):
        sweep("f_delta", (1e6, 0.0), schemes, G, BOB, 1e6, SMALL, box_half_width_hz=2e5)


def test_sweep_measures_each_distinct_plan_once_across_processes(monkeypatch, tmp_path):
    # the masks run in forked workers, which log each call to a file
    monkeypatch.setenv("FDACOVERT_THREADS", "3")
    log = tmp_path / "measured.txt"
    noncovert = fieldmap.noncovert_region

    def counting(g, plan, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {g.n_antennas} {plan.offsets_hz}\n")
        return noncovert(g, plan, *args)

    monkeypatch.setattr(fieldmap, "noncovert_region", counting)
    threads = threading.active_count()
    seeds = (0, 1)
    rows = sweep(
        "f_delta", (0.5e6, 1e6, 2e6), ("LPA", "LinearFDA", "RandomFDA"), G, BOB, 1e6,
        SMALL, seeds=seeds,
    )
    pids, measured = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
    assert len(measured) == len(set(measured)) == 1 + 3 + 3 * len(seeds)
    assert str(os.getpid()) not in pids
    assert not multiprocessing.active_children()  # every worker is joined
    assert threading.active_count() == threads  # and the pool's own threads
    monkeypatch.setenv("FDACOVERT_THREADS", "1")
    monkeypatch.setattr(fieldmap, "noncovert_region", noncovert)
    assert rows == sweep(
        "f_delta", (0.5e6, 1e6, 2e6), ("LPA", "LinearFDA", "RandomFDA"), G, BOB, 1e6,
        SMALL, seeds=seeds,
    )


def test_maps_leave_no_worker_or_thread_running(monkeypatch, pool_pids):
    # at 3 threads a value map's four row bands run on forked workers, and a
    # mask's four in this process
    monkeypatch.setattr(fieldmap, "_CHUNK", SMALL.n_x * 40)
    monkeypatch.setenv("FDACOVERT_THREADS", "3")
    plan = random_fda_plan(G, 1e6, 1)
    threads = threading.active_count()
    evaluate_grid(G, plan, BOB, SMALL)
    assert pool_pids[-1] and os.getpid() not in pool_pids[-1]
    assert not multiprocessing.active_children()  # every worker is joined
    assert threading.active_count() == threads
    noncovert_region(G, plan, BOB, SMALL)
    assert pool_pids[-1] == {os.getpid()}
    assert not multiprocessing.active_children()
    assert threading.active_count() == threads


def test_a_map_of_one_band_runs_in_this_process(monkeypatch, pool_pids):
    # a map of at most _CHUNK nodes is one row band at any thread count, and
    # one job starts no pool
    monkeypatch.setenv("FDACOVERT_THREADS", "3")
    assert SMALL.n_cells <= fieldmap._CHUNK
    plan = random_fda_plan(G, 1e6, 1)
    evaluate_grid(G, plan, BOB, SMALL)
    noncovert_region(G, plan, BOB, SMALL)
    assert pool_pids == [{os.getpid()}] * 2


def test_sweep_issues_its_warnings_in_serial_order_across_processes(monkeypatch, pool_pids):
    # Rayleigh extrapolation at N=16 and offset strain at N=64, from the jobs
    # of plans built in this process and of OptimizedFDA's searches
    pools = {}  # thread count -> per _pool_map call in this process, the pids its jobs ran in
    grid = GridSpec(0.0, 12.0, 0.0, 12.0, 0.5)
    schemes = ("LPA", "LinearFDA", "RandomFDA", "OptimizedFDA")
    issued = {}
    for threads in ("1", "3"):
        monkeypatch.setenv("FDACOVERT_THREADS", threads)
        pool_pids.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep("n_antennas", (16, 64), schemes, G, BOB, 1e6, grid, seeds=(0, 1))
        pools[threads] = list(pool_pids)
        issued[threads] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    # one thread forks no worker: the sweep's jobs and every mask's bands run
    # here; at three the sweep's jobs, and the masks in them, run on workers
    assert len(pools["1"]) > 1 and all(pids == {os.getpid()} for pids in pools["1"])
    assert len(pools["3"]) == 1 and os.getpid() not in pools["3"][0]
    # the N=16 rows' five Rayleigh warnings, then the N=64 rows' three strain warnings
    rayleigh = ["Rayleigh" in message for _, message, _, _ in issued["1"]]
    assert rayleigh == [True] * 5 + [False] * 3
    assert issued["1"] == issued["3"]


def test_pool_never_starts_more_workers_than_jobs(monkeypatch, jobs_here):
    # _workers is a pure function, so no process starts at any count
    monkeypatch.setenv("FDACOVERT_THREADS", "100000")
    assert fieldmap._workers(7) == 7
    monkeypatch.setenv("FDACOVERT_THREADS", "2")
    assert fieldmap._workers(7) == 2
    # a map of 40 rows, in bands of 16 rows: three bands, three workers
    asked = []
    pool_map = fieldmap._pool_map

    def recording(fn, jobs, n_threads=None):
        asked.append((len(jobs), fieldmap._workers(len(jobs), n_threads)))
        return pool_map(fn, jobs, n_threads)

    monkeypatch.setattr(fieldmap, "_pool_map", recording)
    monkeypatch.setenv("FDACOVERT_THREADS", "100000")
    grid = GridSpec(0.0, 12.0, 3.0, 6.9, 0.1)
    monkeypatch.setattr(fieldmap, "_CHUNK", grid.n_x * 16)
    assert grid.n_y == 40
    evaluate_grid(G, random_fda_plan(G, 1e6, 1), BOB, grid)
    assert asked == [(3, 3)]


# ------------------------------------------- kl mode: the reach radius r*

KL_Q = CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q  # the default budget's q


@pytest.mark.parametrize(
    "scheme, focus, extent",
    [
        ("LPA", (5.0, 5.0), (4.0, 6.0, 4.0, 6.0)),
        ("RandomFDA", (5.0, 5.0), (4.0, 6.0, 4.0, 6.0)),
        # the focus cell's node at x = 0: its row is the last row within reach
        ("RandomFDA", (1e-9, 7.05), (-1.0, 1.0, 6.0, 8.0)),
    ],
)
def test_kl_reach_boundary_through_the_focus_cell(monkeypatch, scheme, focus, extent):
    # q at the focus cell's own gain puts r* = lambda / (4 pi) sqrt(1 / (q N)),
    # beyond which no cell can be detected, at the focus cell's radius.  The
    # focus lies on (or 1 nm from) a grid node, so that cell's raw value is 1
    # up to rounding, where the reach cut has the least margin.  Bands of
    # about 128 nodes put staircase steps through the focus cell's rows
    monkeypatch.setattr(fieldmap, "_CHUNK", 128)
    bob = PolarPoint(math.hypot(*focus), math.atan2(focus[1], focus[0]))
    around = GridSpec(*extent, 0.05)
    plan = build_plan(scheme, G, bob, 1e6, seed=3)
    fmap = evaluate_grid(G, plan, bob, around)
    iy, ix = fmap.metadata["bob_cell"]
    focus_gain = float(gains(fmap)[iy, ix])
    r_focus = math.hypot(around.xs()[ix], around.ys()[iy])
    r_star = G.wavelength_m / (4.0 * math.pi) * math.sqrt(1.0 / (focus_gain * G.n_antennas))
    assert abs(r_star - r_focus) < around.step_m / 4
    for q, detected in (
        (np.nextafter(focus_gain, 0.0), True),
        (focus_gain, True),
        (np.nextafter(focus_gain, np.inf), False),
    ):
        exact = extract_noncovert(fmap, "kl", float(q))
        assert exact.mask[iy, ix] == detected
        assert_same_region(exact, noncovert_region(G, plan, bob, around, "kl", float(q)))


def test_kl_mask_path_evaluates_only_nodes_within_reach(monkeypatch, screened):
    plan = random_fda_plan(G, 1e6, 1)
    fmap = evaluate_grid(G, plan, BOB, FAR)
    # the kl map in 15 bands of 3 rows, whose staircase steps follow the disc
    monkeypatch.setattr(fieldmap, "_CHUNK", 2 * FAR.n_x)
    r = np.hypot(FAR.xs()[None, :], FAR.ys()[:, None])
    r_star = G.wavelength_m / (4.0 * math.pi) * math.sqrt(1.0 / (KL_Q * G.n_antennas))
    disc = int(np.count_nonzero(r <= r_star))
    assert 0.22 < disc / FAR.n_cells < 0.23  # r* = 21.5 m: the quarter disc's share
    for mode, value in (("kl", KL_Q), ("fraction", 0.1)):
        screened.clear()
        region = noncovert_region(G, plan, BOB, FAR, mode, value)
        assert_same_region(extract_noncovert(fmap, mode, value), region)
        steps = sum(step.size for step, _ in screened)
        if mode == "kl":
            assert len(screened) == 15
            assert disc <= steps < 0.24 * FAR.n_cells
        else:  # the fractional cut never exceeds the focus cell's value
            assert steps == FAR.n_cells


@pytest.mark.parametrize(
    "extent, focus",
    [
        # wholly beyond r* = 21.5 m: no node can be detected, none is evaluated
        ((25.0, 40.0, 25.0, 40.0), (32.0, 32.0)),
        # across both axes, so |x| and |y| fall to 0 and rise again along
        # the rows and columns, and beyond r* on every side
        ((-30.0, 28.0, -26.0, 32.0), (5.0, 5.0)),
    ],
)
def test_kl_column_span_matches_the_value_path(monkeypatch, screened, extent, focus):
    grid = GridSpec(*extent, 0.5)
    bob = PolarPoint(math.hypot(*focus), math.atan2(focus[1], focus[0]))
    plan = random_fda_plan(G, 1e6, 1)
    fmap = evaluate_grid(G, plan, bob, grid)
    for mode, value in (("kl", KL_Q), ("fraction", 0.1)):
        screened.clear()
        region = noncovert_region(G, plan, bob, grid, mode, value)
        assert_same_region(extract_noncovert(fmap, mode, value), region)
        steps = sum(step.size for step, _ in screened)
        if mode == "fraction":
            assert steps == grid.n_cells
        elif extent[0] > 0:
            assert region.n_noncovert == 0 and steps == 0
        else:
            assert region.n_noncovert > 0 and steps < 0.7 * grid.n_cells


@pytest.mark.parametrize("grid", [FAR, GridSpec(-30.0, 28.0, -26.0, 32.0, 0.5)])
def test_mask_path_evaluates_one_rectangle_per_map(monkeypatch, screened, grid):
    # kl mode: one rectangle per map, the rows and columns v whose nodes can
    # lie within reach, is cut into bands of about 1024 nodes, 2 to 15 of
    # them.  Each band's tile screen gets only its staircase step: the
    # rectangle's columns x with cut(hypot(x, m) (1 - 4 eps64)) <= reach,
    # where m is the band's least |y|, cut(r) = q N / beta^2(r) and
    # reach = 1 + 8 (N + 4) eps64.  Every node with
    # cut(r) <= reach is in a step.  Fraction mode's steps are whole bands.
    # _float32_block gets a subset of each step (the screened fixture).
    # Both grids hold x = 0 and y = 0
    monkeypatch.setattr(fieldmap, "_CHUNK", 1024)
    plan = random_fda_plan(G, 1e6, 1)
    eps = np.finfo(float).eps
    reach = 1.0 + 8.0 * (G.n_antennas + 4) * eps

    def cut(r):
        with np.errstate(divide="ignore"):
            return KL_Q * G.n_antennas / fieldmap._beta_sq(G.wavelength_m, r)

    def within(v, m):
        live = np.flatnonzero(cut(np.hypot(v, m) * (1.0 - 4.0 * eps)) <= reach)
        assert np.array_equal(live, np.arange(live[0], live[-1] + 1))
        return slice(live[0], live[-1] + 1)

    xs, ys = grid.xs(), grid.ys()
    r = np.hypot(xs[None, :], ys[:, None])
    rows, cols = within(ys, np.abs(xs).min()), within(xs, np.abs(ys).min())
    band_rows = 1024 // (cols.stop - cols.start)
    steps = []  # (rows, columns) of each band's step
    for i0 in range(rows.start, rows.stop, band_rows):
        band = slice(i0, min(i0 + band_rows, rows.stop))
        step = within(xs[cols], np.abs(ys[band]).min())
        steps.append((band, slice(cols.start + step.start, cols.start + step.stop)))
    staircase = np.zeros(r.shape, dtype=bool)
    for band, step in steps:
        staircase[band, step] = True
    assert staircase[cut(r) <= reach].all()
    assert 0 < staircase.sum() < r[rows, cols].size < grid.n_cells
    band_rows = 1024 // grid.n_x
    for mode, value, expected in (
        ("kl", KL_Q, [r[band, step] for band, step in steps]),
        ("fraction", 0.1, [r[i0:i0 + band_rows] for i0 in range(0, grid.n_y, band_rows)]),
    ):
        screened.clear()
        noncovert_region(G, plan, BOB, grid, mode, value)
        assert len(screened) == len(expected) > 1
        for (step, _), nodes in zip(screened, expected):
            np.testing.assert_array_equal(step, nodes)


@pytest.mark.parametrize(
    "extent, focus, peak",
    [
        # two-sided, with a node at y = 0: the peak's band holds rows on
        # both sides of the x axis
        ((-30.0, 28.0, -26.0, 32.0), (7.0, 0.0), (7.0, 0.0)),
        # no node at y = 0: the peak's band straddles it, its least |y| 0.25 m
        ((-30.0, 28.0, -26.25, 31.75), (7.0, 0.25), (7.0, 0.25)),
        # the peak below the x axis, in the row nearest the axis of a band
        # of negative y only, whose first row is farthest from it
        ((-30.0, 28.0, -26.0, 32.0), (5.0, -4.0), (5.0, -4.0)),
        # only negative x: the focus is off the grid, and its mirror image
        # in the array's axis has the same value
        ((-40.0, -0.5, -12.0, 30.0), (5.0, 5.0), (-5.0, 5.0)),
        # offset from the origin: the least |x| and |y| are 3 and 2 m
        ((3.0, 30.0, 2.0, 35.0), (6.0, 6.0), (6.0, 6.0)),
    ],
)
def test_kl_staircase_matches_the_value_path(monkeypatch, extent, focus, peak):
    # q at the peak cell's own gain puts r* through that cell, whose value
    # is ~1, so it is detected on the edge of its band's staircase step.
    # Bands of at most 128 nodes cut each map into 2 to 8 of them
    monkeypatch.setattr(fieldmap, "_CHUNK", 128)
    bands = []
    mask_band = fieldmap._mask_band

    def recording(coeffs, x, rule, y):
        bands.append(y.ravel())
        return mask_band(coeffs, x, rule, y)

    monkeypatch.setattr(fieldmap, "_mask_band", recording)
    grid = GridSpec(*extent, 0.5)
    bob = PolarPoint(math.hypot(*focus), math.atan2(focus[1], focus[0]))
    plan = random_fda_plan(G, 1e6, 1)
    iy, ix = grid.cell_of(*peak)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "focus point lies outside the grid")
        fmap = evaluate_grid(G, plan, bob, grid)
        q = float(gains(fmap)[iy, ix])
        exact = extract_noncovert(fmap, "kl", q)
        assert_same_region(exact, noncovert_region(G, plan, bob, grid, "kl", q))
    assert exact.mask[iy, ix] and len(bands) > 1
    (band,) = [y for y in bands if peak[1] in y]
    assert (band[0] < 0.0 < band[-1]) == (abs(peak[1]) < 0.5)


def test_kl_band_beyond_reach_is_false_and_unevaluated(monkeypatch):
    # a band whose step is empty: rows beyond r* = 21.5 m over the columns
    # of a two-sided grid.  Its block is full width and False, from no node
    evaluated = []
    float32_block = fieldmap._float32_block

    def counting(coeffs, nodes):
        evaluated.append(nodes.r.size)
        return float32_block(coeffs, nodes)

    monkeypatch.setattr(fieldmap, "_float32_block", counting)
    plan = random_fda_plan(G, 1e6, 1)
    coeffs = fieldmap._phase_coefficients(G, plan, BOB)
    rule = ("kl", KL_Q, 1.0, G.wavelength_m, G.n_antennas)
    x = np.arange(-40.0, 40.5, 0.5)
    block = fieldmap._mask_band(coeffs, x, rule, np.arange(-30.0, -22.0, 0.5)[:, None])
    assert block.shape == (16, x.size) and not block.any()
    assert sum(evaluated) == 0


# ------------------------------------------- the tile screen of the mask path

SCREEN_GRIDS = (
    GridSpec(2.0, 8.0, 2.5, 7.5, 0.1),  # first quadrant, off the axes
    GridSpec(-1.95, 6.05, -0.95, 6.05, 0.1),  # two-sided: tiles straddle both axes
    GridSpec(-1.0, 6.0, -2.0, 6.0, 0.1),  # two-sided, with a node at the origin
)


@pytest.mark.parametrize("n", [1, 2, 16, 64])
@pytest.mark.parametrize("scheme", ["LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"])
def test_tile_screen_at_a_cell_own_value(monkeypatch, jobs_here, scheme, n):
    # the threshold at a cell's own value (fraction t) or gain (kl q), and
    # one ulp to either side, puts the cut through that cell, and so through
    # its tile: a bound that is too tight decides the tile on the wrong side.
    # Bands of 7 rows (fraction mode) leave tiles of fewer than 4 rows at
    # each band's end.  An array of N < 16 elements is the first N elements
    # of a 16-element plan (OptimizedFDA needs N >= 3), in both paths; one
    # element gives |S| = 1 at every node, the least room for the bound
    g = ArrayGeometry(n_antennas=max(n, 16), carrier_hz=3e9)
    plan = build_plan(scheme, g, BOB, 1e6, seed=5)
    phase_coefficients = fieldmap._phase_coefficients
    monkeypatch.setattr(fieldmap, "_phase_coefficients",
                        lambda *args: tuple(c[:n] for c in phase_coefficients(*args)))
    rng = np.random.default_rng(n)
    for grid in SCREEN_GRIDS:
        monkeypatch.setattr(fieldmap, "_CHUNK", 7 * grid.n_x)
        fmap = evaluate_grid(g, plan, BOB, grid)
        finite = np.flatnonzero(np.isfinite(fmap.values) & (fmap.values > 0.0))
        cells = (np.ravel_multi_index(fmap.metadata["bob_cell"], fmap.values.shape),
                 rng.choice(finite))
        for mode, on_cell in (("fraction", fmap.values), ("kl", gains(fmap))):
            for cell in cells:
                value = on_cell.flat[cell]
                for t in (np.nextafter(value, 0.0), value, np.nextafter(value, np.inf)):
                    if mode == "fraction" and not t <= 1.0:
                        continue
                    exact = extract_noncovert(fmap, mode, float(t))
                    assert exact.mask.flat[cell] == (t <= value)
                    assert_same_region(exact, noncovert_region(g, plan, BOB, grid, mode, float(t)))


def test_mask_work_is_pinned_as_node_counts(screened):
    # the nodes _float32_block gets per map on the default grid (801 x 801
    # nodes, bands of 40 rows), RandomFDA plan seed 1 at N = 64.  Measured:
    # 122,164 of the 641,601 step nodes in fraction mode, and 38,224 of the
    # staircase's 156,830 in kl mode.  The bounds leave under 1% for
    # platforms whose float32 sin and cos round differently
    grid = GridSpec(0.0, 40.0, 0.0, 40.0, 0.05)
    plan = random_fda_plan(G, 1e6, 1)
    for mode, value, steps, bound in (
        ("fraction", 0.1, grid.n_cells, 123_000),
        ("kl", KL_Q, 156_830, 38_500),
    ):
        screened.clear()
        noncovert_region(G, plan, BOB, grid, mode, value)
        assert sum(step.size for step, _ in screened) == steps
        assert sum(int(np.count_nonzero(~decided)) for _, decided in screened) <= bound


@pytest.mark.parametrize(
    "parameter, values", [("n_antennas", (16, 64)), ("f_delta", (0.5e6, 2e6))]
)
def test_kl_sweeps_match_the_value_path(parameter, values):
    schemes = ("LPA", "LinearFDA", "RandomFDA", "OptimizedFDA")
    seeds = (0, 1)
    rows = sweep(
        parameter, values, schemes, G, BOB, 1e6, FAR, seeds=seeds,
        threshold_mode="kl", threshold_value=KL_Q,
    )
    assert len(rows) == len(values) * len(schemes)
    target = RegionSpec(FAR, "kl", KL_Q)
    for row in rows:
        if parameter == "n_antennas":
            g, f_delta = replace(G, n_antennas=int(row.value)), 1e6
        else:
            g, f_delta = G, row.value
        run_seeds = seeds if row.scheme == "RandomFDA" else (0,)
        fractions = np.array([
            extract_noncovert(
                evaluate_grid(g, build_plan(row.scheme, g, BOB, f_delta, seed=s, region=target),
                              BOB, FAR),
                "kl", KL_Q,
            ).area_fraction
            for s in run_seeds
        ])
        assert (row.mean_area_fraction, row.std_area_fraction) == (
            float(fractions.mean()), float(fractions.std())
        )


# ---------------------------------------------------- Monte-Carlo rate sampling

def test_monte_carlo_weighs_every_cell_as_area_fraction_does(monkeypatch):
    # a mask of the border cells only: each counts fully in area_fraction, so
    # the warden samples must land on them as often as on interior cells
    tiny = GridSpec(0.0, 1.0, 0.0, 1.0, 0.1)
    border = np.ones((tiny.n_y, tiny.n_x), dtype=bool)
    border[1:-1, 1:-1] = False
    assert border.shape == (11, 11)
    monkeypatch.setattr(
        fieldmap, "noncovert_region",
        lambda g, plan, bob, spec, mode, value: fieldmap._region_result(spec, border),
    )
    n = 200_000
    result = monte_carlo_rate(G, lpa_plan(G), BOB, BUDGET, tiny, n, seed=11)
    f = result.area_fraction
    detected = 1.0 - result.n_covert / n
    assert abs(detected - f) <= 5.0 * math.sqrt(f * (1.0 - f) / n)


@pytest.mark.parametrize("mode", ["fraction", "kl"])
def test_monte_carlo_block_draws_give_the_cells_of_one_draw(mode):
    # the cells are drawn _CHUNK at a time; three whole blocks and an odd
    # remainder must count exactly what one draw of every sample counts
    value = 0.1 if mode == "fraction" else CovertnessBudget(1.0, 100, 1e-9, 0.1).threshold_q
    plan = random_fda_plan(G, 1e6, 7)
    n = 3 * fieldmap._CHUNK + 17
    result = monte_carlo_rate(G, plan, BOB, BUDGET, SMALL, n, seed=5,
                              threshold_mode=mode, threshold_value=value)
    mask = noncovert_region(G, plan, BOB, SMALL, mode, value).mask.ravel()
    cells = np.random.default_rng(5).integers(SMALL.n_cells, size=n)
    assert result.n_covert == n - np.count_nonzero(mask[cells])
    assert 0 < result.n_covert < n


def test_monte_carlo_samples_in_bounded_memory(monkeypatch):
    # one draw of 10^6 cell indices would be an 8 MB int64 array; a block
    # of _CHUNK is 0.26 MB
    mask = np.zeros((SMALL.n_y, SMALL.n_x), dtype=bool)
    mask[::2] = True
    monkeypatch.setattr(
        fieldmap, "noncovert_region",
        lambda g, plan, bob, spec, mode, value: fieldmap._region_result(spec, mask),
    )
    tracemalloc.start()
    try:
        result = monte_carlo_rate(G, lpa_plan(G), BOB, BUDGET, SMALL, 1_000_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < result.n_covert < 1_000_000
    assert peak < 2_000_000


# ------------------------------------------- the value path's table-driven sin/cos

EPS64 = float(np.finfo(float).eps)
STEP = 2.0 * math.pi / fieldmap._TURN_STEPS  # the table's spacing, h
EXACT = fieldmap._EXACT_STEPS * STEP  # ~1.3e7 rad: the reduction is exact below
SCHEMES = ("LPA", "LinearFDA", "RandomFDA", "OptimizedFDA")


def table_sincos(phases):
    phase = np.array(phases, dtype=float).reshape(-1)
    with np.errstate(invalid="ignore"):
        return fieldmap._sincos(phase, fieldmap._sincos_scratch(phase.size))


def libm_sincos(phases):
    with np.errstate(invalid="ignore"):
        return np.cos(phases), np.sin(phases)


def far_corner_phases():
    """Every element's phase at the default grid's far corner, for each scheme."""
    x, y = np.array([40.0]), np.array([40.0])
    phases = []
    for scheme in SCHEMES:
        coeffs = fieldmap._phase_coefficients(G, build_plan(scheme, G, BOB, 1e6, seed=1), BOB)
        phases += [p.copy() for p in fieldmap._element_phases(coeffs, fieldmap._Nodes(x, y))]
    return np.concatenate(phases)


def test_table_sincos_is_within_one_ulp_of_libm():
    rng = np.random.default_rng(5)
    steps = np.array([1, 2, 3, 511, 512, 1023, 1024, 2048, 3071, 4095, 4096, 4097,
                      10**6 + 7, 2**32 + 1, 2**33 - 1], dtype=float)
    on_steps = np.concatenate([steps, -steps, steps + 0.5]) * STEP
    phases = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-20, -1e-12, 1e-8],
        on_steps, np.nextafter(on_steps, np.inf), np.nextafter(on_steps, -np.inf),
        far_corner_phases(),
        [EXACT, -EXACT, np.nextafter(EXACT, 0.0), np.nextafter(EXACT, np.inf)],
        rng.uniform(-5000.0, 5000.0, 100_000), rng.uniform(-EXACT, EXACT, 100_000),
    ])
    for table, libm in zip(table_sincos(phases), libm_sincos(phases)):
        assert np.max(np.abs(table - libm)) <= EPS64


def test_table_sincos_beyond_the_exact_reduction_and_nan_is_libm():
    beyond = np.array([1.5e7, -1.5e7, 1e10, 3.3e12, 1e15, -1e15, 1e300, -1e300,
                       np.nextafter(EXACT + STEP, np.inf), math.nan, math.inf, -math.inf])
    phases = np.concatenate([beyond, [0.25, -3000.0]])  # one call takes both kinds
    table, libm = table_sincos(phases), libm_sincos(phases)
    for t, l in zip(table, libm):
        np.testing.assert_array_equal(t[:beyond.size], l[:beyond.size])  # nan where libm's
        assert np.max(np.abs(t[beyond.size:] - l[beyond.size:])) <= EPS64


@pytest.mark.parametrize("scheme", SCHEMES)
def test_value_path_matches_pointwise_oracle_at_far_corner_and_origin(scheme):
    plan = build_plan(scheme, G, BOB, 1e6, seed=1)
    fmap = evaluate_grid(G, plan, BOB, FAR)
    ref = fmap.metadata["bob_cell_raw_correlation"]
    beta_b = channel_gain_amplitude(G, BOB.r_m)
    last = FAR.n_x - 1
    # the far corner, the cells next to the origin, the other corners, the focus
    for iy, ix in [(last, last), (0, 1), (1, 1), (last, 1), (0, last), (14, 14)]:
        x, y = FAR.xs()[ix], FAR.ys()[iy]
        r = math.hypot(x, y)
        corr = beampattern_at(G, plan, BOB, PolarPoint(r, math.atan2(y, x))) / (
            channel_gain_amplitude(G, r) ** 2 * beta_b**2
        )
        assert fmap.values[iy, ix] * ref == pytest.approx(corr, rel=1e-11)


def libm_correlation_block(coeffs, x, y):
    """The value path with libm's sin and cos, its loop before the table kernel."""
    nodes = fieldmap._Nodes(x, y)
    acc_re, acc_im = np.zeros(nodes.r.shape), np.zeros(nodes.r.shape)
    with np.errstate(invalid="ignore"):
        for phase in fieldmap._element_phases(coeffs, nodes):
            acc_re += np.cos(phase)
            acc_im += np.sin(phase)
    return fieldmap._power(acc_re, acc_im, coeffs[0].size)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_value_path_drifts_from_libm_by_at_most_the_stated_delta(scheme):
    # 5.6e-16 is the largest change the table kernel made to the four
    # default heatmaps' values
    fast = GridSpec(0.0, 12.0, 0.0, 12.0, 0.25)
    plan = build_plan(scheme, G, BOB, 1e6, seed=0)
    coeffs = fieldmap._phase_coefficients(G, plan, BOB)
    xs, ys = fast.xs()[None, :], fast.ys()[:, None]
    fmap = evaluate_grid(G, plan, BOB, fast)
    iy, ix = fmap.metadata["bob_cell"]
    libm = libm_correlation_block(coeffs, xs, ys)
    libm /= libm[iy, ix]
    np.testing.assert_array_equal(np.isnan(fmap.values), np.isnan(libm))
    assert np.nanmax(np.abs(fmap.values - libm)) <= 2.5 * EPS64


@pytest.mark.parametrize("size", [1, 3, 1000, 7000, 16385])
def test_value_path_is_elementwise_across_chunks(size):
    # the 40401 nodes, and 16385 of them, take one element per _sincos call;
    # a few nodes take all 13 elements per call, and 7000 nodes take 4, so
    # that a last, smaller group is left
    g = ArrayGeometry(n_antennas=13, carrier_hz=3e9)
    coeffs = fieldmap._phase_coefficients(g, random_fda_plan(g, 1e6, 2), BOB)
    spec = GridSpec(0.0, 40.0, 0.0, 40.0, 0.2)
    xs, ys = spec.xs(), spec.ys()
    full = fieldmap._correlation_block(coeffs, xs[None, :], ys[:, None])
    rng = np.random.default_rng(size)
    iy, ix = rng.integers(0, spec.n_y, size), rng.integers(0, spec.n_x, size)
    iy[0], ix[0] = 0, 0  # the origin, nan
    iy[-1], ix[-1] = spec.n_y - 1, spec.n_x - 1
    gathered = fieldmap._correlation_block(coeffs, xs[ix], ys[iy])
    np.testing.assert_array_equal(gathered, full[iy, ix])
    assert gathered.base is None  # no view that keeps the kernel's workspace alive


def test_mask_path_recomputes_no_node_with_a_far_focus():
    # a focus 50 km away puts the phases beyond the range _sincos takes
    # unchecked, and no node of this grid lies near the cut, so the float64
    # recompute gets an empty node set
    g = ArrayGeometry(n_antennas=16, carrier_hz=28e9)
    bob = PolarPoint(50000.0, math.radians(10.0))
    spec = GridSpec(1.0, 1.2, 1.0, 1.2, 0.1)
    plan = lpa_plan(g)
    with pytest.warns(UserWarning, match="outside the grid"):
        exact = extract_noncovert(evaluate_grid(g, plan, bob, spec), "kl", 1e-20)
    with pytest.warns(UserWarning, match="outside the grid"):
        assert_same_region(exact, noncovert_region(g, plan, bob, spec, "kl", 1e-20))
    coeffs = fieldmap._phase_coefficients(g, plan, bob)
    assert fieldmap._correlation_block(coeffs, np.empty(0), np.empty(0)).shape == (0,)


def test_value_path_is_elementwise_across_chunks_of_a_large_grid():
    # 8 x (_CHUNK // 512 + 1) rows of 512 nodes: evaluate_grid cuts them
    # into nine bands of _CHUNK // 512 rows, the last of 8 rows, and each
    # band's values must equal the whole grid's, taken in one piece, as must
    # those of _CHUNK + 1 gathered nodes
    chunk = fieldmap._CHUNK
    n_x, n_y = 512, 8 * (chunk // 512 + 1)
    spec = GridSpec(0.0, 0.25 * (n_x - 1), 0.0, 0.25 * (n_y - 1), 0.25)
    assert (spec.n_x, spec.n_y) == (n_x, n_y) and n_y // 8 * n_x > chunk
    g = ArrayGeometry(n_antennas=13, carrier_hz=3e9)
    plan = random_fda_plan(g, 1e6, 2)
    coeffs = fieldmap._phase_coefficients(g, plan, BOB)
    xs, ys = spec.xs(), spec.ys()
    full = fieldmap._correlation_block(coeffs, xs[None, :], ys[:, None])
    rng = np.random.default_rng(chunk)
    iy, ix = rng.integers(0, n_y, chunk + 1), rng.integers(0, n_x, chunk + 1)
    iy[0], ix[0] = 0, 0  # the origin, nan
    np.testing.assert_array_equal(fieldmap._correlation_block(coeffs, xs[ix], ys[iy]),
                                  full[iy, ix])
    for n_threads in (1, 3):
        fmap = evaluate_grid(g, plan, BOB, spec, n_threads=n_threads)
        normalizer = fmap.metadata["bob_cell_raw_correlation"]
        assert normalizer == full[fmap.metadata["bob_cell"]]
        np.testing.assert_array_equal(fmap.values, full / normalizer)


def test_default_worker_count_follows_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("FDACOVERT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fieldmap.resolve_threads() == 1
