"""Grid engine: beampattern maps, non-covert regions, sweeps, Monte Carlo."""

import math

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
BUDGET = LinkBudget(0.1, 1e-9, 1e-9, 100, 1e-5)


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


def test_map_determinism_and_thread_invariance():
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
    assert fmap.mask is region.mask


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

from fdacovert import build_plan, fieldmap, noncovert_region  # noqa: E402

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
    threads=st.sampled_from([1, 3]),
)
def test_certified_mask_equals_float64_mask(scheme, n, seed, fraction, q_quantile, threads):
    g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
    plan = build_plan(scheme, g, BOB, 1e6, seed=seed)
    fmap = evaluate_grid(g, plan, BOB, DESK)
    gain = gains(fmap)
    q = float(np.quantile(gain[gain > 0.0], q_quantile))  # q must be > 0
    for mode, value in (("fraction", fraction), ("kl", q)):
        exact = extract_noncovert(fmap, mode, value)
        certified = noncovert_region(g, plan, BOB, DESK, mode, value, n_threads=threads)
        assert_same_region(exact, certified)


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
