"""Channel vectors, MRT beamforming, SNR and the finite-blocklength rate."""

import math

import numpy as np
import pytest

from fdacovert import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ChannelVector,
    DomainError,
    FrequencyPlan,
    LinkBudget,
    PolarPoint,
    beam_gain,
    channel_gain_amplitude,
    channel_vector,
    covert_rate,
    covert_rate_components,
    dbm_to_watts,
    element_channel,
    inverse_q,
    linear_fda_plan,
    lpa_plan,
    mrt_weights,
    random_fda_plan,
    snr_bob,
    watts_to_dbm,
)

G = ArrayGeometry(n_antennas=64, carrier_hz=3e9)
BOB = PolarPoint(7.0711, math.radians(45.0))
BUDGET = LinkBudget(
    transmit_power_w=0.1,
    noise_bob_w=1e-9,
    blocklength=100,
    frame_error_prob=1e-5,
)


def test_dbm_conversions():
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
    assert dbm_to_watts(-60.0) == pytest.approx(1e-9, rel=1e-12)
    assert watts_to_dbm(dbm_to_watts(7.3)) == pytest.approx(7.3, rel=1e-12)


def test_element_channel_first_element_real():
    h = element_channel(G, 1, 3e9, BOB)
    beta = channel_gain_amplitude(G, BOB.r_m)
    assert h == pytest.approx(beta + 0j, rel=1e-15)


def test_element_channel_unit_modulus_phase():
    for f_n in (3e9, 3e9 + 1e6, 3e9 - 32e6):
        for n in (1, 2, 17, 64):
            h = element_channel(G, n, f_n, BOB)
            assert abs(h) == pytest.approx(channel_gain_amplitude(G, BOB.r_m), rel=1e-12)


def test_element_channel_two_element_phase():
    g = ArrayGeometry(n_antennas=2, carrier_hz=3e9)
    p = PolarPoint(10.0, 0.0)
    h = element_channel(g, 2, 3e9, p)
    # hand arithmetic: path excess = d^2/(2r), phase = -2 pi f_c d^2 / (2 r c)
    expected = -2 * math.pi * 3e9 * g.spacing_m**2 / (2 * p.r_m * SPEED_OF_LIGHT)
    assert math.atan2(h.imag, h.real) == pytest.approx(expected, rel=1e-9)


def test_channel_vector_squared_norm():
    for plan in (lpa_plan(G), linear_fda_plan(G, 1e6), random_fda_plan(G, 1e6, 3)):
        h = channel_vector(G, plan, BOB)
        beta = channel_gain_amplitude(G, BOB.r_m)
        assert h.squared_norm() == pytest.approx(beta**2 / G.n_antennas, rel=1e-12)


def test_lpa_equals_zero_increment_linear():
    h1 = channel_vector(G, lpa_plan(G), BOB)
    h2 = channel_vector(G, linear_fda_plan(G, 0.0), BOB)
    np.testing.assert_array_equal(h1.entries, h2.entries)


def test_single_offset_changes_single_entry():
    base = lpa_plan(G)
    offs = [0.0] * G.n_antennas
    offs[10] = 2e5
    bumped = FrequencyPlan(tuple(offs), "OptimizedFDA")
    h0 = channel_vector(G, base, BOB)
    h1 = channel_vector(G, bumped, BOB)
    diff = np.nonzero(h0.entries != h1.entries)[0]
    assert list(diff) == [10]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plan_rejects_non_finite_offsets(bad):
    offs = [0.0] * G.n_antennas
    offs[10] = bad
    with pytest.raises(DomainError, match="finite"):
        FrequencyPlan(tuple(offs), "OptimizedFDA")


def test_channel_vector_stacks_element_channels():
    plan = random_fda_plan(G, 1e6, 9)
    h = channel_vector(G, plan, BOB)
    freqs = plan.frequencies_hz(G)
    for n in (1, 2, 33, 64):
        expected = element_channel(G, n, float(freqs[n - 1]), BOB) / G.n_antennas
        assert h.entries[n - 1] == pytest.approx(expected, rel=1e-12)


def test_channel_vector_length_mismatch():
    plan_small = lpa_plan(ArrayGeometry(n_antennas=8, carrier_hz=3e9))
    with pytest.raises(DomainError):
        channel_vector(G, plan_small, BOB)


def test_mrt_unit_norm_and_matched_gain():
    # matched-filter equality holds for every plan and geometry
    for g in (G, ArrayGeometry(n_antennas=7, carrier_hz=28e9)):
        for plan in (lpa_plan(g), linear_fda_plan(g, 1e6), random_fda_plan(g, 1e6, 0)):
            h = channel_vector(g, plan, BOB)
            w = mrt_weights(h)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert beam_gain(h, w) == pytest.approx(h.squared_norm(), rel=1e-12)


def test_mrt_scale_invariant():
    h = channel_vector(G, lpa_plan(G), BOB)
    scaled = ChannelVector(entries=3.5 * h.entries)
    np.testing.assert_allclose(mrt_weights(h), mrt_weights(scaled), rtol=1e-13)


def test_mrt_rejects_zero_vector():
    zero = ChannelVector(entries=np.zeros(4, dtype=complex))
    with pytest.raises(DomainError):
        mrt_weights(zero)


def test_beam_gain_cauchy_schwarz():
    plan = random_fda_plan(G, 1e6, 5)
    w = mrt_weights(channel_vector(G, plan, BOB))
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = PolarPoint(rng.uniform(1, 30), rng.uniform(-1.2, 1.2))
        h = channel_vector(G, plan, p)
        assert beam_gain(h, w) <= h.squared_norm() * (1 + 1e-12)


def test_beam_gain_common_phase_invariant():
    plan = linear_fda_plan(G, 1e6)
    h = channel_vector(G, plan, BOB)
    w = mrt_weights(h)
    rotated = ChannelVector(entries=np.exp(1j * 0.7) * h.entries)
    assert beam_gain(rotated, w) == pytest.approx(beam_gain(h, w), rel=1e-12)


def test_beam_gain_length_mismatch():
    h = channel_vector(G, lpa_plan(G), BOB)
    with pytest.raises(DomainError):
        beam_gain(h, np.ones(8) / math.sqrt(8))


def test_snr_bob_reference_value():
    # independent arithmetic: gamma = P_t beta^2(r_b) / (N sigma_b^2)
    beta = (SPEED_OF_LIGHT / 3e9) / (4 * math.pi * BOB.r_m)
    expected = 0.1 * beta**2 / (64 * 1e-9)
    assert expected == pytest.approx(1.976, abs=2e-3)
    h = channel_vector(G, lpa_plan(G), BOB)
    w = mrt_weights(h)
    assert snr_bob(BUDGET, h, w) == pytest.approx(expected, rel=1e-10)


def test_snr_scales_linearly_with_power():
    h = channel_vector(G, lpa_plan(G), BOB)
    w = mrt_weights(h)
    doubled = LinkBudget(0.2, 1e-9, 100, 1e-5)
    assert snr_bob(doubled, h, w) == pytest.approx(2 * snr_bob(BUDGET, h, w), rel=1e-12)


def test_snr_inverse_in_antenna_count():
    gammas = {}
    for n in (16, 32, 64):
        g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
        h = channel_vector(g, lpa_plan(g), BOB)
        gammas[n] = snr_bob(BUDGET, h, mrt_weights(h))
    assert gammas[32] == pytest.approx(gammas[64] * 2, rel=1e-10)
    assert gammas[16] == pytest.approx(gammas[64] * 4, rel=1e-10)


def test_covert_rate_median_delta_is_shannon():
    for gamma in (0.3, 1.98, 10.0):
        assert covert_rate(gamma, 100, 0.5) == math.log2(1 + gamma)


def test_covert_rate_zero_snr():
    assert covert_rate(0.0, 100, 1e-5) == 0.0


def test_covert_rate_reference_value():
    # quantile oracle: Q^-1(1e-5) ~ 4.265 (normal tail)
    assert inverse_q(1e-5) == pytest.approx(4.2649, abs=1e-3)
    beta = (SPEED_OF_LIGHT / 3e9) / (4 * math.pi * BOB.r_m)
    gamma = 0.1 * beta**2 / (64 * 1e-9)
    assert covert_rate(gamma, 100, 1e-5) == pytest.approx(0.99, abs=1e-2)


def test_covert_rate_monotone_in_snr_and_blocklength():
    rates_gamma = [covert_rate(g, 100, 1e-5) for g in np.linspace(0.2, 20.0, 20)]
    assert all(a < b for a, b in zip(rates_gamma, rates_gamma[1:]))
    rates_len = [covert_rate(1.98, L, 1e-5) for L in np.unique(np.geomspace(10, 1e5, 20).astype(int))]
    assert all(a < b for a, b in zip(rates_len, rates_len[1:]))


def test_covert_rate_clamps_and_reports_raw():
    shannon, backoff, raw = covert_rate_components(0.01, 2, 1e-9)
    assert raw < 0
    assert covert_rate(0.01, 2, 1e-9) == 0.0
    assert shannon == pytest.approx(math.log2(1.01), rel=1e-12)
    assert backoff > 0


def test_covert_rate_rejects_bad_delta():
    with pytest.raises(DomainError):
        covert_rate(1.0, 100, 0.0)
    with pytest.raises(DomainError):
        covert_rate(1.0, 100, 1.0)


def test_inverse_q_accuracy():
    # sanity against the erfc identity Q(x) = erfc(x/sqrt 2)/2 on a log sweep
    from scipy.special import erfc

    for delta in np.geomspace(1e-9, 0.5, 25):
        x = inverse_q(float(delta))
        assert 0.5 * erfc(x / math.sqrt(2)) == pytest.approx(delta, rel=1e-10)


def test_large_offset_warning():
    plan = random_fda_plan(G, 2e6, 11)  # spans +-64 MHz >> f_c/100 = 30 MHz
    with pytest.warns(UserWarning, match="exceed"):
        plan.frequencies_hz(G)


def test_link_budget_validation():
    with pytest.raises(DomainError):
        LinkBudget(0.0, 1e-9, 100, 1e-5)
    with pytest.raises(DomainError):
        LinkBudget(0.1, 1e-9, 0, 1e-5)
    with pytest.raises(DomainError):
        LinkBudget(0.1, 1e-9, 100, 1.5)
