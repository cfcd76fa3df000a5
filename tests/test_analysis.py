import math

import numpy as np
import pytest
from scipy import stats

from airvote import analysis
from airvote.analysis import (
    BoundParams,
    air_detect,
    comm_cost,
    convergence_bound,
    convergence_tau,
    error_prob_bound,
    error_prob_intermediate_bound,
    exact_error_prob,
    exact_error_prob_weighted,
    failure_prob_bound,
    mc_error_prob,
    mc_error_prob_gaussian,
    mc_flip_prob,
    mc_mean_energy,
    mean_energy,
    run_error_prob_suite,
    run_flip_prob_suite,
)
from airvote.channel import FADING_MODES, ChannelConfig
from airvote.phy import SYMBOL_ENERGY, build_subcarrier_map


# ---------------------------------------------------------------------------
# Mean bin energy
# ---------------------------------------------------------------------------

def test_mean_energy_values():
    assert mean_energy(5, 2.0, 1.0, 1.0) == pytest.approx(11.0)
    assert mean_energy(0, 2.0, 1.0, 0.3) == pytest.approx(0.3)


def test_mean_energy_rejects_negative():
    with pytest.raises(ValueError):
        mean_energy(-1, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mean_energy(5, 2.0, -1.0, 1.0)


def test_mc_mean_energy_matches_closed_form():
    estimate = mc_mean_energy(5, 1.0, 1.0, trials=100_000, seed=0)
    assert estimate == pytest.approx(11.0, rel=0.02)


def test_mean_energy_depends_only_on_mean_power():
    # Spread per-device powers with mean 2 fill a bin like five devices at
    # power 2: 100 frames of 1024 coordinates through the production kernel.
    powers = np.array([0.5, 1.0, 2.0, 3.0, 3.5])
    frames = 100
    result = air_detect(
        np.ones((frames, 5, 1024), dtype=np.int8), powers, build_subcarrier_map(1024, 64, 32),
        ChannelConfig(noise_var=0.5), [np.random.default_rng((1, m)) for m in range(5)],
        [np.random.default_rng((2, f)) for f in range(frames)],
    )
    assert result.e_plus.mean() == pytest.approx(mean_energy(5, 2.0, 2.0, 0.5), rel=0.02)


def test_mc_mean_energy_noise_only():
    estimate = mc_mean_energy(0, 1.0, 0.7, trials=50_000, seed=2)
    assert estimate == pytest.approx(0.7, rel=0.02)


# ---------------------------------------------------------------------------
# Single-device flip probability
# ---------------------------------------------------------------------------

def test_failure_prob_bound_values():
    assert failure_prob_bound(2.0) == pytest.approx(1.0 / 18.0)
    assert failure_prob_bound(1.0) == pytest.approx(0.2113248654051871, abs=1e-12)


def test_failure_prob_bound_continuous_at_branch_point():
    r = 2.0 / math.sqrt(3.0)
    assert failure_prob_bound(r - 1e-9) == pytest.approx(failure_prob_bound(r + 1e-9), abs=1e-6)
    assert failure_prob_bound(r) == pytest.approx(1.0 / 6.0)


def test_failure_prob_bound_below_half():
    for r in np.logspace(-3, 3, 50):
        assert 0.0 < failure_prob_bound(float(r)) < 0.5


def test_failure_prob_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        failure_prob_bound(0.0)


def test_mc_flip_prob_dominated_by_bound():
    # R = sqrt(128) * 0.1 / 0.8 = sqrt(2)
    estimate, stderr = mc_flip_prob(0.1, 0.8, 128, trials=100_000, seed=3)
    grad_snr = math.sqrt(128) * 0.1 / 0.8
    assert grad_snr == pytest.approx(math.sqrt(2.0))
    assert estimate <= failure_prob_bound(grad_snr)
    # and the estimate should sit near the Gaussian truth Phi(-R)
    assert estimate == pytest.approx(stats.norm.cdf(-grad_snr), abs=4 * stderr)


def test_mc_flip_prob_validates():
    with pytest.raises(ValueError):
        mc_flip_prob(0.0, 1.0, 4, 1000, seed=0)
    with pytest.raises(ValueError):
        mc_flip_prob(0.1, -1.0, 4, 1000, seed=0)


# ---------------------------------------------------------------------------
# Majority-vote error probability
# ---------------------------------------------------------------------------

def test_error_prob_bound_spot_value():
    assert error_prob_bound(31, 2.0, 3.0) == pytest.approx(0.09173718825271866, abs=1e-10)


def test_error_prob_bound_limit():
    # Large cohort and clean channel: bound approaches sqrt(2)/(6R).
    value = error_prob_bound(10**9, 1e12, 3.0)
    assert value == pytest.approx(math.sqrt(2.0) / 18.0, rel=1e-6)


def test_error_prob_bound_positive_over_grid():
    for devices in (1, 5, 31):
        for snr in (0.1, 1.0, 100.0):
            for grad_snr in (0.2, 1.0, 20.0):
                assert error_prob_bound(devices, snr, grad_snr) > 0.0


def test_error_prob_bound_validates():
    with pytest.raises(ValueError):
        error_prob_bound(0, 2.0, 3.0)
    with pytest.raises(ValueError):
        error_prob_bound(31, -2.0, 3.0)
    with pytest.raises(ValueError):
        error_prob_bound(31, 2.0, 0.0)


def test_exact_error_prob_formula():
    # (K*q + 1/snr) / (K + 2/snr)
    assert exact_error_prob(31, 2.0, 0.2) == pytest.approx((31 * 0.2 + 0.5) / 32.0)
    assert exact_error_prob(31, 2.0, 0.2) > error_prob_intermediate_bound(31, 2.0, 0.2)


def test_closed_forms_reach_their_limits_at_extreme_snr():
    # 1/snr overflows at a subnormal snr, snr*K at a huge one.
    for form in (exact_error_prob, error_prob_intermediate_bound):
        assert form(31, 1e-320, 0.2) == 0.5
    assert exact_error_prob(31, 1e308, 0.2) == pytest.approx(0.2, rel=1e-12)
    assert exact_error_prob(31, math.inf, 0.2) == pytest.approx(0.2, rel=1e-12)
    assert error_prob_intermediate_bound(31, 1e308, 0.2) == pytest.approx(0.16, rel=1e-12)


def test_exact_error_prob_weighted_formula():
    powers, flips = [0.5, 1.0, 2.0, 3.0, 4.0], [0.05, 0.1, 0.2, 0.3, 0.45]
    expected = (np.dot(powers, flips) + 0.5) / (sum(powers) + 1.0)
    assert exact_error_prob_weighted(powers, flips, 2.0) == pytest.approx(expected, rel=1e-12)
    # equal powers: the constant-power law, whatever the common power
    assert exact_error_prob_weighted([3.0] * 31, [0.2] * 31, 2.0 / 3.0) == pytest.approx(
        exact_error_prob(31, 2.0, 0.2), rel=1e-12
    )
    # a device that opposes the true sign is covered too
    assert exact_error_prob_weighted([1.0, 1.0], [0.0, 1.0], 1e308) == pytest.approx(0.5)


def test_exact_error_prob_weighted_validates():
    for powers, flips, snr in (([1.0], [0.1, 0.2], 2.0), ([], [], 2.0), ([0.0], [0.1], 2.0),
                               ([-1.0, 2.0], [0.1, 0.1], 2.0), ([1.0], [1.5], 2.0), ([1.0], [0.1], 0.0),
                               ([np.inf], [0.1], 2.0), ([1.0], [0.1], np.nan)):
        with pytest.raises(ValueError):
            exact_error_prob_weighted(powers, flips, snr)


def test_kernel_matches_weighted_error_law_with_unequal_powers():
    # The power-control path: spread powers and per-device flip rates through
    # the production kernel under per-bin fading, 262,144 trials.
    powers = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    flips = np.array([0.05, 0.1, 0.2, 0.3, 0.45])
    snr, frames, mapping = 2.0, 256, build_subcarrier_map(1024, 64, 32)
    rng = np.random.default_rng(31)
    signs = np.where(rng.random((frames, 5, 1024)) < flips[:, None], -1, 1).astype(np.int8)
    votes = air_detect(
        signs, powers, mapping, ChannelConfig(noise_var=SYMBOL_ENERGY / snr, fading="per_bin"),
        [np.random.default_rng((32, m)) for m in range(5)], [np.random.default_rng((33, f)) for f in range(frames)],
    ).votes
    estimate = float(np.mean(votes != 1))
    stderr = math.sqrt(estimate * (1.0 - estimate) / votes.size)
    assert estimate == pytest.approx(exact_error_prob_weighted(powers, flips, snr), abs=4 * stderr)


@pytest.mark.parametrize("fading", FADING_MODES)
def test_kernel_draws_only_the_documented_values(fading):
    # Frame generators draw the lit bins' gains (real parts, then imaginary
    # parts), one timing offset per device, then the noise of the map's
    # bins, none of the 4 bins the 6-coordinate map leaves unused; device
    # generators draw their symbol phases frame after frame.
    devices, frames, coordinates = 3, 4, 6
    signs = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=(frames, devices, coordinates))
    channel = ChannelConfig(noise_var=0.5, sync_error_max=0.2, fading=fading)
    device_rngs = [np.random.default_rng((1, m)) for m in range(devices)]
    frame_rngs = [np.random.default_rng((2, f)) for f in range(frames)]
    air_detect(signs, np.ones(devices), build_subcarrier_map(coordinates, 16, 1), channel, device_rngs, frame_rngs)
    gains = {"per_bin": (devices, coordinates), "per_frame": (devices,), "none": None}[fading]
    for f, rng in enumerate(frame_rngs):
        replay = np.random.default_rng((2, f))
        if gains is not None:
            replay.standard_normal(gains)
            replay.standard_normal(gains)
        replay.uniform(0.0, 0.2, size=devices)
        replay.standard_normal((2, coordinates))
        replay.standard_normal((2, coordinates))
        assert rng.bit_generator.state == replay.bit_generator.state
    for m, rng in enumerate(device_rngs):
        replay = np.random.default_rng((1, m))
        replay.uniform(0.0, 2.0 * np.pi, size=(frames, coordinates))
        assert rng.bit_generator.state == replay.bit_generator.state


def test_mc_error_prob_single_device_passthrough():
    estimate, stderr = mc_error_prob(1, 0.1, 1e9, trials=20_000, seed=4)
    assert estimate == pytest.approx(0.1, abs=4 * max(stderr, 1e-4))


def test_mc_error_prob_near_zero_in_clean_regime():
    estimate, _ = mc_error_prob(31, 0.001, 1e4, trials=10_000, seed=5)
    assert estimate <= 0.005


@pytest.mark.parametrize(
    "devices,snr,q",
    [(5, 0.5, 0.05), (31, 2.0, 0.2), (15, 8.0, 0.4), (31, 0.5, 0.4)],
)
def test_mc_error_prob_matches_exact_closed_form(devices, snr, q):
    # The simulator must reproduce the exact exponential-energy statistics.
    estimate, stderr = mc_error_prob(devices, q, snr, trials=20_000, seed=(6, devices))
    assert estimate == pytest.approx(exact_error_prob(devices, snr, q), abs=4.5 * stderr)


def test_mc_error_prob_validates():
    with pytest.raises(ValueError):
        mc_error_prob(31, 0.6, 2.0, 10_000, seed=0)
    with pytest.raises(ValueError):
        mc_error_prob(31, 0.0, 2.0, 10_000, seed=0)
    with pytest.raises(ValueError):
        mc_error_prob(31, 0.1, 2.0, 999, seed=0)


def test_oracle_block_size_does_not_change_estimates(monkeypatch):
    # 2,500 trials fill three 1024-coordinate frames, the last one padded;
    # at 5 devices the default block holds all three, at 1 byte one each.
    def estimates():
        return (
            mc_error_prob(5, 0.2, 2.0, 2500, seed=(8, 5)),
            mc_error_prob_gaussian(5, 0.5, 2.0, 2500, seed=(8, 6)),
            mc_mean_energy(5, 1.5, 1.0, 2500, seed=(8, 7)),
        )

    whole = estimates()
    monkeypatch.setattr(analysis, "BLOCK_BYTES", 1)
    assert estimates() == whole


def test_mc_error_prob_gaussian_dominated_by_bound():
    estimate, stderr = mc_error_prob_gaussian(31, 3.0, 2.0, trials=10_000, seed=7)
    assert estimate <= error_prob_bound(31, 2.0, 3.0) + 3.0 * stderr


# ---------------------------------------------------------------------------
# Convergence-rate evaluator
# ---------------------------------------------------------------------------

def make_params(**overrides):
    base = dict(
        num_devices=31,
        snr=2.0,
        rounds=1000,
        gamma=1.0,
        smoothness_l1=4.0,
        sigma_l1=2.0,
        loss_gap=3.0,
    )
    base.update(overrides)
    return BoundParams(**base)


def test_convergence_tau_spot_value():
    assert convergence_tau(31, 2.0, 1.0) == pytest.approx(1.032258064516129, abs=1e-12)


def test_convergence_bound_scales_with_rounds():
    ratio = convergence_bound(make_params(rounds=2000)) / convergence_bound(make_params(rounds=1000))
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_convergence_bound_clean_channel_limit():
    params = make_params(num_devices=10**9, snr=1e12, rounds=400)
    expected = (
        math.sqrt(params.smoothness_l1) * (params.loss_gap + 0.5)
        + (2.0 * math.sqrt(2.0) / 6.0) * params.sigma_l1
    ) / math.sqrt(params.rounds)
    assert convergence_bound(params) == pytest.approx(expected, rel=1e-6)


def test_convergence_bound_monotonicity():
    for snr_lo, snr_hi in [(0.5, 1.0), (1.0, 4.0), (4.0, 32.0)]:
        assert convergence_bound(make_params(snr=snr_hi)) < convergence_bound(make_params(snr=snr_lo))
    for n_lo, n_hi in [(100, 200), (200, 1000)]:
        assert convergence_bound(make_params(rounds=n_hi)) < convergence_bound(make_params(rounds=n_lo))
    for s_lo, s_hi in [(1.0, 2.0), (2.0, 10.0)]:
        assert convergence_bound(make_params(sigma_l1=s_hi)) > convergence_bound(make_params(sigma_l1=s_lo))


def test_convergence_bound_strict_derivation():
    params = make_params(batch_size=64)
    loose = convergence_bound(params)
    strict = convergence_bound(params, strict_derivation=True)
    trailing = (2.0 * math.sqrt(2.0) / 6.0) * params.sigma_l1 / math.sqrt(params.rounds)
    assert loose - strict == pytest.approx(trailing * (1.0 - 1.0 / 8.0), rel=1e-12)
    with pytest.raises(ValueError):
        convergence_bound(make_params(), strict_derivation=True)


def test_bound_params_positivity():
    with pytest.raises(ValueError):
        make_params(snr=0.0)
    with pytest.raises(ValueError):
        make_params(rounds=0)


# ---------------------------------------------------------------------------
# Communication cost
# ---------------------------------------------------------------------------

def test_comm_cost_values():
    assert comm_cost("signsgd_mv", 31, 10_000) == 620_000
    assert comm_cost("sgd", 1, 1) == 64
    assert comm_cost("qsgd", 31, 100) == 24_730
    assert comm_cost("terngrad", 31, 100) == comm_cost("qsgd", 31, 100)


def test_comm_cost_compression_ratio():
    for devices in (1, 5, 31):
        for dim in (10, 1000, 123_457):
            assert comm_cost("sgd", devices, dim) == 32 * comm_cost("signsgd_mv", devices, dim)


def test_comm_cost_validates():
    with pytest.raises(ValueError):
        comm_cost("fedavg", 31, 100)
    with pytest.raises(ValueError):
        comm_cost("sgd", 0, 100)


# ---------------------------------------------------------------------------
# Suite smoke checks
# ---------------------------------------------------------------------------

def test_flip_prob_suite_all_pass_small():
    rows = run_flip_prob_suite(trials=5_000, seed=0)
    assert len(rows) == 7
    assert all(r["passed"] for r in rows)


def test_error_prob_suite_structure():
    rows = run_error_prob_suite(trials=2_000, seed=0)
    assert len(rows) == 27
    # the simulator itself must track the exact closed form everywhere
    for row in rows:
        assert row["estimate"] == pytest.approx(row["exact"], abs=5 * max(row["stderr"], 1e-4))
        assert row["below_half"]
    # the attenuated comparison target is only beaten at small flip rates
    assert all(r["passed"] for r in rows if r["flip_prob"] == 0.05)
