import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
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
    mc_flip_prob,
    mc_mean_energy,
    mean_energy,
    run_error_prob_suite,
    run_flip_prob_suite,
)
from airvote.channel import FADING_MODES, ChannelConfig
from airvote.phy import SYMBOL_ENERGY, PhyConfig


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
        np.ones((5, frames * 1024), dtype=np.int8), powers, PhyConfig(num_subcarriers=64, num_symbols=32),
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
    snr, frames, phy = 2.0, 256, PhyConfig(num_subcarriers=64, num_symbols=32)
    rng = np.random.default_rng(31)
    signs = np.where(rng.random((frames, 5, 1024)) < flips[:, None], -1, 1).astype(np.int8)
    votes = air_detect(
        signs.transpose(1, 0, 2).reshape(5, -1), powers, phy, ChannelConfig(noise_var=SYMBOL_ENERGY / snr, fading="per_bin"),
        [np.random.default_rng((32, m)) for m in range(5)], [np.random.default_rng((33, f)) for f in range(frames)],
    ).votes
    estimate = float(np.mean(votes != 1))
    stderr = math.sqrt(estimate * (1.0 - estimate) / votes.size)
    assert estimate == pytest.approx(exact_error_prob_weighted(powers, flips, snr), abs=4 * stderr)


@pytest.mark.parametrize("fading", FADING_MODES)
def test_kernel_draws_only_the_documented_values(fading):
    # Frame generators draw the lit bins' gains (real parts, then imaginary
    # parts), one timing offset per device, then the noise of the frame's
    # bins; device generators draw their symbol phases frame after frame.
    # 22 coordinates fill four 6-coordinate frames, the last one padded.
    devices, frames, coordinates = 3, 4, 6
    signs = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=(devices, 22))
    channel = ChannelConfig(noise_var=0.5, sync_error_max=0.2, fading=fading)
    device_rngs = [np.random.default_rng((1, m)) for m in range(devices)]
    frame_rngs = [np.random.default_rng((2, f)) for f in range(frames)]
    phy = PhyConfig(num_subcarriers=2 * coordinates, num_symbols=1)
    air_detect(signs, np.ones(devices), phy, channel, device_rngs, frame_rngs)
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


# ---------------------------------------------------------------------------
# The kernel's frame contract
# ---------------------------------------------------------------------------

def _kernel(signs, powers, phy, channel, num_frames, seed=0):
    """air_detect on fresh generators: one per device, one per frame."""
    device_rngs = [np.random.default_rng((seed, 0, m)) for m in range(len(powers))]
    frame_rngs = [np.random.default_rng((seed, 1, f)) for f in range(num_frames)]
    return air_detect(signs, powers, phy, channel, device_rngs, frame_rngs)


@st.composite
def _kernel_inputs(draw):
    """A small frame, 0-4 devices and their powers, a coordinate count of up
    to three frames, and sign rows that fill every frame."""
    phy = PhyConfig(num_subcarriers=2 * draw(st.integers(1, 4)), num_symbols=draw(st.integers(1, 3)))
    devices = draw(st.integers(0, 4))
    coordinates = draw(st.integers(1, 3 * phy.frame_coordinates))
    num_frames = -(-coordinates // phy.frame_coordinates)
    sign = st.sampled_from([-1, 1])
    full = draw(hnp.arrays(np.int8, (devices, num_frames * phy.frame_coordinates), elements=sign))
    powers = draw(hnp.arrays(np.float64, devices, elements=st.floats(0.25, 8.0)))
    return phy, powers, coordinates, num_frames, full


@pytest.mark.parametrize("sync_error_max", [0.0, 0.3])
@pytest.mark.parametrize("fading", FADING_MODES)
@given(inputs=_kernel_inputs(), data=st.data())
def test_kernel_results_ignore_other_coordinates_signs(fading, sync_error_max, inputs, data):
    # Flipping any other coordinates' signs, or replacing the last frame's
    # tail by the kernel's +1 padding, leaves a coordinate's energies and
    # vote bit-identical.
    phy, powers, coordinates, num_frames, full = inputs
    channel = ChannelConfig(noise_var=0.5, sync_error_max=sync_error_max, fft_size=16, fading=fading)
    keep = data.draw(hnp.arrays(np.bool_, coordinates))
    changed = np.where(keep, full[:, :coordinates], -full[:, :coordinates])
    whole = _kernel(full, powers, phy, channel, num_frames)
    padded = _kernel(changed, powers, phy, channel, num_frames)
    assert whole.votes.shape == (full.shape[1],) and padded.votes.shape == (coordinates,)
    for name in ("e_plus", "e_minus", "votes"):
        np.testing.assert_array_equal(getattr(whole, name)[:coordinates][keep], getattr(padded, name)[keep])


@pytest.mark.parametrize("fading", FADING_MODES)
@given(inputs=_kernel_inputs(), k=st.integers(-8, 8), noise_var=st.just(0.0) | st.floats(0.01, 4.0))
def test_kernel_scaling_powers_and_noise_together(fading, inputs, k, noise_var):
    # Multiplying every power and the noise variance by 4**k scales every
    # received amplitude by exactly 2**k: the energies by exactly 4**k, and
    # the votes not at all.
    phy, powers, _, num_frames, full = inputs
    channel = ChannelConfig(noise_var=noise_var, sync_error_max=0.3, fft_size=16, fading=fading)
    base = _kernel(full, powers, phy, channel, num_frames)
    scale = 4.0**k
    scaled = _kernel(full, powers * scale, phy, replace(channel, noise_var=noise_var * scale), num_frames)
    np.testing.assert_array_equal(scaled.votes, base.votes)
    np.testing.assert_array_equal(scaled.e_plus, base.e_plus * scale)
    np.testing.assert_array_equal(scaled.e_minus, base.e_minus * scale)


def test_kernel_needs_one_generator_per_frame():
    phy = PhyConfig(num_subcarriers=4, num_symbols=1)  # 2 coordinates per frame
    signs = np.ones((2, 5), dtype=np.int8)  # 3 frames, the last one padded
    for frames in (0, 2, 4):
        with pytest.raises(ValueError, match=f"{frames} frame generators for 5 coordinates"):
            _kernel(signs, np.ones(2), phy, ChannelConfig(), frames)
    with pytest.raises(ValueError, match="expected \\(devices, coordinates\\)"):
        _kernel(signs[None], np.ones(2), phy, ChannelConfig(), 3)
    assert _kernel(signs, np.ones(2), phy, ChannelConfig(), 3).votes.shape == (5,)


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


def _oracle_estimates():
    # 2,500 and 5,300 trials end in partial 1,024-trial frames.  At 1 byte every
    # oracle call and kernel block holds one frame and every flip-oracle step
    # one trial; at 2**16 bytes a call holds 3, 3, 2 or 1 frames for K = 0, 1,
    # 5 or 31 and a step 64 trials; at the default budget each detection point
    # below is one call, and the flip oracle takes 1,024 trials a step.
    return (
        [mc_mean_energy(k, 1.5, 1.0, trials, seed=(8, k, trials)) for k in (0, 1, 5, 31) for trials in (2500, 5300)],
        [mc_error_prob(k, 0.2, 2.0, 5300, seed=(8, k)) for k in (1, 5, 31)],
        mc_flip_prob(0.1, 0.8, 128, 3000, seed=(8, 9)),
    )


def test_oracle_block_size_does_not_change_estimates(monkeypatch):
    whole = _oracle_estimates()
    for block_bytes in (1, 2**16):
        monkeypatch.setattr(analysis, "BLOCK_BYTES", block_bytes)
        assert _oracle_estimates() == whole


def test_oracle_calls_stay_within_block_bytes(monkeypatch):
    # A kernel call holds its int8 signs (one byte per device and trial) and
    # its e+, e- and vote (8 + 8 + 1 bytes per trial); more trials take more
    # calls, not larger ones.
    calls = []

    def recording(signs, *args):
        calls.append(signs.shape)
        return air_detect(signs, *args)

    monkeypatch.setattr(analysis, "air_detect", recording)
    monkeypatch.setattr(analysis, "BLOCK_BYTES", 4 * 1024 * (5 + 17))
    sizes = {}
    for trials in (5000, 20_000):
        calls.clear()
        mc_error_prob(5, 0.2, 2.0, trials, seed=1)
        assert all(coordinates * (devices + 17) <= analysis.BLOCK_BYTES for devices, coordinates in calls)
        assert sum(coordinates for _, coordinates in calls) == trials
        sizes[trials] = (len(calls), max(coordinates for _, coordinates in calls))
    assert sizes == {5000: (2, 4096), 20_000: (5, 4096)}

    calls.clear()
    estimate = mc_mean_energy(0, 1.0, 0.7, 20_000, seed=2)
    assert [devices for devices, _ in calls] == [0] * 4
    assert max(coordinates for _, coordinates in calls) * 17 <= analysis.BLOCK_BYTES
    assert estimate == pytest.approx(0.7, rel=0.05)


def test_mc_error_prob_gaussian_dominated_by_bound():
    # Gaussian mini-batch noise at grad_snr flips each device independently
    # with probability Phi(-grad_snr), which is mc_error_prob's flip law.
    estimate, stderr = mc_error_prob(31, 0.5 * math.erfc(3 / math.sqrt(2)), 2.0, 10_000, seed=7)
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
