import inspect
import itertools
import math
import numbers
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from airvote import analysis
from airvote.analysis import (
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
from airvote.channel import FADING_MODES, NOISE_VAR_MAX, ChannelConfig
from airvote.phy import SYMBOL_ENERGY, PhyConfig


# ---------------------------------------------------------------------------
# Mean bin energy
# ---------------------------------------------------------------------------

def test_mean_energy_values():
    assert SYMBOL_ENERGY == 2.0
    assert mean_energy(5, 1.0, 1.0) == pytest.approx(11.0)
    assert mean_energy(0, 1.0, 0.3) == pytest.approx(0.3)


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
    assert result.e_plus.mean() == pytest.approx(mean_energy(5, 2.0, 0.5), rel=0.02)


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


def test_mc_flip_prob_dominated_by_bound():
    # a batch of 128 draws of N(0.1, 0.8^2): R = sqrt(128) * 0.1 / 0.8 = sqrt(2)
    grad_snr = math.sqrt(128) * 0.1 / 0.8
    assert grad_snr == pytest.approx(math.sqrt(2.0))
    estimate, stderr = mc_flip_prob(grad_snr, trials=100_000, seed=3)
    assert estimate <= failure_prob_bound(grad_snr)
    # and the estimate should sit near the Gaussian truth Phi(-R)
    assert estimate == pytest.approx(stats.norm.cdf(-grad_snr), abs=4 * stderr)


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
    num_frames = phy.num_frames(coordinates)
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
    channel = ChannelConfig(noise_var=0.5, sync_error_max=sync_error_max, fading=fading)
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
    channel = ChannelConfig(noise_var=noise_var, sync_error_max=0.3, fading=fading)
    base = _kernel(full, powers, phy, channel, num_frames)
    scale = 4.0**k
    scaled = _kernel(full, powers * scale, phy, replace(channel, noise_var=noise_var * scale), num_frames)
    np.testing.assert_array_equal(scaled.votes, base.votes)
    np.testing.assert_array_equal(scaled.e_plus, base.e_plus * scale)
    np.testing.assert_array_equal(scaled.e_minus, base.e_minus * scale)


def test_kernel_reads_minus_exactly_where_a_value_is_negative():
    # Every stage reads a vote as detector.sign_votes does: in place of +1 any
    # value that is not negative, in place of -1 any negative one, gives the
    # same bytes.  Timing offsets make the lit subcarrier show, not only the bin.
    phy, channel = PhyConfig(num_subcarriers=6, num_symbols=2), ChannelConfig(noise_var=0.5, sync_error_max=0.3)
    signs = np.random.default_rng(7).choice([-1.0, 1.0], size=(5, 30))
    values = np.where(signs > 0, np.resize([0.0, -0.0, 0.5, np.nan, np.inf], signs.shape), -2.5)
    reference, other = (_kernel(rows, np.ones(5), phy, channel, 5) for rows in (signs, values))
    for name in ("e_plus", "e_minus", "votes"):
        assert getattr(other, name).tobytes() == getattr(reference, name).tobytes()


def test_kernel_needs_one_generator_per_device_and_frame(monkeypatch):
    phy = PhyConfig(num_subcarriers=4, num_symbols=1)  # 2 coordinates per frame
    signs = np.ones((2, 5), dtype=np.int8)  # 3 frames, the last one padded
    for frames in (0, 2, 4):
        with pytest.raises(ValueError, match=f"{frames} frame generators for 5 coordinates"):
            _kernel(signs, np.ones(2), phy, ChannelConfig(), frames)
    with pytest.raises(ValueError, match="expected \\(devices, coordinates\\)"):
        _kernel(signs[None], np.ones(2), phy, ChannelConfig(), 3)
    for bad in (-1.0, np.nan, np.inf):
        device_rngs, frame_rngs = [np.random.default_rng(0)] * 2, [np.random.default_rng(1)] * 3
        with pytest.raises(ValueError, match="^powers must be finite and >= 0$"):
            air_detect(signs, np.array([1.0, bad]), phy, ChannelConfig(), device_rngs, frame_rngs)
        # rejected before any draw
        assert device_rngs[0].bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert frame_rngs[0].bit_generator.state == np.random.default_rng(1).bit_generator.state
    # a short device list is named by its counts, not by a block's shape, whatever the block size
    for block_bytes in (analysis.BLOCK_BYTES, 1):
        monkeypatch.setattr(analysis, "BLOCK_BYTES", block_bytes)
        frame_rngs = [np.random.default_rng(1)] * 3
        with pytest.raises(ValueError, match="^1 device generators for 2 devices$"):
            air_detect(signs, np.ones(2), phy, ChannelConfig(), [np.random.default_rng(0)], frame_rngs)
        assert frame_rngs[0].bit_generator.state == np.random.default_rng(1).bit_generator.state  # no draw
    assert _kernel(signs, np.ones(2), phy, ChannelConfig(), 3).votes.shape == (5,)


def test_mc_error_prob_single_device_passthrough():
    estimate, stderr = mc_error_prob(1, 0.1, 1e9, trials=20_000, seed=4)
    assert estimate == pytest.approx(0.1, abs=4 * max(stderr, 1e-4))


def test_mc_error_prob_near_zero_in_clean_regime():
    estimate, _ = mc_error_prob(31, 0.001, 1e4, trials=10_000, seed=5)
    assert estimate <= 0.005


def test_mc_error_prob_matches_exact_closed_form_without_noise():
    # An infinite snr runs noise-free; test_c3c checks the finite-snr grid.
    estimate, stderr = mc_error_prob(5, 0.2, math.inf, trials=20_000, seed=(6, 5))
    assert estimate == pytest.approx(exact_error_prob(5, math.inf, 0.2), abs=4.5 * stderr)


def _oracle_estimates():
    # 2,500 and 5,300 trials end in partial 1,024-trial frames.  At 1 byte every
    # oracle call and kernel block holds one frame and every flip-oracle step
    # one trial; at 2**16 bytes a call holds 3, 3, 2 or 1 frames for K = 0, 1,
    # 5 or 31 and a flip-oracle step 8,192 trials, so its 20,000 take three
    # steps; at the default budget each detection point below is one call, and
    # the flip oracle takes all its trials in one step.
    return (
        [mc_mean_energy(k, 1.5, 1.0, trials, seed=(8, k, trials)) for k in (0, 1, 5, 31) for trials in (2500, 5300)],
        [mc_error_prob(k, 0.2, 2.0, 5300, seed=(8, k)) for k in (1, 5, 31)],
        mc_flip_prob(math.sqrt(2.0), 20_000, seed=(8, 9)),
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
    return base


def test_convergence_tau_spot_value():
    assert convergence_tau(31, 2.0, 1.0) == pytest.approx(1.032258064516129, abs=1e-12)
    assert convergence_tau(31, 2.0, 4.0) == pytest.approx(1.032258064516129 / 2.0, abs=1e-12)  # / sqrt(gamma)


def test_convergence_bound_scales_with_rounds():
    ratio = convergence_bound(**make_params(rounds=2000)) / convergence_bound(**make_params(rounds=1000))
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_convergence_bound_clean_channel_limit():
    params = make_params(num_devices=10**9, snr=1e12, rounds=400)
    expected = (
        math.sqrt(params["smoothness_l1"]) * (params["loss_gap"] + 0.5)
        + (2.0 * math.sqrt(2.0) / 6.0) * params["sigma_l1"]
    ) / math.sqrt(params["rounds"])
    assert convergence_bound(**params) == pytest.approx(expected, rel=1e-6)


def test_convergence_bound_monotonicity():
    for snr_lo, snr_hi in [(0.5, 1.0), (1.0, 4.0), (4.0, 32.0)]:
        assert convergence_bound(**make_params(snr=snr_hi)) < convergence_bound(**make_params(snr=snr_lo))
    for n_lo, n_hi in [(100, 200), (200, 1000)]:
        assert convergence_bound(**make_params(rounds=n_hi)) < convergence_bound(**make_params(rounds=n_lo))
    for s_lo, s_hi in [(1.0, 2.0), (2.0, 10.0)]:
        assert convergence_bound(**make_params(sigma_l1=s_hi)) > convergence_bound(**make_params(sigma_l1=s_lo))


def test_convergence_bound_strict_derivation():
    # the default batch size 1 is the simplified form; 64 divides the trailing
    # term by sqrt(64), and sqrt(gamma) multiplies it
    for gamma in (1.0, 4.0):
        params = make_params(gamma=gamma)
        loose = convergence_bound(**params)
        assert convergence_bound(**params, batch_size=1) == loose
        strict = convergence_bound(**make_params(gamma=gamma, batch_size=64))
        trailing = (2.0 * math.sqrt(2.0) / 6.0) * math.sqrt(gamma) * params["sigma_l1"] / math.sqrt(params["rounds"])
        assert loose - strict == pytest.approx(trailing * (1.0 - 1.0 / 8.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Communication cost
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Argument checks
# ---------------------------------------------------------------------------

# Valid arguments of every public closed form and oracle of `analysis`.  The
# NaN rows below are made from them, one per numeric argument (every argument
# but `scheme` and `seed`), and so are an inf and a 10**400 row per count.
VALID_ARGS = {
    mean_energy: (5, 1.0, 1.0),
    failure_prob_bound: (2.0,),
    error_prob_bound: (31, 2.0, 3.0),
    error_prob_intermediate_bound: (31, 2.0, 0.2),
    exact_error_prob: (31, 2.0, 0.2),
    convergence_tau: (31, 2.0, 1.0),
    convergence_bound: tuple(make_params(batch_size=64).values()),
    comm_cost: ("sgd", 31, 100),
    mc_mean_energy: (5, 1.0, 1.0, 100, 0),
    mc_flip_prob: (1.0, 100, 0),
    mc_error_prob: (5, 0.2, 2.0, 1000, 0),
}


def _rows(names, bad_values, bases=VALID_ARGS.items()):
    """One row per bad value of every argument in `names`, the others as in `bases`."""
    for function, args in bases:
        for i, name in enumerate(inspect.signature(function).parameters):
            if name in names:
                yield from ((function, args[:i] + (bad,) + args[i + 1:], name) for bad in bad_values)


NUMERIC_ARGS = {name for f in VALID_ARGS for name in inspect.signature(f).parameters} - {"scheme", "seed"}
# Counts go through `_at_least`, which takes only values a float can hold.
COUNT_ARGS = {"active_devices", "num_devices", "rounds", "batch_size", "model_dim", "trials"}


# Public functions of `analysis` that are not plain-argument closed forms or
# oracles: array arguments (with their own rows below), the kernel and its
# block rule, and the suite runners.
NOT_CLOSED_FORMS = {"exact_error_prob_weighted", "blocks", "air_detect",
                    "run_mean_energy_suite", "run_flip_prob_suite", "run_error_prob_suite"}


def test_every_exported_closed_form_and_oracle_has_valid_args():
    # a closed form or oracle added to `analysis` gets its NaN rows only
    # through VALID_ARGS, so it cannot skip the one-argument rule
    exported = {value for name, value in vars(analysis).items()
                if inspect.isfunction(value) and value.__module__ == analysis.__name__
                and not name.startswith("_") and name not in NOT_CLOSED_FORMS}
    assert exported and sorted(f.__name__ for f in exported - VALID_ARGS.keys()) == []
    for function, args in VALID_ARGS.items():
        function(*args)  # the base arguments are valid


@pytest.mark.parametrize(
    "function, args, name",
    [
        *_rows(NUMERIC_ARGS, [math.nan]),
        (mean_energy, (-1, 1.0, 1.0), "active_devices"),
        (mean_energy, (5, -1.0, 1.0), "mean_tx_power"),
        (mean_energy, (5, 1.0, -1.0), "noise_var"),
        (failure_prob_bound, (0.0,), "grad_snr"),
        (failure_prob_bound, (-1.0,), "grad_snr"),
        (error_prob_bound, (0, 2.0, 3.0), "num_devices"),
        (error_prob_bound, (31, -2.0, 3.0), "snr"),
        (error_prob_bound, (31, 2.0, 0.0), "grad_snr"),
        (error_prob_bound, (31, 2.0, -3.0), "grad_snr"),
        (error_prob_intermediate_bound, (31, -2.0, 0.2), "snr"),
        (exact_error_prob, (31, -2.0, 0.2), "snr"),
        (exact_error_prob, (31, 2.0, 0.0), "flip_prob"),
        (exact_error_prob, (31, 2.0, 0.5), "flip_prob"),
        (exact_error_prob_weighted, ([1.0, math.nan], [0.1, 0.1], 2.0), "powers"),
        (exact_error_prob_weighted, ([math.inf], [0.1], 2.0), "powers"),
        (exact_error_prob_weighted, ([-1.0, 2.0], [0.1, 0.1], 2.0), "powers"),
        (exact_error_prob_weighted, ([0.0], [0.1], 2.0), "powers"),  # no positive sum
        (exact_error_prob_weighted, ([1.0, 1.0], [0.1, -0.1], 2.0), "flip_probs"),
        (exact_error_prob_weighted, ([1.0], [1.5], 2.0), "flip_probs"),
        (exact_error_prob_weighted, ([1.0], [0.1], 0.0), "snr"),
        (exact_error_prob_weighted, ([1.0], [0.1], math.nan), "snr"),
        (convergence_tau, (31, 2.0, -1.0), "gamma"),
        (convergence_bound, make_params(snr=0.0).values(), "snr"),
        (convergence_bound, make_params(rounds=0).values(), "rounds"),
        (convergence_bound, make_params(smoothness_l1=-4.0).values(), "smoothness_l1"),
        (comm_cost, ("fedavg", 31, 100), "scheme"),
        (comm_cost, ("sgd", 0, 100), "num_devices"),
        (comm_cost, ("sgd", 31, -100), "model_dim"),
        (mc_mean_energy, (5, -1.0, 1.0, 100, 0), "mean_tx_power"),
        (mc_mean_energy, (-2, 1.0, 1.0, 100, 0), "active_devices"),
        (mc_flip_prob, (0.0, 1000, 0), "grad_snr"),
        (mc_flip_prob, (-1.0, 1000, 0), "grad_snr"),
        (mc_flip_prob, (1.0, 0, 0), "trials"),
        (mc_flip_prob, (1.0, -100, 0), "trials"),
        (mc_error_prob, (31, 0.0, 2.0, 10_000, 0), "flip_prob"),
        (mc_error_prob, (31, 0.6, 2.0, 10_000, 0), "flip_prob"),
        (mc_error_prob, (5, 0.2, -2.0, 1000, 0), "snr"),
        (mc_error_prob, (31, 0.1, 2.0, 999, 0), "trials"),
        *_rows(COUNT_ARGS, [math.inf, 10**400]),
        (exact_error_prob_weighted, ([[1.0, 1.0]], [[0.1, 0.1]], 2.0), "powers and flip_probs"),  # 2-D
        (exact_error_prob_weighted, ([], [], 2.0), "powers and flip_probs"),
        (exact_error_prob_weighted, ([1.0], [0.1, 0.2], 2.0), "powers and flip_probs"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_closed_forms_and_oracles_reject_nan_and_out_of_range(function, args, name):
    # each names the one bad argument in its message, before any draw or arithmetic
    with pytest.raises(ValueError, match=f"^{name} must"):
        function(*args)


ORACLES = {mc_mean_energy, mc_flip_prob, mc_error_prob}
# Base arguments of the closed forms: VALID_ARGS' and a second scheme family of comm_cost.
CLOSED_FORM_ARGS = [*((f, args) for f, args in VALID_ARGS.items() if f not in ORACLES),
                    (comm_cost, ("qsgd", 31, 100))]


@pytest.mark.parametrize("function, args, name", _rows(NUMERIC_ARGS, [sys.float_info.max], CLOSED_FORM_ARGS),
                         ids=lambda value: getattr(value, "__name__", None))
def test_closed_forms_at_the_largest_float_return_a_number_or_name_it(function, args, name):
    # overflow gives the bound's limit (0.0 or inf), never OverflowError
    try:
        assert isinstance(function(*args), numbers.Real)
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must")


@pytest.mark.parametrize(
    "function, args, message",
    [
        (mc_mean_energy, (2.5, 1.0, 1.0, 10, 0), "active_devices must be an integer"),
        (mc_mean_energy, (2, 1.0, 1.0, 10.5, 0), "trials must be an integer"),
        (mc_flip_prob, (1.0, 2.5, 0), "trials must be an integer"),
        (mc_error_prob, (5.5, 0.2, 2.0, 1000, 0), "num_devices must be an integer"),
        (mc_error_prob, (5, 0.2, 2.0, 1000.5, 0), "trials must be an integer"),
        # finite noise above channel.NOISE_VAR_MAX: 1e308, and SYMBOL_ENERGY / 1e-305
        (mc_mean_energy, (2, 1.0, 1e308, 10, 0), "noise_var must"),
        (mc_error_prob, (5, 0.2, 1e-305, 1000, 0), "snr must be >= 2e-300"),
    ],
)
def test_oracles_reject_bad_counts_and_noise_before_any_draw(function, args, message, monkeypatch):
    def no_draws(*_):
        raise AssertionError("a generator was made before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"^{message}"):
        function(*args)


def test_range_ends_are_accepted():
    # the largest float is a count, and the smallest snr mc_error_prob takes
    # gives the largest noise variance a channel holds
    analysis._at_least(1, count=sys.float_info.max)
    estimate, stderr = mc_error_prob(5, 0.2, SYMBOL_ENERGY / NOISE_VAR_MAX, 1000, 0)
    assert estimate == pytest.approx(0.5, abs=4 * stderr)


def test_oracles_accept_numpy_integer_counts():
    assert mc_error_prob(np.int64(5), 0.2, 2.0, np.int64(1000), 0) == mc_error_prob(5, 0.2, 2.0, 1000, 0)
    assert mc_flip_prob(1.0, np.int32(100), 0) == mc_flip_prob(1.0, 100, 0)
    assert mc_mean_energy(np.int64(2), 1.0, 1.0, np.int64(10), 0) == mc_mean_energy(2, 1.0, 1.0, 10, 0)
    assert mc_error_prob(np.uint8(5), 0.2, 2.0, np.uint16(1000), 0) == mc_error_prob(5, 0.2, 2.0, 1000, 0)
    assert mc_flip_prob(1.0, np.uint16(100), 0) == mc_flip_prob(1.0, 100, 0)
    assert mc_mean_energy(np.uint8(2), 1.0, 1.0, np.uint16(10), 0) == mc_mean_energy(2, 1.0, 1.0, 10, 0)


# ---------------------------------------------------------------------------
# Suite smoke checks
# ---------------------------------------------------------------------------

def test_flip_prob_suite_all_pass_small():
    rows = run_flip_prob_suite(trials=5_000, seed=0)
    assert len(rows) == 7
    assert all(r["passed"] for r in rows)


@pytest.mark.parametrize("stderrs, passed", [(3.0, True), (3.5, False)])
def test_suite_rows_pass_up_to_three_standard_errors_above_their_bound(monkeypatch, stderrs, passed):
    stderr = 0.01
    monkeypatch.setattr(analysis, "mc_flip_prob", lambda grad_snr, trials, seed: (
        failure_prob_bound(grad_snr) + stderrs * stderr, stderr))
    monkeypatch.setattr(analysis, "mc_error_prob", lambda num_devices, flip_prob, snr, trials, seed: (
        error_prob_intermediate_bound(num_devices, snr, flip_prob) + stderrs * stderr, stderr))
    for rows in (run_flip_prob_suite(1, 0), run_error_prob_suite(1000, 0)):
        assert [row["passed"] for row in rows] == [passed] * len(rows)


@pytest.mark.parametrize("estimate, below_half", [(math.nextafter(0.5, 0.0), True), (0.5, False)])
def test_error_prob_rows_are_below_half_only_below_half(monkeypatch, estimate, below_half):
    monkeypatch.setattr(analysis, "mc_error_prob", lambda *args, **kwargs: (estimate, 0.0))
    assert {row["below_half"] for row in run_error_prob_suite(1000, 0)} == {below_half}


# Row keys of each suite, grid keys first, as mc-verify prints them.
SUITE_ROW_KEYS = {
    "mean-energy": (analysis.MEAN_ENERGY_GRID,
                    ("active_devices", "mean_tx_power", "noise_var", "predicted", "estimate", "rel_err", "passed")),
    "flip-prob": (analysis.FLIP_PROB_GRID, ("grad_snr", "estimate", "stderr", "bound", "passed")),
    "error-prob": (analysis.ERROR_PROB_GRID,
                   ("num_devices", "snr", "flip_prob", "estimate", "stderr", "target", "exact", "below_half",
                    "passed")),
}


@pytest.mark.parametrize("suite", list(analysis.SUITE_TABLES))
def test_suite_rows_follow_grid_in_product_order(suite):
    run, _, fewest_trials, *_ = analysis.SUITE_TABLES[suite]
    grid, keys = SUITE_ROW_KEYS[suite]
    rows = run(fewest_trials, 0)
    assert [tuple(row) for row in rows] == [keys] * len(rows)
    assert [tuple(row[name] for name in grid) for row in rows] == list(itertools.product(*grid.values()))
