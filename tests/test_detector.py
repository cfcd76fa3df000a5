import itertools

import numpy as np
import pytest
from scipy import stats

from airvote.analysis import air_detect
from airvote.channel import ChannelConfig
from airvote.detector import detect, ideal_majority_vote
from airvote.phy import build_subcarrier_map


def test_measure_energies_values():
    result = detect(np.array([[3 + 4j], [0]]))
    assert result.e_plus[0] == pytest.approx(25.0)
    assert result.e_minus[0] == pytest.approx(0.0)


def test_measure_energies_zero_frame():
    result = detect(np.zeros((1, 2, 4), dtype=complex))
    assert np.all(result.e_plus == 0) and np.all(result.e_minus == 0)
    np.testing.assert_array_equal(result.votes, 1)  # every pair ties


def test_measure_energies_out_of_range():
    with pytest.raises(ValueError, match="expected"):
        detect(np.zeros((1, 3, 4), dtype=complex))
    with pytest.raises(ValueError, match="expected"):
        detect(np.zeros(8, dtype=complex))


def test_single_device_clean_energy():
    # One device, unit gain, no noise: the active bin carries energy 2.
    m = build_subcarrier_map(1, 2, 1)
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    result = air_detect(
        np.ones((1, 1, 1)), np.array([1.0]), m, cfg,
        [np.random.default_rng(123)], [np.random.default_rng(0)],
    )  # randomization on
    assert result.e_plus[0, 0] == pytest.approx(2.0)
    assert result.e_minus[0, 0] == pytest.approx(0.0)


def _pair_bins(e_plus, e_minus):
    """Received plus and minus bins carrying the given energies."""
    return np.sqrt(np.array([e_plus, e_minus])).astype(complex)


def test_detect_votes_rules():
    np.testing.assert_array_equal(detect(_pair_bins([5.0, 1.0], [2.0, 4.0])).votes, [1, -1])
    np.testing.assert_array_equal(detect(_pair_bins([2.0, 2.0], [2.0, 2.0])).votes, [1, 1])


def test_detect_votes_antisymmetric_without_ties():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 5.0, size=50)
    b = rng.uniform(0.1, 5.0, size=50)
    b[np.isclose(a, b)] += 0.5
    np.testing.assert_array_equal(detect(_pair_bins(a, b)).votes, -detect(_pair_bins(b, a)).votes)


def test_ideal_majority_vote():
    np.testing.assert_array_equal(ideal_majority_vote([[1], [1], [-1]]), [1])
    np.testing.assert_array_equal(ideal_majority_vote([[1], [-1]]), [1])  # tie rule
    np.testing.assert_array_equal(ideal_majority_vote([[-1, 1, -1]]), [-1, 1, -1])


# ---------------------------------------------------------------------------
# Oracle equivalence in the ideal channel
# ---------------------------------------------------------------------------

def air_vote_ideal(sign_patterns, mapping, low_rng):
    """Pipeline votes, one frame per (devices, coordinates) pattern, with unit
    gains, no noise, unit powers and every randomization symbol 1.

    With all symbols equal to 1, e_plus = 2 * (votes for +1)^2 and
    e_minus = 2 * (votes for -1)^2, so the energy comparison reproduces the
    count comparison exactly.
    """
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    num_frames, num_devices = sign_patterns.shape[:2]
    return air_detect(
        sign_patterns, np.ones(num_devices), mapping, cfg, [low_rng] * num_devices, [low_rng] * num_frames
    ).votes


def test_energy_detection_equals_majority_vote_exhaustive(low_rng):
    mapping = build_subcarrier_map(2, 4, 1)
    patterns = np.array(list(itertools.product([-1, 1], repeat=6))).reshape(-1, 3, 2)  # all 2^(3*2)
    votes = air_vote_ideal(patterns, mapping, low_rng)
    for signs, vote in zip(patterns, votes):
        np.testing.assert_array_equal(vote, ideal_majority_vote(signs))


def test_energy_detection_equals_majority_vote_random_patterns(low_rng):
    mapping = build_subcarrier_map(10, 20, 1)
    patterns = np.random.default_rng(21).choice([-1, 1], size=(200, 31, 10))
    votes = air_vote_ideal(patterns, mapping, low_rng)
    for signs, vote in zip(patterns, votes):
        np.testing.assert_array_equal(vote, ideal_majority_vote(signs))


def test_detection_invariant_to_global_phase():
    rng = np.random.default_rng(5)
    received = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    base = detect(received)
    for theta in (0.3, 1.7, np.pi):
        rotated = detect(received * np.exp(1j * theta))
        np.testing.assert_allclose(rotated.e_plus, base.e_plus, atol=1e-12)
        np.testing.assert_allclose(rotated.e_minus, base.e_minus, atol=1e-12)
        np.testing.assert_array_equal(rotated.votes, base.votes)


def test_detection_result_fields_consistent():
    rng = np.random.default_rng(6)
    received = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    result = detect(received)
    assert np.all(result.e_plus >= 0) and np.all(result.e_minus >= 0)
    np.testing.assert_array_equal(result.e_plus, np.abs(received[0]) ** 2)
    np.testing.assert_array_equal(result.e_minus, np.abs(received[1]) ** 2)
    np.testing.assert_array_equal(result.votes, np.where(result.e_plus < result.e_minus, -1, 1))


def test_detect_frame_axis_matches_per_frame_detect():
    rng = np.random.default_rng(8)
    received = rng.normal(size=(3, 2, 6)) + 1j * rng.normal(size=(3, 2, 6))
    batch = detect(received)
    for f in range(3):
        single = detect(received[f])
        for name in ("e_plus", "e_minus", "votes"):
            np.testing.assert_array_equal(getattr(batch, name)[f], getattr(single, name))


# ---------------------------------------------------------------------------
# Energy statistics
# ---------------------------------------------------------------------------

def test_received_energy_is_exponential():
    # 5 devices voting +1 over Rayleigh fading with randomization and noise:
    # the accumulated bin energy should be exponential with mean
    # 2 * 5 * 1 + noise_var.
    voters, noise_var = 5, 0.5
    q = 1000
    mapping = build_subcarrier_map(q, 40, 50)
    cfg = ChannelConfig(noise_var=noise_var)
    samples = []
    for rep in range(10):  # 1e4 samples total
        result = air_detect(
            np.ones((1, voters, q), dtype=int), np.ones(voters), mapping, cfg,
            [np.random.default_rng((rep, m)) for m in range(voters)],
            [np.random.default_rng((rep, 100))],
        )
        samples.append(result.e_plus[0])
    samples = np.concatenate(samples)
    mean_energy = 2.0 * voters * 1.0 + noise_var
    result = stats.kstest(samples, "expon", args=(0.0, mean_energy))
    assert result.pvalue > 0.01
