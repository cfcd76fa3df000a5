import itertools

import numpy as np
import pytest
from scipy import stats

from airvote.channel import ChannelConfig, sample_channel, superpose
from airvote.detector import detect, detect_votes, ideal_majority_vote, measure_energies
from airvote.phy import build_subcarrier_map, encode_signs


def test_measure_energies_values():
    m = build_subcarrier_map(1, 2, 1)
    frame = np.array([[3 + 4j, 0]], dtype=complex)
    e_plus, e_minus = measure_energies(frame, m)
    assert e_plus[0] == pytest.approx(25.0)
    assert e_minus[0] == pytest.approx(0.0)


def test_measure_energies_zero_frame():
    m = build_subcarrier_map(4, 8, 1)
    e_plus, e_minus = measure_energies(np.zeros((1, 8), dtype=complex), m)
    assert np.all(e_plus == 0) and np.all(e_minus == 0)


def test_measure_energies_out_of_range():
    m = build_subcarrier_map(4, 8, 2)
    with pytest.raises(ValueError):
        measure_energies(np.zeros((1, 8), dtype=complex), m)


def test_single_device_clean_energy():
    # One device, unit gain, no noise: the active bin carries energy 2.
    m = build_subcarrier_map(1, 2, 1)
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frame = encode_signs(np.array([1]), m, seed=123)  # randomization on
    real = sample_channel(1, 1, 2, cfg, seed=0)
    received = superpose(frame[None], np.array([1.0]), real, cfg, seed=0)
    e_plus, e_minus = measure_energies(received, m)
    assert e_plus[0] == pytest.approx(2.0)
    assert e_minus[0] == pytest.approx(0.0)


def test_detect_votes_rules():
    np.testing.assert_array_equal(
        detect_votes(np.array([5.0, 1.0]), np.array([2.0, 4.0])), [1, -1]
    )
    np.testing.assert_array_equal(
        detect_votes(np.array([2.0, 2.0]), np.array([2.0, 2.0])), [1, 1]
    )


def test_detect_votes_antisymmetric_without_ties():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 5.0, size=50)
    b = rng.uniform(0.1, 5.0, size=50)
    b[np.isclose(a, b)] += 0.5
    np.testing.assert_array_equal(detect_votes(a, b), -detect_votes(b, a))


def test_ideal_majority_vote():
    np.testing.assert_array_equal(ideal_majority_vote([[1], [1], [-1]]), [1])
    np.testing.assert_array_equal(ideal_majority_vote([[1], [-1]]), [1])  # tie rule
    np.testing.assert_array_equal(ideal_majority_vote([[-1, 1, -1]]), [-1, 1, -1])


# ---------------------------------------------------------------------------
# Oracle equivalence in the ideal channel
# ---------------------------------------------------------------------------

def air_vote_ideal(sign_matrix, mapping):
    """Pipeline vote with unit gains, no noise, and pinned randomization.

    With all symbols equal to 1, e_plus = 2 * (votes for +1)^2 and
    e_minus = 2 * (votes for -1)^2, so the energy comparison reproduces the
    count comparison exactly.
    """
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    num_devices = sign_matrix.shape[0]
    frames = np.stack(
        [encode_signs(row, mapping, seed=0, randomize=False) for row in sign_matrix]
    )
    real = sample_channel(num_devices, mapping.num_symbols, mapping.num_subcarriers, cfg, seed=0)
    received = superpose(frames, np.ones(num_devices), real, cfg, seed=0)
    return detect(received, mapping).votes


def test_energy_detection_equals_majority_vote_exhaustive():
    mapping = build_subcarrier_map(2, 4, 1)
    for bits in itertools.product([-1, 1], repeat=6):  # all 2^(3*2) patterns
        signs = np.array(bits).reshape(3, 2)
        np.testing.assert_array_equal(
            air_vote_ideal(signs, mapping), ideal_majority_vote(signs)
        )


def test_energy_detection_equals_majority_vote_random_patterns():
    mapping = build_subcarrier_map(10, 20, 1)
    rng = np.random.default_rng(21)
    for _ in range(200):
        signs = rng.choice([-1, 1], size=(31, 10))
        np.testing.assert_array_equal(
            air_vote_ideal(signs, mapping), ideal_majority_vote(signs)
        )


def test_detection_invariant_to_global_phase():
    mapping = build_subcarrier_map(8, 16, 1)
    rng = np.random.default_rng(5)
    received = rng.normal(size=(1, 16)) + 1j * rng.normal(size=(1, 16))
    base = detect(received, mapping)
    for theta in (0.3, 1.7, np.pi):
        rotated = detect(received * np.exp(1j * theta), mapping)
        np.testing.assert_allclose(rotated.e_plus, base.e_plus, atol=1e-12)
        np.testing.assert_allclose(rotated.e_minus, base.e_minus, atol=1e-12)
        np.testing.assert_array_equal(rotated.votes, base.votes)


def test_detection_result_fields_consistent():
    mapping = build_subcarrier_map(4, 8, 1)
    rng = np.random.default_rng(6)
    received = rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))
    result = detect(received, mapping)
    assert np.all(result.e_plus >= 0) and np.all(result.e_minus >= 0)
    np.testing.assert_allclose(result.delta, result.e_plus - result.e_minus)
    np.testing.assert_array_equal(result.votes, detect_votes(result.e_plus, result.e_minus))


def test_detect_frame_axis_matches_per_frame_detect():
    mapping = build_subcarrier_map(6, 8, 2)
    rng = np.random.default_rng(8)
    received = rng.normal(size=(3, 2, 8)) + 1j * rng.normal(size=(3, 2, 8))
    batch = detect(received, mapping)
    for f in range(3):
        single = detect(received[f], mapping)
        for name in ("e_plus", "e_minus", "delta", "votes"):
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
        frames = np.stack(
            [
                encode_signs(np.ones(q, dtype=int), mapping, seed=(rep, m))
                for m in range(voters)
            ]
        )
        real = sample_channel(voters, 50, 40, cfg, seed=(rep, 100))
        received = superpose(frames, np.ones(voters), real, cfg, seed=(rep, 200))
        e_plus, _ = measure_energies(received, mapping)
        samples.append(e_plus)
    samples = np.concatenate(samples)
    mean_energy = 2.0 * voters * 1.0 + noise_var
    result = stats.kstest(samples, "expon", args=(0.0, mean_energy))
    assert result.pvalue > 0.01
