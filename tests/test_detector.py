import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from airvote import analysis
from airvote.analysis import air_detect
from airvote.channel import ChannelConfig
from airvote.detector import detect, ideal_majority_vote, sign_votes
from airvote.phy import PhyConfig


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
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    result = air_detect(
        np.ones((1, 1)), np.array([1.0]), PhyConfig(num_subcarriers=2, num_symbols=1), cfg,
        [np.random.default_rng(123)], [np.random.default_rng(0)],
    )  # randomization on
    assert result.e_plus[0] == pytest.approx(2.0)
    assert result.e_minus[0] == pytest.approx(0.0)


def test_sign_votes_builds_a_copy():
    negative = np.array([[1, 0], [0, 1]], dtype=np.int8)  # already int8: no conversion would copy it
    votes = sign_votes(negative)
    assert votes.dtype == np.int8
    np.testing.assert_array_equal(votes, [[-1, 1], [1, -1]])
    np.testing.assert_array_equal(negative, [[1, 0], [0, 1]])
    np.testing.assert_array_equal(sign_votes(np.array([True, False])), [-1, 1])


def test_ideal_majority_vote():
    np.testing.assert_array_equal(ideal_majority_vote([[1], [1], [-1]]), [1])
    np.testing.assert_array_equal(ideal_majority_vote([[1], [-1]]), [1])  # tie rule
    np.testing.assert_array_equal(ideal_majority_vote([[-1, 1, -1]]), [-1, 1, -1])
    with pytest.raises(ValueError, match="^need at least one report$"):
        ideal_majority_vote(np.empty((0, 3)))


# ---------------------------------------------------------------------------
# Oracle equivalence in the ideal channel
# ---------------------------------------------------------------------------

_SIGN_ROWS = st.integers(1, 31).flatmap(lambda devices: hnp.arrays(
    np.int8, st.tuples(st.just(devices), st.integers(1, 40)), elements=st.sampled_from([-1, 1])))


# low_rng holds no state, so sharing it across examples is safe
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(signs=_SIGN_ROWS, block_bytes=st.sampled_from([analysis.BLOCK_BYTES, 1]))
def test_clean_channel_detection_is_the_majority_vote(signs, block_bytes, low_rng):
    # 4-coordinate frames, so the last is usually padded; a 1-byte budget sends one frame per block
    phy = PhyConfig(num_subcarriers=4, num_symbols=2)
    devices, coordinates = signs.shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "BLOCK_BYTES", block_bytes)
        votes = air_detect(signs, np.ones(devices), phy, ChannelConfig(noise_var=0.0, fading="none"),
                           [low_rng] * devices, [low_rng] * phy.num_frames(coordinates)).votes
    np.testing.assert_array_equal(votes, ideal_majority_vote(signs))


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
    energies = received.real * received.real + received.imag * received.imag
    np.testing.assert_array_equal(result.e_plus, energies[0])
    np.testing.assert_array_equal(result.e_minus, energies[1])
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
    phy = PhyConfig(num_subcarriers=40, num_symbols=50)  # one frame of q coordinates
    cfg = ChannelConfig(noise_var=noise_var)
    samples = []
    for rep in range(10):  # 1e4 samples total
        result = air_detect(
            np.ones((voters, q), dtype=int), np.ones(voters), phy, cfg,
            [np.random.default_rng((rep, m)) for m in range(voters)],
            [np.random.default_rng((rep, 100))],
        )
        samples.append(result.e_plus)
    samples = np.concatenate(samples)
    mean_energy = 2.0 * voters * 1.0 + noise_var
    result = stats.kstest(samples, "expon", args=(0.0, mean_energy))
    assert result.pvalue > 0.01
