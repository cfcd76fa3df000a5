import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airvote.channel import ChannelConfig, sample_channel, superpose
from airvote.detector import detect
from airvote.phy import (
    FFT_SIZE,
    SYMBOL_ENERGY,
    PhyConfig,
    encode_signs,
    lit_subcarriers,
    mean_power,
    signed_agreement,
    update_power,
)
from conftest import rngs


# ---------------------------------------------------------------------------
# Frame layout
# ---------------------------------------------------------------------------

def test_map_layout_q2_a4_s1():
    np.testing.assert_array_equal(lit_subcarriers([1, 1], 4), [0, 2])
    np.testing.assert_array_equal(lit_subcarriers([-1, -1], 4), [1, 3])
    phy = PhyConfig(num_subcarriers=4, num_symbols=1)
    assert (phy.frame_coordinates, phy.num_subcarriers, phy.num_symbols) == (2, 4, 1)
    # a third coordinate starts the next symbol at subcarrier 0
    np.testing.assert_array_equal(lit_subcarriers([1, 1, 1], 4), [0, 2, 0])


def test_map_requires_even_subcarriers():
    with pytest.raises(ValueError, match=re.escape(f"num_subcarriers must be an even number in [2, {FFT_SIZE}]")):
        PhyConfig(num_subcarriers=5, num_symbols=1)


def test_power_cap_floor_is_the_initial_power():
    assert PhyConfig(power_cap=1.0).power_cap == 1.0
    with pytest.raises(ValueError, match="^power_cap must be no lower than the initial power of 1$"):
        PhyConfig(power_cap=np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_num_frames_of_numpy_integers_is_the_ceiling(dtype):
    phy = PhyConfig(num_subcarriers=16, num_symbols=4)
    for count in (0, 1, 31, 32, 33, 127, int(np.iinfo(dtype).max)):
        assert phy.num_frames(dtype(count)) == (count + 31) // 32


@pytest.mark.parametrize(
    "q,a,s",
    [(1, 2, 1), (2, 4, 1), (4, 4, 2), (7, 4, 4), (32, 8, 8), (210, 64, 7), (1024, 64, 32)],
)
def test_map_bins_distinct_and_fsk_adjacent(q, a, s):
    phy = PhyConfig(num_subcarriers=a, num_symbols=s)
    assert q <= phy.frame_coordinates
    # q coordinates, and a full frame: no bin is reused within a frame
    for count in (q, phy.frame_coordinates):
        sub_plus, sub_minus = lit_subcarriers(np.ones(count), a), lit_subcarriers(-np.ones(count), a)
        # row-major: coordinate j sits in symbol j // (a/2), both bins alike
        sym = np.arange(count) // (a // 2)
        flat = np.concatenate([sym * a + sub_plus, sym * a + sub_minus])
        assert len(np.unique(flat)) == 2 * count  # bijective: no bin reused
        np.testing.assert_array_equal(sub_minus, sub_plus + 1)
        assert sym.max() < phy.num_symbols == s and sub_minus.max() < a
        assert sub_plus.size == count
    assert len(flat) == a * s  # a full frame lights every bin of the frame


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_lit_subcarriers_follow_the_sign():
    signs = np.array([[[1, -1, 1], [-1, -1, 1]]])
    np.testing.assert_array_equal(lit_subcarriers(signs, 6), [[[0, 3, 4], [1, 3, 4]]])


def _received(signs, phases, num_subcarriers):
    """Received plus and minus bins, as superpose's planes, of one unit-power
    device per sign row, over a unit-gain, aligned, noiseless channel."""
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frame_rngs = rngs(*range(len(signs)))  # draw only the zero offsets
    faded = sample_channel(signs, phases, num_subcarriers, cfg, frame_rngs)
    return superpose(signs, faded, np.ones(signs.shape[1]), cfg, frame_rngs)


def test_encode_pinned_randomization(low_rng):
    signs = np.array([[[1, -1, 1]]])
    phases = encode_signs(signs, [low_rng])
    np.testing.assert_array_equal(phases, 0.0)
    real, imag = _received(signs, phases, 6)[:, 0]
    np.testing.assert_array_equal(real, np.sqrt(2.0) * np.array([[1, 0, 1], [0, 1, 0]]))
    np.testing.assert_array_equal(imag, 0.0)


def test_encode_per_coordinate_energy_and_exactly_one_active():
    rng = np.random.default_rng(1)
    for trial in range(20):
        signs = rng.choice([-1, 1], size=(1, 1, 16))  # four symbols of 8 subcarriers
        result = detect(_received(signs, encode_signs(signs, rngs(trial)), 8))
        e_plus, e_minus = result.e_plus[0], result.e_minus[0]
        np.testing.assert_allclose(e_plus + e_minus, SYMBOL_ENERGY, atol=1e-12)
        assert np.all((e_plus == 0) ^ (e_minus == 0))
        # the lit bin is the one the sign names
        np.testing.assert_array_equal(e_plus > 0, signs[0, 0] > 0)


def test_encode_validates():
    signs = np.array([[[1, -1, -1, 1]]])
    with pytest.raises(ValueError, match="frames, devices, coordinates"):
        encode_signs(signs[0], rngs(0))
    with pytest.raises(ValueError, match="^2 device generators for 1 devices$"):
        encode_signs(signs, rngs(0, 1))


def test_encode_batch_matches_stacked_single_vector_encodes():
    signs = np.random.default_rng(3).choice([-1, 1], size=(3, 4, 6))
    batch = encode_signs(signs, rngs(*[(7, d) for d in range(4)]))
    # frame at a time on the same continuing generators: the block size of
    # a batched call cannot change the phases
    generators = rngs(*[(7, d) for d in range(4)])
    np.testing.assert_array_equal(batch, np.concatenate([encode_signs(signs[f:f + 1], generators) for f in range(3)]))
    # built by hand: each device draws the phases of its frames in order
    generators = rngs(*[(7, d) for d in range(4)])
    expected = np.stack([rng.uniform(0.0, 2.0 * np.pi, size=(3, 6)) for rng in generators], axis=1)
    np.testing.assert_array_equal(batch, expected)
    assert batch.dtype == np.float64 and np.all((0.0 <= batch) & (batch < 2.0 * np.pi))


# ---------------------------------------------------------------------------
# Power control
# ---------------------------------------------------------------------------

def test_update_power_examples():
    powers = np.ones(1)
    reports = np.array([[1, 1, 1, -1]])
    vote = np.array([1, 1, -1, 1])  # agrees on 2 of 4 -> increment 0
    assert update_power(powers, reports, vote, math.inf)[0] == pytest.approx(1.0)

    vote = np.array([1, 1, 1, 1])  # agrees on 3 of 4 -> |(3-1)/4| = 0.5
    assert update_power(powers, reports, vote, math.inf)[0] == pytest.approx(1.5)

    vote = np.array([-1, -1, -1, 1])  # full disagreement -> +1
    assert update_power(powers, reports, vote, math.inf)[0] == pytest.approx(2.0)


def test_update_power_negation_symmetry():
    rng = np.random.default_rng(7)
    powers = np.ones(5)
    reports = rng.choice([-1, 1], size=(5, 12))
    vote = rng.choice([-1, 1], size=12)
    a = update_power(powers, reports, vote, math.inf)
    b = update_power(powers, -reports, -vote, math.inf)
    np.testing.assert_allclose(a, b)


@st.composite
def _power_update_inputs(draw):
    devices = draw(st.integers(1, 8))
    coords = draw(st.integers(1, 12))
    cap = draw(st.just(math.inf) | st.floats(1.0, 50.0))
    powers = draw(hnp.arrays(np.float64, devices, elements=st.floats(1.0, min(cap, 50.0))))
    signs = st.sampled_from([-1, 1])
    reports = draw(hnp.arrays(np.int8, (devices, coords), elements=signs))
    vote = draw(hnp.arrays(np.int8, coords, elements=signs))
    return powers, reports, vote, cap


@given(_power_update_inputs())
def test_update_power_monotone_with_bounded_increments(inputs):
    powers, reports, vote, cap = inputs
    new = update_power(powers, reports, vote, power_cap=cap)
    assert new.shape == powers.shape
    assert np.all(new >= powers)
    # Rounding is monotone, so p + increment never exceeds the rounded p + 1.
    assert np.all(new <= powers + 1.0)
    assert np.all(new <= cap)


@given(_power_update_inputs())
def test_update_power_default_cap_adds_agreement_exactly(inputs):
    # no cap is inf, and min(p, inf) == p: uncapped powers are p + |agreement|, bit for bit
    powers, reports, vote, _ = inputs
    expected = powers + np.abs(signed_agreement(reports, vote))
    assert np.array_equal(update_power(powers, reports, vote, PhyConfig().power_cap), expected)


def test_update_power_cap():
    powers = np.ones(2)
    reports = np.array([[1, 1], [1, 1]])
    vote = np.array([1, 1])
    for _ in range(5):
        powers = update_power(powers, reports, vote, power_cap=3.0)
    np.testing.assert_allclose(powers, [3.0, 3.0])


def test_signed_agreement_is_signed():
    reports = np.array([[1, 1, 1, 1], [-1, -1, -1, -1]])
    vote = np.array([1, 1, 1, 1])
    np.testing.assert_allclose(signed_agreement(reports, vote), [1.0, -1.0])


def test_power_control_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="^report length does not match vote length$"):
        signed_agreement(np.ones((2, 4)), np.ones(3))
    with pytest.raises(ValueError, match="^2 reports for 3 device powers$"):
        update_power(np.ones(3), np.ones((2, 4)), np.ones(4), math.inf)


def test_mean_power():
    assert mean_power(np.ones(3)) == pytest.approx(1.0)
    assert mean_power(np.array([1.0, 2.0])) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="^no device powers$"):
        mean_power(np.array([]))
