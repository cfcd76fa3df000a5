from dataclasses import replace

import numpy as np
import pytest

from airvote.channel import (
    FADING_MODES,
    ChannelConfig,
    sample_channel,
    superpose,
)
from airvote.phy import SYMBOL_ENERGY


def _rngs(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def _gains(shape, cfg, seed, signs=None):
    """sample_channel on zero symbol exponents: the lit bins' gains with
    their timing ramps, one frame per leading index of `shape`."""
    signs = np.ones(shape, dtype=np.int8) if signs is None else signs
    num_frames, _, num_coordinates = shape
    return sample_channel(signs, np.zeros(shape, dtype=np.complex128), 2 * num_coordinates, cfg, _rngs(*[(seed, f) for f in range(num_frames)]))


def _timing_offsets(rotated, aligned, lit, fft_size):
    """Each (frame, device)'s timing offset, recovered from its lit-bin
    gains and those of a sync_error_max = 0 draw from the same generator:
    the ratio is exp(-j*2*pi*l*offset/fft_size) on lit subcarrier l.
    Coordinate 1 lights subcarrier 2 or 3, which stays within half a turn
    for offsets below fft_size / 6, so it gives the offset.  Also checks
    that every coordinate carries that ramp at its own lit subcarrier,
    exactly linear in l."""
    ratio = rotated / aligned
    offsets = -np.angle(ratio[..., 1]) * fft_size / (2.0 * np.pi * lit[..., 1])
    ramp = np.exp(-2j * np.pi * offsets[..., None] * lit / fft_size)
    np.testing.assert_allclose(ratio, ramp, atol=1e-12)
    return offsets


def _random_signs(shape, seed):
    """Random signs and the subcarrier each one lights in a one-symbol frame."""
    signs = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), size=shape)
    return signs, 2 * np.arange(shape[-1]) + (signs < 0)


def test_sample_channel_unit_energy():
    gains = _gains((1, 4, 25_000), ChannelConfig(), 0)  # 1e5 gains
    assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, abs=0.01)


def test_sample_channel_zero_mean():
    gains = _gains((1, 4, 25_000), ChannelConfig(), 1)
    assert abs(np.mean(gains.real)) < 0.01
    assert abs(np.mean(gains.imag)) < 0.01


def test_sample_channel_offsets():
    signs, lit = _random_signs((1, 5, 4), 2)
    cfg = ChannelConfig(sync_error_max=0.0)
    # sync_error_max = 0 draws zero offsets, so no ramp touches the gains
    np.testing.assert_array_equal(_gains(signs.shape, cfg, 2, signs), _gains(signs.shape, cfg, 2))
    signs, lit = _random_signs((1, 200, 2), 3)
    cfg = ChannelConfig(sync_error_max=0.25)
    gains = _gains(signs.shape, cfg, 3, signs)
    aligned = _gains(signs.shape, ChannelConfig(sync_error_max=0.0), 3, signs)
    offsets = _timing_offsets(gains, aligned, lit, cfg.fft_size)
    assert offsets.shape == (1, 200)
    assert np.all(offsets >= 0)
    assert np.all(offsets <= 0.25)


def test_sample_channel_per_frame_constant_within_frame():
    gains = _gains((1, 3, 16), ChannelConfig(fading="per_frame"), 4)
    for m in range(3):
        assert np.unique(gains[0, m]).size == 1


def test_sample_channel_none_is_identity_gain():
    gains = _gains((1, 2, 6), ChannelConfig(fading="none"), 5)
    np.testing.assert_array_equal(gains, np.ones((1, 2, 6)))
    # with unit gains and no ramp the result is the symbol itself
    phases = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(1, 2, 6))
    symbols = sample_channel(np.ones((1, 2, 6)), 1j * phases, 12, ChannelConfig(fading="none"), _rngs(0))
    np.testing.assert_array_equal(symbols, np.exp(1j * phases))


def test_sample_channel_deterministic():
    signs, lit = _random_signs((1, 3, 6), 6)
    cfg = ChannelConfig(sync_error_max=0.1)
    a = _gains(signs.shape, cfg, 6, signs)
    b = _gains(signs.shape, cfg, 6, signs)
    np.testing.assert_array_equal(a, b)
    aligned = _gains(signs.shape, ChannelConfig(), 6, signs)
    np.testing.assert_array_equal(_timing_offsets(a, aligned, lit, 64), _timing_offsets(b, aligned, lit, 64))


def test_sample_channel_validates():
    signs = np.ones((2, 3, 4))
    with pytest.raises(ValueError, match="exponents of shape"):
        sample_channel(signs, np.zeros((2, 3, 5), dtype=np.complex128), 8, ChannelConfig(), _rngs(0, 1))
    with pytest.raises(ValueError, match="complex128"):
        sample_channel(signs, np.zeros((2, 3, 4)), 8, ChannelConfig(), _rngs(0, 1))
    with pytest.raises(ValueError, match="channel generators"):
        sample_channel(signs, np.zeros((2, 3, 4), dtype=np.complex128), 8, ChannelConfig(), _rngs(0))


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(noise_var=-1.0)
    with pytest.raises(ValueError):
        ChannelConfig(sync_error_max=1.0)
    with pytest.raises(ValueError):
        ChannelConfig(fading="rician")


# ---------------------------------------------------------------------------
# Sync error
# ---------------------------------------------------------------------------

def test_sync_error_zero_offset_is_identity():
    # With every offset 0 the gains are the raw draws, real parts first.
    gains = _gains((1, 3, 8), ChannelConfig(sync_error_max=0.0), 7)
    rng = np.random.default_rng((7, 0))
    raw = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    np.testing.assert_array_equal(gains[0], raw / np.sqrt(2.0))


def test_sync_error_preserves_magnitudes_and_dc():
    # Both configs draw the same gains; only the offsets' range differs.
    signs, lit = _random_signs((2, 4, 8), 8)
    rotated = _gains(signs.shape, ChannelConfig(sync_error_max=0.4, fft_size=16), 8, signs)
    aligned = _gains(signs.shape, ChannelConfig(sync_error_max=0.0, fft_size=16), 8, signs)
    offsets = _timing_offsets(rotated, aligned, lit, 16)
    assert offsets.all()
    np.testing.assert_allclose(np.abs(rotated), np.abs(aligned), atol=1e-12)
    # the rotation is exp(-j*2*pi*l*offset/fft_size) on lit subcarrier l,
    # so a device lighting subcarrier 0 keeps its gain exactly
    ramp = np.exp(-2j * np.pi * offsets[..., None] * lit / 16)
    np.testing.assert_allclose(rotated, aligned * ramp, atol=1e-12)
    on_dc = lit == 0
    assert on_dc.any()
    np.testing.assert_array_equal(rotated[on_dc], aligned[on_dc])


# ---------------------------------------------------------------------------
# Superposition
# ---------------------------------------------------------------------------

def _superpose(signs, faded, powers, cfg, seed=0):
    return superpose(signs, faded, powers, cfg, _rngs(*[(seed, f) for f in range(len(signs))]))


def test_superpose_identity_channel():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    signs = np.array([[[1, -1, -1]]])
    faded = np.array([[[1 + 2j, 3 - 1j, -0.5j]]])
    out = _superpose(signs, faded, np.array([1.0]), cfg)
    amplitude = np.sqrt(SYMBOL_ENERGY)
    np.testing.assert_array_equal(out[0], [[amplitude * (1 + 2j), 0, 0], [0, amplitude * (3 - 1j), amplitude * -0.5j]])


def test_superpose_noise_only_energy():
    cfg = ChannelConfig(noise_var=1.0, fading="none")
    signs = np.ones((1, 1, 50_000))
    out = _superpose(signs, np.zeros(signs.shape, dtype=complex), np.array([1.0]), cfg)
    assert out.shape == (1, 2, 50_000)  # 1e5 noisy bins
    assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, rel=0.02)


def test_superpose_destructive_interference():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    faded = np.array([[[1.0 + 0j], [-1.0 + 0j]]])
    out = _superpose(np.ones((1, 2, 1)), faded, np.array([1.0, 1.0]), cfg)
    np.testing.assert_allclose(out, np.zeros((1, 2, 1)))


def test_superpose_sums_each_bin_over_the_devices_lighting_it():
    cfg = ChannelConfig(noise_var=0.0)
    rng = np.random.default_rng(9)
    signs = rng.choice([-1, 1], size=(2, 3, 5))
    faded = rng.normal(size=signs.shape) + 1j * rng.normal(size=signs.shape)
    powers = np.array([1.0, 2.0, 0.5])
    out = _superpose(signs, faded, powers, cfg)
    weighted = np.sqrt(SYMBOL_ENERGY * powers)[:, None] * faded
    np.testing.assert_allclose(out[:, 0], np.where(signs > 0, weighted, 0).sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(out[:, 1], np.where(signs < 0, weighted, 0).sum(axis=1), atol=1e-12)


def test_superpose_linear_in_frames():
    cfg = ChannelConfig(noise_var=0.0)
    rng = np.random.default_rng(9)
    signs = rng.choice([-1, 1], size=(1, 3, 4))
    powers = np.array([1.0, 2.0, 0.5])
    f1 = rng.normal(size=(1, 3, 4)) + 1j * rng.normal(size=(1, 3, 4))
    f2 = rng.normal(size=(1, 3, 4)) + 1j * rng.normal(size=(1, 3, 4))
    lhs = _superpose(signs, f1 + f2, powers, cfg)
    rhs = _superpose(signs, f1, powers, cfg) + _superpose(signs, f2, powers, cfg)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_superpose_applies_power_scaling():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    signs = np.array([[[1, -1]]])
    out = _superpose(signs, np.ones((1, 1, 2), dtype=complex), np.array([4.0]), cfg)
    amplitude = 2.0 * np.sqrt(SYMBOL_ENERGY)
    np.testing.assert_allclose(out, [[[amplitude, 0], [0, amplitude]]])


def test_superpose_shape_checks():
    cfg = ChannelConfig()
    signs = np.ones((1, 2, 4))
    faded = np.ones((1, 2, 4), dtype=complex)
    with pytest.raises(ValueError, match="faded symbols"):
        _superpose(signs, np.ones((1, 3, 4), dtype=complex), np.ones(2), cfg)
    with pytest.raises(ValueError, match="powers"):
        _superpose(signs, faded, np.ones(3), cfg)
    with pytest.raises(ValueError, match="frames, devices, coordinates"):
        _superpose(signs[0], faded[0], np.ones(2), cfg)
    with pytest.raises(ValueError, match="noise generators"):
        superpose(signs, faded, np.ones(2), cfg, _rngs(0, 1))


def test_superpose_deterministic():
    cfg = ChannelConfig(noise_var=0.5)
    signs = np.array([[[1, -1, 1, 1], [-1, -1, 1, -1]]])
    faded = _gains(signs.shape, cfg, 3, signs)
    a = _superpose(signs, faded, np.ones(2), cfg, seed=4)
    b = _superpose(signs, faded, np.ones(2), cfg, seed=4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("fading", FADING_MODES)
def test_frame_axis_matches_per_frame_calls(fading):
    cfg = ChannelConfig(noise_var=0.3, sync_error_max=0.3, fft_size=16, fading=fading)
    rng = np.random.default_rng(11)
    signs, lit = _random_signs((3, 4, 8), 11)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=signs.shape)
    powers = np.array([1.0, 2.0, 0.5, 3.0])

    def generators(tag):
        return _rngs(*[(tag, f) for f in range(3)])

    faded = sample_channel(signs, 1j * phases, 16, cfg, generators(0))
    received = superpose(signs, faded, powers, cfg, generators(1))
    assert faded.shape == (3, 4, 8) and received.shape == (3, 2, 8)
    aligned = sample_channel(signs, 1j * phases, 16, replace(cfg, sync_error_max=0.0), generators(0))
    for f, (channel_rng, noise_rng) in enumerate(zip(generators(0), generators(1))):
        one = slice(f, f + 1)
        single = sample_channel(signs[one], 1j * phases[one], 16, cfg, [channel_rng])
        np.testing.assert_array_equal(faded[f], single[0])
        np.testing.assert_array_equal(
            _timing_offsets(faded, aligned, lit, 16)[f], _timing_offsets(single, aligned[one], lit[one], 16)[0]
        )
        np.testing.assert_array_equal(received[f], superpose(signs[one], single, powers, cfg, [noise_rng])[0])
