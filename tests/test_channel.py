from dataclasses import replace

import numpy as np
import pytest

from airvote.channel import (
    FADING_MODES,
    ChannelConfig,
    sample_channel,
    superpose,
)


def _rngs(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def _timing_offsets(rotated, aligned, fft_size):
    """Each (frame, device)'s timing offset, recovered from its gains and
    those of a sync_error_max = 0 draw from the same generator: the ratio
    is exp(-j*2*pi*l*offset/fft_size) on subcarrier l, so subcarrier 1
    gives the offset.  Also checks that every symbol of a device carries
    that ramp, exactly linear in l."""
    ratio = rotated / aligned
    offsets = -np.angle(ratio[:, :, 0, 1]) * fft_size / (2.0 * np.pi)
    l = np.arange(rotated.shape[-1])
    ramp = np.exp(-2j * np.pi * offsets[..., None] * l / fft_size)[..., None, :]
    np.testing.assert_allclose(ratio, np.broadcast_to(ramp, ratio.shape), atol=1e-12)
    return offsets


def test_sample_channel_unit_energy():
    cfg = ChannelConfig()
    gains = sample_channel(4, 25, 1000, cfg, _rngs(0))  # 1e5 gains
    assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, abs=0.01)


def test_sample_channel_zero_mean():
    cfg = ChannelConfig()
    gains = sample_channel(4, 25, 1000, cfg, _rngs(1))
    assert abs(np.mean(gains.real)) < 0.01
    assert abs(np.mean(gains.imag)) < 0.01


def test_sample_channel_offsets():
    cfg = ChannelConfig(sync_error_max=0.0)
    gains = sample_channel(5, 2, 4, cfg, _rngs(2))
    aligned = sample_channel(5, 2, 4, cfg, _rngs(2))
    np.testing.assert_array_equal(_timing_offsets(gains, aligned, cfg.fft_size), np.zeros((1, 5)))
    cfg = ChannelConfig(sync_error_max=0.25)
    gains = sample_channel(200, 1, 2, cfg, _rngs(3))
    aligned = sample_channel(200, 1, 2, ChannelConfig(sync_error_max=0.0), _rngs(3))
    offsets = _timing_offsets(gains, aligned, cfg.fft_size)
    assert offsets.shape == (1, 200)
    assert np.all(offsets >= 0)
    assert np.all(offsets <= 0.25)


def test_sample_channel_per_frame_constant_within_frame():
    cfg = ChannelConfig(fading="per_frame")
    gains = sample_channel(3, 4, 8, cfg, _rngs(4))
    for m in range(3):
        assert np.unique(gains[0, m]).size == 1


def test_sample_channel_none_is_identity_gain():
    cfg = ChannelConfig(fading="none")
    gains = sample_channel(2, 3, 4, cfg, _rngs(5))
    np.testing.assert_array_equal(gains, np.ones((1, 2, 3, 4)))


def test_sample_channel_deterministic():
    cfg = ChannelConfig(sync_error_max=0.1)
    a = sample_channel(3, 2, 6, cfg, _rngs(6))
    b = sample_channel(3, 2, 6, cfg, _rngs(6))
    np.testing.assert_array_equal(a, b)
    aligned = sample_channel(3, 2, 6, ChannelConfig(), _rngs(6))
    np.testing.assert_array_equal(_timing_offsets(a, aligned, 64), _timing_offsets(b, aligned, 64))


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
    cfg = ChannelConfig(sync_error_max=0.0)
    gains = sample_channel(3, 2, 8, cfg, _rngs(7))
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((3, 2, 8)) + 1j * rng.standard_normal((3, 2, 8))
    np.testing.assert_array_equal(gains[0], raw / np.sqrt(2.0))


def test_sync_error_preserves_magnitudes_and_dc():
    # Both configs draw the same gains; only the offsets' range differs.
    cfg = ChannelConfig(sync_error_max=0.4, fft_size=16)
    rotated = sample_channel(4, 3, 8, cfg, _rngs(8))
    aligned = sample_channel(4, 3, 8, ChannelConfig(sync_error_max=0.0, fft_size=16), _rngs(8))
    offsets = _timing_offsets(rotated, aligned, 16)
    assert offsets.all()
    np.testing.assert_allclose(np.abs(rotated), np.abs(aligned), atol=1e-12)
    # the rotation is exp(-j*2*pi*l*offset/fft_size) on subcarrier l, so
    # subcarrier 0 has zero phase slope
    l = np.arange(8)
    ramp = np.exp(-2j * np.pi * offsets[..., None] * l / 16)[..., None, :]
    np.testing.assert_allclose(rotated, aligned * ramp, atol=1e-12)
    np.testing.assert_array_equal(rotated[..., 0], aligned[..., 0])


# ---------------------------------------------------------------------------
# Superposition
# ---------------------------------------------------------------------------

def test_superpose_identity_channel():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frame = np.arange(6, dtype=np.complex128).reshape(2, 3) * (1 + 2j)
    gains = sample_channel(1, 2, 3, cfg, _rngs(0))
    out = superpose(frame[None, None], np.array([1.0]), gains, cfg, _rngs(0))
    np.testing.assert_allclose(out[0], frame)


def test_superpose_noise_only_energy():
    cfg = ChannelConfig(noise_var=1.0, fading="none")
    frames = np.zeros((1, 1, 100, 1000), dtype=np.complex128)
    gains = sample_channel(1, 100, 1000, cfg, _rngs(1))
    out = superpose(frames, np.array([1.0]), gains, cfg, _rngs(2))
    assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, rel=0.02)


def test_superpose_destructive_interference():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frames = np.ones((1, 2, 1, 1), dtype=np.complex128)
    gains = np.array([[[[1.0 + 0j]], [[-1.0 + 0j]]]])
    out = superpose(frames, np.array([1.0, 1.0]), gains, cfg, _rngs(0))
    np.testing.assert_allclose(out, np.zeros((1, 1, 1)))


def test_superpose_linear_in_frames():
    cfg = ChannelConfig(noise_var=0.0)
    rng = np.random.default_rng(9)
    gains = sample_channel(3, 2, 4, cfg, _rngs(10))
    powers = np.array([1.0, 2.0, 0.5])
    f1 = rng.normal(size=(1, 3, 2, 4)) + 1j * rng.normal(size=(1, 3, 2, 4))
    f2 = rng.normal(size=(1, 3, 2, 4)) + 1j * rng.normal(size=(1, 3, 2, 4))
    lhs = superpose(f1 + f2, powers, gains, cfg, _rngs(0))
    rhs = superpose(f1, powers, gains, cfg, _rngs(0)) + superpose(f2, powers, gains, cfg, _rngs(0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_superpose_applies_power_scaling():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frames = np.ones((1, 1, 1, 2), dtype=np.complex128)
    gains = sample_channel(1, 1, 2, cfg, _rngs(0))
    out = superpose(frames, np.array([4.0]), gains, cfg, _rngs(0))
    np.testing.assert_allclose(out, 2.0 * np.ones((1, 1, 2)))


def test_superpose_shape_checks():
    cfg = ChannelConfig()
    gains = sample_channel(2, 2, 4, cfg, _rngs(0))
    with pytest.raises(ValueError, match="does not match"):
        superpose(np.zeros((1, 3, 2, 4), dtype=complex), np.ones(3), gains, cfg, _rngs(0))
    with pytest.raises(ValueError, match="powers"):
        superpose(np.zeros((1, 2, 2, 4), dtype=complex), np.ones(3), gains, cfg, _rngs(0))
    with pytest.raises(ValueError, match="stacked"):
        superpose(np.zeros((2, 2, 4), dtype=complex), np.ones(2), gains, cfg, _rngs(0))


def test_superpose_deterministic():
    cfg = ChannelConfig(noise_var=0.5)
    gains = sample_channel(2, 2, 4, cfg, _rngs(3))
    frames = np.ones((1, 2, 2, 4), dtype=np.complex128)
    a = superpose(frames, np.ones(2), gains, cfg, _rngs(4))
    b = superpose(frames, np.ones(2), gains, cfg, _rngs(4))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("fading", FADING_MODES)
def test_frame_axis_matches_per_frame_calls(fading):
    cfg = ChannelConfig(noise_var=0.3, sync_error_max=0.3, fft_size=16, fading=fading)
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(3, 4, 2, 8)) + 1j * rng.normal(size=(3, 4, 2, 8))
    powers = np.array([1.0, 2.0, 0.5, 3.0])

    def generators(tag):
        return _rngs(*[(tag, f) for f in range(3)])

    gains = sample_channel(4, 2, 8, cfg, generators(0))
    received = superpose(frames, powers, gains, cfg, generators(1))
    assert gains.shape == (3, 4, 2, 8) and received.shape == (3, 2, 8)
    aligned = sample_channel(4, 2, 8, replace(cfg, sync_error_max=0.0), generators(0))
    for f, (channel_rng, noise_rng) in enumerate(zip(generators(0), generators(1))):
        single = sample_channel(4, 2, 8, cfg, [channel_rng])
        np.testing.assert_array_equal(gains[f], single[0])
        np.testing.assert_array_equal(
            _timing_offsets(gains, aligned, 16)[f], _timing_offsets(single, aligned[f:f + 1], 16)[0]
        )
        np.testing.assert_array_equal(received[f], superpose(frames[f:f + 1], powers, single, cfg, [noise_rng])[0])
    with pytest.raises(ValueError, match="noise generators"):
        superpose(frames, powers, gains, cfg, generators(1)[:2])
