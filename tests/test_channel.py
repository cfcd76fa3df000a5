import numpy as np
import pytest

from airvote.channel import (
    FADING_MODES,
    ChannelConfig,
    ChannelRealization,
    sample_channel,
    superpose,
)


def _rngs(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def test_sample_channel_unit_energy():
    cfg = ChannelConfig()
    real = sample_channel(4, 25, 1000, cfg, _rngs(0))  # 1e5 gains
    assert np.mean(np.abs(real.coefficients) ** 2) == pytest.approx(1.0, abs=0.01)


def test_sample_channel_zero_mean():
    cfg = ChannelConfig()
    real = sample_channel(4, 25, 1000, cfg, _rngs(1))
    assert abs(np.mean(real.coefficients.real)) < 0.01
    assert abs(np.mean(real.coefficients.imag)) < 0.01


def test_sample_channel_offsets():
    cfg = ChannelConfig(sync_error_max=0.0)
    real = sample_channel(5, 2, 4, cfg, _rngs(2))
    np.testing.assert_array_equal(real.timing_offsets, np.zeros((1, 5)))
    cfg = ChannelConfig(sync_error_max=0.25)
    real = sample_channel(200, 1, 2, cfg, _rngs(3))
    assert np.all(real.timing_offsets >= 0)
    assert np.all(real.timing_offsets <= 0.25)


def test_sample_channel_per_frame_constant_within_frame():
    cfg = ChannelConfig(fading="per_frame")
    real = sample_channel(3, 4, 8, cfg, _rngs(4))
    for m in range(3):
        assert np.unique(real.coefficients[0, m]).size == 1


def test_sample_channel_none_is_identity_gain():
    cfg = ChannelConfig(fading="none")
    real = sample_channel(2, 3, 4, cfg, _rngs(5))
    np.testing.assert_array_equal(real.coefficients, np.ones((1, 2, 3, 4)))


def test_sample_channel_deterministic():
    cfg = ChannelConfig(sync_error_max=0.1)
    a = sample_channel(3, 2, 6, cfg, _rngs(6))
    b = sample_channel(3, 2, 6, cfg, _rngs(6))
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    np.testing.assert_array_equal(a.timing_offsets, b.timing_offsets)


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
    real = sample_channel(3, 2, 8, cfg, _rngs(7))
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((3, 2, 8)) + 1j * rng.standard_normal((3, 2, 8))
    np.testing.assert_array_equal(real.coefficients[0], raw / np.sqrt(2.0))


def test_sync_error_preserves_magnitudes_and_dc():
    # Both configs draw the same gains; only the offsets' range differs.
    cfg = ChannelConfig(sync_error_max=0.4, fft_size=16)
    rotated = sample_channel(4, 3, 8, cfg, _rngs(8))
    aligned = sample_channel(4, 3, 8, ChannelConfig(sync_error_max=0.0, fft_size=16), _rngs(8))
    assert rotated.timing_offsets.all()
    np.testing.assert_allclose(
        np.abs(rotated.coefficients), np.abs(aligned.coefficients), atol=1e-12
    )
    # the rotation is exp(-j*2*pi*l*offset/fft_size) on subcarrier l, so
    # subcarrier 0 has zero phase slope
    l = np.arange(8)
    ramp = np.exp(-2j * np.pi * rotated.timing_offsets[..., None] * l / 16)[..., None, :]
    np.testing.assert_allclose(rotated.coefficients, aligned.coefficients * ramp, atol=1e-12)
    np.testing.assert_array_equal(
        rotated.coefficients[..., 0], aligned.coefficients[..., 0]
    )


# ---------------------------------------------------------------------------
# Superposition
# ---------------------------------------------------------------------------

def test_superpose_identity_channel():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frame = np.arange(6, dtype=np.complex128).reshape(2, 3) * (1 + 2j)
    real = sample_channel(1, 2, 3, cfg, _rngs(0))
    out = superpose(frame[None, None], np.array([1.0]), real, cfg, _rngs(0))
    np.testing.assert_allclose(out[0], frame)


def test_superpose_noise_only_energy():
    cfg = ChannelConfig(noise_var=1.0, fading="none")
    frames = np.zeros((1, 1, 100, 1000), dtype=np.complex128)
    real = sample_channel(1, 100, 1000, cfg, _rngs(1))
    out = superpose(frames, np.array([1.0]), real, cfg, _rngs(2))
    assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, rel=0.02)


def test_superpose_destructive_interference():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frames = np.ones((1, 2, 1, 1), dtype=np.complex128)
    real = ChannelRealization(
        np.array([[[[1.0 + 0j]], [[-1.0 + 0j]]]]), np.zeros((1, 2))
    )
    out = superpose(frames, np.array([1.0, 1.0]), real, cfg, _rngs(0))
    np.testing.assert_allclose(out, np.zeros((1, 1, 1)))


def test_superpose_linear_in_frames():
    cfg = ChannelConfig(noise_var=0.0)
    rng = np.random.default_rng(9)
    real = sample_channel(3, 2, 4, cfg, _rngs(10))
    powers = np.array([1.0, 2.0, 0.5])
    f1 = rng.normal(size=(1, 3, 2, 4)) + 1j * rng.normal(size=(1, 3, 2, 4))
    f2 = rng.normal(size=(1, 3, 2, 4)) + 1j * rng.normal(size=(1, 3, 2, 4))
    lhs = superpose(f1 + f2, powers, real, cfg, _rngs(0))
    rhs = superpose(f1, powers, real, cfg, _rngs(0)) + superpose(f2, powers, real, cfg, _rngs(0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_superpose_applies_power_scaling():
    cfg = ChannelConfig(noise_var=0.0, fading="none")
    frames = np.ones((1, 1, 1, 2), dtype=np.complex128)
    real = sample_channel(1, 1, 2, cfg, _rngs(0))
    out = superpose(frames, np.array([4.0]), real, cfg, _rngs(0))
    np.testing.assert_allclose(out, 2.0 * np.ones((1, 1, 2)))


def test_superpose_shape_checks():
    cfg = ChannelConfig()
    real = sample_channel(2, 2, 4, cfg, _rngs(0))
    with pytest.raises(ValueError, match="does not match"):
        superpose(np.zeros((1, 3, 2, 4), dtype=complex), np.ones(3), real, cfg, _rngs(0))
    with pytest.raises(ValueError, match="powers"):
        superpose(np.zeros((1, 2, 2, 4), dtype=complex), np.ones(3), real, cfg, _rngs(0))
    with pytest.raises(ValueError, match="stacked"):
        superpose(np.zeros((2, 2, 4), dtype=complex), np.ones(2), real, cfg, _rngs(0))


def test_superpose_deterministic():
    cfg = ChannelConfig(noise_var=0.5)
    real = sample_channel(2, 2, 4, cfg, _rngs(3))
    frames = np.ones((1, 2, 2, 4), dtype=np.complex128)
    a = superpose(frames, np.ones(2), real, cfg, _rngs(4))
    b = superpose(frames, np.ones(2), real, cfg, _rngs(4))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("fading", FADING_MODES)
def test_frame_axis_matches_per_frame_calls(fading):
    cfg = ChannelConfig(noise_var=0.3, sync_error_max=0.3, fft_size=16, fading=fading)
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(3, 4, 2, 8)) + 1j * rng.normal(size=(3, 4, 2, 8))
    powers = np.array([1.0, 2.0, 0.5, 3.0])

    def generators(tag):
        return _rngs(*[(tag, f) for f in range(3)])

    real = sample_channel(4, 2, 8, cfg, generators(0))
    received = superpose(frames, powers, real, cfg, generators(1))
    assert real.coefficients.shape == (3, 4, 2, 8) and received.shape == (3, 2, 8)
    for f, (channel_rng, noise_rng) in enumerate(zip(generators(0), generators(1))):
        single = sample_channel(4, 2, 8, cfg, [channel_rng])
        np.testing.assert_array_equal(real.coefficients[f], single.coefficients[0])
        np.testing.assert_array_equal(real.timing_offsets[f], single.timing_offsets[0])
        np.testing.assert_array_equal(received[f], superpose(frames[f:f + 1], powers, single, cfg, [noise_rng])[0])
    with pytest.raises(ValueError, match="noise generators"):
        superpose(frames, powers, real, cfg, generators(1)[:2])
