import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from airvote import channel
from airvote.channel import (
    FADING_MODES,
    ChannelConfig,
    _unit_phasors,
    sample_channel,
    superpose,
)
from airvote.analysis import air_detect
from airvote.detector import detect
from airvote.phy import FFT_SIZE, SYMBOL_ENERGY, PhyConfig, encode_signs
from conftest import rngs


# _unit_phasors' contract: within 4 ulp of 1 of numpy's complex exp.
PHASOR_TOLERANCE = 4 * 2.0**-52


def _complex(planes):
    """Real and imaginary planes (2, ...) as one complex array; exact."""
    return planes[0] + 1j * planes[1]


def _phasors(theta):
    """_unit_phasors at unit gains, one row per angle, as complex."""
    column = np.asarray(theta, dtype=np.float64).reshape(-1, 1)
    out = np.empty((2, *column.shape))
    _unit_phasors(column, np.broadcast_to([[[1.0]], [[0.0]]], (2, len(column), 1)), out)
    return _complex(out).reshape(np.shape(theta))


def _gains(shape, cfg, seed, signs=None):
    """sample_channel on zero symbol phases: the lit bins' gains with
    their timing ramps, one frame per leading index of `shape`, as complex."""
    signs = np.ones(shape, dtype=np.int8) if signs is None else signs
    num_frames, _, num_coordinates = shape
    frame_rngs = rngs(*[(seed, f) for f in range(num_frames)])
    return _complex(sample_channel(signs, np.zeros(shape), 2 * num_coordinates, cfg, frame_rngs))


def _timing_offsets(rotated, aligned, lit):
    """Each (frame, device)'s timing offset, recovered from its lit-bin
    gains and those of a sync_error_max = 0 draw from the same generator:
    the ratio is exp(-j*2*pi*l*offset/FFT_SIZE) on lit subcarrier l.
    Coordinate 1 lights subcarrier 2 or 3, which stays within half a turn
    for offsets below FFT_SIZE / 6, so it gives the offset.  Also checks
    that every coordinate carries that ramp at its own lit subcarrier,
    exactly linear in l."""
    ratio = rotated / aligned
    offsets = -np.angle(ratio[..., 1]) * FFT_SIZE / (2.0 * np.pi * lit[..., 1])
    ramp = np.exp(-2j * np.pi * offsets[..., None] * lit / FFT_SIZE)
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
    offsets = _timing_offsets(gains, aligned, lit)
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
    symbols = _complex(sample_channel(np.ones((1, 2, 6)), phases, 12, ChannelConfig(fading="none"), rngs(0)))
    np.testing.assert_array_equal(symbols, _phasors(phases))
    assert np.abs(symbols - np.exp(1j * phases)).max() <= PHASOR_TOLERANCE


def test_unit_phasors_match_exp():
    nodes = np.arange(-256, 257) * (2.0 * np.pi / 256)
    special = [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, np.nextafter(2.0 * np.pi, 0.0)]
    for theta in (
        np.random.default_rng(25).uniform(-2.0 * np.pi, 2.0 * np.pi, 10**6),
        np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), special]),
    ):
        assert np.abs(_phasors(theta) - np.exp(1j * theta)).max() <= PHASOR_TOLERANCE
    # the zero-offset identity tests rely on an exact 1 at theta = 0
    one = _phasors([0.0])[0]
    assert (one.real, one.imag) == (1.0, 0.0)


def test_unit_phasors_are_pinned_bit_for_bit():
    # sha256 of the planes for 100,000 angles in [-2pi, 4pi): it pins every product, sum and rounding
    # of the evaluator, below what the 4-ulp bound sees (the cosine's 720 -> 721 moves 811 last bits)
    rng = np.random.default_rng(38)
    theta = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, (100, 1000))
    drawn = rng.standard_normal((2, 100, 1000))
    unit = np.broadcast_to([[[1.0]], [[0.0]]], (2, 100, 1))
    for gains, digest in (
        (unit, "3fee1241f3f2e4fa51384a398c5fa97f718c26dc0231e3a295aa3ab8272f5fc9"),
        (drawn, "dd7c3e12895d3368768de5f47e94c19188d2fb76b4503b1e4cfe71f00b443744"),
    ):
        out = np.empty((2, 100, 1000))
        _unit_phasors(theta, gains, out)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
    # written in place over the gains, as sample_channel does for per_bin fading
    _unit_phasors(theta, drawn, drawn)
    np.testing.assert_array_equal(drawn, out)


@pytest.mark.parametrize("chunk", [1, 4000, 18 * 1000])
@pytest.mark.parametrize("fading", FADING_MODES)
def test_sample_channel_chunking_is_invisible(fading, chunk, monkeypatch):
    # each phasor is computed on its own, so chunking moves no bit: one pass takes both frames'
    # 9 rows of 1,000 in chunks of 1 row, of 4 rows (rows 8-11 straddle the frames) or of all 18,
    # and a per_frame or unit gain (2, rows, 1) is sliced along with its rows
    signs, _ = _random_signs((2, 9, 1000), 5)
    phases = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, signs.shape)

    def draw(sync_error_max):
        cfg = ChannelConfig(sync_error_max=sync_error_max, fading=fading)
        return sample_channel(signs, phases, 64, cfg, rngs((4, 0), (4, 1)))

    reference, aligned = draw(0.3), draw(0.0)
    assert all((reference[:, f] != aligned[:, f]).any() for f in range(2))  # both frames carry a ramp
    monkeypatch.setattr(channel, "_PHASOR_CHUNK", chunk)
    np.testing.assert_array_equal(draw(0.3), reference)


def test_sample_channel_validates():
    signs = np.ones((2, 3, 4))
    with pytest.raises(ValueError, match="phases of shape"):
        sample_channel(signs, np.zeros((2, 3, 5)), 8, ChannelConfig(), rngs(0, 1))
    # complex exponents j*phi, the old contract, would otherwise read as phi = 0
    with pytest.raises(ValueError, match="^phases must be real"):
        sample_channel(signs, np.zeros((2, 3, 4), dtype=np.complex128), 8, ChannelConfig(), rngs(0, 1))
    with pytest.raises(ValueError, match="^1 channel generators for 2 frames$"):
        sample_channel(signs, np.zeros((2, 3, 4)), 8, ChannelConfig(), rngs(0))
    with pytest.raises(ValueError, match=r"expected \(frames, devices, coordinates\) for both$"):
        sample_channel(signs[0], np.zeros((3, 4)), 8, ChannelConfig(), rngs(0))


def test_config_validation():
    assert ChannelConfig(noise_var=channel.NOISE_VAR_MAX).noise_var == channel.NOISE_VAR_MAX
    with pytest.raises(ValueError, match="^noise_var must be"):
        ChannelConfig(noise_var=np.nextafter(channel.NOISE_VAR_MAX, np.inf))
    with pytest.raises(ValueError, match="^noise_var must be"):
        ChannelConfig(noise_var=-1.0)
    with pytest.raises(ValueError, match=r"^sync_error_max must lie in \[0, 1\)$"):
        ChannelConfig(sync_error_max=1.0)
    with pytest.raises(ValueError, match="^fading must be one of"):
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
    rotated = _gains(signs.shape, ChannelConfig(sync_error_max=0.4), 8, signs)
    aligned = _gains(signs.shape, ChannelConfig(sync_error_max=0.0), 8, signs)
    offsets = _timing_offsets(rotated, aligned, lit)
    assert offsets.all()
    np.testing.assert_allclose(np.abs(rotated), np.abs(aligned), atol=1e-12)
    # the rotation is exp(-j*2*pi*l*offset/FFT_SIZE) on lit subcarrier l,
    # so a device lighting subcarrier 0 keeps its gain exactly
    ramp = np.exp(-2j * np.pi * offsets[..., None] * lit / FFT_SIZE)
    np.testing.assert_allclose(rotated, aligned * ramp, atol=1e-12)
    on_dc = lit == 0
    assert on_dc.any()
    np.testing.assert_array_equal(rotated[on_dc], aligned[on_dc])


# ---------------------------------------------------------------------------
# Superposition
# ---------------------------------------------------------------------------

def _superpose(signs, faded, powers, cfg):
    return superpose(signs, faded, powers, cfg, rngs(*[(0, f) for f in range(len(signs))]))


def test_superpose_noise_only_energy():
    cfg = ChannelConfig(noise_var=1.0, fading="none")
    signs = np.ones((1, 1, 50_000))
    out = _superpose(signs, np.zeros((2, *signs.shape)), np.array([1.0]), cfg)
    assert out.shape == (2, 1, 2, 50_000) and out.dtype == np.float64  # 1e5 noisy bins
    result = detect(out)
    assert np.mean([result.e_plus, result.e_minus]) == pytest.approx(1.0, rel=0.02)


def test_superpose_sums_each_bin_over_the_devices_lighting_it():
    cfg = ChannelConfig(noise_var=0.0)
    rng = np.random.default_rng(9)
    signs = rng.choice([-1, 1], size=(2, 3, 5))
    faded = rng.normal(size=(2, *signs.shape))
    powers = np.array([1.0, 2.0, 0.5])
    out = _superpose(signs, faded, powers, cfg)
    weighted = np.sqrt(SYMBOL_ENERGY * powers)[:, None] * faded  # both planes
    np.testing.assert_array_equal(out[:, :, 0], np.where(signs > 0, weighted, 0).sum(axis=2))
    np.testing.assert_array_equal(out[:, :, 1], np.where(signs < 0, weighted, 0).sum(axis=2))


def test_superpose_shape_checks():
    cfg = ChannelConfig()
    signs = np.ones((1, 2, 4))
    faded = np.ones((2, 1, 2, 4))
    with pytest.raises(ValueError, match="faded symbols"):
        _superpose(signs, np.ones((2, 1, 3, 4)), np.ones(2), cfg)
    with pytest.raises(ValueError, match="powers"):
        _superpose(signs, faded, np.ones(3), cfg)
    with pytest.raises(ValueError, match="frames, devices, coordinates"):
        _superpose(signs[0], faded[:, 0], np.ones(2), cfg)
    with pytest.raises(ValueError, match="^1 noise generators for 2 frames$"):
        superpose(np.ones((2, 2, 4)), np.ones((2, 2, 2, 4)), np.ones(2), cfg, rngs(0))
    for bad in (-1.0, np.nan, np.inf):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^powers must be finite and >= 0$"):
            superpose(signs, faded, np.array([bad, 1.0]), cfg, [rng])
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw
    # silent devices are legal: the bins then hold noise alone
    assert np.abs(_superpose(signs, faded, np.zeros(2), replace(cfg, noise_var=0.0))).max() == 0.0


@pytest.mark.parametrize("fading", FADING_MODES)
def test_frame_axis_matches_per_frame_calls(fading):
    cfg = ChannelConfig(noise_var=0.3, sync_error_max=0.3, fading=fading)
    rng = np.random.default_rng(11)
    signs, lit = _random_signs((3, 4, 8), 11)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=signs.shape)
    powers = np.array([1.0, 2.0, 0.5, 3.0])

    def generators(tag):
        return rngs(*[(tag, f) for f in range(3)])

    faded = sample_channel(signs, phases, 16, cfg, generators(0))
    received = superpose(signs, faded, powers, cfg, generators(1))
    assert faded.shape == (2, 3, 4, 8) and received.shape == (2, 3, 2, 8)
    aligned = _complex(sample_channel(signs, phases, 16, replace(cfg, sync_error_max=0.0), generators(0)))
    for f, (channel_rng, noise_rng) in enumerate(zip(generators(0), generators(1))):
        one = slice(f, f + 1)
        single = sample_channel(signs[one], phases[one], 16, cfg, [channel_rng])
        np.testing.assert_array_equal(faded[:, f], single[:, 0])
        np.testing.assert_array_equal(
            _timing_offsets(_complex(faded), aligned, lit)[f],
            _timing_offsets(_complex(single), aligned[one], lit[one])[0],
        )
        np.testing.assert_array_equal(received[:, f], superpose(signs[one], single, powers, cfg, [noise_rng])[:, 0])


# One air_detect call per fading mode (31 devices, 7,850 coordinates, spread
# powers, timing offsets); prints the digest of its e_plus and e_minus bytes.
_ENERGY_DIGESTS = """
import hashlib
import numpy as np
from airvote.analysis import air_detect
from airvote.channel import FADING_MODES, ChannelConfig
from airvote.phy import PhyConfig
phy, devices, coordinates = PhyConfig(), 31, 7850
signs = np.random.default_rng(35).choice(np.array([-1, 1], dtype=np.int8), size=(devices, coordinates))
for fading in FADING_MODES:
    result = air_detect(signs, np.linspace(1.0, 5.0, devices), phy,
                        ChannelConfig(noise_var=0.5, sync_error_max=0.25, fading=fading),
                        [np.random.default_rng((1, m)) for m in range(devices)],
                        [np.random.default_rng((2, f)) for f in range(phy.num_frames(coordinates))])
    print(fading, hashlib.sha256(result.e_plus.tobytes() + result.e_minus.tobytes()).hexdigest())
"""


def _energy_digests(disabled):
    """_ENERGY_DIGESTS' output in a child interpreter whose numpy dispatches none of `disabled`."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(channel.__file__).parents[1]), env.get("PYTHONPATH")]))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    child = subprocess.run([sys.executable, "-c", _ENERGY_DIGESTS], capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.mark.parametrize("cap", ["X86_V3", "X86_V2"])
def test_kernel_energies_do_not_depend_on_the_simd_level(cap):
    # Capped at X86_V3, numpy runs no target above it; capped at X86_V2, not X86_V3 either.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    dispatch, runs = umath.__cpu_dispatch__, umath.__cpu_features__
    if "X86_V3" not in dispatch:
        pytest.skip(f"this numpy build dispatches no X86_V3 loops ({', '.join(dispatch) or 'none'})")
    capped = dispatch[dispatch.index("X86_V3") + (cap == "X86_V3"):]  # from X86_V3 on, or above it
    disabled = [target for target in capped if runs.get(target)]
    if not disabled:
        pytest.skip(f"numpy runs none of {', '.join(capped) or 'its targets above X86_V3'} on this host")
    assert _energy_digests(disabled) == _energy_digests([])


def test_no_stage_writes_its_inputs():
    # Every stage reads read-only inputs and leaves their bytes as they were.
    cfg = ChannelConfig(noise_var=0.5, sync_error_max=0.3)
    rng = np.random.default_rng(12)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, 3, 4))
    inputs = {
        "signs": signs,
        "rows": signs.transpose(1, 0, 2).reshape(3, 8),
        "powers": np.array([1.0, 2.0, 0.5]),
        "phases": rng.uniform(0.0, 2.0 * np.pi, signs.shape),
        "faded": rng.normal(size=(2, *signs.shape)),
        "received": rng.normal(size=(2, 2, 2, 4)),
    }
    copies = {name: array.copy() for name, array in inputs.items()}
    for array in inputs.values():
        array.flags.writeable = False
    signs, rows, powers, phases, faded, received = inputs.values()
    encode_signs(signs, rngs(0, 1, 2))
    sample_channel(signs, phases, 8, cfg, rngs(3, 4))
    superpose(signs, faded, powers, cfg, rngs(5, 6))
    detect(received)
    air_detect(rows, powers, PhyConfig(num_subcarriers=8, num_symbols=1), cfg, rngs(0, 1, 2), rngs(3, 4))
    for name, array in inputs.items():
        assert array.tobytes() == copies[name].tobytes(), name
