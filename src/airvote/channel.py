"""Rayleigh fading, timing-offset phase ramps, and multi-device superposition.

The uplink is modeled directly in the frequency domain: each (symbol,
subcarrier) bin is one scalar complex observation.  Only the coordinates'
paired bins are simulated, and each device only on the bin it lights.  A
timing offset inside the cyclic prefix shows up as a linear phase ramp
across subcarriers and leaves magnitudes untouched, which is why energy
detection shrugs it off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import FFT_SIZE, SYMBOL_ENERGY, lit_subcarriers

FADING_MODES = ("per_bin", "per_frame", "none")
NOISE_VAR_MAX = 1e300  # largest noise_var: far below the 1.8e308 where a bin's |r|^2 overflows
_HALF_ROOT = 1.0 / np.sqrt(2.0)  # not np.sqrt(0.5), 1 ulp larger: the pinned gains use this one

# exp(j*theta) = node k times a series in d (Tang's table-driven method), theta = k*step + d,
# step = 2*pi/256 = hi + lo: hi's 43 significant bits make k*hi exact for |theta| <= 4*pi.  lo adds
# (2*pi - fl(2*pi)) / 256: without it most phasors' last bit moves, which the 4-ulp bound cannot see.
_STEP = 2.0 * np.pi / 256
_STEP_HI = float(np.ldexp(np.rint(np.ldexp(_STEP, 48)), -48))
_STEP_LO = (_STEP - _STEP_HI) + 2.4492935982947064e-16 / 256
_NODES = np.exp(1j * (_STEP_HI * np.arange(256))) * (1.0 + 1j * (_STEP_LO * np.arange(256)))
_TABLE = np.stack([_NODES.real, _NODES.imag])  # real and imaginary planes of the 256 nodes
_PHASOR_CHUNK = 8192  # elements, in whole rows: each of the 64 KiB reused buffers stays below glibc's 128 KiB mmap threshold


@dataclass
class ChannelConfig:
    noise_var: float = 1.0        # total complex noise variance per bin
    sync_error_max: float = 0.0   # timing offset bound, in FFT samples
    fading: str = "per_bin"

    def __post_init__(self):
        if not 0.0 <= self.noise_var <= NOISE_VAR_MAX:
            raise ValueError(f"noise_var must be finite, >= 0 and <= {NOISE_VAR_MAX:g}")
        if not 0.0 <= self.sync_error_max < 1.0:
            raise ValueError("sync_error_max must lie in [0, 1)")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}")


def _unit_phasors(theta, gains, out) -> None:
    """`gains` (2, rows, columns or 1) times exp(j*theta), for 2-D `theta`, into the planes `out[0]`
    (real) and `out[1]` (imaginary), in real products: numpy's complex product and abs round by SIMD
    level.  exp(j*theta) is within 4 * 2**-52 of np.exp(1j * theta) for |theta| <= 4*pi, exactly 1 at 0.
    Every step writes into nine buffers made once per call; `out` may be `gains`, as a chunk forms all
    four gain products before it writes either plane."""
    rows = max(1, _PHASOR_CHUNK // max(theta.shape[1], 1))
    buffers = [np.empty((rows, theta.shape[1]), dtype) for dtype in [np.float64] * 8 + [np.intp]]
    for lo in range(0, len(theta), rows):
        angle, (gain_re, gain_im) = theta[lo:lo + rows], gains[:, lo:lo + rows]
        k, d, d2, cos, sin, node_re, node_im, t, idx = (b[:len(angle)] for b in buffers)
        np.rint(np.multiply(angle, 1.0 / _STEP, out=k), out=k)
        np.subtract(angle, np.multiply(k, _STEP_HI, out=t), out=d)
        d -= np.multiply(k, _STEP_LO, out=t)  # d = angle - k*hi - k*lo
        np.multiply(d, d, out=d2)
        # cos and sin of d by Horner's rule, innermost sum first; the first terms left out, d**8 / 8! and
        # d**7 / 7!, are below 1.3e-20 and 8.3e-18 for |d| <= pi/256
        for series, (inner, *outer) in ((cos, (-1 / 720, 1 / 24, -1 / 2, 1.0)), (sin, (1 / 120, -1 / 6, 1.0))):
            np.multiply(d2, inner, out=series)
            for c in outer[:-1]:
                series += c
                series *= d2
            series += outer[-1]
        sin *= d
        np.copyto(idx, k, casting="unsafe")
        idx &= 255  # k mod 256
        np.take(_TABLE[0], idx, out=node_re, mode="clip")
        np.take(_TABLE[1], idx, out=node_im, mode="clip")
        re, im = np.multiply(node_re, cos, out=k), np.multiply(node_re, sin, out=d)
        re -= np.multiply(node_im, sin, out=t)
        im += np.multiply(node_im, cos, out=t)
        re_re, im_im = np.multiply(gain_re, re, out=node_re), np.multiply(gain_im, im, out=node_im)
        re_im, im_re = np.multiply(gain_re, im, out=cos), np.multiply(gain_im, re, out=sin)
        np.subtract(re_re, im_im, out=out[0, lo:lo + rows])
        np.add(re_im, im_re, out=out[1, lo:lo + rows])


def sample_channel(signs, phases, num_subcarriers: int, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Each device's unit symbol exp(j*phi) (`_unit_phasors`) as the
    receiver sees it on the bin its sign lights: real and imaginary float64
    planes (2, frames, devices, coordinates), one frame per generator in
    `frame_rngs`, for the float64 `phases` phi of `phy.encode_signs`, which
    are left as they are.

    The symbol is multiplied by the bin's gain, i.i.d. circularly-symmetric
    complex Gaussian with unit mean-square magnitude; per_frame fading
    reuses one gain per device across the whole frame, "none" multiplies by
    the unit gain 1 + 0j on the same path, exactly.  Timing offsets are
    uniform in [0, sync_error_max], and rotate the symbol by
    exp(-j*2*pi*l*offset/FFT_SIZE) on its lit subcarrier l
    (`phy.lit_subcarriers` of a frame of `num_subcarriers`), which leaves
    magnitudes unchanged.  Only lit bins are drawn: the paired bins carry
    nothing from the device.

    Frame f's generator draws the real parts of its gains, then their imaginary
    parts (one per device and coordinate, into the returned planes, or one per
    device for per_frame fading, none for "none"), then one offset per device.
    One `_unit_phasors` pass then forms every lit bin of the block.
    """
    signs, phases = np.asarray(signs), np.asarray(phases)
    if signs.ndim != 3 or phases.shape != signs.shape:
        raise ValueError(f"phases of shape {phases.shape} for signs of shape {signs.shape}; "
                         "expected (frames, devices, coordinates) for both")
    if phases.dtype != np.float64:
        raise ValueError(f"phases must be real float64, not {phases.dtype}")
    num_frames, num_devices, num_coordinates = signs.shape
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} channel generators for {num_frames} frames")
    faded = np.empty((2, *signs.shape))  # per_bin fading draws its gains into these planes
    unit = np.broadcast_to([[[[1.0]]], [[[0.0]]]], (2, num_frames, num_devices, 1))  # 1*re - 0*im = re
    gains = {"per_bin": faded, "per_frame": np.empty(unit.shape), "none": unit}[config.fading]
    theta = phases
    for f, rng in enumerate(frame_rngs):
        for plane in gains[:, f] if gains is not unit else ():  # real parts, then imaginary parts
            np.multiply(rng.standard_normal(out=plane), _HALF_ROOT, out=plane)
        offsets = rng.uniform(0.0, config.sync_error_max, size=num_devices)
        if offsets.any():  # with every offset 0 the ramp is exactly 1
            theta = phases.copy() if theta is phases else theta
            slopes = (-2.0 * np.pi / FFT_SIZE) * offsets
            theta[f] += slopes[:, None] * lit_subcarriers(signs[f], num_subcarriers)
    rows = num_frames * num_devices  # one phasor per lit bin of the block: symbol phase plus timing ramp
    _unit_phasors(theta.reshape(rows, num_coordinates), gains.reshape(2, rows, gains.shape[-1]),
                  faded.reshape(2, rows, num_coordinates))
    return faded


def check_powers(powers, num_devices: int) -> np.ndarray:
    """`powers` as float64, one per device, each finite and >= 0 (all 0 is allowed)."""
    powers = np.asarray(powers, dtype=np.float64)
    if powers.shape != (num_devices,):
        raise ValueError(f"{powers.size} powers for {num_devices} devices")
    if not np.all((powers >= 0) & (powers < np.inf)):
        raise ValueError("powers must be finite and >= 0")
    return powers


def superpose(signs, faded, powers, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Received plus and minus bins as real and imaginary float64 planes, (2, frames, 2,
    coordinates): on each bin the sum over the devices that light it of sqrt(power *
    SYMBOL_ENERGY) times their symbol in sample_channel's planes `faded`, plus complex
    Gaussian noise of total variance noise_var, added into the planes.

    Frame f's generator draws the noise of its 2 x coordinates bins, real
    parts first, plus bins before minus bins.
    """
    signs, faded = np.asarray(signs), np.asarray(faded)
    if signs.ndim != 3 or faded.shape != (2, *signs.shape):
        raise ValueError(f"faded symbols of shape {faded.shape} for signs of shape {signs.shape}; "
                         "expected (2, frames, devices, coordinates) and (frames, devices, coordinates)")
    num_frames, num_devices, num_coordinates = signs.shape
    powers = check_powers(powers, num_devices)
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} noise generators for {num_frames} frames")
    amplitudes = np.sqrt(SYMBOL_ENERGY * powers)[:, None]
    on_minus = (signs < 0).astype(np.float64)  # 0 where the device lights the plus bin
    on_minus *= amplitudes  # cast once: a bool operand is cast inside the broadcast product
    received = np.empty((2, num_frames, 2, num_coordinates))
    for side, weights in enumerate((amplitudes - on_minus, on_minus)):
        # Sum over devices of weight x symbol, both planes at once: a masked complex sum is 3x slower.
        np.einsum("pfdc,fdc->pfc", faded, weights, out=received[:, :, side])
    scale = np.sqrt(config.noise_var / 2.0)
    for bins, rng in zip(received.swapaxes(0, 1), frame_rngs):
        bins += scale * rng.standard_normal(bins.shape)  # (2, 2, coordinates): planes, then sides
    return received
