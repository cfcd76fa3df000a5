import struct

import numpy as np
import pytest

from airvote.analysis import air_detect
from airvote.channel import ChannelConfig
from airvote.learner import evaluate
from airvote.phy import PhyConfig


def rngs(*seeds):
    """One numpy Generator per seed, in order."""
    return [np.random.default_rng(seed) for seed in seeds]


def finite_difference_gradient(predictor, weights, dataset, step=1e-5):
    """Central-difference gradient of `evaluate`'s mean loss (sample-major
    logits and a log-softmax); the independent oracle for the models' own
    class-major backward passes."""
    grad = np.zeros_like(weights)
    for i in range(weights.size):
        up = weights.copy()
        down = weights.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (evaluate(up, predictor, dataset)[1] - evaluate(down, predictor, dataset)[1]) / (2.0 * step)
    return grad


def write_idx(directory, part, images, labels):
    """IDX image and label files of one MNIST part ("train" or "t10k") under
    `directory`; returns their paths."""
    images, labels = np.asarray(images, dtype=np.uint8), np.asarray(labels, dtype=np.uint8)
    paths = directory / f"{part}-images-idx3-ubyte", directory / f"{part}-labels-idx1-ubyte"
    paths[0].write_bytes(struct.pack(">IIII", 2051, *images.shape) + images.tobytes())
    paths[1].write_bytes(struct.pack(">II", 2049, labels.size) + labels.tobytes())
    return paths


class LowEndGenerator:
    """Stand-in for a numpy Generator whose uniform draws all return the low
    end of the range and whose normal draws all return 0: a randomization
    phase of 0 (symbol 1) in encode_signs, a timing offset of 0 in
    sample_channel, and noise of 0 in superpose (which at noise_var 0 is
    scaled by 0 anyway).  It fits only where no other draw matters: no
    fading, since zero gains would silence every device."""

    def uniform(self, low, high, size):
        return np.full(size, float(low))

    def standard_normal(self, size):
        return np.zeros(size)


@pytest.fixture
def low_rng():
    return LowEndGenerator()


@pytest.fixture
def clean_channel_votes(low_rng):
    """Votes of the production kernel, one one-symbol frame per (devices,
    coordinates) sign pattern, with unit gains, no noise, unit powers and
    every randomization symbol 1.

    With all symbols equal to 1, e_plus = 2 * (votes for +1)^2 and
    e_minus = 2 * (votes for -1)^2, so the energy comparison reproduces the
    count comparison exactly.
    """
    def votes(sign_patterns):
        num_frames, num_devices, num_coordinates = sign_patterns.shape
        rows = sign_patterns.transpose(1, 0, 2).reshape(num_devices, -1)
        phy = PhyConfig(num_subcarriers=2 * num_coordinates, num_symbols=1)
        return air_detect(
            rows, np.ones(num_devices), phy, ChannelConfig(noise_var=0.0, fading="none"),
            [low_rng] * num_devices, [low_rng] * num_frames,
        ).votes.reshape(num_frames, num_coordinates)
    return votes
