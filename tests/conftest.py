import hashlib
import struct

import numpy as np
import pytest

from airvote.analysis import air_detect
from airvote.channel import ChannelConfig
from airvote.cli import main as cli_main
from airvote.learner import Dataset, evaluate
from airvote.phy import PhyConfig

# The c10 acceptance config; 21 parameters fit one 4 x 16 frame.
C10 = {
    "rounds": 8, "devices": 5, "batch_size": 16, "learning_rate": 0.01,
    "partition": "iid", "seed": 123, "eval_every": 2, "dataset.kind": "synthetic",
    "dataset.samples": 300, "dataset.test_samples": 100, "dataset.input_dim": 6,
    "dataset.classes": 3, "channel.noise_var": 0.5, "channel.sync_error_max": 0.2,
    "phy.subcarriers": 16, "phy.symbols": 4,
}


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


def _train_digests(tmp_path, **values):
    """sha256 of the (metrics JSONL, summary CSV) of `airvote train` on the
    config of `values`, written under `tmp_path`."""
    out = tmp_path / f"{values['scheme']}.jsonl"
    config = tmp_path / f"{values['scheme']}.toml"
    config.write_text("".join(f"{key} = {value}\n" for key, value in {**values, "output": out}.items()))
    assert cli_main(["train", "--config", str(config)]) == 0
    return (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(out.with_suffix(".summary.csv").read_bytes()).hexdigest(),
    )


def _sign_split_dataset():
    """Twelve samples on three 4-sample shards.  Feature 0 is -1 on devices 0
    and 1 and +1 on device 2, so an infinite weight on it sends only device
    2's logits to +inf."""
    features = np.ones((12, 3))
    features[:8, 0] = -1.0
    return Dataset(features, np.arange(12) % 2, 2), [np.arange(0, 4), np.arange(4, 8), np.arange(8, 12)]


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
