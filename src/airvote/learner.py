"""Local learning: datasets, partitioning, classifiers, sign gradients.

Each device holds a shard of the training set, computes a mini-batch
gradient of the shared model, and reports only the coordinate-wise signs.
The server broadcasts a sign vector back and every model takes the same
fixed-size step against it.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import analysis

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


class IdxFormatError(ValueError):
    """Raised when an IDX file is malformed or inconsistent."""


@dataclass
class Dataset:
    """Feature matrix (rows = samples) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (samples x input_dim)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class ModelState:
    """Flat parameter vector plus the number of completed rounds."""

    weights: np.ndarray
    round: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)


@dataclass
class TrainingConfig:
    learning_rate: float = 0.004
    batch_size: int = 128
    rounds: int = 200
    num_devices: int = 31
    partition_mode: str = "iid"
    model_kind: str = "logistic"  # or "mlp"
    hidden_units: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1 or self.rounds < 1 or self.num_devices < 1:
            raise ValueError("batch_size, rounds and num_devices must be positive")
        if self.partition_mode not in ("iid", "non-iid"):
            raise ValueError(f"unknown partition_mode {self.partition_mode!r}")
        if self.model_kind not in ("logistic", "mlp"):
            raise ValueError(f"unknown model_kind {self.model_kind!r}")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")


# ---------------------------------------------------------------------------
# Dataset loading and partitioning
# ---------------------------------------------------------------------------

def _read_idx(path, expected_magic: int) -> np.ndarray:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: too short to contain an IDX header")
    magic = int.from_bytes(raw[:4], "big")
    if magic != expected_magic:
        raise IdxFormatError(f"{path}: magic number {magic}, expected {expected_magic}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    payload = raw[header_len:]
    expected_bytes = int(np.prod(dims))
    if len(payload) != expected_bytes:
        raise IdxFormatError(
            f"{path}: header declares {expected_bytes} data bytes, found {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx_dataset(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair (big-endian, magic 2051/2049, .gz ok).

    Pixels are scaled to [0, 1]; images are flattened row-major.
    """
    images = _read_idx(images_path, IMAGES_MAGIC)
    labels = _read_idx(labels_path, LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(features, labels.astype(np.int64), num_classes)


def make_synthetic_dataset(
    num_samples: int,
    input_dim: int,
    num_classes: int,
    seed,
    class_separation: float = 4.0,
) -> Dataset:
    """Balanced class-conditional Gaussian blobs with distinct means.

    Every class mean sits at distance `class_separation` from the origin in
    a seeded random direction; samples add unit-variance isotropic noise.
    """
    if num_samples < 1 or input_dim < 1:
        raise ValueError("num_samples and input_dim must be positive")
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if num_classes > num_samples:
        raise ValueError(f"num_classes={num_classes} exceeds num_samples={num_samples}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, input_dim))
    means *= class_separation / np.linalg.norm(means, axis=1, keepdims=True)
    base, extra = divmod(num_samples, num_classes)
    counts = [base + 1 if c < extra else base for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    labels = labels[rng.permutation(num_samples)]
    # Noise first, then each class's mean in place: no second full-size array.
    features = rng.normal(size=(num_samples, input_dim))
    for c in range(num_classes):
        features[labels == c] += means[c]
    return Dataset(features, labels, num_classes)


def partition(dataset: Dataset, num_devices: int, mode: str, seed) -> list[np.ndarray]:
    """Split a dataset into disjoint int64 sample-index arrays, one per device.

    iid: a seeded permutation cut into near-equal chunks.  non-iid: samples
    sorted by label, cut into 2*num_devices chunks, and each device gets two
    chunks, so a device sees only a few distinct labels.
    """
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    n = len(dataset)
    if num_devices > n:
        raise ValueError(f"cannot split {n} samples across {num_devices} devices")
    rng = np.random.default_rng(seed)
    if mode == "iid":
        return np.array_split(rng.permutation(n), num_devices)
    if mode == "non-iid":
        chunks = np.array_split(np.argsort(dataset.labels, kind="stable"), 2 * num_devices)
        assignment = rng.permutation(2 * num_devices)
        return [np.concatenate([chunks[assignment[2 * m]], chunks[assignment[2 * m + 1]]])
                for m in range(num_devices)]
    raise ValueError(f"unknown partition mode {mode!r}")


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the sample axis -2 of (..., n, classes)
    logits, and its gradient in the logits."""
    probs = _softmax(logits)
    labels = labels[..., None]
    picked = np.take_along_axis(probs, labels, axis=-1)
    loss = -np.mean(np.log(picked[..., 0] + 1e-300), axis=-1)
    np.put_along_axis(probs, labels, picked - 1.0, axis=-1)
    probs /= logits.shape[-2]
    return loss, probs


def _flat(features: np.ndarray, *parts) -> np.ndarray:
    """Gradient parts joined into (*leading axes of features, num_params)."""
    return np.concatenate([p.reshape(*features.shape[:-2], -1) for p in parts], axis=-1)


class SoftmaxRegression:
    """Linear softmax classifier; parameters are [W.ravel(), bias].

    `loss_and_gradient` maps (..., n, input_dim) features and (..., n)
    labels to the mean losses (...) and gradients (..., num_params) of each
    batch; `matmul` on swapped axes, not einsum, keeps batching fast.
    """

    def __init__(self, input_dim: int, num_classes: int):
        self.input_dim = input_dim
        self.num_classes = num_classes

    @property
    def num_params(self) -> int:
        return self.input_dim * self.num_classes + self.num_classes

    def init_state(self, seed=0) -> ModelState:
        return ModelState(np.zeros(self.num_params))

    def _unpack(self, weights: np.ndarray):
        d, c = self.input_dim, self.num_classes
        return weights[: d * c].reshape(d, c), weights[d * c :]

    def logits(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        w, b = self._unpack(weights)
        return features @ w + b

    def loss_and_gradient(self, weights, features, labels):
        loss, d_logits = _cross_entropy(self.logits(weights, features), labels)
        return loss, _flat(features, features.swapaxes(-1, -2) @ d_logits, d_logits.sum(axis=-2))


class TanhMlp:
    """One hidden tanh layer; exercises the non-convex training path.
    Batches over leading axes as SoftmaxRegression does."""

    def __init__(self, input_dim: int, num_classes: int, hidden_units: int = 32):
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.hidden_units = hidden_units

    @property
    def num_params(self) -> int:
        d, h, c = self.input_dim, self.hidden_units, self.num_classes
        return d * h + h + h * c + c

    def init_state(self, seed=0) -> ModelState:
        rng = np.random.default_rng(seed)
        d, h, c = self.input_dim, self.hidden_units, self.num_classes
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=d * h)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=h * c)
        return ModelState(np.concatenate([w1, np.zeros(h), w2, np.zeros(c)]))

    def _unpack(self, weights: np.ndarray):
        d, h, c = self.input_dim, self.hidden_units, self.num_classes
        i = 0
        w1 = weights[i : i + d * h].reshape(d, h); i += d * h
        b1 = weights[i : i + h]; i += h
        w2 = weights[i : i + h * c].reshape(h, c); i += h * c
        b2 = weights[i : i + c]
        return w1, b1, w2, b2

    def logits(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(weights)
        return np.tanh(features @ w1 + b1) @ w2 + b2

    def loss_and_gradient(self, weights, features, labels):
        w1, b1, w2, b2 = self._unpack(weights)
        hidden = np.tanh(features @ w1 + b1)
        loss, d_logits = _cross_entropy(hidden @ w2 + b2, labels)
        d_hidden = (d_logits @ w2.T) * (1.0 - hidden**2)
        return loss, _flat(features, features.swapaxes(-1, -2) @ d_hidden, d_hidden.sum(axis=-2),
                           hidden.swapaxes(-1, -2) @ d_logits, d_logits.sum(axis=-2))


def make_predictor(config: TrainingConfig, dataset: Dataset):
    if config.model_kind == "mlp":
        return TanhMlp(dataset.input_dim, dataset.num_classes, config.hidden_units)
    return SoftmaxRegression(dataset.input_dim, dataset.num_classes)


# ---------------------------------------------------------------------------
# Per-round operations
# ---------------------------------------------------------------------------

def compute_local_gradient(
    state: ModelState,
    predictor,
    dataset: Dataset,
    shards: list[np.ndarray],
    batch_size: int,
    device_rngs,
) -> np.ndarray:
    """(devices, params) mean loss gradients, one row per device.

    Device m draws `batch_size` samples without replacement from
    `shards[m]` with `device_rngs[m]`, and its row is the gradient over
    that batch.  The batches' features are gathered and differentiated in
    blocks of devices whose (block, batch_size, input_dim) features stay
    within analysis.BLOCK_BYTES; every row depends only on its own device,
    so the block size cannot change a result.
    """
    for device, shard in enumerate(shards):
        if batch_size > len(shard):
            raise ValueError(
                f"batch_size {batch_size} exceeds shard size {len(shard)} of device {device}"
            )
    batches = np.stack([
        rng.choice(shard, size=batch_size, replace=False) for shard, rng in zip(shards, device_rngs)
    ])
    block = max(1, analysis.BLOCK_BYTES // (batch_size * dataset.features[0].nbytes))
    losses = np.empty(len(shards))
    grads = np.empty((len(shards), predictor.num_params))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, len(shards), block):
            rows = batches[lo : lo + block]
            losses[lo : lo + block], grads[lo : lo + block] = predictor.loss_and_gradient(
                state.weights, dataset.features[rows], dataset.labels[rows]
            )
    finite = np.isfinite(losses) & np.isfinite(grads).all(axis=1)
    if not finite.all():
        raise FloatingPointError(
            f"non-finite gradient at round {state.round} on device {np.argmin(finite)}"
        )
    return grads


def full_gradient(state: ModelState, predictor, dataset: Dataset) -> np.ndarray:
    """Loss gradient over the whole dataset (sign reference for error rates)."""
    _, grad = predictor.loss_and_gradient(state.weights, dataset.features, dataset.labels)
    return grad


def sign_quantize(values) -> np.ndarray:
    """Entry-wise sign with sign(0) = +1, so the output is always in {-1,+1}."""
    return np.where(np.asarray(values) < 0, -1, 1).astype(np.int8)


def apply_global_update(state: ModelState, direction: np.ndarray, learning_rate: float) -> ModelState:
    """Step every weight by -learning_rate * direction and advance the round."""
    direction = np.asarray(direction)
    if direction.shape != state.weights.shape:
        raise ValueError(f"direction length {direction.size} does not match model size {state.weights.size}")
    return ModelState(state.weights - learning_rate * direction, state.round + 1)


def evaluate(state: ModelState, predictor, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss); argmax ties go to the lowest class."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = predictor.logits(state.weights, dataset.features)
    predictions = np.argmax(logits, axis=1)
    accuracy = float(np.mean(predictions == dataset.labels))
    log_probs = _log_softmax(logits)
    mean_loss = float(-np.mean(log_probs[np.arange(len(dataset)), dataset.labels]))
    return accuracy, mean_loss
