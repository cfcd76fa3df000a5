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
import zlib
from dataclasses import dataclass

import numpy as np

from . import analysis
from .detector import sign_votes

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049
PARTITION_MODES = ("iid", "non-iid")
MODEL_KINDS = ("logistic", "mlp")


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
            raise ValueError(f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels")
        analysis._at_least(1, num_classes=self.num_classes)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class TrainingConfig:
    learning_rate: float = 0.004
    batch_size: int = 128
    rounds: int = 200
    num_devices: int = 31
    partition_mode: str = "iid"
    model_kind: str = "logistic"
    hidden_units: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        analysis._at_least(1, batch_size=self.batch_size, rounds=self.rounds, num_devices=self.num_devices,
                           hidden_units=self.hidden_units)
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(f"partition_mode must be one of {PARTITION_MODES}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}")


# ---------------------------------------------------------------------------
# Dataset loading and partitioning
# ---------------------------------------------------------------------------

def _read_idx(path, expected_magic: int) -> np.ndarray:
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            raw = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # a damaged .gz
        raise IdxFormatError(f"{path}: {exc}") from None
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
    class_separation: float,
) -> Dataset:
    """Balanced class-conditional Gaussian blobs with distinct means.

    Every class mean sits at distance `class_separation` from the origin in
    a seeded random direction; samples add unit-variance isotropic noise.
    """
    analysis._at_least(1, num_samples=num_samples, input_dim=input_dim)
    analysis._at_least(2, num_classes=num_classes)
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
    # Whole-class temporaries, not row blocks: their frees raise glibc's mmap
    # and trim thresholds, so later rounds reuse the heap without page faults.
    features = rng.normal(size=(num_samples, input_dim))
    for c in range(num_classes):
        features[labels == c] += means[c]
    return Dataset(features, labels, num_classes)


def partition(dataset: Dataset, num_devices: int, mode: str, seed) -> list[np.ndarray]:
    """Split a dataset into disjoint int64 sample-index arrays, one per device.

    iid: a seeded permutation cut into near-equal chunks.  non-iid: samples
    sorted by label, cut into 2*num_devices non-empty chunks, and each device
    gets two, so a device sees only a few distinct labels.
    """
    analysis._at_least(1, num_devices=num_devices)
    n = len(dataset)
    if (per_device := 2 if mode == "non-iid" else 1) * num_devices > n:
        raise ValueError(f"cannot split {n} samples across {num_devices} devices, {per_device} or more each")
    rng = np.random.default_rng(seed)
    if mode == "iid":
        return np.array_split(rng.permutation(n), num_devices)
    if mode == "non-iid":
        chunks = np.array_split(np.argsort(dataset.labels, kind="stable"), 2 * num_devices)
        assignment = rng.permutation(2 * num_devices)
        return [np.concatenate([chunks[assignment[2 * m]], chunks[assignment[2 * m + 1]]])
                for m in range(num_devices)]
    raise ValueError(f"mode must be one of {PARTITION_MODES}")


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def _cross_entropy_gradient(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient in class-major (..., classes, n) logits of the mean
    cross-entropy over the sample axis -1; the softmax's reductions over
    the classes axis -2 run along rows of n samples."""
    probs = np.exp(logits - logits.max(axis=-2, keepdims=True))
    probs /= probs.sum(axis=-2, keepdims=True)
    probs -= labels[..., None, :] == np.arange(logits.shape[-2])[:, None]
    probs /= logits.shape[-1]
    return probs


def _unpack(weights: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of `weights` cut into consecutive blocks of `shapes`; a
    ValueError names both lengths unless it holds exactly their total."""
    total = sum(map(math.prod, shapes))
    if weights.shape != (total,):
        raise ValueError(f"weight vector of length {weights.size}; the model has {total} parameters")
    parts, start = [], 0
    for shape in shapes:
        parts.append(weights[start:(start := start + math.prod(shape))].reshape(shape))
    return parts


def _flat(features: np.ndarray, *parts) -> np.ndarray:
    """Gradient parts joined into (*leading axes of features, num_params)."""
    return np.concatenate([p.reshape(*features.shape[:-2], -1) for p in parts], axis=-1)


class SoftmaxRegression:
    """Linear softmax classifier; parameters are [W.ravel(), bias].

    `gradient` maps (..., n, input_dim) features and (..., n) labels to
    the mean cross-entropy gradients (..., num_params) of each batch; the
    reported loss is `evaluate`'s.  It works on class-major (..., classes,
    n) logits; `matmul` on swapped axes, not einsum, keeps batching fast.
    """

    def __init__(self, input_dim: int, num_classes: int):
        self.shapes = [(input_dim, num_classes), (num_classes,)]
        self.num_params = sum(map(math.prod, self.shapes))

    def init_state(self, seed) -> np.ndarray:
        return np.zeros(self.num_params)

    def logits(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        w, b = _unpack(weights, self.shapes)
        return features @ w + b

    def gradient(self, weights, features, labels):
        w, b = _unpack(weights, self.shapes)
        d_logits = _cross_entropy_gradient(w.T @ features.swapaxes(-1, -2) + b[:, None], labels)
        return _flat(features, (d_logits @ features).swapaxes(-1, -2), d_logits.sum(axis=-1))


class TanhMlp:
    """One hidden tanh layer; exercises the non-convex training path.
    Batches over leading axes as SoftmaxRegression does."""

    def __init__(self, input_dim: int, num_classes: int, hidden_units: int):
        self.shapes = [(input_dim, hidden_units), (hidden_units,), (hidden_units, num_classes), (num_classes,)]
        self.num_params = sum(map(math.prod, self.shapes))

    def init_state(self, seed) -> np.ndarray:
        rng = np.random.default_rng(seed)
        (d, h), _, (_, c), _ = self.shapes
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=d * h)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=h * c)
        return np.concatenate([w1, np.zeros(h), w2, np.zeros(c)])

    def logits(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = _unpack(weights, self.shapes)
        return np.tanh(features @ w1 + b1) @ w2 + b2

    def gradient(self, weights, features, labels):
        w1, b1, w2, b2 = _unpack(weights, self.shapes)
        hidden = np.tanh(features @ w1 + b1)
        d_logits = _cross_entropy_gradient(w2.T @ hidden.swapaxes(-1, -2) + b2[:, None], labels)
        d_hidden = (w2 @ d_logits).swapaxes(-1, -2) * (1.0 - hidden**2)
        return _flat(features, features.swapaxes(-1, -2) @ d_hidden, d_hidden.sum(axis=-2),
                     (d_logits @ hidden).swapaxes(-1, -2), d_logits.sum(axis=-1))


def make_predictor(config: TrainingConfig, dataset: Dataset):
    if config.model_kind == "mlp":
        return TanhMlp(dataset.input_dim, dataset.num_classes, config.hidden_units)
    return SoftmaxRegression(dataset.input_dim, dataset.num_classes)


# ---------------------------------------------------------------------------
# Per-round operations
# ---------------------------------------------------------------------------

def check_batch_size(batch_size: int, shards: list[np.ndarray]):
    """ValueError unless every shard holds at least `batch_size` samples."""
    smallest = int(np.argmin([len(s) for s in shards]))
    if batch_size > len(shards[smallest]):
        raise ValueError(f"batch_size {batch_size} exceeds the smallest shard "
                         f"({len(shards[smallest])} samples, device {smallest})")


def compute_local_gradient(
    weights: np.ndarray,
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
    check_batch_size(batch_size, shards)
    batches = np.stack([
        rng.choice(shard, size=batch_size, replace=False) for shard, rng in zip(shards, device_rngs)
    ])
    grads = np.empty((len(shards), predictor.num_params))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi in analysis.blocks(len(shards), batch_size * dataset.features[0].nbytes):
            rows = batches[lo:hi]
            grads[lo:hi] = predictor.gradient(weights, dataset.features[rows], dataset.labels[rows])
    finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        raise FloatingPointError(f"non-finite gradient on device {np.argmin(finite)}")
    return grads


def full_gradient(weights: np.ndarray, predictor, dataset: Dataset) -> np.ndarray:
    """Loss gradient over the whole dataset (sign reference for error rates)."""
    return predictor.gradient(weights, dataset.features, dataset.labels)


def sign_quantize(values) -> np.ndarray:
    """Entry-wise sign with sign(0) = +1, so the output is always in {-1,+1}."""
    return sign_votes(np.asarray(values) < 0)


def apply_global_update(weights: np.ndarray, direction: np.ndarray, learning_rate: float) -> np.ndarray:
    """New weights, every one stepped by -learning_rate * direction."""
    direction = np.asarray(direction)
    if direction.shape != weights.shape:
        raise ValueError(f"direction length {direction.size} does not match model size {weights.size}")
    return weights - learning_rate * direction


def evaluate(weights: np.ndarray, predictor, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss), the only loss a run computes;
    argmax ties go to the lowest class."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = predictor.logits(weights, dataset.features)
    predictions = np.argmax(logits, axis=1)
    accuracy = float(np.mean(predictions == dataset.labels))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    mean_loss = float(-np.mean(log_probs[np.arange(len(dataset)), dataset.labels]))
    return accuracy, mean_loss
