import gzip
import math
import re

import numpy as np
import pytest

from airvote import analysis
from airvote.experiment import DatasetSpec
from airvote.learner import (
    Dataset,
    IdxFormatError,
    SoftmaxRegression,
    TanhMlp,
    TrainingConfig,
    _unpack,
    apply_global_update,
    compute_local_gradient,
    evaluate,
    full_gradient,
    load_idx_dataset,
    make_synthetic_dataset,
    partition,
    sign_quantize,
)
from conftest import _sign_split_dataset, rngs, write_idx

SEPARATION = DatasetSpec().separation  # the config's default class separation


# ---------------------------------------------------------------------------
# IDX reader
# ---------------------------------------------------------------------------

@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2, 1], dtype=np.uint8)
    return *write_idx(tmp_path, "train", images, labels), images, labels


def test_load_idx_roundtrip(idx_pair):
    img_path, lab_path, images, labels = idx_pair
    ds = load_idx_dataset(img_path, lab_path)
    assert len(ds) == 7
    assert ds.input_dim == 12
    assert ds.num_classes == 3
    np.testing.assert_allclose(ds.features, images.reshape(7, -1) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_load_idx_gzip(idx_pair, tmp_path):
    img_path, lab_path, *_ = idx_pair
    gz_img = tmp_path / "images-idx3-ubyte.gz"
    gz_lab = tmp_path / "labels-idx1-ubyte.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    gz_lab.write_bytes(gzip.compress(lab_path.read_bytes()))
    ds = load_idx_dataset(gz_img, gz_lab)
    assert len(ds) == 7


def test_load_idx_wrong_magic(idx_pair):
    img_path, lab_path, *_ = idx_pair
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx_dataset(lab_path, lab_path)  # labels file passed as images
    with pytest.raises(IdxFormatError, match=re.escape(img_path.name)):
        load_idx_dataset(img_path, img_path)


def test_load_idx_truncated(idx_pair, tmp_path):
    img_path, lab_path, *_ = idx_pair  # 7 images of 4 x 3 pixels after a 16-byte header
    short = tmp_path / "short-idx3-ubyte"
    for kept, message in [(-5, "header declares 84 data bytes, found 79"),
                          (16, "header declares 84 data bytes, found 0"), (4, "truncated dimension header")]:
        short.write_bytes(img_path.read_bytes()[:kept])
        with pytest.raises(IdxFormatError, match=f"^{re.escape(str(short))}: {message}$"):
            load_idx_dataset(short, lab_path)


# A damaged .gz: cut short (EOFError), an invalid deflate block type (zlib.error), no gzip header at all.
DAMAGED_GZIP = {
    "truncated": lambda gz: gz[: len(gz) // 2],
    "corrupted": lambda gz: gz[:10] + b"\xff" * 8 + gz[18:],
    "not-gzip": lambda gz: b"no gzip",
}


@pytest.mark.parametrize("damage", DAMAGED_GZIP.values(), ids=DAMAGED_GZIP.keys())
def test_load_idx_damaged_gzip_names_the_file(idx_pair, tmp_path, damage):
    img_path, lab_path, *_ = idx_pair
    damaged = tmp_path / "images-idx3-ubyte.gz"
    damaged.write_bytes(damage(gzip.compress(img_path.read_bytes())))
    with pytest.raises(IdxFormatError, match=f"^{re.escape(str(damaged))}: "):
        load_idx_dataset(damaged, lab_path)


def test_load_idx_count_mismatch(idx_pair, tmp_path):
    img_path, _, images, labels = idx_pair
    _, lab_path = write_idx(tmp_path, "extra", images, np.concatenate([labels, [1]]))
    with pytest.raises(IdxFormatError, match="images"):
        load_idx_dataset(img_path, lab_path)


# ---------------------------------------------------------------------------
# Synthetic data and partitioning
# ---------------------------------------------------------------------------

def test_synthetic_balance():
    ds = make_synthetic_dataset(4, 2, 2, seed=1, class_separation=SEPARATION)
    counts = np.bincount(ds.labels, minlength=2)
    np.testing.assert_array_equal(counts, [2, 2])
    ds = make_synthetic_dataset(1003, 5, 10, seed=3, class_separation=SEPARATION)
    counts = np.bincount(ds.labels, minlength=10)
    assert counts.max() - counts.min() <= 1


def test_synthetic_rejects_too_many_classes():
    with pytest.raises(ValueError, match="^num_classes=4 exceeds num_samples=3$"):
        make_synthetic_dataset(3, 2, 4, seed=0, class_separation=SEPARATION)


@pytest.mark.parametrize(
    "counts, name",
    [((0, 2, 2), "num_samples"), ((10, 0, 2), "input_dim"), ((10, 2, 1), "num_classes")],
)
def test_synthetic_rejects_counts_below_their_floor(counts, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        make_synthetic_dataset(*counts, seed=0, class_separation=SEPARATION)


def test_partition_iid_sizes():
    ds = make_synthetic_dataset(100, 3, 2, seed=0, class_separation=SEPARATION)
    shards = partition(ds, 4, "iid", seed=0)
    assert sorted(len(s) for s in shards) == [25, 25, 25, 25]
    all_idx = np.concatenate(shards)
    assert len(np.unique(all_idx)) == 100  # disjoint cover


def test_partition_noniid_label_cardinality():
    # MNIST-like label layout: 10 classes, 31 devices.
    ds = make_synthetic_dataset(6200, 4, 10, seed=5, class_separation=SEPARATION)
    shards = partition(ds, 31, "non-iid", seed=5)
    assert sum(len(s) for s in shards) == 6200
    all_idx = np.concatenate(shards)
    assert len(np.unique(all_idx)) == 6200
    for shard in shards:
        labels = np.unique(ds.labels[shard])
        assert labels.size <= 4


def test_partition_noniid_pairs_consecutive_assigned_chunks():
    # 8 samples sorted by label cut into the chunks [1, 3], [5, 7], [0, 2] and
    # [4, 6]; device m takes those at positions 2m and 2m + 1 of the seeded
    # permutation [2, 0, 1, 3]
    ds = Dataset(np.zeros((8, 1)), [1, 0, 1, 0, 1, 0, 1, 0], 2)
    shards = partition(ds, 2, "non-iid", seed=0)
    assert [shard.tolist() for shard in shards] == [[0, 2, 1, 3], [5, 7, 4, 6]]


def test_counts_at_their_ends_are_accepted():
    TrainingConfig(batch_size=1, rounds=1, num_devices=1, hidden_units=1)
    ds = make_synthetic_dataset(3, 1, 3, seed=0, class_separation=SEPARATION)  # one sample per class
    assert sorted(ds.labels.tolist()) == [0, 1, 2]
    assert [len(shard) for shard in partition(ds, 3, "iid", seed=0)] == [1, 1, 1]  # one sample per device
    DatasetSpec(samples=2, test_samples=1, classes=3)  # one synthetic sample per class
    DatasetSpec(kind="mnist", samples=2, test_samples=1)  # MNIST's labels, not `classes`, set its classes


def test_partition_single_device():
    ds = make_synthetic_dataset(50, 3, 2, seed=1, class_separation=SEPARATION)
    for mode in ("iid", "non-iid"):
        (shard,) = partition(ds, 1, mode, seed=2)
        assert sorted(shard) == list(range(50))


def test_partition_returns_int64_index_arrays():
    ds = make_synthetic_dataset(90, 3, 3, seed=4, class_separation=SEPARATION)
    for mode in ("iid", "non-iid"):
        for shard in partition(ds, 4, mode, seed=4):
            assert isinstance(shard, np.ndarray) and shard.dtype == np.int64 and shard.ndim == 1


@pytest.mark.parametrize(
    "devices, mode, message",
    [(0, "iid", "^num_devices must be >= 1 "),
     (31, "iid", "^cannot split 30 samples across 31 devices, 1 or more each$"),
     (16, "non-iid", "^cannot split 30 samples across 16 devices, 2 or more each$"),  # 32 chunks of 30
     (2, "x", "^mode must be one of")],
)
def test_partition_bad_args(devices, mode, message):
    ds = make_synthetic_dataset(30, 2, 3, seed=0, class_separation=SEPARATION)
    with pytest.raises(ValueError, match=message):
        partition(ds, devices, mode, seed=0)


def test_partition_at_the_most_devices_gives_every_device_its_samples():
    # one sample per iid device and two per non-iid device, at every seed
    ds = make_synthetic_dataset(30, 2, 3, seed=0, class_separation=SEPARATION)
    for seed in range(6):
        assert [len(shard) for shard in partition(ds, 30, "iid", seed)] == [1] * 30
        assert [len(shard) for shard in partition(ds, 15, "non-iid", seed)] == [2] * 15


@pytest.mark.parametrize(
    "features, labels, message",
    [(np.zeros(3), [0, 1, 2], "features must be 2-D"),
     (np.zeros((3, 2)), [0, 1], "^3 feature rows but 2 labels$"),
     (np.zeros((2, 2)), [0, 3], re.escape("labels must lie in [0, num_classes)")),  # 3 is num_classes
     (np.zeros((2, 2)), [0, -1], re.escape("labels must lie in [0, num_classes)"))],
)
def test_dataset_rejects_inconsistent_arrays(features, labels, message):
    with pytest.raises(ValueError, match=message):
        Dataset(features, labels, 3)


def test_dataset_rejects_num_classes_below_1():
    with pytest.raises(ValueError, match="^num_classes must be >= 1 "):
        Dataset(np.zeros((0, 2)), [], 0)  # no label to reject


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_zero_weight_single_sample_closed_form():
    # Two classes, zero weights: probabilities are (1/2, 1/2), so the
    # gradient is the outer product of x with (p - onehot) plus the bias row.
    x = np.array([[0.3, -0.7, 2.0]])
    y = np.array([1])
    model = SoftmaxRegression(3, 2)
    grad = model.gradient(np.zeros(model.num_params), x, y)
    p_minus_y = np.array([0.5, -0.5])
    expected = np.concatenate([np.outer(x[0], p_minus_y).ravel(), p_minus_y])
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_gradient_and_loss_stay_finite_at_logits_of_1000():
    # logits (1000, -1000) and (-1000, 1000): only a softmax shifted by its
    # largest logit keeps exp from overflowing
    model = SoftmaxRegression(1, 2)
    weights = np.array([1000.0, -1000.0, 0.0, 0.0])
    features, labels = np.array([[1.0], [-1.0]]), np.array([0, 0])
    np.testing.assert_array_equal(model.gradient(weights, features, labels), [0.5, -0.5, -0.5, 0.5])
    assert evaluate(weights, model, Dataset(features, labels, 2)) == (0.5, 1000.0)


def test_full_batch_gradient_ignores_seed():
    ds = make_synthetic_dataset(40, 3, 2, seed=0, class_separation=SEPARATION)
    shards = partition(ds, 2, "iid", seed=0)
    model = SoftmaxRegression(3, 2)
    weights = np.zeros(model.num_params)
    g1 = compute_local_gradient(weights, model, ds, shards, len(shards[0]), rngs(1, 2))
    g2 = compute_local_gradient(weights, model, ds, shards, len(shards[0]), rngs(99, 98))
    assert g1.shape == (2, model.num_params)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


def test_gradient_batch_size_check():
    ds = make_synthetic_dataset(60, 4, 3, seed=2, class_separation=SEPARATION)
    shards = partition(ds, 3, "iid", seed=2)
    model = SoftmaxRegression(4, 3)
    weights = np.full(model.num_params, 0.1)
    uneven = [shards[0], shards[1], shards[2][:19]]
    with pytest.raises(ValueError, match=r"smallest shard \(19 samples, device 2\)"):
        compute_local_gradient(weights, model, ds, uneven, 20, rngs(5, 6, 7))
    with pytest.raises(ValueError, match=r"^batch_size 21 exceeds the smallest shard \(20 samples, device 0\)$"):
        compute_local_gradient(weights, model, ds, shards, 21, rngs(5, 6, 7))


def test_gradient_nonfinite_error_names_device(monkeypatch):
    ds, shards = _sign_split_dataset()
    model = SoftmaxRegression(3, 2)
    weights = np.zeros(model.num_params)
    weights[0] = np.inf
    good = compute_local_gradient(weights, model, ds, shards[:2], 4, rngs(0, 1))
    assert np.all(np.isfinite(good))
    # All devices in one block, then one device per block.
    for block_bytes in (analysis.BLOCK_BYTES, 1):
        monkeypatch.setattr(analysis, "BLOCK_BYTES", block_bytes)
        with pytest.raises(FloatingPointError, match="on device 2$"):
            compute_local_gradient(weights, model, ds, shards, 4, rngs(0, 1, 2))


def test_devicewise_mean_of_full_shard_gradients_is_full_gradient():
    # Equal-size iid shards: averaging the per-shard full gradients must
    # reproduce the full-dataset gradient up to float summation order.
    ds = make_synthetic_dataset(120, 5, 3, seed=8, class_separation=SEPARATION)
    shards = partition(ds, 4, "iid", seed=8)
    model = SoftmaxRegression(5, 3)
    weights = np.linspace(-0.2, 0.2, model.num_params)
    per_device = compute_local_gradient(weights, model, ds, shards, len(shards[0]), rngs(0, 0, 0, 0))
    np.testing.assert_allclose(
        np.mean(per_device, axis=0), full_gradient(weights, model, ds), atol=1e-10
    )


HIDDEN = 7  # hidden units of every test MLP


def _model(kind, d, c):
    return SoftmaxRegression(d, c) if kind == "logistic" else TanhMlp(d, c, hidden_units=HIDDEN)


def row_major_loss_and_gradient(kind, weights, features, labels, classes):
    """The sample-major formula: (..., n, classes) logits, softmax over the
    trailing axis, weight gradients from features.T @ d_logits.  The weight
    vector is cut here by hand, [W.ravel(), b] or [W1.ravel(), b1, W2.ravel(),
    b2], so a layout bug in the models cannot show on both sides."""
    def cross_entropy(logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        onehot = labels[..., None] == np.arange(logits.shape[-1])
        loss = -np.mean(np.log(np.sum(probs * onehot, axis=-1)), axis=-1)
        return loss, (probs - onehot) / logits.shape[-2]

    def flat(*parts):
        return np.concatenate([p.reshape(*features.shape[:-2], -1) for p in parts], axis=-1)

    xt = features.swapaxes(-1, -2)
    d, h, c = features.shape[-1], HIDDEN, classes
    if kind == "logistic":
        w, b = weights[: d * c].reshape(d, c), weights[d * c :]
        loss, d_logits = cross_entropy(features @ w + b)
        return loss, flat(xt @ d_logits, d_logits.sum(axis=-2))
    w1, b1 = weights[: d * h].reshape(d, h), weights[d * h : d * h + h]
    w2, b2 = weights[d * h + h : d * h + h + h * c].reshape(h, c), weights[d * h + h + h * c :]
    hidden = np.tanh(features @ w1 + b1)
    loss, d_logits = cross_entropy(hidden @ w2 + b2)
    d_hidden = (d_logits @ w2.T) * (1.0 - hidden**2)
    return loss, flat(xt @ d_hidden, d_hidden.sum(axis=-2),
                      hidden.swapaxes(-1, -2) @ d_logits, d_logits.sum(axis=-2))


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_layout_gives_num_params_and_cuts_views(kind):
    model = _model(kind, 6, 3)
    assert model.num_params == sum(math.prod(shape) for shape in model.shapes)
    weights = np.arange(model.num_params, dtype=np.float64)
    parts = _unpack(weights, model.shapes)
    assert [part.shape for part in parts] == model.shapes
    assert all(np.shares_memory(part, weights) for part in parts)
    np.testing.assert_array_equal(np.concatenate([part.ravel() for part in parts]), weights)


@pytest.mark.parametrize("extra", [-1, 1, 5])
@pytest.mark.parametrize("model", [SoftmaxRegression(3, 2), TanhMlp(3, 2, hidden_units=4)],
                         ids=["logistic", "mlp"])
def test_wrong_length_weights_raise_naming_both_lengths(model, extra):
    weights = np.zeros(model.num_params + extra)
    features, labels = np.ones((5, 3)), np.array([0, 1, 0, 1, 1])
    match = f"length {weights.size}; the model has {model.num_params} parameters"
    with pytest.raises(ValueError, match=match):
        model.gradient(weights, features, labels)
    with pytest.raises(ValueError, match=match):
        evaluate(weights, model, Dataset(features, labels, 2))


@pytest.mark.parametrize("classes", [2, 3, 8, 10, 17])
@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_class_major_gradient_matches_row_major_formula(kind, classes):
    rng = np.random.default_rng(classes)
    model = _model(kind, 9, classes)
    weights = rng.normal(scale=0.5, size=model.num_params)
    features = rng.normal(size=(3, 40, 9))
    labels = rng.integers(0, classes, size=(3, 40))
    grads = model.gradient(weights, features, labels)
    ref_losses, ref_grads = row_major_loss_and_gradient(kind, weights, features, labels, classes)
    # The loss a run reports is evaluate's, so the reference's loss checks it batch by batch.
    losses = [evaluate(weights, model, Dataset(x, y, classes))[1] for x, y in zip(features, labels)]
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
    # Relative to each batch's largest gradient entry, so entries that cancel
    # to near zero are compared on the scale of their summands.
    scale = np.abs(ref_grads).max(axis=-1, keepdims=True)
    assert np.max(np.abs(grads - ref_grads) / scale) <= 1e-12


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_batched_gradient_equals_per_batch_calls(kind):
    # At 10 classes the softmax sums 8 or more terms, where numpy's
    # summation order depends on the layout of the reduced axis.
    rng = np.random.default_rng(12)
    for classes in (4, 10):
        model = _model(kind, 9, classes)
        weights = rng.normal(scale=0.5, size=model.num_params)
        features = rng.normal(size=(2, 3, 16, 9))
        labels = rng.integers(0, classes, size=(2, 3, 16))
        grads = model.gradient(weights, features, labels)
        assert grads.shape == (2, 3, model.num_params)
        for index in np.ndindex(2, 3):
            assert grads[index].tobytes() == model.gradient(weights, features[index], labels[index]).tobytes()


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_local_gradients_equal_per_device_calls_at_any_block_size(monkeypatch, kind):
    ds = make_synthetic_dataset(400, 6, 3, seed=1, class_separation=SEPARATION)
    shards = partition(ds, 5, "non-iid", seed=1)
    model = _model(kind, 6, 3)
    weights = np.random.default_rng(2).normal(scale=0.3, size=model.num_params)
    seeds = [(3, m) for m in range(5)]
    whole = compute_local_gradient(weights, model, ds, shards, 16, rngs(*seeds))
    # Two devices' features per block: three blocks for five devices.
    monkeypatch.setattr(analysis, "BLOCK_BYTES", 2 * 16 * ds.features[0].nbytes)
    blocked = compute_local_gradient(weights, model, ds, shards, 16, rngs(*seeds))
    assert blocked.tobytes() == whole.tobytes()
    for m, (shard, rng) in enumerate(zip(shards, rngs(*seeds))):
        batch = rng.choice(shard, size=16, replace=False)
        assert whole[m].tobytes() == model.gradient(weights, ds.features[batch], ds.labels[batch]).tobytes()


# ---------------------------------------------------------------------------
# Sign quantization and updates
# ---------------------------------------------------------------------------

def test_sign_quantize_zero_convention():
    np.testing.assert_array_equal(sign_quantize([0.3, -1.2, 0.0]), [1, -1, 1])
    # only a value below zero votes -1: -0.0 and NaN vote +1, the smallest subnormals keep their sign
    signs = sign_quantize([-0.0, 0.0, np.nan, -5e-324, 5e-324])
    assert signs.dtype == np.int8
    np.testing.assert_array_equal(signs, [1, 1, 1, -1, 1])


def test_sign_quantize_odd_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rng.normal(size=37)
        g[g == 0] = 1.0
        s = sign_quantize(g)
        np.testing.assert_array_equal(sign_quantize(-g), -s)
        assert np.all(np.abs(s) == 1)
        assert not np.any(s == 0)


def test_apply_global_update_examples():
    weights = np.array([1.0, 1.0])
    vote = np.array([1, -1])
    new = apply_global_update(weights, vote, 0.5)
    np.testing.assert_allclose(new, [0.5, 1.5])
    np.testing.assert_array_equal(weights, [1.0, 1.0])  # a new vector; the input is untouched

    frozen = apply_global_update(weights, vote, 0.0)
    np.testing.assert_allclose(frozen, weights)

    back = apply_global_update(apply_global_update(weights, vote, 0.3), -vote, 0.3)
    np.testing.assert_allclose(back, weights, atol=1e-15)


def test_apply_global_update_length_check():
    with pytest.raises(ValueError, match="^direction length 2 does not match model size 3$"):
        apply_global_update(np.zeros(3), np.array([1, -1]), 0.1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_zero_weights_balanced():
    ds = make_synthetic_dataset(1000, 6, 10, seed=4, class_separation=SEPARATION)
    model = SoftmaxRegression(6, 10)
    acc, loss = evaluate(np.zeros(model.num_params), model, ds)
    # All logits tie, argmax picks class 0, classes are exactly balanced.
    assert acc == pytest.approx(np.mean(ds.labels == 0))
    assert loss == pytest.approx(np.log(10.0))


def test_evaluate_single_sample():
    ds = Dataset(np.array([[1.0, 2.0]]), np.array([1]), 2)
    model = SoftmaxRegression(2, 2)
    acc, _ = evaluate(np.zeros(model.num_params), model, ds)
    assert acc in (0.0, 1.0)


def test_evaluate_rejects_an_empty_dataset():
    model = SoftmaxRegression(2, 2)
    with pytest.raises(ValueError, match="^cannot evaluate on an empty dataset$"):
        evaluate(np.zeros(model.num_params), model, Dataset(np.zeros((0, 2)), [], 2))


def test_sign_vote_training_reaches_90_percent_train_accuracy():
    # The learner's own loop in an ideal channel: per-device batch signs,
    # perfect majority vote, fixed-size steps.
    from airvote.detector import ideal_majority_vote

    ds = make_synthetic_dataset(2000, 10, 2, seed=3, class_separation=SEPARATION)
    shards = partition(ds, 5, "iid", seed=3)
    model = SoftmaxRegression(10, 2)
    weights = np.zeros(model.num_params)
    for round_idx in range(100):
        device_rngs = rngs(*((round_idx, m) for m in range(len(shards))))
        signs = sign_quantize(compute_local_gradient(weights, model, ds, shards, 64, device_rngs))
        weights = apply_global_update(weights, ideal_majority_vote(signs), 0.004)
    accuracy, _ = evaluate(weights, model, ds)
    assert accuracy > 0.90


def test_evaluate_trained_model_perfect_on_separable_data():
    ds = make_synthetic_dataset(300, 4, 2, seed=6, class_separation=6.0)
    model = SoftmaxRegression(4, 2)
    weights = np.zeros(model.num_params)
    for _ in range(300):
        weights = weights - 1.0 * model.gradient(weights, ds.features, ds.labels)
    acc, _ = evaluate(weights, model, ds)
    assert acc == 1.0

