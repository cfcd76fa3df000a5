import csv
import inspect
import json
import struct

import numpy as np
import pytest

from airvote import analysis
from airvote.cli import main
from airvote.experiment import DatasetSpec, build_datasets, summary_path

CONFIG_TEMPLATE = """
scheme = fsk_mv_dpc
rounds = 6
devices = 3
batch_size = 10
learning_rate = 0.02
partition = iid
seed = 7
eval_every = 3
output = {output}
dataset.kind = synthetic
dataset.samples = 120
dataset.test_samples = 40
dataset.input_dim = 5
dataset.classes = 3
channel.noise_var = 0.4
channel.sync_error_max = 0.1
phy.subcarriers = 16
phy.symbols = 2
"""


def write_config(tmp_path, name="run.toml", output=None):
    output = output or (tmp_path / "metrics.jsonl")
    path = tmp_path / name
    path.write_text(CONFIG_TEMPLATE.format(output=output))
    return path, output


def test_bounds_cost(capsys):
    assert main(["bounds", "--cost", "signsgd_mv", "--devices", "31", "--dim", "10000"]) == 0
    assert capsys.readouterr().out.strip() == "620000"


def test_bounds_failure_prob(capsys):
    assert main(["bounds", "--failure-prob", "2"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0 / 18.0)


def test_bounds_tau(capsys):
    assert main(["bounds", "--tau", "--devices", "31", "--snr", "2", "--gamma", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.032258064516129)


def test_bounds_error_prob(capsys):
    assert main(["bounds", "--error-prob", "--devices", "31", "--snr", "2", "--grad-snr", "3"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.09173718825271866)


@pytest.mark.parametrize("snr, expected", [("1e-320", 0.5), ("1e308", 2.0 ** 0.5 / 18.0)])
def test_bounds_error_prob_extreme_snr(capsys, snr, expected):
    # 1/snr overflows at a subnormal snr and snr*K at a huge one; the bound
    # must still reach its limits, 1/2 and sqrt(2)/(6*grad_snr).
    assert main(["bounds", "--error-prob", "--devices", "31", "--snr", snr, "--grad-snr", "3"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-12)


def test_bounds_convergence(capsys):
    code = main(
        ["bounds", "--convergence", "--devices", "31", "--snr", "2", "--rounds", "400",
         "--smoothness-l1", "4", "--sigma-l1", "2", "--loss-gap", "3"]
    )
    assert code == 0
    assert float(capsys.readouterr().out) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--error-prob", "--snr", "nan"],
        ["--tau", "--gamma", "inf"],
        ["--failure-prob", "nan"],
    ],
)
def test_bounds_rejects_non_finite_floats(capsys, argv):
    assert main(["bounds", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a finite number" in captured.err


@pytest.mark.parametrize("batch_size", ["0", "-4"])
def test_bounds_rejects_batch_size_below_1(capsys, batch_size):
    argv = ["bounds", "--convergence", "--strict-derivation", "--batch-size", batch_size]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "batch_size must be >= 1" in captured.err


def test_train_missing_config(capsys):
    assert main(["train", "--config", "missing.toml"]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["bounds", "--does-not-exist"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1


def test_no_arguments_exits_1():
    assert main([]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_train_and_plot_data_roundtrip(tmp_path, capsys):
    config_path, output = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    records = [json.loads(line) for line in output.read_text().splitlines()]
    assert [r["round"] for r in records] == [0, 3, 6]

    tidy = tmp_path / "tidy.csv"
    assert main(["plot-data", "--input", str(output), "--output", str(tidy)]) == 0
    with tidy.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["round"] for r in rows] == ["0", "3", "6"]
    assert all(r["scheme"] == "fsk_mv_dpc" for r in rows)  # scheme from summary csv
    assert [float(r["accuracy"]) for r in rows] == [r["test_accuracy"] for r in records]


def test_plot_data_scheme_override(tmp_path):
    config_path, output = write_config(tmp_path)
    main(["train", "--config", str(config_path)])
    tidy = tmp_path / "tidy.csv"
    assert main(["plot-data", "--input", str(output), "--output", str(tidy), "--scheme", "xyz"]) == 0
    with tidy.open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["scheme"] == "xyz" for r in rows)


def test_plot_data_missing_input(tmp_path, capsys):
    assert main(["plot-data", "--input", str(tmp_path / "no.jsonl"), "--output", "x.csv"]) == 1


@pytest.mark.parametrize(
    "bad_line", ['{"round": 3}', "not json", "[1, 2]", '{"test_accuracy": 0.5}']
)
def test_plot_data_bad_record_exits_1_and_keeps_output(tmp_path, capsys, bad_line):
    source = tmp_path / "metrics.jsonl"
    source.write_text('{"round": 0, "test_accuracy": 0.1}\n\n' + bad_line + "\n")
    tidy = tmp_path / "tidy.csv"
    tidy.write_bytes(b"round,scheme,accuracy\r\n9,old,0.9\r\n")
    before = tidy.read_bytes()
    assert main(["plot-data", "--input", str(source), "--output", str(tidy)]) == 1
    assert "line 3" in capsys.readouterr().err
    assert tidy.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.jsonl", "tidy.csv"]


@pytest.mark.parametrize("sidecar_text", ["", "round,accuracy\r\n0,0.5\r\n", "scheme\r\n"])
def test_plot_data_bad_sidecar_exits_1_and_writes_nothing(tmp_path, capsys, sidecar_text):
    source = tmp_path / "metrics.jsonl"
    source.write_text('{"round": 0, "test_accuracy": 0.1}\n')
    summary_path(source).write_text(sidecar_text)
    tidy = tmp_path / "tidy.csv"
    assert main(["plot-data", "--input", str(source), "--output", str(tidy)]) == 1
    assert str(summary_path(source)) in capsys.readouterr().err
    assert not tidy.exists()


def test_train_reruns_are_byte_identical(tmp_path):
    config_a, out_a = write_config(tmp_path, "a.toml", tmp_path / "a.jsonl")
    config_b, out_b = write_config(tmp_path, "b.toml", tmp_path / "b.jsonl")
    assert main(["train", "--config", str(config_a)]) == 0
    assert main(["train", "--config", str(config_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def _write_idx(directory, part, images, labels):
    """IDX image and label files of one MNIST part ("train" or "t10k")."""
    images = np.asarray(images, dtype=np.uint8)
    (directory / f"{part}-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 2051, *images.shape) + images.tobytes())
    (directory / f"{part}-labels-idx1-ubyte").write_bytes(struct.pack(">II", 2049, len(labels)) + bytes(labels))


def test_idx_sets_larger_than_samples_are_subsampled(tmp_path):
    # every pixel of image i is i, so a row's first feature names its index
    for part, count in (("train", 30), ("t10k", 8)):
        _write_idx(tmp_path, part, np.repeat(np.arange(count), 16).reshape(count, 4, 4),
                   [i % 3 for i in range(count)])
    spec = DatasetSpec(kind="mnist", path=str(tmp_path), samples=12, test_samples=4)

    def indices(seed):
        sets = build_datasets(spec, seed)
        rows = [np.rint(data.features[:, 0] * 255).astype(int) for data in sets]
        for data, index in zip(sets, rows):
            assert np.array_equal(data.features, np.repeat(index / 255.0, 16).reshape(-1, 16))
            assert np.array_equal(data.labels, index % 3)
        return rows

    train, test = indices(3)
    assert (len(train), len(test)) == (12, 4)
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert all(np.array_equal(a, b) for a, b in zip(indices(3), (train, test)))
    assert not np.array_equal(indices(4)[0], train)


@pytest.mark.parametrize(
    "test_side,test_labels,message",
    [(4, [0, 1, 2, 3], "the test set's labels reach 3, the train set's only 2"),
     (3, [0, 1, 2, 1], "the test set's images have 9 pixels, the train set's 16")],
)
def test_train_rejects_idx_test_set_that_does_not_fit_the_train_set(tmp_path, capsys, test_side, test_labels, message):
    rng = np.random.default_rng(0)
    _write_idx(tmp_path, "train", rng.integers(0, 256, (30, 4, 4)), [i % 3 for i in range(30)])
    config_path, output = write_config(tmp_path)
    config_path.write_text(config_path.read_text() + f"dataset.kind = mnist\ndataset.path = {tmp_path}\n")
    # a test set that fits the train set trains
    _write_idx(tmp_path, "t10k", rng.integers(0, 256, (4, 4, 4)), [0, 1, 2, 1])
    assert main(["train", "--config", str(config_path)]) == 0
    output.unlink()
    summary_path(output).unlink()
    _write_idx(tmp_path, "t10k", rng.integers(0, 256, (4, test_side, test_side)), test_labels)
    assert main(["train", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err
    assert not output.exists() and not summary_path(output).exists()  # rejected before any round


def test_mc_verify_flip_prob_suite(capsys):
    assert main(["mc-verify", "--suite", "flip-prob", "--trials", "5000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # without --trials the suite runs at its runner's default count
    assert main(["mc-verify", "--suite", "flip-prob", "--seed", "1"]) == 0
    default = inspect.signature(analysis.run_flip_prob_suite).parameters["trials"].default
    assert f"({default} draws)" in capsys.readouterr().out.splitlines()[0]


def test_mc_verify_suite_alias(capsys):
    assert main(["mc-verify", "--suite", "lemmad1", "--trials", "5000", "--seed", "1"]) == 0


def test_mc_verify_error_prob_suite_reports_known_failures(capsys):
    # the attenuated comparison target is exceeded at flip rates >= 0.2
    assert main(["mc-verify", "--suite", "error-prob", "--trials", "2000", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "exact" in out


def test_invalid_config_value_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text("rounds = many\n")
    assert main(["train", "--config", str(path)]) == 1
    assert "bad value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["learning_rate = nan", "channel.noise_var = inf", "phy.power_cap = nan", "dataset.separation = -inf"],
)
def test_non_finite_config_value_exits_1_before_training(tmp_path, capsys, line):
    config_path, output = write_config(tmp_path)
    config_path.write_text(config_path.read_text() + line + "\n")
    assert main(["train", "--config", str(config_path)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not output.exists()  # rejected at load, before the first round


@pytest.mark.parametrize(
    "line",
    ["model = mlp\nhidden_units = 0", "hidden_units = -2", "dataset.input_dim = 0", "dataset.classes = 1"],
)
def test_out_of_range_model_shape_exits_1_at_load(tmp_path, capsys, line):
    config_path, output = write_config(tmp_path)
    config_path.write_text(config_path.read_text() + line + "\n")
    assert main(["train", "--config", str(config_path)]) == 1
    key = line.rsplit("\n", 1)[-1].split(" = ")[0]
    assert key.rsplit(".", 1)[-1] + " must be >= " in capsys.readouterr().err
    assert not output.exists()  # rejected at load, before the first round


@pytest.mark.parametrize("suite", ["mean-energy", "flip-prob", "error-prob", "all"])
def test_mc_verify_rejects_nonpositive_trials(capsys, suite):
    assert main(["mc-verify", "--suite", suite, "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no suite ran, not even at its default trial count
    assert "trials must be >= " in captured.err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_mc_verify_rejects_bad_seed_at_parse_time(capsys, seed):
    assert main(["mc-verify", "--suite", "flip-prob", "--trials", "1000", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed" in captured.err and "is not a nonnegative integer" in captured.err


@pytest.mark.parametrize("suite", ["error-prob", "lemma32", "all"])
def test_mc_verify_checks_error_prob_floor_before_any_suite(capsys, suite):
    assert main(["mc-verify", "--suite", suite, "--trials", "500"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"trials must be >= {analysis.MC_ERROR_PROB_MIN_TRIALS}" in captured.err
