import csv
import gzip
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from airvote import analysis, cli, experiment
from airvote.cli import main
from airvote.experiment import (
    _CONFIG_KEYS,
    _MNIST_FILES,
    DatasetSpec,
    build_datasets,
    load_config,
    run_experiment,
    summary_path,
)
from conftest import write_idx

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


def set_keys(config_path, lines):
    """Rewrite the config with the `key = value` `lines` in place of its lines
    that set the same keys: a key given twice is itself an error."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in config_path.read_text().splitlines() if line.split("=")[0].strip() not in keys]
    config_path.write_text("\n".join(kept + lines.splitlines()) + "\n")


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


# The README's convergence example.
README_CONVERGENCE = {"--devices": "31", "--snr": "2", "--rounds": "1000",
                     "--smoothness-l1": "4", "--sigma-l1": "2", "--loss-gap": "3"}


def _convergence(capsys, **options) -> str:
    args = {**README_CONVERGENCE, **options}
    assert main(["bounds", "--convergence", *(item for pair in args.items() for item in pair)]) == 0
    return capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "flag, value",
    [("--devices", "5"), ("--snr", "8"), ("--gamma", "2"), ("--rounds", "400"), ("--smoothness-l1", "9"),
     ("--sigma-l1", "5"), ("--loss-gap", "1"), ("--batch-size", "64")],
)
def test_every_convergence_input_moves_the_bound(capsys, flag, value):
    assert _convergence(capsys, **{flag: value}) != _convergence(capsys)


def test_bounds_convergence_batch_size_selects_the_strict_form(capsys):
    assert _convergence(capsys) == "0.25831430288635754"
    # the simplified form is the strict one at batch size 1, to the byte
    assert _convergence(capsys, **{"--batch-size": "1"}) == _convergence(capsys)
    assert _convergence(capsys, **{"--batch-size": "64"}) == "0.23222684314885997"
    # the batch size alone selects the strict form; the old flag is unknown
    assert main(["bounds", "--convergence", "--strict-derivation", "--batch-size", "64"]) == 1
    assert "unrecognized arguments: --strict-derivation" in capsys.readouterr().err


def test_readme_bounds_examples_run(capsys):
    # every `airvote bounds` line of the README's Command line block exits 0
    # and prints what its "# prints X" comment promises
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("airvote bounds")]
    printed = []
    for line in lines:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out.strip()
        if comment.split()[:1] == ["prints"]:
            assert out == comment.split()[1], line
            printed.append(out)
    assert len(lines) >= 5 and "620000" in printed


@pytest.mark.parametrize(
    "argv",
    [
        ["--error-prob", "--snr", "nan"],
        ["--tau", "--gamma", "inf"],
        ["--failure-prob", "nan"],
        ["--tau", "--snr", "abc"],  # not a float at all
    ],
)
def test_bounds_rejects_non_finite_floats(capsys, argv):
    assert main(["bounds", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-1]!r} is not a finite number" in captured.err


@pytest.mark.parametrize("batch_size", ["0", "-4"])
def test_bounds_rejects_batch_size_below_1(capsys, batch_size):
    argv = ["bounds", "--convergence", "--batch-size", batch_size]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "batch_size must be >= 1" in captured.err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--convergence", "--rounds"], "rounds"),
        (["--tau", "--devices"], "num_devices"),
        (["--cost", "qsgd", "--dim"], "model_dim"),
        (["--convergence", "--batch-size"], "batch_size"),
    ],
)
def test_bounds_rejects_counts_no_float_can_hold(capsys, argv, name):
    # a count no float can hold is rejected by name before any arithmetic
    assert main(["bounds", *argv, str(10**400)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be >= 1")


@pytest.mark.parametrize(
    "argv, printed",
    [(["--failure-prob", "1e200"], "0.0"),
     *((["--cost", scheme, "--devices", str(10**200), "--dim", str(10**200)], "inf")
       for scheme in ("qsgd", "terngrad"))],
)
def test_bounds_prints_the_limit_where_float_arithmetic_overflows(capsys, argv, printed):
    # an overflow gives the bound's limit, vacuous but not false, never an OverflowError (exit 2)
    assert main(["bounds", *argv]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_train_missing_config(capsys):
    assert main(["train", "--config", "missing.toml"]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'missing.toml'\n"


def test_diverging_run_exits_1_and_writes_nothing(tmp_path, capsys):
    config_path, output = write_config(tmp_path)
    text = config_path.read_text().replace("scheme = fsk_mv_dpc", "scheme = fsk_mv")
    config_path.write_text(text.replace("learning_rate = 0.02", "learning_rate = 1.7e308"))
    assert main(["train", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: round 1: non-finite gradient on device 0" in captured.err
    assert not output.exists() and not summary_path(output).exists()


def test_unexpected_failure_exits_2(tmp_path, capsys, monkeypatch):
    def fail(config, reads=()):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "run_experiment", fail)
    config_path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr() == ("", "runtime error: unexpected\n")


def test_unknown_flag_exits_1(capsys):
    assert main(["bounds", "--does-not-exist"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv, missing", [
    (["train"], "the following arguments are required: --config"),
    (["bounds"], "one of the arguments --cost --failure-prob --error-prob --tau --convergence is required"),
    (["plot-data", "--output", "out.csv"], "the following arguments are required: --input"),
    (["plot-data", "--input", "metrics.jsonl"], "the following arguments are required: --output"),
])
def test_missing_required_argument_exits_1_with_usage(capsys, argv, missing):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: airvote {argv[0]} ")
    assert captured.err.endswith(f"\nairvote {argv[0]}: error: {missing}\n")


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1


def test_no_arguments_exits_1():
    assert main([]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_train_and_plot_data_roundtrip(tmp_path, capsys):
    config_path, output = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out == f"wrote {output} and {summary_path(output)}\n"
    records = [json.loads(line) for line in output.read_text().splitlines()]
    assert [r["round"] for r in records] == [0, 3, 6]

    tidy = tmp_path / "tidy.csv"
    assert main(["plot-data", "--input", str(output), "--output", str(tidy)]) == 0
    assert capsys.readouterr().out == f"wrote {tidy} (3 rows)\n"
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


def test_plot_data_without_summary_labels_rows_unknown(tmp_path, capsys):
    source = tmp_path / "metrics.jsonl"
    source.write_text('{"round": 0, "test_accuracy": 0.1}\n{"round": 5, "test_accuracy": 0.7}\n')
    tidy = tmp_path / "tidy.csv"
    assert main(["plot-data", "--input", str(source), "--output", str(tidy)]) == 0
    assert capsys.readouterr().out == f"wrote {tidy} (2 rows)\n"
    assert tidy.read_text() == "round,scheme,accuracy\n0,unknown,0.1\n5,unknown,0.7\n"


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


def test_plot_data_never_overwrites_its_input(tmp_path, capsys, monkeypatch):
    config_path, output = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    for target in (output, f"./{output.name}", summary_path(output), summary_path(output.name)):
        assert main(["plot-data", "--input", str(output), "--output", str(target)]) == 1
        assert "would overwrite" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name, output", [("run.toml", "run.toml"), ("run.summary.csv", "./run.jsonl")])
def test_train_never_overwrites_its_config(tmp_path, capsys, monkeypatch, name, output):
    # the refused path is the output or its summary, whichever is the config
    monkeypatch.chdir(tmp_path)
    config_path, _ = write_config(tmp_path, name=name, output=output)
    before = config_path.read_bytes()
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: output {name} would overwrite the input {config_path}\n"
    assert config_path.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == [config_path.name]


def test_train_missing_output_dir_names_the_output_path(tmp_path, capsys):
    output = tmp_path / "missing" / "x.jsonl"
    config_path, _ = write_config(tmp_path, output=output)
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err and err.endswith(f"'{output}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [config_path.name]


def test_plot_data_missing_output_dir_names_the_output_path(tmp_path, capsys):
    source = tmp_path / "metrics.jsonl"
    source.write_text('{"round": 0, "test_accuracy": 0.1}\n')
    tidy = tmp_path / "missing" / "p.csv"
    assert main(["plot-data", "--input", str(source), "--output", str(tidy), "--scheme", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err and err.endswith(f"'{tidy}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.jsonl"]


def _write_mnist(directory, gzipped=None):
    """The four IDX files of a 30-image, 3-class MNIST stand-in; `gzipped`
    names one stem to store only as `<stem>.gz`, from the plain bytes."""
    rng = np.random.default_rng(0)
    for part in ("train", "t10k"):
        write_idx(directory, part, rng.integers(0, 256, (30, 4, 4)), [i % 3 for i in range(30)])
    if gzipped:
        plain = directory / gzipped
        (directory / f"{gzipped}.gz").write_bytes(gzip.compress(plain.read_bytes()))
        plain.unlink()


@pytest.mark.parametrize(
    "name, damage, message",
    [("train-images-idx3-ubyte.gz", lambda gz: gz[:-40], "end-of-stream marker"),  # cut short of its end
     ("train-images-idx3-ubyte", lambda raw: raw[:2], "too short to contain an IDX header"),
     ("train-images-idx3-ubyte", lambda raw: raw[:6], "truncated dimension header")],  # 3 dimensions declared
    ids=["gzip-cut-short", "no-header", "header-cut-short"],
)
def test_train_with_damaged_idx_exits_1_naming_it(tmp_path, capsys, name, damage, message):
    _write_mnist(tmp_path, gzipped="train-images-idx3-ubyte" if name.endswith(".gz") else None)
    damaged = tmp_path / name
    damaged.write_bytes(damage(damaged.read_bytes()))
    config_path, output = write_config(tmp_path)
    set_keys(config_path, f"dataset.kind = mnist\ndataset.path = {tmp_path}")
    inputs = sorted(path.name for path in tmp_path.iterdir())
    assert main(["train", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {damaged}: ") and message in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == inputs


def test_train_with_missing_idx_file_exits_1_naming_it(tmp_path, capsys):
    _write_mnist(tmp_path)
    (tmp_path / "t10k-labels-idx1-ubyte").unlink()
    config_path, _ = write_config(tmp_path)
    set_keys(config_path, f"dataset.kind = mnist\ndataset.path = {tmp_path}")
    inputs = sorted(path.name for path in tmp_path.iterdir())
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr() == ("", f"error: missing t10k-labels-idx1-ubyte[.gz] under {tmp_path}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("name", [*_MNIST_FILES, "t10k-labels-idx1-ubyte.gz"])
def test_train_never_overwrites_its_idx_files(tmp_path, capsys, monkeypatch, name):
    # the output, given relative to the working directory, resolves to a file the run reads
    _write_mnist(tmp_path, gzipped=name.removesuffix(".gz") if name.endswith(".gz") else None)
    monkeypatch.chdir(tmp_path)
    config_path, _ = write_config(tmp_path, output=name)
    set_keys(config_path, f"dataset.kind = mnist\ndataset.path = {tmp_path}")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    message = f"output {name} would overwrite the input {tmp_path / name}"
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(load_config(config_path))
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_refused_allocation_exits_1_naming_its_size(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an array the host refuses; the run writes nothing
    message = "Unable to allocate 8.73 TiB for an array with shape (3, 3200000000000) and data type int8"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(experiment, "run_rounds", refuse)
    config_path, output = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [config_path.name]


def test_idx_sets_larger_than_samples_are_subsampled(tmp_path):
    # every pixel of image i is i, so a row's first feature names its index
    for part, count in (("train", 30), ("t10k", 8)):
        write_idx(tmp_path, part, np.repeat(np.arange(count), 16).reshape(count, 4, 4),
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
    write_idx(tmp_path, "train", rng.integers(0, 256, (30, 4, 4)), [i % 3 for i in range(30)])
    config_path, output = write_config(tmp_path)
    set_keys(config_path, f"dataset.kind = mnist\ndataset.path = {tmp_path}")
    # a test set that fits the train set trains
    write_idx(tmp_path, "t10k", rng.integers(0, 256, (4, 4, 4)), [0, 1, 2, 1])
    assert main(["train", "--config", str(config_path)]) == 0
    output.unlink()
    summary_path(output).unlink()
    write_idx(tmp_path, "t10k", rng.integers(0, 256, (4, test_side, test_side)), test_labels)
    assert main(["train", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err
    assert not output.exists() and not summary_path(output).exists()  # rejected before any round


def test_mc_verify_flip_prob_suite(capsys):
    assert main(["mc-verify", "--suite", "flip-prob", "--trials", "5000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # without --trials the suite runs at its table's default count
    assert main(["mc-verify", "--suite", "flip-prob", "--seed", "1"]) == 0
    default = analysis.SUITE_TABLES["flip-prob"][1]
    assert f"({default} draws)" in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize("argv, runs", [
    ([], [("mean-energy", 100_000, 0), ("flip-prob", 100_000, 0), ("error-prob", 10_000, 0)]),
    (["--suite", "mean-energy", "--trials", "1"], [("mean-energy", 1, 0)]),
    (["--suite", "flip-prob", "--trials", "1", "--seed", "5"], [("flip-prob", 1, 5)]),
    (["--suite", "error-prob", "--trials", "1000"], [("error-prob", 1000, 0)]),
])
def test_mc_verify_default_and_fewest_trials_and_seed(capsys, monkeypatch, argv, runs):
    # the README's defaults: 100k/100k/10k trials, fewest 1/1/1,000, seed 0
    calls = []
    for suite, (_, *rest) in analysis.SUITE_TABLES.items():
        def recording(trials, seed, suite=suite):
            calls.append((suite, trials, seed))
            return []

        monkeypatch.setitem(analysis.SUITE_TABLES, suite, (recording, *rest))
    assert main(["mc-verify", *argv]) == 0
    assert calls == runs


def test_mc_verify_suite_alias(capsys):
    assert main(["mc-verify", "--suite", "lemmad1", "--trials", "5000", "--seed", "1"]) == 0


def test_mc_verify_error_prob_suite_reports_known_failures(capsys):
    # the attenuated comparison target is exceeded at flip rates >= 0.2
    assert main(["mc-verify", "--suite", "error-prob", "--trials", "2000", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "exact" in out


@pytest.mark.parametrize(
    "line, message",
    [("rounds = many", "rounds on line 1: bad value 'many'"),
     ("rounds 5", "line 1: expected 'key = value', got 'rounds 5'")],
)
def test_invalid_config_line_exits_1(tmp_path, capsys, line, message):
    path = tmp_path / "bad.toml"
    path.write_text(line + "\n")
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# One bad value for every config key that has a rule, then more values of some keys, each with
# the `error: <key> ...` line it prints after its key; the two keys below take any string.
AT_LEAST_1 = "must be >= 1 and <= 1.79769e+308"
BAD_CONFIG_ROWS = [
    ("scheme", "x", "must be one of ('ideal_signsgd_mv', 'fedavg_ideal', 'fsk_mv', 'fsk_mv_dpc')"),
    ("learning_rate", "0", "must be finite and > 0"),
    ("batch_size", "0", AT_LEAST_1),
    ("rounds", "0", AT_LEAST_1),
    ("devices", "0", AT_LEAST_1),
    ("partition", "x", "must be one of ('iid', 'non-iid')"),
    ("model", "x", "must be one of ('logistic', 'mlp')"),
    ("hidden_units", "0", AT_LEAST_1),
    ("eval_every", "0", AT_LEAST_1),
    ("seed", "-1", "must lie in [0, 2**64)"),
    ("channel.noise_var", "-1", "must be finite, >= 0 and <= 1e+300"),
    ("channel.sync_error_max", "1", "must lie in [0, 1)"),
    ("channel.fading", "x", "must be one of ('per_bin', 'per_frame', 'none')"),
    ("phy.subcarriers", "3", "must be an even number in [2, 64]"),
    ("phy.symbols", "0", AT_LEAST_1),
    ("phy.power_cap", "0.5", "must be no lower than the initial power of 1"),
    ("dataset.kind", "x", "must be one of ('synthetic', 'mnist')"),
    ("dataset.samples", "0", AT_LEAST_1),
    ("dataset.test_samples", "0", AT_LEAST_1),
    ("dataset.input_dim", "0", AT_LEAST_1),
    ("dataset.classes", "1", "must be >= 2 and <= 1.79769e+308"),
    ("dataset.separation", "inf", "must be finite"),
    ("seed", str(2**64), "must lie in [0, 2**64)"),
    ("learning_rate", "inf", "must be finite and > 0"),
    ("learning_rate", "nan", "must be finite and > 0"),
    ("hidden_units", "-2", AT_LEAST_1),
    ("channel.noise_var", "inf", "must be finite, >= 0 and <= 1e+300"),
    ("channel.noise_var", "1e308", "must be finite, >= 0 and <= 1e+300"),  # a bin's |r|^2 would overflow
    ("phy.subcarriers", "128", "must be an even number in [2, 64]"),
    ("phy.subcarriers", "1000000000000", "must be an even number in [2, 64]"),
    ("phy.symbols", str(10**400), AT_LEAST_1),
    ("phy.power_cap", "nan", "must be no lower than the initial power of 1"),
    ("phy.power_cap", "none", "on line 20: bad value 'none'"),
    ("dataset.input_dim", "1000000000000",  # 10**12: no host holds it
     "makes the synthetic dataset 1.3e+15 bytes, more than physical memory"),
    ("dataset.classes", "161", "161 exceeds the 160 samples of samples + test_samples"),
    ("dataset.separation", "-inf", "must be finite"),
]
RULE_FREE_KEYS = {"output", "dataset.path"}


def test_every_ruled_config_key_has_a_bad_value_row():
    assert sorted(_CONFIG_KEYS.keys() - RULE_FREE_KEYS - {key for key, _, _ in BAD_CONFIG_ROWS}) == []
    # the loader turns a rejection's field name into its key through bare field names
    names = [name for _, name, _ in _CONFIG_KEYS.values()]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("key, value, message", BAD_CONFIG_ROWS,
                         ids=[f"{key}={value[:16]}" for key, value, _ in BAD_CONFIG_ROWS])
def test_bad_config_value_exits_1_at_load_naming_its_key(tmp_path, capsys, key, value, message):
    config_path, _ = write_config(tmp_path)
    set_keys(config_path, f"{key} = {value}")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{key} {message}')}$"):
        load_config(config_path)
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {key} {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == [config_path.name]


@pytest.mark.parametrize("seed", range(6))
def test_non_iid_devices_without_two_samples_each_exit_1_at_every_seed(tmp_path, capsys, seed):
    # 20 non-iid devices cut 30 samples into 40 chunks: some seeds would leave a device no sample
    config_path, output = write_config(tmp_path)
    set_keys(config_path, f"scheme = fsk_mv\ndevices = 20\nbatch_size = 1\npartition = non-iid\n"
                          f"dataset.samples = 30\nseed = {seed}")
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr() == ("", "error: cannot split 30 samples across 20 devices, 2 or more each\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == [config_path.name]


def test_readme_synthetic_memory_example(tmp_path, capsys):
    # the other sizes at their defaults: (10,000 + 2,000 + 10) x 10**8 x 8 bytes
    config_path = tmp_path / "huge.conf"
    config_path.write_text("dataset.input_dim = 100000000\n")
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr() == ("", "error: dataset.input_dim makes the synthetic dataset 9.61e+12 bytes, "
                                       "more than physical memory\n")


def test_config_key_given_twice_exits_1_at_load_naming_the_repeat(tmp_path, capsys):
    config_path, output = write_config(tmp_path)
    text = config_path.read_text()
    config_path.write_text(text + "rounds = 500\n")
    repeat = len(text.splitlines()) + 1
    with pytest.raises(ValueError, match=f"^rounds on line {repeat}: "):
        load_config(config_path)
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: rounds on line {repeat}: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == [config_path.name]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_run(tmp_path, seed):
    config_path, output = write_config(tmp_path)
    set_keys(config_path, f"seed = {seed}")
    assert main(["train", "--config", str(config_path)]) == 0
    with summary_path(output).open() as fh:
        assert next(csv.DictReader(fh))["seed"] == str(seed)


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
