"""Tests of the benchmark itself: metric names against BENCHMARK.json, and
tracing that leaves the package's results unchanged."""

import hashlib
import json
import time
from pathlib import Path

import pytest

import run

run.import_package()

import layertrace  # noqa: E402
import workloads  # noqa: E402
from airvote import analysis, experiment  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# The c10 acceptance config: small enough to run in milliseconds.
TINY_TRAIN = {
    "kind": "train",
    "accuracy_floor": 0.0,
    "config": {
        "scheme": "fsk_mv_dpc", "rounds": 8, "devices": 5, "batch_size": 16,
        "learning_rate": 0.01, "partition": "iid", "seed": 123, "eval_every": 2,
        "dataset.kind": "synthetic", "dataset.samples": 300, "dataset.test_samples": 100,
        "dataset.input_dim": 6, "dataset.classes": 3, "channel.noise_var": 0.5,
        "channel.sync_error_max": 0.2, "phy.subcarriers": 16, "phy.symbols": 4,
    },
}
TINY_MC = {
    "kind": "mc",
    "grid": {"num_devices": (5, 15), "snr": (2.0,), "flip_prob": (0.2,)},
    "trials": 1000,
    "seed": 0,
}


def _expected(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("spec", [TINY_TRAIN, TINY_MC], ids=["train", "mc"])
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(spec, trace, section):
    result = run.measure(spec, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _expected(section)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert workloads.build_spec(name, 3) == workloads.build_spec(name, 3)


def _fingerprint(records, votes):
    digest = hashlib.sha256()
    for vote in votes:
        digest.update(vote.tobytes())
    return hashlib.sha256(json.dumps(records).encode() + digest.digest()).hexdigest()


def test_wrappers_preserve_training_results():
    config = experiment.config_from_values(TINY_TRAIN["config"])
    metrics, _, votes = experiment.run_rounds(config, record_votes=True)
    reference = _fingerprint([m.to_record() for m in metrics], votes)

    tracer = layertrace.LayerTracer()
    with tracer.installed():
        traced_metrics, _, traced_votes = experiment.run_rounds(config, record_votes=True)
    assert _fingerprint([m.to_record() for m in traced_metrics], traced_votes) == reference
    layers = {layer for layer, _ in tracer.summary()}
    assert layers == {"learner", "seeding", "phy", "channel", "detector"}

    assert workloads.run_job(TINY_TRAIN).fingerprint == reference
    assert workloads.run_job(TINY_TRAIN, layertrace.LayerTracer()).fingerprint == reference


def test_wrappers_preserve_mc_results_and_are_removed():
    before = dict(vars(analysis))
    plain = workloads.run_job(TINY_MC)
    traced = workloads.run_job(TINY_MC, layertrace.LayerTracer())
    assert traced.fingerprint == plain.fingerprint
    assert {key for key in traced.trace} >= {("analysis", "mc_error_prob"), ("phy", "encode_signs")}
    assert all(vars(analysis)[name] is obj for name, obj in before.items())


def test_self_times_partition_the_root_spans():
    tracer = layertrace.LayerTracer()

    def busy(seconds):
        end = time.process_time() + seconds
        while time.process_time() < end:
            pass

    inner = tracer.wrap(lambda: busy(0.01), "phy")
    outer = tracer.wrap(lambda: (busy(0.01), inner(), inner()), "experiment")
    outer()
    summary = tracer.summary()
    roots = [end - start for _, _, parent, start, end in tracer.spans if parent < 0]
    assert sum(v[0] for v in summary.values()) == pytest.approx(sum(roots))
    assert summary[("phy", "<lambda>")][1] == 2
    assert summary[("experiment", "<lambda>")][0] >= 0.009
