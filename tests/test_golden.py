"""Golden-run pins: the exact output bytes of fixed (config, seed) pairs.

The determinism contract says one (config, seed) gives one set of bytes.
Comparing two runs of the same code (criterion c10) cannot notice a
refactor that changes results; these digests can.  A change that moves a
digest on purpose updates it here and says why in CHANGES.md.
"""

import hashlib

import pytest

from airvote.analysis import mc_error_prob, mc_mean_energy
from airvote.cli import main as cli_main

# The c10 acceptance config; 21 parameters fit one 4 x 16 frame.
C10 = {
    "rounds": 8, "devices": 5, "batch_size": 16, "learning_rate": 0.01,
    "partition": "iid", "seed": 123, "eval_every": 2, "dataset.kind": "synthetic",
    "dataset.samples": 300, "dataset.test_samples": 100, "dataset.input_dim": 6,
    "dataset.classes": 3, "channel.noise_var": 0.5, "channel.sync_error_max": 0.2,
    "phy.subcarriers": 16, "phy.symbols": 4,
}

# sha256 of (metrics JSONL, summary CSV) per scheme.
C10_DIGESTS = {
    "ideal_signsgd_mv": (
        "a24501b0db1b8662de0eb9f08ffd2f582299b735f04ce42f435885173d10fdd6",
        "81b65d03f84c1a04122b32c98e3c33d4f93591e5dc02b112f13544c27efa5d42",
    ),
    "fedavg_ideal": (
        "4b63546079045b52f13c5060368d3e405e9fefdc18bfb5780c37d4080aa6b6df",
        "2e5acda45af809e2056bb4d96b596697921761bba3b03d0c2a02b9506fe65ce4",
    ),
    "fsk_mv": (
        "3f933f651b0de5df3e1bdae7d92b9e4f2ff621f5f7105ef7f242b3d715653945",
        "0b2e98304141437545a52f3393851981b2193e1517567f5700fe218bfdb4555a",
    ),
    "fsk_mv_dpc": (
        "e4b9caa544c2927276af1bbcaf76d484dfca7d5f0872104f64a4fd01df136a38",
        "2c92e2d3b6a9f1cc4f034b8888fa7410218a772c3d71a2b74198855c31d1e837",
    ),
}

# c10 with one symbol per frame: 8 coordinates per frame, so 3 frames per
# round, the last one padded.  Pinned under the per-(round, device)
# randomization generators, which draw every frame of a device in order.
C10_MULTI_FRAME_DIGESTS = (
    "9f6887269941f3498e16a7dda069e2ef0f478b7ba19b846a7f178d766b188e34",
    "101bdf65c83beffb0ebd01822b07ac86e526d53cb3f810c6dd58ad298a72c569",
)

# perfbench's TINY_MC grid: (devices, snr, flip_prob) -> estimate at 1000
# trials with the seed the benchmark derives for the point.
TINY_MC_ESTIMATES = {
    (5, 2.0, 0.2): 0.266,
    (15, 2.0, 0.2): 0.24,
}

# mean-energy suite points: (devices, mean_tx_power, noise_var) -> estimate at
# 2000 trials (two frames, the second partial) with the suite's seed for the
# point.  Pinned with equal per-device powers and no power draw; a change of
# the draw order moves these by far more than the tolerance.
TINY_MEAN_ENERGY = {
    (2, 1.0, 0.1): 4.106066988665727,
    (5, 1.5, 1.0): 16.677213199429513,
    (31, 3.0, 0.1): 186.23075802780625,
}
MEAN_ENERGY_REL_TOL = 1e-9  # float rounding only


def _train_digests(tmp_path, **values):
    out = tmp_path / f"{values['scheme']}.jsonl"
    config = tmp_path / f"{values['scheme']}.toml"
    config.write_text("".join(f"{key} = {value}\n" for key, value in {**values, "output": out}.items()))
    assert cli_main(["train", "--config", str(config)]) == 0
    return (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(out.with_suffix(".summary.csv").read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("scheme", sorted(C10_DIGESTS))
def test_c10_outputs_match_golden_digests(tmp_path, scheme):
    assert _train_digests(tmp_path, scheme=scheme, **C10) == C10_DIGESTS[scheme]


def test_multi_frame_outputs_match_golden_digests(tmp_path):
    values = dict(C10, scheme="fsk_mv_dpc")
    values["phy.symbols"] = 1
    assert _train_digests(tmp_path, **values) == C10_MULTI_FRAME_DIGESTS


@pytest.mark.parametrize("point", sorted(TINY_MC_ESTIMATES))
def test_mc_error_prob_matches_golden_estimates(point):
    devices, snr, q = point
    estimate, _ = mc_error_prob(devices, q, snr, 1000, seed=(0, devices, int(snr * 10), int(q * 100)))
    assert estimate == TINY_MC_ESTIMATES[point]


@pytest.mark.parametrize("point", sorted(TINY_MEAN_ENERGY))
def test_mc_mean_energy_matches_golden_estimates(point):
    devices, power, noise = point
    estimate = mc_mean_energy(devices, power, noise, 2000, seed=(0, devices, int(power * 2), int(noise * 10)))
    assert estimate == pytest.approx(TINY_MEAN_ENERGY[point], rel=MEAN_ENERGY_REL_TOL)
