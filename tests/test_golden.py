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
from conftest import C10, _train_digests

# sha256 of (metrics JSONL, summary CSV) per scheme.  The over-the-air
# schemes are pinned under one generator per (round, device) for the batch
# and the symbols, and one per (round, frame) for the channel and the noise,
# with only lit bins faded and only the coordinates' bins given noise.
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
        "2c6ae192e4775937009679bb6d26b6500ea72691f2676fc3a3ddcf04193b5b2a",
        "3a374f8927682069486d8fd99a59c547509acfb74c8c6d087e9107161ef91c02",
    ),
    "fsk_mv_dpc": (
        "d0fdb4d3b4f72004e33b72e7cd2a6ed652110cc567b15d3a48bf85cc481af3ce",
        "ae658250cb63aa290e963b4965d172282f8696053f057c80032e7905bb4b855a",
    ),
}

# c10 with one symbol per frame: 8 coordinates per frame, so 3 frames per
# round, the last one padded.  Each device draws its batch and then every
# frame's randomization symbols from one generator per (round, device).
C10_MULTI_FRAME_DIGESTS = (
    "cae6b71c18555067738d65d495176b953e54cef4530fd4e32bad96d88724c0ba",
    "d740cbbd466015fd84de104e8f6a48cb8d960fb2839f509b4294c8e9d7152968",
)

# c10 with the tanh MLP at 4 hidden units: 6*4 + 4 + 4*3 + 3 = 43 parameters,
# so two 32-coordinate frames per round, the second one padded.  Pins the
# MLP's weight layout, initial draws and gradient bytes.
C10_MLP_DIGESTS = (
    "530668e3f8f8647a695f226188e5db81c0083a804fee27efedefa9844f96e084",
    "db6993225c553ce9316ee53ce0c0112993836c6727edbf00125f8b953542ac9d",
)

# The Monte Carlo pins below are taken under one generator per device and one
# per oracle frame, spawned from the point's seed.

# perfbench's TINY_MC grid: (devices, snr, flip_prob) -> estimate at 1000
# trials with the seed the benchmark derives for the point.
TINY_MC_ESTIMATES = {
    (5, 2.0, 0.2): 0.248,
    (15, 2.0, 0.2): 0.2,
}

# mean-energy suite points: (devices, mean_tx_power, noise_var) -> estimate at
# 2000 trials (two frames, the second partial) with the suite's seed for the
# point.  Pinned with equal per-device powers and no power draw; a change of
# the draw order moves these by far more than the tolerance.
TINY_MEAN_ENERGY = {
    (2, 1.0, 0.1): 4.280048307581935,
    (5, 1.5, 1.0): 15.466224277169724,
    (31, 3.0, 0.1): 177.53648015548248,
}
MEAN_ENERGY_REL_TOL = 1e-9  # float rounding only

# `airvote mc-verify --suite S --trials 3000 --seed 2`: (exit code, sha256 of
# stdout) per suite.  The error-prob suite fails by design at q >= 0.2, the
# mean-energy suite's 2% bound is too tight for 3000 trials.
MC_VERIFY_DIGESTS = {
    "mean-energy": (1, "e5c723fb9792c7bd5ee8c356e0cb5da6178731bc2717847555bd121f723d5916"),
    "flip-prob": (0, "4ce9e96a3bdb0a34738792bce116da55d3b5fc0786fbeaa2b9e8cd798ee1be21"),
    "error-prob": (1, "de4710caa0ff43d17fec8b8d444e2caad01588fb7193e28e209817d6cc5724a0"),
}


@pytest.mark.parametrize("scheme", sorted(C10_DIGESTS))
def test_c10_outputs_match_golden_digests(tmp_path, scheme):
    assert _train_digests(tmp_path, scheme=scheme, **C10) == C10_DIGESTS[scheme]


def test_multi_frame_outputs_match_golden_digests(tmp_path):
    values = dict(C10, scheme="fsk_mv_dpc")
    values["phy.symbols"] = 1
    assert _train_digests(tmp_path, **values) == C10_MULTI_FRAME_DIGESTS


def test_mlp_outputs_match_golden_digests(tmp_path):
    values = dict(C10, scheme="fsk_mv_dpc", model="mlp", hidden_units=4)
    assert _train_digests(tmp_path, **values) == C10_MLP_DIGESTS


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


@pytest.mark.parametrize("suite", sorted(MC_VERIFY_DIGESTS))
def test_mc_verify_output_matches_golden_digest(capsys, suite):
    code = cli_main(["mc-verify", "--suite", suite, "--trials", "3000", "--seed", "2"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == MC_VERIFY_DIGESTS[suite]
