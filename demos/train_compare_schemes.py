"""Train the same federated task under every aggregation scheme.

31 devices learn a 10-class linear classifier from sign votes only.  The
ideal scheme assumes a perfect uplink, the float-averaging baseline skips
quantization entirely, and the two AirComp schemes push the votes through
Rayleigh fading, noise, and timing offsets of up to a quarter FFT sample;
one of them additionally raises transmit power for devices that keep
agreeing with the broadcast vote.

Run:  python3 demos/train_compare_schemes.py  [--rounds N] [--csv PATH]
"""

import argparse
import csv
from pathlib import Path

from airvote.channel import ChannelConfig
from airvote.experiment import SCHEMES, DatasetSpec, ExperimentConfig, _replacing, run_rounds
from airvote.learner import TrainingConfig
from airvote.phy import PhyConfig


def build_config(scheme, rounds, seed):
    return ExperimentConfig(
        scheme=scheme,
        training=TrainingConfig(
            learning_rate=0.004, batch_size=128, rounds=rounds, num_devices=31
        ),
        channel=ChannelConfig(noise_var=0.5, sync_error_max=0.25),
        phy=PhyConfig(num_subcarriers=64, num_symbols=13),
        dataset=DatasetSpec(samples=6_000, test_samples=1_500, input_dim=40, classes=10,
                            separation=3.0),
        eval_every=max(1, rounds // 8),
        master_seed=seed,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default="scheme_comparison.csv")
    args = parser.parse_args()

    curves = {}
    for scheme in SCHEMES:
        metrics, state = run_rounds(build_config(scheme, args.rounds, args.seed))
        curves[scheme] = metrics
        final = metrics[-1]
        power = f"mean power {final.mean_power:6.2f}" if scheme == "fsk_mv_dpc" else " " * 16
        agreement = (
            f"vote agreement {final.vote_agreement:.2%}"
            if final.vote_agreement is not None
            else "no votes (float averaging)"
        )
        print(
            f"{scheme:18s} final accuracy {final.test_accuracy:.4f}  "
            f"loss {final.test_loss:.4f}  {power}  {agreement}"
        )

    print(f"\naccuracy by round (seed {args.seed}):")
    rounds_axis = [m.round for m in curves[SCHEMES[0]]]
    header = "round " + "".join(f"{s:>20s}" for s in SCHEMES)
    print(header)
    for i, r in enumerate(rounds_axis):
        row = f"{r:>5d} " + "".join(f"{curves[s][i].test_accuracy:>20.4f}" for s in SCHEMES)
        print(row)

    with _replacing(Path(args.csv)) as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "scheme", "accuracy"])
        for scheme in SCHEMES:
            for m in curves[scheme]:
                writer.writerow([m.round, scheme, m.test_accuracy])
    print(f"\nwrote tidy curves to {args.csv}")


if __name__ == "__main__":
    main()
