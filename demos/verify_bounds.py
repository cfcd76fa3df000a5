"""Monte Carlo verification of the closed-form expressions.

Three suites, each driving the production pipeline against a formula:

  1. mean received bin energy vs. SYMBOL_ENERGY * voters * power + noise
  2. single-device sign-flip frequency vs. the unimodal tail bound
  3. majority-vote detection error vs. its comparison expressions

Suite 3 is the interesting one: the simulated error matches the exact
closed form (K*q + 1/snr)/(K + 2/snr) everywhere, while the attenuated
target (K*q*(1-q) + 1/snr)/(K + 2/snr) is only an upper bound for small
flip rates -- the printed gap makes the mismatch easy to see.

Run:  python3 demos/verify_bounds.py  [--trials N]
"""

import argparse

from airvote.analysis import (
    run_error_prob_suite,
    run_flip_prob_suite,
    run_mean_energy_suite,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"=== mean received bin energy ({args.trials} trials per point) ===")
    rows = run_mean_energy_suite(trials=args.trials, seed=args.seed)
    worst = max(rows, key=lambda r: r["rel_err"])
    print(f"{sum(r['passed'] for r in rows)}/{len(rows)} points within 2% relative error")
    print(
        f"worst point: {worst['active_devices']} voters, power {worst['mean_tx_power']}, "
        f"noise {worst['noise_var']}: predicted {worst['predicted']:.3f}, "
        f"estimated {worst['estimate']:.3f} ({worst['rel_err']:.2%})"
    )

    print(f"\n=== single-device sign flips ({args.trials} draws per point) ===")
    print(f"{'grad_snr':>9} {'estimate':>9} {'bound':>9}  status")
    for r in run_flip_prob_suite(trials=args.trials, seed=args.seed):
        print(
            f"{r['grad_snr']:>9.3f} {r['estimate']:>9.5f} {r['bound']:>9.5f}  "
            f"{'ok' if r['passed'] else 'EXCEEDED'}"
        )

    print(f"\n=== majority-vote detection error ({args.trials} trials per point) ===")
    print(f"{'K':>3} {'snr':>5} {'flip':>5} {'estimate':>9} {'exact':>8} {'target':>8}  vs target")
    for r in run_error_prob_suite(trials=args.trials, seed=args.seed):
        gap = r["estimate"] - r["target"]
        print(
            f"{r['num_devices']:>3} {r['snr']:>5.1f} {r['flip_prob']:>5.2f} "
            f"{r['estimate']:>9.4f} {r['exact']:>8.4f} {r['target']:>8.4f}  "
            f"{'below' if r['passed'] else f'above by {gap:.3f}'}"
        )
    print(
        "\nthe estimates track the `exact` column; the attenuated target is beaten\n"
        "only while K*q^2/(K + 2/snr) stays inside Monte Carlo noise (q = 0.05 here)"
    )


if __name__ == "__main__":
    main()
