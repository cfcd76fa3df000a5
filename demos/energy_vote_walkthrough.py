"""Walk one gradient-sign vote through the over-the-air pipeline.

Five devices each hold a sign vector for eight model coordinates.  Every
coordinate owns a pair of adjacent subcarriers: a +1 vote puts energy on
the even bin, a -1 vote on the odd bin.  The devices transmit at the same
time over independent Rayleigh channels; the server compares accumulated
bin energies and never looks at phases.

Run:  python3 demos/energy_vote_walkthrough.py
"""

import numpy as np

from airvote import (
    ChannelConfig,
    detect,
    encode_signs,
    ideal_majority_vote,
    lit_subcarriers,
    mean_power,
    sample_channel,
    signed_agreement,
    superpose,
    update_power,
)

DEVICES = 5
COORDS = 8
SUBCARRIERS = 16  # one symbol holds all eight coordinate pairs

rng = np.random.default_rng(7)
signs = rng.choice([-1, 1], size=(DEVICES, COORDS))
ideal = ideal_majority_vote(signs)

print("device sign reports (rows = devices, cols = coordinates):")
print(signs)
print("\nperfect majority vote:", ideal)

# --- encode ---------------------------------------------------------------
# one frame is sent: signs stacked as (frames, devices, coordinates), and one
# generator per device for its randomization symbols
frame_signs = signs[None]
exponents = encode_signs(frame_signs, [np.random.default_rng((1, m)) for m in range(DEVICES)])
print("\noccupied bins per device (X = energy on the bin):")
for m in range(DEVICES):
    lit = lit_subcarriers(signs[m], SUBCARRIERS)
    row = "".join("X" if l in lit else "." for l in range(SUBCARRIERS))
    print(f"  device {m}: {row}")
print("  (each coordinate pair holds exactly one X; amplitude is sqrt(2) on a random phase)")

# --- channel --------------------------------------------------------------
config = ChannelConfig(noise_var=0.5, sync_error_max=0.25, fft_size=16)
# one generator for the frame: the lit bins' fading gains and timing offsets,
# then the noise on the coordinates' bins, added to the sum over devices
frame_rngs = [np.random.default_rng(2)]
faded = sample_channel(frame_signs, exponents, SUBCARRIERS, config, frame_rngs)
received = superpose(frame_signs, faded, np.ones(DEVICES), config, frame_rngs)[0]

# --- detect ---------------------------------------------------------------
result = detect(received)
delta = result.e_plus - result.e_minus
print("\nper-coordinate energies at the server:")
print(f"  {'coord':>5} {'e_plus':>8} {'e_minus':>8} {'delta':>8}  vote  ideal")
for i in range(COORDS):
    mark = "" if result.votes[i] == ideal[i] else "  <- flipped by the channel"
    print(
        f"  {i:>5} {result.e_plus[i]:8.3f} {result.e_minus[i]:8.3f} "
        f"{delta[i]:+8.3f}  {result.votes[i]:+d}    {ideal[i]:+d}{mark}"
    )
agreement = np.mean(result.votes == ideal)
print(f"\nvote agreement with the perfect majority vote: {agreement:.0%}")
print("timing offsets only rotate phases, so they never touch the energies above")

# --- power control ---------------------------------------------------------
powers = np.ones(DEVICES)  # every device starts at unit transmit power
print("\nsigned per-device agreement with the detected vote:", np.round(signed_agreement(signs, result.votes), 3))
powers = update_power(powers, signs, result.votes)
print("powers after one update (grow by |signed agreement|):", np.round(powers, 3))
print(f"mean transmit power: {mean_power(powers):.3f}")
