"""Sign-vote federated learning over a non-coherent OFDM uplink.

Devices report only gradient signs, encoded as energy on paired
subcarriers; the server tallies votes by comparing accumulated bin
energies, without channel state information.  The package pairs the
simulator with closed-form performance bounds and the Monte Carlo
machinery that checks them.
"""
