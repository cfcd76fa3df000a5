"""Non-coherent vote detection: compare accumulated bin energies.

The server never equalizes the channel.  For each coordinate it reads the
energy on the two paired bins and votes for whichever side collected more;
phase information is discarded, so fading and timing rotations cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sign_votes(negative) -> np.ndarray:
    """int8 votes: -1 where `negative` is true, +1 elsewhere; built in a copy of `negative`."""
    votes = np.array(negative, dtype=np.int8)
    votes *= -2
    votes += 1
    return votes


@dataclass
class DetectionResult:
    e_plus: np.ndarray
    e_minus: np.ndarray
    votes: np.ndarray


def detect(received: np.ndarray) -> DetectionResult:
    """Energies re*re + im*im (np.abs rounds by SIMD level) of the paired bins of every
    coordinate and the vote they give: +1 where e_plus > e_minus, -1 where smaller, +1 on
    an exact tie.  Received bins (..., 2, coordinates), plus bins before minus bins as
    `channel.superpose` stacks them, give (..., coordinates) arrays."""
    received = np.asarray(received)
    if received.ndim < 2 or received.shape[-2] != 2:
        raise ValueError(f"received bins of shape {received.shape}; expected (..., 2, coordinates)")
    energies = received.real * received.real + received.imag * received.imag
    e_plus, e_minus = energies[..., 0, :], energies[..., 1, :]
    return DetectionResult(e_plus, e_minus, sign_votes(e_plus < e_minus))


def ideal_majority_vote(reports) -> np.ndarray:
    """Coordinate-wise sign of the summed reports; even splits go to +1."""
    reports = np.atleast_2d(np.asarray(reports))
    if reports.shape[0] < 1:
        raise ValueError("need at least one report")
    return sign_votes(reports.sum(axis=0) < 0)
