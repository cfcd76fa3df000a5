"""Non-coherent vote detection: compare accumulated bin energies.

The server never equalizes the channel.  For each coordinate it reads the
energy on the two paired bins and votes for whichever side collected more;
phase information is discarded, so fading and timing rotations cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import SubcarrierMap


@dataclass
class DetectionResult:
    e_plus: np.ndarray
    e_minus: np.ndarray
    delta: np.ndarray
    votes: np.ndarray


def measure_energies(received: np.ndarray, mapping: SubcarrierMap) -> tuple[np.ndarray, np.ndarray]:
    """Squared magnitudes of the paired bins of every coordinate; received
    frames (..., symbols, subcarriers) give energies (..., coordinates)."""
    received = np.asarray(received)
    if received.ndim < 2:
        raise ValueError("received frames must be at least 2-D (symbols x subcarriers)")
    num_symbols, num_subcarriers = received.shape[-2:]
    if mapping.num_symbols > num_symbols or mapping.num_subcarriers > num_subcarriers:
        raise ValueError(
            f"map addresses a {mapping.num_symbols} x {mapping.num_subcarriers} grid "
            f"but the frame is {num_symbols} x {num_subcarriers}"
        )
    e_plus = np.abs(received[..., mapping.sym_plus, mapping.sub_plus]) ** 2
    e_minus = np.abs(received[..., mapping.sym_minus, mapping.sub_minus]) ** 2
    return e_plus, e_minus


def detect_votes(e_plus: np.ndarray, e_minus: np.ndarray) -> np.ndarray:
    """+1 where e_plus > e_minus, -1 where smaller, +1 on an exact tie."""
    e_plus = np.asarray(e_plus)
    e_minus = np.asarray(e_minus)
    if e_plus.shape != e_minus.shape:
        raise ValueError("energy vectors must have equal length")
    return np.where(e_plus < e_minus, -1, 1).astype(np.int8)


def detect(received: np.ndarray, mapping: SubcarrierMap) -> DetectionResult:
    e_plus, e_minus = measure_energies(received, mapping)
    return DetectionResult(e_plus, e_minus, e_plus - e_minus, detect_votes(e_plus, e_minus))


def ideal_majority_vote(reports) -> np.ndarray:
    """Coordinate-wise sign of the summed reports; even splits go to +1."""
    reports = np.atleast_2d(np.asarray(reports))
    if reports.shape[0] < 1:
        raise ValueError("need at least one report")
    totals = reports.sum(axis=0)
    return np.where(totals < 0, -1, 1).astype(np.int8)
