import numpy as np
import pytest


class LowEndGenerator:
    """Stand-in for a numpy Generator whose uniform draws all return the low
    end of the range: a randomization phase of 0 (symbol 1) in encode_signs
    and a timing offset of 0 in sample_channel.  It has no other draws, so
    it fits only where nothing else is drawn (no fading, no noise)."""

    def uniform(self, low, high, size):
        return np.full(size, float(low))


@pytest.fixture
def low_rng():
    return LowEndGenerator()
