import numpy as np
import pytest


class LowEndGenerator:
    """Stand-in for a numpy Generator whose uniform draws all return the low
    end of the range and whose normal draws all return 0: a randomization
    phase of 0 (symbol 1) in encode_signs, a timing offset of 0 in
    sample_channel, and noise of 0 in superpose (which at noise_var 0 is
    scaled by 0 anyway).  It fits only where no other draw matters: no
    fading, since zero gains would silence every device."""

    def uniform(self, low, high, size):
        return np.full(size, float(low))

    def standard_normal(self, size):
        return np.zeros(size)


@pytest.fixture
def low_rng():
    return LowEndGenerator()
