import math

import numpy as np

from mixsmooth.corpus import get_function


def _plane_cosine(s):
    """The closed form cos_ripple_2d had before it became a one-term sum."""
    freqs, phase = (1.0, 2.0), 0.3
    amp = 1.0
    for i in range(2):
        amp *= (2.0 * math.pi * freqs[i]) ** s[i]
    shift = sum(s) * math.pi / 2.0

    def g(X):
        theta = 2.0 * math.pi * sum(freqs[i] * X[..., i] for i in range(2))
        return amp * np.cos(theta + phase + shift)

    return g


def test_cos_ripple_is_the_plane_cosine_bit_for_bit():
    fn = get_function("cos_ripple_2d")
    assert fn.tag == "analytic"
    assert fn.description == "plane cosine wave with frequency vector (1.0, 2.0)"
    X = np.random.default_rng(0).uniform(-1.0, 2.0, (2000, 2))
    assert np.array_equal(fn(X), _plane_cosine((0, 0))(X))
    for s in np.ndindex(3, 3):
        assert np.array_equal(fn.derivative(s)(X), _plane_cosine(s)(X))
