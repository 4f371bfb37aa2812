import math

import numpy as np

from mixsmooth.corpus import corpus_entries, get_function
from mixsmooth.polyapprox import TensorPolynomial


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


def test_every_entry_gives_the_same_bytes_on_a_coordinate_major_view():
    # the difference engine hands f a transposed view of a (d, offsets,
    # points) buffer; its fields are bit-identical only if f is blind to that
    rng = np.random.default_rng(5)
    entries = [(e.name, e, e.dim) for e in corpus_entries()]
    entries += [(f"random polynomial {deg}", TensorPolynomial.random(deg, rng), len(deg))
                for deg in ((5,), (3, 4), (2, 3, 2))]
    for name, f, dim in entries:
        X = rng.uniform(0.0, 1.0, (dim, 3, 1000)).transpose(1, 2, 0)
        assert X.flags.c_contiguous == (dim == 1)
        got = f(X)
        want = f(np.ascontiguousarray(X))
        assert got.shape == (3, 1000), name
        assert got.tobytes() == want.tobytes(), name
