import math

import numpy as np

from mixsmooth.corpus import corpus_entries, get_function
from mixsmooth.domain import Box, sample_on_grid
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


def _old_formulas():
    """Every entry that an in-place kernel builds (the Holder, kink and
    spline entries, at every dimension), by name, as its formula was
    written before the corpus evaluated in place."""

    def quad_kink(u, c):
        s = u - c
        return s * np.abs(s)

    def holder(alpha, centers):
        def f(X):
            out = np.ones(X.shape[:-1])
            for i, c in enumerate(centers):
                out = out * np.abs(X[..., i] - c) ** alpha
            return out

        return f

    def spline_prod(dim):
        def f(X):
            out = np.ones(X.shape[:-1])
            for i in range(dim):
                out = out * quad_kink(X[..., i], 0.5)
            return out

        return f

    return dict(
        abs_kink_1d=lambda X: np.abs(X[..., 0] - 0.5),
        holder_half_1d=holder(0.5, (0.37,)),
        holder_half_2d=holder(0.5, (0.37, 0.61)),
        holder_one_2d=holder(1.0, (0.37, 0.61)),
        holder_threehalf_2d=holder(1.5, (0.37, 0.61)),
        spline_prod_1d=spline_prod(1),
        spline_prod_2d=spline_prod(2),
        spline_taper_2d=lambda X: quad_kink(X[..., 0], 0.5) * (1.0 + 0.5 * X[..., 1]),
    )


def _read_only(X):
    X = np.array(X)
    X.flags.writeable = False
    return X


def _inputs(dim):
    """Read-only points in dimension ``dim``: the engine's (offsets, points,
    d) transposed view, with signed zeros, the kinks and the Holder centers
    among the coordinates; a ``sample_on_grid`` grid; and one point."""
    rng = np.random.default_rng(11)
    coords = np.concatenate(
        [rng.uniform(-0.5, 1.5, 4090), [0.0, -0.0, 0.5, 0.37, 0.61, 1.0]]
    )
    view = rng.permutation(np.resize(coords, dim * 2 * 4096))
    view = view.reshape(dim, 2, 4096).transpose(1, 2, 0)
    view.flags.writeable = False
    grid = sample_on_grid(lambda X: X[..., 0], Box.cube(0.0, 0.5, dim), 16).midpoints()
    return view, _read_only(grid), _read_only(grid[(3,) * dim])


def test_every_in_place_entry_is_its_old_formula_bit_for_bit():
    old = _old_formulas()
    kernels = corpus_entries(tag="holder-singular") + corpus_entries(tag="finitely-smooth")
    assert sorted(old) == sorted(e.name for e in kernels)
    for e in kernels:
        box = Box.cube(0.0, 0.5, e.dim)
        for X in _inputs(e.dim):
            got, want = e(X), old[e.name](np.array(X))
            assert X.ndim > 1 or isinstance(got, float)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), e.name
        got = sample_on_grid(e.f, box, 16).values
        assert got.tobytes() == sample_on_grid(old[e.name], box, 16).values.tobytes(), e.name


def test_no_entry_writes_into_its_input():
    # every entry, and every derivative order up to 3 per axis, runs on
    # read-only inputs: numpy raises on any write into them
    for e in corpus_entries():
        fs = [e.f]
        if e.has_derivatives:
            fs += [e.derivative(s) for s in np.ndindex(*(4,) * e.dim)]
        for f in fs:
            for X in _inputs(e.dim):
                f(X)
