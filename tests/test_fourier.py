"""Spectral utility layer: differentiation, interpolation, antiderivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkerlab import fourier
from shrinkerlab.curvegeo import circle
from shrinkerlab.gauge import reconstruct


def f(t):
    return np.sin(t) + 0.5 * np.cos(3 * t) - 0.2 * np.sin(7 * t)


def fp(t):
    return np.cos(t) - 1.5 * np.sin(3 * t) - 1.4 * np.cos(7 * t)


def fpp(t):
    return -np.sin(t) - 4.5 * np.cos(3 * t) + 9.8 * np.sin(7 * t)


def test_deriv_exact_on_band_limited():
    t = fourier.grid(64)
    assert np.allclose(fourier.deriv(f(t), 1), fp(t), atol=1e-12)
    assert np.allclose(fourier.deriv(f(t), 2), fpp(t), atol=1e-11)


def test_deriv12_matches_separate_calls():
    t = fourier.grid(128)
    vals = np.column_stack([f(t), np.cos(2 * t)])
    d1, d2 = fourier.deriv12(vals)
    assert np.allclose(d1, fourier.deriv(vals, 1), atol=1e-13)
    assert np.allclose(d2, fourier.deriv(vals, 2), atol=1e-13)
    d1s, d2s = fourier.deriv12(f(t))
    assert np.allclose(d1s, fp(t), atol=1e-12)
    assert np.allclose(d2s, fpp(t), atol=1e-11)


def test_staggered_deriv_band_limited():
    # staggered first derivative: values at t_j + pi/m
    m = 64
    t = fourier.grid(m)
    half = np.pi / m
    assert np.allclose(fourier.staggered_deriv(f(t)), fp(t + half), atol=1e-12)
    assert np.allclose(fourier.staggered_interp(f(t)), f(t + half), atol=1e-12)


def test_staggered_nyquist_is_real_and_exact():
    # the Nyquist sawtooth (-1)^j has staggered derivative -m/2 * sin at half grid
    m = 32
    saw = np.cos((m // 2) * fourier.grid(m))  # = (-1)^j
    d = fourier.staggered_deriv(saw)
    t_half = fourier.grid(m) + np.pi / m
    assert np.allclose(d, -(m // 2) * np.sin((m // 2) * t_half), atol=1e-12)


def test_trig_eval_values_and_derivatives():
    m = 64
    t = fourier.grid(m)
    coef = fourier.coeffs(f(t))
    pts = np.array([0.0, 0.37, 1.0, np.pi, 5.5])
    assert np.allclose(fourier.trig_eval(coef, m, pts), f(pts), atol=1e-12)
    assert np.allclose(fourier.trig_eval(coef, m, pts, order=1), fp(pts), atol=1e-11)
    # grid reproduction
    assert np.allclose(fourier.trig_eval(coef, m, t), f(t), atol=1e-12)


def test_trig_eval_vector_valued():
    m = 32
    t = fourier.grid(m)
    vals = np.column_stack([np.cos(t), np.sin(2 * t)])
    coef = fourier.coeffs(vals)
    pts = np.array([0.1, 2.2])
    out = fourier.trig_eval(coef, m, pts)
    assert out.shape == (2, 2)
    assert np.allclose(out, np.column_stack([np.cos(pts), np.sin(2 * pts)]), atol=1e-13)


def dense_basis_eval(coef, m, thetas, order=0):
    """Oracle: the dense evaluator the Taylor table replaced, an (n, m/2+1)
    basis of exp(i k theta) built by cumulative products and summed against
    the weighted coefficients (Nyquist weight 1, the others 2)."""
    n = m // 2 + 1
    basis = np.empty((thetas.shape[0], n), dtype=complex)
    basis[:, 0] = 1.0
    z = np.exp(1j * thetas)
    np.cumprod(np.broadcast_to(z[:, None], (thetas.shape[0], n - 1)),
               axis=1, out=basis[:, 1:])
    k = np.arange(n, dtype=float)
    w = np.full(n, 2.0)
    w[0] = w[-1] = 1.0
    mult = w * (1j * k) ** order
    if coef.ndim == 2:
        mult = mult[:, None]
    return (basis @ (mult * coef)).real / m


@pytest.mark.parametrize("m", [64, 256, 2048])
@pytest.mark.parametrize("kind", ["scalar", "pair", "nyquist"])
def test_trig_eval_matches_dense_basis(m, kind):
    rng = np.random.default_rng(m)
    samples = {"scalar": lambda: rng.standard_normal(m),
               "pair": lambda: rng.standard_normal((m, 2)),
               "nyquist": lambda: np.cos((m // 2) * fourier.grid(m))}[kind]()
    coef = fourier.coeffs(samples)
    # points in [-2 pi, 4 pi), and half-way between nodes inside and just
    # outside [0, 2 pi)
    h = 2.0 * np.pi / m
    halves = (np.arange(0, m, max(1, m // 64)) + 0.5) * h
    thetas = np.concatenate([rng.uniform(-2.0 * np.pi, 4.0 * np.pi, 200),
                             halves, [-0.5 * h, 2.0 * np.pi + 0.5 * h]])
    for order in range(3):
        got = fourier.trig_eval(coef, m, thetas, order=order)
        want = dense_basis_eval(coef, m, thetas, order)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    value, der = fourier.trig_eval_pair(coef, m, thetas)
    for got, order in ((value, 0), (der, 1)):
        want = dense_basis_eval(coef, m, thetas, order)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # one prepared table per order gives the fronts' results bit for bit
    for order in range(3):
        prepared = fourier.Interpolant(coef, m, order)
        got = prepared(thetas)
        assert len(got) == order + 1
        assert np.array_equal(got[order],
                              fourier.trig_eval(coef, m, thetas, order=order))
        assert np.array_equal(prepared(thetas[::-1])[order], got[order][::-1])
    pair = fourier.Interpolant(coef, m, 1)(thetas)
    for got, want in zip(pair, fourier.trig_eval_pair(coef, m, thetas)):
        assert np.array_equal(got, want)


def fmod_split(thetas, m):
    """The nearest-node split by fmod: theta = n h + r with r = fmod(theta,
    h), the oracle `_nearest_node` matches bit for bit."""
    h = 2.0 * np.pi / m
    r = np.fmod(thetas, h)
    n = np.rint((thetas - r) / h)
    x = (r - n * fourier._spacing(m)[3]) / h
    near = np.rint(x)
    return (n + near).astype(np.intp) % m, x - near


def horner_on_nodes_first(coef, m, order, degree, thetas):
    """The evaluator on a (rows, m, d) Taylor table, each Horner step
    broadcasting the offsets over the trailing axis of length d, its
    Taylor columns gathered by fancy indexing at the fmod split."""
    cols = coef.reshape(coef.shape[0], -1)
    mult = fourier._taylor_multipliers(m)[0][:degree + order + 1]
    table = np.fft.irfft(mult[:, :, None] * cols, n=m, axis=1)
    j, x = fmod_split(thetas, m)
    near = table[:, j]
    x = x[:, None]
    acc = np.zeros((order + 1,) + near.shape[1:])
    acc[0] = near[-1]
    for row in near[-2::-1]:
        nxt = acc * x
        nxt[0] += row
        nxt[1:] += acc[:-1]
        acc = nxt
    h = 2.0 * np.pi / m
    shape = thetas.shape + coef.shape[1:]
    return [(o * (math.factorial(r) / h ** r) if r else o).reshape(shape)
            for r, o in enumerate(acc)]


@pytest.mark.parametrize("m", [16, 256, 2048])
@pytest.mark.parametrize("pair", [False, True])
def test_interpolant_matches_a_node_first_table_bit_for_bit(m, pair):
    # the table keeps its nodes on the last axis, so each Horner step runs
    # along the parameters; every product and sum is the one a (rows, m, d)
    # table takes
    rng = np.random.default_rng(m + pair)
    t = fourier.grid(m)
    if pair:
        r = 1.0 + 0.05 * np.cos(3 * t)
        samples = np.column_stack([r * np.cos(t), r * np.sin(t)])
    else:
        samples = np.exp(np.sin(t))
    samples = samples + 1e-6 * rng.standard_normal(samples.shape)
    coef = fourier.coeffs(samples)
    # Newton-like points beside the nodes, the nodes, far points
    h = 2.0 * np.pi / m
    thetas = np.concatenate([t + 0.3 * h * np.sin(7 * t), t, -t,
                             rng.uniform(-1e4, 1e4, 300),
                             [-1e7 - 0.3, 3e8 + 0.1, -2.0 * np.pi, 1e-300]])
    for order in range(3):
        prepared = fourier.Interpolant(coef, m, order)
        want = horner_on_nodes_first(coef, m, order, prepared.degree, thetas)
        # finite points raise nothing but the underflow of the Horner
        # products at theta = 1e-300, whose offset is ~1e-298
        with np.errstate(all="raise", under="ignore"):
            got = prepared(thetas)
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert g.shape == w.shape == thetas.shape + coef.shape[1:]
            assert np.array_equal(g, w)


@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("pair", [False, True])
def test_stacked_interpolant_rows_equal_each_set_alone(m, pair):
    # three sets whose Taylor degrees differ: a circle, a resolved curve
    # with a faint high mode, and white noise; the stack holds the rows of
    # the largest degree, zero above each frame's own, and each frame's
    # results are those of its own table bit for bit, at every frame or at
    # a subset in any order, near the nodes and far from them
    rng = np.random.default_rng(m + pair)
    t = fourier.grid(m)
    r = 1.0 + 0.05 * np.cos(3 * t)
    sets = [np.column_stack([np.cos(t), np.sin(t)]),
            np.column_stack([r * np.cos(t), r * np.sin(t)])
            + 1e-9 * np.cos((m // 4) * t)[:, None],
            rng.standard_normal((m, 2))]
    if not pair:
        sets = [s[:, 0] for s in sets]
    coef = np.stack([fourier.coeffs(s) for s in sets])
    h = 2.0 * np.pi / m
    thetas = np.stack([t + 0.4 * h * np.sin(5 * t + f) for f in range(3)])
    thetas[:, ::7] = rng.uniform(-1e4, 1e4, thetas[:, ::7].shape)
    for order in range(3):
        alone = [fourier.Interpolant(c, m, order) for c in coef]
        degrees = [a.degree for a in alone]
        assert len(set(degrees)) == 3
        stack = fourier.Interpolant(coef, m, order, stacked=True)
        assert stack.degree == max(degrees)
        for frames in (None, np.array([2, 0]), np.array([1])):
            rows = np.arange(3) if frames is None else frames
            got = stack(thetas[rows], frames)
            assert len(got) == order + 1
            for i, f in enumerate(rows):
                for g, w in zip(got, alone[f](thetas[f])):
                    assert g.shape == thetas[rows].shape + coef.shape[2:]
                    assert np.array_equal(g[i], w)


def assert_split_matches_fmod(thetas, m):
    with np.errstate(invalid="ignore"):  # fmod and the cast at nan, inf
        j, x = fourier._nearest_node(thetas, m)
        want_j, want_x = fmod_split(thetas, m)
    assert np.array_equal(j, want_j)
    assert np.array_equal(x, want_x, equal_nan=True)
    assert np.array_equal(np.signbit(x), np.signbit(want_x))


#: h = pi 2^(1-k) at m = 2^k has pi's significand, with zeros just past
#: the 27-bit cut of `_spacing`, where a wider cut splits alike; at
#: m = 1000 the cut's width shows
SPLIT_MS = [16, 64, 512, 1000, 2048, 8192]


@pytest.mark.parametrize("m", SPLIT_MS)
def test_nearest_node_matches_the_fmod_split(m):
    # nodes and their neighbours one float away on either side, out to and
    # past 2^26 h, where the two-part split hands theta to fmod
    rng = np.random.default_rng(m)
    h = 2.0 * np.pi / m
    k = np.concatenate([np.arange(-3 * m, 3 * m), np.arange(-8, 9) + 2 ** 26,
                        rng.integers(-2 ** 27, 2 ** 27, 4000)]).astype(float)
    nodes = np.concatenate([k * h, (k + 0.5) * h, fourier.grid(m)])
    thetas = np.concatenate([
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        rng.uniform(-1e4, 1e4, 2000),
        rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300, 15, 2000),
        [0.0, -0.0, 1e15, -1e15, 2.0 ** 26 * h, -2.0 ** 26 * h,
         np.nextafter(2.0 ** 26 * h, 0.0), np.nan, np.inf, -np.inf]])
    assert_split_matches_fmod(thetas, m)
    assert_split_matches_fmod(-thetas, m)
    # a point and its negative a call, so that no nan, far or rounded-up
    # point elsewhere decides which checks of the split the call takes
    for theta in rng.choice(thetas, 400):
        assert_split_matches_fmod(np.array([theta, -theta]), m)
    # finite input raises nothing, in reach of the two-part split or not;
    # below the least normal float, theta/h underflows in either split
    size = np.abs(thetas)
    normal = (size == 0.0) | (size >= np.finfo(float).tiny) & (size < np.inf)
    with np.errstate(all="raise"):
        fourier._nearest_node(thetas[normal], m)
        fourier._nearest_node(thetas[normal & (size < 2.0 ** 26 * h)], m)


@settings(max_examples=200, deadline=1000, derandomize=True)
@given(m=st.sampled_from(SPLIT_MS),
       thetas=st.lists(st.floats(-1e15, 1e15) | st.floats(-2e9, 2e9),
                       min_size=1, max_size=64))
def test_nearest_node_matches_the_fmod_split_anywhere(m, thetas):
    assert_split_matches_fmod(np.array(thetas), m)


@pytest.mark.parametrize("m", SPLIT_MS)
def test_nearest_node_wraps_the_index_only_where_it_must(m):
    # the split takes j modulo m only when an index leaves [0, m): theta
    # within half a node below 2 pi (nearest node m), negative theta and
    # theta beyond 2^26 h; alone or beside points whose nodes need no
    # wrap, every j is the fmod split's j modulo m
    h = 2.0 * np.pi / m
    inside = fourier.grid(m) + 0.25 * h
    assert np.array_equal(fourier._nearest_node(inside, m)[0], np.arange(m))
    wrapped = [np.nextafter(2.0 * np.pi, 0.0), 2.0 * np.pi - 0.25 * h,
               -0.75 * h, -np.pi, -1e3, 3.0 * 2.0 ** 26 * h + 0.1, 1e12]
    for theta in wrapped:
        for thetas in (np.array([theta]), np.append(inside, theta)):
            assert_split_matches_fmod(thetas, m)
            j = fourier._nearest_node(thetas, m)[0]
            assert 0 <= j.min() and j.max() < m
    assert fourier._nearest_node(np.array(wrapped[:2]), m)[0].tolist() == [0, 0]
    assert fourier._nearest_node(np.array([-0.75 * h]), m)[0][0] == m - 1


@pytest.mark.parametrize("m", [16, 64, 256, 2048])
def test_mode_sum_matches_the_interpolant(m):
    # a resolved curve, white-noise samples (d = 2 and d = 1) and the
    # Nyquist cosine, stacked as frames; each point evaluates one of them
    rng = np.random.default_rng(m)
    t = fourier.grid(m)
    r = 1.0 + 0.05 * np.cos(3 * t)
    frames = [np.column_stack([r * np.cos(t), r * np.sin(t)]),
              rng.standard_normal((m, 2)),
              np.column_stack([np.cos((m // 2) * t), np.sin(t)])]
    h = 2.0 * np.pi / m
    # points out to and beyond 2^26 h, where `_nearest_node` splits by fmod
    far = 2.0 ** 26 * h
    thetas = np.concatenate([rng.uniform(-1e4, 1e4, 200),
                             (np.arange(m) + 0.5) * h, [-0.5 * h, 1e-300],
                             [1e9, -1e9, far + h, far - h, -far - h]])
    rows = rng.integers(0, len(frames), thetas.size)
    coef = np.stack([fourier.coeffs(f).T for f in frames])
    for order in range(3):
        got = fourier.mode_sum(coef, m, rows, thetas, order)
        assert len(got) == order + 1
        for frame, samples in enumerate(frames):
            at = rows == frame
            want = fourier.Interpolant(fourier.coeffs(samples), m,
                                       order)(thetas[at])
            for g, w in zip(got, want):
                assert g[at].shape == w.shape
                assert np.abs(g[at] - w).max() <= 1e-14 * np.abs(w).max()
    noise = fourier.coeffs(rng.standard_normal(m))
    for g, w in zip(fourier.mode_sum(noise[None], m, np.zeros(thetas.size),
                                     thetas, 2),
                    fourier.Interpolant(noise, m, 2)(thetas)):
        assert g.shape == w.shape == thetas.shape
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
    # the value is the grid value of the coefficients plus the change from
    # the nearest node, so at theta = 0 it is the grid value bit for bit
    value = fourier.mode_sum(coef, m, np.arange(3), np.zeros(3))[0]
    assert np.array_equal(value, np.fft.irfft(coef, n=m)[:, :, 0])


def test_interpolant_degree_on_a_resolved_curve():
    # the nearby graph of the normal_graph tests: its spectrum falls to
    # rounding by mode ~10, so the Newton table keeps at most 12 rows
    m = 2048
    base = circle(math.sqrt(2.0), m=m)
    target = reconstruct(base, 0.01 * np.cos(3 * fourier.grid(m)))
    coef = fourier.coeffs(target.points)
    for order in (0, 1):
        prepared = fourier.Interpolant(coef, m, order)
        assert prepared.degree + order + 1 <= 12
    with pytest.raises(AttributeError):
        prepared.degree = fourier._TAYLOR_P
    # one multiplier table per m, whatever the orders, the degrees and the
    # integer type of m
    fourier._taylor_multipliers.cache_clear()
    for order in (0, 1):
        for size in (m, np.int64(m)):
            fourier.Interpolant(coef, size, order)
    info = fourier._taylor_multipliers.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


@pytest.mark.parametrize("m", [64, 256, 2048])
def test_interpolant_degree_near_the_cap_on_rough_spectra(m):
    # the Nyquist cosine needs every row; white noise spreads its terms
    # over all modes, whose tail sums fall below eps/16 one or two rows
    # earlier than the single top mode's
    rng = np.random.default_rng(m)
    nyquist = fourier.coeffs(np.cos((m // 2) * fourier.grid(m)))
    noise = fourier.coeffs(rng.standard_normal((m, 2)))
    cap = fourier._TAYLOR_P
    for order in range(3):
        assert fourier.Interpolant(nyquist, m, order).degree == cap
        assert fourier.Interpolant(noise, m, order).degree >= cap - 2


def slow_spectrum(m):
    """rfft coefficients with |c_k| ~ 0.97^k up to Nyquist, random phases."""
    rng = np.random.default_rng(m)
    k = np.arange(m // 2 + 1)
    coef = m * 0.97 ** k * np.exp(2j * np.pi * rng.uniform(size=k.size))
    coef[[0, -1]] = coef[[0, -1]].real
    return coef


def faint_top_mode(m):
    """cos(theta) and a 1e-12 mode near Nyquist: its Taylor terms are below
    rounding in the value but not in the second derivative, so each
    derivative needs its own tail bound."""
    t = fourier.grid(m)
    return fourier.coeffs(np.cos(t) + 1e-12 * np.cos((m // 2 - 24) * t))


@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("spectrum", [slow_spectrum, faint_top_mode])
def test_adaptive_degree_matches_dense_basis(m, spectrum):
    coef = spectrum(m)
    rng = np.random.default_rng(m + 1)
    h = 2.0 * np.pi / m
    thetas = np.concatenate([rng.uniform(-2.0 * np.pi, 4.0 * np.pi, 300),
                             (np.arange(m) + 0.5) * h])
    for order in range(3):
        got = fourier.trig_eval(coef, m, thetas, order=order)
        want = dense_basis_eval(coef, m, thetas, order)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_antideriv_reconstructs_integral():
    m = 64
    t = fourier.grid(m)
    vals = 2.0 + np.cos(3 * t)  # integral: 2 t + sin(3 t)/3
    mean, coef = fourier.antideriv(vals)
    assert abs(mean - 2.0) < 1e-13
    s = mean * t + fourier.trig_eval(coef, m, t)
    assert np.allclose(s - s[0], 2 * t + np.sin(3 * t) / 3, atol=1e-12)


def test_staggered_matrix_matches_transform():
    m = 32
    rng = np.random.default_rng(0)
    v = rng.standard_normal(m)
    mat = fourier.staggered_matrix(m)
    assert np.allclose(mat @ v, fourier.staggered_deriv(v), atol=1e-12)
