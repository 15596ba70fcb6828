"""Spectral utility layer: differentiation, interpolation, antiderivatives."""

import numpy as np
import pytest

from shrinkerlab import fourier


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
