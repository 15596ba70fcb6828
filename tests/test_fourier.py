"""Spectral utility layer: differentiation, interpolation, antiderivatives."""

import numpy as np

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
