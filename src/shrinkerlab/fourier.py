"""Periodic differentiation and interpolation on the uniform grid.

All curve fields live on the uniform parameter grid theta_j = 2*pi*j/m with
even m. Derivatives and interpolants are discrete Fourier (trigonometric
interpolation, spectrally accurate for analytic data). This module owns the
interpolant off the grid: `trig_eval` anywhere, from a Taylor table on the
grid, and `upsample` on a finer uniform grid.

Staggered (half-grid) variants evaluate at theta_{j+1/2}. They are used to
assemble stiffness quadratic forms: the collocated Fourier derivative
annihilates the Nyquist sawtooth, which would leak a spurious null vector
into any D^T C D stiffness; the staggered multiplier is nonzero at Nyquist.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * np.pi


def grid(m: int) -> np.ndarray:
    """Uniform periodic parameter grid theta_j = 2*pi*j/m."""
    return np.linspace(0.0, TWO_PI, m, endpoint=False)


def _wavenumbers(m: int) -> np.ndarray:
    return np.arange(m // 2 + 1, dtype=float)


def _multiply(values, mult: np.ndarray) -> np.ndarray:
    """irfft(rfft(values) * mult) along axis 0, for any trailing shape."""
    values = np.asarray(values, dtype=float)
    coef = np.fft.rfft(values, axis=0)
    shape = (-1,) + (1,) * (values.ndim - 1)
    return np.fft.irfft(coef * mult.reshape(shape), n=values.shape[0], axis=0)


def deriv(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative d^order/dtheta^order along axis 0.

    For odd orders the Nyquist mode is zeroed (its sine interpolant vanishes
    on the grid); for even orders it carries the exact factor (i*m/2)^order.
    """
    mult = (1j * _wavenumbers(len(values))) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return _multiply(values, mult)


_DERIV12_CACHE: dict = {}


def deriv12_multipliers(m: int) -> tuple[np.ndarray, np.ndarray]:
    """rfft multipliers (ik, -k^2) of d/dtheta and d2/dtheta2, Nyquist ik = 0."""
    pair = _DERIV12_CACHE.get(m)
    if pair is None:
        k = _wavenumbers(m)
        m1 = 1j * k
        m1[-1] = 0.0
        pair = (m1, -(k * k))
        _DERIV12_CACHE[m] = pair
    return pair


def deriv12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second spectral theta-derivatives in one transform pair."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    cols = values.reshape(m, -1)
    ncol = cols.shape[1]
    m1, m2 = (mult[:, None] for mult in deriv12_multipliers(m))
    coef = np.fft.rfft(cols, axis=0)
    block = np.empty((m // 2 + 1, 2 * ncol), dtype=complex)
    np.multiply(coef, m1, out=block[:, :ncol])
    np.multiply(coef, m2, out=block[:, ncol:])
    out = np.fft.irfft(block, n=m, axis=0)
    return out[:, :ncol].reshape(values.shape), out[:, ncol:].reshape(values.shape)


def synth_rows(coef: np.ndarray, m: int, with_values: bool = True) -> np.ndarray:
    """Sample rows and their theta-derivatives from rfft rows, in one irfft.

    `coef` is the rfft along the last axis of r rows. Returns the (3r, m)
    stack [values; d/dtheta; d2/dtheta2], or (2r, m) without the values;
    the multipliers are those of :func:`deriv12`.
    """
    m1, m2 = deriv12_multipliers(m)
    r = coef.shape[0]
    block = np.empty(((2 + with_values) * r, coef.shape[1]), dtype=complex)
    if with_values:
        block[:r] = coef
    np.multiply(coef, m1, out=block[-2 * r:-r])
    np.multiply(coef, m2, out=block[-r:])
    return np.fft.irfft(block, n=m, axis=1)


def staggered_deriv(values: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta evaluated at the half grid theta_{j+1/2}.

    The Nyquist multiplier i*(m/2)*exp(i*pi/2) = -m/2 is exactly real, so the
    sawtooth mode differentiates to +-m/2 instead of being annihilated.
    """
    m = len(values)
    k = _wavenumbers(m)
    mult = 1j * k * np.exp(1j * k * (np.pi / m))
    mult[-1] = -(m // 2)  # exact value; avoids fp residue in cos(pi/2)
    return _multiply(values, mult)


def staggered_interp(values: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of grid values onto the half grid."""
    m = len(values)
    mult = np.exp(1j * _wavenumbers(m) * (np.pi / m))
    mult[-1] = 0.0  # the Nyquist cosine vanishes at half-grid points
    return _multiply(values, mult)


def coeffs(values: np.ndarray) -> np.ndarray:
    """rfft coefficients used by :func:`trig_eval`."""
    return np.fft.rfft(np.asarray(values, dtype=float), axis=0)


def smooth(values: np.ndarray) -> np.ndarray:
    """Damp the top of the spectrum of grid samples along axis 0 with a
    36th-order exponential filter, the identity below ~0.6 Nyquist. No
    stepper calls it since the semi-implicit one; the benchmark tracer
    still wraps this name."""
    k = _wavenumbers(len(values))
    return _multiply(values, np.exp(-36.0 * (k / k[-1]) ** 36))


#: Taylor degree of the off-grid evaluator: the least P whose remainder
#: bound (pi/2)^(P+1)/(P+1)! on one mode, half a node from the nearest node,
#: is below eps/16 of the mode's amplitude, so truncation stays under the
#: rounding of the sum (P = 22)
_TAYLOR_P = next(p for p in range(64)
                 if (np.pi / 2) ** (p + 1) / math.factorial(p + 1)
                 < np.finfo(float).eps / 16)

#: 2*pi to 40 digits, for the rounding error of the grid spacing TWO_PI/m
_TWO_PI_EXACT = Fraction("6.283185307179586476925286766559005768394")


def _nearest_node(thetas: np.ndarray, m: int):
    """Nearest node j and offset x = theta/h - j, |x| <= 1/2, h = 2*pi/m,
    exact to rounding however far theta lies from 0 (theta/h is off by
    |theta/h| eps): fmod splits theta exactly by the float h, and n times
    the rounding error of h is added back."""
    h = TWO_PI / m
    dh = float(_TWO_PI_EXACT / m - Fraction(h))
    r = np.fmod(thetas, h)
    n = np.rint((thetas - r) / h)
    x = (r - n * dh) / h
    near = np.rint(x)
    return (n + near).astype(np.intp) % m, x - near


def _taylor_eval(coef: np.ndarray, m: int, thetas: np.ndarray,
                 order: int) -> list:
    """Derivatives 0..order of the trigonometric interpolant at `thetas`.

    Row q of one table holds h^q f^(q)/q! on the grid (h = 2*pi/m), all
    rows from one batched irfft of coef * (i k h)^q/q!; the Nyquist cosine
    needs no special case, as irfft drops its odd rows, whose sine vanishes
    on the grid. Each theta reads the Taylor polynomial of degree P + order
    about its nearest node, and Horner's rule with synthetic division gives
    the derivatives with the value: O(P m log m + P n) time, O(P (m + n))
    memory."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    h = TWO_PI / m
    top = _TAYLOR_P + order
    q = np.arange(top + 1)
    mult = ((1j * h * _wavenumbers(m)) ** q[:, None]
            / np.cumprod(np.maximum(q, 1.0))[:, None])
    cols = coef.reshape(coef.shape[0], -1)
    table = np.fft.irfft(mult[:, :, None] * cols, n=m, axis=1)
    j, x = _nearest_node(thetas, m)
    near = table[:, j]
    x = x[:, None]
    # out[r] ends as the r-th derivative of the polynomial in x over r!
    out = [near[top].copy()] + [np.zeros_like(near[top]) for _ in range(order)]
    for q in range(top - 1, -1, -1):
        for r in range(order, 0, -1):
            out[r] *= x
            out[r] += out[r - 1]
        out[0] *= x
        out[0] += near[q]
    shape = thetas.shape + coef.shape[1:]
    return [(o * (math.factorial(r) / h ** r) if r else o).reshape(shape)
            for r, o in enumerate(out)]


def trig_eval(coef: np.ndarray, m: int, thetas: np.ndarray, order: int = 0) -> np.ndarray:
    """The trigonometric interpolant, or its derivative of `order`, at the
    parameters thetas (n,), from the rfft coefficients `coef`, (m//2+1,) or
    (m//2+1, d), of m grid samples."""
    return _taylor_eval(coef, m, thetas, order)[order]


def trig_eval_pair(coef: np.ndarray, m: int,
                   thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolant value and first theta-derivative from one table: the
    pair a Newton iteration on the interpolant consumes."""
    return tuple(_taylor_eval(coef, m, thetas, 1))


def upsample(rows: np.ndarray, m_fine: int) -> np.ndarray:
    """Sample the trigonometric interpolants of rows of grid samples (along
    the last axis) on the finer uniform grid of m_fine points."""
    m = rows.shape[-1]
    if m_fine <= m:
        return rows
    coef = np.fft.rfft(rows, axis=-1)
    coef[..., m // 2] *= 0.5  # Nyquist bin splits when the band widens
    padded = np.zeros(rows.shape[:-1] + (m_fine // 2 + 1,), dtype=complex)
    padded[..., : m // 2 + 1] = coef
    return np.fft.irfft(padded, n=m_fine, axis=-1) * (m_fine / m)


def antideriv(values: np.ndarray) -> tuple[float, np.ndarray]:
    """Split f into mean + d/dtheta(periodic part).

    Returns (mean, rfft coefficients of the periodic antiderivative), so that
    the antiderivative of f is  mean*theta + trig_eval(coef, m, theta).
    The Nyquist mode's antiderivative vanishes on the grid and is dropped.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    coef = np.fft.rfft(values)
    mean = coef[0].real / m
    k = _wavenumbers(m)
    out = np.zeros_like(coef)
    out[1:-1] = coef[1:-1] / (1j * k[1:-1])
    return mean, out


def staggered_matrix(m: int) -> np.ndarray:
    """Dense half-grid first-derivative matrix (m x m), for form assembly."""
    return staggered_deriv(np.eye(m))
