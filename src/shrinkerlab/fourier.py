"""Periodic differentiation and interpolation on the uniform grid.

All curve fields live on the uniform parameter grid theta_j = 2*pi*j/m with
even m. Derivatives and interpolants are discrete Fourier (trigonometric
interpolation, spectrally accurate for analytic data).

Staggered (half-grid) variants evaluate at theta_{j+1/2}. They are used to
assemble stiffness quadratic forms: the collocated Fourier derivative
annihilates the Nyquist sawtooth, which would leak a spurious null vector
into any D^T C D stiffness; the staggered multiplier is nonzero at Nyquist.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def grid(m: int) -> np.ndarray:
    """Uniform periodic parameter grid theta_j = 2*pi*j/m."""
    return np.linspace(0.0, TWO_PI, m, endpoint=False)


def _wavenumbers(m: int) -> np.ndarray:
    return np.arange(m // 2 + 1, dtype=float)


def deriv(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative d^order/dtheta^order along axis 0.

    For odd orders the Nyquist mode is zeroed (its sine interpolant vanishes
    on the grid); for even orders it carries the exact factor (i*m/2)^order.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    k = _wavenumbers(m)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    coef = np.fft.rfft(values, axis=0)
    shape = (m // 2 + 1,) + (1,) * (values.ndim - 1)
    return np.fft.irfft(coef * mult.reshape(shape), n=m, axis=0)


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
    m1, m2 = (mult[:, None] for mult in deriv12_multipliers(m))
    coef = np.fft.rfft(values, axis=0)
    if values.ndim == 1:
        block = np.concatenate([coef[:, None] * m1, coef[:, None] * m2], axis=1)
        out = np.fft.irfft(block, n=m, axis=0)
        return out[:, 0], out[:, 1]
    ncol = values.shape[1]
    block = np.empty((m // 2 + 1, 2 * ncol), dtype=complex)
    np.multiply(coef, m1, out=block[:, :ncol])
    np.multiply(coef, m2, out=block[:, ncol:])
    out = np.fft.irfft(block, n=m, axis=0)
    return out[:, :ncol], out[:, ncol:]


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
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    k = _wavenumbers(m)
    mult = 1j * k * np.exp(1j * k * (np.pi / m))
    mult[-1] = -(m // 2)  # exact value; avoids fp residue in cos(pi/2)
    coef = np.fft.rfft(values, axis=0)
    shape = (m // 2 + 1,) + (1,) * (values.ndim - 1)
    return np.fft.irfft(coef * mult.reshape(shape), n=m, axis=0)


def staggered_interp(values: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of grid values onto the half grid."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    k = _wavenumbers(m)
    mult = np.exp(1j * k * (np.pi / m))
    mult[-1] = 0.0  # the Nyquist cosine vanishes at half-grid points
    coef = np.fft.rfft(values, axis=0)
    shape = (m // 2 + 1,) + (1,) * (values.ndim - 1)
    return np.fft.irfft(coef * mult.reshape(shape), n=m, axis=0)


def coeffs(values: np.ndarray) -> np.ndarray:
    """rfft coefficients used by :func:`trig_eval`."""
    return np.fft.rfft(np.asarray(values, dtype=float), axis=0)


_FILTER_CACHE: dict = {}


def smoothing_filter(m: int) -> np.ndarray:
    """36th-order exponential spectral filter, identity below ~0.6 Nyquist.

    Explicit stepping of curve motions by a collocated spectral velocity
    leaves near-Nyquist reparametrization modes first-order neutral; they
    grow slowly through nonlinear aliasing. Damping the top of the spectrum
    each step bounds them at rounding level while perturbing resolved modes
    by less than 1e-10 relative.
    """
    filt = _FILTER_CACHE.get(m)
    if filt is None:
        k = _wavenumbers(m).astype(float)
        filt = np.exp(-36.0 * (k / (m // 2)) ** 36)
        _FILTER_CACHE[m] = filt
    return filt


def smooth(values: np.ndarray, with_coef: bool = False):
    """Apply :func:`smoothing_filter` to grid samples (any column count).

    With `with_coef` the filtered rfft coefficients come back too, so a
    stepper can reuse them as the next derivative transform's input.
    """
    m = values.shape[0]
    co = np.fft.rfft(values, axis=0)
    filt = smoothing_filter(m)
    co *= filt if values.ndim == 1 else filt[:, None]
    out = np.fft.irfft(co, m, axis=0)
    return (out, co) if with_coef else out


def _eval_basis(m: int, thetas: np.ndarray) -> np.ndarray:
    """exp(i k theta) matrix, rows = thetas, columns k = 0..m//2.

    Built by cumulative products of exp(i theta): an order of magnitude
    cheaper than a dense complex exp, with phase drift below k * eps.
    """
    n = m // 2 + 1
    basis = np.empty((thetas.shape[0], n), dtype=complex)
    basis[:, 0] = 1.0
    if n > 1:
        z = np.exp(1j * thetas)
        np.cumprod(np.broadcast_to(z[:, None], (thetas.shape[0], n - 1)),
                   axis=1, out=basis[:, 1:])
    return basis


def trig_eval(coef: np.ndarray, m: int, thetas: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate the trigonometric interpolant (or a derivative) anywhere.

    Parameters
    ----------
    coef : ndarray
        rfft coefficients of the grid samples, shape (m//2+1,) or (m//2+1, d).
    m : int
        Number of grid samples the coefficients came from.
    thetas : ndarray
        Evaluation parameters, any shape (n,).
    order : int
        Derivative order (0 = value).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    k = _wavenumbers(m)
    w = np.full(m // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    mult = w * (1j * k) ** order if order else w.astype(complex)
    basis = _eval_basis(m, thetas)
    if coef.ndim == 1:
        return (basis @ (mult * coef)).real / m
    return (basis @ (mult[:, None] * coef)).real / m


def trig_eval_pair(coef: np.ndarray, m: int,
                   thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolant value and first theta-derivative, sharing one basis.

    Same result as two :func:`trig_eval` calls at half the cost; the pair is
    what a Newton iteration on the interpolant consumes.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    k = _wavenumbers(m)
    w = np.full(m // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    basis = _eval_basis(m, thetas)
    ik = 1j * k
    if coef.ndim == 1:
        wc = w * coef
        return (basis @ wc).real / m, (basis @ (ik * wc)).real / m
    wc = w[:, None] * coef
    return (basis @ wc).real / m, (basis @ (ik[:, None] * wc)).real / m


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
    out[-1] = 0.0
    return mean, out


def staggered_matrix(m: int) -> np.ndarray:
    """Dense half-grid first-derivative matrix (m x m), for form assembly."""
    return staggered_deriv(np.eye(m))
