"""Periodic differentiation and interpolation on the uniform grid.

All curve fields live on the uniform parameter grid theta_j = 2*pi*j/m with
even m. Derivatives and interpolants are discrete Fourier (trigonometric
interpolation, spectrally accurate for analytic data). This module owns the
interpolant off the grid: `Interpolant` anywhere, from a Taylor table on the
grid built once per coefficient set to the degree its spectrum needs (at
most `_TAYLOR_P`), and `mode_sum` at a few points by direct mode sums.

Staggered (half-grid) variants evaluate at theta_{j+1/2}. They are used to
assemble stiffness quadratic forms: the collocated Fourier derivative
annihilates the Nyquist sawtooth, which would leak a spurious null vector
into any D^T C D stiffness; the staggered multiplier is nonzero at Nyquist.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * np.pi


def grid(m: int) -> np.ndarray:
    """Uniform periodic parameter grid theta_j = 2*pi*j/m."""
    return np.linspace(0.0, TWO_PI, m, endpoint=False)


def _wavenumbers(m: int) -> np.ndarray:
    return np.arange(m // 2 + 1, dtype=float)


def multiply(values, mult: np.ndarray, axis: int = 0) -> np.ndarray:
    """irfft(rfft(values) * mult) along `axis` (0: fields as columns, -1:
    frames as rows), for any other shape. Each 1-D transform is the same
    whatever the stack around it, so a row's result does not depend on the
    layout or on the other rows."""
    values = np.asarray(values, dtype=float)
    coef = np.fft.rfft(values, axis=axis)
    shape = [1] * values.ndim
    shape[axis] = -1
    return np.fft.irfft(coef * mult.reshape(shape), n=values.shape[axis],
                        axis=axis)


def deriv(values: np.ndarray, order: int = 1, axis: int = 0) -> np.ndarray:
    """Spectral derivative d^order/dtheta^order along `axis`.

    For odd orders the Nyquist mode is zeroed (its sine interpolant vanishes
    on the grid); for even orders it carries the exact factor (i*m/2)^order.
    """
    mult = (1j * _wavenumbers(np.shape(values)[axis])) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return multiply(values, mult, axis)


@functools.cache
def deriv12_multipliers(m: int) -> tuple[np.ndarray, np.ndarray]:
    """rfft multipliers (ik, -k^2) of d/dtheta and d2/dtheta2, Nyquist ik = 0."""
    k = _wavenumbers(m)
    m1 = 1j * k
    m1[-1] = 0.0
    return m1, -(k * k)


def deriv12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second spectral theta-derivatives along axis 0 in one
    transform pair: :func:`synth_rows` of the columns' rfft rows."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    rows = values.reshape(m, -1).T
    out = synth_rows(np.fft.rfft(rows, axis=1), m, with_values=False)
    r = rows.shape[0]
    return out[:r].T.reshape(values.shape), out[r:].T.reshape(values.shape)


def synth_rows(coef: np.ndarray, m: int, with_values: bool = True,
               out: np.ndarray | None = None) -> np.ndarray:
    """Sample rows and their theta-derivatives from rfft rows, in one irfft.

    `coef` is the rfft along the last axis of r rows. Returns the (3r, m)
    stack [values; d/dtheta; d2/dtheta2], or (2r, m) without the values,
    written into `out` when given; the multipliers are those of
    :func:`deriv12`.
    """
    m1, m2 = deriv12_multipliers(m)
    r = coef.shape[0]
    block = np.empty(((2 + with_values) * r, coef.shape[1]), dtype=complex)
    if with_values:
        block[:r] = coef
    np.multiply(coef, m1, out=block[-2 * r:-r])
    np.multiply(coef, m2, out=block[-r:])
    return np.fft.irfft(block, n=m, axis=1, out=out)


def staggered_multiplier(m: int) -> np.ndarray:
    """rfft multiplier of d/dtheta from the grid onto the half grid.

    The Nyquist entry i*(m/2)*exp(i*pi/2) = -m/2 is exactly real, so the
    sawtooth mode differentiates to +-m/2 instead of being annihilated, and
    the complex conjugate multiplier applies the transposed derivative.
    """
    k = _wavenumbers(m)
    mult = 1j * k * np.exp(1j * k * (np.pi / m))
    mult[-1] = -(m // 2)  # exact value; avoids fp residue in cos(pi/2)
    return mult


def staggered_deriv(values: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta evaluated at the half grid theta_{j+1/2}."""
    return multiply(values, staggered_multiplier(len(values)))


def staggered_interp(values: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of grid values onto the half grid."""
    m = len(values)
    mult = np.exp(1j * _wavenumbers(m) * (np.pi / m))
    mult[-1] = 0.0  # the Nyquist cosine vanishes at half-grid points
    return multiply(values, mult)


def coeffs(values: np.ndarray) -> np.ndarray:
    """rfft coefficients along axis 0, the input of :class:`Interpolant`."""
    return np.fft.rfft(np.asarray(values, dtype=float), axis=0)


def smooth(values: np.ndarray) -> np.ndarray:
    """Damp the top of the spectrum of grid samples along axis 0 with a
    36th-order exponential filter, the identity below ~0.6 Nyquist. No
    stepper calls it since the semi-implicit one; the benchmark tracer
    still wraps this name."""
    k = _wavenumbers(len(values))
    return multiply(values, np.exp(-36.0 * (k / k[-1]) ** 36))


#: Taylor degree cap of the off-grid evaluator: the least P whose
#: remainder bound (pi/2)^(P+1)/(P+1)! on one mode, half a node from the
#: nearest node, is below eps/16 of the mode's amplitude, so truncation
#: stays under the rounding of the sum for any spectrum (P = 22);
#: `Interpolant` stops lower when its coefficients allow
_TAYLOR_P = next(p for p in range(64)
                 if (np.pi / 2) ** (p + 1) / math.factorial(p + 1)
                 < np.finfo(float).eps / 16)

#: 2*pi to 40 digits, for the rounding error of the grid spacing TWO_PI/m
_TWO_PI_EXACT = Fraction("6.283185307179586476925286766559005768394")


@functools.cache
def _spacing(m: int) -> tuple[float, float, float, float]:
    """h = TWO_PI/m, h = hi + lo exactly with hi's low 26 significand bits
    clear (Dekker 1971), and the rounding error TWO_PI/m - fl(TWO_PI/m)."""
    h = TWO_PI / m
    mant, e = math.frexp(h)
    hi = math.ldexp(math.floor(math.ldexp(mant, 27)), e - 27)
    return h, hi, h - hi, float(_TWO_PI_EXACT / m - Fraction(h))


def _nearest_node(thetas: np.ndarray, m: int):
    """Nearest node j and offset x = theta/h - j, |x| <= 1/2, h = 2*pi/m,
    exact to rounding however far theta lies from 0 (theta/h is off by
    |theta/h| eps): theta = n h + r splits exactly by the float h, as fmod
    does, and n times the rounding error of h is added back.

    Below |theta| = 2^26 h, n = trunc(|theta|/h), r = (|theta| - n hi) -
    n lo (`_spacing`): with n <= 2^26, hi of 27 bits and lo of 26, both
    products are exact, and so are both differences, multiples of the last
    place of h. The quotient never rounds below n but may round up to n + 1
    (at ~40% of the grid nodes); then r < 0, and n - 1, r + h is fmod's
    split. Beyond, and at nan or inf, fmod splits theta. The node index is
    taken modulo m only when one leaves [0, m). A call takes ~12 us at a
    few points, ~32 us at 2048 and ~48 us at 4096 on one Xeon core (fmod:
    ~6 and ~100 us at a few points and at 2048).
    """
    h, hi, lo, dh = _spacing(m)
    size = np.abs(thetas)
    n = np.trunc(size / h)
    r = (size - n * hi) - n * lo
    if not r.min(initial=0.0) >= 0.0:  # nan too
        over = r < 0.0
        n -= over
        r += over * h
    np.copysign(r, thetas, out=r)
    np.copysign(n, thetas, out=n)
    if not size.max(initial=0.0) < 2.0 ** 26 * h:  # nan too
        far = ~(size < 2.0 ** 26 * h)
        r[far] = np.fmod(thetas[far], h)
        n[far] = np.rint((thetas[far] - r[far]) / h)
    x = (r - n * dh) / h
    near = np.rint(x)
    j = (n + near).astype(np.intp)
    # the int modulo costs ~4x the cast, and only j outside [0, m) needs it:
    # theta < 0, within half a node below 2 pi, or beyond (a negative j
    # reads as a huge unsigned one)
    if not j.view(np.uintp).max(initial=0) < m:
        j %= m
    return j, x - near


@functools.cache
def _taylor_multipliers(m: int) -> tuple[np.ndarray, np.ndarray]:
    """rfft multipliers (i k h)^q/q!, q = 0.._TAYLOR_P + 2, h = 2*pi/m, and
    their moduli times 2^-q, (k h/2)^q/q!: cached per m, read-only; a table
    of order <= 2 takes its first rows."""
    q = np.arange(_TAYLOR_P + 3)
    k_h = (TWO_PI / m) * _wavenumbers(m)
    fact = np.cumprod(np.maximum(q, 1.0))[:, None]
    pair = ((1j * k_h) ** q[:, None] / fact, (0.5 * k_h) ** q[:, None] / fact)
    for table in pair:
        table.flags.writeable = False
    return pair


def _taylor_degrees(half_moduli: np.ndarray, cols: np.ndarray,
                    order: int) -> np.ndarray:
    """Per frame, the least Taylor degree P <= _TAYLOR_P at which, for
    every derivative r <= order, the terms the table drops sum below
    eps/16 of its degree-0 terms, so truncation stays under the rounding
    of the sum.

    Derivative r has the coefficients (i k)^r c_k; at |x| <= 1/2 its
    degree-q term from mode k is at most w_k max|c_k| k^r (k h/2)^q/q!
    (w_k the rfft weight: 1 at k = 0 and Nyquist, else 2), and t_q sums
    these over k, one product of the rows (k h/2)^q/q! of `half_moduli`
    with the weighted amplitudes. Those rows bound every tail: the terms
    beyond them weigh under 1e-20 of t_0, by the choice of _TAYLOR_P. Each
    derivative needs its own bound, as k^r lifts faint high modes above
    the value's rounding. `cols` (frames, d, m//2+1) holds each frame's d
    coefficient columns as rows; the stacked product runs one matrix
    product per frame, so a frame's degree is that of the frame alone.
    """
    amp = np.abs(cols).max(axis=1)
    amp[:, 1:-1] *= 2.0
    k = np.arange(amp.shape[1], dtype=float)
    weighted = [amp]
    for _ in range(order):
        weighted.append(weighted[-1] * k)
    terms = half_moduli @ np.stack(weighted, axis=-1)
    tail = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # row q: q' >= q
    beyond = tail[:, 1:_TAYLOR_P + 1]  # row P: what degree P drops
    enough = (beyond <= np.finfo(float).eps / 16 * terms[:, :1]).all(axis=2)
    return np.where(enough.any(axis=1), np.argmax(enough, axis=1), _TAYLOR_P)


class Interpolant:
    """The trigonometric interpolant of m grid samples with rfft
    coefficients `coef`, (m//2+1,) or (m//2+1, d), prepared once so that
    calls return its derivatives 0..order at any parameters; with
    `stacked`, `coef` is a stack of such sets, (frames, m//2+1) or
    (frames, m//2+1, d), and a call evaluates each frame at its own
    parameters.

    Row q of the Taylor table holds h^q f^(q)/q! on the grid (h = 2*pi/m),
    all rows of all frames from one batched irfft of coef * (i k h)^q/q!;
    the Nyquist cosine needs no special case, as irfft drops its odd rows,
    whose sine vanishes on the grid. A frame keeps rows 0..P + order, with
    P the least degree at which the terms it drops stay below the rounding
    of the sum (`_taylor_degrees`): exact to rounding for any coefficients,
    P = _TAYLOR_P for the Nyquist cosine, 20-21 for white noise and 6-15
    on resolved frames. The table is (rows, frames, d, m), the nodes last,
    its rows those of the largest P (`degree`), and a frame's rows above
    its own P are zero: a Horner step on them leaves +-0 x + row = row,
    so each frame's results are those of its own table bit for bit. A
    call splits its parameters at their nearest nodes once, and each
    Horner step takes its table row at every parameter of every frame in
    one take into one reused buffer and runs along them all at once, a
    synthetic division giving the derivatives with the value; a call holds
    no (rows, frames, d, n) gather (0.8 MB for a block at m = 2048, whose
    page faults cost a fresh process more than the one take saved). O(P
    frames m log m) time to build, O(P d n) time and O((order + 2) d n)
    memory per frame and call. On one Xeon core (numpy 2.4) a
    call of the order-1 Newton table of one resolved curve (P = 9, d = 2,
    n = m) takes ~90 us at m = 512 and ~210 us at m = 2048, and of the
    8 stacked frames of a block at m = 512 ~370 us.
    """

    __slots__ = ("m", "order", "_table", "_tail")

    def __init__(self, coef: np.ndarray, m: int, order: int = 0, *,
                 stacked: bool = False):
        self.m = m = int(m)  # one cached table per m, whatever its int type
        self.order = order
        sets = coef if stacked else coef[None]
        self._tail = sets.shape[2:]
        # each frame's coefficient columns as rows, (frames, d, m//2+1)
        cols = np.ascontiguousarray(
            sets.reshape(sets.shape[:2] + (-1,)).transpose(0, 2, 1))
        mult, half_moduli = _taylor_multipliers(m)
        rows = _taylor_degrees(half_moduli, cols, order) + order + 1
        products = mult[:rows.max(), None, None, :] * cols
        for f, r in enumerate(rows):
            products[r:, f] = 0.0
        self._table = np.fft.irfft(products, n=m, axis=-1)

    @property
    def degree(self) -> int:
        """The Taylor degree P, the largest of the frames': the table holds
        rows 0..P + order."""
        return self._table.shape[0] - 1 - self.order

    def __call__(self, thetas, frames=None) -> list:
        """[f, f', ..., f^(order)] at the parameters thetas, each of shape
        thetas.shape + the trailing shape of the coefficients. With one
        coefficient set, thetas has any shape; stacked, thetas is (k, n),
        row i the parameters of frame frames[i] (default: of frame i)."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        rows, count, d, m = self._table.shape
        frames = np.arange(count) if frames is None else np.asarray(frames)
        j, x = _nearest_node(thetas.reshape(frames.size, -1), m)
        # in a flat row of the table, column c of frame f at node j is
        # (f d + c) m + j; each Horner step takes its row at every point
        # into one buffer ("clip" leaves these in-range indices as they
        # are, and unlike "raise" writes `out` unbuffered)
        at = j[:, None, :] + m * (d * frames[:, None, None]
                                  + np.arange(d)[:, None])
        flat = self._table.reshape(rows, -1)
        # row r of acc ends as the r-th derivative of the polynomial in x
        # over r!; a Horner step sets row r to (row r) x + (old row r - 1),
        # and row 0 to (row 0) x + the next coefficient
        acc = np.zeros((self.order + 1,) + at.shape)
        flat[-1].take(at, out=acc[0], mode="clip")
        nxt = np.empty_like(acc)
        row = np.empty(at.shape)
        x = x[:, None, :]
        for q in range(rows - 2, -1, -1):
            np.multiply(acc, x, out=nxt)
            nxt[0] += flat[q].take(at, out=row, mode="clip")
            if self.order:
                nxt[1:] += acc[:-1]
            acc, nxt = nxt, acc
        h = TWO_PI / self.m
        shape = thetas.shape + self._tail
        return [(o * (math.factorial(r) / h ** r) if r else o)
                .transpose(0, 2, 1).reshape(shape) for r, o in enumerate(acc)]


@functools.cache
def _roots_of_unity(m: int) -> np.ndarray:
    """exp(2 pi i q/m), q = 0..m-1, from angles reduced to (-pi, pi]:
    cached per m, read-only."""
    q = np.arange(m)
    roots = np.exp(1j * (TWO_PI / m) * np.where(q > m // 2, q - m, q))
    roots.flags.writeable = False
    return roots


#: `mode_sum` takes its points in chunks of at most _PAIRS point-mode pairs
_PAIRS = 1 << 12


def mode_sum(coef: np.ndarray, m: int, rows, thetas, order: int = 0) -> list:
    """[f, f', ..., f^(order)] of a stack of trigonometric interpolants at
    the points (rows[p], thetas[p]), each of shape (n,) + coef.shape[1:-1].

    `coef` holds rfft rows along the last axis of m grid samples, (frames,
    m//2+1) or (frames, d, m//2+1); point p evaluates frame rows[p] at the
    parameter thetas[p]. The modes are summed directly, O(n m) time, and no
    table is built per coefficient set, which makes it cheaper than an
    `Interpolant` for the few points of a refinement. The value is the grid
    value irfft(coef) at the nearest node, as `Interpolant` gives it
    there, plus the sum of each mode's change from that node: theta =
    h (j + x) is split exactly at the nearest node (`_nearest_node`), the
    node's phase e^(ik theta_j) is a cached root of unity, and
    e^(ikhx) - 1, |khx| <= pi/2, is one `expm1`, exact to rounding
    relative to itself. So the value is exact to rounding however far
    theta lies from 0, and its rounding near a node is that of the change;
    the derivatives are the direct sums. The points go in chunks of at
    most _PAIRS point-mode pairs, so memory stays O(_PAIRS + coef.size),
    and each point's sums run over its own modes alone, so its result does
    not depend on the other points. Like irfft, it ignores the imaginary
    parts of the mean and Nyquist coefficients.
    """
    rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n_modes = coef.shape[-1]
    # f^(r) = sum_k w_k Re((ik)^r c_k e^(ik theta)), the rfft weight w_k
    # 1/m at the mean and Nyquist, else 2/m
    k = np.arange(n_modes)
    w = np.full(n_modes, 2.0 / m)
    w[0] = w[-1] = 1.0 / m
    weights = np.array([(1, 1j, -1, -1j)[r % 4] * k ** r * w
                        for r in range(order + 1)])
    nodes = np.moveaxis(np.fft.irfft(coef, n=m, axis=-1), -1, 1)
    out = np.empty((thetas.size, order + 1) + coef.shape[1:-1])
    flat = out.reshape(thetas.size, order + 1, -1)
    step = max(1, _PAIRS // n_modes)
    for lo in range(0, thetas.size, step):
        at = slice(lo, lo + step)
        j, x = _nearest_node(thetas[at], m)
        root = _roots_of_unity(m)[np.multiply.outer(j, k) % m]
        change = root * np.expm1(1j * np.multiply.outer((TWO_PI / m) * x, k))
        # Re(c p) = <(Re c, Im c), (Re p, -Im p)>: one real product per point
        p = (root + change)[:, None, :] * weights
        p[:, 0] = change * weights[0]
        np.conjugate(p, out=p)
        c = np.ascontiguousarray(coef[rows[at]]).reshape(p.shape[0], -1,
                                                         n_modes)
        c[..., -1] = c[..., -1].real
        flat[at] = p.view(float) @ c.view(float).transpose(0, 2, 1)
        out[at, 0] += nodes[rows[at], j]
    return list(np.moveaxis(out, 1, 0))


def trig_eval(coef: np.ndarray, m: int, thetas: np.ndarray, order: int = 0) -> np.ndarray:
    """The trigonometric interpolant, or its derivative of `order`, at the
    parameters thetas (n,), from the rfft coefficients `coef`, (m//2+1,) or
    (m//2+1, d), of m grid samples."""
    return Interpolant(coef, m, order)(thetas)[order]


def trig_eval_pair(coef: np.ndarray, m: int,
                   thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolant value and first theta-derivative from one table: the
    pair a Newton iteration on the interpolant consumes."""
    return tuple(Interpolant(coef, m, 1)(thetas))


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
    """Dense half-grid first-derivative matrix (m x m), for the dense form."""
    return staggered_deriv(np.eye(m))
