"""The one discretization of the drift operator L, and its spectrum.

The drift operator acts on fields over a closed base curve; in the Gaussian
inner product it is self adjoint, with quadratic form

    form(u, v) = -integral grad(u) . grad(v) dmu + integral (H^2 + 1/2) u v dmu

where dmu is the Gaussian-weighted arclength measure. We discretize the form
directly: the stiffness part uses first derivatives on a staggered half grid
(midpoints of the parameter grid), the potential part is a diagonal lumped
mass, so the weak form is Q = -h D^T diag(c_half) D + diag(potential) with D
the half-grid derivative. Symmetry is then exact by construction, the
spectrum is real, and on a centered round circle every eigenvalue is
reproduced to rounding because the coefficient of the stiffness term is
constant there.

The staggered grid matters: a collocated first-difference matrix annihilates
the highest (sawtooth) mode, which would fold a spurious eigenvalue into the
interior of the spectrum. On the half grid the sawtooth keeps its full
derivative, so the discrete symbol is monotone all the way to the grid limit.

Q is applied to a block of fields by FFT, O(m log m) per field: D is the
rfft multiplier of `fourier.staggered_deriv` and D^T its complex conjugate.
`assemble_rows` builds it on a block of frames (`assemble` on one curve);
`gauge.apply_L` is its strong form and `frequency` takes U and the
Dirichlet energy from its form: Lambda, U and L u come from one L.
The top eigenpairs come from block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23,
2001) on the mass-symmetrized operator M^(-1/2) Q M^(-1/2), preconditioned
by the constant-coefficient symbol 1 / (1 + s k^2) with s the mean of
1/g^2. The m x m matrix `quad_form` is built only when the Ritz basis would
not fit in m columns; it is also the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fourier, ioutil
from .curvegeo import (TWO_PI, DiscreteCurve, GeometryFields,
                       gaussian_density, geometry)
from .errors import ConvergenceFailure, DegenerateCurve

__all__ = [
    "WeightedOperator",
    "Spectrum",
    "apply_rows",
    "assemble",
    "assemble_rows",
    "dirichlet_rows",
    "eigenpairs",
    "rayleigh_bound",
]

# guard vectors carried beyond the requested pairs, and the LOBPCG iteration
# cap (smooth curves up to m = 8192 converge in at most ~50 iterations)
_GUARD = 4
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class WeightedOperator:
    """Matrix-free weak form of the drift operator on base frames, a row each.

    Attributes
    ----------
    weights : ndarray, shape (..., m)
        Diagonal Gaussian mass (quadrature weights of dmu); the operator in
        strong form is diag(1/weights) @ Q.
    c_half : ndarray, shape (..., m)
        Positive stiffness coefficient on the half grid.
    potential : ndarray, shape (..., m)
        Lumped potential weights * (H^2 + 1/2).
    metric_speed : ndarray, shape (..., m)
        |dx/dtheta| of the base, for the arc derivatives of fields on it.
    """

    weights: np.ndarray
    c_half: np.ndarray
    potential: np.ndarray
    metric_speed: np.ndarray

    @property
    def m(self) -> int:
        return self.weights.shape[-1]

    def __getitem__(self, rows) -> "WeightedOperator":
        return WeightedOperator(self.weights[rows], self.c_half[rows],
                                self.potential[rows], self.metric_speed[rows])

    @cached_property
    def quad_form(self) -> np.ndarray:
        """Symmetric m x m matrix Q with form(u, v) = u @ Q @ v, built on
        first use by dense products (for the full spectrum and as a
        reference)."""
        m = self.m
        d_half = fourier.staggered_matrix(m)
        quad = -(TWO_PI / m) * (d_half.T * self.c_half) @ d_half
        quad[np.diag_indices(m)] += self.potential
        return 0.5 * (quad + quad.T)  # kill rounding asymmetry

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Strong-form action on a field, or on a block of fields (one per
        column): Q u by FFT, with the mass solved out."""
        u = np.asarray(u, float)
        block = u.reshape(self.m, -1)
        return _strong_form(self.c_half[:, None], self.potential[:, None],
                            self.weights[:, None], block, 0).reshape(u.shape)


def _strong_form(c_half, potential, weights, fields, axis: int):
    """Q u with the mass solved out, the grid along `axis` of the fields and
    of the coefficient arrays broadcast against them."""
    m = fields.shape[axis]
    mult = fourier.staggered_multiplier(m)
    flux = c_half * fourier.multiply(fields, mult, axis)
    weak = (potential * fields
            - (TWO_PI / m) * fourier.multiply(flux, mult.conj(), axis))
    return weak / weights


def apply_rows(op: WeightedOperator, fields) -> np.ndarray:
    """The strong form of `op` on each row of fields (frames, m): a block
    operator row by row, a one-frame operator on every row, in one stacked
    pass whose rows equal their own `apply` bit for bit."""
    return _strong_form(op.c_half, op.potential, op.weights,
                        np.asarray(fields, float), -1)


def dirichlet_rows(op: WeightedOperator, fields) -> np.ndarray:
    """The Gaussian Dirichlet energy, the quadrature of |grad u|^2 dmu, of
    each row u of fields (frames, m) on `op`, rows as for `apply_rows`:
    (2 pi/m) sum c_half du^2 with du the half-grid derivative, one stacked
    pass whose rows equal those of a one-row call bit for bit."""
    fields = np.asarray(fields, float)
    m = fields.shape[-1]
    du = fourier.multiply(fields, fourier.staggered_multiplier(m), -1)
    return (TWO_PI / m) * np.sum(op.c_half * du * du, axis=-1)


@dataclass(frozen=True)
class Spectrum:
    """Top eigenpairs of the weighted operator, eigenvalues descending.

    eigenfunctions holds one field per column, orthonormal in the Gaussian
    inner product of the base curve.
    """

    m: int
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def save(self, path) -> None:
        ioutil.dump_json({"m": self.m,
                          "eigenvalues": [float(v) for v in self.eigenvalues],
                          "Lambda": float(self.eigenvalues[0])}, path)


def assemble_rows(points: np.ndarray, geom: GeometryFields) -> WeightedOperator:
    """The weak form of the drift operator on the frames of (..., m, 2)
    points and their geometry rows, each row that of its frame alone bit
    for bit. The Gaussian density rho is evaluated once: the weights are
    `curvegeo.gaussian_weight_rows`, and the stiffness coefficient is rho/g
    (over metric speed) interpolated to the staggered half grid.

    Raises
    ------
    DegenerateCurve
        If the Gaussian density is subnormal (a node beyond |x| = 2
        sqrt(-ln tiny) ~ 53.23), or the interpolated stiffness coefficient
        loses positivity (wildly under-resolved data).
    """
    density = gaussian_density(points)
    if float(density.min()) < np.finfo(float).tiny:
        raise DegenerateCurve("the Gaussian density exp(-|x|^2/4) underflows: "
                              "the curve reaches |x| = %.4g, beyond 53.23"
                              % np.hypot(points[..., 0], points[..., 1]).max())
    c_half = fourier.staggered_interp(density / geom.metric_speed)
    if float(c_half.min()) <= 0.0:
        raise DegenerateCurve("stiffness coefficient lost positivity on the "
                              "half grid; curve is under-resolved")
    weights = geom.arclength_weights * density
    return WeightedOperator(weights=weights, c_half=c_half,
                            potential=weights * (geom.curvature ** 2 + 0.5),
                            metric_speed=geom.metric_speed)


def assemble(base: DiscreteCurve) -> WeightedOperator:
    """`assemble_rows` of one curve: its one-frame operator. DegenerateCurve
    as there, or if the base metric collapses."""
    return assemble_rows(base.points, geometry(base))


def _start_block(op: WeightedOperator, size: int) -> np.ndarray:
    """The fields 1, cos t, sin t, cos 2t, ... in mass-symmetrized form."""
    k = np.arange(1, size + 1) // 2
    phase = np.outer(fourier.grid(op.m), k)
    modes = np.cos(phase)
    modes[:, 2::2] = np.sin(phase[:, 2::2])
    return np.sqrt(op.weights)[:, None] * modes


def _orthonormalize(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of a well-conditioned block X by two
    passes of SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23, 2002):
    X <- X V diag(lam)^(-1/2) with X^T X = V diag(lam) V^T. The long side
    sees only matrix products, and the small side the `eigh` that
    Rayleigh-Ritz runs anyway. At m = 2048 a first call of LAPACK's QR
    (or Cholesky) here took up to 0.2 s (20 ms) in a fresh process on a
    2-CPU host."""
    for _ in range(2):
        lam, vecs = np.linalg.eigh(block.T @ block)
        block = block @ (vecs / np.sqrt(lam))
    return block


def _lobpcg(op: WeightedOperator, block: np.ndarray, count: int):
    """Top Ritz pairs of M^(-1/2) Q M^(-1/2) by block LOBPCG from `block`.

    Rayleigh-Ritz runs on an orthonormal basis of [X, W, P]: the current
    Ritz vectors, their preconditioned residuals and the previous update.
    The start block (low Fourier modes or warm-start Ritz vectors, both
    well conditioned) is orthonormalized by `_orthonormalize`, the
    [X, W, P] block, which may be nearly dependent, by Householder QR.
    Stops once the first `count` residuals pass the check of `eigenpairs`,
    or at the iteration cap; returns (values, vectors, residual norms).
    """
    root = np.sqrt(op.weights)[:, None]
    k = np.arange(op.m // 2 + 1)
    scale = float(np.mean(op.metric_speed ** -2))
    precond = 1.0 / (1.0 + scale * k * k)
    size = block.shape[1]
    basis = _orthonormalize(block)
    for _ in range(_MAX_ITERATIONS):
        image = root * op.apply(basis / root)
        gram = basis.T @ image
        vals, coef = np.linalg.eigh(0.5 * (gram + gram.T))
        vals, coef = vals[::-1][:size], coef[:, ::-1][:, :size]
        ritz = basis @ coef
        resid = image @ coef - ritz * vals
        norms = np.sqrt(np.sum(resid ** 2, axis=0))
        if np.all(norms[:count] <= _tolerance(vals[:count])):
            break
        parts = [ritz, fourier.multiply(resid, precond)]
        if basis.shape[1] > size:
            parts.append(basis[:, size:] @ coef[size:])
        basis = np.linalg.qr(np.hstack(parts))[0]
    return vals, ritz, norms


def _tolerance(vals: np.ndarray) -> np.ndarray:
    return 1e-8 * np.maximum(1.0, np.abs(vals))


def _top_pairs(op: WeightedOperator, count: int, start=None):
    """(values, vectors, residual norms) of the top count + _GUARD pairs of
    the mass-symmetrized operator, descending; checked on the first count.

    Block LOBPCG from `start` (default: the low Fourier modes) unless its
    Ritz basis would not fit, then a dense eigh of `quad_form`.

    Raises
    ------
    ConvergenceFailure
        If any of the first count pairs fails the residual check.
    """
    size = count + _GUARD
    if 3 * size > op.m:
        root = np.sqrt(op.weights)
        sym = op.quad_form / root[:, None] / root[None, :]
        vals, vecs = np.linalg.eigh(sym)
        vals, vecs = vals[::-1][:size], vecs[:, ::-1][:, :size]
        norms = np.sqrt(np.sum((sym @ vecs - vecs * vals) ** 2, axis=0))
    else:
        vals, vecs, norms = _lobpcg(
            op, _start_block(op, size) if start is None else start, count)
    if np.any(norms[:count] > _tolerance(vals[:count])):
        raise ConvergenceFailure(
            "eigenpair residual %.3g exceeds tolerance" % norms[:count].max())
    return vals, vecs, norms


def eigenpairs(op, count: int | None = None) -> Spectrum:
    """Top eigenpairs of the weighted operator, descending.

    Parameters
    ----------
    op : WeightedOperator
        The one-frame operator `assemble` built on a curve.
    count : int, optional
        How many pairs to keep (default 13: the round-circle spectrum down
        to mode 6). count = m returns the full spectrum.

    Raises
    ------
    ConvergenceFailure
        If any reported pair fails the weighted residual check.
    """
    m = op.m
    if count is None:
        count = min(13, m)
    if not 1 <= count <= m:
        raise ValueError("count must be between 1 and m = %d" % m)
    vals, vecs, _ = _top_pairs(op, count)
    fields = vecs[:, :count] / np.sqrt(op.weights)[:, None]
    return Spectrum(m=m, eigenvalues=vals[:count].copy(),
                    eigenfunctions=fields)


def rayleigh_bound(traj, stride: int = 1):
    """Per-frame top eigenvalue along a rescaled trajectory.

    Returns (times, values, uniform) where uniform = max over the sampled
    frames; that maximum is the constant the frequency monitor compares the
    Rayleigh quotient against. Each value is the Kato-Temple upper bound
    theta1 + |r1|^2 / (theta1 - theta2 - |r2|) of the top Ritz pair (theta1
    + |r1| when that gap is not positive) of the frame's one-frame operator
    (`assemble_rows` of its stacked rows), and each frame's solve starts
    from the previous frame's Ritz block.

    Raises
    ------
    ConvergenceFailure
        If a frame's top pair fails the residual check.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    idx = sorted(set(range(0, len(traj), stride)) | {len(traj) - 1})
    times = np.array([traj.times[i] for i in idx])
    values = np.empty(len(idx))
    block = None
    for j, i in enumerate(idx):
        vals, block, norms = _top_pairs(assemble_rows(*traj.stacked(i)), 1, block)
        gap = vals[0] - vals[1] - norms[1]
        values[j] = vals[0] + (norms[0] ** 2 / gap if gap > 0 else norms[0])
    return times, values, float(values.max())
