"""Self-adjoint discretization of the drift operator and its spectrum.

The drift operator acts on fields over a closed base curve; in the Gaussian
inner product it is self adjoint, with quadratic form

    form(u, v) = -integral grad(u) . grad(v) dmu + integral (H^2 + 1/2) u v dmu

where dmu is the Gaussian-weighted arclength measure. We discretize the form
directly: the stiffness part uses first derivatives on a staggered half grid
(midpoints of the parameter grid), the potential part is a diagonal lumped
mass. Symmetry is then exact by construction, the spectrum is real, and on a
centered round circle every eigenvalue is reproduced to rounding because the
coefficient of the stiffness term is constant there.

The staggered grid matters: a collocated first-difference matrix annihilates
the highest (sawtooth) mode, which would fold a spurious eigenvalue into the
interior of the spectrum. On the half grid the sawtooth keeps its full
derivative, so the discrete symbol is monotone all the way to the grid limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, ioutil
from .curvegeo import (TWO_PI, DiscreteCurve, gaussian_density,
                       gaussian_weights, geometry)
from .errors import ConvergenceFailure, DegenerateCurve

__all__ = [
    "WeightedOperator",
    "Spectrum",
    "assemble",
    "eigenpairs",
    "rayleigh_bound",
]


@dataclass(frozen=True)
class WeightedOperator:
    """Matrix form of the drift operator on one base curve.

    Attributes
    ----------
    base : DiscreteCurve
        The curve the fields live on.
    quad_form : ndarray, shape (m, m)
        Symmetric matrix Q with form(u, v) = u @ Q @ v.
    weights : ndarray, shape (m,)
        Diagonal Gaussian mass (quadrature weights of dmu); the operator in
        strong form is diag(1/weights) @ Q.
    """

    base: DiscreteCurve
    quad_form: np.ndarray
    weights: np.ndarray

    @property
    def m(self) -> int:
        return self.base.m

    def form(self, u: np.ndarray, v: np.ndarray) -> float:
        """Bilinear form value form(u, v); symmetric in its arguments."""
        return float(np.asarray(u, float) @ self.quad_form @ np.asarray(v, float))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Strong-form action: solve the mass out of the weak form."""
        return (self.quad_form @ np.asarray(u, float)) / self.weights

    def trace(self) -> float:
        """Trace of the strong-form operator (sum of all eigenvalues)."""
        return float(np.sum(np.diag(self.quad_form) / self.weights))


@dataclass(frozen=True)
class Spectrum:
    """Top eigenpairs of the weighted operator, eigenvalues descending.

    eigenfunctions holds one field per column, orthonormal in the Gaussian
    inner product of the base curve.
    """

    m: int
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    top_eigenvalue: float

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "Lambda": float(self.top_eigenvalue),
        }

    def save(self, path) -> None:
        ioutil.dump_json(self.to_dict(), path)


def assemble(base: DiscreteCurve) -> WeightedOperator:
    """Build the symmetric weak-form matrix of the drift operator.

    The stiffness coefficient rho/g (Gaussian density over metric speed) is
    interpolated to the staggered half grid, so the assembled matrix is
    exactly -D_half^T C D_half + diag(mass * (H^2 + 1/2)) with an
    antisymmetry-free D_half.

    Raises
    ------
    DegenerateCurve
        If the base metric collapses, or the interpolated stiffness
        coefficient loses positivity (wildly under-resolved data).
    """
    fields = geometry(base)
    m = base.m
    c_half = fourier.staggered_interp(gaussian_density(base.points)
                                      / fields.metric_speed)
    if float(c_half.min()) <= 0.0:
        raise DegenerateCurve("stiffness coefficient lost positivity on the "
                              "half grid; curve is under-resolved")
    d_half = fourier.staggered_matrix(m)
    h = TWO_PI / m
    quad = -h * (d_half.T * c_half) @ d_half
    mass = gaussian_weights(base)
    potential = mass * (fields.curvature ** 2 + 0.5)
    idx = np.arange(m)
    quad[idx, idx] += potential
    quad = 0.5 * (quad + quad.T)  # kill rounding asymmetry
    return WeightedOperator(base=base, quad_form=quad, weights=mass)


def _mass_symmetrized(op: WeightedOperator):
    """(sqrt(mass), M^(-1/2) Q M^(-1/2)): the strong form as a symmetric matrix."""
    root = np.sqrt(op.weights)
    return root, op.quad_form / root[:, None] / root[None, :]


def eigenpairs(op, count: int | None = None) -> Spectrum:
    """Top eigenpairs of the weighted operator, descending.

    Parameters
    ----------
    op : WeightedOperator or DiscreteCurve
        A curve is assembled first.
    count : int, optional
        How many pairs to keep (default 13: the round-circle spectrum down
        to mode 6). count = m returns the full spectrum.

    Raises
    ------
    ConvergenceFailure
        If any reported pair fails the weighted residual check.
    """
    if isinstance(op, DiscreteCurve):
        op = assemble(op)
    m = op.m
    if count is None:
        count = min(13, m)
    if not 1 <= count <= m:
        raise ValueError("count must be between 1 and m = %d" % m)
    root, sym = _mass_symmetrized(op)
    vals, vecs = np.linalg.eigh(sym)
    vals = vals[::-1][:count]
    vecs = vecs[:, ::-1][:, :count]
    resid = sym @ vecs - vecs * vals[None, :]
    tol = 1e-8 * np.maximum(1.0, np.abs(vals))
    worst = np.sqrt(np.sum(resid ** 2, axis=0))
    if np.any(worst > tol):
        raise ConvergenceFailure(
            "eigenpair residual %.3g exceeds tolerance" % worst.max())
    fields = vecs / root[:, None]
    return Spectrum(m=m, eigenvalues=vals.copy(),
                    eigenfunctions=fields,
                    top_eigenvalue=float(vals[0]))


def rayleigh_bound(traj, stride: int = 1):
    """Per-frame top eigenvalue along a rescaled trajectory.

    Returns (times, values, uniform) where uniform = max over the sampled
    frames; that maximum is the constant the frequency monitor compares the
    Rayleigh quotient against.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    idx = list(range(0, len(traj), stride))
    if idx[-1] != len(traj) - 1:
        idx.append(len(traj) - 1)
    times = np.array([traj.times[i] for i in idx])
    values = np.empty(len(idx))
    for j, i in enumerate(idx):
        _, sym = _mass_symmetrized(assemble(traj.curves[i]))
        values[j] = float(np.linalg.eigvalsh(sym)[-1])
    return times, values, float(values.max())
