"""Normal graphs over a base curve and the linearization residual.

A nearby curve is written as x + u(x) * nu(x) over a base curve (the graph
gauge). `normal_graph` extracts u by intersecting each base normal line with
the target and polishing on the target's trigonometric interpolant;
`reconstruct` goes the other way. `graph_hausdorff` reads the Hausdorff
distances off a sequence of graphs between convex curves: sup|u| in closed
form while it stays below half of both reaches (1/max H), the node extremes
of all frames refined in one pass on the direct mode sums of u; beyond
that, the support-function distance `curvegeo.hausdorff_distance`.
`apply_L` is the linearization of the rescaled flow at a stationary base:

    L u = u'' - <x, T>/2 * u' + (H^2 + 1/2) u      (' = arclength derivative)

evaluated by the one discretization of L, the weak form of
`spectral.assemble`. On the round base of radius sqrt(2) the
eigenfunctions are Fourier modes with L cos(k theta) = (1 - k^2/2) cos(k
theta).

`residual` measures how well a sequence of graphs over a fixed base solves
du/dtau = L u, quantifying the quadratic error term of the linearization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, spectral
from .curvegeo import (TWO_PI, DiscreteCurve, crossings, frame_blocks,
                       geometry, hausdorff_distance, refined_extremes,
                       star_angles)
from .errors import NotAGraph

#: relative u-gap below which two normal-line hits count as the same point
_CLUSTER_TOL = 1e-8


def arc_derivatives(base: DiscreteCurve, values: np.ndarray):
    """(u', u'') of grid values u, ' the arclength derivative along `base`."""
    g = geometry(base).metric_speed
    du = fourier.deriv(values, 1) / g
    return du, fourier.deriv(du, 1) / g


def reconstruct(base: DiscreteCurve, values) -> DiscreteCurve:
    """Curve traced by x + u * nu over the base (validated)."""
    values = np.asarray(values, dtype=float)
    normal = geometry(base).normal
    return DiscreteCurve(base.points + values[:, None] * normal)


def normal_graph(base: DiscreteCurve, target: DiscreteCurve,
                 reach: float | None = None) -> np.ndarray:
    """The (m,) heights u that write `target` as a normal graph over `base`.

    Each base normal segment x +- (reach/2) nu is intersected with the
    target polyline by `curvegeo.crossings`, over the target segments whose
    polar sectors its sweep meets (every segment when the target is not
    star-shaped); the unique crossing seeds a 2x2 Newton iteration on the
    target's trigonometric interpolant. NotAGraph if a normal line finds
    no crossing or more than one within the window, or if the final
    height reaches reach/2.

    reach defaults to 1/max|H| of the target.
    """
    if reach is None:
        reach = 1.0 / float(np.abs(geometry(target).curvature).max())
    half = 0.5 * reach
    base_geom = geometry(base)
    x = base.points
    nu = base_geom.normal
    p = target.points
    m = base.m
    rows, cols, uvals, svals = crossings(x, nu, half, p, star_angles(p))

    tol = _CLUSTER_TOL * (1.0 + reach)
    counts = np.bincount(rows, minlength=m)
    # group the crossings by normal, ordered by height within each group
    # (ties by segment); crossings at shared segment endpoints appear twice,
    # so real multiplicity shows as u-gaps far above rounding
    order = np.lexsort((cols, uvals, rows))
    rows_s = rows[order]
    cols_s = cols[order]
    u_s = uvals[order]
    gap = (np.diff(u_s) > tol) & (rows_s[1:] == rows_s[:-1])
    no_hit = np.nonzero(counts == 0)[0]
    j_zero = int(no_hit[0]) if no_hit.size else m
    bad = rows_s[1:][gap]
    j_gap = int(bad.min()) if bad.size else m
    if min(j_zero, j_gap) < m:
        if j_zero < j_gap:
            raise NotAGraph("no target point within reach/2 along normal %d"
                            % j_zero)
        uj = u_s[rows_s == j_gap]
        clusters = 1 + int(np.count_nonzero(np.diff(uj) > tol))
        raise NotAGraph("normal %d crosses the target %d times within "
                        "reach/2" % (j_gap, clusters))
    starts = np.searchsorted(rows_s, np.arange(m))
    u0 = u_s[starts]
    seg = cols_s[starts]
    frac = np.clip(svals[order][starts], 0.0, 1.0)

    # Newton polish on the target interpolant: c(theta) - x - u nu = 0
    curve_at = fourier.Interpolant(fourier.coeffs(p), target.m, 1)
    theta = (seg + frac) * (TWO_PI / target.m)
    u = u0.copy()
    for _ in range(4):
        c_val, c_der = curve_at(theta)
        fx = c_val[:, 0] - x[:, 0] - u * nu[:, 0]
        fy = c_val[:, 1] - x[:, 1] - u * nu[:, 1]
        det = -(c_der[:, 0] * nu[:, 1] - c_der[:, 1] * nu[:, 0])
        dth = (fx * nu[:, 1] - fy * nu[:, 0]) / det
        theta += dth
        u += (c_der[:, 1] * fx - c_der[:, 0] * fy) / det
        if float(np.abs(dth).max()) < 1e-12:
            # the residual before this sub-1e-12 step bounds the one after
            err = np.hypot(fx, fy)
            break
    else:
        c_val = curve_at(theta)[0]
        err = np.hypot(c_val[:, 0] - x[:, 0] - u * nu[:, 0],
                       c_val[:, 1] - x[:, 1] - u * nu[:, 1])
    if float(err.max()) > 1e-9 * (1.0 + float(np.abs(u).max())):
        raise NotAGraph("graph iteration failed to converge onto the target")
    if float(np.abs(u).max()) >= half:
        raise NotAGraph("graph height %.3g reaches reach/2 = %.3g"
                        % (np.abs(u).max(), half))
    return u


def graph_hausdorff(bases, fields, targets) -> np.ndarray:
    """Hausdorff distances between convex curves bases[j] and targets[j],
    the curve the graph heights fields[j] write over bases[j]
    (targets[j] = bases[j] + fields[j] nu), for sequences of one m.

    While sup|u| stays below half of both reaches (1/max H for a convex
    closed curve), d_H = sup|u| exactly: each target point x + u nu lies on
    the base normal at x within the base's reach, so its distance to the
    base is |u|, and each base point is within |u| of the target. The
    maxima and minima of those u are `refined_extremes` on u' = 0, all
    frames of a `frame_blocks` block in one pass, their points evaluated
    by `fourier.mode_sum`; a result is never below the node maximum of
    |u|. Beyond half a reach, `hausdorff_distance` measures the pair, which
    raises InvalidCurve if either curve has a node curvature <= 0.
    """
    dh = np.empty(len(fields))
    closed = []
    for j, (base, u, target) in enumerate(zip(bases, fields, targets)):
        if (float(np.abs(u).max())
                >= 0.5 / max(float(geometry(base).curvature.max()),
                             float(geometry(target).curvature.max()))):
            dh[j] = hausdorff_distance(base, target)
        else:
            closed.append(j)
    m = len(fields[0]) if len(fields) else 1
    for block in frame_blocks(len(closed), m):
        rows = closed[block]
        u = np.stack([fields[j] for j in rows])
        coef = np.fft.rfft(u, axis=-1)
        scale = np.array([np.abs(bases[j].points).max() for j in rows])
        top, bottom = refined_extremes(
            lambda r, theta: fourier.mode_sum(coef, m, r, theta, 2), u,
            TWO_PI / m, scale)
        dh[rows] = np.maximum(top, -bottom)
    return dh


def apply_L(base: DiscreteCurve, values) -> np.ndarray:
    """Drift-Laplacian linearization at `base` applied to a grid function:
    the strong form of `spectral.assemble(base)`, self-adjoint under the
    Gaussian weights of the base."""
    return spectral.assemble(base).apply(values)


@dataclass
class ResidualReport:
    """How far three consecutive graphs are from solving du/dtau = L u.

    max_residual = sup |du/dtau - L u| at the middle frame; fitted_c is the
    smallest C with |residual| <= C (|u| + |u'|) pointwise; quad_ratio
    normalizes by the quadratic smallness scale ||u||_C2 (sup|u|+sup|u'|).
    drift is L u at the middle frame.
    """

    tau: float
    max_residual: float
    fitted_c: float
    norms_u: tuple
    quad_ratio: float
    drift: np.ndarray

    def to_dict(self):
        return {
            "tau": self.tau,
            "maxResidual": self.max_residual,
            "fittedC": self.fitted_c,
            "normsU": [self.norms_u[0], self.norms_u[1], self.norms_u[2]],
            "quadRatio": self.quad_ratio,
        }


def residual(base: DiscreteCurve, u_prev, u_mid, u_next, dtau: float,
             tau: float = 0.0) -> ResidualReport:
    """Linearization residual at the middle of three equally spaced graphs,
    given as height arrays u over the fixed base.

    du/dtau is the centered difference across the outer graphs; the residual
    is du/dtau - L u_mid, evaluated nodewise.
    """
    du_dt = (u_next - u_prev) / (2.0 * dtau)
    drift = apply_L(base, u_mid)
    res = du_dt - drift
    du, d2u = arc_derivatives(base, u_mid)
    c0, c1, c2 = (float(np.abs(f).max()) for f in (u_mid, du, d2u))
    gauge_size = np.abs(u_mid) + np.abs(du)
    fitted_c = float((np.abs(res) / (gauge_size + 1e-14)).max())
    cum_c2 = c0 + c1 + c2
    quad_ratio = float(np.abs(res).max() / (cum_c2 * (c0 + c1) + 1e-300))
    return ResidualReport(
        tau=float(tau),
        max_residual=float(np.abs(res).max()),
        fitted_c=fitted_c,
        norms_u=(c0, c0 + c1, cum_c2),
        quad_ratio=quad_ratio,
        drift=drift,
    )
