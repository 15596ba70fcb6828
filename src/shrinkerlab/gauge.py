"""Normal graphs over a base curve and the linearization residual.

A nearby curve is written as x + u(x) * nu(x) over a base curve (the graph
gauge). `normal_graph` extracts u by intersecting each base normal line with
the target polyline (`curvegeo.crossings`) and polishing the crossing by a
2x2 Newton iteration on the target's trigonometric interpolant; it is the
one crossing search and the only source of NotAGraph. `normal_graphs` does
the same for a sequence of frame pairs whose bases share one m and whose
targets share one m, with no search: the frames of a
`curvegeo.frame_blocks` block run the same Newton iteration in lockstep on
one stacked table of their targets, seeded at node j's own parameter (the
index seed),
and a frame is accepted under a convexity certificate, at node
resolution, that its crossing is the only one within reach/2 (Blaschke's
rolling disk); a frame that fails it falls back to `normal_graph`.
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

`residuals` measures how well triples of graphs over fixed bases solve
du/dtau = L u, the quadratic error term of the linearization, as one dict
of stacked columns, each row bit for bit that of its frame alone;
`residual` is the row of one frame.
"""

from __future__ import annotations

import numpy as np

from . import fourier, spectral
from .curvegeo import (STACK_NODES, TWO_PI, DiscreteCurve, crossings,
                       frame_blocks, geometry, hausdorff_distance,
                       refined_extremes, star_angles)
from .errors import NotAGraph

#: relative u-gap below which two normal-line hits count as the same point
_CLUSTER_TOL = 1e-8


def arc_rows(speed: np.ndarray, values: np.ndarray):
    """(u', u'') along the last axis of values, ' the arclength derivative
    of curves with metric speed `speed` (broadcast against values): a stack
    of frames (frames, m) in one pass, each row equal to its own call."""
    du = fourier.deriv(values, 1, -1) / speed
    return du, fourier.deriv(du, 1, -1) / speed


def reconstruct(base: DiscreteCurve, values) -> DiscreteCurve:
    """Curve traced by x + u * nu over the base (validated)."""
    values = np.asarray(values, dtype=float)
    normal = geometry(base).normal
    return DiscreteCurve(base.points + values[:, None] * normal)


def _newton(table, x, nu, theta, u):
    """2x2 Newton on c_f(theta) - x - u nu = 0 for frames f, the rows of x
    and nu (F, m, 2) and of theta and u (F, m), updated in place; `table`
    is the order-1 `Interpolant` of the F targets, one coefficient set at
    F = 1 and else stacked. At most four steps, each one evaluation of the
    table at every live frame, whose rows are read as views while every
    frame is live; a frame stops once its largest theta step is below
    1e-12, so its result does not depend on the other frames. Returns
    (converged, tangent): per frame whether its residual |c - x - u nu| is
    within 1e-9 (1 + max|u|) at every node, and c'(theta) at its last
    evaluation. The residual before a last sub-1e-12 step bounds the one
    after and decides when it passes; else, and after the fourth step, the
    final iterates of the frames that did not pass are evaluated afresh in
    one call: u's equation is linear, so a theta step below 1e-12 can
    still move u by as much as the residual before it (a seed on the
    crossing's parameter but off its height).
    """
    count = len(x)

    def evaluate(frames):
        """(c, c') at theta of the frames, and their row index."""
        if frames.size == count:
            return table(theta), slice(None)
        return table(theta[frames], frames), frames

    err = np.full(count, np.inf)
    tangent = np.empty(x.shape)
    live = np.arange(count)
    for _ in range(4):
        (c_val, c_der), at = evaluate(live)
        xs, ns, us = x[at], nu[at], u[at]
        fx = c_val[..., 0] - xs[..., 0] - us * ns[..., 0]
        fy = c_val[..., 1] - xs[..., 1] - us * ns[..., 1]
        det = -(c_der[..., 0] * ns[..., 1] - c_der[..., 1] * ns[..., 0])
        dth = (fx * ns[..., 1] - fy * ns[..., 0]) / det
        theta[at] += dth
        u[at] = us + (c_der[..., 1] * fx - c_der[..., 0] * fy) / det
        tangent[at] = c_der
        done = np.abs(dth).max(axis=1) < 1e-12
        err[live[done]] = np.hypot(fx, fy)[done].max(axis=1)
        live = live[~done]
        if not live.size:
            break
    tol = 1e-9 * (1.0 + np.abs(u).max(axis=1))
    again = np.nonzero(~(err <= tol))[0]
    if again.size:
        (c_val, tangent[again]), at = evaluate(again)
        xs, ns, us = x[at], nu[at], u[at]
        err[again] = np.hypot(c_val[..., 0] - xs[..., 0] - us * ns[..., 0],
                              c_val[..., 1] - xs[..., 1] - us * ns[..., 1]
                              ).max(axis=1)
    return err <= tol, tangent


def normal_graph(base: DiscreteCurve, target: DiscreteCurve,
                 reach: float | None = None) -> np.ndarray:
    """The (m,) heights u that write `target` as a normal graph over `base`.

    Each base normal segment x +- (reach/2) nu is intersected with the
    target polyline by `curvegeo.crossings`, over the target segments whose
    polar sectors its sweep meets (every segment when the target is not
    star-shaped); the unique crossing seeds the 2x2 Newton iteration
    `_newton` on the target's trigonometric interpolant. NotAGraph if a
    normal line finds no crossing or more than one within the window, or
    if the iteration fails to converge, or if the final height reaches
    reach/2.

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
    # group the crossings by normal, ordered by height within each group
    # (ties by segment); crossings at shared segment endpoints appear twice,
    # so real multiplicity shows as u-gaps far above rounding: a cluster
    # starts at each normal's first crossing and at each such gap
    order = np.lexsort((cols, uvals, rows))
    rows_s = rows[order]
    cols_s = cols[order]
    u_s = uvals[order]
    starts_cluster = np.ones(rows_s.size, dtype=bool)
    starts_cluster[1:] = (np.diff(u_s) > tol) | (rows_s[1:] != rows_s[:-1])
    clusters = np.bincount(rows_s[starts_cluster], minlength=m)
    bad = np.flatnonzero(clusters != 1)
    if bad.size:
        j = int(bad[0])
        if not clusters[j]:
            raise NotAGraph("no target point within reach/2 along normal %d"
                            % j)
        raise NotAGraph("normal %d crosses the target %d times within "
                        "reach/2" % (j, clusters[j]))
    starts = np.searchsorted(rows_s, np.arange(m))
    seg = cols_s[starts]
    frac = np.clip(svals[order][starts], 0.0, 1.0)

    curve_at = fourier.Interpolant(fourier.coeffs(p), target.m, 1)
    theta = (seg + frac) * (TWO_PI / target.m)
    u = u_s[starts]
    if not _newton(curve_at, x[None], nu[None], theta[None], u[None])[0][0]:
        raise NotAGraph("graph iteration failed to converge onto the target")
    if float(np.abs(u).max()) >= half:
        raise NotAGraph("graph height %.3g reaches reach/2 = %.3g"
                        % (np.abs(u).max(), half))
    return u


def normal_graphs(bases, targets) -> np.ndarray:
    """The heights (frames, m) that write targets[f] as a normal graph over
    bases[f], for a sequence of frame pairs whose bases share one m and
    whose targets share one m (ValueError otherwise); each row equals
    `normal_graph` of its pair to about 1e-12 relative.

    Index seed: the frames go in `curvegeo.frame_blocks` of STACK_NODES
    base nodes, each block's targets in one stacked order-1 `Interpolant`
    (one rfft of their points and one irfft of the products), and the
    Newton iteration of `normal_graph` (`_newton`, one evaluation of that
    table per step for every live frame, each frame stopping on its own
    criterion, so a row is bit for bit that of its frame alone) starts at
    u = 0 and at node j's own parameter theta_j = 2 pi j/m, with no
    crossing search (a target of another m is read at the same fraction
    of its parameter: the Newton points number the bases' m). A frame is
    accepted when it passes the convergence check of `normal_graph`,
    |u| < reach/2 with the default reach 1/max|H| of the target, and this
    certificate holds at every node: the target has positive node
    curvature, and
    2 R cos(alpha) - |u| >= reach/2, with R = 1/max H and alpha the angle
    between the base normal and the target normal at the crossing. Then the
    crossing is the only one within reach/2: a convex curve of curvature at
    most 1/R holds, at each of its points, the disk of radius R tangent
    there (Blaschke's rolling theorem), so a line through the point at
    angle alpha to its normal keeps the chord of that disk, of length
    2 R cos(alpha), inside the curve; a line meets a convex curve at most
    twice, so its other crossing lies at least 2 R cos(alpha) along the
    line from this one, at a height of size at least 2 R cos(alpha) - |u|.
    The certificate holds at node resolution, as the default reach does:
    H and its sign are read at the nodes, and the interpolant's curvature
    between nodes may exceed their maximum; alpha is read at the last
    evaluation, within 1e-12 in theta of the crossing.

    Fallback: a frame that fails any of these goes through `normal_graph`
    unchanged, the one crossing search and the only source of NotAGraph,
    whose error then carries the frame index as `frame`.
    """
    count = len(targets)
    m = bases[0].m if count else 1
    if any(b.m != m for b in bases):
        raise ValueError("normal_graphs needs bases of one m")
    m_target = targets[0].m if count else 1
    if any(t.m != m_target for t in targets):
        raise ValueError("normal_graphs needs targets of one m")
    heights = np.zeros((count, m))
    seed = fourier.grid(m)
    for block in frame_blocks(count, m, STACK_NODES):
        frames = range(count)[block]
        x = np.stack([bases[f].points for f in frames])
        nu = np.stack([geometry(bases[f]).normal for f in frames])
        curv = [geometry(targets[f]).curvature for f in frames]
        table = fourier.Interpolant(
            np.fft.rfft(np.stack([targets[f].points for f in frames]), axis=1),
            m_target, 1, stacked=True)
        theta = np.tile(seed, (len(frames), 1))
        u = heights[block]
        # a seed far from the crossing may step through a tangency or off
        # to infinity; such a frame fails the checks below
        with np.errstate(all="ignore"):
            converged, tangent = _newton(table, x, nu, theta, u)
            half = np.array([0.5 / np.abs(h).max() for h in curv])
            cos_a = (np.abs(tangent[..., 0] * nu[..., 1]
                            - tangent[..., 1] * nu[..., 0])
                     / np.hypot(tangent[..., 0], tangent[..., 1]))
            ok = (converged & np.array([h.min() > 0.0 for h in curv])
                  & (np.abs(u).max(axis=1) < half)
                  & np.all(4.0 * half[:, None] * cos_a - np.abs(u)
                           >= half[:, None], axis=1))
        for r in np.nonzero(~ok)[0]:
            f = frames[r]
            try:
                u[r] = normal_graph(bases[f], targets[f])
            except NotAGraph as exc:
                exc.frame = f
                raise
    return heights


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
        dh[rows] = refined_extremes(
            lambda r, theta: fourier.mode_sum(coef, m, r, theta, 2), u,
            TWO_PI / m, scale)
    return dh


def apply_L(base: DiscreteCurve, values) -> np.ndarray:
    """Drift-Laplacian linearization at `base` applied to a grid function:
    the strong form of `spectral.assemble(base)`, self-adjoint under the
    Gaussian weights of the base."""
    return spectral.assemble(base).apply(values)


def residual(base: DiscreteCurve, u_prev, u_mid, u_next, dtau: float) -> dict:
    """The `residuals` row of one frame, three equally spaced height arrays
    over base: each column a scalar, drift an (m,) array."""
    cols = residuals([base], [u_prev], [u_mid], [u_next], dtau)
    return {name: col[0] for name, col in cols.items()}


def residuals(bases, u_prev, u_mid, u_next, dtau) -> dict:
    """How far graphs u_prev[r], u_mid[r], u_next[r] (frames, m) over
    bases[r], of one m, a dtau (or one per frame) apart, are from solving
    du/dtau = L u, du/dtau the centered difference across the outer graphs,
    as stacked columns over the frames: maxResidual = sup|du/dtau - L u| at
    u_mid, fittedC the smallest C with |residual| <= C (|u| + |u'|)
    nodewise, normC0 = sup|u|, normC01 = normC0 + sup|u'|, the C2 norm
    normC012 = normC01 + sup|u''|, quadRatio = maxResidual / (normC012
    normC01), and the (frames, m) rows drift = L u_mid.

    L u_mid comes from `spectral.apply_rows` and the arc derivatives from
    `arc_rows`, stacked rfft/irfft passes whose rows equal their own calls,
    so each row is bit for bit that of its frame alone; memory is
    O(frames m), so callers pass long sequences in `curvegeo.frame_blocks`.
    """
    u_prev, u_mid, u_next = (np.asarray(a, dtype=float)
                             for a in (u_prev, u_mid, u_next))
    dtau = np.broadcast_to(np.asarray(dtau, dtype=float), (len(bases),))
    du_dt = (u_next - u_prev) / (2.0 * dtau[:, None])
    drift = spectral.apply_rows([spectral.assemble(b) for b in bases], u_mid)
    res = np.abs(du_dt - drift)
    du, d2u = arc_rows(np.stack([geometry(b).metric_speed for b in bases]),
                       u_mid)
    c0, c1, c2 = (np.abs(f).max(axis=1) for f in (u_mid, du, d2u))
    gauge_size = np.abs(u_mid) + np.abs(du)
    c01 = c0 + c1
    c012 = c01 + c2
    top = res.max(axis=1)
    return {"maxResidual": top,
            "fittedC": (res / (gauge_size + 1e-14)).max(axis=1),
            "normC0": c0, "normC01": c01, "normC012": c012,
            "quadRatio": top / (c012 * c01 + 1e-300),
            "drift": drift}
