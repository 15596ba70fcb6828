"""Discrete closed plane curves and their Gaussian-weighted geometry.

A curve is a closed polyline sampled on the uniform parameter grid
theta_j = 2*pi*j/m (even m), interpreted as samples of a smooth closed curve
via trigonometric interpolation. Curves are counterclockwise (a validated
construction reverses clockwise input), so the inner unit normal is the
tangent rotated by +90 degrees and convex curves have positive curvature.

The weighted measure throughout is the Gaussian  exp(-|x|^2/4) d(arclength);
`f_functional` is the normalized total mass (4*pi)^(-1/2) * integral, which
equals sqrt(2*pi)*exp(-1/2) ~ 1.5203469 on the round curve of radius sqrt(2),
the stationary profile of the rescaled flow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import fourier
from .errors import DegenerateCurve, InterpolationFailure, InvalidCurve

TWO_PI = 2.0 * np.pi

#: Metric speed below this is treated as a degenerate parametrization.
METRIC_FLOOR = 1e-10

#: Maximum allowed ratio of largest to smallest node spacing.
SPACING_RATIO_MAX = 10.0

MIN_NODES = 16

#: lowest mode random_fourier perturbs; mode 1 would move the centroid
_RANDOM_KMIN = 2


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area of the closed polygon (positive = CCW)."""
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def area_centroid_rows(x, y, dx, dy):
    """Enclosed area and region centroid (area, cx, cy): spectral quadrature
    of A = 1/2 * closed integral of x dy - y dx and of the first moments, from
    samples x, y on the uniform grid and their theta-derivatives dx, dy along
    the last axis (leading axes index curves)."""
    w = TWO_PI / x.shape[-1]
    area = 0.5 * w * np.sum(x * dy - y * dx, axis=-1)
    cx = 0.5 * w * np.sum(x * x * dy, axis=-1) / area
    cy = -0.5 * w * np.sum(y * y * dx, axis=-1) / area
    return area, cx, cy


def area_centroid(points: np.ndarray) -> tuple[float, float, float]:
    """Enclosed area and region centroid (area, cx, cy) of the interpolated
    curve through the (m, 2) samples `points`, see :func:`area_centroid_rows`."""
    d1 = fourier.deriv(points, 1)
    return tuple(float(v) for v in area_centroid_rows(*points.T, *d1.T))


def gaussian_density(points: np.ndarray) -> np.ndarray:
    """Per-node Gaussian density exp(-|x|^2/4) of (..., m, 2) points."""
    return np.exp(-0.25 * np.einsum("...ij,...ij->...i", points, points))


def segment_lengths(points: np.ndarray) -> np.ndarray:
    """Chord lengths |p_{j+1} - p_j| of the closed polyline."""
    d = np.empty_like(points)  # np.roll(points, -1, axis=0) - points
    np.subtract(points[1:], points[:-1], out=d[:-1])
    np.subtract(points[0], points[-1], out=d[-1])
    return np.hypot(d[:, 0], d[:, 1])


def star_angles(points: np.ndarray):
    """(c, sorted polar angles about c, the roll j0 that sorts them) for the
    vertex mean c of the polyline, or None if it is not star-shaped about c.

    Star-shaped here is a sufficient simplicity test, O(m): the polar
    angles about the mean must advance strictly, each step under pi,
    winding exactly once. Then every ray from the mean meets the polyline
    once, so it cannot cross itself, and segment i lies in the angular
    sector between its end vertices: sector k of the sorted order, from
    sorted vertex k to k + 1, is segment (k + j0) mod m.
    """
    c = points.mean(axis=0)
    ang = np.arctan2(points[:, 1] - c[1], points[:, 0] - c[0])
    step = (np.roll(ang, -1) - ang) % (2.0 * np.pi)
    if not bool(np.all((step > 1e-12) & (step < np.pi - 1e-12))):
        return None
    if abs(float(step.sum()) - 2.0 * np.pi) >= 1e-9:
        return None
    j0 = int(np.argmin(ang))
    return c, np.roll(ang, -j0), j0


#: the crossing search runs in blocks of whole rows of at most _ROWS x m_t
#: candidate pairs: _ROWS rows when every row is full, all of them at once
#: when each row holds a few segments
_ROWS = 256


def _windows(j, x, nu, half: float, m_t: int, sectors):
    """(first, count): the run of polyline segments first, first + 1, ...
    (count of them, mod m_t) that segment j, x_j +- half nu_j, may cross.

    If the polyline is star-shaped about its vertex mean c (`sectors` its
    `star_angles`), segment i lies in the angular sector between its end
    vertices, and every point of segment j lies on the arc between the
    angles of its two end points (the shorter one; when the segment passes
    through c, its crossings sit at the ends of either half-turn). Row j
    takes the segments whose sectors meet that arc, widened by one segment
    on each side for crossings within the s-slack of a segment end. A row
    takes every segment when that range would cover them all, and every
    row does when `sectors` is None.
    """
    count = np.full(j.size, m_t)
    first = np.zeros(j.size, dtype=np.intp)
    if sectors is not None:
        c, sorted_ang, j0 = sectors
        e0 = x[j] - half * nu[j] - c
        e1 = x[j] + half * nu[j] - c
        a0 = np.arctan2(e0[:, 1], e0[:, 0])
        a1 = np.arctan2(e1[:, 1], e1[:, 0])
        # the shorter arc runs counterclockwise from a0 to a1 (the sign of a
        # difference is exact; a wrapped one flips it)
        turn = a1 - a0
        ccw = np.where(np.abs(turn) <= np.pi, turn >= 0.0, turn < 0.0)
        k_lo = np.searchsorted(sorted_ang, np.where(ccw, a0, a1)) - 1
        k_hi = np.searchsorted(sorted_ang, np.where(ccw, a1, a0)) - 1
        # sectors k_lo..k_hi, and one more on each side
        span = (k_hi - k_lo) % m_t + 3
        windowed = span < m_t
        count[windowed] = span[windowed]
        first[windowed] = (k_lo[windowed] - 1 + j0) % m_t
    return first, count


def _pairs(j, first, count, m_t: int):
    """(rows, cols): every pair of a row j and a segment of its window."""
    offsets = np.cumsum(count) - count
    rows = np.repeat(j, count)
    cols = (np.arange(rows.size) + np.repeat(first - offsets, count)) % m_t
    return rows, cols


def _crossings(rows, cols, x, nu, half: float, p, d):
    """(rows, cols, u, s) of every crossing x_j + u nu_j = p_i + s d_i of the
    candidate pairs (j, i), rows and cols broadcast against each other,
    with |u| < half and s in [0, 1] up to 1e-9."""
    rx = p[cols, 0] - x[rows, 0]
    ry = p[cols, 1] - x[rows, 1]
    dx = d[cols, 0]
    dy = d[cols, 1]
    nx = nu[rows, 0]
    ny = nu[rows, 1]
    den = nx * dy - ny * dx
    ok = np.abs(den) > 1e-14
    den[~ok] = 1.0
    u = (rx * dy - ry * dx) / den
    s = (rx * ny - ry * nx) / den
    hit = ok & (s >= -1e-9) & (s <= 1.0 + 1e-9) & (np.abs(u) < half)
    rows, cols = np.broadcast_arrays(rows, cols)
    return rows[hit], cols[hit], u[hit], s[hit]


def crossings(x, nu, half: float, p, sectors):
    """(rows, cols, u, s) of every crossing x_j + u nu_j = p_i + s d_i of a
    segment x_j +- half nu_j with a segment of the closed polyline p,
    d_i = p_{i+1} - p_i, with |u| < half and s in [0, 1] up to 1e-9.

    Row j is tested exactly against the segments of its `_windows`, whose
    `sectors` are the `star_angles` of p (None: every segment), in blocks of
    whole rows holding at most _ROWS x m_t candidate pairs, so memory stays
    O(_ROWS m_t); a block whose rows all take every segment tests one
    (rows, 1) x (1, m_t) grid.
    """
    m_t = p.shape[0]
    d = np.roll(p, -1, axis=0) - p
    idx = np.arange(x.shape[0])
    first, width = _windows(idx, x, nu, half, m_t, sectors)
    ends = np.cumsum(width)
    blocks = []
    lo = start = 0
    while lo < idx.size:
        hi = int(np.searchsorted(ends, start + _ROWS * m_t, side="right"))
        if (width[lo:hi] == m_t).all():
            pairs = idx[lo:hi, None], np.arange(m_t)[None, :]
        else:
            pairs = _pairs(idx[lo:hi], first[lo:hi], width[lo:hi], m_t)
        blocks.append(_crossings(*pairs, x, nu, half, p, d))
        lo, start = hi, ends[hi - 1]
    return tuple(np.concatenate(a) for a in zip(*blocks))


def _has_self_intersection(points: np.ndarray) -> bool:
    """Proper-crossing test over all non-adjacent segment pairs.

    A star-shapedness pre-pass dispatches the overwhelmingly common convex
    and near-convex inputs in O(m). The rest pay one `crossings` search of
    the polyline's own segments, each doubled about its midpoint so that
    rounding cannot drop a crossing at its ends, scaled exactly to lengths
    at most 1 so the parallel cut of `_crossings` is one on the angle. A
    non-adjacent pair found counts when the arm through each segment
    crosses the other's line, an end of the segment within rounding of the
    line standing for the vertex beyond it: an arm through a vertex on the
    other segment crosses it, a vertex that only touches it does not.
    """
    if star_angles(points) is not None:
        return False
    m = points.shape[0]
    p = np.ldexp(points, -np.frexp(segment_lengths(points).max())[1])
    d = np.roll(p, -1, axis=0) - p
    j, i, _, _ = crossings(p + 0.5 * d, d, 1.0, p, None)

    def side(a, v):  # of vertex v by line a: +-1, or 0 within its rounding
        u = d[a, 0] * (p[v, 1] - p[a, 1])
        w = d[a, 1] * (p[v, 0] - p[a, 0])
        return np.sign(u - w) * (np.abs(u - w) > 8 * _EPS * (np.abs(u) + np.abs(w)))

    def straddles(a, b):  # the arm through segment b crosses line a
        s0, s1 = side(a, b), side(a, (b + 1) % m)
        s0 = np.where(s0 == 0, side(a, (b - 1) % m), s0)
        s1 = np.where(s1 == 0, side(a, (b + 2) % m), s1)
        return s0 * s1 < 0.0

    apart = ((j - i) % m > 1) & ((i - j) % m > 1)
    return bool(np.any(apart & straddles(j, i) & straddles(i, j)))


def _checked_nodes(pts: np.ndarray, validate: bool) -> np.ndarray:
    """`pts` after the construction checks of :class:`DiscreteCurve`: an
    (m, 2) array of finite values, m even and at least MIN_NODES, and when
    validating a simple polyline of bounded spacing ratio, returned reversed
    (a copy) if it runs clockwise. InvalidCurve otherwise."""
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidCurve("points must have shape (m, 2), got %r" % (pts.shape,))
    m = pts.shape[0]
    if m < MIN_NODES or m % 2 != 0:
        raise InvalidCurve("need an even number of nodes >= %d, got %d" % (MIN_NODES, m))
    if not np.all(np.isfinite(pts)):
        raise InvalidCurve("points contain non-finite values")
    if validate:
        if polygon_area(pts) < 0.0:
            pts = pts[::-1].copy()
        lengths = segment_lengths(pts)
        lmin = float(lengths.min())
        if lmin <= 0.0:
            raise InvalidCurve("coincident consecutive nodes")
        ratio = float(lengths.max()) / lmin
        if ratio > SPACING_RATIO_MAX:
            raise InvalidCurve(
                "node spacing ratio %.3g exceeds %.3g" % (ratio, SPACING_RATIO_MAX)
            )
        if _has_self_intersection(pts):
            raise InvalidCurve("polyline is not simple")
    return pts


class DiscreteCurve:
    """Closed plane curve sampled on the uniform periodic grid.

    Parameters
    ----------
    points : (m, 2) array_like
        Node positions; the polyline closes implicitly from the last node
        back to the first. m must be even and at least 16.
    validate : bool
        Orient the curve and run the construction invariants (simplicity,
        spacing ratio). Callers that already hold a simple counterclockwise
        curve may skip them; the node order is then kept as given.

    Notes
    -----
    A validated construction reverses clockwise input, so the curve is
    counterclockwise and the curvature of a convex curve is positive. Points
    are stored read-only; operations return new curves.
    """

    __slots__ = ("points", "m", "_geom")

    def __init__(self, points, *, validate: bool = True):
        pts = _checked_nodes(np.array(points, dtype=float), validate)
        pts.flags.writeable = False
        self.points = pts
        self.m = pts.shape[0]
        self._geom = None

    @classmethod
    def _view(cls, points, geom=None, *, validate=None) -> "DiscreteCurve":
        """The curve over the (m, 2) array `points` itself, not a copy: as
        given when validate is None, else after the checks of the
        constructor (which reverse a clockwise input into a copy when
        validating). The curve's own view of the nodes is read-only; its
        cached geometry is `geom`, the GeometryFields of the same row."""
        if validate is not None:
            points = _checked_nodes(points, validate)
        curve = cls.__new__(cls)
        curve.points = points.view()
        curve.points.flags.writeable = False
        curve.m = points.shape[0]
        curve._geom = geom
        return curve

    # -- basic derived quantities ------------------------------------------

    def spacing_ratio(self) -> float:
        lengths = segment_lengths(self.points)
        return float(lengths.max() / lengths.min())

    def area(self) -> float:
        """Enclosed area of the interpolated curve, see :func:`area_centroid`."""
        return area_centroid(self.points)[0]

    def scaled(self, factor: float) -> "DiscreteCurve":
        return DiscreteCurve(factor * self.points, validate=False)

    def __repr__(self):
        return "DiscreteCurve(m=%d)" % self.m


@dataclass
class GeometryFields:
    """Pointwise differential geometry of a curve.

    Attributes
    ----------
    tangent : (m, 2) ndarray
        Unit tangent along increasing parameter.
    normal : (m, 2) ndarray
        Inner unit normal (tangent rotated +90 degrees; CCW orientation).
    curvature : (m,) ndarray
        Signed curvature H; positive on convex curves.
    arclength_weights : (m,) ndarray
        Quadrature weights (2*pi/m) * metric_speed; they sum to the length
        of the interpolated curve.
    metric_speed : (m,) ndarray
        |dx/dtheta|.
    """

    tangent: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray
    arclength_weights: np.ndarray
    metric_speed: np.ndarray

    def __getitem__(self, rows) -> "GeometryFields":
        """The fields of frames `rows` of stacked fields, (frames, m, ...)."""
        return GeometryFields(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def joined(cls, parts, join=np.stack) -> "GeometryFields":
        """`parts` joined field by field (np.stack of curves' fields)."""
        return cls(*(join([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def speed_curvature(d1, d2, speed, curvature) -> None:
    """Fill `speed` with the metric speed g = |x'| and `curvature` with
    (x' ^ x'')/g^3 from the (2, m) rows (x', y') and (x'', y'') of a curve's
    theta-derivatives; DegenerateCurve if the metric speed < 1e-10."""
    g = np.hypot(d1[0], d1[1], out=speed)
    if float(g.min()) < METRIC_FLOOR:
        raise DegenerateCurve("metric speed %.3g below %.1g" % (g.min(), METRIC_FLOOR))
    np.divide(d1[0] * d2[1] - d1[1] * d2[0], g * g * g, out=curvature)


def unit_frame(tangent: np.ndarray, speed: np.ndarray):
    """Divide the (..., m, 2) rows x' of `tangent` by their metric speed
    (..., m) in place, to the unit tangent; returns the inner unit normal
    and the arclength weights (2*pi/m) * g of those rows."""
    tangent /= speed[..., None]
    normal = np.empty_like(tangent)
    np.negative(tangent[..., 1], out=normal[..., 0])
    normal[..., 1] = tangent[..., 0]
    return normal, (TWO_PI / speed.shape[-1]) * speed


def geometry_rows(d1: np.ndarray, d2: np.ndarray) -> GeometryFields:
    """Geometry fields from the (2, m) rows (x', y') and (x'', y'') of a
    curve's theta-derivatives; DegenerateCurve if the metric speed < 1e-10."""
    speed, curvature = np.empty((2, d1.shape[-1]))
    speed_curvature(d1, d2, speed, curvature)
    tangent = d1.T.copy()
    normal, weights = unit_frame(tangent, speed)
    return GeometryFields(tangent, normal, curvature, weights, speed)


def geometry(curve: DiscreteCurve) -> GeometryFields:
    """Spectral differential geometry fields of `curve`, see
    :func:`geometry_rows`. Cached on the curve, its one cached field."""
    if curve._geom is None:
        d1, d2 = fourier.deriv12(curve.points)
        curve._geom = geometry_rows(d1.T, d2.T)
    return curve._geom


def gaussian_weights(curve: DiscreteCurve) -> np.ndarray:
    """Per-node quadrature weights of the Gaussian measure exp(-|x|^2/4) ds."""
    return gaussian_weight_rows(curve.points, geometry(curve))


def gaussian_weight_rows(points: np.ndarray, geom: GeometryFields) -> np.ndarray:
    """`gaussian_weights` from (..., m, 2) points and the geometry fields of
    the same rows, row for row that of each curve alone."""
    return geom.arclength_weights * gaussian_density(points)


def gaussian_mass(weights: np.ndarray) -> np.ndarray:
    """`f_functional` of each (..., m) row of Gaussian weights."""
    return weights.sum(axis=-1) / np.sqrt(4.0 * np.pi)


def shrinker_quantity(curve: DiscreteCurve) -> np.ndarray:
    """Pointwise stationarity defect phi = H + <x, nu>/2 of the rescaled flow.

    Vanishes identically exactly on the round curve of radius sqrt(2)
    centered at the origin.
    """
    return shrinker_rows(curve.points, geometry(curve))


def shrinker_rows(points: np.ndarray, geom: GeometryFields) -> np.ndarray:
    """phi of `shrinker_quantity` from (..., m, 2) points and the geometry
    fields of the same rows, row for row that of each curve alone."""
    return geom.curvature + 0.5 * np.einsum("...ij,...ij->...i", points, geom.normal)


def f_functional(curve: DiscreteCurve) -> float:
    """Normalized Gaussian length (4*pi)^(-1/2) * integral exp(-|x|^2/4) ds."""
    return float(gaussian_mass(gaussian_weights(curve)))


#: Newton steps refine_extrema takes at most on each extremum
_EXTREMUM_STEPS = 6

_EPS = float(np.finfo(float).eps)

#: a row of samples whose largest second difference is at most
#: _NOISE eps times the size of the coordinates it came from is rounding
#: noise, and its node extremes are not refined
_NOISE = 16.0

#: the frame-batched distances take their frames in blocks of at most
#: _BLOCK_NODES nodes, so their memory stays O(_BLOCK_NODES). At 1 << 12
#: nodes they run ~1.5x slower: `distance_to_circle` of the 401 frames of
#: rate-frames-256 36 -> 54 ms and `gauge.graph_hausdorff` of the 139 of
#: separation-512 21 -> 35 ms (medians of 7 alternating runs, Xeon, 2 CPUs)
_BLOCK_NODES = 1 << 14

#: the frequency monitor's stacked passes (normal graphs, base diagnostics,
#: energies, residuals) take their frames in blocks of at most STACK_NODES
#: nodes: each holds a dozen (frames, m) arrays at once, or one stacked
#: order-1 Taylor table of the block's targets, (P + 2) rows of 2 columns
#: of the targets' nodes, P <= 22 the block's largest degree, built from
#: complex products of the same size: at most ~1.6 MB each when the
#: targets have the bases' m, ~0.7 MB at the P = 9 of separation-512's
#: frames. At m = 512 a call of the normal graphs peaks at ~3.1 MB (its
#: (frames, m) heights included), against ~10.6 MB at 1 << 14 nodes, which
#: runs no faster; frames one at a time take about twice as long.
STACK_NODES = 1 << 12


def frame_blocks(count: int, m: int, nodes: int | None = None) -> list:
    """Slices of `count` frames of m nodes, each of at most `nodes` nodes
    (default _BLOCK_NODES; one frame at least)."""
    step = max(1, (nodes or _BLOCK_NODES) // m)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def refine_extrema(field, rows, theta, sign, best, spacing: float):
    """Refine extremes of periodic functions f_r by safeguarded Newton on
    f' = 0, extreme p of function rows[p] from the parameter theta[p].

    field(rows, theta) returns (f, a f', a f'') of each f_rows[p] at
    theta[p], for some a > 0; sign holds -1 for a maximum and +1 for a
    minimum; best holds the values at the start, usually samples. A step
    counts only where a f'' has the sign of the extremum and it moves at
    most `spacing`; the iteration of a function stops once no step of its
    extremes would move f by more than its rounding, so a function's
    result does not depend on the others. Returns, per extremum, the most
    extreme of `best` and the values visited: never less extreme than the
    samples, and exact to rounding when the true extremum lies within
    `spacing` of its start.
    """
    live = np.arange(theta.size)
    for _ in range(_EXTREMUM_STEPS):
        if not live.size:
            break
        val, slope, curv = field(rows[live], theta[live])
        best[live] = np.where(sign[live] < 0.0, np.maximum(best[live], val),
                              np.minimum(best[live], val))
        ok = sign[live] * curv > 0.0
        step = -slope / np.where(ok, curv, 1.0)
        ok &= np.abs(step) <= spacing
        moving = ok & (np.abs(curv) * step * step > _EPS * np.abs(val))
        going = np.isin(rows[live], rows[live][moving])
        theta[live[going]] += np.where(ok, step, 0.0)[going]
        live = live[going]
    return best


def _extreme_nodes(values: np.ndarray, scale: np.ndarray):
    """The node local maxima and minima of periodic rows of samples
    (frames, m) that may sit beside the maximum and minimum of a row's
    interpolant f, and where to refine each from.

    A node extreme counts when it is within the largest second difference
    of its row of the node maximum (minimum): a true extreme lies within
    half a spacing h of a node and differs from it by at most
    h^2 max|f''|/8, and the largest second difference is about
    h^2 max|f''|. None counts in a row whose largest second difference is
    rounding noise, at most _NOISE eps times `scale` (frames,), the size of
    the coordinates the row came from: its node extremes are then exact to
    rounding. Returns the (row, node) indices of both and, per node, the
    offset in spacings of the vertex of the parabola through it and its
    neighbours (within 1/2 at a node extreme, 0 where the three agree).
    """
    left = np.roll(values, 1, axis=1)
    right = np.roll(values, -1, axis=1)
    second = left - 2.0 * values + right
    reach = np.abs(second).max(axis=1, keepdims=True)
    offset = np.divide(left - right, 2.0 * second,
                       out=np.zeros_like(values), where=second != 0.0)
    live = reach > _NOISE * _EPS * scale[:, None]
    peaks = (live & (values >= left) & (values >= right)
             & (values >= values.max(axis=1, keepdims=True) - reach))
    troughs = (live & (values <= left) & (values <= right)
               & (values <= values.min(axis=1, keepdims=True) + reach))
    return np.nonzero(peaks), np.nonzero(troughs), offset


def refined_extremes(field, values: np.ndarray, spacing: float,
                     scale: np.ndarray):
    """sup |f_r| per row r of periodic functions sampled as the
    rows of `values` (frames, m) on nodes `spacing` apart, `field` giving
    them as for `refine_extrema`, which runs from the parabolic vertex
    beside every node local extreme that `_extreme_nodes` finds close
    enough to its row's node extreme to hide the true one (none in a row
    of rounding noise for coordinates of size `scale`). Exact to rounding
    when each true extreme lies next to a node local extreme, and never
    below the largest |sample|. It is the larger of max f_r and -min f_r
    exactly: a refined maximum is never below its node sample, so one below
    0 never beats -min f_r, and a refined minimum above 0 never beats
    max f_r."""
    (hi_rows, hi_nodes), (lo_rows, lo_nodes), offset = _extreme_nodes(
        values, scale)
    rows = np.concatenate([hi_rows, lo_rows])
    nodes = np.concatenate([hi_nodes, lo_nodes])
    sign = np.repeat([-1.0, 1.0], [hi_rows.size, lo_rows.size])
    best = refine_extrema(field, rows, (nodes + offset[rows, nodes]) * spacing,
                          sign, values[rows, nodes], spacing)
    sup = np.abs(values).max(axis=1)
    np.maximum.at(sup, rows, np.abs(best))
    return sup


def _convex_tangents(geom: GeometryFields):
    """The node unit tangents (tx, ty) of convex curves, each (m,) for one
    curve's geometry and (frames, m) for stacked rows; InvalidCurve naming
    the least node curvature of the first curve that has one <= 0."""
    kmin = np.atleast_1d(geom.curvature.min(axis=-1))
    bad = np.flatnonzero(~(kmin > 0.0))
    if bad.size:
        raise InvalidCurve("support-function distance needs a convex curve, "
                           "but a node curvature is %.3g" % kmin[bad[0]])
    return np.moveaxis(geom.tangent, -1, 0)


def support_function(curve: DiscreteCurve):
    """The support function of a convex curve's interpolant, evaluated on
    its order-2 `Interpolant`: a function of the unit outward normals
    (nx, ny) returning h, h' = <y, t> and the radius of curvature
    rho = h + h'' at the support points y, with t the tangent (-ny, nx).
    InvalidCurve if a node curvature is <= 0.

    y is where <x'(theta), n> = 0, by Newton from theta interpolated
    linearly in the node outward normal angles, which increase once around
    a convex curve; it stops when no step would move h by more than its
    rounding.
    """
    curve_at = fourier.Interpolant(fourier.coeffs(curve.points), curve.m, 2)
    tx, ty = _convex_tangents(geometry(curve))
    angles = np.unwrap(np.arctan2(-tx, ty))
    angles = np.append(angles, angles[0] + TWO_PI)
    scale = float(np.abs(curve.points).max())

    def support(nx, ny):
        alpha = angles[0] + (np.arctan2(ny, nx) - angles[0]) % TWO_PI
        j = np.minimum(np.searchsorted(angles, alpha, side="right") - 1,
                       curve.m - 1)
        theta = (j + (alpha - angles[j]) / (angles[j + 1] - angles[j])) \
            * (TWO_PI / curve.m)
        for _ in range(_EXTREMUM_STEPS):
            x, dx, ddx = curve_at(theta)
            curv = ddx[:, 0] * nx + ddx[:, 1] * ny
            step = (dx[:, 0] * nx + dx[:, 1] * ny) / curv
            if not np.any(np.abs(curv) * step * step > _EPS * scale):
                break
            theta = theta - step
        speed = np.hypot(dx[:, 0], dx[:, 1])
        return (x[:, 0] * nx + x[:, 1] * ny, x[:, 1] * nx - x[:, 0] * ny,
                speed ** 3 / (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]))

    return support


def _support_gaps(rows, support) -> np.ndarray:
    """sup over directions of |h - h_L| per curve, h the support function of
    a convex curve and h_L = support(...)[0] that of a convex body L, as
    for `support_function`: the Hausdorff distance between the curve and
    the boundary of L (Schneider, Convex Bodies, section 1.8), for the
    curves of the stacked (points, geometry) rows `rows`.

    The directions are each curve's outward normals n = -normal, its node
    gaps h - h_L `refined_extremes` on the curve's parameter, all frames
    of a `frame_blocks` block in one pass, their points evaluated by
    `fourier.mode_sum`. With h' = <x, t> and h'' = rho - h, the gap g has
    g' = <x - y, t> and g'' = rho - rho_L - g in the normal angle, whose
    theta-derivative kappa |x'| is the positive scale `refine_extrema`
    allows. InvalidCurve if a curve has a node curvature <= 0.
    """
    points, geom = rows
    count, m = points.shape[:2]
    out = np.empty(count)
    for block in frame_blocks(count, m):
        # the node gaps of the block (frames, m) from its (x, y) rows
        tx, ty = _convex_tangents(geom[block])
        xy = points[block].transpose(0, 2, 1)
        x, y = xy[:, 0], xy[:, 1]
        gaps = ((x * ty - y * tx).ravel()
                - support(ty.ravel(), -tx.ravel())[0]).reshape(x.shape)
        coef = np.fft.rfft(xy, axis=-1)
        scale = np.abs(xy).max(axis=(1, 2))

        def field(rows, theta):
            x, dx, ddx = fourier.mode_sum(coef, m, rows, theta, 2)
            speed = np.hypot(dx[:, 0], dx[:, 1])
            nx, ny = dx[:, 1] / speed, -dx[:, 0] / speed
            h, dh, rho = support(nx, ny)
            gap = x[:, 0] * nx + x[:, 1] * ny - h
            turn = ((dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0])
                    / (speed * speed))
            return (gap, x[:, 1] * nx - x[:, 0] * ny - dh,
                    speed - (rho + gap) * turn)

        out[block] = refined_extremes(field, gaps, TWO_PI / m, scale)
    return out


def hausdorff_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Hausdorff distance between the interpolants of two convex curves,
    the sup of the gap of their support functions (`_support_gaps`), taken
    over the outward normals of each in turn, so symmetric bit for bit.
    InvalidCurve if either has a node curvature <= 0."""
    a_rows, b_rows = ((c.points[None], geometry(c)[None]) for c in (a, b))
    return float(max(_support_gaps(a_rows, support_function(b))[0],
                     _support_gaps(b_rows, support_function(a))[0]))


def distance_to_circle(rows, radius: float) -> np.ndarray:
    """Hausdorff distances from the interpolants of convex curves, stacked
    (points, geometry) rows as `FlowTrajectory.stacked` gives them, to the
    circle of `radius` about the origin: `_support_gaps` against h = rho =
    radius. InvalidCurve if a curve has a node curvature <= 0.

    On a round curve h' and the second derivative |x'| - h kappa |x'| are
    zero up to rounding, and so are the node gaps' second differences, so
    no extreme is refined and the result stays at rounding.
    """
    return _support_gaps(rows, lambda nx, ny: (radius, 0.0, radius))


def resample(curve: DiscreteCurve) -> DiscreteCurve:
    """Arclength-uniform resampling via trigonometric interpolation.

    Node 0 is preserved; the other m - 1 nodes are placed at equal arclength
    intervals of the interpolated curve. Length is preserved to spectral
    accuracy.
    """
    m = curve.m
    d1 = fourier.deriv(curve.points, 1)
    g = np.hypot(d1[:, 0], d1[:, 1])
    if float(g.min()) < METRIC_FLOOR:
        raise InterpolationFailure("degenerate parametrization")
    mean_g, s_coef = fourier.antideriv(g)
    s_at = fourier.Interpolant(s_coef, m)
    g_at = fourier.Interpolant(fourier.coeffs(g), m)
    total = mean_g * TWO_PI
    # anchor arclength zero at node 0: the periodic part of the
    # antiderivative need not vanish there
    s0 = float(s_at(np.array([0.0]))[0][0])
    targets = np.arange(m) * (total / m)

    # monotone initial guess from a refined grid
    dense_t = np.linspace(0.0, TWO_PI, 4 * m + 1)
    dense_s = mean_g * dense_t + s_at(dense_t)[0] - s0
    dense_s[0] = 0.0
    dense_s[-1] = total
    theta = np.interp(targets, dense_s, dense_t)
    # Newton refinement on s(theta) = target; s' = g > 0
    for _ in range(4):
        s_val = mean_g * theta + s_at(theta)[0] - s0
        theta -= (s_val - targets) / g_at(theta)[0]
    theta[0] = 0.0

    new_points = fourier.Interpolant(fourier.coeffs(curve.points), m)(theta)[0]
    try:
        return DiscreteCurve(new_points)
    except (InvalidCurve, DegenerateCurve) as exc:
        raise InterpolationFailure("resampled curve invalid: %s" % exc) from exc


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def circle(radius: float, center=(0.0, 0.0), m: int = 256) -> DiscreteCurve:
    """Round curve of given radius, sampled uniformly (CCW)."""
    if radius <= 0:
        raise InvalidCurve("radius must be positive")
    t = fourier.grid(m)
    cx, cy = center
    pts = np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t)])
    return DiscreteCurve(pts, validate=False)


def ellipse(a: float, b: float, center=(0.0, 0.0), m: int = 256) -> DiscreteCurve:
    """Axis-aligned ellipse with semi-axes a, b (CCW)."""
    if a <= 0 or b <= 0:
        raise InvalidCurve("semi-axes must be positive")
    t = fourier.grid(m)
    cx, cy = center
    pts = np.column_stack([cx + a * np.cos(t), cy + b * np.sin(t)])
    return DiscreteCurve(pts)


def fourier_curve(r0: float, cos_coeffs=(), sin_coeffs=(), m: int = 256) -> DiscreteCurve:
    """Polar graph r(theta) = r0 * (1 + sum_k c_k cos(k t) + s_k sin(k t)).

    cos_coeffs[i] multiplies cos((i+1) * theta), likewise sin_coeffs.
    """
    t = fourier.grid(m)
    r = np.full(m, 1.0)
    for i, c in enumerate(cos_coeffs):
        r += c * np.cos((i + 1) * t)
    for i, s in enumerate(sin_coeffs):
        r += s * np.sin((i + 1) * t)
    r *= r0
    if r.min() <= 0:
        raise InvalidCurve("polar radius must stay positive")
    return DiscreteCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]))


def random_fourier(kmax: int, amplitude: float, seed: int = 0,
                   m: int = 256) -> DiscreteCurve:
    """Random smooth perturbation of the unit circle.

    Modes k = _RANDOM_KMIN..kmax get uniform coefficients scaled by
    (_RANDOM_KMIN/k)^2 so the leading mode carries roughly `amplitude`.
    """
    rng = np.random.default_rng(seed)
    nk = kmax + 1
    cos_c = np.zeros(nk - 1)
    sin_c = np.zeros(nk - 1)
    for k in range(_RANDOM_KMIN, kmax + 1):
        scale = amplitude * (_RANDOM_KMIN / k) ** 2
        cos_c[k - 1] = scale * rng.uniform(-1.0, 1.0)
        sin_c[k - 1] = scale * rng.uniform(-1.0, 1.0)
    return fourier_curve(1.0, cos_c, sin_c, m=m)
