"""Discrete closed plane curves and their Gaussian-weighted geometry.

A curve is a closed polyline sampled on the uniform parameter grid
theta_j = 2*pi*j/m (even m), interpreted as samples of a smooth closed curve
via trigonometric interpolation. Orientation is normalized to counterclockwise
on construction, so the inner unit normal is the tangent rotated by +90
degrees and convex curves have positive curvature.

The weighted measure throughout is the Gaussian  exp(-|x|^2/4) d(arclength);
`f_functional` is the normalized total mass (4*pi)^(-1/2) * integral, which
equals sqrt(2*pi)*exp(-1/2) ~ 1.5203469 on the round curve of radius sqrt(2),
the stationary profile of the rescaled flow.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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


def area_centroid(points: np.ndarray) -> tuple[float, float, float]:
    """Enclosed area and region centroid (area, cx, cy) of the interpolated curve.

    Spectral quadrature of A = 1/2 * closed integral of x dy - y dx and of
    the first moments; `points` are (m, 2) samples on the uniform grid.
    """
    d1 = fourier.deriv(points, 1)
    x, y = points.T
    w = TWO_PI / points.shape[0]
    area = 0.5 * w * float(np.sum(x * d1[:, 1] - y * d1[:, 0]))
    cx = 0.5 * w * float(np.sum(x * x * d1[:, 1])) / area
    cy = -0.5 * w * float(np.sum(y * y * d1[:, 0])) / area
    return area, cx, cy


def gaussian_density(points: np.ndarray) -> np.ndarray:
    """Per-node Gaussian density exp(-|x|^2/4) of (m, 2) points."""
    return np.exp(-0.25 * np.einsum("ij,ij->i", points, points))


def segment_lengths(points: np.ndarray) -> np.ndarray:
    """Chord lengths |p_{j+1} - p_j| of the closed polyline."""
    return np.hypot(*(np.roll(points, -1, axis=0) - points).T)


def star_angles(points: np.ndarray):
    """Vertex mean and polar angles about it, or None if not star-shaped.

    Star-shaped here is a sufficient simplicity test, O(m): the polar
    angles about the mean must advance strictly, each step under pi,
    winding exactly once. Then every ray from the mean meets the polyline
    once, so it cannot cross itself, and segment i lies in the angular
    sector between its end vertices.
    """
    c = points.mean(axis=0)
    ang = np.arctan2(points[:, 1] - c[1], points[:, 0] - c[0])
    step = (np.roll(ang, -1) - ang) % (2.0 * np.pi)
    if not bool(np.all((step > 1e-12) & (step < np.pi - 1e-12))):
        return None
    if abs(float(step.sum()) - 2.0 * np.pi) >= 1e-9:
        return None
    return c, ang


#: rows per block in the all-pairs fallbacks, which bounds their temporaries
#: to a few (_BLOCK, m) arrays
_BLOCK = 256


def _has_self_intersection(points: np.ndarray) -> bool:
    """Proper-crossing test over all non-adjacent segment pairs.

    A star-shapedness pre-pass dispatches the overwhelmingly common convex
    and near-convex inputs in O(m); only the rest pay the O(m^2) scan, in
    blocks of _BLOCK segments against all others.
    """
    if star_angles(points) is not None:
        return False
    m = points.shape[0]
    p = points
    q = np.roll(points, -1, axis=0)
    d = q - p
    idx = np.arange(m)
    j = idx[None, :]

    def side(a, b, ends):
        """cross(d_a, ends_b - p_a), broadcast over the index arrays a, b."""
        return d[a, 0] * (ends[b, 1] - p[a, 1]) - d[a, 1] * (ends[b, 0] - p[a, 0])

    for lo in range(0, m, _BLOCK):
        i = idx[lo:lo + _BLOCK, None]
        # segment j straddles the line of segment i, and the other way round
        cross = ((side(i, j, p) * side(i, j, q) < 0.0)
                 & (side(j, i, p) * side(j, i, q) < 0.0))
        adj = np.abs(i - j) % m
        cross[(adj == 0) | (adj == 1) | (adj == m - 1)] = False
        if cross.any():
            return True
    return False


class DiscreteCurve:
    """Closed plane curve sampled on the uniform periodic grid.

    Parameters
    ----------
    points : (m, 2) array_like
        Node positions; the polyline closes implicitly from the last node
        back to the first. m must be even and at least 16.
    validate : bool
        Run the construction invariants (simplicity, spacing ratio). Internal
        callers that already guarantee validity may skip them.

    Notes
    -----
    Orientation is normalized: if the input winds clockwise the node order is
    reversed, so `counterclockwise` is always True afterwards and curvature of
    convex curves is positive. Points are stored read-only; operations return
    new curves.
    """

    __slots__ = ("points", "m", "counterclockwise", "_cache")

    def __init__(self, points, *, validate: bool = True):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidCurve("points must have shape (m, 2), got %r" % (pts.shape,))
        m = pts.shape[0]
        if m < MIN_NODES or m % 2 != 0:
            raise InvalidCurve("need an even number of nodes >= %d, got %d" % (MIN_NODES, m))
        if not np.all(np.isfinite(pts)):
            raise InvalidCurve("points contain non-finite values")
        if polygon_area(pts) < 0.0:
            pts = pts[::-1].copy()
        if validate:
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
        pts.flags.writeable = False
        self.points = pts
        self.m = m
        self.counterclockwise = True
        self._cache = {}

    # -- basic derived quantities ------------------------------------------

    def spacing_ratio(self) -> float:
        lengths = segment_lengths(self.points)
        return float(lengths.max() / lengths.min())

    def polyline_length(self) -> float:
        return float(segment_lengths(self.points).sum())

    def length(self) -> float:
        """Length of the interpolated curve (spectral quadrature)."""
        return float(geometry(self).arclength_weights.sum())

    def area(self) -> float:
        """Enclosed area of the interpolated curve, see :func:`area_centroid`."""
        return area_centroid(self.points)[0]

    def centroid(self) -> np.ndarray:
        """Centroid of the enclosed region, see :func:`area_centroid`."""
        return np.array(area_centroid(self.points)[1:])

    def translated(self, offset) -> "DiscreteCurve":
        return DiscreteCurve(self.points + np.asarray(offset, dtype=float), validate=False)

    def scaled(self, factor: float, about=(0.0, 0.0)) -> "DiscreteCurve":
        about = np.asarray(about, dtype=float)
        return DiscreteCurve(about + factor * (self.points - about), validate=False)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the node list as CSV with header x,y (implicitly periodic)."""
        with open(path, "w", newline="") as fh:
            fh.write("x,y\n" + "".join("%.17g,%.17g\n" % (px, py)
                                        for px, py in self.points.tolist()))

    @classmethod
    def from_csv(cls, path) -> "DiscreteCurve":
        """Read a curve written by :meth:`to_csv`; invariants are re-validated."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
                raise InvalidCurve("curve CSV must start with header 'x,y'")
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    rows.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError) as exc:
                    raise InvalidCurve("malformed curve CSV row %r" % (row,)) from exc
        return cls(np.array(rows))

    def __repr__(self):
        return "DiscreteCurve(m=%d, length=%.6g)" % (self.m, self.polyline_length())


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
    norm_sq_a : (m,) ndarray
        |A|^2 = H^2 for plane curves.
    arclength_weights : (m,) ndarray
        Quadrature weights (2*pi/m) * metric_speed; they sum to the length
        of the interpolated curve.
    metric_speed : (m,) ndarray
        |dx/dtheta|.
    """

    tangent: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray
    norm_sq_a: np.ndarray
    arclength_weights: np.ndarray
    metric_speed: np.ndarray


def geometry(curve: DiscreteCurve) -> GeometryFields:
    """Spectral differential geometry fields of `curve`.

    Raises DegenerateCurve if the metric speed falls below 1e-10 anywhere.
    Results are cached on the curve.
    """
    cached = curve._cache.get("geom")
    if cached is not None:
        return cached
    d1, d2 = fourier.deriv12(curve.points)
    g = np.hypot(d1[:, 0], d1[:, 1])
    if float(g.min()) < METRIC_FLOOR:
        raise DegenerateCurve("metric speed %.3g below %.1g" % (g.min(), METRIC_FLOOR))
    tangent = d1 / g[:, None]
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    curvature = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (g * g * g)
    weights = (TWO_PI / curve.m) * g
    fields = GeometryFields(
        tangent=tangent,
        normal=normal,
        curvature=curvature,
        norm_sq_a=curvature * curvature,
        arclength_weights=weights,
        metric_speed=g,
    )
    curve._cache["geom"] = fields
    return fields


def gaussian_weights(curve: DiscreteCurve) -> np.ndarray:
    """Per-node quadrature weights of the Gaussian measure exp(-|x|^2/4) ds.

    Cached on the curve (read-only), like `geometry`.
    """
    weights = curve._cache.get("gauss")
    if weights is None:
        weights = geometry(curve).arclength_weights * gaussian_density(curve.points)
        weights.flags.writeable = False
        curve._cache["gauss"] = weights
    return weights


def shrinker_quantity(curve: DiscreteCurve) -> np.ndarray:
    """Pointwise stationarity defect phi = H + <x, nu>/2 of the rescaled flow.

    Vanishes identically exactly on the round curve of radius sqrt(2)
    centered at the origin.
    """
    geom = geometry(curve)
    return geom.curvature + 0.5 * np.einsum("ij,ij->i", curve.points, geom.normal)


def f_functional(curve: DiscreteCurve) -> float:
    """Normalized Gaussian length (4*pi)^(-1/2) * integral exp(-|x|^2/4) ds."""
    return float(gaussian_weights(curve).sum()) / np.sqrt(4.0 * np.pi)


#: points on which hausdorff_distance samples each trigonometric interpolant
_M_DENSE = 8192

#: chord sag of that dense polygon on the round shrinker of radius sqrt(2):
#: the smallest distance hausdorff_distance resolves
HAUSDORFF_SAG = math.sqrt(2.0) * (1.0 - math.cos(math.pi / _M_DENSE))


class _Polygon:
    """Closed polygon: point rows x, y, edge vectors ex, ey to the next
    point, their squared lengths ee and, if given, increasing polar angles."""

    def __init__(self, rows: np.ndarray, ang=None):
        self.x, self.y = np.ascontiguousarray(rows)
        self.ex = np.roll(self.x, -1) - self.x
        self.ey = np.roll(self.y, -1) - self.y
        self.ee = self.ex * self.ex + self.ey * self.ey
        self.ang = ang


def _polar_polygon(curve: DiscreteCurve):
    """The curve's interpolant on the dense grid, started at its least polar
    angle about the origin, or None when that angle does not increase."""
    rows = fourier.upsample(curve.points.T, _M_DENSE)
    ang = np.arctan2(rows[1], rows[0])
    j0 = int(np.argmin(ang))
    ang = np.roll(ang, -j0)
    if np.any(np.diff(ang) <= 0.0):
        return None
    return _Polygon(np.roll(rows, -j0, axis=1), ang)


def _dist2(px, py, q: _Polygon, idx, work) -> np.ndarray:
    """Squared distances from the points (px, py) to the segments idx of q,
    broadcast; the same arithmetic for every shape, so bit for bit. Computed
    in the four arrays of the broadcast shape in `work` (a caller's loop
    reuses them) and returned in work[0]."""
    wx, wy, t, tmp = work
    np.subtract(px, q.x[idx], out=wx)
    np.subtract(py, q.y[idx], out=wy)
    ex = q.ex[idx]
    ey = q.ey[idx]
    np.multiply(wx, ex, out=t)
    t += np.multiply(wy, ey, out=tmp)
    t /= q.ee[idx]
    np.clip(t, 0.0, 1.0, out=t)
    wx -= np.multiply(t, ex, out=tmp)
    wy -= np.multiply(t, ey, out=tmp)
    wx *= wx
    wy *= wy
    wx += wy
    return wx


def _nearest2_max(px, py, q: _Polygon) -> float:
    """max over the points (px, py) of the squared distance to polygon q,
    all pairs, in blocks of _BLOCK**2 pairs to keep the temporaries small."""
    n = q.x.shape[0]
    step = max(1, _BLOCK * _BLOCK // n)
    work = np.empty((4, min(step, px.shape[0]), n))
    worst = 0.0
    for lo in range(0, px.shape[0], step):
        dist2 = _dist2(px[lo:lo + step, None], py[lo:lo + step, None], q,
                       slice(None), work[:, :min(step, px.shape[0] - lo)])
        worst = max(worst, float(dist2.min(axis=1).max()))
    return worst


def _points_to_segments_max(a: np.ndarray, b: np.ndarray) -> float:
    """max over nodes of `a` of the distance to the closed polyline `b`."""
    return math.sqrt(_nearest2_max(a[:, 0], a[:, 1], _Polygon(b.T)))


def _directed_sup(p: _Polygon, q: _Polygon) -> float:
    """sup over the points of p of the distance to the polygon q.

    The six segments around each point's polar angle in q bound its
    distance from above. The worst point is checked against all segments,
    then every point whose bound exceeds that exact distance: linear cost
    when the window holds the nearest segments.
    """
    base = np.searchsorted(q.ang, p.ang)
    best = np.full(p.x.shape[0], np.inf)
    work = np.empty((4,) + best.shape)
    for off in range(-3, 3):
        np.minimum(best, _dist2(p.x, p.y, q, (base + off) % q.x.size, work),
                   out=best)
    i = int(np.argmax(best))
    sup2 = _nearest2_max(p.x[i:i + 1], p.y[i:i + 1], q)
    loose = best > sup2
    sup2 = max(sup2, _nearest2_max(p.x[loose], p.y[loose], q))
    return math.sqrt(sup2)


def hausdorff_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Two-sided Hausdorff distance between the interpolants of two curves.

    Exact between the _M_DENSE-point polygons of the interpolants, built
    once per call, so it resolves HAUSDORFF_SAG on the round shrinker.
    Curves not star-shaped about the origin fall back to the node polylines.
    """
    pa = _polar_polygon(a)
    pb = _polar_polygon(b) if pa is not None else None
    if pb is None:
        return max(_points_to_segments_max(a.points, b.points),
                   _points_to_segments_max(b.points, a.points))
    return max(_directed_sup(pa, pb), _directed_sup(pb, pa))


def resample(curve: DiscreteCurve, m_new: int | None = None) -> DiscreteCurve:
    """Arclength-uniform resampling via trigonometric interpolation.

    Node 0 is preserved; the remaining nodes are placed at equal arclength
    intervals of the interpolated curve. Length is preserved to spectral
    accuracy.
    """
    if m_new is None:
        m_new = curve.m
    if m_new < MIN_NODES or m_new % 2 != 0:
        raise InterpolationFailure("target node count must be even and >= %d" % MIN_NODES)
    m = curve.m
    d1 = fourier.deriv(curve.points, 1)
    g = np.hypot(d1[:, 0], d1[:, 1])
    if float(g.min()) < METRIC_FLOOR:
        raise InterpolationFailure("degenerate parametrization")
    mean_g, s_coef = fourier.antideriv(g)
    g_coef = fourier.coeffs(g)
    p_coef = fourier.coeffs(curve.points)
    total = mean_g * TWO_PI
    # anchor arclength zero at node 0: the periodic part of the
    # antiderivative need not vanish there
    s0 = float(fourier.trig_eval(s_coef, m, np.array([0.0]))[0])
    targets = np.arange(m_new) * (total / m_new)

    # monotone initial guess from a refined grid
    dense_t = np.linspace(0.0, TWO_PI, 4 * m + 1)
    dense_s = mean_g * dense_t + fourier.trig_eval(s_coef, m, dense_t) - s0
    dense_s[0] = 0.0
    dense_s[-1] = total
    theta = np.interp(targets, dense_s, dense_t)
    # Newton refinement on s(theta) = target; s' = g > 0
    for _ in range(4):
        s_val = mean_g * theta + fourier.trig_eval(s_coef, m, theta) - s0
        g_val = fourier.trig_eval(g_coef, m, theta)
        theta -= (s_val - targets) / g_val
    theta[0] = 0.0

    new_points = fourier.trig_eval(p_coef, m, theta)
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
