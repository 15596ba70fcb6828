"""The curve-to-curve kernels against all-pairs and dense oracles.

`gauge.normal_graph` searches only candidate target segments found by polar
angle, and both it and the simplicity scan of `curvegeo` run the one
crossing search, `curvegeo.crossings`, in row blocks.
Neither may change a result: each is compared here with `np.array_equal`
(or `==`) against a copy of the straightforward all-pairs formulation it
replaced. The distances of `curvegeo` and `gauge.graph_hausdorff` are exact
for convex curves; they are compared with dense polygons of the
interpolants, within the polygons' own chord sag, and with closed forms.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from shrinkerlab import curvegeo, fourier, frequency, gauge, labcli
from shrinkerlab.curvegeo import (_ROWS, TWO_PI, DiscreteCurve,
                                  _has_self_intersection, _windows, circle,
                                  distance_to_circle, ellipse, fourier_curve,
                                  geometry, hausdorff_distance, random_fourier,
                                  resample, star_angles)
from shrinkerlab.errors import InvalidCurve, NotAGraph
from shrinkerlab.flowcore import FlowTrajectory, run_flows, run_rmcf
from shrinkerlab.gauge import (graph_hausdorff, normal_graph,
                              reconstruct)

SQRT2 = math.sqrt(2.0)

#: points of the dense polygons the distance oracles sample each
#: interpolant on
M_DENSE = 8192

#: chord sag of that dense polygon on the round shrinker of radius sqrt(2)
ROUND_SAG = SQRT2 * (1.0 - math.cos(math.pi / M_DENSE))


# ---------------------------------------------------------------------------
# oracles: the all-pairs formulations

def oracle_normal_graph(base, target, reach=None):
    """Every base normal against every target segment, in m x m arrays."""
    if reach is None:
        reach = 1.0 / float(np.abs(geometry(target).curvature).max())
    half = 0.5 * reach
    x = base.points
    nu = geometry(base).normal
    p = target.points
    d = np.roll(p, -1, axis=0) - p
    rx = p[None, :, 0] - x[:, None, 0]
    ry = p[None, :, 1] - x[:, None, 1]
    den = nu[:, None, 0] * d[None, :, 1] - nu[:, None, 1] * d[None, :, 0]
    ok = np.abs(den) > 1e-14
    safe_den = np.where(ok, den, 1.0)
    u_all = (rx * d[None, :, 1] - ry * d[None, :, 0]) / safe_den
    s_all = (rx * nu[:, None, 1] - ry * nu[:, None, 0]) / safe_den
    hit = ok & (s_all >= -1e-9) & (s_all <= 1.0 + 1e-9) & (np.abs(u_all) < half)
    m = base.m
    tol = 1e-8 * (1.0 + reach)
    counts = hit.sum(axis=1)
    rows, cols = np.nonzero(hit)
    uvals = u_all[rows, cols]
    order = np.lexsort((uvals, rows))
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
        uj = np.sort(u_all[j_gap, np.nonzero(hit[j_gap])[0]])
        clusters = 1 + int(np.count_nonzero(np.diff(uj) > tol))
        raise NotAGraph("normal %d crosses the target %d times within "
                        "reach/2" % (j_gap, clusters))
    starts = np.searchsorted(rows_s, np.arange(m))
    u0 = u_s[starts]
    seg = cols_s[starts]
    frac = np.clip(s_all[rows_s[starts], seg], 0.0, 1.0)
    c_coef = fourier.coeffs(p)
    theta = (seg + frac) * (TWO_PI / target.m)
    u = u0.copy()
    for _ in range(4):
        c_val, c_der = fourier.trig_eval_pair(c_coef, target.m, theta)
        fx = c_val[:, 0] - x[:, 0] - u * nu[:, 0]
        fy = c_val[:, 1] - x[:, 1] - u * nu[:, 1]
        det = -(c_der[:, 0] * nu[:, 1] - c_der[:, 1] * nu[:, 0])
        dth = (fx * nu[:, 1] - fy * nu[:, 0]) / det
        theta += dth
        u += (c_der[:, 1] * fx - c_der[:, 0] * fy) / det
        if float(np.abs(dth).max()) < 1e-12:
            break
    c_val = fourier.trig_eval(c_coef, target.m, theta)
    err = np.hypot(c_val[:, 0] - x[:, 0] - u * nu[:, 0],
                   c_val[:, 1] - x[:, 1] - u * nu[:, 1])
    if float(err.max()) > 1e-9 * (1.0 + float(np.abs(u).max())):
        raise NotAGraph("graph iteration failed to converge onto the target")
    if float(np.abs(u).max()) >= half:
        raise NotAGraph("graph height %.3g reaches reach/2 = %.3g"
                        % (np.abs(u).max(), half))
    return u


def oracle_polygon_sup(p, q):
    """sup over p of the distance to polygon q, every point against every
    segment in blocks of 16 points; (n, 2) arrays."""
    (qx, qy), (px, py) = q.T, p.T
    ex, ey = (np.roll(q, -1, axis=0) - q).T
    worst = 0.0
    for lo in range(0, p.shape[0], 16):
        wx = px[lo:lo + 16, None] - qx
        wy = py[lo:lo + 16, None] - qy
        t = np.clip((wx * ex + wy * ey) / (ex ** 2 + ey ** 2), 0.0, 1.0)
        dx = wx - t * ex
        dy = wy - t * ey
        worst = max(worst, float((dx * dx + dy * dy).min(axis=1).max()))
    return math.sqrt(worst)


def windowed_directed_sup(p, q, base=None):
    """The six segments around each point's polar angle (or around vertex
    base[i] of q for point i) only: an upper bound on the distance, exact
    when they hold the nearest segments."""
    m_q = q.shape[0]
    if base is None:
        ang_p = np.arctan2(p[:, 1], p[:, 0])
        ang_q = np.arctan2(q[:, 1], q[:, 0])
        j0 = int(np.argmin(ang_q))
        sorted_q = np.roll(ang_q, -j0)
        base = np.searchsorted(sorted_q, ang_p) + j0
    best = np.full(p.shape[0], np.inf)
    for off in range(-3, 3):
        idx = (base + off) % m_q
        a = q[idx]
        edge = q[(idx + 1) % m_q] - a
        w = p - a
        t = np.clip((w * edge).sum(axis=1) / (edge * edge).sum(axis=1), 0.0, 1.0)
        diff = w - t[:, None] * edge
        best = np.minimum(best, (diff * diff).sum(axis=1))
    return float(math.sqrt(best.max()))


def nearest_windowed_sup(p, q):
    """`windowed_directed_sup` around the vertex of q nearest each point of
    p, from a k-d tree: exact for polygons of smooth curves sampled far
    finer than the distance between them or their radii of curvature."""
    return windowed_directed_sup(p, q, cKDTree(q).query(p)[1])


def upsample(rows, m_fine):
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


def translated(curve, offset):
    """The curve moved by offset, its nodes in their order."""
    return DiscreteCurve(curve.points + np.asarray(offset, dtype=float),
                         validate=False)


def oracle_hausdorff_dense(a, b, directed_sup=nearest_windowed_sup,
                           m_dense=M_DENSE):
    """Two-sided Hausdorff distance between the m_dense-point polygons of
    the interpolants of a and b."""
    pa = upsample(a.points.T, m_dense).T
    pb = upsample(b.points.T, m_dense).T
    return max(directed_sup(pa, pb), directed_sup(pb, pa))


def chord_sag(curve, m_dense=M_DENSE):
    """Largest distance from the interpolant's points halfway between two
    dense samples to the chord between them: the dense polygon is within
    about this of the interpolant."""
    fine = upsample(curve.points.T, 2 * m_dense)
    return float(np.hypot(*(fine[:, 1::2] - 0.5 * (
        fine[:, ::2] + np.roll(fine[:, ::2], -1, axis=1)))).max())


def oracle_has_self_intersection(points):
    if star_angles(points) is not None:
        return False
    m = points.shape[0]
    p = points
    d = np.roll(points, -1, axis=0) - p
    # side[a, v]: the side of vertex v by the line of segment a, 0 where it
    # lies within rounding of the line
    u = d[:, None, 0] * (p[None, :, 1] - p[:, None, 1])
    w = d[:, None, 1] * (p[None, :, 0] - p[:, None, 0])
    eps = np.finfo(float).eps
    side = np.sign(u - w) * (np.abs(u - w) > 8 * eps * (np.abs(u) + np.abs(w)))
    # the arm through segment b crosses line a when the sides of its ends
    # differ, an end on the line standing for the vertex beyond it
    s0 = np.where(side == 0, np.roll(side, 1, axis=1), side)
    s1 = np.roll(np.where(side == 0, np.roll(side, -1, axis=1), side), -1,
                 axis=1)
    cross = (s0 * s1 < 0.0) & (s0 * s1 < 0.0).T
    idx = np.arange(m)
    adj = np.abs(idx[:, None] - idx[None, :]) % m
    cross[(adj == 0) | (adj == 1) | (adj == m - 1)] = False
    return bool(cross.any())


# ---------------------------------------------------------------------------
# test curves

def grid(m):
    return np.linspace(0.0, TWO_PI, m, endpoint=False)


def u_shape(m):
    """A simple U-shaped curve whose vertex mean lies in its notch, outside it."""
    t = grid(m)
    return DiscreteCurve(np.column_stack(
        [np.cos(t), 0.5 * np.sin(t) + 1.2 * np.cos(t) ** 2]))


def _round_trip(m):
    base = circle(SQRT2, m=m)
    t = grid(m)
    return base, reconstruct(base, 0.08 * np.cos(3 * t) + 0.02 * np.sin(5 * t))


def _non_star():
    base = u_shape(128)
    return base, reconstruct(base, 0.002 * np.cos(3 * grid(128)))


GRAPH_CASES = {
    "concentric-inner": lambda: (circle(SQRT2, m=128), circle(SQRT2 - 0.2, m=128)),
    "concentric-equal": lambda: (circle(SQRT2, m=128), circle(SQRT2, m=128)),
    "concentric-outer": lambda: (circle(SQRT2, m=128), circle(SQRT2 + 0.25, m=128)),
    "round-trip": lambda: _round_trip(128),
    "different-sampling": lambda: (circle(SQRT2, m=128), circle(1.2, m=96)),
    "off-centre-star": lambda: (
        circle(SQRT2, m=128),
        translated(fourier_curve(1.35, (0.0, 0.04), (0.0, 0.0, 0.02), m=112),
                   (0.12, -0.07))),
    "ellipse": lambda: (ellipse(1.3, 0.8, m=128), ellipse(1.32, 0.79, m=128)),
    "non-star": _non_star,
}


# ---------------------------------------------------------------------------
# normal_graph

@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_normal_graph_matches_all_pairs_oracle(case):
    base, target = GRAPH_CASES[case]()
    assert np.array_equal(normal_graph(base, target),
                          oracle_normal_graph(base, target))


def test_normal_graphs_of_96_node_targets_over_128_node_bases():
    # the different-sampling pair and other 96-node targets over 128-node
    # bases in one block: the Newton points number the bases' 128 nodes,
    # the stacked table the targets' 96; each row matches the all-pairs
    # oracle to 1e-12 relative and is its frame's own row bit for bit
    pairs = [GRAPH_CASES["different-sampling"](),
             (circle(SQRT2, m=128), circle(1.5, m=96)),
             (ellipse(1.3, 0.8, m=128), ellipse(1.32, 0.79, m=96)),
             (circle(SQRT2, m=128),
              fourier_curve(1.35, (0.0, 0.04), (0.0, 0.0, 0.02), m=96))]
    bases, targets = zip(*pairs)
    rows = gauge.normal_graphs(bases, targets)
    assert rows.shape == (4, 128)
    for row, base, target in zip(rows, bases, targets):
        want = oracle_normal_graph(base, target)
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(row, gauge.normal_graphs([base], [target])[0])


def test_non_star_case_takes_full_rows():
    # so its oracle comparison above covers the full-row path
    assert star_angles(_non_star()[1].points) is None


@pytest.mark.parametrize("base, target, reach, text", [
    (circle(SQRT2, m=64), circle(0.3, m=64), None, "no target point"),
    (circle(SQRT2, m=64), circle(0.3, center=(SQRT2 - 0.1, 0.0), m=64), 3.0,
     "crosses the target 2 times"),
], ids=["no-target-point", "crosses-twice"])
def test_not_a_graph_messages_match_oracle(base, target, reach, text):
    with pytest.raises(NotAGraph) as expected:
        oracle_normal_graph(base, target, reach)
    with pytest.raises(NotAGraph) as got:
        normal_graph(base, target, reach)
    assert text in str(expected.value)
    assert str(got.value) == str(expected.value)


def test_normal_graph_search_is_linear_in_m():
    # an all-pairs search at m = 2048 peaks near 236 MB, and a dense
    # (m, m/2+1) basis for the Newton polish on the interpolant near 35 MB;
    # the candidate search and the Taylor-table evaluator stay near 3 MB
    m = 2048
    base = circle(SQRT2, m=m)
    target = reconstruct(base, 0.01 * np.cos(3 * grid(m)))
    half = 0.5 / float(np.abs(geometry(target).curvature).max())
    tracemalloc.start()
    try:
        normal_graph(base, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # each normal meets one or two sectors, plus one on each side; a row
    # that fell back to every segment would cost O(m) on its own
    _, width = _windows(np.arange(m), base.points, geometry(base).normal,
                        half, m, star_angles(target.points))
    assert width.max() <= 4


def counted_crossings(monkeypatch):
    """The candidate pair count of every `curvegeo._crossings` block, in
    call order: rows and cols broadcast against each other."""
    sizes = []
    crossings = curvegeo._crossings

    def counted(rows, cols, *args):
        sizes.append(np.broadcast(rows, cols).size)
        return crossings(rows, cols, *args)

    monkeypatch.setattr(curvegeo, "_crossings", counted)
    return sizes


def test_nearby_graph_takes_one_crossing_block(monkeypatch):
    # the graph of the linear-in-m test above: about 4m candidate pairs,
    # far below the _ROWS * m budget of one block
    m = 2048
    base = circle(SQRT2, m=m)
    target = reconstruct(base, 0.01 * np.cos(3 * grid(m)))
    sizes = counted_crossings(monkeypatch)
    normal_graph(base, target)
    assert len(sizes) == 1 and sizes[0] <= 4 * m


def test_non_star_graph_takes_full_rows_in_blocks(monkeypatch):
    # 640 normals of a finer U-shape against every segment of the non-star
    # target of GRAPH_CASES: blocks of _ROWS full rows, then the rest
    target = _non_star()[1]
    base = u_shape(640)
    sizes = counted_crossings(monkeypatch)
    tracemalloc.start()
    try:
        got = normal_graph(base, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    m_t = target.m
    assert sizes == [_ROWS * m_t, _ROWS * m_t, (640 - 2 * _ROWS) * m_t]
    assert np.array_equal(got, oracle_normal_graph(base, target))


def test_resample_memory_is_linear_in_m():
    # a dense basis on the 4m+1-point guess grid peaked near 135 MB at
    # m = 2048; the Taylor-table evaluator stays near 3 MB
    curve = ellipse(1.1, 1.0 / 1.1, m=2048)
    tracemalloc.start()
    try:
        resample(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


BASES = {"circle": circle(SQRT2, m=64), "ellipse": ellipse(1.5, 1.2, m=64)}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(base_name=st.sampled_from(sorted(BASES)),
       amps=st.lists(st.floats(-0.02, 0.02), min_size=5, max_size=5),
       phases=st.lists(st.floats(0.0, TWO_PI), min_size=5, max_size=5))
def test_normal_graph_inverts_reconstruct(base_name, amps, phases):
    base = BASES[base_name]
    t = grid(base.m)
    u = sum(a * np.cos(k * t + ph) for k, a, ph in zip(range(2, 7), amps, phases))
    target = reconstruct(base, u)
    got = normal_graph(base, target)
    assert np.abs(got - u).max() < 1e-10
    assert np.array_equal(got, oracle_normal_graph(base, target))


# ---------------------------------------------------------------------------
# support-function Hausdorff distance

def dented(m=128):
    """A strong mode 3: curvature < 0 at the dents."""
    curve = fourier_curve(1.0, (0.0, 0.0, 0.15), m=m)
    assert geometry(curve).curvature.min() < 0.0
    return curve


HAUSDORFF_CASES = {
    # nested
    "small-offset": lambda: (circle(SQRT2, m=96), circle(SQRT2 + 1e-5, m=96)),
    # crossing, at two samplings
    "different-m": lambda: (ellipse(1.3, 0.8, m=128), circle(1.1, m=96)),
    "rate-start": lambda: (
        labcli._normalize_unit_area(fourier_curve(1.0, (0.0, 0.0, 0.05), m=256)),
        circle(SQRT2, m=256)),
    # not star-shaped about the origin, which neither curve contains
    "fallback-offcentre": lambda: (circle(1.0, center=(5.0, 0.0), m=64),
                                   circle(1.0, center=(5.001, 0.0), m=64)),
    # nested, with polar angle and normal far apart
    "non-round": lambda: (ellipse(2.0, 0.5), ellipse(2.2, 0.6)),
    "off-centre": lambda: (
        circle(SQRT2, m=128),
        translated(fourier_curve(1.35, (0.0, 0.04), (0.0, 0.0, 0.02), m=112),
                   (0.12, -0.07))),
    "disjoint": lambda: (ellipse(1.0, 0.5, m=128),
                         translated(fourier_curve(0.8, (0.0, 0.05), m=96),
                                    (2.5, 0.7))),
}


@pytest.mark.parametrize("case", sorted(HAUSDORFF_CASES))
def test_hausdorff_dense_matches_oracle(case):
    # the two-sided distance between the dense polygons is within their
    # chord sags of the distance between the interpolants
    a, b = HAUSDORFF_CASES[case]()
    got = hausdorff_distance(a, b)
    assert hausdorff_distance(b, a) == got
    assert abs(got - oracle_hausdorff_dense(a, b)) <= chord_sag(a) + chord_sag(b)


def test_hausdorff_dense_matches_oracle_along_a_flow():
    start = labcli._normalize_unit_area(fourier_curve(1.0, (0.0, 0.06, 0.02), m=128))
    traj = run_rmcf(start, 1.0, frame_dtau=0.1)
    reference = circle(SQRT2, m=128)
    for frame in traj.curves:
        got = hausdorff_distance(frame, reference)
        assert hausdorff_distance(reference, frame) == got
        dense = oracle_hausdorff_dense(frame, reference, windowed_directed_sup)
        assert abs(got - dense) <= chord_sag(frame) + ROUND_SAG


def test_hausdorff_distance_closed_forms():
    assert abs(hausdorff_distance(circle(1.0, center=(5.0, 0.0), m=64),
                                  circle(1.0, center=(5.001, 0.0), m=64))
               - 0.001) <= 1e-15
    # the support functions of nested ellipses with parallel axes differ
    # most along the axis where the semi-axes differ most
    assert abs(hausdorff_distance(ellipse(2.0, 0.5), ellipse(2.2, 0.6))
               - 0.2) <= 1e-15


def test_distances_reject_a_curve_that_is_not_convex():
    round_curve = circle(SQRT2, m=128)
    for a, b in ((dented(), round_curve), (round_curve, dented())):
        with pytest.raises(InvalidCurve, match="convex"):
            hausdorff_distance(a, b)
    with pytest.raises(InvalidCurve, match="convex"):
        distance_to_circle([dented()], SQRT2)


def test_one_interpolant_table_per_coefficient_set(monkeypatch):
    # normal_graph polishes on the target's one table; resample builds one
    # each for the arclength, the speed and the points
    built = []

    class Counted(fourier.Interpolant):
        def __init__(self, coef, m, order=0):
            built.append(order)
            super().__init__(coef, m, order)

    monkeypatch.setattr(fourier, "Interpolant", Counted)
    base = circle(SQRT2, m=128)
    normal_graph(base, reconstruct(base, 0.01 * np.cos(3 * grid(128))))
    assert built == [1]
    built.clear()
    resample(ellipse(1.3, 0.8, m=128))
    assert built == [0, 0, 0]


class CountedCalls(fourier.Interpolant):
    """An Interpolant that counts its evaluations in `calls`."""

    calls = 0

    def __call__(self, thetas):
        CountedCalls.calls += 1
        return super().__call__(thetas)


def half_node_pair(m):
    """circle(sqrt 2) and the graph of 0.01 sqrt(2) cos 3 theta over it,
    its nodes half a node off the base normals."""
    phi = grid(m) + np.pi / m
    r = SQRT2 * (1.0 + 0.01 * np.cos(3 * phi))
    return circle(SQRT2, m=m), DiscreteCurve(
        np.column_stack([r * np.cos(phi), r * np.sin(phi)]))


def test_normal_graph_takes_one_evaluation_per_newton_step(monkeypatch):
    # the residual a step below 1e-12 starts from is the convergence check,
    # so no evaluation follows the last step: one where every seed is a
    # target node, two from half-way between nodes
    monkeypatch.setattr(fourier, "Interpolant", CountedCalls)
    monkeypatch.setattr(CountedCalls, "calls", 0)
    base = circle(SQRT2, m=256)
    normal_graph(base, reconstruct(base, 0.01 * np.cos(3 * grid(256))))
    assert CountedCalls.calls == 1
    CountedCalls.calls = 0
    normal_graph(*half_node_pair(256))
    assert CountedCalls.calls == 2


def test_normal_graph_still_checks_a_newton_loop_that_runs_out(monkeypatch):
    # a derivative ten times too steep moves theta a tenth of the way, so
    # every step stays above 1e-12 and the loop ends at its cap; the final
    # residual is evaluated afresh and is far above the tolerance
    class Stalled(CountedCalls):
        def __call__(self, thetas):
            value, der = super().__call__(thetas)
            return [value, 10.0 * der]

    monkeypatch.setattr(fourier, "Interpolant", Stalled)
    monkeypatch.setattr(CountedCalls, "calls", 0)
    with pytest.raises(NotAGraph, match="graph iteration failed to converge"):
        normal_graph(*half_node_pair(256))
    assert CountedCalls.calls == 5


# ---------------------------------------------------------------------------
# closed-form distance to the round limit

def test_distance_to_circle_is_exact_on_a_rotated_ellipse():
    # the extremes of the support gap sit between 8192-point samples, which
    # are 5.2e-8 off here; the Newton-refined extremes are exact to rounding
    a, b, phi = 1.6, 1.25, 1.2343
    t = grid(256)
    curve = DiscreteCurve(np.column_stack([a * np.cos(t + phi),
                                           b * np.sin(t + phi)]))
    expected = max(a - SQRT2, SQRT2 - b)
    assert abs(distance_to_circle([curve], SQRT2)[0] - expected) <= 1e-14


def test_distance_to_circle_round_and_off_centre(recwarn):
    # on a round curve the second derivative of the support gap is rounding
    # noise: the safeguarded division warns of nothing and the result stays
    # exact
    assert distance_to_circle([circle(SQRT2)], SQRT2)[0] <= 1e-14
    assert abs(distance_to_circle([circle(1.3)], SQRT2)[0]
               - (SQRT2 - 1.3)) <= 1e-14
    # off the origin, and passing 0.001 from it: the support functions
    # 1 + <c, n> and sqrt(2) differ most along c or against it
    assert abs(distance_to_circle([circle(1.0, center=(2.0, 0.0))], SQRT2)[0]
               - (1.0 + SQRT2)) <= 1e-14
    assert abs(distance_to_circle([circle(1.0, center=(0.999, 0.0), m=256)],
                                  SQRT2)[0] - (SQRT2 - 0.001)) <= 1e-14
    assert len(recwarn) == 0


def test_distance_to_circle_matches_dense_along_a_flow():
    # the extremes of |x| of these mixes of the modes 2 to 4 fall on the
    # dense samples of the oracle
    for m, modes in itertools.product(
            (64, 128, 256), ((0.0, 0.05), (0.0, 0.03, 0.0, 0.03),
                             (0.0, 0.02, 0.02, 0.02, 0.01))):
        start = labcli._normalize_unit_area(fourier_curve(1.0, modes, m=m))
        traj = run_rmcf(start, 2.0, frame_dtau=0.1)
        reference = circle(SQRT2, m=m)
        for frame, got in zip(traj.curves,
                              distance_to_circle(traj.curves, SQRT2)):
            dense = oracle_hausdorff_dense(frame, reference,
                                           windowed_directed_sup)
            assert abs(got - dense) <= 1e-12 * dense, (m, modes)
            rows = upsample(frame.points.T, M_DENSE)
            assert got >= np.abs(np.hypot(*rows) - SQRT2).max(), (m, modes)


def oracle_round_distance(samples, radius_at):
    """max | r - sqrt 2 | of a radius function r = radius_at(theta) > 0,
    given its values on a uniform periodic grid: each local extreme of the
    samples polished by bounded Brent within one grid spacing."""
    h = TWO_PI / samples.size
    worst = 0.0
    for sign in (-1.0, 1.0):
        s = sign * samples
        for j in np.flatnonzero((s <= np.roll(s, 1)) & (s <= np.roll(s, -1))):
            res = minimize_scalar(
                lambda t: sign * float(radius_at(np.array([t]))[0]),
                bounds=((j - 1) * h, (j + 1) * h), method="bounded",
                options={"xatol": 1e-12})
            worst = max(worst, abs(sign * min(res.fun, s[j]) - SQRT2))
    return worst


def direct_radius(curve):
    """|x| of the curve's trigonometric interpolant by direct summation of
    its complex Fourier series (the Nyquist term a cosine)."""
    coef = np.fft.fft(curve.points, axis=0) / curve.m
    k = np.fft.fftfreq(curve.m, 1.0 / curve.m)
    return lambda t: np.hypot(*(np.exp(1j * np.outer(t, k)) @ coef).real.T)


#: four times the rounding of |x| near sqrt(2), the resolution of
#: | |x| - sqrt(2) | in double precision
ROUND_R = 4.0 * np.finfo(float).eps * SQRT2


def test_distance_to_circle_resolves_a_mode_5_flow():
    # the inner extremes of mode 5 (angle pi/5) fall between the dense
    # samples, and the flow takes d_H down to 3.0e-8, where one unit in
    # the last place of |x| is 7e-9 of it: the oracle refines them on the
    # direct Fourier sum, and the bound is absolute, tighter than 1e-12
    # relative while d_H > 1.3e-3. The amplitude 0.035 is below 1/26, so
    # the start is convex
    for m in (64, 128, 256):
        start = labcli._normalize_unit_area(
            fourier_curve(1.0, (0.0, 0.0, 0.0, 0.0, 0.035), m=m))
        frames = run_rmcf(start, 2.0, frame_dtau=0.1).curves
        for frame, got in zip(frames, distance_to_circle(frames, SQRT2)):
            exact = oracle_round_distance(
                np.hypot(*upsample(frame.points.T, M_DENSE)),
                direct_radius(frame))
            assert abs(got - exact) <= ROUND_R, m
            assert got >= np.abs(np.hypot(*frame.points.T) - SQRT2).max()


def test_distance_to_circle_finds_the_extreme_the_node_samples_misrank():
    # three peaks of |x| at 2 pi k/3, on and 1/3 spacing off the m = 64
    # nodes, and troughs in between; a small mode 1 lifts the off-node peak
    # and trough above the on-node ones, by less than the node sag, so the
    # node argmax and argmin lie beside the wrong extremes
    def radius_at(t):
        return SQRT2 + 0.05 * np.cos(3.0 * t) + 1e-4 * np.cos(t - TWO_PI / 3.0)

    t = grid(64)
    r = radius_at(t)
    curve = DiscreteCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    assert np.argmax(r) == 0 and np.argmin(r) == 32
    exact = oracle_round_distance(radius_at(grid(M_DENSE)), radius_at)
    assert exact - max(r.max() - SQRT2, SQRT2 - r.min()) > 1e-4
    assert abs(distance_to_circle([curve], SQRT2)[0] - exact) <= ROUND_R


def test_distance_to_circle_matches_dense_off_the_origin(recwarn):
    # a convex mode-4 curve beside the circle, not around the origin: the
    # oracle takes every point of each dense polygon against every segment
    # of the other
    curve = translated(fourier_curve(0.5, (0.0, 0.0, 0.0, 0.05), m=256),
                       (1.6, 0.4))
    assert curve.points[:, 0].min() > 0.0
    (got,) = distance_to_circle([curve], SQRT2)
    pa, pb = (upsample(c.points.T, M_DENSE).T
              for c in (curve, circle(SQRT2, m=256)))
    exact = max(oracle_polygon_sup(pa, pb), oracle_polygon_sup(pb, pa))
    assert abs(got - exact) <= chord_sag(curve) + ROUND_SAG
    assert len(recwarn) == 0


@functools.cache
def rate_frames(m=256, tau_end=4.0):
    """The frames of the rate workload's flow: the mode-2 start at area
    2 pi, every 0.01 in tau (401 frames to tau 4)."""
    start = labcli._normalize_unit_area(fourier_curve(1.0, (0.0, 0.05), m=m))
    return run_rmcf(start, tau_end, frame_dtau=0.01).curves


def counted_mode_sum(monkeypatch):
    """Route `fourier.mode_sum` through a wrapper that appends the number of
    points of each call to the list it returns."""
    points = []
    mode_sum = fourier.mode_sum

    def counted(coef, m, rows, thetas, order=0):
        points.append(len(thetas))
        return mode_sum(coef, m, rows, thetas, order)

    monkeypatch.setattr(fourier, "mode_sum", counted)
    return points


def test_batched_distances_do_not_couple_frames(monkeypatch):
    # two curves whose refinements take two and three Newton evaluations
    # ahead of 131 flow frames that take one, in three blocks of at most 64
    # frames: each row is the one-frame call bit for bit, and the batch
    # evaluates exactly the points the one-frame calls do
    points = counted_mode_sum(monkeypatch)
    frames = [rotated_ellipse(1.6, 1.25, 1.2343, 256),
              translated(fourier_curve(0.5, (0.0, 0.0, 0.0, 0.05), m=256),
                         (1.6, 0.4))] + rate_frames(tau_end=1.3)
    assert len(frames) > 2 * (curvegeo._BLOCK_NODES // 256)
    batched = distance_to_circle(frames, SQRT2)
    assert batched.shape == (len(frames),)
    evaluated = sum(points)
    points.clear()
    for frame, got in zip(frames, batched):
        assert distance_to_circle([frame], SQRT2)[0] == got
    assert sum(points) == evaluated
    # the graph distances of the separation frames, in blocks of 3 frames
    starts = [labcli._normalize_unit_area(c)
              for c in (ellipse(1.1, 1.0 / 1.1, m=128), circle(1.0, m=128))]
    base, target = run_flows(starts, "rmcf", 2.0, frame_dtau=0.1,
                             gauge="area-centroid")
    fields = frequency.monitor(base, target).fields
    args = (base.curves[1:-1], fields, target.curves[1:-1])
    monkeypatch.setattr(curvegeo, "_BLOCK_NODES", 3 * 128)
    points.clear()
    batched = graph_hausdorff(*args)
    assert batched.shape == (len(fields),) and len(fields) > 6
    evaluated = sum(points)
    points.clear()
    for j, row in enumerate(zip(*args)):
        assert graph_hausdorff(*([a] for a in row))[0] == batched[j]
    assert sum(points) == evaluated


def test_rounding_noise_refines_nothing(monkeypatch):
    # a round frame's node gaps, and the heights between a round curve and
    # itself, are rounding noise: no point is evaluated, where 2,316 seeds
    # would be refined without the noise floor
    calls = counted_mode_sum(monkeypatch)
    round_frame = circle(SQRT2, m=2048)
    assert distance_to_circle([round_frame], SQRT2)[0] <= 1e-14
    u = normal_graph(round_frame, circle(SQRT2, m=2048))
    assert graph_hausdorff([round_frame], [u], [round_frame])[0] <= 1e-14
    assert calls == []
    # a frame one step from round still refines its extremes
    assert distance_to_circle([circle(1.3, m=2048)], SQRT2)[0] \
        == pytest.approx(SQRT2 - 1.3, abs=1e-14)
    assert distance_to_circle([rate_frames()[-1]], SQRT2)[0] > 1e-3
    assert calls


def test_batched_distance_memory_is_bounded():
    # the 401 frames of the rate workload in blocks of at most 64 frames,
    # each block's points evaluated in chunks: near 1.7 MB, where one block
    # of all 401 frames peaks near 7.5 MB (one table per frame, 0.2 MB)
    frames = rate_frames()
    assert len(frames) == 401
    distance_to_circle(frames, SQRT2)
    tracemalloc.start()
    try:
        distance_to_circle(frames, SQRT2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_shrinker_energy_is_the_monitor_itilde():
    for curve in (random_fourier(5, 0.08, seed=2, m=128),
                  ellipse(1.3, 0.8, m=64), circle(1.1, m=64)):
        one = FlowTrajectory(picture="rmcf", m=curve.m, times=[0.0],
                             curves=[curve])
        assert frequency.shrinker_energy(curve) == \
            frequency._frames(one)["itilde"][0]


# ---------------------------------------------------------------------------
# normal-graph distance in closed form

def nearest_vertices(p, q, coarse=64):
    """Index of the vertex of polygon q nearest each point of p: a k-d tree
    on every coarse-th vertex, then descent over the vertices in steps
    halving from coarse/2 to 1. Exact where the vertex distance has one
    minimum within a coarse spacing, as for a smooth curve well within its
    reach."""
    m_q = q.shape[0]
    idx = coarse * cKDTree(q[::coarse]).query(p)[1]
    best = ((p - q[idx]) ** 2).sum(axis=1)
    step = coarse // 2
    while step:
        moved = False
        for trial in (idx + step, idx - step):
            d2 = ((p - q[trial % m_q]) ** 2).sum(axis=1)
            better = d2 < best
            idx = np.where(better, trial % m_q, idx)
            best = np.minimum(best, d2)
            moved = moved or bool(better.any())
        if not moved:
            step //= 2
    return idx


def dense_hausdorff(a, b, m_dense=131072):
    """Both interpolants on m_dense points, each point against the six
    segments around its nearest vertex of the other polygon: exact to the
    chord sag of the finer polygons, about 5e-10 here."""
    pa = upsample(a.points.T, m_dense).T
    pb = upsample(b.points.T, m_dense).T
    return max(windowed_directed_sup(p, q, nearest_vertices(p, q))
               for p, q in ((pa, pb), (pb, pa)))


def rotated_ellipse(a, b, phase, m):
    t = grid(m) + phase
    return DiscreteCurve(np.column_stack([a * np.cos(t), b * np.sin(t)]))


GRAPH_PAIRS = {
    # |u| peaks on the x-axis, which no base node hits
    "ellipses": lambda m: (rotated_ellipse(1.5, 1.3, 1.2343, m),
                           ellipse(1.45, 1.33, m=m)),
    "random": lambda m: (random_fourier(6, 0.05, seed=3, m=m),
                         random_fourier(5, 0.04, seed=7, m=m)),
}


@functools.cache
def graph_pair_oracle(pair):
    # both curves are trigonometric polynomials of degree <= 7, so their
    # interpolants are the same curves at every m >= 16: one oracle each
    return dense_hausdorff(*GRAPH_PAIRS[pair](512))


@pytest.mark.parametrize("m", [64, 128, 512])
@pytest.mark.parametrize("pair", sorted(GRAPH_PAIRS))
def test_graph_hausdorff_refines_a_sup_between_nodes(pair, m, monkeypatch):
    base, target = GRAPH_PAIRS[pair](m)
    monkeypatch.setattr(gauge, "hausdorff_distance", None)  # no fallback
    u = normal_graph(base, target)
    (got,) = graph_hausdorff([base], [u], [target])
    assert got > np.abs(u).max()
    assert abs(got - graph_pair_oracle(pair)) <= 1e-9


def test_graph_hausdorff_refines_a_peak_below_the_node_maximum(monkeypatch):
    # two peaks of |u| within the node sag of each other: the node maximum
    # sits beside the lower one, and sup|u| = 0.0501 beside another node
    def u_of(t):
        return 0.05 * np.cos(3 * t) + 1e-4 * np.cos(t - TWO_PI / 3)

    m = 64
    base = circle(SQRT2, m=m)
    u = u_of(grid(m))
    monkeypatch.setattr(gauge, "hausdorff_distance", None)  # no fallback
    (got,) = graph_hausdorff([base], [u], [reconstruct(base, u)])
    fine = np.abs(u_of(grid(1 << 16)))
    j = int(np.argmax(fine))
    h = TWO_PI / fine.size
    res = minimize_scalar(lambda t: -abs(float(u_of(t))),
                          bounds=((j - 1) * h, (j + 1) * h), method="bounded",
                          options={"xatol": 1e-12})
    assert abs(got - max(-res.fun, fine[j])) <= 1e-12
    assert got > np.abs(u).max() + 1e-4


def test_graph_hausdorff_matches_dense_on_separation_frames(monkeypatch):
    monkeypatch.setattr(gauge, "hausdorff_distance", None)  # no fallback
    starts = [labcli._normalize_unit_area(c)
              for c in (ellipse(1.1, 1.0 / 1.1, m=128), circle(1.0, m=128))]
    base, target = run_flows(starts, "rmcf", 3.0, frame_dtau=0.1,
                             gauge="area-centroid")
    trace = frequency.monitor(base, target)
    assert len(trace.fields) == len(base) - 2 > 20
    dists = graph_hausdorff(base.curves[1:-1], trace.fields,
                            target.curves[1:-1])
    for j, got in enumerate(dists, start=1):
        assert abs(got - hausdorff_distance(base.curves[j], target.curves[j])) \
            <= 1e-15


def test_graph_hausdorff_falls_back_off_its_conditions(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return hausdorff_distance(a, b)

    monkeypatch.setattr(gauge, "hausdorff_distance", counted)
    t = grid(128)
    # in reach over a convex base: closed form
    base = circle(1.0, m=128)
    u = 0.02 * np.cos(3 * t)
    assert abs(graph_hausdorff([base], [u], [reconstruct(base, u)])[0]
               - 0.02) <= 1e-15
    assert calls == []
    # a height of 0.6 over circle(1) (reach 1): beyond half of either reach
    for height in (0.6, -0.6):
        u = np.full(128, height)
        target = reconstruct(base, u)
        assert graph_hausdorff([base], [u], [target])[0] \
            == hausdorff_distance(base, target)
    assert len(calls) == 2
    # beyond half the reach of a base that is not convex: the support
    # functions do not measure it
    base = dented()
    u = np.full(128, 0.3)
    assert 0.3 >= 0.5 / geometry(base).curvature.max()
    target = reconstruct(base, u)
    with pytest.raises(InvalidCurve, match="convex"):
        graph_hausdorff([base], [u], [target])
    assert len(calls) == 3 and calls[-1] == (base, target)


# ---------------------------------------------------------------------------
# simplicity scan: one `curvegeo.crossings` search of a polyline's own segments

def shallow_figure_eight(m):
    """A figure eight whose arms cross at about 0.05 rad between nodes."""
    t = grid(m) + 0.3 * TWO_PI / m
    return np.column_stack([np.sin(2 * t), 0.05 * np.sin(t)])


def c_shape(n, gap):
    """An annular arc of radii 0.6 and 1 whose radial end caps come within
    `gap` of each other at the inner radius (they cross for gap < 0)."""
    a = math.asin(0.5 * gap / 0.6)
    t = np.linspace(a, TWO_PI - a, n)
    arc = np.column_stack([np.cos(t), np.sin(t)])
    return np.concatenate([arc, 0.6 * arc[::-1]])


def test_blocked_self_intersection_matches_unblocked():
    t = grid(512)
    figure_eight = np.column_stack([np.sin(2 * t), np.sin(t)])
    # vertex 5 lies on segment 0, which it is not adjacent to: no crossing;
    # pushed one unit further down, it crosses it
    touch = np.array([(0, 0), (8, 0), (8, 4), (8, 8), (6, 8), (4, 0), (2, 8),
                      (0, 8)], dtype=float)
    poke = touch.copy()
    poke[5, 1] = -1.0
    cases = [
        (u_shape(512).points, False),
        # 640 rows: two full blocks of _ROWS and a partial last one
        (u_shape(640).points, False),
        (figure_eight, True),
        (shallow_figure_eight(512), True),
        (c_shape(256, 1e-6), False),
        (c_shape(256, -1e-6), True),
        (touch, False),
        (poke, True),
        # segments so short that unscaled, |den| would fall below 1e-14
        (1e-8 * touch, False),
        (1e-8 * poke, True),
    ]
    for points, crossed in cases:
        assert star_angles(points) is None
        assert _has_self_intersection(points) == crossed
        assert oracle_has_self_intersection(points) == crossed


@pytest.mark.parametrize("m", [64, 256, 512])
@pytest.mark.parametrize("arms", [(-1, "sin2", "sin1"), (1, "sin1", "sin2"),
                                  (1, "sin2", "sin1")])
def test_figure_eights_through_vertices_are_not_simple(m, arms):
    """Both arms pass through nodes at the origin, where the proper-crossing
    rule decides on rounding: the arm through a vertex counts, in either
    node order and at any roll."""
    t = grid(m)
    waves = {"sin1": np.sin(t), "sin2": np.sin(2 * t)}
    sign, x, y = arms
    points = np.column_stack([sign * waves[x], waves[y]])
    for order in (points, points[::-1]):
        for roll in (0, 1, m // 4, m // 2 - 1, m - 3):
            rolled = np.roll(order, roll, axis=0)
            assert _has_self_intersection(rolled)
            assert oracle_has_self_intersection(rolled)
            with pytest.raises(InvalidCurve, match="^polyline is not simple$"):
                DiscreteCurve(rolled)


def test_bow_tie_through_an_interior_vertex_is_not_simple():
    """Exact coordinates: the falling diagonal's segment (5, 3)-(3, 5) runs
    through the rising diagonal's vertex (4, 4), which no pair crosses
    properly."""
    points = np.array([(0, 0), (2, 2), (4, 4), (6, 6), (8, 8), (8, 6),
                       (8, 4), (8, 0), (6, 2), (5, 3), (3, 5), (2, 6),
                       (0, 8), (0, 6), (0, 4), (0, 2)], dtype=float)
    assert _has_self_intersection(points)
    assert oracle_has_self_intersection(points)
    with pytest.raises(InvalidCurve, match="^polyline is not simple$"):
        DiscreteCurve(points)


def test_self_intersection_scan_memory_is_linear_in_m():
    # the all-pairs oracle at m = 2048 holds m x m arrays of 34 MB each;
    # the scan, blocks of _ROWS x m pairs, peaks near 27 MB
    points = u_shape(2048).points
    tracemalloc.start()
    try:
        assert not _has_self_intersection(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
