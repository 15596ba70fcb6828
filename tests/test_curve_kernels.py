"""The curve-to-curve kernels against all-pairs oracles, bit for bit.

`gauge.normal_graph` searches only candidate target segments found by polar
angle, `curvegeo.hausdorff_distance` builds each dense polygon once per call
and searches in full only the points its six-segment window may misjudge, and
the all-pairs fallbacks of `curvegeo` run in row blocks. None of them may
change a result: each is compared here with `np.array_equal` (or `==`)
against a copy of the straightforward all-pairs formulation it replaced.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkerlab import fourier, labcli
from shrinkerlab.curvegeo import (_M_DENSE, TWO_PI, DiscreteCurve,
                                  _has_self_intersection,
                                  _points_to_segments_max, circle, ellipse,
                                  fourier_curve, geometry, hausdorff_distance,
                                  resample, star_angles)
from shrinkerlab.errors import NotAGraph
from shrinkerlab.flowcore import run_rmcf
from shrinkerlab.gauge import (_candidate_pairs, _sectors, normal_graph,
                              reconstruct)

SQRT2 = math.sqrt(2.0)


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


def oracle_directed_sup(p, q):
    """sup over p of the distance to polygon q, every point against every
    segment in blocks of 16 points; (n, 2) arrays."""
    ang_q = np.arctan2(q[:, 1], q[:, 0])
    if np.any(np.diff(np.roll(ang_q, -int(np.argmin(ang_q)))) <= 0.0):
        return None
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


def windowed_directed_sup(p, q):
    """The six segments around each point's polar angle only: an upper
    bound on the distance, exact when they hold the nearest segments."""
    m_q = q.shape[0]
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


def oracle_hausdorff_dense(a, b, directed_sup=oracle_directed_sup):
    pa = fourier.upsample(a.points.T, _M_DENSE).T
    pb = fourier.upsample(b.points.T, _M_DENSE).T
    d_ab = directed_sup(pa, pb)
    d_ba = directed_sup(pb, pa)
    if d_ab is None or d_ba is None:
        return max(oracle_points_to_segments_max(a.points, b.points),
                   oracle_points_to_segments_max(b.points, a.points))
    return max(d_ab, d_ba)


def oracle_has_self_intersection(points):
    if star_angles(points) is not None:
        return False
    m = points.shape[0]
    p = points
    q = np.roll(points, -1, axis=0)
    d = q - p
    rx = p[None, :, 0] - p[:, None, 0]
    ry = p[None, :, 1] - p[:, None, 1]
    sx = q[None, :, 0] - p[:, None, 0]
    sy = q[None, :, 1] - p[:, None, 1]
    d1 = d[:, None, 0] * ry - d[:, None, 1] * rx
    d2 = d[:, None, 0] * sy - d[:, None, 1] * sx
    cross = (d1 * d2 < 0.0) & (d1 * d2 < 0.0).T
    idx = np.arange(m)
    adj = np.abs(idx[:, None] - idx[None, :]) % m
    cross[(adj == 0) | (adj == 1) | (adj == m - 1)] = False
    return bool(cross.any())


def oracle_points_to_segments_max(a, b):
    d = np.roll(b, -1, axis=0) - b
    dd = np.einsum("ij,ij->i", d, d)
    diff = a[:, None, :] - b[None, :, :]
    t = np.einsum("ijk,jk->ij", diff, d) / dd[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    closest = diff - t[:, :, None] * d[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", closest, closest)
    return float(np.sqrt(dist2.min(axis=1).max()))


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
        fourier_curve(1.35, (0.0, 0.04), (0.0, 0.0, 0.02), m=112)
        .translated((0.12, -0.07))),
    "ellipse": lambda: (ellipse(1.3, 0.8, m=128), ellipse(1.32, 0.79, m=128)),
    "non-star": _non_star,
}


# ---------------------------------------------------------------------------
# normal_graph

@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_normal_graph_matches_all_pairs_oracle(case):
    base, target = GRAPH_CASES[case]()
    assert np.array_equal(normal_graph(base, target).values,
                          oracle_normal_graph(base, target))


def test_non_star_case_takes_full_rows():
    # so its oracle comparison above covers the full-row path
    assert _sectors(_non_star()[1].points) is None


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
    rows, _ = _candidate_pairs(np.arange(m), base.points, geometry(base).normal,
                               half, m, _sectors(target.points))
    assert np.bincount(rows, minlength=m).max() <= 4


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
    got = normal_graph(base, target).values
    assert np.abs(got - u).max() < 1e-10
    assert np.array_equal(got, oracle_normal_graph(base, target))


# ---------------------------------------------------------------------------
# dense Hausdorff distance

HAUSDORFF_CASES = {
    "small-offset": lambda: (circle(SQRT2, m=96), circle(SQRT2 + 1e-5, m=96)),
    "different-m": lambda: (ellipse(1.3, 0.8, m=128), circle(1.1, m=96)),
    "rate-start": lambda: (
        labcli._normalize_unit_area(fourier_curve(1.0, (0.0, 0.0, 0.05), m=256)),
        circle(SQRT2, m=256)),
    "fallback-offcentre": lambda: (circle(1.0, center=(5.0, 0.0), m=64),
                                   circle(1.0, center=(5.001, 0.0), m=64)),
    # polar angle and normal part ways: the window's bound is loose at most
    # points and its sup is 0.21491, where the exact distance is 0.2
    "non-round": lambda: (ellipse(2.0, 0.5), ellipse(2.2, 0.6)),
}


@pytest.mark.parametrize("case", sorted(HAUSDORFF_CASES))
def test_hausdorff_dense_matches_oracle(case):
    a, b = HAUSDORFF_CASES[case]()
    expected = oracle_hausdorff_dense(a, b)
    assert hausdorff_distance(a, b) == expected
    assert hausdorff_distance(b, a) == expected


def test_hausdorff_dense_matches_oracle_along_a_flow():
    # the window is exact on every frame of a flow toward the round limit,
    # so the full check changes no scenario output
    start = labcli._normalize_unit_area(fourier_curve(1.0, (0.0, 0.06, 0.02), m=128))
    traj = run_rmcf(start, 1.0, frame_dtau=0.1)
    reference = circle(SQRT2, m=128)
    for frame in traj.curves:
        assert (hausdorff_distance(frame, reference)
                == oracle_hausdorff_dense(frame, reference, windowed_directed_sup))


# ---------------------------------------------------------------------------
# blocked all-pairs fallbacks

def test_blocked_self_intersection_matches_unblocked():
    simple = u_shape(512).points
    t = grid(512)
    figure_eight = np.column_stack([np.sin(2 * t), np.sin(t)])
    for points in (simple, figure_eight):
        assert star_angles(points) is None
        assert _has_self_intersection(points) == oracle_has_self_intersection(points)
    assert not _has_self_intersection(simple)
    assert _has_self_intersection(figure_eight)


def test_blocked_points_to_segments_matches_unblocked():
    a = u_shape(512).points
    b = reconstruct(u_shape(600), 0.002 * np.cos(5 * grid(600))).points
    for p, q in ((a, b), (b, a)):
        assert _points_to_segments_max(p, q) == oracle_points_to_segments_max(p, q)
