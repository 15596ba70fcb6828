"""Geometry layer: construction invariants and closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0 as bessel_i0

from shrinkerlab import curvegeo
from shrinkerlab.curvegeo import (
    DiscreteCurve,
    circle,
    ellipse,
    f_functional,
    fourier_curve,
    gaussian_weights,
    geometry,
    hausdorff_distance,
    random_fourier,
    resample,
    shrinker_quantity,
    support_function,
)
from shrinkerlab.errors import DegenerateCurve, InvalidCurve

SQRT2 = np.sqrt(2.0)
EPS = float(np.finfo(float).eps)


def length(curve):
    """Length of the interpolated curve (spectral quadrature)."""
    return float(geometry(curve).arclength_weights.sum())


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_rejects_odd_node_count():
    t = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    with pytest.raises(InvalidCurve):
        DiscreteCurve(np.column_stack([np.cos(t), np.sin(t)]))


def test_rejects_too_few_nodes():
    t = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    with pytest.raises(InvalidCurve):
        DiscreteCurve(np.column_stack([np.cos(t), np.sin(t)]))


def test_rejects_nonfinite():
    pts = circle(1.0, m=32).points.copy()
    pts[3, 0] = np.nan
    with pytest.raises(InvalidCurve):
        DiscreteCurve(pts)


def test_rejects_self_intersection():
    # figure eight
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([np.sin(2 * t), np.sin(t)])
    with pytest.raises(InvalidCurve):
        DiscreteCurve(pts)


def test_rejects_extreme_spacing_ratio():
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    warped = t - 0.95 * np.sin(t)  # clusters nodes near t = 0
    pts = np.column_stack([np.cos(warped), np.sin(warped)])
    with pytest.raises(InvalidCurve):
        DiscreteCurve(pts)


@settings(max_examples=40, deadline=1000, derandomize=True)
@given(kmax=st.integers(2, 8), amplitude=st.floats(0.0, 0.2),
       seed=st.integers(0, 2 ** 16), m=st.sampled_from([16, 64, 256]),
       roll=st.integers(0, 255))
def test_orientation_normalized_to_ccw(kmax, amplitude, seed, m, roll):
    forward = random_fourier(kmax, amplitude, seed=seed, m=m)
    clockwise = np.roll(forward.points, roll % m, axis=0)[::-1]
    back = DiscreteCurve(clockwise)
    # node for node the reverse of the input: reversal is exact
    assert np.array_equal(back.points, clockwise[::-1])
    assert back.area() > 0.0
    assert abs(back.area() - forward.area()) <= 1e-13 * forward.area()


def test_unvalidated_construction_keeps_the_node_order():
    clockwise = circle(1.0, m=32).points[::-1]
    kept = DiscreteCurve(clockwise, validate=False)
    assert np.array_equal(kept.points, clockwise)
    assert kept.area() < 0.0


def test_points_are_readonly():
    c = circle(1.0, m=32)
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


# ---------------------------------------------------------------------------
# differential geometry oracles
# ---------------------------------------------------------------------------

def test_circle_geometry_fields():
    r = 1.7
    c = circle(r, m=128)
    geom = geometry(c)
    assert np.allclose(geom.curvature, 1.0 / r, atol=1e-12)
    # inner normal points toward the center
    t = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    assert np.allclose(geom.normal, -np.column_stack([np.cos(t), np.sin(t)]), atol=1e-12)
    assert np.allclose(np.einsum("ij,ij->i", geom.tangent, geom.normal), 0.0, atol=1e-14)
    assert np.allclose(np.hypot(*geom.normal.T), 1.0, atol=1e-13)
    # spectral weights integrate the smooth circumference exactly
    assert abs(geom.arclength_weights.sum() - 2 * np.pi * r) < 1e-12


def test_ellipse_curvature_closed_form():
    a, b = 2.0, 1.0
    c = ellipse(a, b, m=256)
    geom = geometry(c)
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    g = np.sqrt(a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2)
    assert np.allclose(geom.curvature, a * b / g**3, rtol=1e-10)


def test_degenerate_parametrization_raises():
    # nearly stationary parametrization over a stretch of the grid
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t)]) * 1e-12
    c = DiscreteCurve(pts, validate=False)
    with pytest.raises(DegenerateCurve):
        geometry(c)


def test_area_and_centroid():
    c = circle(1.3, center=(0.4, -0.2), m=128)
    assert abs(c.area() - np.pi * 1.3**2) < 1e-12
    assert np.allclose(curvegeo.area_centroid(c.points)[1:], [0.4, -0.2],
                       atol=1e-12)
    e = ellipse(2.0, 0.5, m=256)
    assert abs(e.area() - np.pi * 2.0 * 0.5) < 1e-10
    # shoelace agrees to polygon accuracy O(m^-2)
    assert abs(curvegeo.polygon_area(e.points) - e.area()) < 5e-4
    coarse = ellipse(2.0, 0.5, m=128)
    fine_err = abs(curvegeo.polygon_area(e.points) - e.area())
    coarse_err = abs(curvegeo.polygon_area(coarse.points) - coarse.area())
    assert coarse_err / fine_err > 3.0  # roughly quadratic in 1/m


# ---------------------------------------------------------------------------
# shrinker quantity and Gaussian functional
# ---------------------------------------------------------------------------

def test_shrinker_quantity_vanishes_on_root_two_circle():
    c = circle(SQRT2, m=256)
    assert np.max(np.abs(shrinker_quantity(c))) < 1e-10


def test_shrinker_quantity_circle_radius_law():
    # phi = 1/r - r/2 on an origin-centered circle
    for r in (0.8, SQRT2, 2.5):
        c = circle(r, m=128)
        assert np.allclose(shrinker_quantity(c), 1.0 / r - r / 2.0, atol=1e-12)


def test_shrinker_quantity_ellipse_closed_form():
    a, b = 1.6, 1.2
    c = ellipse(a, b, m=256)
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    g = np.sqrt(a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2)
    expected = a * b / g**3 - a * b / (2.0 * g)
    assert np.allclose(shrinker_quantity(c), expected, rtol=1e-9, atol=1e-10)


def test_f_functional_circle_closed_form():
    # F(radius r, centered) = sqrt(pi) * r * exp(-r^2/4)
    for r in (1.0, SQRT2, 2.0):
        c = circle(r, m=128)
        assert abs(f_functional(c) - np.sqrt(np.pi) * r * np.exp(-r * r / 4)) < 1e-13


def test_f_functional_stationary_value():
    c = circle(SQRT2, m=256)
    assert abs(f_functional(c) - np.sqrt(2 * np.pi) * np.exp(-0.5)) < 1e-13


def test_f_functional_off_center_bessel_oracle():
    # independent oracle: F = sqrt(pi) r exp(-(r^2+d^2)/4) I0(r d / 2)
    r, d = 1.4, 0.9
    expected = np.sqrt(np.pi) * r * np.exp(-(r * r + d * d) / 4) * bessel_i0(r * d / 2)
    for m, tol in ((64, 1e-10), (256, 1e-13)):
        c = circle(r, center=(d, 0.0), m=m)
        assert abs(f_functional(c) - expected) < tol


def test_f_functional_maximized_at_root_two():
    # among centered round curves the stationary radius is the maximizer
    vals = [f_functional(circle(r, m=64)) for r in (1.2, SQRT2, 1.6)]
    assert vals[1] > vals[0] and vals[1] > vals[2]


def test_gaussian_weights_positive():
    c = random_fourier(6, 0.08, seed=11, m=128)
    assert np.all(gaussian_weights(c) > 0)


# ---------------------------------------------------------------------------
# hausdorff distance
# ---------------------------------------------------------------------------

def test_hausdorff_concentric_circles():
    r1, r2 = 1.0, 1.5
    sag = r2 * (1 - np.cos(np.pi / 256))  # chord sag bound at m=256
    h = hausdorff_distance(circle(r1, m=256), circle(r2, m=256))
    assert r2 - r1 - 1e-12 <= h <= r2 - r1 + sag + 1e-12


def test_hausdorff_translated_circle():
    d = 0.3
    h = hausdorff_distance(circle(1.0, m=256), circle(1.0, center=(d, 0.0), m=256))
    assert abs(h - d) < 5e-5


def test_hausdorff_symmetric_and_zero_on_self():
    # on itself the support points come from Newton on the interpolant, the
    # support values from the node geometry: they agree to rounding
    a = random_fourier(4, 0.06, seed=2, m=128)
    b = circle(1.2, m=64)
    assert hausdorff_distance(a, a) <= 4.0 * EPS * np.abs(a.points).max()
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


def test_support_function_of_an_ellipse():
    # x = (a cos t, b sin t) is its own interpolant: h, h' and the radius
    # of curvature rho match the closed forms in the normal angle alpha
    a, b = 2.0, 0.5
    alpha = np.linspace(0.0, 2.0 * np.pi, 97)
    h, dh, rho = support_function(ellipse(a, b, m=64))(np.cos(alpha),
                                                        np.sin(alpha))
    q = a * a * np.cos(alpha) ** 2 + b * b * np.sin(alpha) ** 2
    assert np.abs(h - np.sqrt(q)).max() <= 1e-14
    assert np.abs(dh - (b * b - a * a) * np.sin(alpha) * np.cos(alpha)
                  / np.sqrt(q)).max() <= 1e-13
    assert np.abs(rho - (a * b) ** 2 / q ** 1.5).max() <= 1e-11


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_uniformizes_spacing():
    c = ellipse(2.0, 1.0, m=128)
    assert c.spacing_ratio() > 1.5
    r = resample(c)
    # chords of equal arcs differ only by the curvature sag, O((L/m)^2)
    assert r.spacing_ratio() < 1.002
    # the metric speed of the resampled interpolant is uniform
    g = geometry(r).metric_speed
    assert g.max() / g.min() - 1.0 < 1e-7
    assert abs(length(r) - length(c)) < 1e-12 * length(c)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kmax=st.integers(2, 8), amplitude=st.floats(0.0, 0.1),
       seed=st.integers(0, 2 ** 16), m=st.sampled_from([128, 256]))
def test_resample_keeps_length_area_and_node_zero(kmax, amplitude, seed, m):
    # curves resolved by their m nodes; at amplitude 0.2 and m = 128 the
    # reparametrized interpolant already loses ~2e-8 of its length
    c = random_fourier(kmax, amplitude, seed=seed, m=m)
    r = resample(c)
    assert abs(length(r) - length(c)) <= 1e-10 * length(c)
    assert abs(r.area() - c.area()) <= 1e-10 * c.area()
    assert np.abs(r.points[0] - c.points[0]).max() <= 1e-14


def test_resample_identity_on_circle():
    c = circle(1.1, m=64)
    r = resample(c)
    assert np.max(np.abs(r.points - c.points)) < 1e-12


def test_resample_geometry_consistent():
    # curvature of the resampled curve matches the closed form of the original
    a, b = 1.5, 1.0
    c = resample(ellipse(a, b, m=256))
    geom = geometry(c)
    # implicit closed form: H = (ab)^4 / (a^4 y^2 + b^4 x^2)^(3/2)
    x, y = c.points.T
    w = np.sqrt(a**4 * y**2 + b**4 * x**2)
    assert np.allclose(geom.curvature, (a * b) ** 4 / w**3, rtol=1e-8)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_fourier_curve_rejects_nonpositive_radius():
    with pytest.raises(InvalidCurve):
        fourier_curve(1.0, (1.5,), m=64)


def test_random_fourier_reproducible():
    a = random_fourier(6, 0.05, seed=42, m=64)
    b = random_fourier(6, 0.05, seed=42, m=64)
    assert np.array_equal(a.points, b.points)
    c = random_fourier(6, 0.05, seed=43, m=64)
    assert not np.array_equal(a.points, c.points)


def test_builders_give_valid_curves():
    for c in (circle(2.0, m=32), ellipse(1.0, 0.6, m=64),
              fourier_curve(1.0, (0.05,), (0.03, 0.01), m=64),
              random_fourier(8, 0.04, seed=1, m=96)):
        geom = geometry(c)
        assert np.all(np.isfinite(geom.curvature))
        assert c.area() > 0
