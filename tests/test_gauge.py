"""Normal-graph gauge, drift operator, and linearization residual."""

import numpy as np
import pytest

from shrinkerlab.curvegeo import (circle, ellipse, fourier_curve, gaussian_weights,
                                 geometry, random_fourier)
from shrinkerlab.errors import NotAGraph
from shrinkerlab.flowcore import run_rmcf
from shrinkerlab.gauge import (
    apply_L,
    arc_derivatives,
    normal_graph,
    reconstruct,
    residual,
)

SQRT2 = np.sqrt(2.0)


def mode(base, k, amp=1.0, phase="cos"):
    t = np.linspace(0, 2 * np.pi, base.m, endpoint=False)
    return amp * (np.cos(k * t) if phase == "cos" else np.sin(k * t))


# ---------------------------------------------------------------------------
# graph extraction
# ---------------------------------------------------------------------------

def test_graph_concentric_circles():
    base = circle(SQRT2, m=128)
    for r in (SQRT2 - 0.2, SQRT2, SQRT2 + 0.25):
        u = normal_graph(base, circle(r, m=128))
        # inner normal: height is sqrt(2) - r
        assert np.allclose(u, SQRT2 - r, atol=1e-12)


def test_graph_reconstruct_round_trip():
    base = circle(SQRT2, m=128)
    u0 = mode(base, 3, 0.08) + mode(base, 5, 0.02, "sin")
    target = reconstruct(base, u0)
    u = normal_graph(base, target)
    assert np.abs(u - u0).max() < 1e-12


def test_graph_different_sampling():
    # target sampled differently still produces the same graph
    base = circle(SQRT2, m=128)
    u = normal_graph(base, circle(1.2, m=96))
    assert np.allclose(u, SQRT2 - 1.2, atol=1e-12)


def test_graph_out_of_reach():
    base = circle(SQRT2, m=64)
    with pytest.raises(NotAGraph, match="no target point"):
        normal_graph(base, circle(0.3, m=64))


def test_graph_multiplicity():
    base = circle(SQRT2, m=64)
    target = circle(0.3, center=(SQRT2 - 0.1, 0.0), m=64)
    with pytest.raises(NotAGraph, match="crosses"):
        normal_graph(base, target, reach=3.0)


def test_graph_height_cap():
    base = circle(SQRT2, m=64)
    with pytest.raises(NotAGraph):
        normal_graph(base, circle(1.0, m=64), reach=0.8)  # |u| = 0.41 >= 0.4


def test_normal_graph_returns_one_height_per_base_node():
    base = ellipse(1.5, 1.2, m=96)
    u = normal_graph(base, circle(SQRT2, m=64))
    assert isinstance(u, np.ndarray)
    assert u.shape == (96,) and u.dtype == float


def test_seminorms_closed_form():
    base = circle(SQRT2, m=128)
    a, k = 0.05, 4
    u = mode(base, k, a)
    c0, c1, c2 = (np.abs(f).max() for f in (u, *arc_derivatives(base, u)))
    # arclength derivative on radius sqrt(2): d/ds = (1/sqrt 2) d/dtheta
    assert abs(c0 - a) < 1e-14
    assert abs(c1 - a * k / SQRT2) < 1e-12
    assert abs(c2 - a * k * k / 2.0) < 1e-11


# ---------------------------------------------------------------------------
# drift operator
# ---------------------------------------------------------------------------

def test_apply_L_eigenfunctions_on_round_base():
    base = circle(SQRT2, m=128)
    for k in range(0, 7):
        lam = 1.0 - k * k / 2.0
        u = mode(base, k)
        assert np.abs(apply_L(base, u) - lam * u).max() < 1e-10
        if k:
            v = mode(base, k, phase="sin")
            assert np.abs(apply_L(base, v) - lam * v).max() < 1e-10


def test_apply_L_constant_on_any_curve_matches_potential():
    # L 1 = H^2 + 1/2 pointwise
    c = fourier_curve(1.2, (0.05,), (0.02,), m=128)
    h = geometry(c).curvature
    assert np.abs(apply_L(c, np.ones(c.m)) - (h * h + 0.5)).max() < 1e-11


def test_apply_L_exactly_self_adjoint():
    # divergence form: <Lu, v> = <u, Lv> in the Gaussian product, even for
    # rough (random) grid functions on a generic base
    base = random_fourier(6, 0.07, seed=5, m=128)
    w = gaussian_weights(base)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(base.m)
    v = rng.standard_normal(base.m)
    a = float(np.sum(w * v * apply_L(base, u)))
    b = float(np.sum(w * u * apply_L(base, v)))
    assert abs(a - b) <= 1e-11 * (abs(a) + abs(b) + 1.0)


# ---------------------------------------------------------------------------
# linearization residual
# ---------------------------------------------------------------------------

def test_residual_on_manufactured_eigenflow():
    # u(tau) = a e^(lam tau) cos(k theta) solves du/dtau = L u exactly;
    # the measured residual must be the centered-difference error alone
    base = circle(SQRT2, m=128)
    k, a, dtau = 3, 0.01, 0.01
    lam = 1.0 - k * k / 2.0
    u = mode(base, k, a)
    rep = residual(base, u * np.exp(-lam * dtau), u, u * np.exp(lam * dtau),
                   dtau, tau=0.7)
    floor = abs(lam) ** 3 * dtau * dtau * a / 6.0
    assert rep.tau == 0.7
    assert 0.8 * floor < rep.max_residual < 1.25 * floor
    assert 0.8 * floor / a < rep.fitted_c < 1.3 * floor / a
    assert rep.norms_u[0] == pytest.approx(a, rel=1e-12)


def test_residual_report_serialization():
    base = circle(SQRT2, m=64)
    u = mode(base, 2, 0.05)
    rep = residual(base, 0.9 * u, u, 1.1 * u, 0.01, tau=1.5)
    data = rep.to_dict()
    assert set(data) == {"tau", "maxResidual", "fittedC", "normsU", "quadRatio"}
    assert data["tau"] == 1.5
    assert len(data["normsU"]) == 3
    assert data["normsU"][0] <= data["normsU"][1] <= data["normsU"][2]


def test_residual_quadratic_smallness_on_true_flow():
    # graphs of a genuinely evolving perturbation: residual is quadratically
    # small, so fitted_c shrinks roughly linearly with the amplitude
    base = circle(SQRT2, m=128)
    dtau = 0.01
    cs = {}
    for amp in (3e-2, 3e-3):
        start = reconstruct(base, mode(base, 2, amp))
        traj = run_rmcf(start, 2 * dtau, frame_dtau=dtau)
        graphs = [normal_graph(base, c) for c in traj.curves]
        rep = residual(base, graphs[0], graphs[1], graphs[2], dtau)
        assert rep.fitted_c < 0.2
        cs[amp] = rep.fitted_c
    assert cs[3e-2] / cs[3e-3] > 3.0