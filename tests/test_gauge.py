"""Normal-graph gauge, drift operator, and linearization residual."""

import random

import numpy as np
import pytest

from shrinkerlab import fourier, frequency, gauge, labcli
from shrinkerlab.curvegeo import (DiscreteCurve, circle, ellipse, fourier_curve,
                                 gaussian_weights, geometry, random_fourier)
from shrinkerlab.errors import NotAGraph
from shrinkerlab.flowcore import StepControl, run_flows, run_rmcf
from shrinkerlab.gauge import (
    apply_L,
    arc_rows,
    normal_graph,
    normal_graphs,
    reconstruct,
    residual,
    residuals,
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


def test_graph_concentric_circles_half_a_node_apart():
    # the target's nodes sit half a node off the base normals: each polyline
    # crossing lies mid-segment, on the crossing's own parameter but a chord
    # sag (~1e-3) off its height, so the first Newton step moves u alone;
    # the converged heights are judged by their own residual, not the one
    # before that step
    base = circle(SQRT2, m=64)
    t = (np.arange(64) + 0.5) * (2 * np.pi / 64)
    target = DiscreteCurve(1.3 * np.column_stack([np.cos(t), np.sin(t)]))
    assert np.allclose(normal_graph(base, target), SQRT2 - 1.3, atol=1e-12)
    assert np.allclose(normal_graphs([base], [target])[0], SQRT2 - 1.3,
                       atol=1e-12)


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


# ---------------------------------------------------------------------------
# frame-batched normal graphs

def recorded_graph_pairs(monkeypatch, owner, text):
    """Every (base, target) pair `owner.normal_graphs` receives while the
    scenario of the config `text` runs."""
    pairs = []

    def recorder(bases, targets):
        pairs.extend(zip(bases, targets))
        return normal_graphs(bases, targets)

    monkeypatch.setattr(owner, "normal_graphs", recorder)
    labcli.run(labcli.validate_config(labcli.parse_config_text(text)))
    return pairs


def separation_512(seed, out):
    """The separation-512 benchmark config: seed 0 is the reference pair,
    other seeds draw the ellipse axis as the benchmark does."""
    a = 1.1 if seed == 0 else random.Random(seed).uniform(1.08, 1.12)
    b = 0.9090909090909091 if seed == 0 else 1.0 / a
    return ("scenario = separation\ncurve1 = ellipse(%r, %r)\n"
            "curve2 = circle(1)\nm = 512\nout = %s\ntau_end = 7\n"
            "frame_dtau = 0.05\ncfl = 1.4\n" % (a, b, out))


@pytest.mark.parametrize("run", ["separation-0", "separation-5",
                                 "linearization"])
def test_normal_graphs_match_the_crossing_search_on_the_reference_runs(
        run, tmp_path, monkeypatch):
    """Every frame pair the monitor (separation-512 at seeds 0 and 5) and
    the gauge-residual sweep (linearization-2048) graph equals
    `normal_graph` to 1e-11 relative."""
    if run == "linearization":
        pairs = recorded_graph_pairs(monkeypatch, labcli, (
            "scenario = gauge-residual\ncurve1 = circle(%r)\nm = 2048\n"
            "amplitudes = 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1\n"
            "out = %s\n" % (float(SQRT2), tmp_path / "lin")))
        assert len(pairs) == 21
    else:
        seed = int(run.split("-")[1])
        pairs = recorded_graph_pairs(monkeypatch, frequency,
                                     separation_512(seed, tmp_path / "sep"))
        assert len(pairs) == 141
    for base, target in pairs:
        got = normal_graphs([base], [target])[0]
        want = normal_graph(base, target)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def spied_fallback(monkeypatch):
    """The frames `normal_graphs` sends to `normal_graph`."""
    calls = []

    def spy(base, target, reach=None):
        calls.append(target)
        return normal_graph(base, target, reach)

    monkeypatch.setattr(gauge, "normal_graph", spy)
    return calls


def test_normal_graphs_fall_back_where_the_certificate_fails(monkeypatch):
    """A pair that fails the convexity certificate gets the bits of the
    crossing search: a circle over a base whose normals it meets at up to
    ~80 degrees (2 R cos(alpha) - |u| < R/2 at some node, though the other
    crossings lie beyond the base point), and a target that is not convex."""
    calls = spied_fallback(monkeypatch)
    t = np.arange(256) * (2 * np.pi / 256)
    r = 1.6 + 0.2 * np.cos(12 * t)
    base = DiscreteCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    target = circle(SQRT2, m=256)
    want = normal_graph(base, target)
    crossing = base.points + want[:, None] * geometry(base).normal
    cos_a = (np.abs(np.sum(geometry(base).normal * crossing, axis=1))
             / np.hypot(crossing[:, 0], crossing[:, 1]))
    assert (2 * SQRT2 * cos_a - np.abs(want)).min() < SQRT2 / 2
    calls.clear()
    got = normal_graphs([base, base], [target, target])
    assert [c is target for c in calls] == [True, True]
    assert np.array_equal(got[0], want) and np.array_equal(got[1], want)
    calls.clear()
    normal_graphs([circle(1.3, m=256)], [target])  # a certified pair
    assert not calls

    bumpy = fourier_curve(1.0, (0.0, 0.0, 0.12), m=128)
    assert geometry(bumpy).curvature.min() < 0.0
    nearby = reconstruct(bumpy, mode(bumpy, 2, 0.002))
    got = normal_graphs([bumpy], [nearby])
    assert len(calls) == 1
    assert np.array_equal(got[0], normal_graph(bumpy, nearby))


def test_normal_graphs_raise_the_search_error_with_the_frame(monkeypatch):
    """A frame that is no normal graph raises the NotAGraph of
    `normal_graph`, message for message, with its index as `frame`."""
    base = circle(SQRT2, m=64)
    near = reconstruct(base, mode(base, 2, 0.01))
    with pytest.raises(NotAGraph) as seeded:
        normal_graphs([base] * 3, [near, near, circle(0.3, m=64)])
    with pytest.raises(NotAGraph) as search:
        normal_graph(base, circle(0.3, m=64))
    assert str(seeded.value) == str(search.value)
    assert seeded.value.frame == 2
    # normal 0 (the x axis through (sqrt 2, 0)) cuts a chord of this circle
    # at heights +-0.131, both within its reach/2 = 0.15
    small = circle(0.3, center=(SQRT2, 0.27), m=64)
    with pytest.raises(NotAGraph) as twice:
        normal_graphs([base, base], [small, near])
    assert twice.value.frame == 0
    assert str(twice.value) == "normal 0 crosses the target 2 times within reach/2"


def test_normal_graphs_rows_do_not_depend_on_the_block(monkeypatch):
    """Each frame stops its Newton iteration on its own criterion, so its
    heights are the same alone and in a block of 32 frames."""
    start = [labcli._normalize_unit_area(ellipse(1.1, 1 / 1.1, m=128)),
             labcli._normalize_unit_area(circle(1.0, m=128))]
    base, target = run_flows(start, "rmcf", 3.0, frame_dtau=0.05,
                             gauge="area-centroid",
                             control=StepControl(cfl=1.4, require_convex=True))
    rows = {}
    for frames in (1, 32):
        monkeypatch.setattr(gauge, "STACK_NODES", frames * 128)
        rows[frames] = normal_graphs(base.curves, target.curves)
    assert len(base) > 32
    assert np.array_equal(rows[1], rows[32])


def test_normal_graphs_rows_of_different_taylor_degrees_equal_each_frame_alone(
        monkeypatch):
    """One block whose targets' tables differ in degree: the stacked table
    is zero above each frame's own degree, so each row is bit for bit
    that of its frame alone, and every frame passes the certificate."""
    calls = spied_fallback(monkeypatch)
    base = circle(SQRT2, m=128)
    noise = np.random.default_rng(3).standard_normal(128)
    fields = [mode(base, 3, 0.01),
              mode(base, 3, 0.01) + mode(base, 29, 1e-7, "sin"),
              mode(base, 2, 0.02) + 1e-10 * noise]
    targets = [reconstruct(base, f) for f in fields]
    degrees = [fourier.Interpolant(fourier.coeffs(t.points), 128, 1).degree
               for t in targets]
    assert len(set(degrees)) == 3
    rows = normal_graphs([base] * 3, targets)
    assert not calls
    for row, target, field in zip(rows, targets, fields):
        assert np.array_equal(row, normal_graphs([base], [target])[0])
        assert np.abs(row - field).max() < 1e-12


def test_normal_graphs_need_targets_of_one_m():
    base = circle(SQRT2, m=128)
    with pytest.raises(ValueError, match="targets of one m"):
        normal_graphs([base, base], [circle(1.2, m=96), circle(1.2, m=128)])


def test_seminorms_closed_form():
    base = circle(SQRT2, m=128)
    a, k = 0.05, 4
    u = mode(base, k, a)
    c0, c1, c2 = (np.abs(f).max()
                  for f in (u, *arc_rows(geometry(base).metric_speed, u)))
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
                   dtau)
    floor = abs(lam) ** 3 * dtau * dtau * a / 6.0
    assert 0.8 * floor < rep["maxResidual"] < 1.25 * floor
    assert 0.8 * floor / a < rep["fittedC"] < 1.3 * floor / a
    assert rep["normC0"] == pytest.approx(a, rel=1e-12)


def test_residual_report_serialization(tmp_path):
    """The gauge-residual summary writes one report per amplitude, its
    numbers those of the trace.csv row, at tau = delta_tau."""
    summary = labcli.run(labcli.validate_config({
        "scenario": "gauge-residual", "curve1": "circle(%r)" % float(SQRT2),
        "m": "64", "amplitudes": "0.05, 0.1", "delta_tau": "0.01",
        "out": str(tmp_path / "x")}))
    trace = np.genfromtxt(tmp_path / "x" / "trace.csv", delimiter=",",
                          names=True)
    assert len(summary["reports"]) == 2
    for data, row in zip(summary["reports"], trace):
        assert set(data) == {"tau", "maxResidual", "fittedC", "normsU",
                             "quadRatio"}
        assert data["tau"] == 0.01
        assert len(data["normsU"]) == 3
        assert data["normsU"][0] <= data["normsU"][1] <= data["normsU"][2]
        assert data["normsU"] == [row["normC0"], row["normC01"],
                                  row["normC012"]]
        for key in ("tau", "maxResidual", "fittedC", "quadRatio"):
            assert data[key] == row[key], key


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
        assert rep["fittedC"] < 0.2
        cs[amp] = rep["fittedC"]
    assert cs[3e-2] / cs[3e-3] > 3.0


def test_residuals_rows_equal_residual():
    """The stacked residual passes give each frame the row of its own
    `residual` call, bit for bit."""
    start = reconstruct(circle(SQRT2, m=128), mode(circle(SQRT2, m=128), 3, 0.03))
    traj = run_rmcf(ellipse(1.5, 1.3, m=128), 0.5, frame_dtau=0.05)
    u = normal_graphs([start] * len(traj), traj.curves)
    bases = traj.curves[1:-1]
    dtaus = 0.5 * (np.array(traj.times[2:]) - np.array(traj.times[:-2]))
    cols = residuals(bases, u[:-2], u[1:-1], u[2:], dtaus)
    assert set(cols) == {"maxResidual", "fittedC", "normC0", "normC01",
                         "normC012", "quadRatio", "drift"}
    assert cols["drift"].shape == (len(bases), 128)
    for j in range(len(bases)):
        one = residual(bases[j], u[j], u[j + 1], u[j + 2], dtaus[j])
        for name, col in cols.items():
            assert np.array_equal(col[j], one[name]), name
