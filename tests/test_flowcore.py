"""Flow drivers: radial ODE oracles, exact area laws, trajectory plumbing."""

import io
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from shrinkerlab import curvegeo, flowcore, fourier, gauge, spectral
from shrinkerlab.curvegeo import circle, ellipse, fourier_curve, geometry
from shrinkerlab.errors import (
    BlowupDetected,
    ConvexityLost,
    FrameMissing,
    InvalidCurve,
    NotShrinking,
    StepRejected,
    TimeOutOfRange,
)
from shrinkerlab.flowcore import (
    CFL_MAX,
    FlowTrajectory,
    StepControl,
    cfl_timestep,
    estimate_singularity,
    mcf_step,
    rescale_to_rmcf,
    run_flows,
    run_mcf,
    run_rmcf,
)
from shrinkerlab.gauge import reconstruct
from shrinkerlab.labcli import _normalize_unit_area

SQRT2 = np.sqrt(2.0)


def radius_of(curve, center=(0.0, 0.0)):
    return np.hypot(*(curve.points - np.asarray(center)).T)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_cfl_timestep_does_not_depend_on_m():
    a = cfl_timestep(circle(1.0, m=64))
    b = cfl_timestep(circle(1.0, m=128))
    assert abs(a / b - 1.0) < 1e-10  # set by the curvature, not the spacing


def test_step_zero_dt_returns_input():
    c = circle(1.0, m=64)
    assert mcf_step(c, 0.0) is c


def test_step_rejects_bad_dt():
    c = circle(1.0, m=64)
    with pytest.raises(StepRejected):
        mcf_step(c, -1e-4)
    with pytest.raises(StepRejected):
        mcf_step(c, 10.0 * cfl_timestep(c))
    with pytest.raises(InvalidCurve):
        mcf_step(c.points, 1e-6)


def test_run_flows_refuses_a_run_beyond_the_step_budget(monkeypatch):
    # a lower bound on the steps: a run that fits its budget is never
    # refused, and one that cannot is refused before its first step
    runs = [([circle(1.0, m=64)], "mcf", None),
            ([ellipse(1.3, 0.8, m=64)], "mcf", 0.1),
            ([circle(SQRT2, m=64), ellipse(1.5, 1.3, m=64)], "rmcf", 1.0)]
    for curves, picture, end in runs:
        steps = max(t.steps for t in run_flows(curves, picture, end))
        monkeypatch.setattr(flowcore, "STEP_BUDGET", steps)
        run_flows(curves, picture, end)
        monkeypatch.undo()
    with pytest.raises(StepRejected, match="curve 1 needs more than 1000000 "
                       "steps to its end time"):
        run_flows([circle(1.0, m=64), circle(1e3, m=64)], "mcf")
    with pytest.raises(StepRejected, match="curve 0 needs more than"):
        run_flows([circle(SQRT2, m=64)], "rmcf", 1e5)


def test_run_flows_refuses_more_frames_than_the_step_budget(monkeypatch):
    """Every curve takes a step at least to each frame, so an rmcf run with
    more frame times than STEP_BUDGET is refused up front, before its frame
    times or stacks are built (10^7 rows of them here)."""
    tracemalloc.start()
    try:
        with pytest.raises(StepRejected, match=r"^curve 0 needs more than "
                           r"1000000 steps to its end time, one at least to "
                           r"each of 1e\+07 frames$"):
            run_flows([circle(SQRT2, m=64)], "rmcf", 1e4, frame_dtau=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    # a step per frame on the round shrinker: as many frames as the budget
    # run, one more is refused
    monkeypatch.setattr(flowcore, "STEP_BUDGET", 10)
    assert run_flows([circle(SQRT2, m=64)], "rmcf", 0.2)[0].steps == 10
    with pytest.raises(StepRejected, match="each of 11 frames"):
        run_flows([circle(SQRT2, m=64)], "rmcf", 0.22)


@pytest.mark.parametrize("picture, m, radius, end, frame_dtau, frames", [
    ("rmcf", 1 << 16, SQRT2, 1e3, 1e-3, 10 ** 6),
    ("mcf", 64, 1.0, None, 1e-6, 7.8e6)], ids=["rmcf-stored-nodes", "mcf-frames"])
def test_run_flows_refuses_frames_past_their_budgets_up_front(
        picture, m, radius, end, frame_dtau, frames):
    """An rmcf run whose stacks would hold more than STORED_NODES_MAX
    nodes, and an mcf run that needs more than STEP_BUDGET frames (past
    an area level each, from A(0) to at most A(0) - 2 pi (1/k0^2 - 1/K^2)/2
    at its stop curvature K), are refused before their frames are stored:
    the memory traced is far below the 72 bytes a node of those frames."""
    curve = circle(radius, m=m)
    tracemalloc.start()
    try:
        with pytest.raises(StepRejected, match="^curve 0 "):
            run_flows([curve], picture, end, frame_dtau=frame_dtau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 < 1e-3 * 72 * frames * m


def test_mcf_step_matches_radius_ode():
    # dR/dt = -1/R
    c = circle(1.0, m=128)
    dt = 0.5 * cfl_timestep(c)
    out = mcf_step(c, dt)
    expected = np.sqrt(1.0 - 2.0 * dt)
    assert np.allclose(radius_of(out), expected, atol=1e-10)


def test_mcf_step_ignores_stop_curvature():
    # max kappa = 1/r ~ 67 is past the default stop_curvature 50: a run would
    # stop at frame 0, the step still steps
    r = 0.015
    c = circle(r, m=128)
    assert 1.0 / r > StepControl().stop_curvature
    dt = 0.5 * cfl_timestep(c)
    out = mcf_step(c, dt)
    assert np.abs(radius_of(out) - np.sqrt(r * r - 2.0 * dt)).max() <= 1e-12


def test_run_rmcf_zero_time_is_the_input():
    c = circle(1.2, m=128)
    with pytest.raises(TimeOutOfRange):
        run_rmcf(c, 0.0, frame_dtau=0.0)
    dt = 0.5 * cfl_timestep(c)
    traj = run_rmcf(c, dt, frame_dtau=dt)
    assert traj.times[0] == 0.0
    assert np.abs(traj.curves[0].points - c.points).max() <= 1e-14


def test_run_rmcf_one_step_matches_radial_ode():
    # d(r^2)/dtau = r^2 - 2
    for r0 in (1.2, 1.8):
        c = circle(r0, m=128)
        dt = 0.5 * cfl_timestep(c)
        traj = run_rmcf(c, dt, frame_dtau=dt)
        assert traj.steps == 1 and traj.times == [0.0, dt]
        expected = np.sqrt(2.0 + (r0 * r0 - 2.0) * np.exp(dt))
        assert np.allclose(radius_of(traj.curves[-1]), expected, atol=1e-9)


def test_step_convexity_guard():
    c = fourier_curve(1.0, (0.0, 0.0, 0.25), m=128)
    assert geometry(c).curvature.min() < 0  # genuinely nonconvex input
    ctl = StepControl(require_convex=True)
    dt = 0.5 * cfl_timestep(c, ctl)
    with pytest.raises(ConvexityLost):
        run_rmcf(c, dt, frame_dtau=dt, control=ctl)


# ---------------------------------------------------------------------------
# full runs against closed-form radial solutions
# ---------------------------------------------------------------------------

def test_run_mcf_circle_radius_and_time():
    c = circle(1.0, m=128)
    traj = run_mcf(c, t_end=0.3)
    assert traj.picture == "mcf"
    assert traj.times[-1] == pytest.approx(0.3, abs=0.0)
    r_end = radius_of(traj.curves[-1])
    assert np.allclose(r_end, np.sqrt(1.0 - 0.6), atol=1e-8)


def test_run_mcf_frames_sit_on_area_levels():
    traj = run_mcf(circle(1.0, m=64), t_end=0.25, frame_dtau=0.05)
    areas = traj.series["area"]
    expected = areas[0] * np.exp(-0.05 * np.arange(len(areas)))
    # all but the final t_end frame land on the levels
    assert np.allclose(areas[:-1], expected[:-1], rtol=1e-9)


def test_run_mcf_area_law():
    # t + A/(2 pi) is the constant singular time along the flow
    traj = run_mcf(circle(1.2, m=64), t_end=0.4)
    t_hat = traj.series["time"] + traj.series["area"] / (2 * np.pi)
    assert np.ptp(t_hat) < 1e-8
    assert abs(t_hat[0] - 0.72) < 1e-10


def test_run_rmcf_fixed_point_is_stationary():
    c = circle(SQRT2, m=128)
    traj = run_rmcf(c, 1.0, frame_dtau=0.25)
    drift = np.abs(traj.curves[-1].points - c.points).max()
    assert drift < 1e-12


def test_run_rmcf_radial_ode_both_directions():
    for r0 in (1.25, 1.8):
        traj = run_rmcf(circle(r0, m=128), 1.0, frame_dtau=0.5)
        for tau, curve in zip(traj.times, traj.curves):
            expected = np.sqrt(2.0 + (r0 * r0 - 2.0) * np.exp(tau))
            assert np.allclose(radius_of(curve), expected, atol=2e-8)


def test_run_rmcf_frame_times_exact():
    traj = run_rmcf(circle(1.5, m=64), 0.1, frame_dtau=0.02)
    assert traj.times == [0.0] + [0.02 * j for j in range(1, 6)]


def test_rescaled_frames_cost_no_sliver_step():
    # on the round shrinker every step is dt = cfl_timestep(start), so a frame
    # costs ceil(frame_dtau / dt) steps; where dt divides frame_dtau (0.2) the
    # accumulated tau falls a few ulps short of the frame time, and the frame
    # still lands without a sliver step
    start = circle(SQRT2, m=256)
    control = StepControl(cfl=1.4)
    dt = cfl_timestep(start, control)
    for frame_dtau, steps in ((0.05, 40), (0.01, 100), (0.2, 25)):
        traj = run_flows([start], "rmcf", 1.0, frame_dtau=frame_dtau,
                         gauge="area-centroid", control=control)[0]
        frames = round(1.0 / frame_dtau)
        assert len(traj) == frames + 1
        assert traj.steps == frames * math.ceil(frame_dtau / dt - 1e-9) == steps


def test_run_rmcf_area_evolution_identity():
    # dA/dtau = A - 2 pi holds exactly for any embedded curve, so the frame
    # areas must track A(tau) = 2 pi + (A0 - 2 pi) e^tau up to stepping error
    c = fourier_curve(1.3, (0.08, -0.04), (0.02, 0.05), m=128)
    traj = run_rmcf(c, 0.5, frame_dtau=0.1)
    a0 = traj.series["area"][0]
    for tau, a in zip(traj.times, traj.series["area"]):
        expected = 2 * np.pi + (a0 - 2 * np.pi) * np.exp(tau)
        assert abs(a - expected) < 5e-7


def test_run_rmcf_area_gauge():
    c = ellipse(1.3, 1.0, m=128)
    traj = run_rmcf(c, 0.3, frame_dtau=0.1, gauge="area")
    assert np.allclose(traj.series["area"], 2 * np.pi, atol=1e-12)


def test_run_rmcf_area_centroid_gauge():
    c = circle(1.4, center=(0.2, -0.1), m=128)
    traj = run_rmcf(c, 0.3, frame_dtau=0.1, gauge="area-centroid")
    assert np.allclose(traj.series["area"], 2 * np.pi, atol=1e-12)
    assert np.allclose(traj.series["cx"], 0.0, atol=1e-12)
    assert np.allclose(traj.series["cy"], 0.0, atol=1e-12)


def test_run_rmcf_rejects_bad_args():
    c = circle(1.0, m=64)
    with pytest.raises(TimeOutOfRange):
        run_rmcf(c, -1.0)
    with pytest.raises(ValueError):
        run_rmcf(c, 1.0, gauge="bogus")


def test_cfl_above_stability_bound_rejected():
    start = _normalize_unit_area(fourier_curve(1.0, (0.0, 0.05, 0.02), m=256))
    for cfl in (1.5, 2.0):
        with pytest.raises(StepRejected):
            run_rmcf(start, 1.0, frame_dtau=0.05, control=StepControl(cfl=cfl))
        with pytest.raises(StepRejected):
            mcf_step(start, 1e-6, StepControl(cfl=cfl))
    traj = run_rmcf(start, 1.0, frame_dtau=0.05, control=StepControl(cfl=1.4))
    assert traj.series["max_curvature"][-1] == pytest.approx(0.75, abs=2e-3)


def test_run_rmcf_third_order_in_time():
    # halving cfl halves the step everywhere; at order p the gap between
    # successive refinements shrinks by 2^p
    start = _normalize_unit_area(fourier_curve(1.0, (0.0, 0.05, 0.02), m=128))
    ends = [run_rmcf(start, 0.5, frame_dtau=0.5,
                     control=StepControl(cfl=f * CFL_MAX)).curves[-1].points
            for f in (1.0, 0.5, 0.25)]
    coarse = np.abs(ends[0] - ends[1]).max()
    fine = np.abs(ends[1] - ends[2]).max()
    assert np.log2(coarse / fine) >= 2.7


def test_run_rmcf_fourth_order_in_time():
    # the same case as above, one halving further: at order p the gap
    # between successive refinements shrinks by 2^p
    start = _normalize_unit_area(fourier_curve(1.0, (0.0, 0.05, 0.02), m=128))
    ends = [run_rmcf(start, 0.5, frame_dtau=0.5,
                     control=StepControl(cfl=f * CFL_MAX)).curves[-1].points
            for f in (1.0, 0.5, 0.25, 0.125)]
    gaps = [np.abs(a - b).max() for a, b in zip(ends, ends[1:])]
    assert min(np.log2(gaps[0] / gaps[1]), np.log2(gaps[1] / gaps[2])) >= 3.5


def _phi_reference(z: float) -> list:
    """e^z, phi_1, phi_2, phi_3 of the float z, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(z)
        if abs(x) < 1:  # phi_k = sum_j x^j / (j + k)!, free of cancellation
            out = []
            for k in range(4):
                term = Decimal(1) / math.factorial(k)
                total = term
                for j in range(1, 40):
                    term = term * x / (j + k)
                    total += term
                out.append(total)
            return [float(v) for v in out]
        e = x.exp()
        p1 = (e - 1) / x
        p2 = (p1 - 1) / x
        p3 = (p2 - Decimal("0.5")) / x
        return [float(v) for v in (e, p1, p2, p3)]


def test_phi_matches_a_50_digit_reference():
    # rows of -s*k^2 at different s grow at different rates, as the z/2 and
    # z rows of a step do; the switch from series to closed form at z = -1
    # falls in a different column of each
    grid = np.concatenate([[0.0, -1e-300, -1e-16, -1e-8, -1e-4, -0.01, -0.5,
                            -0.999, -1.0, -1.001, -2.0],
                           -np.logspace(0.5, 4, 30)])
    k2 = np.arange(120.0) ** 2
    rows = [grid, 0.5 * grid] + [-s * np.minimum(k2, 1e4 / s) for s in
                                 (0.02, 0.013, 1e-4, 0.999, 1.001)]
    width = max(len(r) for r in rows)
    z = np.array([np.pad(r, (0, width - len(r)), mode="edge") for r in rows])
    got = flowcore._phi(z)
    for i, j in np.ndindex(z.shape):
        ref = _phi_reference(float(z[i, j]))
        e = float(got[0][i, j])
        assert abs(e - ref[0]) <= 1e-14 * ref[0] + 1e-300
        for q in (1, 2, 3):
            assert abs(float(got[q][i, j]) / ref[q] - 1.0) <= 1e-14, (z[i, j], q)


def test_ellipse_rmcf_at_m_1024_stays_smooth():
    # the metric varies by a factor 16 along the gauged 2 : 0.5 ellipse, so
    # the explicit share of the stiff term is large; the top modes stay at
    # rounding
    start = _normalize_unit_area(ellipse(2.0, 0.5, m=1024))
    traj = run_rmcf(start, 3.0, frame_dtau=0.5, gauge="area-centroid",
                    control=StepControl(cfl=1.4, require_convex=True))
    spectrum = np.abs(np.fft.rfft(traj.curves[-1].points, axis=0))
    assert spectrum[-len(spectrum) // 8:].max() <= 1e-12


def test_step_count_does_not_grow_with_m():
    steps = []
    for m in (128, 512):
        start = _normalize_unit_area(fourier_curve(1.0, (0.0, 0.05, 0.02), m=m))
        steps.append(run_rmcf(start, 1.0, frame_dtau=0.25).steps)
    assert steps[0] > 0
    # the step follows the curvature; only the 4 frame landings may differ
    assert abs(steps[0] - steps[1]) <= 4


def test_high_resolution_run_stays_stable():
    # node speed varies along the flowing ellipse, so part of the stiff term
    # is explicit; the step must still damp the top of the spectrum at large m
    traj = run_mcf(ellipse(1.1, 1 / 1.1, m=2048), t_end=0.05, frame_dtau=0.05,
                   control=StepControl(cfl=1.4, require_convex=True))
    top = np.abs(np.fft.rfft(traj.curves[-1].points, axis=0))[-256:]
    assert top.max() < 1e-10


def test_frames_stay_uniformly_sampled():
    traj = run_mcf(ellipse(1.4, 0.9, m=128), t_end=0.3)
    for curve in traj.curves:
        assert curve.spacing_ratio() < 1.06


# ---------------------------------------------------------------------------
# batched runs
# ---------------------------------------------------------------------------

GEOMETRY_NAMES = ("tangent", "normal", "curvature", "arclength_weights",
                  "metric_speed")


def assert_same_trajectory(batched, solo):
    """Bit for bit: times, step count, every frame's points, the stacked
    geometry and every series column."""
    assert batched.times == solo.times
    assert batched.steps == solo.steps
    for a, b in zip(batched.curves, solo.curves, strict=True):
        assert np.array_equal(a.points, b.points)
    for name in GEOMETRY_NAMES:
        assert np.array_equal(getattr(batched.geom, name),
                              getattr(solo.geom, name)), name
    assert list(batched.series) == list(solo.series)
    for col, values in solo.series.items():
        assert np.array_equal(batched.series[col], values), col


def test_batched_mcf_matches_solo_runs():
    curves = [ellipse(1.1, 1 / 1.1, m=128), circle(1.0, m=128)]
    trajs = run_flows(curves, "mcf", 0.3, frame_dtau=0.05)
    for curve, traj in zip(curves, trajs):
        assert_same_trajectory(traj, run_mcf(curve, t_end=0.3, frame_dtau=0.05))


def test_batched_gauged_rmcf_matches_solo_runs():
    curves = [fourier_curve(1.3, (0.08, -0.04), (0.02, 0.05), m=128),
              ellipse(1.5, 1.2, center=(0.1, 0.0), m=128)]
    trajs = run_flows(curves, "rmcf", 0.3, frame_dtau=0.1, gauge="area-centroid")
    for curve, traj in zip(curves, trajs):
        assert_same_trajectory(traj, run_rmcf(curve, 0.3, frame_dtau=0.1,
                                              gauge="area-centroid"))


@pytest.mark.parametrize("gauge", ["none", "area"])
def test_batched_rmcf_matches_solo_runs_under_each_gauge(gauge):
    curves = [fourier_curve(1.3, (0.08, -0.04), (0.02, 0.05), m=128),
              ellipse(1.5, 1.2, center=(0.1, 0.0), m=128)]
    trajs = run_flows(curves, "rmcf", 0.3, frame_dtau=0.1, gauge=gauge)
    for curve, traj in zip(curves, trajs):
        assert_same_trajectory(traj, run_rmcf(curve, 0.3, frame_dtau=0.1,
                                              gauge=gauge))


def test_batch_curves_stopping_at_different_steps():
    # stop_curvature is reached at different times, by circle(0.2) at its
    # start frame; each run stays complete
    curves = [circle(1.0, m=64), circle(0.2, m=64), circle(0.8, m=64),
              ellipse(1.2, 0.9, m=64)]
    control = StepControl(stop_curvature=4.0)
    trajs = run_flows(curves, "mcf", frame_dtau=0.1, control=control)
    assert len({traj.times[-1] for traj in trajs}) == len(curves)
    for curve, traj in zip(curves, trajs):
        assert traj.series["max_curvature"][-1] >= 4.0
        assert_same_trajectory(traj, run_mcf(curve, frame_dtau=0.1, control=control))


def test_batch_guard_names_curve_and_time():
    nonconvex = fourier_curve(1.0, (0.0, 0.0, 0.25), m=128)
    control = StepControl(require_convex=True)
    with pytest.raises(ConvexityLost, match=r"in curve 1 at t=0\b") as lost:
        run_flows([circle(1.0, m=128), nonconvex], "mcf", 0.1, control=control)
    assert lost.value.start == 1  # a start that is not convex
    # a frame's curvature row is its check, also before the first step
    with pytest.raises(ConvexityLost, match=r"in curve 0 at tau=0\b"):
        run_rmcf(nonconvex, 0.1, gauge="area-centroid", control=control)
    # the smaller circle dies at t = 0.125 while the other runs on
    with pytest.raises(BlowupDetected,
                       match=r"exceeded 1e6 in curve 1 at t=0\.125\b"):
        run_flows([circle(1.0, m=32), circle(0.5, m=32)], "mcf", 0.3,
                  frame_dtau=0.5, control=StepControl(stop_curvature=1e12))


def nan_rows(m):
    return np.full((2, m), np.nan)


def cusp_rows(m):
    # x_theta = (-sin t, cos t - cos 2t) * sqrt 2 vanishes at node 0
    t = fourier.grid(m)
    return SQRT2 * np.array([np.cos(t), np.sin(t) * (1.0 - np.cos(t))])


def dimpled_rows(m):
    # r = 1 + 0.3 cos 2t: regular, but x_theta ^ x_thth < 0 at t = pi/2
    return fourier_curve(1.0, (0.0, 0.3), m=m).points.T


def corrupt_first_step(monkeypatch, rows_of) -> list:
    """Make the first step hand back curve 1 as `rows_of`; the list it
    returns receives that step's dt."""
    step, dts = flowcore._imex_step, []

    def corrupted(coef, g2, d2, dt, rescaled):
        out = step(coef, g2, d2, dt, rescaled)
        if not dts:
            dts.append(float(dt[1, 0]))
            out[1] = np.fft.rfft(rows_of(d2.shape[-1]), axis=1)  # x, y
        return out

    monkeypatch.setattr(flowcore, "_imex_step", corrupted)
    return dts


@pytest.mark.parametrize("rows_of, stride, error, what", [
    (nan_rows, 1, BlowupDetected, "non-finite positions"),
    (cusp_rows, 1, BlowupDetected, "parametrization collapsed"),
    (dimpled_rows, 1, ConvexityLost, "curvature changed sign"),
    (nan_rows, flowcore._GUARD_STRIDE, BlowupDetected, "non-finite geometry"),
])
def test_step_guards_name_curve_and_time(monkeypatch, rows_of, stride, error,
                                         what):
    """The first step hands back curve 1 as `rows_of`, between frames: the
    full guards at the next step (every step at stride 1) or, between
    them, the per-step NaN sentinel raise their typed error there."""
    dts = corrupt_first_step(monkeypatch, rows_of)
    monkeypatch.setattr(flowcore, "_GUARD_STRIDE", stride)
    with pytest.raises(error) as info:
        run_flows([circle(SQRT2, m=64)] * 2, "rmcf", 1.0, frame_dtau=1.0,
                  control=StepControl(require_convex=True))
    assert str(info.value) == "%s in curve 1 at tau=%.6g" % (what, dts[0])
    assert getattr(info.value, "start", None) is None  # not a start's error


@pytest.mark.parametrize("gauge", ["none", "area-centroid"])
@pytest.mark.parametrize("rows_of, error, message", [
    (nan_rows, BlowupDetected, "non-finite positions in curve 1 at tau={tau}"),
    (cusp_rows, BlowupDetected, "parametrization collapsed in curve 1 at tau={tau}"),
    (dimpled_rows, ConvexityLost, "curvature changed sign in curve 1 at tau={tau}"),
])
def test_frame_step_rows_fail_at_the_emission_site(monkeypatch, rows_of, error,
                                                   message, gauge):
    """The same corruption on a step that lands on frame 1 (frame_dtau is
    the first step): the emission site checks the rows before any step
    guard does. The frame's node check and the resample of its collapsed
    parametrization fail there and hand the rows to the step guards, and
    its curvature row raises there: each error names curve and time."""
    dts = corrupt_first_step(monkeypatch, rows_of)
    control = StepControl(require_convex=True)
    dt = cfl_timestep(circle(SQRT2, m=64), control)
    with pytest.raises(error) as info:
        run_flows([circle(SQRT2, m=64)] * 2, "rmcf", 1.0, frame_dtau=dt,
                  gauge=gauge, control=control)
    assert dts == [dt]
    assert str(info.value) == message.format(tau="%.6g" % dt)
    assert getattr(info.value, "start", None) is None


def test_batch_rejects_mixed_resolutions():
    with pytest.raises(InvalidCurve):
        run_flows([circle(1.0, m=64), circle(1.0, m=128)], "mcf", 0.1)


# ---------------------------------------------------------------------------
# singularity estimation
# ---------------------------------------------------------------------------

def test_estimate_singularity_circle():
    # R0 = 2 centered at (1, 1): T = 2, x0 = (1, 1)
    traj = run_mcf(circle(2.0, center=(1.0, 1.0), m=128))
    est = estimate_singularity(traj)
    assert abs(est["time"] - 2.0) < 1e-6
    assert np.allclose(est["center"], [1.0, 1.0], atol=1e-7)
    assert est["timeErr"] < 1e-6
    assert est["centerErr"] < 1e-6


def test_estimate_singularity_ellipse_area_time():
    a, b = 1.2, 0.8
    traj = run_mcf(ellipse(a, b, m=128))
    est = estimate_singularity(traj)
    assert abs(est["time"] - a * b / 2.0) < 1e-4


def test_estimate_singularity_gates():
    short = run_mcf(circle(1.0, m=64), t_end=0.05)
    with pytest.raises(NotShrinking):
        estimate_singularity(short)
    rescaled = run_rmcf(circle(1.5, m=64), 0.2, frame_dtau=0.05)
    with pytest.raises(NotShrinking):
        estimate_singularity(rescaled)


# ---------------------------------------------------------------------------
# change of picture
# ---------------------------------------------------------------------------

def test_rescale_true_shrinker_is_static():
    # shrinking circle rescaled about its true singularity = fixed sqrt(2) circle
    traj = run_mcf(circle(2.0, center=(1.0, 1.0), m=128), t_end=1.5)
    resc = rescale_to_rmcf(traj, 2.0, (1.0, 1.0))
    assert resc.picture == "rmcf"
    for curve in resc.curves:
        assert np.allclose(radius_of(curve), SQRT2, atol=1e-7)
    # tau = -log(T - t)
    assert np.allclose(resc.times, -np.log(2.0 - np.asarray(traj.times)), atol=1e-14)


def test_rescale_time_out_of_range():
    traj = run_mcf(circle(1.0, m=64), t_end=0.3)
    with pytest.raises(TimeOutOfRange):
        rescale_to_rmcf(traj, 0.2, (0.0, 0.0))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    traj = run_rmcf(fourier_curve(1.2, (0.05,), (0.03,), m=64), 0.2, frame_dtau=0.05)
    traj.singular_data = {"time": 0.9, "center": [0.0, 0.0],
                          "timeErr": 1e-9, "centerErr": 1e-9}
    traj.save(tmp_path)
    back = FlowTrajectory.load(tmp_path)
    assert back.picture == traj.picture
    assert back.m == traj.m
    assert back.times == traj.times
    assert back.singular_data == traj.singular_data
    for a, b in zip(traj.curves, back.curves):
        assert np.array_equal(a.points, b.points)
    for col in traj.series:
        assert np.allclose(back.series[col], traj.series[col], atol=0, rtol=0)


def test_load_missing_frame(tmp_path):
    traj = run_rmcf(circle(1.0, m=64), 0.1, frame_dtau=0.05)
    traj.save(tmp_path)
    (tmp_path / "frames.npy").unlink()
    with pytest.raises(FrameMissing, match="frames.npy"):
        FlowTrajectory.load(tmp_path)


def test_load_truncated_frames(tmp_path):
    traj = run_rmcf(circle(1.0, m=64), 0.1, frame_dtau=0.05)
    traj.save(tmp_path)
    path = tmp_path / "frames.npy"
    data = path.read_bytes()
    frames = np.load(path)
    # one frame short of index.json, then every other node
    for cut in (frames[:-1], frames[:, ::2]):
        np.save(path, cut)
        with pytest.raises(FrameMissing, match="shape"):
            FlowTrajectory.load(tmp_path)
    # a file cut inside the data
    path.write_bytes(data[:-100])
    with pytest.raises(FrameMissing, match="cannot read"):
        FlowTrajectory.load(tmp_path)


def test_frames_npy_is_np_save_of_the_stacked_frames(tmp_path):
    traj = run_rmcf(fourier_curve(1.2, (0.05,), (0.03,), m=64), 0.2,
                    frame_dtau=0.05, gauge="area-centroid")
    traj.save(tmp_path)
    expected = io.BytesIO()
    np.save(expected, np.stack([c.points for c in traj.curves]))
    assert (tmp_path / "frames.npy").read_bytes() == expected.getvalue()


@pytest.mark.parametrize("picture, end, gauge", [("rmcf", 0.3, "area-centroid"),
                                                 ("rmcf", 0.3, "area"),
                                                 ("mcf", None, "none")])
def test_frames_are_read_only_views_of_the_stacks(monkeypatch, tmp_path,
                                                  picture, end, gauge):
    """A run writes its frames as stacked rows: each curve and its cached
    geometry are views of row j that refuse writes, each series row is
    area_centroid_rows of that frame's own rows, and frames.npy is the
    points stack, which load and save reproduce byte for byte. The mcf run
    to its stop curvature writes more frames than its stacks first hold."""
    d1_rows = []
    kernel = flowcore.speed_curvature

    def spy(d1, d2, speed, curvature):
        d1_rows.append(d1.copy())  # the frame's x_theta rows, gauged
        return kernel(d1, d2, speed, curvature)

    monkeypatch.setattr(flowcore, "speed_curvature", spy)
    # arclength-uniform nodes, which the flow keeps within the resample ratio
    curve = curvegeo.resample(fourier_curve(SQRT2, (0.0, 0.02), (0.0, 0.0, 0.01),
                                            m=64))
    traj = run_flows([curve], picture, end, frame_dtau=0.05, gauge=gauge)[0]
    assert len(traj) > (3 if end else flowcore._MCF_ROWS)
    assert len(d1_rows) == len(traj)
    assert traj.points.shape == (len(traj), 64, 2)
    for j, frame in enumerate(traj.curves):
        assert np.shares_memory(frame.points, traj.points)
        assert np.array_equal(frame.points, traj.points[j])
        cached = frame._geom
        for name in GEOMETRY_NAMES:
            row, stack = getattr(cached, name), getattr(traj.geom, name)
            assert np.shares_memory(row, stack), name
            assert np.array_equal(row, stack[j]), name
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            frame.points[0, 0] = 0.0
        alone = curvegeo.area_centroid_rows(*frame.points.T, *d1_rows[j])
        assert tuple(traj.series[c][j] for c in ("area", "cx", "cy")) == alone
    with pytest.raises(ValueError, match="read-only"):
        traj.points[0, 0, 0] = 0.0
    traj.save(tmp_path / "a")
    FlowTrajectory.load(tmp_path / "a").save(tmp_path / "b")
    written = (tmp_path / "a" / "frames.npy").read_bytes()
    assert (tmp_path / "b" / "frames.npy").read_bytes() == written
    expected = io.BytesIO()
    np.save(expected, traj.points)
    assert written == expected.getvalue()


def assert_rows_are_the_curves(traj, curves):
    """Row j of the trajectory's stacks is curves[j]'s points and
    `geometry`, bit for bit."""
    assert traj.points.shape == (len(curves), traj.m, 2)
    for j, curve in enumerate(curves):
        assert np.array_equal(traj.points[j], curve.points)
        for name in GEOMETRY_NAMES:
            assert np.array_equal(getattr(traj.geom, name)[j],
                                  getattr(geometry(curve), name)), name


def test_trajectories_of_curves_hold_their_rows(tmp_path):
    """A trajectory built from curves (`load`, `rescale_to_rmcf`, or by hand
    from a run's own curves) holds stacks whose rows are each curve's
    points and geometry bit for bit, as read-only as a run's."""
    run = run_mcf(circle(2.0, center=(1.0, 1.0), m=64), t_end=1.5)
    run.save(tmp_path)
    loaded = FlowTrajectory.load(tmp_path)
    assert_rows_are_the_curves(loaded, [
        curvegeo.DiscreteCurve(frame)
        for frame in np.load(tmp_path / "frames.npy")])
    rescaled = rescale_to_rmcf(run, 2.0, (1.0, 1.0))
    assert_rows_are_the_curves(rescaled, [
        curvegeo.DiscreteCurve((frame - 1.0) * (1.0 / math.sqrt(2.0 - t)),
                               validate=False)
        for t, frame in zip(run.times, run.points)])
    by_hand = FlowTrajectory.from_curves("mcf", run.times, run.curves)
    assert_rows_are_the_curves(by_hand, run.curves)
    for traj in (loaded, rescaled, by_hand):
        with pytest.raises(ValueError, match="read-only"):
            traj.geom.curvature[0, 0] = 0.0
    for name in GEOMETRY_NAMES:
        assert np.array_equal(getattr(by_hand.geom, name),
                              getattr(run.geom, name)), name


def test_frame_consumers_read_a_copy_of_a_run_bit_for_bit():
    """The frame consumers take stacked rows: on a trajectory rebuilt by
    hand from a run's curves they give the run's own results bit for
    bit."""
    starts = [_normalize_unit_area(c)
              for c in (ellipse(1.1, 1.0 / 1.1, m=64), circle(1.0, m=64))]
    runs = run_flows(starts, "rmcf", 1.0, frame_dtau=0.1,
                     gauge="area-centroid")
    copies = [FlowTrajectory.from_curves("rmcf", t.times, t.curves)
              for t in runs]
    results = []
    for base, target in (runs, copies):
        fields = gauge.normal_graphs(base.stacked(), target.stacked())
        inner = slice(1, -1)
        results.append((
            fields,
            gauge.graph_hausdorff(base.stacked(inner), fields[inner],
                                  target.stacked(inner)),
            curvegeo.distance_to_circle(base.stacked(), SQRT2),
            *spectral.rayleigh_bound(base, stride=3)[1:]))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_save_streams_frames_without_a_stacked_copy(tmp_path):
    m, n = 512, 200
    curves = [circle(1.0 + 1e-3 * j, m=m) for j in range(n)]
    traj = FlowTrajectory.from_curves("rmcf", [0.01 * j for j in range(n)],
                                      curves)
    stacked = n * m * 2 * 8  # bytes of the (n, m, 2) array, 1.6 MB
    tracemalloc.start()
    try:
        traj.save(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stacked / 8
    assert (tmp_path / "frames.npy").stat().st_size > stacked


@pytest.mark.parametrize("picture, end, gauge", [("rmcf", 0.3, "area-centroid"),
                                                 ("mcf", None, "none")])
def test_fft_calls_are_eight_per_step_and_one_per_frame(monkeypatch, picture,
                                                        end, gauge):
    """Every frame is built from the step's own rfft rows: one irfft per
    frame, on top of the stepper's eight calls per step (the first step
    reuses frame 0's rows, which cost the start's rfft)."""
    # arclength-uniform nodes, which the flow keeps within the resample ratio
    curve = curvegeo.resample(fourier_curve(SQRT2, (0.0, 0.02), (0.0, 0.0, 0.01),
                                            m=64))
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def no_resample(_):
        raise AssertionError("the frames need no resampling")

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    monkeypatch.setattr(flowcore, "resample", no_resample)
    control = StepControl(stop_curvature=2.0)
    traj = run_flows([curve], picture, end, frame_dtau=0.05, gauge=gauge,
                     control=control)[0]
    assert len(traj) > 3 and traj.steps > len(traj)
    assert len(calls) == 8 * traj.steps + len(traj)


@pytest.mark.parametrize("require_convex", [True, False])
def test_simplicity_scan_only_without_require_convex(monkeypatch,
                                                     require_convex):
    scans = []
    scan = curvegeo._has_self_intersection

    def counted(points):
        scans.append(1)
        return scan(points)

    monkeypatch.setattr(curvegeo, "_has_self_intersection", counted)
    traj = run_rmcf(circle(1.3, m=64), 0.2, frame_dtau=0.05, gauge="area",
                    control=StepControl(require_convex=require_convex))
    assert len(scans) == (0 if require_convex else len(traj))


def test_frames_cache_the_geometry_of_their_own_rows(monkeypatch):
    """A resampled frame re-synthesizes its rows from its new nodes, so its
    cached geometry is what `geometry` computes from the stored curve, bit
    for bit; every other frame caches that of the step's rows, which a
    fresh transform of its nodes gives to rounding."""
    resampled = []

    def spy(curve):
        resampled.append(curvegeo.resample(curve))
        return resampled[-1]

    monkeypatch.setattr(flowcore, "resample", spy)
    m = 256
    start = reconstruct(circle(SQRT2, m=m), 0.1 * np.cos(2 * fourier.grid(m)))
    traj = run_flows([start], "rmcf", 0.3, frame_dtau=0.05, gauge="none")[0]
    assert np.array_equal(traj.curves[0].points, resampled[0].points)
    assert len(resampled) < len(traj)
    names = ("tangent", "normal", "curvature", "arclength_weights",
             "metric_speed")
    for frame in traj.curves:
        cached = frame._geom
        d1, d2 = fourier.deriv12(frame.points)
        fresh = curvegeo.geometry_rows(d1.T, d2.T)
        for name in names:
            got, want = getattr(cached, name), getattr(fresh, name)
            if any(np.array_equal(frame.points, c.points) for c in resampled):
                assert np.array_equal(got, want), name
            else:
                assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("gauge", ["none", "area"])
def test_clockwise_rows_raise_blowup(gauge):
    """The flow keeps curves counterclockwise: a frame that is not is an
    error, not reversed."""
    m = 64
    clockwise = circle(1.0, m=m).points[::-1]
    frames = flowcore._FrameRows(1, m)
    with pytest.raises(BlowupDetected,
                       match=r"^enclosed area -3.14 is not positive at tau=1$"):
        flowcore._emit_frame(frames, 1.0, np.fft.rfft(clockwise.T, axis=1),
                             StepControl(), gauge, "at tau=1")
    assert frames.count == 0
