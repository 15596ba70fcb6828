"""Gaussian energies, frequency quotient, and the two-flow monitor."""

import math

import numpy as np
import pytest

from shrinkerlab.curvegeo import (circle, ellipse, f_functional,
                                  gaussian_weights, shrinker_quantity)
from shrinkerlab.errors import FrameMissing, NotAGraph
from shrinkerlab.flowcore import FlowTrajectory, run_rmcf
from shrinkerlab.frequency import (
    ENERGY_FLOOR,
    TRACE_COLUMNS,
    _approach,
    _frames,
    monitor,
    shrinker_energy,
    superexponential_flag,
)
from shrinkerlab.gauge import (normal_graph, normal_graphs, reconstruct,
                              residual)
from shrinkerlab.spectral import assemble, dirichlet_rows, eigenpairs

SQRT2 = math.sqrt(2.0)


def mode(m, k, amp=1.0, phase="cos"):
    t = np.linspace(0, 2 * np.pi, m, endpoint=False)
    return amp * (np.cos(k * t) if phase == "cos" else np.sin(k * t))


def approach(traj):
    """The monitor's base half of one trajectory: `_approach` over the
    `_frames` columns of its frames at its frame times."""
    return _approach(np.asarray(traj.times), _frames(traj))


def static_round_traj(n, dtau=0.02, m=128):
    base = circle(SQRT2, m=m)
    return base, FlowTrajectory(picture="rmcf", m=m,
                                times=[j * dtau for j in range(n)],
                                curves=[base] * n)


def graph_traj(base, fields, dtau):
    return FlowTrajectory(picture="rmcf", m=base.m,
                          times=[j * dtau for j in range(len(fields))],
                          curves=[reconstruct(base, u) for u in fields])


def static_monitor(base, fields, dtau=0.02):
    """Monitor of the graphs fields[j] over a base that stays put."""
    n = len(fields)
    base_traj = FlowTrajectory(picture="rmcf", m=base.m,
                               times=[j * dtau for j in range(n)],
                               curves=[base] * n)
    return monitor(base_traj, graph_traj(base, fields, dtau))


def normalized_perturbed_circle(amp, k=2, m=128):
    c = reconstruct(circle(SQRT2, m=m), mode(m, k, amp))
    return c.scaled(math.sqrt(2.0 * math.pi / c.area()))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_energy_closed_forms():
    # the Gaussian quadrature the monitor's I column sums
    base = circle(SQRT2, m=256)
    w = 2 * math.pi * SQRT2 * math.exp(-0.5)
    weights = gaussian_weights(base)
    assert np.sum(weights * np.zeros(256)) == 0.0
    assert np.sum(weights) == pytest.approx(w, abs=1e-6)
    assert np.sum(weights * mode(256, 2) ** 2) == pytest.approx(w / 2,
                                                                abs=1e-6)


def test_frequency_round_base_modes():
    # mode k over the round shrinker has rate lam = 1 - k^2/2: U = 2 lam
    base = circle(SQRT2, m=256)
    for k, tol in ((0, 1e-6), (1, 1e-4), (2, 1e-4), (3, 1e-4), (5, 1e-4)):
        trace = static_monitor(base, [0.01 * mode(256, k)] * 5)
        want = 2.0 * (1.0 - k * k / 2.0)
        assert np.abs(trace.columns["U"] - want).max() < tol


def test_frequency_matches_eigensolver():
    base = circle(SQRT2, m=128)
    spec = eigenpairs(assemble(base), count=5)
    for j in (0, 3, 4):
        u = spec.eigenfunctions[:, j]
        u = 0.01 * u / np.abs(u).max()
        trace = static_monitor(base, [u] * 5)
        assert np.abs(trace.columns["U"]
                      - 2.0 * spec.eigenvalues[j]).max() < 1e-6


def test_frequency_never_exceeds_doubled_bound():
    base = ellipse(1.5, 1.1, m=128)
    top = eigenpairs(assemble(base), count=1).eigenvalues[0]
    rng = np.random.default_rng(2)
    trace = static_monitor(base, 1e-3 * rng.standard_normal((10, 128)))
    assert len(trace) == 8
    assert trace.columns["U"].max() <= 2.0 * top + 1e-10
    assert trace.summary["Lambda"] >= top
    assert not any("rayleigh" in flag for flag in trace.flags)


def test_energy_floor_guard():
    # a graph below the energy floor has no quotient: the rows underflow
    base = circle(SQRT2, m=64)
    fields = [1e-9 * mode(64, 2)] * 6
    trace = static_monitor(base, fields)
    assert np.all(trace.columns["I"] <= ENERGY_FLOOR)
    assert np.all(trace.columns["I"] > 0.0)
    assert np.all(trace.columns["underflow"] == 1)
    assert np.all(trace.columns["U"] == 0.0)
    assert trace.summary["lambdaFit"] is None and not trace.flags


def test_shrinker_energy_closed_forms():
    assert shrinker_energy(circle(SQRT2, m=256)) < 1e-12
    # unit circle: deviation 1/2 pointwise, normalized Gaussian length
    want = 0.25 * math.sqrt(math.pi) * math.exp(-0.25)
    assert shrinker_energy(circle(1.0, m=256)) == pytest.approx(want, abs=1e-6)


def test_shrinker_energy_is_minus_df_dtau_radially():
    # scalar check of the normalization: F(r) = sqrt(pi) r e^(-r^2/4), the
    # radius moves at dr/dtau = -phi with phi = 1/r - r/2, and
    # dF/dtau = -F'(r) phi = -Itilde, i.e. F'(r) phi = +Itilde to rounding
    for r in (1.1, 1.7):
        base = circle(r, m=256)
        phi = 1.0 / r - r / 2.0
        fprime = math.sqrt(math.pi) * math.exp(-r * r / 4) * (1 - r * r / 2)
        assert fprime * phi == pytest.approx(shrinker_energy(base), rel=1e-9)


def test_dirichlet_energy_closed_form():
    base = circle(SQRT2, m=256)
    want = 2 * SQRT2 * math.pi * math.exp(-0.5)  # |grad cos 2t|^2 integrated
    u = mode(256, 2)
    assert dirichlet_rows([assemble(base)], [u])[0] == pytest.approx(want,
                                                           abs=1e-8)


def test_gradient_flow_identity_along_rescaled_flow():
    traj = run_rmcf(normalized_perturbed_circle(0.05), 1.0, frame_dtau=0.05)
    times = np.asarray(traj.times)
    for j in range(1, len(traj) - 1):
        itl = shrinker_energy(traj.curves[j])
        if itl < 1e-8:
            continue
        df = (f_functional(traj.curves[j + 1])
              - f_functional(traj.curves[j - 1])) / (times[j + 1] - times[j - 1])
        assert abs(df + itl) < 5e-3 * itl


# ---------------------------------------------------------------------------
# error budget and approach diagnostics
# ---------------------------------------------------------------------------

def test_d_coefficient_static_round():
    _, traj = static_round_traj(5)
    assert np.all(approach(traj)["D"] < 1e-8)


def test_d_coefficient_dominates_deviation_norm():
    traj = run_rmcf(normalized_perturbed_circle(0.08), 0.4, frame_dtau=0.1)
    series = approach(traj)
    assert len(series["D"]) == len(traj) - 2 >= 3
    for j, d in enumerate(series["D"], start=1):
        assert d >= np.abs(shrinker_quantity(traj.curves[j])).max()


def test_approach_series_converges():
    traj = run_rmcf(normalized_perturbed_circle(0.08), 3.0, frame_dtau=0.1)
    series = approach(traj)
    assert np.array_equal(series["tau"], traj.times[1:-1])
    assert np.all(series["D"] >= 0)
    assert series["integralD"] == np.trapezoid(series["D"], series["tau"])
    # slowest stable mode decays like e^(-tau); 0.07 leaves transient room
    assert series["phiC2"][-1] < 0.07 * series["phiC2"][0]
    assert series["phiL2"][-1] < 0.07 * series["phiL2"][0]


# ---------------------------------------------------------------------------
# energy-gap power law
# ---------------------------------------------------------------------------

def test_lojasiewicz_fit_mode_two_manifold():
    # area-normalized mode-2 perturbation decays like e^(-tau), the energy
    # gap like e^(-2 tau): exponent 1 - theta = 1/2
    traj = run_rmcf(normalized_perturbed_circle(0.05), 6.0, frame_dtau=0.1)
    assert 0.4 < approach(traj)["theta"] < 0.6


def test_lojasiewicz_static_is_exact_shrinker():
    _, traj = static_round_traj(25)
    assert approach(traj)["theta"] is None


def test_lojasiewicz_window_guard():
    traj = run_rmcf(normalized_perturbed_circle(0.05), 0.5, frame_dtau=0.1)
    assert approach(traj)["theta"] is None


def test_superexponential_flag_cases():
    tau = np.linspace(0, 3, 40)
    flagged, _ = superexponential_flag(tau, -2.0 * tau + 0.3)
    assert not flagged
    flagged, coef = superexponential_flag(tau, -2.0 * tau * tau)
    assert flagged and coef < 0


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def test_monitor_single_mode_is_exact():
    base, base_traj = static_round_traj(40)
    lam = -1.0  # mode 2
    fields = [0.01 * math.exp(lam * t) * mode(128, 2) for t in base_traj.times]
    trace = monitor(base_traj, graph_traj(base, fields, 0.02))
    assert len(trace) == 38
    assert np.abs(trace.columns["U"] - 2 * lam).max() < 1e-4
    assert np.abs(trace.columns["dlogI"] - 2 * lam).max() < 1e-4
    assert np.abs(trace.columns["Verr"]).max() < 1e-6
    assert np.abs(trace.columns["Vmain"]).max() < 1e-6
    assert trace.columns["underflow"].max() == 0
    assert not trace.flags
    assert np.all(trace.inequality_margin >= 0)
    assert trace.summary["lambdaFit"] == pytest.approx(-2 * lam, abs=1e-6)
    assert trace.summary["Uinf"] == pytest.approx(2 * lam, abs=1e-6)
    assert trace.summary["Lambda"] == pytest.approx(1.0, abs=1e-8)
    assert trace.summary["thetaFit"] is None


def test_monitor_mixture_selects_slowest_mode():
    base, base_traj = static_round_traj(60, dtau=0.05)
    fields = [5e-3 * math.exp(-t) * mode(128, 2)
              + 2e-2 * math.exp(-3.5 * t) * mode(128, 3)
              for t in base_traj.times]
    trace = monitor(base_traj, graph_traj(base, fields, 0.05))
    u = trace.columns["U"]
    assert np.all(np.diff(u) >= -1e-9)
    assert u[0] < -2.5
    assert u[-1] == pytest.approx(-2.0, abs=1e-2)
    assert u[-1] <= -2.0 + 1e-9


def test_monitor_flags_superexponential_collapse():
    # cubic-in-tau log decay keeps bending inside the trailing fit window
    base, base_traj = static_round_traj(51, dtau=0.06)
    fields = [0.1 * math.exp(-1.2 * t ** 3) * mode(128, 2)
              for t in base_traj.times]
    trace = monitor(base_traj, graph_traj(base, fields, 0.06))
    assert any("super-exponential" in f for f in trace.flags)


def test_monitor_underflow_path():
    base, base_traj = static_round_traj(8)
    trace = monitor(base_traj, base_traj)
    assert np.all(trace.columns["underflow"] == 1)
    assert trace.summary["lambdaFit"] is None
    assert not trace.flags


def test_monitor_real_two_flow_run():
    a = run_rmcf(normalized_perturbed_circle(0.03, m=96), 2.0,
                 frame_dtau=0.05)
    b = run_rmcf(normalized_perturbed_circle(-0.02, m=96), 2.0,
                 frame_dtau=0.05)
    trace = monitor(a, b)
    assert not trace.flags
    assert np.all(trace.inequality_margin >= 0)
    # the two flows differ mainly in the slowest stable mode
    assert trace.summary["lambdaFit"] == pytest.approx(2.0, abs=0.5)
    assert 0.4 < (trace.summary["thetaFit"] or 0) < 0.6
    # gradient-flow identity columns agree where the deviation is resolved
    it = trace.columns["Itilde"]
    df = trace.columns["dFdtau"]
    big = it > 1e-8
    assert np.abs(df[big] + it[big]).max() < 5e-3 * it[big].max()


def test_monitor_columns_equal_public_helpers():
    # the monitor's base half is _approach of its base trajectory's frames,
    # number for number; its graph columns are the form and the residual of
    # frame j of one flow written over frame j of the other, by
    # normal_graphs, whose rows do not depend on the frames beside them
    a = run_rmcf(normalized_perturbed_circle(0.03, m=96), 1.0,
                 frame_dtau=0.05)
    b = run_rmcf(normalized_perturbed_circle(-0.02, m=96), 1.0,
                 frame_dtau=0.05)
    trace = monitor(a, b)
    cols = trace.columns
    assert len(trace) == len(a) - 2
    series = approach(a)
    for name in ("tau", "Itilde", "F", "dFdtau", "phiL2", "D"):
        assert np.array_equal(cols[name], series[name]), name
    assert trace.summary["integralD"] == series["integralD"]
    assert trace.summary["integralC2"] == series["integralC2"]
    assert trace.summary["thetaFit"] == series["theta"]
    for r, tau in enumerate(cols["tau"]):
        j = r + 1
        assert a.times[j] == tau and b.times[j] == tau
        base = a.curves[j]
        u = [normal_graphs([a.curves[i]], [b.curves[i]])[0]
             for i in (j - 1, j, j + 1)]
        assert np.array_equal(trace.fields[r], u[1])
        oracle = normal_graph(base, b.curves[j])
        assert np.abs(u[1] - oracle).max() <= 1e-11 * np.abs(oracle).max()
        span = a.times[j + 1] - a.times[j - 1]
        assert cols["I"][r] == np.sum(gaussian_weights(base) * u[1] * u[1])
        op = assemble(base)
        form = (np.sum(op.potential * u[1] * u[1])
                - dirichlet_rows([op], [u[1]])[0])
        assert cols["U"][r] == 2.0 * form / cols["I"][r]
        assert cols["fittedC"][r] == residual(base, *u, span / 2)["fittedC"]


def test_trace_fields_are_the_normal_graph_rows():
    # fields is one (rows, m) array, row r the normal_graphs row of interior
    # frame pair r + 1 bit for bit (one pair at a time, the rows are checked
    # in test_monitor_columns_equal_public_helpers)
    a = run_rmcf(normalized_perturbed_circle(0.03, m=96), 1.0,
                 frame_dtau=0.05)
    b = run_rmcf(normalized_perturbed_circle(-0.02, m=96), 1.0,
                 frame_dtau=0.05)
    fields = monitor(a, b).fields
    assert isinstance(fields, np.ndarray) and fields.shape == (len(a) - 2, 96)
    assert np.array_equal(fields, normal_graphs(a.curves[1:-1],
                                                b.curves[1:-1]))


def test_monitor_pairs_flows_of_different_m():
    # the graphs of a target flow at another m than the base are the
    # crossing search's to 1e-11 relative, one row per base node
    a = run_rmcf(normalized_perturbed_circle(0.03, m=96), 0.5,
                 frame_dtau=0.05)
    b = run_rmcf(normalized_perturbed_circle(-0.02, m=128), 0.5,
                 frame_dtau=0.05)
    trace = monitor(a, b)
    assert len(trace) == len(a) - 2
    for r, u in enumerate(trace.fields):
        oracle = normal_graph(a.curves[r + 1], b.curves[r + 1])
        assert u.shape == (96,)
        assert np.abs(u - oracle).max() <= 1e-11 * np.abs(oracle).max()


def test_monitor_not_a_graph_names_the_frame_tau():
    # an interior frame pair that is no normal graph stops the monitor with
    # the crossing search's message under that frame's time
    base, base_traj = static_round_traj(8)
    curves = list(base_traj.curves)
    curves[3] = circle(0.3, m=128)
    target = FlowTrajectory(picture="rmcf", m=128, times=base_traj.times,
                            curves=curves)
    with pytest.raises(NotAGraph, match=r"^frame pair at tau = 0\.06: no "
                       "target point within reach/2 along normal 0$"):
        monitor(base_traj, target)


def test_monitor_requires_rescaled_pictures():
    base, base_traj = static_round_traj(8)
    mcf_like = FlowTrajectory(picture="mcf", m=128, times=base_traj.times,
                              curves=base_traj.curves)
    with pytest.raises(ValueError):
        monitor(mcf_like, base_traj)


def test_monitor_needs_overlap():
    base, base_traj = static_round_traj(8)
    shifted = FlowTrajectory(picture="rmcf", m=128,
                             times=[t + 100.0 for t in base_traj.times],
                             curves=base_traj.curves)
    with pytest.raises(FrameMissing):
        monitor(base_traj, shifted)


def test_monitor_pairs_frames_only_at_equal_times():
    # frames pair by index, so one moved time of two equal-length
    # trajectories is an error, not a skipped frame
    base, base_traj = static_round_traj(8)
    times = list(base_traj.times)
    times[3] += 1e-12
    moved = FlowTrajectory(picture="rmcf", m=128, times=times,
                           curves=base_traj.curves)
    with pytest.raises(FrameMissing, match="frame times"):
        monitor(base_traj, moved)


def test_trace_serialization(tmp_path):
    base, base_traj = static_round_traj(10)
    fields = [1e-2 * math.exp(-t) * mode(128, 2) for t in base_traj.times]
    trace = monitor(base_traj, graph_traj(base, fields, 0.02))
    csv_path = tmp_path / "trace.csv"
    trace.save_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == len(trace) + 1
    trace.save_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == csv_path.read_bytes()

    data = trace.summary
    assert list(data) == ["lambdaFit", "offsetFit", "Uinf", "Lambda",
                          "thetaFit", "integralD", "integralC2"]
    assert data["thetaFit"] is None
