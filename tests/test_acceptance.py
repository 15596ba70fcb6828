"""End-to-end acceptance checks; each test prints one PASS/FAIL line.

Heavy reference runs come from session fixtures in conftest.py so they are
computed once. Every tolerance is stated inline next to its assert.
"""

import math
import time

import numpy as np
import pytest

from shrinkerlab.curvegeo import circle, f_functional, shrinker_quantity
from shrinkerlab.flowcore import FlowTrajectory
from shrinkerlab.frequency import _approach, _frames, monitor, shrinker_energy
from shrinkerlab.gauge import reconstruct
from shrinkerlab.labcli import run, validate_config
from shrinkerlab.spectral import assemble, eigenpairs

SQRT2 = math.sqrt(2.0)
ROUND_F = math.sqrt(2.0 * math.pi) * math.exp(-0.5)


def report(name, ok, detail):
    line = "%s  %s: %s" % ("PASS" if ok else "FAIL", name, detail)
    print(line)
    return line


def cumtrapz(x, y):
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return np.concatenate([[0.0], np.cumsum(inc)])


def test_shrinker_identity():
    """Round curve of radius sqrt(2): phi vanishes, Gaussian area is known."""
    t0 = time.perf_counter()
    curve = circle(SQRT2, m=512)
    phi_max = float(np.abs(shrinker_quantity(curve)).max())
    f_err = abs(f_functional(curve) - ROUND_F)
    elapsed = time.perf_counter() - t0
    ok = phi_max < 1e-6 and f_err < 1e-6 and elapsed < 1.0
    line = report("shrinker identity", ok,
                  "max|phi| = %.2e (< 1e-6), |F - %.6f| = %.2e (< 1e-6), "
                  "%.2f s (< 1)" % (phi_max, ROUND_F, f_err, elapsed))
    assert ok, line


def test_circle_spectrum():
    """Assembled drift operator on the round curve: 1 - k^2/2, paired."""
    t0 = time.perf_counter()
    spectrum = eigenpairs(assemble(circle(SQRT2, m=512)), count=13)
    elapsed = time.perf_counter() - t0
    values = np.asarray(spectrum.eigenvalues)
    expected = np.array([1.0, 0.5, 0.5, -1.0, -1.0, -3.5, -3.5,
                         -7.0, -7.0, -11.5, -11.5, -17.0, -17.0])
    value_err = float(np.abs(values - expected).max())
    pair_gap = float(max(abs(values[2 * k - 1] - values[2 * k])
                         for k in range(1, 7)))
    ok = value_err < 1e-3 and pair_gap < 1e-8 and elapsed < 10.0
    line = report("circle spectrum", ok,
                  "max eigenvalue error = %.2e (< 1e-3), pair gap = %.2e "
                  "(< 1e-8), %.2f s (< 10)" % (value_err, pair_gap, elapsed))
    assert ok, line


def _gradient_flow_worst(traj):
    taus = np.asarray(traj.times, dtype=float)
    f_vals = np.array([f_functional(c) for c in traj.curves])
    itil = np.array([shrinker_energy(c) for c in traj.curves])
    delta = taus[1] - taus[0]
    j = np.arange(2, len(taus) - 2)
    dfd = (-f_vals[j + 2] + 8.0 * f_vals[j + 1]
           - 8.0 * f_vals[j - 1] + f_vals[j - 2]) / (12.0 * delta)
    mask = itil[j] > 1e-8
    rel = np.abs(dfd + itil[j])[mask] / itil[j][mask]
    return float(rel.max()), int(mask.sum())


def test_gradient_flow_identity(rmcf_mixed_512, rmcf_radial_256):
    """dF/dtau = -(Gaussian L2 norm of phi)^2 along plain rescaled runs."""
    worst = 0.0
    frames = 0
    runtimes = []
    for traj, elapsed in (rmcf_mixed_512, rmcf_radial_256):
        rel, n = _gradient_flow_worst(traj)
        worst = max(worst, rel)
        frames += n
        runtimes.append(elapsed)
    ok = worst < 1e-3 and max(runtimes) < 30.0
    line = report("gradient-flow identity", ok,
                  "worst |dF/dtau + Itilde|/Itilde = %.2e (< 1e-3) over %d "
                  "frames in 2 runs, slowest run %.1f s (< 30)"
                  % (worst, frames, max(runtimes)))
    assert ok, line


def test_integrability_tail(rmcf_convex_128):
    """Late-time integrals of phi's size and the drift coefficient stall."""
    traj, _ = rmcf_convex_128
    series = _approach(np.asarray(traj.times), _frames(traj))
    taus = series["tau"]
    cum_phi = cumtrapz(taus, series["phiL2"])
    cum_d = cumtrapz(taus, series["D"])
    tail = taus >= 12.0
    assert tail.sum() >= 10
    rate_phi = float((np.diff(cum_phi)[tail[1:]] / np.diff(taus)[tail[1:]]).max())
    rate_d = float((np.diff(cum_d)[tail[1:]] / np.diff(taus)[tail[1:]]).max())
    ok = rate_phi < 1e-4 and rate_d < 1e-4
    line = report("integrability", ok,
                  "per-unit-tau increase beyond tau = 12: int ||phi|| %.2e, "
                  "int D %.2e (both < 1e-4)" % (rate_phi, rate_d))
    assert ok, line


def test_linearization_ratio_sweep(tmp_path):
    """Graph-flow residual stays quadratic across a 100x amplitude sweep."""
    config = validate_config({
        "scenario": "gauge-residual",
        "curve1": "circle(1.4142135623730951)",
        "m": "512",
        "out": str(tmp_path / "sweep"),
        "amplitudes": "0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1",
    })
    summary = run(config)
    ok = summary["maxQuadRatio"] < 1.0 and summary["ratioSpread"] < 3.0
    line = report("linearization bound", ok,
                  "max residual ratio = %.3f (< 1.0), spread = %.2fx (< 3) "
                  "across 100x amplitudes"
                  % (summary["maxQuadRatio"], summary["ratioSpread"]))
    assert ok, line


def _synthetic_monitor(mode_amps, taus, base):
    theta = np.arange(base.m) * (2.0 * np.pi / base.m)

    def graph(tau):
        u = np.zeros(base.m)
        for k, amp in mode_amps:
            lam = 1.0 - 0.5 * k * k
            u += amp * math.exp(lam * tau) * np.cos(k * theta)
        return u

    base_traj = FlowTrajectory(picture="rmcf", m=base.m, times=list(taus),
                               curves=[base] * len(taus))
    target = FlowTrajectory(picture="rmcf", m=base.m, times=list(taus),
                            curves=[reconstruct(base, graph(t)) for t in taus])
    return monitor(base_traj, target)


def test_frequency_mechanics():
    """Eigenmode graphs: U hits 2(1 - k^2/2), I decays at exactly that rate;
    mixtures converge monotonically up to the slowest mode's rate."""
    base = circle(SQRT2, m=512)
    taus = np.arange(0.0, 2.0 + 1e-12, 0.02)
    delta = 0.02
    worst_u = 0.0
    worst_rate = 0.0
    for k in (1, 2, 3):
        trace = _synthetic_monitor([(k, 1e-3)], taus, base)
        u_vals = trace.columns["U"]
        i_vals = trace.columns["I"]
        target_u = 2.0 * (1.0 - 0.5 * k * k)
        worst_u = max(worst_u, float(np.abs(u_vals - target_u).max()))
        log_i = np.log(i_vals)
        j = np.arange(1, len(i_vals) - 1)
        dlog = (log_i[j + 1] - log_i[j - 1]) / (2.0 * delta)
        worst_rate = max(worst_rate,
                         float(np.abs((dlog - u_vals[j]) / u_vals[j]).max()))
    mix = _synthetic_monitor([(2, 1e-3), (3, 6e-4)], taus, base)
    u_mix = mix.columns["U"]
    monotone = bool(np.all(np.diff(u_mix) > -1e-8))
    mix_err = abs(u_mix[-1] + 2.0)
    ok = (worst_u < 1e-4 and worst_rate < 1e-3 and monotone
          and mix_err < 1e-3)
    line = report("frequency mechanics", ok,
                  "|U - 2(1 - k^2/2)| = %.2e (< 1e-4), |dlogI/U - 1| = %.2e "
                  "(< 1e-3), mixture monotone = %s with final |U + 2| = %.2e"
                  % (worst_u, worst_rate, monotone, mix_err))
    assert ok, line


def test_two_flow_separation(separation_512):
    """Distinct flows into one singularity separate at the spectral rate."""
    summary, elapsed, out = separation_512
    trace = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    live = trace["underflow"] == 0
    u_min = float(trace["U"][live].min())
    ok = (abs(summary["dhSlope"] + 1.0) <= 0.15
          and abs(summary["Uinf"] + 2.0) <= 0.2
          and summary["verdict"] == "consistent"
          and u_min > -4.0
          and elapsed < 60.0)
    line = report("two-flow separation", ok,
                  "log d_H slope = %.3f (-1 +- 0.15), late U = %.3f "
                  "(-2 +- 0.2), min U = %.2f (bounded), verdict = %s, "
                  "%.1f s (< 60)" % (summary["dhSlope"], summary["Uinf"],
                                     u_min, summary["verdict"], elapsed))
    assert ok, line


@pytest.mark.parametrize("k, eps", [(3, 0.05), (4, 0.03), (5, 0.02)])
def test_separation_mode_ladder(k, eps, tmp_path):
    """A pair differing in mode k separates at rate 1 - k^2/2 with frequency
    2 - k^2, and the monitor covers every interior frame of the run."""
    # r0 makes the polar graph r0 (1 + eps cos k theta) enclose area pi
    r0 = (1.0 + 0.5 * eps * eps) ** -0.5
    coeffs = ["0"] * (2 * k)
    coeffs[2 * k - 2] = repr(eps)
    out = tmp_path / ("k%d" % k)
    summary = run(validate_config({
        "scenario": "separation",
        "curve1": "fourier(%r, %s)" % (r0, ", ".join(coeffs)),
        "curve2": "circle(1)", "m": "256", "out": str(out), "tau_end": "4",
        "frame_dtau": "0.05", "cfl": "1.4"}))
    taus = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)["tau"]
    slope, u_inf = 1.0 - 0.5 * k * k, 2.0 - k * k
    ok = (abs(summary["dhSlope"] - slope) <= 0.15
          and abs(summary["Uinf"] - u_inf) <= 0.2
          and summary["verdict"] == "consistent"
          and abs(taus[0] - 0.05) < 1e-12 and abs(taus[-1] - 3.95) < 1e-12)
    line = report("mode-%d separation" % k, ok,
                  "log d_H slope = %.4f (%g +- 0.15), late U = %.4f "
                  "(%g +- 0.2), verdict = %s, trace tau %.4g..%.4g "
                  "(0.05..3.95)" % (summary["dhSlope"], slope, summary["Uinf"],
                                    u_inf, summary["verdict"], taus[0],
                                    taus[-1]))
    assert ok, line


def test_separation_converges_in_cfl(tmp_path):
    """Halving cfl halves every step; at fourth order the fitted rates move
    by 16x less per halving (at least 8x is asked), and the late frequency
    is already at rounding."""
    runs = [run(validate_config({
        "scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
        "curve2": "circle(1)", "m": "256", "out": str(tmp_path / cfl),
        "tau_end": "7", "frame_dtau": "0.05", "cfl": cfl}))
        for cfl in ("1.4", "0.7", "0.35")]
    ratios, details = [], []
    for key in ("dhSlope", "lambdaFit", "Uinf"):
        gaps = [abs(a[key] - b[key]) for a, b in zip(runs, runs[1:])]
        details.append("%s gaps %.2e, %.2e" % (key, gaps[0], gaps[1]))
        if key == "Uinf":
            u_gap = max(gaps)
        else:
            ratios.append(gaps[0] / gaps[1])
    ok = min(ratios) >= 8.0 and u_gap <= 1e-11
    line = report("separation cfl convergence", ok,
                  "%s; shrink %.1fx, %.1fx (>= 8); Uinf gaps <= 1e-11"
                  % ("; ".join(details), ratios[0], ratios[1]))
    assert ok, line


def test_separation_converges_in_m(tmp_path):
    """At a fixed cfl the separation run is resolved from m = 128 on: across
    m = 128, 256 and 512 the fitted rates agree to 1e-10 and the late and
    top frequencies to 1e-12, for the reference pair and for the pair of
    which neither flow is a shrinker."""
    tols = {"dhSlope": 1e-10, "lambdaFit": 1e-10, "Uinf": 1e-12, "Lambda": 1e-12}
    gaps = dict.fromkeys(tols, 0.0)
    verdicts = set()
    for name, curve2 in (("circle", "circle(1)"),
                         ("ellipse", "ellipse(1.05, 0.9523809523809523)")):
        runs = [run(validate_config({
            "scenario": "separation",
            "curve1": "ellipse(1.1, 0.9090909090909091)", "curve2": curve2,
            "m": m, "out": str(tmp_path / (name + m)), "tau_end": "7",
            "frame_dtau": "0.05", "cfl": "1.4"})) for m in ("128", "256", "512")]
        verdicts.update(summary["verdict"] for summary in runs)
        for key in tols:
            values = [summary[key] for summary in runs]
            gaps[key] = max(gaps[key], max(values) - min(values))
    ok = (verdicts == {"consistent"}
          and all(gaps[key] <= tol for key, tol in tols.items()))
    detail = "; ".join("%s gap %.2e (<= %g)" % (key, gaps[key], tol)
                       for key, tol in tols.items())
    line = report("separation m convergence", ok,
                  "%s; verdicts %s" % (detail, sorted(verdicts)))
    assert ok, line


def test_rate_converges_in_cfl_and_m(tmp_path):
    """The fitted rates of a rate run move by at least 8x less per halving
    of cfl, and m = 128 already resolves them: m = 256 agrees to 1e-12."""
    runs = {m: [run(validate_config({
        "scenario": "rate", "curve1": "fourier(1, 0, 0, 0.05, 0)", "m": m,
        "out": str(tmp_path / (m + "-" + cfl)), "tau_end": "4",
        "frame_dtau": "0.05", "cfl": cfl}))
        for cfl in ("1.4", "0.7", "0.35")] for m in ("128", "256")}
    ratios, details = [], []
    for key in ("dhSlope", "phiSlope"):
        for m, series in runs.items():
            gaps = [abs(a[key] - b[key]) for a, b in zip(series, series[1:])]
            ratios.append(gaps[0] / gaps[1])
            details.append("%s m=%s gaps %.2e, %.2e" % (key, m, *gaps))
    m_gap = max(abs(a[key] - b[key]) for key in ("dhSlope", "phiSlope")
                for a, b in zip(runs["128"], runs["256"]))
    ok = min(ratios) >= 8.0 and m_gap <= 1e-12
    line = report("rate cfl and m convergence", ok,
                  "%s; shrink >= %.1fx (>= 8); m gap %.2e (<= 1e-12)"
                  % ("; ".join(details), min(ratios), m_gap))
    assert ok, line


def test_singularity_estimation(tmp_path):
    """Extinction data recovered from unrescaled runs at 1e-3."""
    c_cfg = validate_config({
        "scenario": "simulate", "curve1": "circle(2, 0.3, -0.4)",
        "m": "256", "out": str(tmp_path / "c")})
    c_sum = run(c_cfg)
    t_err = abs(c_sum["singularity"]["time"] - 2.0)
    x_err = math.hypot(c_sum["singularity"]["center"][0] - 0.3,
                       c_sum["singularity"]["center"][1] + 0.4)
    e_cfg = validate_config({
        "scenario": "simulate", "curve1": "ellipse(1.4, 1.0)",
        "m": "256", "out": str(tmp_path / "e")})
    e_sum = run(e_cfg)
    e_err = abs(e_sum["singularity"]["time"] - e_sum["predictedTime"])
    ok = t_err < 1e-3 and x_err < 1e-3 and e_err < 1e-3
    line = report("singularity estimation", ok,
                  "circle |T - 2| = %.2e, |x0 - center| = %.2e, ellipse "
                  "|T - A0/2pi| = %.2e (all < 1e-3)" % (t_err, x_err, e_err))
    assert ok, line


def test_determinism(tmp_path):
    """Same config, fresh run: byte-identical trace.csv."""
    configs = [
        {"scenario": "gauge-residual", "curve1": "circle(1.4142135623730951)",
         "m": "128", "amplitudes": "0.002, 0.02, 0.2"},
        {"scenario": "rate", "curve1": "fourier(1, 0, 0, 0.05, 0)",
         "m": "96", "tau_end": "2", "frame_dtau": "0.1"},
    ]
    identical = []
    for i, raw in enumerate(configs):
        out_a = tmp_path / ("a%d" % i)
        out_b = tmp_path / ("b%d" % i)
        run(validate_config(dict(raw, out=str(out_a))))
        run(validate_config(dict(raw, out=str(out_b))))
        identical.append((out_a / "trace.csv").read_bytes()
                         == (out_b / "trace.csv").read_bytes())
    ok = all(identical)
    line = report("determinism", ok,
                  "trace.csv byte-identical on rerun for %d scenarios (%s)"
                  % (len(configs), ", ".join(c["scenario"] for c in configs)))
    assert ok, line
