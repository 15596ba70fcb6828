"""Scenario runner tests: config grammar, pipelines, manifests, CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkerlab import frequency, gauge, labcli, spectral
from shrinkerlab.curvegeo import (area_centroid, circle, ellipse,
                                  hausdorff_distance)
from shrinkerlab.errors import ConfigInvalid, ConvergenceFailure
from shrinkerlab.flowcore import FlowTrajectory, run_rmcf
from shrinkerlab.labcli import (build_curve, main, parse_config_text, run,
                                validate_config)

SQRT2 = math.sqrt(2.0)


def make_config(tmp_path, **overrides):
    raw = {"scenario": "spectrum",
           "curve1": "circle(1.4142135623730951)",
           "m": "128",
           "out": str(tmp_path / "out")}
    raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    for key, value in list(raw.items()):
        if value == "":
            del raw[key]
    return raw


# ---------------------------------------------------------------------------
# config grammar

def test_parse_config_text_comments_and_blanks():
    raw = parse_config_text("""
# full-line comment
scenario = rate   # trailing comment

m = 128
curve1 = circle(1)
""")
    assert raw == {"scenario": "rate", "m": "128", "curve1": "circle(1)"}


def test_parse_config_duplicate_key_rejected():
    with pytest.raises(ConfigInvalid, match="m"):
        parse_config_text("m = 64\nm = 128\n")


# every key of one valid config per scenario; a property example keeps
# the required keys and any subset of the rest
VALID_KEYS = {
    "simulate": {"curve1": "circle(1)", "m": "64", "out": "o", "t_end": "0.4",
                 "frame_dtau": "0.1", "cfl": "0.8", "stop_curvature": "3",
                 "seed": "0"},
    "separation": {"curve1": "ellipse(1.1, 0.9090909090909091)",
                   "curve2": "circle(1)", "m": "128", "out": "o",
                   "tau_end": "1", "frame_dtau": "0.05", "cfl": "1.4",
                   "fit_window": "0.4", "seed": "5"},
    "gauge-residual": {"curve1": "circle(1.4142135623730951)", "m": "64",
                       "out": "o", "amplitudes": "0.01, 0.1", "mode_k": "3",
                       "delta_tau": "0.001", "cfl": "0.5", "seed": "1"},
}
BLANKS = st.text(alphabet=" \t", max_size=3)
COMMENT = st.text(alphabet="ab =#\t", max_size=8).map(lambda c: "#" + c)


@st.composite
def config_texts(draw):
    """(keys, values, text): a valid config's lines, shuffled, each key and
    value padded with blanks, some with a trailing comment, among blank and
    comment lines."""
    scenario = draw(st.sampled_from(sorted(VALID_KEYS)))
    required = ("scenario",) + labcli.SCENARIOS[scenario][0]
    pool = dict(VALID_KEYS[scenario], scenario=scenario)
    optional = sorted(set(pool) - set(required))
    keys = list(required) + draw(st.lists(st.sampled_from(optional),
                                          unique=True))
    lines = []
    for key in draw(st.permutations(keys)):
        pad = [draw(BLANKS) for _ in range(4)]
        tail = draw(st.one_of(st.just(""), COMMENT))
        lines.append("%s%s%s=%s%s%s%s" % (pad[0], key, pad[1], pad[2],
                                          pool[key], pad[3], tail))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.one_of(BLANKS, COMMENT)))
    return keys, pool, "\n".join(lines)


@settings(max_examples=60, deadline=1000, derandomize=True)
@given(case=config_texts(), data=st.data())
def test_config_text_to_hash_ignores_layout(case, data):
    """Order, blanks and comments do not change the validated config or
    its hash; a repeated key is one ConfigInvalid naming that key."""
    keys, pool, text = case
    plain = "\n".join("%s = %s" % (key, pool[key]) for key in sorted(keys))
    config = validate_config(parse_config_text(text))
    plain_config = validate_config(parse_config_text(plain))
    assert config == plain_config
    assert labcli.config_hash(config) == labcli.config_hash(plain_config)
    key = data.draw(st.sampled_from(keys))
    lines = text.split("\n")
    lines.insert(data.draw(st.integers(0, len(lines))),
                 "%s = %s" % (key, pool[key]))
    with pytest.raises(ConfigInvalid) as err:
        parse_config_text("\n".join(lines))
    assert err.value.field == key


def test_parse_config_malformed_line_rejected():
    with pytest.raises(ConfigInvalid, match="line 1"):
        parse_config_text("scenario rate\n")


def test_validate_unknown_scenario(tmp_path):
    raw = make_config(tmp_path, scenario="explode")
    with pytest.raises(ConfigInvalid, match="scenario"):
        validate_config(raw)


def test_validate_unknown_key_names_field(tmp_path):
    raw = make_config(tmp_path, tau_end="3")  # not a spectrum key
    with pytest.raises(ConfigInvalid, match="tau_end"):
        validate_config(raw)


def test_validate_missing_required_names_field(tmp_path):
    raw = make_config(tmp_path)
    del raw["curve1"]
    with pytest.raises(ConfigInvalid, match="curve1"):
        validate_config(raw)


@pytest.mark.parametrize("bad_m", ["63", "62", "129", "64.5", "lots", "65538",
                                   "1125899906842624"])
def test_validate_m_constraints(tmp_path, bad_m):
    raw = make_config(tmp_path, m=bad_m)
    with pytest.raises(ConfigInvalid, match="m"):
        validate_config(raw)


def test_validate_fit_window_range(tmp_path):
    raw = make_config(tmp_path, scenario="rate", tau_end="2", fit_window="1.5")
    with pytest.raises(ConfigInvalid, match="fit_window"):
        validate_config(raw)


def test_validate_gauge_choices(tmp_path):
    raw = make_config(tmp_path, scenario="rate", tau_end="2", gauge="spin")
    with pytest.raises(ConfigInvalid, match="gauge"):
        validate_config(raw)


def test_validate_amplitudes(tmp_path):
    for bad in ("0.1, -0.2", "0.1, nan", "0"):
        raw = make_config(tmp_path, scenario="gauge-residual", amplitudes=bad)
        with pytest.raises(ConfigInvalid,
                           match="every amplitude must be positive") as err:
            validate_config(raw)
        assert err.value.field == "amplitudes"
    raw["amplitudes"] = "0.1, frog"
    with pytest.raises(ConfigInvalid, match="amplitudes"):
        validate_config(raw)


def test_validate_cfl_stability_bound(tmp_path):
    for cfl in ("1.5", "2"):
        raw = make_config(tmp_path, scenario="rate", tau_end="2", cfl=cfl)
        with pytest.raises(ConfigInvalid) as err:
            validate_config(raw)
        assert err.value.field == "cfl"
    raw = make_config(tmp_path, scenario="rate", tau_end="2", cfl="1.4")
    assert validate_config(raw).cfl == 1.4


def test_validate_defaults_applied(tmp_path):
    cfg = validate_config(make_config(tmp_path, scenario="rate", tau_end="2"))
    assert cfg.frame_dtau == 0.05
    assert cfg.cfl == 0.8
    assert cfg.fit_window == 0.4
    assert cfg.gauge == "area-centroid"


# ---------------------------------------------------------------------------
# curve grammar

@pytest.mark.parametrize("spec", [
    "circle(1.5)",
    "circle(1.5, 0.3, -0.2)",
    "ellipse(1.2, 0.8)",
    "ellipse(1.2, 0.8, 1, 1)",
    "fourier(1, 0.02, 0, 0.01, 0.01)",
])
def test_curve_specs_build(tmp_path, spec):
    cfg = validate_config(make_config(tmp_path, curve1=spec))
    curve = build_curve(cfg.curve_specs[0], 64)
    assert curve.m == 64


@pytest.mark.parametrize("spec", [
    "circle()", "circle(0)", "circle(1, 2)", "circle(-1)",
    "ellipse(1)", "ellipse(1, -1)",
    "fourier()", "fourier(1, 0.1)",
    "random_fourier(4)", "random_fourier(4.5, 0.1)",
    "random_fourier(nan, 0.1)", "random_fourier(inf, 0.1)", "circle(nan)",
    # kmax above m/2 = 64 of the config: those modes alias
    "random_fourier(65, 0.1)",
    "blob(1)", "circle 1", "circle(one)",
])
def test_bad_curve_specs_rejected(tmp_path, spec):
    with pytest.raises(ConfigInvalid, match="curve1"):
        validate_config(make_config(tmp_path, curve1=spec))


def test_random_fourier_requires_seed(tmp_path):
    raw = make_config(tmp_path, curve1="random_fourier(5, 0.05)")
    with pytest.raises(ConfigInvalid, match="seed"):
        validate_config(raw)
    raw["seed"] = "7"
    cfg = validate_config(raw)
    curve = build_curve(cfg.curve_specs[0], 64, cfg.seed)
    assert curve.m == 64


def test_build_curve_centers_and_coefficients():
    circle_spec = labcli._parse_curve("circle(2, 1, -1)", "curve1", 64)
    curve = build_curve(circle_spec, 64)
    assert np.allclose(area_centroid(curve.points)[1:], [1.0, -1.0],
                       atol=1e-12)
    # fourier(r0, c1, s1, c2, s2): second harmonic lands in cos/sin slots
    spec = labcli._parse_curve("fourier(1, 0, 0, 0.1, 0.05)", "curve1", 256)
    curve = build_curve(spec, 256)
    radii = np.hypot(curve.points[:, 0], curve.points[:, 1])
    theta = np.arctan2(curve.points[:, 1], curve.points[:, 0])
    expected = 1.0 + 0.1 * np.cos(2 * theta) + 0.05 * np.sin(2 * theta)
    assert np.allclose(radii, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# scenarios end to end

@pytest.fixture(scope="module")
def simulate_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    cfg = validate_config({
        "scenario": "simulate", "curve1": "circle(2, 1, 1)", "m": "128",
        "out": str(out), "frame_dtau": "0.05"})
    return run(cfg), out


def test_simulate_recovers_singularity(simulate_summary):
    summary, _ = simulate_summary
    est = summary["singularity"]
    assert abs(est["time"] - 2.0) < 1e-3
    assert abs(est["center"][0] - 1.0) < 1e-3
    assert abs(est["center"][1] - 1.0) < 1e-3
    assert summary["predictedTime"] == pytest.approx(2.0, abs=1e-12)
    assert summary["verdict"] == "success"


def test_simulate_output_layout(simulate_summary):
    _, out = simulate_summary
    index = json.loads((out / "index.json").read_text())
    frames = np.load(out / "frames.npy")
    assert frames.shape == (len(index["times"]), index["m"], 2)
    assert not (out / "frames").exists()
    assert (out / "series.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    assert index["singularData"] is not None


def test_simulate_ellipse_area_law(tmp_path):
    cfg = validate_config({
        "scenario": "simulate", "curve1": "ellipse(1.2, 0.8)", "m": "128",
        "out": str(tmp_path / "ell")})
    summary = run(cfg)
    assert abs(summary["singularity"]["time"] - summary["predictedTime"]) < 1e-3


def test_simulate_time_error_covers_the_step_error(tmp_path):
    """timeErr bounds the time's distance from the area law at frame 0,
    t_0 + A_0/(2 pi) (predictedTime), and the time's change when cfl
    halves: on this start both exceed the late window's half-spread a
    thousandfold."""
    runs = {}
    for cfl in ("1.4", "0.7", "0.35"):
        runs[cfl] = run(validate_config({
            "scenario": "simulate", "m": "128", "cfl": cfl,
            "curve1": "fourier(1, 0, 0, 0.08, 0, 0.05, 0)",
            "out": str(tmp_path / cfl)}))
    for cfl, finer in (("1.4", "0.7"), ("0.7", "0.35")):
        est = runs[cfl]["singularity"]
        assert est["timeErr"] >= abs(est["time"] - runs[cfl]["predictedTime"])
        assert est["timeErr"] >= abs(est["time"]
                                     - runs[finer]["singularity"]["time"])


def test_spectrum_scenario_matches_circle_modes(tmp_path):
    cfg = validate_config(make_config(tmp_path))
    summary = run(cfg)
    values = summary["eigenvalues"]
    expected = [1.0, 0.5, 0.5, -1.0, -1.0, -3.5, -3.5,
                -7.0, -7.0, -11.5, -11.5, -17.0, -17.0]
    assert np.allclose(values, expected, atol=1e-8)
    saved = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert saved["Lambda"] == pytest.approx(1.0, abs=1e-8)


def test_spectrum_of_a_large_circle_before_the_density_underflows(tmp_path):
    """On circle(53) the Gaussian density is still normal: the spectrum is
    1/R^2 + 1/2 - k^2/R^2, k = 0, 1, 1, 2, 2, ..."""
    radius = 53.0
    summary = run(validate_config({
        "scenario": "spectrum", "curve1": "circle(53)", "m": "64",
        "out": str(tmp_path / "out")}))
    k = (np.arange(len(summary["eigenvalues"])) + 1) // 2
    expected = (1.0 - k * k) / radius ** 2 + 0.5
    assert np.abs(np.array(summary["eigenvalues"]) - expected).max() <= 1e-14


UNDERFLOW = "error: the Gaussian density exp(-|x|^2/4) underflows: "


@pytest.mark.parametrize("scenario, curve, message", [
    ("spectrum", "circle(54)",
     UNDERFLOW + "the curve reaches |x| = 54, beyond 53.23"),
    ("spectrum", "circle(56)",
     UNDERFLOW + "the curve reaches |x| = 56, beyond 53.23"),
    ("spectrum", "ellipse(40, 38)", "error: stiffness coefficient lost "
                                    "positivity on the half grid; curve is "
                                    "under-resolved"),
    ("gauge-residual", "circle(60)",
     UNDERFLOW + "the curve reaches |x| = 60, beyond 53.23"),
    ("gauge-residual", "circle(1e20)",
     UNDERFLOW + "the curve reaches |x| = 1e+20, beyond 53.23"),
], ids=["circle-54", "circle-56", "ellipse-40-38", "gauge-residual-60",
        "gauge-residual-1e20"])
def test_spectrum_beyond_the_density_range_is_one_error_line(tmp_path,
                                                             scenario, curve,
                                                             message):
    """Past |x| ~ 53.23 the density is subnormal and the operator loses
    accuracy before positivity, so assembly names the underflow; an
    under-resolved density inside that range keeps its own error.
    gauge-residual assembles its base's operator before it steps, so a base
    however large stops on the same line, not on a graph iteration its size
    keeps from converging."""
    extra = "amplitudes = 0.01\n" if scenario == "gauge-residual" else ""
    path = write_config(tmp_path, "curve1 = %s\nm = 64\n%sout = %s\n"
                        % (curve, extra, tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", scenario,
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [message]
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def residual_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("residual")
    cfg = validate_config({
        "scenario": "gauge-residual", "curve1": "circle(1.4142135623730951)",
        "m": "128", "out": str(out),
        "amplitudes": "0.001, 0.003, 0.01, 0.03, 0.1"})
    return run(cfg), out


def test_gauge_residual_ratio_bounded(residual_summary):
    summary, _ = residual_summary
    # quadratic remainder: one constant across a 100x amplitude sweep
    assert summary["maxQuadRatio"] < 1.0
    assert summary["ratioSpread"] < 3.0
    assert len(summary["reports"]) == 5
    assert summary["verdict"] == "success"


def test_gauge_residual_trace_layout(residual_summary):
    _, out = residual_summary
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == ("epsilon,tau,maxResidual,fittedC,"
                       "normC0,normC01,normC012,quadRatio")
    assert len(lines) == 6
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["epsilon"]) == 0.001
    assert float(first["quadRatio"]) > 0


@pytest.fixture(scope="module")
def rate_mode2(tmp_path_factory):
    out = tmp_path_factory.mktemp("rate2")
    cfg = validate_config({
        "scenario": "rate", "curve1": "fourier(1, 0, 0, 0.05, 0)",
        "m": "96", "out": str(out), "tau_end": "4", "frame_dtau": "0.1"})
    return run(cfg), out


def test_rate_mode2_slope(rate_mode2):
    summary, _ = rate_mode2
    assert summary["dominantMode"] == 2
    assert summary["predictedSlope"] == -1.0
    assert abs(summary["dhSlope"] + 1.0) < 0.15
    assert abs(summary["phiSlope"] + 1.0) < 0.15
    assert summary["verdict"] == "consistent"


def test_rate_trace_layout(rate_mode2):
    _, out = rate_mode2
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,dH,phiL2"
    assert len(lines) == 42  # tau = 0, 0.1, ..., 4.0 plus header
    assert np.load(out / "frames.npy").shape == (41, 96, 2)


def test_rate_mode3_slope(tmp_path):
    cfg = validate_config({
        "scenario": "rate", "curve1": "fourier(1, 0, 0, 0, 0, 0.04, 0)",
        "m": "96", "out": str(tmp_path / "rate3"), "tau_end": "2.4",
        "frame_dtau": "0.08"})
    summary = run(cfg)
    assert summary["dominantMode"] == 3
    assert summary["predictedSlope"] == -3.5
    assert abs(summary["dhSlope"] + 3.5) < 0.3
    assert abs(summary["phiSlope"] + 3.5) < 0.3
    assert summary["verdict"] == "consistent"


def test_rate_mode12_slope(tmp_path):
    # d_H decays like e^(-71 tau) over tau in [0, 0.6]; that rate is the
    # decay of the stiff linear term, which the step must give exactly
    cfg = validate_config({
        "scenario": "rate",
        "curve1": "fourier(1, %s, 0.004, 0)" % ", ".join(["0"] * 22),
        "m": "128", "out": str(tmp_path / "rate12"), "tau_end": "0.6",
        "frame_dtau": "0.01", "cfl": "1.4"})
    summary = run(cfg)
    assert summary["dominantMode"] == 12
    assert summary["predictedSlope"] == -71.0
    assert abs(summary["dhSlope"] + 71.0) <= 0.05
    assert summary["verdict"] == "consistent"


def test_rate_of_an_ellipse_beyond_the_round_reach(tmp_path):
    """A 1.6:1 ellipse is no normal graph over circle(sqrt 2); its support
    function still finds mode 2."""
    summary = run(validate_config({
        "scenario": "rate", "curve1": "ellipse(1.6, 0.625)", "m": "256",
        "out": str(tmp_path / "rate"), "tau_end": "6"}))
    assert summary["dominantMode"] == 2
    assert abs(summary["dhSlope"] + 1.0) <= 0.05
    assert summary["verdict"] == "consistent"


def test_rate_dh_is_the_distance_to_the_sampled_round_limit(tmp_path):
    """The closed form against h = sqrt(2) is the two-curve distance to
    circle(sqrt 2) at the run's m, on every frame of a rate flow."""
    out = tmp_path / "rate"
    run(validate_config({
        "scenario": "rate", "curve1": "fourier(1, 0, 0, 0.05, 0)",
        "m": "64", "out": str(out), "tau_end": "2", "frame_dtau": "0.1"}))
    dh = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)["dH"]
    frames = FlowTrajectory.load(out).curves
    reference = circle(math.sqrt(2.0), m=64)
    two_curve = np.array([hausdorff_distance(f, reference) for f in frames])
    assert dh.size == two_curve.size == 21
    assert np.abs(dh - two_curve).max() <= 1e-12 * dh.max()


def test_rate_circle_is_exact_shrinker(tmp_path):
    cfg = validate_config({
        "scenario": "rate", "curve1": "circle(3, 0.5, -0.2)", "m": "96",
        "out": str(tmp_path / "ratec"), "tau_end": "2"})
    summary = run(cfg)
    assert summary["verdict"] == "exact-shrinker"
    assert summary["dhSlope"] is None and summary["phiSlope"] is None
    trace = np.genfromtxt(tmp_path / "ratec" / "trace.csv",
                          delimiter=",", names=True)
    assert np.all(trace["dH"] < 1e-8)


def test_rate_on_the_exact_shrinker_has_no_mode(tmp_path):
    """On circle(sqrt 2) h - sqrt(2) is rounding noise: no distance clears
    the floor, and the mode and its predicted slope are null, not the
    argmax of that noise."""
    path = write_config(tmp_path, "curve1 = circle(1.4142135623730951)\n"
                        "m = 256\ntau_end = 1\nout = %s\n" % (tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", "rate",
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert summary["verdict"] == "exact-shrinker"
    for key in ("dominantMode", "predictedSlope", "dhSlope", "phiSlope"):
        assert summary[key] is None, key


def test_rate_rejects_nonconvex(tmp_path):
    cfg = validate_config({
        "scenario": "rate", "curve1": "fourier(1, 0, 0, 0.45, 0)", "m": "96",
        "out": str(tmp_path / "ratenc"), "tau_end": "2"})
    with pytest.raises(ConfigInvalid, match="curve1"):
        run(cfg)


@pytest.fixture(scope="module")
def separation_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("sep")
    cfg = validate_config({
        "scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
        "curve2": "circle(1)", "m": "96", "out": str(out),
        "tau_end": "4", "frame_dtau": "0.05"})
    return run(cfg), out


def test_separation_slopes_and_frequency(separation_result):
    summary, _ = separation_result
    # dominant surviving difference is the second harmonic: rate -1
    assert abs(summary["dhSlope"] + 1.0) < 0.15
    assert abs(summary["lambdaFit"] - 2.0) < 0.3
    assert abs(summary["Uinf"] + 2.0) < 0.2
    assert summary["slopesMatch"] is True
    assert summary["verdict"] == "consistent"
    assert summary["underflowFraction"] == 0.0


def test_separation_output_layout(separation_result):
    _, out = separation_result
    for traj_dir in (out, out / "target"):
        frames = np.load(traj_dir / "frames.npy")
        assert frames.shape == (81, 96, 2)  # tau = 0, 0.05, ..., 4
        assert not (traj_dir / "frames").exists()
    assert (out / "series.csv").exists()
    assert (out / "target" / "series.csv").exists()
    assert (out / "trace.csv").exists()
    report = json.loads((out / "separation.json").read_text())
    assert report["verdict"] == "consistent"
    assert report["flags"] == []
    assert "frequencySummary" in report
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("tau,I,U,")


def test_separation_identical_curves_underflow(tmp_path):
    cfg = validate_config({
        "scenario": "separation", "curve1": "circle(1)", "curve2": "circle(1)",
        "m": "96", "out": str(tmp_path / "same"), "tau_end": "2"})
    summary = run(cfg)
    assert summary["verdict"] == "coincident"
    assert summary["dhSlope"] is None and summary["lambdaFit"] is None
    assert summary["underflowFraction"] == 1.0


def test_separation_rejects_nonconvex(tmp_path):
    cfg = validate_config({
        "scenario": "separation", "curve1": "circle(1)",
        "curve2": "fourier(1, 0, 0, 0.45, 0)", "m": "96",
        "out": str(tmp_path / "nc"), "tau_end": "2"})
    with pytest.raises(ConfigInvalid, match="curve2"):
        run(cfg)


@pytest.mark.parametrize("curve", ["circle(1)",
                                   "ellipse(1.1, 0.9090909090909091)"])
def test_separation_coincident_flows(curve, tmp_path, capsys):
    """M1 = M2: a flow against itself gets its own clean verdict, no fits."""
    out = tmp_path / "same"
    path = write_config(tmp_path, """
scenario = separation
curve1 = %s
curve2 = %s
m = 128
tau_end = 3
out = %s
""" % (curve, curve, out))
    assert main(["separation", "--config", path]) == 0
    assert "verdict: coincident" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "coincident"
    for key in ("dhSlope", "lambdaFit", "offsetFit", "Uinf", "slopesMatch"):
        assert summary[key] is None, key
    assert summary["underflowFraction"] == 1.0
    assert summary["Lambda"] > 0.0
    frequency = json.loads((out / "separation.json").read_text())["frequencySummary"]
    assert frequency["lambdaFit"] is None and frequency["Uinf"] is None


def test_separation_null_dh_slope_is_flagged(tmp_path, capsys):
    """A mode-11 start against circle(1): d_H falls by e^-59.5 per unit tau,
    so only two rows clear _DH_FLOOR and there is no d_H fit. The run stays
    consistent on its energy fit, and separation.json says why dhSlope is
    null."""
    out = tmp_path / "k11"
    path = write_config(tmp_path, """
scenario = separation
curve1 = fourier(0.9999957311932381, %s, 0.004132231404958678, 0)
curve2 = circle(1)
m = 256
tau_end = 2
out = %s
""" % (", ".join(["0"] * 20), out))
    assert main(["separation", "--config", path]) == 0
    assert "verdict: consistent" in capsys.readouterr().out
    report = json.loads((out / "separation.json").read_text())
    assert report["dhSlope"] is None and report["slopesMatch"] is None
    assert report["flags"] == ["no dH slope: 2 of 39 monitor rows have d_H "
                               "above 1e-08 outside energy underflow, too "
                               "few for a fit"]


def _below_the_trace(monkeypatch):
    """Lambda = -100 < U/2 on every row."""
    monkeypatch.setattr(spectral, "rayleigh_bound",
                        lambda traj, stride: (None, None, -100.0))


def _no_error_budget(monkeypatch):
    """C = D = 0: the right side 3(C + D) + C * ratio of every row is 0."""
    approach, residuals = frequency._approach, frequency.residuals

    def no_d(*args):
        return dict(approach(*args), D=np.zeros(len(args[0]) - 2))

    def no_c(*args):
        res = residuals(*args)
        return dict(res, fittedC=np.zeros_like(res["fittedC"]))

    monkeypatch.setattr(frequency, "_approach", no_d)
    monkeypatch.setattr(frequency, "residuals", no_c)


@pytest.mark.parametrize("force, flag", [
    (_below_the_trace,
     lambda tr, r: "rayleigh bound violated at tau = %.6g (U = %.6g, "
                   "Lambda = -100)" % (tr.columns["tau"][r], tr.columns["U"][r])),
    (_no_error_budget,
     lambda tr, r: "frequency-inequality violated at tau = %.6g (lhs %.3g > "
                   "rhs 0)" % (tr.columns["tau"][r], -tr.inequality_margin[r])),
], ids=["rayleigh", "frequency-inequality"])
def test_separation_carries_the_monitor_violation_flags(tmp_path, monkeypatch,
                                                        force, flag):
    """Forced past its bound on every row, the monitor flags each row with
    its tau and both sides of the inequality, and separation.json carries
    the flags."""
    traces, monitor = [], labcli.monitor

    def recorded(*args, **kwargs):
        traces.append(monitor(*args, **kwargs))
        return traces[-1]

    force(monkeypatch)
    monkeypatch.setattr(labcli, "monitor", recorded)
    out = tmp_path / "sep"
    run(validate_config({
        "scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
        "curve2": "circle(1)", "m": "64", "out": str(out), "tau_end": "1"}))
    (trace,) = traces
    assert not trace.columns["underflow"].any()
    expected = [flag(trace, r) for r in range(len(trace))]
    assert len(expected) == 19 and trace.flags == expected
    report = json.loads((out / "separation.json").read_text())
    assert report["flags"] == expected


def test_separation_energy_underflow_without_coincidence(tmp_path, capsys):
    """Every graph energy underflows while d_H clears its floor: the monitor
    has no fit, so the run fails instead of reporting placeholder fits."""
    out = tmp_path / "near"
    path = write_config(tmp_path, """
scenario = separation
curve1 = fourier(1, 0, 0, 3e-8, 0)
curve2 = circle(1)
m = 128
tau_end = 2
frame_dtau = 0.05
out = %s
""" % out)
    assert main(["separation", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the graph energy ")
    assert not (out / "summary.json").exists()


def test_separation_dh_rows_use_the_monitor_frame_pairs(tmp_path, monkeypatch):
    """dH row r reads interior frame r + 1 of both flows and the graph the
    monitor wrote between those two frames: views of the flows' stacks."""
    flows, traces, calls = [], [], []
    run_flows, monitor = labcli.run_flows, labcli.monitor
    graph_hausdorff = labcli.graph_hausdorff

    def recorded_flows(*args, **kwargs):
        pair = run_flows(*args, **kwargs)
        flows.extend(pair)
        return pair

    def recorded_monitor(*args, **kwargs):
        traces.append(monitor(*args, **kwargs))
        return traces[-1]

    def recorded(base_rows, fields, target_rows):
        calls.append((base_rows, fields, target_rows))
        return graph_hausdorff(base_rows, fields, target_rows)

    monkeypatch.setattr(labcli, "run_flows", recorded_flows)
    monkeypatch.setattr(labcli, "monitor", recorded_monitor)
    monkeypatch.setattr(labcli, "graph_hausdorff", recorded)
    run(validate_config({
        "scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
        "curve2": "ellipse(1.05, 0.9523809523809523)", "m": "64",
        "out": str(tmp_path / "sep"), "tau_end": "3", "frame_dtau": "0.05"}))
    base, target = flows
    (trace,) = traces
    assert len(base) > 22 and len(calls) == 1
    base_rows, fields, target_rows = calls[0]
    assert len(base_rows[0]) == len(fields) == len(target_rows[0]) \
        == len(base) - 2
    assert fields is trace.fields
    for traj, (points, geom) in ((base, base_rows), (target, target_rows)):
        stack_points, stack_geom = traj.stacked(slice(1, -1))
        for row, stack in ((points, stack_points), (geom.curvature,
                                                     stack_geom.curvature)):
            assert np.shares_memory(row, stack) and np.array_equal(row, stack)


def test_separation_cross_resolution_slope(separation_result, tmp_path):
    """Doubling the resolution moves the fitted separation slope < 0.05."""
    coarse, _ = separation_result
    cfg = validate_config({
        "scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
        "curve2": "circle(1)", "m": "192", "out": str(tmp_path / "fine"),
        "tau_end": "4", "frame_dtau": "0.05"})
    fine = run(cfg)
    assert abs(fine["dhSlope"] - coarse["dhSlope"]) < 0.05


# ---------------------------------------------------------------------------
# two-curve distance

def test_hausdorff_dense_resolves_small_offsets():
    a = circle(SQRT2, m=96)
    b = circle(SQRT2 + 1e-5, m=96)
    d = hausdorff_distance(a, b)
    assert abs(d - 1e-5) < 1e-8


def test_hausdorff_dense_fallback_offcenter():
    # not star-shaped about the origin, which the distance does not need
    a = circle(1.0, center=(5.0, 0.0), m=64)
    b = circle(1.0, center=(5.001, 0.0), m=64)
    d = hausdorff_distance(a, b)
    assert 0.0005 < d < 0.002


# ---------------------------------------------------------------------------
# determinism and manifest

def test_rerun_byte_identical(tmp_path):
    raw = {"scenario": "gauge-residual", "curve1": "circle(1.4142135623730951)",
           "m": "64", "amplitudes": "0.002, 0.02, 0.2"}
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(validate_config(dict(raw, out=str(out_a))))
    run(validate_config(dict(raw, out=str(out_b))))
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    raw = {"scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
           "curve2": "circle(1)", "m": "64", "tau_end": "2"}
    files = []
    for name in ("sep_a", "sep_b"):
        out = tmp_path / name
        run(validate_config(dict(raw, out=str(out))))
        files.append(json.loads((out / "manifest.json").read_text())["files"])
    assert "trace.csv" in files[0] and "target/series.csv" in files[0]
    assert files[0] == files[1]

    # the eigensolver starts from fixed Fourier modes and draws no random numbers
    raw = {"scenario": "spectrum", "curve1": "ellipse(1.4, 1.0)", "m": "256"}
    files = []
    for name in ("spec_a", "spec_b"):
        out = tmp_path / name
        run(validate_config(dict(raw, out=str(out))))
        files.append(json.loads((out / "manifest.json").read_text())["files"])
    assert "spectrum.json" in files[0]
    assert files[0] == files[1]


def test_manifest_lists_every_file(separation_result):
    _, out = separation_result
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "separation"
    assert len(manifest["configHash"]) == 64
    assert "shrinkerlab" in manifest["versions"]
    assert "numpy" in manifest["versions"]
    on_disk = set()
    for root, _, names in os.walk(out):
        for name in names:
            rel = os.path.relpath(os.path.join(root, name), out)
            if rel != "manifest.json":
                on_disk.add(rel)
    assert set(manifest["files"]) == on_disk
    probe = "trace.csv"
    digest = hashlib.sha256((out / probe).read_bytes()).hexdigest()
    assert manifest["files"][probe] == digest


def test_config_hash_ignores_key_order(tmp_path):
    raw = make_config(tmp_path)
    cfg_a = validate_config(dict(raw))
    shuffled = dict(reversed(list(raw.items())))
    cfg_b = validate_config(shuffled)
    assert labcli.config_hash(cfg_a) == labcli.config_hash(cfg_b)


# ---------------------------------------------------------------------------
# command line

def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_main_spectrum_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1.4142135623730951)
m = 64
out = %s
""" % (tmp_path / "cli_out"))
    code = main(["spectrum", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: success" in out
    assert (tmp_path / "cli_out" / "spectrum.json").exists()


def test_main_flag_overrides(tmp_path):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1.4142135623730951)
m = 64
out = %s
""" % (tmp_path / "ignored"))
    override = tmp_path / "somewhere_else"
    code = main(["spectrum", "--config", path, "--out", str(override), "--m", "128"])
    assert code == 0
    assert (override / "spectrum.json").exists()
    assert not (tmp_path / "ignored").exists()
    saved = json.loads((override / "spectrum.json").read_text())
    assert saved["m"] == 128


def test_main_scenario_mismatch_errors(tmp_path, capsys):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1)
m = 64
out = %s
""" % (tmp_path / "x"))
    code = main(["simulate", "--config", path])
    assert code == 1
    assert "scenario" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_invalid_key_errors(tmp_path, capsys):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1)
m = 64
out = %s
tau_end = 3
""" % (tmp_path / "x"))
    code = main(["spectrum", "--config", path])
    assert code == 1
    assert "tau_end" in capsys.readouterr().err


def test_main_flagged_verdict_exit_code(tmp_path, monkeypatch):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1)
m = 64
out = %s
""" % (tmp_path / "x"))
    monkeypatch.setattr(labcli, "run",
                        lambda cfg: {"verdict": "superexponential-flagged"})
    assert main(["spectrum", "--config", path]) == 2


def test_main_count_above_m_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1.4142135623730951)
m = 64
count = 100
out = %s
""" % (tmp_path / "x"))
    assert main(["spectrum", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: count: ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("spec", ["random_fourier(nan, 0.1)",
                                  "random_fourier(inf, 0.1)"])
def test_main_non_finite_curve_argument_is_a_config_error(tmp_path, capsys,
                                                          spec):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = %s
m = 64
seed = 0
out = %s
""" % (spec, tmp_path / "x"))
    assert main(["spectrum", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: curve1: ")
    assert not (tmp_path / "x").exists()


def test_main_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"scenario = spectrum\ncurve1 = circle(1)  # \xff\xfe\n")
    assert main(["spectrum", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config ")


def test_main_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = circle(1.4142135623730951)
m = 64
out = %s
""" % taken)
    assert main(["spectrum", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: ")
    assert taken.read_text() == "not a directory\n"


def test_main_separation_with_too_few_frames_is_typed(tmp_path, capsys):
    path = write_config(tmp_path, """
scenario = separation
curve1 = ellipse(1.1, 0.9090909090909091)
curve2 = circle(1)
m = 64
out = %s
tau_end = 0.1
frame_dtau = 0.05
""" % (tmp_path / "sep"))
    assert main(["separation", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: need at least 5 frames, got 3"]


def test_gauge_residual_sweeps_in_one_pass(tmp_path, monkeypatch):
    """gauge-residual writes every amplitude's three frames over the base
    in one normal_graphs call and takes their residuals in one residuals
    call; its rows equal per-amplitude normal_graphs and residual calls
    bit for bit."""
    calls = {"normal_graphs": [], "residuals": []}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append((args, out))
            return out
        monkeypatch.setattr(labcli, name, wrapped)

    spy("normal_graphs", labcli.normal_graphs)
    spy("residuals", labcli.residuals)
    summary = run(validate_config({
        "scenario": "gauge-residual", "curve1": "ellipse(1.5, 1.3)",
        "m": "64", "amplitudes": "0.01, 0.03, 0.1", "mode_k": "3",
        "out": str(tmp_path / "x")}))
    assert [len(c) for c in calls.values()] == [1, 1]
    (base_rows, (points, geom)), u = calls["normal_graphs"][0]
    cols = calls["residuals"][0][1]
    base = gauge._frame(base_rows, 0)
    for i, report in enumerate(summary["reports"]):
        block = slice(3 * i, 3 * i + 3)
        one = gauge.normal_graphs(base_rows, (points[block], geom[block]))
        assert np.array_equal(u[3 * i:3 * i + 3], one)
        row = gauge.residual(base, *one, summary["deltaTau"])
        for name, col in cols.items():
            assert np.array_equal(col[i], row[name]), name
        assert report == {"tau": summary["deltaTau"],
                          "maxResidual": row["maxResidual"],
                          "fittedC": row["fittedC"],
                          "normsU": [row["normC0"], row["normC01"],
                                     row["normC012"]],
                          "quadRatio": row["quadRatio"]}


@pytest.mark.parametrize("mode_k, code", [(31, 2), (32, 1), (40, 1)])
def test_main_gauge_residual_mode_k_below_nyquist(tmp_path, mode_k, code):
    """mode_k = m/2 is the grid's sawtooth and higher modes alias onto
    lower ones: both are one config error line, not a sweep of another
    mode under the asked one's name. Mode 31 runs and is written under its
    own name; a delta_tau of 0.005 cannot follow its decay rate
    1 - 31^2/2, so its remainder is not quadratic: verdict not-quadratic,
    exit 2."""
    path = write_config(tmp_path, "curve1 = circle(1.4142135623730951)\n"
                        "m = 64\namplitudes = 0.001\nmode_k = %d\n"
                        "delta_tau = 0.005\nout = %s\n"
                        % (mode_k, tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", "gauge-residual",
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == code
    if code == 1:
        assert proc.stderr.splitlines() == [
            "error: mode_k: must be in [0, m/2 = 32), got %d" % mode_k]
        assert not (tmp_path / "x").exists()
    else:
        assert proc.stderr == ""
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["modeK"] == mode_k
        assert summary["verdict"] == "not-quadratic"
        assert summary["maxQuadRatio"] == pytest.approx(722.45, abs=0.01)


@pytest.mark.parametrize("mode_k, amplitudes", [
    (7, "0.001, 0.003, 0.01, 0.03, 0.1"),
    (8, "0.001, 0.003, 0.01, 0.03, 0.1"),
    (10, "0.001, 0.003, 0.01")])
def test_gauge_residual_default_step_follows_the_mode(tmp_path, mode_k,
                                                      amplitudes):
    """With delta_tau unset the step is 0.005 / |1 - k^2/2| for k > 2, so
    the sweep over the round shrinker stays quadratic in the higher modes
    too (at the fixed step 0.005, modes 8 and 10 read not-quadratic)."""
    summary = run(validate_config({
        "scenario": "gauge-residual", "curve1": "circle(1.4142135623730951)",
        "m": "128", "amplitudes": amplitudes, "mode_k": str(mode_k),
        "out": str(tmp_path / "x")}))
    assert summary["deltaTau"] == 0.005 / (0.5 * mode_k ** 2 - 1.0)
    assert summary["verdict"] == "success"
    assert summary["maxQuadRatio"] < 0.25
    assert summary["ratioSpread"] < 1.2


def test_main_gauge_residual_not_a_shrinker_is_not_quadratic(tmp_path,
                                                             capsys):
    """On a base that is no shrinker L is not the linearization of the
    graph flow: the sweep's remainder is not quadratic (maxQuadRatio >= 1,
    here with a spread >= 3), so its verdict is not-quadratic, exit 2, with
    every file written."""
    out = tmp_path / "x"
    path = write_config(tmp_path, "curve1 = fourier(1, 0, 0, 0.3, 0)\nm = 64\n"
                        "amplitudes = 0.01, 0.1\nout = %s\n" % out)
    assert main(["gauge-residual", "--config", path]) == 2
    assert "verdict: not-quadratic" in capsys.readouterr().out.splitlines()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "not-quadratic"
    assert summary["maxQuadRatio"] == pytest.approx(61.9, abs=0.1)
    assert summary["ratioSpread"] == pytest.approx(18.1, abs=0.1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == ["summary.json", "trace.csv"]


@pytest.mark.parametrize("extra", ["mode_k = 3\namplitudes = 1e300",
                                   "mode_k = 0\namplitudes = 1e100",
                                   "amplitudes = inf", "amplitudes = 5",
                                   "amplitudes = 0.1, -0.2",
                                   "amplitudes = 0.1, nan"],
                         ids=["overflow", "step-overflow", "infinite",
                              "not-simple", "negative", "nan"])
def test_main_gauge_residual_bad_start_names_amplitudes(tmp_path, extra):
    """An amplitude that is not positive or not finite, or whose start
    overflows as it is built or as the step forms its curvature, or is no
    simple curve, is one config error line naming amplitudes, not a
    traceback or an unkeyed curve error."""
    path = write_config(tmp_path, "curve1 = circle(1.4142135623730951)\n"
                        "m = 64\n%s\nout = %s\n" % (extra, tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", "gauge-residual",
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: amplitudes: ")
    assert not (tmp_path / "x").exists()


def test_main_gauge_residual_not_a_graph_names_the_amplitude(tmp_path,
                                                             capsys):
    path = write_config(tmp_path, """
scenario = gauge-residual
curve1 = circle(1.4142135623730951)
amplitudes = 0.01, 0.5
m = 64
out = %s
""" % (tmp_path / "res"))
    assert main(["gauge-residual", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: amplitude 0.5: no target point within reach/2 "
                   "along normal 0"]


def test_main_eigensolver_nonconvergence_is_typed(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 1)
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = ellipse(2, 0.5)
m = 256
out = %s
""" % (tmp_path / "x"))
    assert main(["spectrum", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eigenpair residual ")
    traj = run_rmcf(ellipse(2.0, 0.5, m=256), 0.02, frame_dtau=0.01)
    with pytest.raises(ConvergenceFailure, match="residual"):
        spectral.rayleigh_bound(traj)


def test_main_rate_losing_convexity_is_typed(tmp_path, capsys):
    """rate steps under require_convex. The flow's own frame check is the
    one convexity gate: it finds the start not convex at frame 0, and the
    run reports it as the config error of that curve."""
    path = write_config(tmp_path, """
scenario = rate
curve1 = fourier(1, 0, 0, 0.45, 0)
m = 96
out = %s
tau_end = 1
""" % (tmp_path / "x"))
    assert main(["rate", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: curve1: must be convex for scenario rate"]


MODE_7 = "fourier(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.02, 0)"


@pytest.mark.parametrize("scenario, curves, key", [
    ("rate", "curve1 = %s" % MODE_7, "curve1"),
    ("separation", "curve1 = circle(%r)\ncurve2 = %s"
     % (math.sqrt(1.0002), MODE_7), "curve2"),
], ids=["rate", "separation"])
def test_main_start_of_zero_curvature_is_a_config_error(tmp_path, capsys,
                                                         scenario, curves,
                                                         key):
    """Mode 7 at amplitude 0.02 has exact minimum curvature 0: it passes the
    node check, but the rows the first step reads from the area-normalized
    start give it the wrong sign. The run stops as a config error naming
    the curve (in `separation` the second flow, against a circle of its
    area), as the stepper would, and writes nothing."""
    path = write_config(tmp_path, """
scenario = %s
%s
m = 64
tau_end = 1
out = %s
""" % (scenario, curves, tmp_path / "x"))
    assert main([scenario, "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: %s: must be convex for scenario %s" % (key, scenario)]
    assert not (tmp_path / "x").exists()


def test_main_negative_seed_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, """
scenario = spectrum
curve1 = random_fourier(4, 0.05)
seed = -3
m = 64
out = %s
""" % (tmp_path / "x"))
    assert main(["spectrum", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed: ")
    assert not (tmp_path / "x").exists()


def test_main_separation_unequal_areas_is_a_config_error(tmp_path, capsys):
    """Two flows with different singular times are rejected, not compared."""
    path = write_config(tmp_path, """
scenario = separation
curve1 = ellipse(1.2, 0.9)
curve2 = circle(1)
m = 64
tau_end = 2
out = %s
""" % (tmp_path / "x"))
    assert main(["separation", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: curve2: ")


def test_main_separation_pair_that_is_not_a_graph_is_typed(tmp_path, capsys):
    """An elongated flow against a round one is no normal graph over it: the
    monitor's typed NotAGraph reaches the CLI as one line that names the
    frame, before any dH."""
    path = write_config(tmp_path, """
scenario = separation
curve1 = ellipse(2, 0.5)
curve2 = circle(1)
m = 128
tau_end = 2
frame_dtau = 0.05
out = %s
""" % (tmp_path / "x"))
    assert main(["separation", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: frame pair at tau = 0: no target point within "
                   "reach/2 along normal 0"]


def test_main_rate_curve_with_negative_polar_radius_is_typed(tmp_path, capsys):
    """The spec parses, but r(theta) = 1 + 1.5 cos(theta) changes sign."""
    path = write_config(tmp_path, """
scenario = rate
curve1 = fourier(1, 1.5, 0)
m = 64
tau_end = 1
out = %s
""" % (tmp_path / "x"))
    assert main(["rate", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: curve1: polar radius must stay positive"]
    assert not (tmp_path / "x").exists()


def test_main_rate_ellipse_too_thin_for_m_is_typed(tmp_path, capsys):
    """At m = 64 the nodes of a 100:1 ellipse bunch at its tips."""
    path = write_config(tmp_path, """
scenario = rate
curve1 = ellipse(1, 0.01)
m = 64
tau_end = 1
out = %s
""" % (tmp_path / "x"))
    assert main(["rate", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: curve1: node spacing ratio 19.9 exceeds 10"]
    assert not (tmp_path / "x").exists()


def test_main_separation_builder_error_names_its_curve(tmp_path, capsys):
    """A builder's refusal of curve2 names curve2, not only the reason."""
    path = write_config(tmp_path, """
scenario = separation
curve1 = circle(1)
curve2 = ellipse(1, 0.01)
m = 64
tau_end = 1
out = %s
""" % (tmp_path / "x"))
    assert main(["separation", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: curve2: node spacing ratio 19.9 exceeds 10"]
    assert not (tmp_path / "x").exists()


def test_failed_scenario_leaves_no_directory_it_created(tmp_path):
    """Missing parents made for `out` go too; an existing one stays."""
    (tmp_path / "kept").mkdir()
    path = write_config(tmp_path, """
scenario = rate
curve1 = fourier(1, 1.5, 0)
m = 64
tau_end = 1
out = %s
""" % (tmp_path / "kept" / "new" / "x"))
    assert main(["rate", "--config", path]) == 1
    assert os.listdir(tmp_path / "kept") == []


def src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_labcli_points_to_the_package(tmp_path):
    """`python -m shrinkerlab.labcli` runs nothing and exits 1 with the
    entry to use."""
    path = write_config(tmp_path, """
curve1 = fourier(1, 0, 0, 0.05, 0)
m = 64
tau_end = 1
out = %s
""" % (tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-m", "shrinkerlab.labcli", "rate", "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: run scenarios with `python -m shrinkerlab`"]
    assert proc.stdout == ""
    assert not (tmp_path / "x").exists()


def test_python_dash_m_reports_one_error_line(tmp_path):
    """`python -m shrinkerlab` runs the CLI with nothing on stderr but the
    error line."""
    proc = subprocess.run(
        [sys.executable, "-m", "shrinkerlab", "rate", "--config",
         str(tmp_path / "missing.cfg")],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config ")


@pytest.mark.parametrize("scenario", ["spectrum", "rate"])
def test_a_curve_too_large_for_its_geometry_is_one_error_line(tmp_path,
                                                              scenario):
    """circle(1e200) is finite, but the cube of its metric speed is not:
    the process stops with one `error: curve1:` line, no numpy warning
    before it, and leaves no output directory."""
    tau_end = "tau_end = 1\n" if scenario == "rate" else ""
    path = write_config(tmp_path, "curve1 = circle(1e200)\nm = 64\n%s"
                        "out = %s\n" % (tau_end, tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-m", "shrinkerlab", scenario, "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: curve1: too large: its geometry overflows double precision"]
    assert not (tmp_path / "x").exists()


def test_a_rate_run_with_too_many_frames_is_one_error_line(tmp_path):
    """tau_end = 10^4 at frame_dtau = 10^-3 asks for 10^7 frames, each a
    step at least, past the step budget: one typed line under `python -W
    error`, before any frame is stored, and no output."""
    path = write_config(tmp_path, "curve1 = circle(1.4142135623730951)\n"
                        "m = 64\ntau_end = 10000\nframe_dtau = 0.001\n"
                        "out = %s\n" % (tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", "rate",
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: curve 0 needs more than 1000000 steps to its end time, one "
        "at least to each of 1e+07 frames"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scenario, text, message", [
    ("rate", "curve1 = circle(1.4142135623730951)\nm = 65536\ntau_end = 1000\n"
             "frame_dtau = 0.001\n",
     "error: curve 0 stores at least 1000001 frames x 65536 nodes = "
     "65536065536 nodes, more than STORED_NODES_MAX = 16777216"),
    ("simulate", "curve1 = circle(1)\nm = 64\nframe_dtau = 0.000001\n",
     "error: curve 0 needs more than 1000000 steps to its end time, one at "
     "least to each of 7.82405e+06 frames"),
], ids=["rate-stored-nodes", "simulate-frames"])
def test_a_run_past_its_frame_budgets_is_one_error_line(tmp_path, scenario,
                                                         text, message):
    """A rate run whose 10^6 frames at m = 65536 would store 6.6e10 nodes
    (4.7 TB of stacks), and a simulate run whose area levels 10^-6 apart
    need 7.8e6 frames to its stop curvature, each a step at least, stop up
    front with one typed line under `python -W error`, and no output."""
    path = write_config(tmp_path, text + "out = %s\n" % (tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", scenario,
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [message]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("radius, message", [
    ("1e90", "error: curve1: too large: its geometry overflows double "
             "precision"),
    ("1e50", "error: curve 0 needs more than 1000000 steps to its end time, "
             "each at most 0.0229 long"),
])
def test_simulate_on_a_huge_circle_is_one_error_line(tmp_path, radius, message):
    """circle(1e90) overflows the squared curvature the step size reads;
    circle(1e50) does not, but its flow would take some 1e101 steps of at
    most 0.0229 to reach its singular time r^2/2. Both stop up front with
    one typed line under `python -W error`, and leave no output."""
    path = write_config(tmp_path, "curve1 = circle(%s)\nm = 64\nout = %s\n"
                        % (radius, tmp_path / "x"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shrinkerlab", "simulate",
         "--config", path],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [message]
    assert not (tmp_path / "x").exists()
