"""Scenario runner tests: config grammar, pipelines, manifests, CLI."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from shrinkerlab import frequency, labcli
from shrinkerlab.errors import ConfigInvalid
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


@pytest.mark.parametrize("bad_m", ["63", "62", "129", "64.5", "lots"])
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
    raw = make_config(tmp_path, scenario="gauge-residual", amplitudes="0.1, -0.2")
    with pytest.raises(ConfigInvalid, match="amplitudes"):
        validate_config(raw)
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
    circle_spec = labcli._parse_curve("circle(2, 1, -1)", "curve1")
    curve = build_curve(circle_spec, 64)
    assert np.allclose(curve.centroid(), [1.0, -1.0], atol=1e-12)
    # fourier(r0, c1, s1, c2, s2): second harmonic lands in cos/sin slots
    spec = labcli._parse_curve("fourier(1, 0, 0, 0.1, 0.05)", "curve1")
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
    assert (out / "frames" / "frame_00000.csv").exists()
    assert (out / "index.json").exists()
    assert (out / "series.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    index = json.loads((out / "index.json").read_text())
    assert index["singularData"] is not None


def test_simulate_ellipse_area_law(tmp_path):
    cfg = validate_config({
        "scenario": "simulate", "curve1": "ellipse(1.2, 0.8)", "m": "128",
        "out": str(tmp_path / "ell")})
    summary = run(cfg)
    assert abs(summary["singularity"]["time"] - summary["predictedTime"]) < 1e-3


def test_spectrum_scenario_matches_circle_modes(tmp_path):
    cfg = validate_config(make_config(tmp_path))
    summary = run(cfg)
    values = summary["eigenvalues"]
    expected = [1.0, 0.5, 0.5, -1.0, -1.0, -3.5, -3.5,
                -7.0, -7.0, -11.5, -11.5, -17.0, -17.0]
    assert np.allclose(values, expected, atol=1e-8)
    saved = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert saved["Lambda"] == pytest.approx(1.0, abs=1e-8)


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
    assert (out / "frames" / "frame_00000.csv").exists()


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
    assert (out / "frames" / "frame_00000.csv").exists()
    assert (out / "target" / "frames" / "frame_00000.csv").exists()
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


def test_separation_dh_rows_use_the_monitor_frame_pairs(tmp_path, monkeypatch):
    """Each dH row compares the two frames the monitor paired, also when the
    paired target times sit more than 1e-9 below the base times."""
    flows, calls = [], []
    regauged, hausdorff = labcli._regauged, labcli._hausdorff_dense

    def regauged_early_target(traj):
        traj = regauged(traj)
        if flows:
            # within the monitor's pairing tolerance 1e-9 (1 + tau)
            assert len(traj.times) == len(flows[0].times)
            traj.times = [t - 0.9e-9 * (1.0 + t) for t in flows[0].times]
        flows.append(traj)
        return traj

    def recorded(a, b):
        calls.append((a, b))
        return hausdorff(a, b)

    monkeypatch.setattr(labcli, "_regauged", regauged_early_target)
    monkeypatch.setattr(labcli, "_hausdorff_dense", recorded)
    run(validate_config({
        "scenario": "separation", "curve1": "ellipse(1.1, 0.9090909090909091)",
        "curve2": "ellipse(1.05, 0.9523809523809523)", "m": "64",
        "out": str(tmp_path / "sep"), "tau_end": "3", "frame_dtau": "0.05"}))
    base, target = flows
    pairs = frequency._common_frames(base, target)[1:-1]
    assert len(pairs) > 20 and len(calls) == len(pairs)
    for (a, b), (i, j) in zip(calls, pairs):
        assert a is base.curves[i] and b is target.curves[j]


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
# dense distance helper

def test_hausdorff_dense_resolves_small_offsets():
    from shrinkerlab.curvegeo import circle, hausdorff_distance
    a = circle(SQRT2, m=96)
    b = circle(SQRT2 + 1e-5, m=96)
    d = hausdorff_distance(a, b)
    assert abs(d - 1e-5) < 1e-8


def test_hausdorff_dense_fallback_offcenter():
    from shrinkerlab.curvegeo import circle, hausdorff_distance
    # not star-shaped about the origin: falls back to the node polylines
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
