"""Scenario runner: reproducible experiments driven by flat config files.

Five scenarios tie the library together end to end:

  simulate        unrescaled flow of one curve, singularity estimate
  spectrum        assemble the drift operator on one curve, eigensolve
  gauge-residual  linearization residual sweep over graph amplitudes
  separation      two flows, common-singularity rescaling, frequency monitor
  rate            one rescaled flow, decay rate against the round limit

Configs are flat ``key = value`` text files with ``#`` comments.  Every run
writes ``summary.json`` and a ``manifest.json`` listing each output file with
a content hash, so runs are comparable byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import fourier, ioutil
from .curvegeo import (HAUSDORFF_SAG, TWO_PI, DiscreteCurve, area_centroid,
                       circle, ellipse, fourier_curve, gaussian_weights,
                       geometry, random_fourier, shrinker_quantity)
# bound under the name perfbench/tracer.py times as "curvegeo.hausdorff"
from .curvegeo import hausdorff_distance as _hausdorff_dense
from .errors import ConfigInvalid, NotShrinking, ShrinkerLabError, WindowTooShort
from .flowcore import (CFL_MAX, GAUGES, FlowTrajectory, StepControl,
                       estimate_singularity, rescale_to_rmcf, run_flows,
                       run_mcf, run_rmcf)
from .frequency import monitor, superexponential_flag
from .gauge import normal_graph, reconstruct, residual
from .spectral import assemble, eigenpairs

# verdicts that exit 0; anything else exits 2
_CLEAN_VERDICTS = ("success", "consistent", "exact-shrinker", "coincident")

_SLOPE_MATCH_TOL = 0.3
_DH_FLOOR = 1e-8

# rate fits ignore distances below a safe multiple of the smallest one the
# dense Hausdorff measurement resolves
_DH_FIT_FLOOR = 12.0 * HAUSDORFF_SAG


# ---------------------------------------------------------------------------
# config parsing and validation

def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a dict of strings.

    ``#`` starts a comment (full-line or trailing); blank lines are skipped.
    Duplicate keys and lines without ``=`` raise ConfigInvalid.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigInvalid("line %d is not 'key = value': %r" % (lineno, line.strip()))
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigInvalid("line %d has an empty key or value" % lineno)
        if key in raw:
            raise ConfigInvalid("duplicate key on line %d" % lineno, field=key)
        raw[key] = value
    return raw


def parse_config(path) -> dict:
    """Read a config file; see parse_config_text for the grammar."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid("cannot read config file: %s" % exc)
    return parse_config_text(text)


_CURVE_RE = re.compile(r"([a-z_]+)\s*\(([^()]*)\)")


def _parse_curve(text: str, key: str):
    """Validate one curve spec string; returns (builder name, float args)."""
    match = _CURVE_RE.fullmatch(text.strip())
    if match is None:
        raise ConfigInvalid("curve spec must look like name(a, b, ...): %r" % text,
                            field=key)
    name = match.group(1)
    body = match.group(2).strip()
    parts = [p.strip() for p in body.split(",")] if body else []
    try:
        args = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigInvalid("curve arguments must be numbers: %r" % text, field=key)
    if name == "circle":
        if len(args) not in (1, 3) or args[0] <= 0:
            raise ConfigInvalid("circle takes (r) or (r, cx, cy) with r > 0", field=key)
    elif name == "ellipse":
        if len(args) not in (2, 4) or args[0] <= 0 or args[1] <= 0:
            raise ConfigInvalid("ellipse takes (a, b) or (a, b, cx, cy) with a, b > 0",
                                field=key)
    elif name == "fourier":
        if len(args) < 1 or (len(args) - 1) % 2 != 0 or args[0] <= 0:
            raise ConfigInvalid("fourier takes (r0, c1, s1, c2, s2, ...) with r0 > 0",
                                field=key)
    elif name == "random_fourier":
        if len(args) != 2 or args[0] != int(args[0]) or args[0] < 2 or args[1] <= 0:
            raise ConfigInvalid("random_fourier takes (kmax, amplitude) with "
                                "integer kmax >= 2 and amplitude > 0", field=key)
    else:
        raise ConfigInvalid("unknown curve builder %r" % name, field=key)
    return name, args


def build_curve(spec, m: int, seed: int | None = None) -> DiscreteCurve:
    """Instantiate a parsed curve spec at resolution m."""
    name, args = spec
    if name == "circle":
        center = (args[1], args[2]) if len(args) == 3 else (0.0, 0.0)
        return circle(args[0], center=center, m=m)
    if name == "ellipse":
        center = (args[2], args[3]) if len(args) == 4 else (0.0, 0.0)
        return ellipse(args[0], args[1], center=center, m=m)
    if name == "fourier":
        tail = args[1:]
        return fourier_curve(args[0], tail[0::2], tail[1::2], m=m)
    return random_fourier(int(args[0]), args[1], seed=int(seed or 0), m=m)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated settings of one scenario run.

    curve_specs holds the parsed (name, args) pairs; raw keeps the original
    key/value strings for hashing so reruns can be compared exactly.
    """

    scenario: str
    curve_specs: tuple
    m: int
    out: str
    t_end: float | None = None
    tau_end: float | None = None
    frame_dtau: float = 0.05
    cfl: float = 0.8
    fit_window: float = 0.4
    seed: int | None = None
    gauge: str = "area-centroid"
    count: int | None = None
    amplitudes: tuple = ()
    mode_k: int = 2
    delta_tau: float = 0.005
    stop_curvature: float | None = None
    raw: tuple = ()


def _as_float(raw: dict, key: str, default=None, positive=True):
    if key not in raw:
        return default
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigInvalid("must be a number, got %r" % raw[key], field=key)
    if positive and not value > 0:
        raise ConfigInvalid("must be positive, got %r" % raw[key], field=key)
    if not math.isfinite(value):
        raise ConfigInvalid("must be finite", field=key)
    return value


def _as_int(raw: dict, key: str, default=None):
    if key not in raw:
        return default
    try:
        value = int(raw[key])
    except ValueError:
        raise ConfigInvalid("must be an integer, got %r" % raw[key], field=key)
    return value


def validate_config(raw: dict) -> ScenarioConfig:
    """Check a raw key/value dict against the chosen scenario's schema.

    Raises ConfigInvalid with the offending field name on unknown keys,
    missing required keys, or out-of-range values.
    """
    scenario = raw.get("scenario")
    if scenario is None:
        raise ConfigInvalid("missing; choose one of %s" % ", ".join(SCENARIOS),
                            field="scenario")
    if scenario not in SCENARIOS:
        raise ConfigInvalid("unknown scenario %r; choose one of %s"
                            % (scenario, ", ".join(SCENARIOS)), field="scenario")
    required, optional, _ = SCENARIOS[scenario]
    allowed = {"scenario"} | set(required) | set(optional)
    for key in raw:
        if key not in allowed:
            raise ConfigInvalid("not a recognized key for scenario %s" % scenario,
                                field=key)
    for key in required:
        if key not in raw:
            raise ConfigInvalid("required for scenario %s" % scenario, field=key)

    m = _as_int(raw, "m")
    if m % 2 != 0 or m < 64:
        raise ConfigInvalid("must be even and at least 64, got %d" % m, field="m")
    seed = _as_int(raw, "seed")
    if seed is not None and seed < 0:
        raise ConfigInvalid("must be nonnegative, got %d" % seed, field="seed")
    specs = [_parse_curve(raw["curve1"], "curve1")]
    if "curve2" in raw:
        specs.append(_parse_curve(raw["curve2"], "curve2"))
    if seed is None and any(name == "random_fourier" for name, _ in specs):
        raise ConfigInvalid("random_fourier curves need an explicit seed",
                            field="seed")

    cfl = _as_float(raw, "cfl", default=0.8)
    if cfl > CFL_MAX:
        raise ConfigInvalid("must be in (0, %g], got %g" % (CFL_MAX, cfl),
                            field="cfl")
    fit_window = _as_float(raw, "fit_window", default=0.4)
    if not fit_window < 1.0:
        raise ConfigInvalid("must be a fraction in (0, 1), got %g" % fit_window,
                            field="fit_window")
    gauge = raw.get("gauge", "area-centroid")
    if gauge not in GAUGES:
        raise ConfigInvalid("must be one of %s" % ", ".join(GAUGES),
                            field="gauge")
    count = _as_int(raw, "count")
    if count is not None and not 1 <= count <= m:
        raise ConfigInvalid("must be in [1, m = %d], got %d" % (m, count),
                            field="count")
    mode_k = _as_int(raw, "mode_k", default=2)
    if mode_k < 0:
        raise ConfigInvalid("must be nonnegative, got %d" % mode_k, field="mode_k")

    amplitudes: tuple = ()
    if "amplitudes" in raw:
        try:
            amplitudes = tuple(float(p) for p in raw["amplitudes"].split(","))
        except ValueError:
            raise ConfigInvalid("must be comma-separated numbers, got %r"
                                % raw["amplitudes"], field="amplitudes")
        if not amplitudes or any(not a > 0 for a in amplitudes):
            raise ConfigInvalid("needs at least one positive amplitude",
                                field="amplitudes")

    return ScenarioConfig(
        scenario=scenario,
        curve_specs=tuple(specs),
        m=m,
        out=raw["out"],
        t_end=_as_float(raw, "t_end"),
        tau_end=_as_float(raw, "tau_end"),
        frame_dtau=_as_float(raw, "frame_dtau", default=0.05),
        cfl=cfl,
        fit_window=fit_window,
        seed=seed,
        gauge=gauge,
        count=count,
        amplitudes=amplitudes,
        mode_k=mode_k,
        delta_tau=_as_float(raw, "delta_tau", default=0.005),
        stop_curvature=_as_float(raw, "stop_curvature"),
        raw=tuple(sorted(raw.items())),
    )


def load_config(path) -> ScenarioConfig:
    """Read and validate a config file in one step."""
    return validate_config(parse_config(path))


# ---------------------------------------------------------------------------
# artifact plumbing

def config_hash(config: ScenarioConfig) -> str:
    """sha256 of the canonical (sorted) key = value lines."""
    canon = "\n".join("%s = %s" % (k, v) for k, v in config.raw)
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(config: ScenarioConfig) -> str:
    """List every file under the output dir with its content hash."""
    outdir = config.out
    paths = []
    for root, dirs, names in os.walk(outdir):
        dirs.sort()
        for name in names:
            rel = os.path.relpath(os.path.join(root, name), outdir)
            if rel != "manifest.json":
                paths.append(rel)
    paths.sort()
    from . import __version__
    manifest = {
        "scenario": config.scenario,
        "configHash": config_hash(config),
        "versions": {"shrinkerlab": __version__, "numpy": np.__version__},
        "files": {rel: ioutil.sha256_file(os.path.join(outdir, rel))
                  for rel in paths},
    }
    path = os.path.join(outdir, "manifest.json")
    ioutil.dump_json(manifest, path)
    return path


def _build_curves(config: ScenarioConfig, convex: bool = False) -> list:
    curves = []
    for spec, key in zip(config.curve_specs, ("curve1", "curve2")):
        curve = build_curve(spec, config.m, config.seed)
        if convex and float(geometry(curve).curvature.min()) <= 0.0:
            raise ConfigInvalid("must be convex for scenario %s" % config.scenario,
                                field=key)
        curves.append(curve)
    return curves


def _normalize_unit_area(curve: DiscreteCurve) -> DiscreteCurve:
    """Translate the centroid to the origin and scale enclosed area to 2*pi."""
    area, cx, cy = area_centroid(curve.points)
    pts = curve.points - np.array([cx, cy])
    pts = pts * math.sqrt(TWO_PI / area)
    return DiscreteCurve(pts, validate=False)


def _regauged(traj: FlowTrajectory) -> FlowTrajectory:
    """Area-centroid normalize every frame of a rescaled trajectory.

    Rescaling about an estimated spacetime point leaves a dilation and
    translation error that grows like e^tau; renormalizing each frame
    re-chooses the singular point exactly and removes it.
    """
    curves = [_normalize_unit_area(c) for c in traj.curves]
    return FlowTrajectory(picture=traj.picture, m=traj.m,
                          times=list(traj.times), curves=curves,
                          singular_data=traj.singular_data)


def _fit_tail_slope(taus: np.ndarray, values: np.ndarray, fraction: float):
    """Least-squares slope of log(values) over the trailing fraction.

    Returns (slope, taus_window, log_window); None slope when fewer than
    three usable points remain.
    """
    if len(taus) < 3:
        return None, taus, np.array([])
    start = min(int(math.floor(len(taus) * (1.0 - fraction))), len(taus) - 3)
    tw = taus[start:]
    lw = np.log(values[start:])
    slope = float(np.polyfit(tw, lw, 1)[0])
    return slope, tw, lw


# ---------------------------------------------------------------------------
# scenarios

def _run_simulate(config: ScenarioConfig) -> dict:
    curve = _build_curves(config)[0]
    control = StepControl(cfl=config.cfl)
    if config.stop_curvature is not None:
        control.stop_curvature = config.stop_curvature
    predicted = curve.area() / TWO_PI
    traj = run_mcf(curve, t_end=config.t_end, frame_dtau=config.frame_dtau,
                   control=control)
    estimate = None
    try:
        estimate = estimate_singularity(traj)
        traj.singular_data = estimate.to_dict()
    except (NotShrinking, WindowTooShort):
        pass
    traj.save(config.out)
    summary = {
        "scenario": config.scenario,
        "m": config.m,
        "frames": len(traj.curves),
        "finalTime": float(traj.times[-1]),
        "predictedTime": predicted,
        "singularity": traj.singular_data,
        "verdict": "success",
    }
    if estimate is not None:
        summary["singularTime"] = estimate.time
    return summary


def _run_spectrum(config: ScenarioConfig) -> dict:
    curve = _build_curves(config)[0]
    spectrum = eigenpairs(assemble(curve), count=config.count)
    spectrum.save(os.path.join(config.out, "spectrum.json"))
    return {
        "scenario": config.scenario,
        "m": config.m,
        "count": len(spectrum.eigenvalues),
        "Lambda": spectrum.top_eigenvalue,
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "verdict": "success",
    }


_RESIDUAL_COLUMNS = ("epsilon", "tau", "maxResidual", "fittedC",
                     "normC0", "normC01", "normC012", "quadRatio")


def _run_gauge_residual(config: ScenarioConfig) -> dict:
    base = _build_curves(config)[0]
    theta = fourier.grid(config.m)
    delta = config.delta_tau
    control = StepControl(cfl=config.cfl)
    rows = []
    reports = []
    starts = [reconstruct(base, eps * np.cos(config.mode_k * theta))
              for eps in config.amplitudes]
    trajs = run_flows(starts, "rmcf", 2.0 * delta, frame_dtau=delta,
                      control=control)
    for eps, traj in zip(config.amplitudes, trajs):
        if len(traj.curves) < 3:
            raise WindowTooShort("flow stopped before three frames at "
                                 "amplitude %g" % eps)
        u = [normal_graph(base, traj.curves[j]).values for j in range(3)]
        report = residual(base, u[0], u[1], u[2], delta, tau=delta)
        reports.append(report)
        rows.append((eps, report.tau, report.max_residual, report.fitted_c,
                     report.norms_u[0], report.norms_u[1], report.norms_u[2],
                     report.quad_ratio))
    ioutil.write_csv(os.path.join(config.out, "trace.csv"),
                     _RESIDUAL_COLUMNS, rows)
    ratios = [r.quad_ratio for r in reports]
    return {
        "scenario": config.scenario,
        "m": config.m,
        "modeK": config.mode_k,
        "deltaTau": delta,
        "amplitudes": list(config.amplitudes),
        "reports": [r.to_dict() for r in reports],
        "maxQuadRatio": max(ratios),
        "ratioSpread": max(ratios) / min(ratios),
        "verdict": "success",
    }


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of the two-flow separation experiment.

    dh_slope is the fitted decay rate of log Hausdorff distance in rescaled
    time; lambda_fit and offset_fit describe the fitted envelope of log I;
    u_inf is the empirical late-time minimum of the frequency; lambda_bound
    the Rayleigh ceiling. slopes_match records whether the distance and
    sqrt-energy rates agree within the tolerance. The verdict is
    superexponential-flagged only when log I or log d_H drops below every
    linear envelope over the fit window, and coincident when the two flows
    agree to the floors on every frame (M1 = M2): then there is nothing to
    fit, and every fitted field is None.
    """

    dh_slope: float | None
    lambda_fit: float | None
    offset_fit: float | None
    u_inf: float | None
    lambda_bound: float
    slopes_match: bool | None
    underflow_fraction: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "dhSlope": self.dh_slope,
            "lambdaFit": self.lambda_fit,
            "offsetFit": self.offset_fit,
            "Uinf": self.u_inf,
            "Lambda": self.lambda_bound,
            "slopesMatch": self.slopes_match,
            "underflowFraction": self.underflow_fraction,
            "verdict": self.verdict,
        }


def _run_separation(config: ScenarioConfig) -> dict:
    summary = {"scenario": config.scenario, "m": config.m,
               "tauEnd": config.tau_end}
    summary.update(experiment_separation(config).to_dict())
    return summary


def experiment_separation(config: ScenarioConfig) -> SeparationReport:
    """Evolve two curves into the same singularity and watch them separate.

    Pipeline: unrescaled flow of both curves to a common area level, singular
    point estimation, rescaling about each flow's own estimate (equal initial
    areas give frame-aligned rescaled time grids), per-frame area-centroid
    normalization, then the two-flow frequency monitor plus a Hausdorff
    distance fit. Writes frames/, target/, trace.csv, separation.json.
    """
    curve1, curve2 = _build_curves(config, convex=True)
    tau_end = config.tau_end
    predicted_t = curve1.area() / TWO_PI
    # push half a frame past the last wanted area level; curvature stop off
    t_end = predicted_t * (1.0 - math.exp(-(tau_end + 0.5 * config.frame_dtau)))
    control = StepControl(cfl=config.cfl, stop_curvature=1e12,
                          require_convex=True)
    flows = []
    for traj in run_flows([curve1, curve2], "mcf", t_end,
                          frame_dtau=config.frame_dtau, control=control):
        estimate = estimate_singularity(traj)
        rescaled = rescale_to_rmcf(traj, estimate.time, estimate.center)
        flows.append(_regauged(rescaled))
    base_traj, target_traj = flows

    trace = monitor(base_traj, target_traj, fit_fraction=config.fit_window)
    taus = trace.columns["tau"]
    underflow = trace.columns["underflow"].astype(bool)
    dh = np.array([_hausdorff_dense(base_traj.curves[i], target_traj.curves[j])
                   for i, j in trace.pairs])

    usable = (dh > _DH_FIT_FLOOR) & ~underflow
    dh_slope, tw, lw = _fit_tail_slope(taus[usable], dh[usable],
                                       config.fit_window)
    collapse = any("collapse" in flag for flag in trace.flags)
    if dh_slope is not None and len(tw) >= 5:
        dh_flagged, _ = superexponential_flag(tw, lw)
        collapse = collapse or dh_flagged
    slopes_match = None
    if dh_slope is not None:
        # log sqrt(I) decays at lambda_fit / 2
        slopes_match = bool(abs(dh_slope + 0.5 * trace.lambda_fit)
                            <= _SLOPE_MATCH_TOL)
    fits = {"lambdaFit": trace.lambda_fit, "offsetFit": trace.offset_fit,
            "Uinf": trace.u_inf}
    verdict = "superexponential-flagged" if collapse else "consistent"
    # every frame underflows and no distance clears the floor: the monitor's
    # fits are placeholders, not measurements (dh_slope is None already)
    if underflow.all() and not np.any(dh > _DH_FLOOR):
        fits = dict.fromkeys(fits)
        verdict = "coincident"
    report = SeparationReport(
        dh_slope=dh_slope,
        lambda_fit=fits["lambdaFit"],
        offset_fit=fits["offsetFit"],
        u_inf=fits["Uinf"],
        lambda_bound=trace.lambda_bound,
        slopes_match=slopes_match,
        underflow_fraction=float(np.mean(underflow)),
        verdict=verdict,
    )

    base_traj.save(config.out)
    target_traj.save(os.path.join(config.out, "target"))
    trace.save_csv(os.path.join(config.out, "trace.csv"))
    payload = dict(report.to_dict())
    payload["flags"] = list(trace.flags)
    payload["frequencySummary"] = dict(trace.summary_dict(), **fits)
    ioutil.dump_json(payload, os.path.join(config.out, "separation.json"))
    return report


def experiment_rate(config: ScenarioConfig) -> dict:
    """Fit the decay rate of one rescaled flow toward the round limit.

    The initial curve is recentered and scaled to enclosed area 2*pi, then
    evolved by the rescaled flow under the configured gauge. Hausdorff
    distance to the round limit and the L2 size of the shrinker quantity are
    fitted over the trailing window and compared against the rate of the
    dominant initial mode. Writes frames/ and trace.csv.
    """
    curve = _build_curves(config, convex=True)[0]
    start = _normalize_unit_area(curve)
    control = StepControl(cfl=config.cfl)
    traj = run_rmcf(start, config.tau_end, frame_dtau=config.frame_dtau,
                    gauge=config.gauge, control=control)
    reference = circle(math.sqrt(2.0), m=config.m)

    taus = np.asarray(traj.times, dtype=float)
    dh = np.empty(len(taus))
    phi_l2 = np.empty(len(taus))
    for j, frame in enumerate(traj.curves):
        dh[j] = _hausdorff_dense(frame, reference)
        phi = shrinker_quantity(frame)
        phi_l2[j] = math.sqrt(float(np.sum(gaussian_weights(frame) * phi * phi)))

    coeffs = np.abs(np.fft.rfft(normal_graph(reference, traj.curves[0]).values))
    mode = int(np.argmax(coeffs[2:config.m // 2])) + 2 if len(coeffs) > 3 else 2
    predicted = 1.0 - 0.5 * mode * mode

    if not np.any(dh > _DH_FLOOR):
        dh_slope = phi_slope = None
        verdict = "exact-shrinker"
    else:
        fit_mask = dh > _DH_FIT_FLOOR
        dh_slope, _, _ = _fit_tail_slope(taus[fit_mask], dh[fit_mask],
                                         config.fit_window)
        good_phi = fit_mask & (phi_l2 > 0)
        phi_slope, _, _ = _fit_tail_slope(taus[good_phi], phi_l2[good_phi],
                                          config.fit_window)
        if dh_slope is None or phi_slope is None:
            raise WindowTooShort("too few frames above the distance floor "
                                 "to fit a rate")
        matches = (abs(dh_slope - predicted) <= _SLOPE_MATCH_TOL
                   and abs(phi_slope - predicted) <= _SLOPE_MATCH_TOL)
        verdict = "consistent" if matches else "slope-mismatch"

    traj.save(config.out)
    ioutil.write_csv(os.path.join(config.out, "trace.csv"),
                     ("tau", "dH", "phiL2"), zip(taus, dh, phi_l2))
    return {
        "scenario": config.scenario,
        "m": config.m,
        "tauEnd": config.tau_end,
        "gauge": config.gauge,
        "dominantMode": mode,
        "predictedSlope": predicted,
        "dhSlope": dh_slope,
        "phiSlope": phi_slope,
        "verdict": verdict,
    }


# scenario -> (required keys, optional keys, runner returning the summary)
SCENARIOS = {
    "simulate": (("curve1", "m", "out"),
                 ("t_end", "frame_dtau", "cfl", "stop_curvature", "seed"),
                 _run_simulate),
    "spectrum": (("curve1", "m", "out"), ("count", "seed"), _run_spectrum),
    "gauge-residual": (("curve1", "m", "out", "amplitudes"),
                       ("mode_k", "delta_tau", "cfl", "seed"),
                       _run_gauge_residual),
    "separation": (("curve1", "curve2", "m", "out", "tau_end"),
                   ("frame_dtau", "cfl", "fit_window", "seed"),
                   _run_separation),
    "rate": (("curve1", "m", "out", "tau_end"),
             ("frame_dtau", "cfl", "fit_window", "gauge", "seed"),
             experiment_rate),
}


def run(config: ScenarioConfig) -> dict:
    """Execute one validated scenario; returns the summary written to disk.

    Deterministic given the config: reruns produce byte-identical CSV and
    JSON outputs. The manifest is written last and covers every file.
    """
    os.makedirs(config.out, exist_ok=True)
    summary = SCENARIOS[config.scenario][2](config)
    ioutil.dump_json(summary, os.path.join(config.out, "summary.json"))
    _write_manifest(config)
    return summary


def main(argv=None) -> int:
    """Command line entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="shrinkerlab",
        description="Run a curve-shortening laboratory scenario from a config file.")
    parser.add_argument("scenario", choices=tuple(SCENARIOS))
    parser.add_argument("--config", required=True, help="path to key = value file")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--m", help="override the resolution")
    parser.add_argument("--tau-end", dest="tau_end",
                        help="override the rescaled end time")
    args = parser.parse_args(argv)
    try:
        raw = parse_config(args.config)
        if "scenario" in raw and raw["scenario"] != args.scenario:
            raise ConfigInvalid("config names scenario %r but %r was requested"
                                % (raw["scenario"], args.scenario),
                                field="scenario")
        raw["scenario"] = args.scenario
        for key, value in (("out", args.out), ("m", args.m),
                           ("tau_end", args.tau_end)):
            if value is not None:
                raw[key] = value
        config = validate_config(raw)
        summary = run(config)
    except ShrinkerLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    verdict = summary.get("verdict", "success")
    print("scenario: %s" % config.scenario)
    print("out: %s" % config.out)
    print("verdict: %s" % verdict)
    return 0 if verdict in _CLEAN_VERDICTS else 2


if __name__ == "__main__":
    sys.exit(main())
