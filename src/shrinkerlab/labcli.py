"""Scenario runner: reproducible experiments driven by flat config files.

Five scenarios tie the library together end to end:

  simulate        unrescaled flow of one curve, singularity estimate
  spectrum        assemble the drift operator on one curve, eigensolve
  gauge-residual  linearization residual sweep over graph amplitudes
  separation      two equal-area rescaled flows, frequency monitor
  rate            one rescaled flow, decay rate against the round limit

Configs are flat ``key = value`` text files with ``#`` comments.  Every run
writes ``summary.json`` and a ``manifest.json`` listing each output file with
a content hash, so runs are comparable byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import fourier, ioutil
from .curvegeo import (TWO_PI, DiscreteCurve, area_centroid, circle,
                       distance_to_circle, ellipse, fourier_curve, geometry,
                       hausdorff_distance, random_fourier, support_function)
from .errors import (ConfigInvalid, ConvexityLost, EnergyUnderflow, InvalidCurve,
                     NotAGraph, NotShrinking, ShrinkerLabError, WindowTooShort)
from .flowcore import (CFL_MAX, GAUGES, StepControl, estimate_singularity,
                       run_flows, run_mcf, run_rmcf, step_curvature)
from .frequency import monitor, shrinker_energies, superexponential_flag
from .gauge import graph_hausdorff, normal_graphs, reconstruct, residuals
from .spectral import assemble, eigenpairs

# no scenario calls this alias: only the perfbench tracer resolves it, and
# times it as "curvegeo.hausdorff", until ROADMAP item 1 retargets the tracer
_hausdorff_dense = hausdorff_distance

# verdicts that exit 0; anything else exits 2
_CLEAN_VERDICTS = ("success", "consistent", "exact-shrinker", "coincident")

_SLOPE_MATCH_TOL = 0.3
_DH_FLOOR = 1e-8

# the gate of a quadratic gauge-residual sweep: max quadRatio, max / min
_QUAD_RATIO_MAX = 1.0
_RATIO_SPREAD_MAX = 3.0

# separation curves must enclose equal areas to this relative tolerance
_AREA_MATCH_TOL = 1e-9


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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid("cannot read config file: %s" % exc)
    return parse_config_text(text)


_CURVE_RE = re.compile(r"([a-z_]+)\s*\(([^()]*)\)")


def _parse_curve(text: str, key: str, m: int):
    """Validate one curve spec string at m nodes; returns (name, float args)."""
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
    if not all(map(math.isfinite, args)):
        raise ConfigInvalid("curve arguments must be finite: %r" % text, field=key)
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
        # modes above m/2 would alias onto lower ones on the m-point grid
        if len(args) != 2 or args[0] != int(args[0]) or not 2 <= args[0] <= m / 2 \
                or args[1] <= 0:
            raise ConfigInvalid("random_fourier takes (kmax, amplitude) with integer "
                                "2 <= kmax <= m/2 and amplitude > 0", field=key)
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
    delta_tau: float | None = None
    stop_curvature: float | None = None
    raw: tuple = ()


# optional float keys; a key left out takes the ScenarioConfig default
_FLOAT_KEYS = ("t_end", "tau_end", "frame_dtau", "cfl", "fit_window",
               "delta_tau", "stop_curvature")


def _as_float(raw: dict, key: str):
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigInvalid("must be a number, got %r" % raw[key], field=key)
    if not value > 0:
        raise ConfigInvalid("must be positive, got %r" % raw[key], field=key)
    if not math.isfinite(value):
        raise ConfigInvalid("must be finite", field=key)
    return value


def _as_int(raw: dict, key: str):
    if key not in raw:
        return None
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
    specs = [_parse_curve(raw[key], key, m)
             for key in ("curve1", "curve2") if key in raw]
    if seed is None and any(name == "random_fourier" for name, _ in specs):
        raise ConfigInvalid("random_fourier curves need an explicit seed",
                            field="seed")

    options = {key: _as_float(raw, key) for key in _FLOAT_KEYS if key in raw}
    if options.get("cfl", 0.0) > CFL_MAX:
        raise ConfigInvalid("must be in (0, %g], got %g"
                            % (CFL_MAX, options["cfl"]), field="cfl")
    if not options.get("fit_window", 0.0) < 1.0:
        raise ConfigInvalid("must be a fraction in (0, 1), got %g"
                            % options["fit_window"], field="fit_window")
    if "gauge" in raw:
        if raw["gauge"] not in GAUGES:
            raise ConfigInvalid("must be one of %s" % ", ".join(GAUGES),
                                field="gauge")
        options["gauge"] = raw["gauge"]
    count = _as_int(raw, "count")
    if count is not None and not 1 <= count <= m:
        raise ConfigInvalid("must be in [1, m = %d], got %d" % (m, count),
                            field="count")
    if "mode_k" in raw:
        options["mode_k"] = _as_int(raw, "mode_k")
        # mode m/2 is the grid's sawtooth, and modes above it alias onto
        # lower ones on the m-point grid
        if not 0 <= options["mode_k"] < m / 2:
            raise ConfigInvalid("must be in [0, m/2 = %d), got %d"
                                % (m // 2, options["mode_k"]), field="mode_k")

    amplitudes: tuple = ()
    if "amplitudes" in raw:
        try:
            amplitudes = tuple(float(p) for p in raw["amplitudes"].split(","))
        except ValueError:
            raise ConfigInvalid("must be comma-separated numbers, got %r"
                                % raw["amplitudes"], field="amplitudes")
        if any(not a > 0 for a in amplitudes):
            raise ConfigInvalid("every amplitude must be positive, got %r"
                                % raw["amplitudes"], field="amplitudes")
        if not all(map(math.isfinite, amplitudes)):
            raise ConfigInvalid("must be finite", field="amplitudes")

    return ScenarioConfig(
        scenario=scenario,
        curve_specs=tuple(specs),
        m=m,
        out=raw["out"],
        seed=seed,
        count=count,
        amplitudes=amplitudes,
        raw=tuple(sorted(raw.items())),
        **options,
    )


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


@contextlib.contextmanager
def _keyed_curve(key: str, what: str = ""):
    """Around the build and checks of a curve from config key `key`, numpy
    raising on overflow: an overflow or a builder's InvalidCurve is one
    ConfigInvalid naming `key`, led by `what`, not warnings and a later error."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ConfigInvalid(what + "too large: its geometry overflows double "
                            "precision", field=key) from None
    except InvalidCurve as exc:
        raise ConfigInvalid(what + str(exc), field=key) from None


def _build_curves(config: ScenarioConfig) -> list:
    """The config's curves at resolution m, each built under `_keyed_curve`
    with its geometry, area moments and, in simulate and gauge-residual
    (which step the curve as given), its squared curvature as the step
    forms it (`flowcore.step_curvature`), so an overflow stops the run here.
    Convexity is checked where the convex scenarios step (`_convex_starts`)."""
    curves = []
    for spec, key in zip(config.curve_specs, ("curve1", "curve2")):
        with _keyed_curve(key):
            curve = build_curve(spec, config.m, config.seed)
            geometry(curve)
            area_centroid(curve.points)
            if config.scenario in ("simulate", "gauge-residual"):
                step_curvature(curve)
        curves.append(curve)
    return curves


@contextlib.contextmanager
def _convex_starts(config: ScenarioConfig):
    """Around the run of a convex scenario from the config's curves,
    area-normalized, under `require_convex`: the one convexity gate of the
    scenarios. A start that the stepper finds not convex at frame 0 (its
    normalized, regauged rows have a curvature < 0) is a ConfigInvalid
    naming its key; any other ConvexityLost is the flow's own."""
    try:
        yield
    except ConvexityLost as exc:
        if exc.start is None:
            raise
        raise ConfigInvalid("must be convex for scenario %s" % config.scenario,
                            field=("curve1", "curve2")[exc.start]) from None


def _normalize_unit_area(curve: DiscreteCurve) -> DiscreteCurve:
    """Translate the centroid to the origin and scale enclosed area to 2*pi."""
    area, cx, cy = area_centroid(curve.points)
    pts = curve.points - np.array([cx, cy])
    pts = pts * math.sqrt(TWO_PI / area)
    return DiscreteCurve(pts, validate=False)


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
    try:
        traj.singular_data = estimate_singularity(traj)
    except NotShrinking:
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
    if traj.singular_data is not None:
        summary["singularTime"] = traj.singular_data["time"]
    return summary


def _run_spectrum(config: ScenarioConfig) -> dict:
    curve = _build_curves(config)[0]
    spectrum = eigenpairs(assemble(curve), count=config.count)
    spectrum.save(os.path.join(config.out, "spectrum.json"))
    return {
        "scenario": config.scenario,
        "m": config.m,
        "count": len(spectrum.eigenvalues),
        "Lambda": float(spectrum.eigenvalues[0]),
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "verdict": "success",
    }


_RESIDUAL_COLUMNS = ("epsilon", "tau", "maxResidual", "fittedC",
                     "normC0", "normC01", "normC012", "quadRatio")


def _run_gauge_residual(config: ScenarioConfig) -> dict:
    """Residuals of the graph flow from base + eps cos(mode_k theta) nu
    against its linearization, per amplitude eps; success when they are
    quadratic in eps (the _QUAD_RATIO_MAX and _RATIO_SPREAD_MAX gate),
    else not-quadratic. The step delta_tau defaults to
    0.005 / max(1, |1 - k^2/2|), so that it follows the decay rate
    1 - k^2/2 of mode k on the round shrinker (0.005 for modes 0 to 2)."""
    base = _build_curves(config)[0]
    # the operator `residuals` reads, cached on the base: a base whose
    # Gaussian density underflows stops here, before any graph is solved
    assemble(base)
    theta = fourier.grid(config.m)
    delta = config.delta_tau
    if delta is None:
        delta = 0.005 / max(1.0, abs(1.0 - 0.5 * config.mode_k ** 2))
    amps = config.amplitudes
    starts = []
    for eps in amps:
        # an overflow of the step's curvature names its amplitude here
        with _keyed_curve("amplitudes", "amplitude %g: " % eps):
            starts.append(reconstruct(base, eps * np.cos(config.mode_k * theta)))
            step_curvature(starts[-1])
    trajs = run_flows(starts, "rmcf", 2.0 * delta, frame_dtau=delta,
                      control=StepControl(cfl=config.cfl))
    for eps, traj in zip(amps, trajs):
        if len(traj.curves) < 3:
            raise WindowTooShort("flow stopped before three frames at "
                                 "amplitude %g" % eps)
    # frames 0, 1, 2 of every amplitude over the base, in one pass
    try:
        u = normal_graphs([base] * (3 * len(amps)),
                          [c for traj in trajs for c in traj.curves[:3]])
    except NotAGraph as exc:
        raise NotAGraph("amplitude %g: %s" % (amps[exc.frame // 3], exc))
    cols = residuals([base] * len(amps), u[0::3], u[1::3], u[2::3], delta)
    stats = [cols[name] for name in _RESIDUAL_COLUMNS[2:]]
    ioutil.write_csv(os.path.join(config.out, "trace.csv"), _RESIDUAL_COLUMNS,
                     zip(amps, [delta] * len(amps), *stats))
    ratios = cols["quadRatio"]
    spread = ratios.max() / ratios.min()
    quadratic = ratios.max() < _QUAD_RATIO_MAX and spread < _RATIO_SPREAD_MAX
    return {
        "scenario": config.scenario,
        "m": config.m,
        "modeK": config.mode_k,
        "deltaTau": delta,
        "amplitudes": list(amps),
        "reports": [{"tau": delta, "maxResidual": r, "fittedC": c,
                     "normsU": [a, b, n], "quadRatio": q}
                    for r, c, a, b, n, q in zip(*stats)],
        "maxQuadRatio": ratios.max(),
        "ratioSpread": spread,
        "verdict": "success" if quadratic else "not-quadratic",
    }


def experiment_separation(config: ScenarioConfig) -> dict:
    """Evolve two curves into the same singularity and watch them separate.

    The curves must enclose equal areas, so that both flows become singular
    at one time. Pipeline: each curve is recentered and scaled to enclosed
    area 2*pi, both are stepped in one batch by the rescaled flow under the
    area-centroid gauge (so their frames share the times 0, frame_dtau, ...,
    tau_end), then the two-flow frequency monitor pairs their frames by
    index, plus a Hausdorff distance fit. The monitor writes target frame j
    as a normal graph over base frame j by `gauge.normal_graphs`: Newton
    seeded at each base node's own parameter, with no crossing search,
    each frame accepted under a convexity certificate (at node resolution)
    that its crossing is the only one within half a reach and otherwise
    sent through `gauge.normal_graph`. Each dH row is read off the normal
    graph u the monitor built for that frame, all rows in one
    `gauge.graph_hausdorff` call: the frames are convex (`require_convex`),
    so while sup|u| stays below half of both reaches (1/max H), d_H =
    sup|u| in closed form, the node extremes refined on the mode sums of u;
    beyond that, the support-function distance `hausdorff_distance`. The
    fit takes every row above _DH_FLOOR whose graph energy does not
    underflow; when fewer than three do, dhSlope is None, and a run that is
    not coincident says so in its flags with the count of those rows.
    The verdict is superexponential-flagged when log I or log d_H drops below
    every linear envelope over the fit window, and coincident when the two
    flows agree to the floors on every frame (M1 = M2): then there is nothing
    to fit, and every fitted field is None. EnergyUnderflow when the monitor
    has no fit but the flows are not coincident.
    Writes frames.npy, index.json, series.csv, target/ (the same for curve2),
    trace.csv and separation.json; returns the summary.
    """
    curve1, curve2 = _build_curves(config)
    area1, area2 = curve1.area(), curve2.area()
    if abs(area1 - area2) > _AREA_MATCH_TOL * max(area1, area2):
        raise ConfigInvalid("encloses area %.17g but curve1 encloses %.17g; "
                            "the two flows need one singular time"
                            % (area2, area1), field="curve2")
    control = StepControl(cfl=config.cfl, require_convex=True)
    with _convex_starts(config):
        base_traj, target_traj = run_flows(
            [_normalize_unit_area(curve1), _normalize_unit_area(curve2)],
            "rmcf", config.tau_end, frame_dtau=config.frame_dtau,
            gauge="area-centroid", control=control)

    trace = monitor(base_traj, target_traj, fit_fraction=config.fit_window)
    taus = trace.columns["tau"]
    underflow = trace.columns["underflow"].astype(bool)
    dh = graph_hausdorff(base_traj.curves[1:-1], trace.fields,
                         target_traj.curves[1:-1])

    usable = (dh > _DH_FLOOR) & ~underflow
    dh_slope, tw, lw = _fit_tail_slope(taus[usable], dh[usable],
                                       config.fit_window)
    collapse = any("collapse" in flag for flag in trace.flags)
    if dh_slope is not None and len(tw) >= 5:
        dh_flagged, _ = superexponential_flag(tw, lw)
        collapse = collapse or dh_flagged
    # every frame underflows and no distance clears the floor: M1 = M2
    coincident = underflow.all() and not np.any(dh > _DH_FLOOR)
    fits = trace.summary
    if fits["lambdaFit"] is None and not coincident:
        raise EnergyUnderflow("the graph energy clears its floor on %d of %d "
                              "monitor rows, too few for a fit, while d_H "
                              "reaches %.3g"
                              % (np.count_nonzero(~underflow), len(underflow),
                                 dh.max()))
    slopes_match = None
    if dh_slope is not None:
        # log sqrt(I) decays at lambdaFit / 2
        slopes_match = bool(abs(dh_slope + 0.5 * fits["lambdaFit"])
                            <= _SLOPE_MATCH_TOL)
    flags = list(trace.flags)
    if coincident:
        verdict = "coincident"
    else:
        verdict = "superexponential-flagged" if collapse else "consistent"
        if dh_slope is None:
            flags.append("no dH slope: %d of %d monitor rows have d_H above "
                         "%g outside energy underflow, too few for a fit"
                         % (np.count_nonzero(usable), len(usable), _DH_FLOOR))
    report = {"dhSlope": dh_slope, "lambdaFit": fits["lambdaFit"],
              "offsetFit": fits["offsetFit"], "Uinf": fits["Uinf"],
              "Lambda": fits["Lambda"], "slopesMatch": slopes_match,
              "underflowFraction": float(np.mean(underflow)),
              "verdict": verdict}

    base_traj.save(config.out)
    target_traj.save(os.path.join(config.out, "target"))
    trace.save_csv(os.path.join(config.out, "trace.csv"))
    ioutil.dump_json(dict(report, flags=flags,
                          frequencySummary=fits),
                     os.path.join(config.out, "separation.json"))
    return dict({"scenario": config.scenario, "m": config.m,
                 "tauEnd": config.tau_end}, **report)


def experiment_rate(config: ScenarioConfig) -> dict:
    """Fit the decay rate of one rescaled flow toward the round limit.

    The initial curve is recentered and scaled to enclosed area 2*pi, then
    evolved by the rescaled flow under the configured gauge and
    `require_convex` (curve shortening keeps convexity, Gage & Hamilton
    1986). Each frame is compared with the round limit through its support
    function h at node resolution: the Hausdorff distance sup|h - sqrt(2)|
    of every frame by one `distance_to_circle` call and the L2 size of the
    shrinker quantity by `shrinker_energies`, both fitted over the trailing
    window, on the frames whose distance is above _DH_FLOOR, against the
    rate 1 - k^2/2 of the dominant initial mode k, the largest rfft
    amplitude over k >= 2 of h - sqrt(2) at the m grid normal angles of
    frame 0. On the exact shrinker (no distance above _DH_FLOOR) h - sqrt(2)
    is rounding noise: there is no mode, and every fitted field is None.
    Writes frames.npy, index.json, series.csv and trace.csv.
    """
    curve = _build_curves(config)[0]
    start = _normalize_unit_area(curve)
    control = StepControl(cfl=config.cfl, require_convex=True)
    with _convex_starts(config):
        traj = run_rmcf(start, config.tau_end, frame_dtau=config.frame_dtau,
                        gauge=config.gauge, control=control)
    radius = math.sqrt(2.0)

    taus = np.asarray(traj.times, dtype=float)
    dh = distance_to_circle(traj.curves, radius)
    phi_l2 = np.sqrt(shrinker_energies(traj))

    if not np.any(dh > _DH_FLOOR):
        mode = predicted = dh_slope = phi_slope = None
        verdict = "exact-shrinker"
    else:
        alpha = fourier.grid(config.m)
        h = support_function(traj.curves[0])(np.cos(alpha), np.sin(alpha))[0]
        mode = int(np.argmax(np.abs(np.fft.rfft(h - radius))[2:])) + 2
        predicted = 1.0 - 0.5 * mode * mode
        fit_mask = dh > _DH_FLOOR
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
                   experiment_separation),
    "rate": (("curve1", "m", "out", "tau_end"),
             ("frame_dtau", "cfl", "fit_window", "gauge", "seed"),
             experiment_rate),
}


def run(config: ScenarioConfig) -> dict:
    """Execute one validated scenario; returns the summary written to disk.

    Deterministic given the config: reruns produce byte-identical CSV and
    JSON outputs. The manifest is written last and covers every file.

    Raises ConfigInvalid (field out) if the output directory cannot be
    created, for example because `out` names an existing file. A scenario
    that fails with a ShrinkerLabError before writing anything leaves none
    of the directories this call created.
    """
    made = []  # the directories makedirs creates, innermost first
    path = os.path.abspath(config.out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid("cannot create output directory: %s" % exc,
                            field="out")
    try:
        summary = SCENARIOS[config.scenario][2](config)
    except ShrinkerLabError:
        for created in made:
            if os.listdir(created):
                break
            os.rmdir(created)
        raise
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
    # runpy runs this file a second time, beside the copy the package has
    # imported; the module entry is the package
    sys.exit("error: run scenarios with `python -m shrinkerlab`")
