"""Evolution drivers: curve shortening flow and its rescaled form.

Two pictures of the same evolution. The unrescaled flow moves each point with
normal speed equal to the curvature and shrinks embedded curves to a round
point in finite time T with enclosed area A(t) = A(0) - 2*pi*t. The rescaled
flow zooms in on the singular spacetime point (x0, T): with
N(tau) = (M(t) - x0) / sqrt(T - t) and tau = -log(T - t) the normal speed
becomes the stationarity defect phi = H + <x, nu>/2, whose zero set is the
round profile of radius sqrt(2). Under the rescaled flow the enclosed area
satisfies dA/dtau = A - 2*pi exactly, which pins the one unstable dilation
direction: gauging the initial area to exactly 2*pi removes it analytically.

Time stepping is the fourth-order exponential Runge-Kutta scheme ETDRK4
(Cox & Matthews, J. Comput. Phys. 176, 2002; Kassam & Trefethen, SIAM J. Sci.
Comput. 26, 2005) on the rfft rows of the node coordinates. The velocity is
x_thth / g^2 (plus x/2 for the rescaled flow), g = |x_theta|: its normal part
is the curvature (shrinker) speed, its tangential part spreads the nodes.
After Hou, Lowengrub & Shelley (J. Comput. Phys. 114, 1994) the stiff part
sigma * x_thth, sigma = max 1/g^2 per curve frozen over the step, advances
exactly; the rest, stiff too where g varies, is damped by the phi weights of
the scheme at every k. The step dt = cfl * C / max(max kappa^2, 1/2) is set
by accuracy, not by m.
`run_flows` steps curves of equal m in lockstep, their rfft rows one
(curves, 2, m/2 + 1) array, each curve with its own step, frame times and
guards, in eight FFT calls per step: per stage one irfft of [c, ik*c,
-k^2*c] (the values only at the first stage) and one rfft of N. Frames are
emitted at exact times: fixed tau multiples for the rescaled flow, fixed
area levels A(0) * exp(-j * dtau) for the unrescaled flow (by the area law
these are the same tau grid, without knowing T), each built from the step's
own rfft rows at one irfft more and written in place as row j of its
trajectory's stacked points and geometry. A saved trajectory keeps its
frames in one frames.npy. `run_flows` is the one stepping loop: `run_mcf`,
`run_rmcf` and the single step `mcf_step` (a run to t = dt) go through it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fourier, ioutil
from .curvegeo import (STACK_NODES, TWO_PI, DiscreteCurve, GeometryFields,
                       area_centroid_rows, frame_blocks, geometry, resample,
                       speed_curvature, unit_frame)
from .errors import (
    BlowupDetected,
    ConvexityLost,
    FrameMissing,
    InvalidCurve,
    NotShrinking,
    StepRejected,
    TimeOutOfRange,
)

#: Largest accepted cfl, the range every config is validated against. The
#: step is set by accuracy, not by a stability limit in m: a larger cfl
#: trades accuracy for speed.
CFL_MAX = 1.455

#: dt = cfl * _STEP_SCALE / max(max kappa^2, 1/2): at the reference cfl 1.4 a
#: step is 1/50 of the curvature time 1/kappa^2 (0.04 in tau on the round
#: shrinker); at the default cfl 0.8 the radial-ODE and area-law checks hold
#: to 1e-8.
_STEP_SCALE = 2e-2 / 1.4

GAUGES = ("none", "area", "area-centroid")

# Full-array guard cadence inside the run loop. A scalar NaN sentinel runs
# every step; divergence grows geometrically, so an 8-step window cannot
# carry a blowup past the next full check.
_GUARD_STRIDE = 8

# Frames whose node spacing ratio exceeds this are redistributed by arclength.
_RESAMPLE_RATIO = 1.05

# estimate_singularity fits over this trailing fraction of the frames (>= 5).
_SINGULAR_WINDOW = 0.25

#: `run_flows` refuses up front a curve that needs more steps than this to
#: its end time: at m = 64 a step takes some 30-50 us, so about a minute
STEP_BUDGET = 10 ** 6


# phi_3(z) = sum_j z^j/(j + 3)!, j = 0..15, is exact to rounding for |z| <= 1
_PHI3_TAYLOR = np.array([1.0 / math.factorial(j + 3) for j in range(16)])


@dataclass
class StepControl:
    """Knobs of the stepping loop.

    cfl, in (0, CFL_MAX], scales the accuracy-limited time step
    dt = cfl * C / max(max kappa^2, 1/2), the same at every m.
    `stop_curvature` ends unrescaled runs before the singular time.
    `require_convex` aborts when the curvature changes sign.
    """

    cfl: float = 0.8
    stop_curvature: float = 50.0
    require_convex: bool = False


def _metric(d1: np.ndarray, d2: np.ndarray):
    """g^2 = |x_theta|^2 and cross = x_theta ^ x_thth of (..., 2, m) rows (x, y)."""
    gx, gy = d1[..., 0, :], d1[..., 1, :]
    return gx * gx + gy * gy, gx * d2[..., 1, :] - gy * d2[..., 0, :]


def _curvature_sq(g2: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """kappa^2 at the nodes from the rows of `_metric`, as the step reads it."""
    return cross * cross / (g2 * g2 * g2)


def step_curvature(curve: DiscreteCurve) -> float:
    """max kappa^2 of `curve` as the step of a run forms it, cross^2/g^6
    from its theta-derivative rows, so numpy overflows here where that
    step would."""
    d1, d2 = fourier.deriv12(curve.points)
    return float(_curvature_sq(*_metric(d1.T, d2.T)).max())


def _phi(z: np.ndarray) -> list:
    """[e^z, phi_1, phi_2, phi_3] of real z <= 0 whose |z| grows along rows.

    phi_k = (phi_(k-1) - 1/(k-1)!)/z from phi_0 = e^z where z <= -1. Above,
    where that cancels, the leading columns take phi_3 from its Taylor series
    and phi_k = 1/k! + z*phi_(k+1) downward.
    """
    zc = np.minimum(z, -1.0)
    phi = [np.exp(z)]
    for k in (1, 2, 3):
        phi.append((phi[-1] - 1.0 / math.factorial(k - 1)) / zc)
    lead = int(np.count_nonzero(z.max(axis=0) > -1.0))
    zs = z[:, :lead]
    near = zs > -1.0
    series = np.vander(zs.ravel(), len(_PHI3_TAYLOR), increasing=True) @ _PHI3_TAYLOR
    series = series.reshape(zs.shape)
    for k in (3, 2, 1):
        np.copyto(phi[k][:, :lead], series, where=near)
        series = 1.0 / math.factorial(k - 1) + zs * series
    return phi


def _imex_step(u, g2, d2, dt, rescaled: bool) -> np.ndarray:
    """One ETDRK4 step of `u`, the (n, 2, m/2 + 1) rfft rows of n curves.

    g2 (n, m) and d2 (n, 2, m) are their metric and second derivatives, dt an
    (n, 1) column. sigma * x_thth decays exactly, by e^z, z = -sigma*dt*k^2;
    N = (1/g^2 - sigma) * x_thth (+ x/2 when rescaled) takes four stages,
    whose syntheses share one output; its x_theta rows hold the product that
    N transforms once g^2 is formed.
    """
    m, n = d2.shape[-1], g2.shape[0]
    sigma = 1.0 / g2.min(axis=1, keepdims=True)
    z = (sigma * dt) * fourier.deriv12_multipliers(m)[1]
    # one array of the z/2 rows, then the z rows; x and y rows share them
    e, p1, p2, p3 = (p.reshape(2, n, 1, -1)
                     for p in _phi(np.concatenate([0.5 * z, z])))
    dt = dt[:, :, None]
    q = (0.5 * dt) * p1[0]
    d = np.empty((2, n, 2, m))

    def slope(y, g2=None, d2=None):
        """N of the (n, 2, m/2 + 1) rows y; g2 and d2 from y unless given."""
        if d2 is None:
            fourier.synth_rows(y.reshape(-1, m // 2 + 1), m, with_values=False,
                               out=d.reshape(-1, m))
            d1, d2 = d
            gx, gy = d1[:, 0], d1[:, 1]
            g2 = gx * gx + gy * gy
        s = np.fft.rfft(np.multiply(d2, (1.0 / g2 - sigma)[:, None], out=d[0]),
                        axis=-1)
        if rescaled:
            s += 0.5 * y
        return s

    e_u = e[0] * u
    n_u = slope(u, g2, d2)
    a = e_u + q * n_u
    n_a = slope(a)
    n_b = slope(e_u + q * n_a)
    n_c = slope(e[0] * a + q * (2.0 * n_b - n_u))
    p1, p2, p3 = dt * p1[1], dt * p2[1], dt * p3[1]
    out = (e[1] * u + (p1 - 3.0 * p2 + 4.0 * p3) * n_u
           + 2.0 * (p2 - 2.0 * p3) * (n_a + n_b) + (4.0 * p3 - p2) * n_c)
    return out


def _guards(pts, g2, cross, control, where) -> None:
    """Raise the typed error of the first unsafe curve; where(k) places curve k."""
    g = np.sqrt(g2)
    curv = cross / (g2 * g)
    for k in range(g2.shape[0]):
        if not np.all(np.isfinite(pts[k])):
            raise BlowupDetected("non-finite positions %s" % where(k))
        if float(g[k].min()) < 1e-12:
            raise BlowupDetected("parametrization collapsed %s" % where(k))
        if float(np.abs(curv[k]).max()) > 1e6:
            raise BlowupDetected("curvature exceeded 1e6 %s" % where(k))
        if control.require_convex and float(curv[k].min()) < 0.0:
            raise ConvexityLost("curvature changed sign %s" % where(k))


def _timestep(kappa2_max: float, control: StepControl) -> float:
    return control.cfl * _STEP_SCALE / max(kappa2_max, 0.5)


def cfl_timestep(curve: DiscreteCurve, control: StepControl | None = None) -> float:
    """Time step of the stepper for this curve under `control`.

    cfl * C / max(max kappa^2, 1/2): set by the curvature time scale, so it
    does not depend on m.
    """
    kappa = geometry(curve).curvature
    return _timestep(float(np.max(kappa * kappa)), control or StepControl())


def mcf_step(curve: DiscreteCurve, dt: float,
             control: StepControl | None = None) -> DiscreteCurve:
    """One validated step of the unrescaled flow: a `run_flows` run to t = dt.

    dt must not exceed `cfl_timestep`; dt = 0 returns the input unchanged.
    The result is the run's last frame, and `stop_curvature` does not apply.
    As in every run, a frame, the input at frame 0 among them, is resampled
    by arclength only when its node spacing ratio exceeds 1.05; when the
    resampled input's own step bound is below dt, the loop splits the step
    in two.
    """
    if not isinstance(curve, DiscreteCurve):
        raise InvalidCurve("expected a DiscreteCurve")
    control = control or StepControl()
    if dt < 0.0:
        raise StepRejected("negative time step %g" % dt)
    if dt == 0.0:
        return curve
    bound = cfl_timestep(curve, control)
    if dt > bound:
        raise StepRejected("step %g exceeds the accuracy bound %g" % (dt, bound))
    traj = run_flows([curve], "mcf", dt, frame_dtau=math.inf,
                     control=replace(control, stop_curvature=math.inf))[0]
    return traj.curves[-1]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

_SERIES_COLUMNS = ("time", "area", "cx", "cy", "max_curvature", "gauge_shift")

_GEOMETRY_NAMES = tuple(f.name for f in fields(GeometryFields))

# row capacity an unrescaled run's stacks start with; they double when full
_MCF_ROWS = 64


@dataclass
class FlowTrajectory:
    """Ordered frames of one flow, with per-frame scalar series.

    picture is "mcf" (unrescaled, times are t) or "rmcf" (rescaled, times are
    tau). The series maps column name -> per-frame array; columns are listed
    in _SERIES_COLUMNS. `steps` counts the time steps of the run that made
    the trajectory; it is not saved.

    A trajectory that `run_flows` made keeps its frames as stacked rows:
    `points` (frames, m, 2) and `geom`, a GeometryFields whose tangent and
    normal are (frames, m, 2) and whose curvature, metric speed and
    arclength weights are (frames, m), all read-only. `curves[j]` is then a
    view of row j whose cached geometry is the views of row j. A
    trajectory assembled from curves (`load`, `rescale_to_rmcf`, or by
    hand) has no stacks: `points` and `geom` are None, and `stacked` stacks
    its curves' own.
    """

    picture: str
    m: int
    times: list = field(default_factory=list)
    curves: list = field(default_factory=list)
    singular_data: dict | None = None
    series: dict | None = None
    steps: int = 0
    points: np.ndarray | None = field(default=None, init=False, repr=False)
    geom: GeometryFields | None = field(default=None, init=False, repr=False)

    def __len__(self):
        return len(self.times)

    def stacked(self, block=slice(None)):
        """(points, geometry) of the frames in `block` as stacked rows, see
        the class docstring: views of the stacks, or stacked copies of the
        curves' points and `geometry` when there are none."""
        if self.points is not None:
            return self.points[block], GeometryFields(
                *(getattr(self.geom, name)[block] for name in _GEOMETRY_NAMES))
        part = self.curves[block]
        geoms = [geometry(c) for c in part]
        return np.stack([c.points for c in part]), GeometryFields(
            *(np.stack([getattr(g, name) for g in geoms]) for name in _GEOMETRY_NAMES))

    def save(self, outdir) -> list:
        """Write frames.npy, index.json and series.csv; returns written paths.
        frames.npy is np.save of the (frames, m, 2) node positions, streamed
        frame by frame after its header, so no stacked copy is made."""
        outdir = os.fspath(outdir)
        os.makedirs(outdir, exist_ok=True)
        paths = [os.path.join(outdir, name)
                 for name in ("frames.npy", "index.json", "series.csv")]
        with open(paths[0], "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False,
                "shape": (len(self.curves), self.m, 2)})
            for curve in self.curves:
                fh.write(curve.points.astype("<f8", copy=False).tobytes())
        ioutil.dump_json({"picture": self.picture,
                          "times": [float(t) for t in self.times],
                          "m": self.m, "singularData": self.singular_data},
                         paths[1])
        if self.series is None:
            return paths[:2]
        ioutil.write_csv(paths[2], _SERIES_COLUMNS,
                         zip(*(self.series[c] for c in _SERIES_COLUMNS)))
        return paths

    @classmethod
    def load(cls, outdir) -> "FlowTrajectory":
        """Read a trajectory written by :meth:`save`, its frames bit for bit.
        FrameMissing: index.json or frames.npy is missing or unreadable, or
        the frames' shape is not (len(times), m, 2)."""
        import json

        outdir = os.fspath(outdir)
        try:
            with open(os.path.join(outdir, "index.json")) as fh:
                index = json.load(fh)
            frames = np.load(os.path.join(outdir, "frames.npy"))
        except (OSError, ValueError, EOFError) as exc:
            raise FrameMissing("cannot read the trajectory under %s: %s"
                               % (outdir, exc)) from exc
        shape = (len(index["times"]), int(index["m"]), 2)
        if frames.shape != shape:
            raise FrameMissing("frames.npy holds shape %r, index.json needs %r"
                               % (frames.shape, shape))
        traj = cls(picture=index["picture"], m=shape[1],
                   times=[float(t) for t in index["times"]],
                   curves=[DiscreteCurve(frame) for frame in frames],
                   singular_data=index.get("singularData"))
        series_path = os.path.join(outdir, "series.csv")
        if os.path.exists(series_path):
            data = np.genfromtxt(series_path, delimiter=",", names=True)
            data = np.atleast_1d(data)
            traj.series = {name: np.asarray(data[name], dtype=float)
                           for name in data.dtype.names}
        return traj


class _FrameRows:
    """The stacked rows a run writes one trajectory's frames into, row
    `count` next: the frames' points and x_theta rows as (rows, m, 2), their
    metric speed and curvature as (rows, m), and their series as (rows, 6).
    `grow` doubles the rows of a run whose frame count is not known up
    front; `close` completes them into the trajectory."""

    __slots__ = ("count", "points", "tangent", "speed", "curvature", "record")

    def __init__(self, rows: int, m: int):
        self.count = 0
        self.points, self.tangent = (np.empty((rows, m, 2)) for _ in range(2))
        self.speed, self.curvature = (np.empty((rows, m)) for _ in range(2))
        self.record = np.empty((rows, len(_SERIES_COLUMNS)))

    def _resize(self, rows: int) -> None:
        # into new stacks of `rows` rows, the rows written copied over
        for name in ("points", "tangent", "speed", "curvature", "record"):
            stack = getattr(self, name)
            new = np.empty((rows,) + stack.shape[1:])
            new[:self.count] = stack[:self.count]
            setattr(self, name, new)

    def grow(self) -> None:
        if self.count == len(self.record):
            self._resize(2 * self.count)

    def close(self, traj: FlowTrajectory, gauge: str) -> None:
        """Fill traj from the rows written: one pass over all of them gives
        the area and centroid after the gauge, the unit tangent (the x_theta
        rows divided in place), the normal and the arclength weights; the
        stacks turn read-only and each curve is a view of its row."""
        n = self.count
        if n < len(self.record):
            self._resize(n)
        points, tangent, speed = self.points, self.tangent, self.speed
        if gauge != "none":  # the rows hold what the gauge made of them
            # in blocks of STACK_NODES nodes, which bound the products' memory
            for block in frame_blocks(n, speed.shape[1], STACK_NODES):
                x, d = points[block], tangent[block]
                self.record[block, 1:4] = np.column_stack(area_centroid_rows(
                    x[..., 0], x[..., 1], d[..., 0], d[..., 1]))
        normal, weights = unit_frame(tangent, speed)
        geom = GeometryFields(tangent=tangent, normal=normal,
                              curvature=self.curvature,
                              arclength_weights=weights, metric_speed=speed)
        for stack in (points, tangent, normal, self.curvature, weights, speed):
            stack.flags.writeable = False
        traj.points, traj.geom = points, geom
        traj.series = dict(zip(_SERIES_COLUMNS, self.record.T.copy()))
        traj.times = traj.series["time"].tolist()
        traj.curves = []
        for j in range(n):
            row, row_geom = traj.stacked(j)
            curve = DiscreteCurve._view(row)
            curve._cache["geom"] = row_geom
            traj.curves.append(curve)


def _emit_frame(frames: _FrameRows, t, coef, control, gauge, where):
    """Write the frame at time t of the curve with rfft rows `coef` (x, y)
    into row `frames.count`.

    The frame comes from one synth_rows of x, x_theta, x_thth (a resample
    synthesizes its new nodes'), gauged in place on those rows and on the
    coefficients. Only what the run reads next or what can fail happens
    here: the node checks of a DiscreteCurve (the simplicity scan only
    without `require_convex`), the resample test, the area and centroid
    before the gauge, the gauge, the metric speed and curvature rows
    (DegenerateCurve below METRIC_FLOOR), the convexity check and max
    |kappa|; `_FrameRows.close` builds the rest of the record after the
    run. The flow keeps curves counterclockwise: a frame of area <= 0
    raises BlowupDetected. Under `require_convex` the frame's curvature row
    is its convexity check. At frame 0 the first step reads these checked
    rows; after a later frame the step reads rows synthesized again from
    the regauged coefficients, equal to them up to rounding (8.9e-16 on the
    rate-frames-256 workload), which the step's own guards check.
    Returns the working curve's rfft rows, sample rows, area and max |kappa|.
    """
    m = frames.points.shape[1]
    rows = fourier.synth_rows(coef, m)
    curve = DiscreteCurve._view(rows[:2].T, validate=not control.require_convex)
    nodes = curve.points
    if curve.spacing_ratio() > _RESAMPLE_RATIO:
        nodes = resample(curve).points
        coef = np.fft.rfft(nodes.T, axis=1)
        rows = fourier.synth_rows(coef, m)
    area, cx, cy = (float(v) for v in area_centroid_rows(*rows[:4]))
    if not area > 0.0:
        raise BlowupDetected("enclosed area %.3g is not positive %s" % (area, where))
    gauge_shift = 0.0
    if gauge != "none":
        scale = math.sqrt(TWO_PI / area)
        gauge_shift = abs(scale - 1.0)
        coef = scale * coef
        rows *= scale
        if gauge == "area-centroid":
            shift = scale * np.array([cx, cy])
            rows[:2] -= shift[:, None]
            coef[:, 0] -= m * shift  # coefficient 0 sums the m values
            gauge_shift += math.hypot(cx, cy)
        nodes = rows[:2].T
    frames.grow()
    j = frames.count
    speed_curvature(rows[2:4], rows[4:], frames.speed[j], frames.curvature[j])
    curv = frames.curvature[j]
    if control.require_convex and curv.min() < 0.0:
        raise ConvexityLost("curvature changed sign %s" % where)
    max_curv = float(np.abs(curv).max())
    frames.points[j] = nodes
    frames.tangent[j] = rows[2:4].T
    frames.record[j] = (t, area, cx, cy, max_curv, gauge_shift)
    frames.count += 1
    return coef, rows, area, max_curv


def run_flows(curves, picture: str, end: float | None = None, *,
              frame_dtau: float = 0.02, gauge: str = "none",
              control: StepControl | None = None) -> list:
    """Run one flow per curve in lockstep; returns their FlowTrajectory list.

    picture is "mcf" (`end` = optional t_end, see :func:`run_mcf`) or "rmcf"
    (`end` = tau_end, see :func:`run_rmcf`). All curves need the same m. Each
    trajectory equals a run of its curve alone bit for bit. Frames leave
    the loop at one site, `_emit_frame`, frame 0 as each curve's "start"
    event, where a curve that needs more than STEP_BUDGET steps is refused.
    Each frame is written in place into row j of its trajectory's stacks,
    sized up front for "rmcf" (one row per frame time and frame 0) and
    doubled as needed for "mcf"; after the loop one pass per trajectory
    completes them (`_FrameRows.close`). A guard failure raises its typed
    error naming the curve's index and time; a ConvexityLost at frame 0
    carries that index as `start`.
    """
    control = control or StepControl()
    rescaled = picture == "rmcf"
    if rescaled:
        if end is None or end <= 0:
            raise TimeOutOfRange("tau_end must be positive")
        if gauge not in GAUGES:
            raise ValueError("unknown gauge %r" % gauge)
        n_frames = int(math.floor(end / frame_dtau + 1e-9))
        frame_times = [frame_dtau * j for j in range(1, n_frames + 1)]
        if not frame_times or frame_times[-1] < end - 1e-12:
            frame_times.append(end)
    elif picture != "mcf" or gauge != "none":
        raise ValueError("unknown picture %r or gauge %r for it" % (picture, gauge))
    if not 0.0 < control.cfl <= CFL_MAX:
        raise StepRejected("cfl %g is outside the accepted range (0, %g]"
                           % (control.cfl, CFL_MAX))
    if len({curve.m for curve in curves}) > 1:
        raise InvalidCurve("curves of one batch need the same m")
    level_ratio = math.exp(-frame_dtau)
    # every step is at most _timestep(0) long; an unrescaled run ends at
    # t_end or once its curvature reaches stop_curvature K, which takes at
    # least (1/k0^2 - 1/K^2)/2 from the maximum k0 at frame 0, as the
    # maximum principle on k_t = k_ss + k^3 gives dk_max/dt <= k_max^3; that
    # time exceeds `reach` exactly when k0 sqrt(2 reach + 1/K^2) < 1
    reach = STEP_BUDGET * _timestep(0.0, control)

    var = "tau" if rescaled else "t"
    # the batch: rfft rows (curves, 2, m/2 + 1) and samples (3, curves, 2, m),
    # [x, x', x''] x curve x (x, y) x node, frame 0's for the first step; per
    # active curve its index into curves, time, next frame (an area level for
    # mcf, an index into frame_times) and event ("start" at first)
    n, m = len(curves), curves[0].m if curves else 0
    coef = np.empty((n, 2, m // 2 + 1), dtype=complex)
    for k, curve in enumerate(curves):
        coef[k] = np.fft.rfft(curve.points.T, axis=1)
    rows = np.empty((3, n, 2, m))
    trajs = [FlowTrajectory(picture, m) for _ in curves]
    frames = [_FrameRows(len(frame_times) + 1 if rescaled else _MCF_ROWS, m)
              for _ in curves]
    ids, times, goals, events = list(range(n)), [0.0] * n, [0] * n, ["start"] * n

    def where(k):
        return "in curve %d at %s=%.6g" % (ids[k], var, times[k])

    since_guard = _GUARD_STRIDE  # full guards on the first step
    while True:
        keep = []
        for k in range(n):
            if events[k] is None:
                keep.append(k)
                continue
            try:  # a resampled or regauged frame's rows replace the step's
                coef[k], frame_rows, area, max_curv = _emit_frame(
                    frames[ids[k]], times[k], coef[k], control, gauge, where(k))
            except ConvexityLost as exc:
                exc.start = ids[k] if events[k] == "start" else None
                raise
            if rescaled:
                goals[k] += events[k] == "frame"
                done = goals[k] == len(frame_times)
            else:
                goals[k] = (area if events[k] == "start" else goals[k]) * level_ratio
                done = events[k] == "end" or max_curv >= control.stop_curvature
            if events[k] == "start":
                rows[:, k] = frame_rows.reshape(3, 2, m)
                slow = rescaled or max_curv * math.sqrt(
                    2.0 * reach + control.stop_curvature ** -2) < 1.0
                if slow and not done and (end is None or end > reach):
                    raise StepRejected(
                        "curve %d needs more than %d steps to its end time, "
                        "each at most %.3g long"
                        % (ids[k], STEP_BUDGET, _timestep(0.0, control)))
            if not done:
                keep.append(k)
        frame_rows = None  # held through the step, it raises peak memory
        if len(keep) < n:  # curves done leave the batch
            coef, rows = coef[keep], None
            ids, times, goals = ([v[k] for k in keep] for v in (ids, times, goals))
            n = len(ids)
        if not ids:
            break
        if rows is None:
            rows = fourier.synth_rows(coef.reshape(-1, m // 2 + 1),
                                      m).reshape(3, n, 2, m)
        pts, d1, d2 = rows
        g2, cross = _metric(d1, d2)
        since_guard += 1
        if since_guard >= _GUARD_STRIDE:
            _guards(pts, g2, cross, control, where)
            since_guard = 0
        kappa2 = _curvature_sq(g2, cross).max(axis=1).tolist()
        if not rescaled:
            areas = area_centroid_rows(pts[:, 0], pts[:, 1], d1[:, 0],
                                       d1[:, 1])[0].tolist()
        dts, events = [], []
        for k in range(n):
            if math.isnan(kappa2[k]):
                raise BlowupDetected("non-finite geometry %s" % where(k))
            dt = _timestep(kappa2[k], control)
            event = None
            if rescaled:
                # land within rounding: tau accumulated in steps that divide
                # frame_dtau can fall a few ulps short of the frame time
                if dt >= frame_times[goals[k]] - times[k] - 1e-9 * frame_dtau:
                    dt = frame_times[goals[k]] - times[k]
                    event = "frame"
                times[k] = frame_times[goals[k]] if event else times[k] + dt
            else:
                # land exactly on the next area level: dA/dt = -2*pi
                dt_land = (areas[k] - goals[k]) / TWO_PI
                if dt_land <= dt:
                    dt = max(dt_land, 0.0)
                    event = "level"
                if end is not None and end - times[k] <= dt:
                    dt = end - times[k]
                    event = "end"
                times[k] += dt
            trajs[ids[k]].steps += 1
            dts.append(dt)
            events.append(event)
        coef = _imex_step(coef, g2, d2, np.array(dts)[:, None], rescaled)
        rows = None
    for stacks, traj in zip(frames, trajs):
        stacks.close(traj, gauge)
    return trajs


def run_mcf(curve: DiscreteCurve, *, t_end: float | None = None,
            frame_dtau: float = 0.02,
            control: StepControl | None = None) -> FlowTrajectory:
    """Run the unrescaled flow, emitting frames at fixed area levels.

    Frame j sits at enclosed area A(0) * exp(-j * frame_dtau), so the frames
    are uniform in the rescaled time of the eventual singularity without
    knowing it. The run stops when max |H| reaches control.stop_curvature,
    or at t_end if given (with a final frame there).
    """
    return run_flows([curve], "mcf", t_end, frame_dtau=frame_dtau,
                     control=control)[0]


def run_rmcf(curve: DiscreteCurve, tau_end: float, *,
             frame_dtau: float = 0.02, gauge: str = "none",
             control: StepControl | None = None) -> FlowTrajectory:
    """Run the rescaled flow to tau_end, emitting frames at exact tau values.

    gauge:
      "none"          plain rescaled flow.
      "area"          rescale to enclosed area exactly 2*pi at every frame.
      "area-centroid" additionally recenter the region centroid at the origin.

    The gauge moves correspond to re-choosing the singular spacetime point of
    the underlying unrescaled flow, so gauged runs remain rescaled flows of
    the same evolution; they suppress the unstable dilation (e^tau) and
    translation (e^(tau/2)) drifts seeded by floating-point error.
    """
    return run_flows([curve], "rmcf", tau_end, frame_dtau=frame_dtau,
                     gauge=gauge, control=control)[0]


# ---------------------------------------------------------------------------
# Singularity estimation and change of picture
# ---------------------------------------------------------------------------

def estimate_singularity(traj: FlowTrajectory) -> dict:
    """Extrapolate the singular time and point from an unrescaled run, as
    the singularData record of index.json: time, center, timeErr and
    centerErr.

    The singular time comes from the exact area law A(t) = 2*pi*(T - t):
    each late frame gives T_j = t_j + A_j/(2*pi), and their late-window mean
    is the estimate. The center comes from the region centroid, which
    approaches x0 linearly in T - t, via an affine fit extrapolated to t = T.
    """
    if traj.picture != "mcf":
        raise NotShrinking("singularity estimation needs an unrescaled trajectory")
    if traj.series is None or len(traj) < 8:
        raise NotShrinking("need at least 8 frames, got %d" % len(traj))
    t = traj.series["time"]
    area = traj.series["area"]
    if np.any(np.diff(area) >= 0.0):
        raise NotShrinking("enclosed area is not strictly decreasing")
    if area[-1] > 0.5 * area[0]:
        raise NotShrinking("flow did not get close enough to the singular time")
    n = len(t)
    k = max(5, int(round(_SINGULAR_WINDOW * n)))
    lo = n - k
    t_win = t[lo:]
    t_hats = t_win + area[lo:] / TWO_PI
    t_hat = float(np.mean(t_hats))
    # the spread of the window misses an error the whole run shares; frame
    # 0's prediction t_0 + A_0/(2 pi) bounds it
    time_err = max(float(np.ptp(t_hats)) / 2.0,
                   abs(t_hat - (t[0] + area[0] / TWO_PI))) + 1e-12
    if t_hat <= t[-1]:
        raise NotShrinking("extrapolated singular time does not exceed the run")
    # centroid -> x0 + b*(T - t): affine fit, evaluate at T - t = 0
    gap = t_hat - t_win
    design = np.column_stack([np.ones_like(gap), gap])
    cx = traj.series["cx"][lo:]
    cy = traj.series["cy"][lo:]
    coef, *_ = np.linalg.lstsq(design, np.column_stack([cx, cy]), rcond=None)
    center = coef[0]
    resid = design @ coef - np.column_stack([cx, cy])
    slope = np.hypot(coef[1, 0], coef[1, 1])
    center_err = float(np.abs(resid).max()) + slope * time_err + 1e-12
    return {"time": t_hat, "center": [float(center[0]), float(center[1])],
            "timeErr": time_err, "centerErr": center_err}


def rescale_to_rmcf(traj: FlowTrajectory, time: float, center) -> FlowTrajectory:
    """Map an unrescaled trajectory into the rescaled picture about (center, time).

    N = (M - center) / sqrt(time - t), tau = -log(time - t). Raises
    TimeOutOfRange if any frame sits at or past the singular time. Frame
    validity is preserved by the similarity map, so curves are not re-checked.
    """
    if traj.picture != "mcf":
        raise ValueError("expected an unrescaled trajectory")
    center = np.asarray(center, dtype=float)
    out = FlowTrajectory(picture="rmcf", m=traj.m, singular_data=traj.singular_data)
    for t, curve in zip(traj.times, traj.curves):
        gap = time - t
        if gap <= 0.0:
            raise TimeOutOfRange("frame at t=%.6g is not before time=%.6g" % (t, time))
        scale = 1.0 / math.sqrt(gap)
        pts = (curve.points - center) * scale
        out.times.append(-math.log(gap))
        out.curves.append(DiscreteCurve(pts, validate=False))
    return out
