"""Gaussian energies, frequency quotient, and flow-comparison monitors.

Everything here lives in the Gaussian-weighted inner product of a base
curve. The central objects:

  I      = integral of u^2 dmu          (energy of a graph field u)
  U      = 2 form(u, u) / I             (frequency: doubled Rayleigh quotient
                                         of the form of `spectral.assemble`)
  Itilde = integral of phi^2 dmu        (squared shrinker deviation; equals
                                         -dF/dtau along any rescaled flow)
  D(tau) = sup-norm error budget of the moving base
  C(tau) = fitted pointwise linearization constant of the graph evolution
  theta  = Lojasiewicz exponent of ||phi|| ~ (F - F_round)^(1 - theta)

`monitor` pairs frame j of two rescaled trajectories with equal times,
writes one record per interior frame, and checks the inequalities that make
the frequency argument run: the logarithmic derivative of I stays within
the C/D error budget of U, U never exceeds the spectral bound, and log I
admits a linear lower support line (no super-exponential collapse). Its
per-frame work (normal graphs, base diagnostics, I, U, the Dirichlet
ratio and the residual columns) runs over blocks of frames in stacked
passes, each frame's numbers those of the frame alone, and its frames stay
stacked as (frames, m) rows throughout. Its base half (Itilde, F, D, the C2
norm of phi, their integrals and theta) comes from `_frames` and `_approach`
of the base trajectory's stacked rows. `shrinker_energy` gives Itilde of a
single curve, `shrinker_energies` of every frame of a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ioutil, spectral
from .curvegeo import (
    STACK_NODES,
    DiscreteCurve,
    frame_blocks,
    gaussian_mass,
    gaussian_weight_rows,
    gaussian_weights,
    shrinker_quantity,
    shrinker_rows,
)
from .errors import FrameMissing, NotAGraph
from .gauge import arc_rows, normal_graphs, residuals

__all__ = [
    "ENERGY_FLOOR",
    "ROUND_F_VALUE",
    "FrequencyTrace",
    "shrinker_energy",
    "shrinker_energies",
    "superexponential_flag",
    "monitor",
]

ENERGY_FLOOR = 1e-14
# Gaussian area of the round shrinking circle, the F level every convex
# rescaled flow converges to: sqrt(2 pi) e^(-1/2)
ROUND_F_VALUE = math.sqrt(2.0 * math.pi) * math.exp(-0.5)

TRACE_COLUMNS = ("tau", "I", "U", "Itilde", "F", "dFdtau", "phiL2", "D",
                 "fittedC", "dlogI", "Vmain", "Verr", "underflow")


def _itilde(weights: np.ndarray, phi: np.ndarray):
    return np.sum(weights * phi * phi, axis=-1) / math.sqrt(4.0 * math.pi)


def _base_rows(traj, block):
    """The Gaussian quadrature weights and phi of the frames in `block` of
    a trajectory as (frames, m) rows, with their stacked geometry, each row
    that of `gaussian_weights` and `shrinker_quantity` of its frame alone."""
    points, geom = traj.stacked(block)
    return gaussian_weight_rows(points, geom), shrinker_rows(points, geom), geom


def _frames(traj) -> dict:
    """The base diagnostics of the frames of a trajectory, stacked: the
    Gaussian quadrature weights and the shrinker deviation phi as (k, m)
    rows; as (k,) columns the values of shrinker_energy (itilde) and
    f_functional (f), the sup norm of phi and its first two arc derivatives
    (c2), and the error budget D without its dphi/dtau term (d_static, see
    _approach). The frames of each `frame_blocks` block go in one pass over
    the trajectory's stacked rows, the arc derivatives of phi by one stacked
    `arc_rows`, each row equal to that of its curve alone."""
    k, m = len(traj), traj.m
    cols = {"weights": np.empty((k, m)), "phi": np.empty((k, m)),
            "itilde": np.empty(k), "f": np.empty(k), "c2": np.empty(k),
            "d_static": np.empty(k)}
    for block in frame_blocks(k, m, STACK_NODES):
        weights, phi, geom = _base_rows(traj, block)
        h = geom.curvature
        phi_s, phi_ss = arc_rows(geom.metric_speed, phi)
        sup_phi = np.abs(phi).max(axis=1)
        metric_term = np.abs(2.0 * phi * h).max(axis=1)
        curv_term = np.abs(2.0 * h * phi_ss + 2.0 * phi * h ** 3).max(axis=1)
        cols["weights"][block] = weights
        cols["phi"][block] = phi
        cols["itilde"][block] = _itilde(weights, phi)
        cols["f"][block] = gaussian_mass(weights)
        cols["c2"][block] = (sup_phi + np.abs(phi_s).max(axis=1)
                             + np.abs(phi_ss).max(axis=1))
        cols["d_static"][block] = metric_term + curv_term + sup_phi
    return cols


def shrinker_energy(curve: DiscreteCurve) -> float:
    """Squared Gaussian norm of the shrinker deviation field.

    Carries the same (4 pi)^(-1/2) normalization as the Gaussian area
    functional, so that along any rescaled flow it equals minus the time
    derivative of that functional exactly. Vanishes on centered round
    shrinkers. Reads only the Gaussian weights and phi, not the other base
    diagnostics of the monitor.
    """
    return float(_itilde(gaussian_weights(curve), shrinker_quantity(curve)))


def shrinker_energies(traj) -> np.ndarray:
    """`shrinker_energy` of every frame of a trajectory, bit for bit, from
    its stacked rows in blocks of STACK_NODES nodes."""
    out = np.empty(len(traj))
    for block in frame_blocks(len(traj), traj.m, STACK_NODES):
        weights, phi, _ = _base_rows(traj, block)
        out[block] = _itilde(weights, phi)
    return out


def _approach(taus: np.ndarray, frames: dict) -> dict:
    """Every base-only quantity of the `_frames` columns at times taus.

    D at an interior frame is its static part plus sup|dphi/dtau|, a central
    difference over the two neighboring frames. theta is None when no
    energy-gap law is fittable (see _lojasiewicz).
    """
    tau = taus[1:-1]
    span = taus[2:] - taus[:-2]
    f_vals = frames["f"]
    itilde = frames["itilde"][1:-1]
    phi = frames["phi"]
    d_vals = (frames["d_static"][1:-1]
              + np.abs(phi[2:] - phi[:-2]).max(axis=1) / span)
    c2_vals = frames["c2"][1:-1]
    return {"tau": tau, "Itilde": itilde, "F": f_vals[1:-1],
            "dFdtau": (f_vals[2:] - f_vals[:-2]) / span,
            "phiL2": np.sqrt(itilde), "D": d_vals, "phiC2": c2_vals,
            "integralD": float(np.trapezoid(d_vals, tau)),
            "integralC2": float(np.trapezoid(c2_vals, tau)),
            "theta": _lojasiewicz(frames["itilde"], frames["f"])}


def _lojasiewicz(itilde: np.ndarray, f_vals: np.ndarray) -> float | None:
    """Exponent theta of ||phi||_L2 ~ (F - ROUND_F_VALUE)^(1 - theta): a
    least-squares line in logs over the frames with a usable gap (gap and
    deviation both above rounding level), from the Itilde and F columns of
    `_frames`. None when fewer than 20 frames have one, a trajectory on the
    limit shrinker among them.
    """
    phi_l2 = np.sqrt(itilde)
    gap = f_vals - ROUND_F_VALUE
    usable = (gap > 1e-13) & (phi_l2 > 1e-13)
    if int(usable.sum()) < 20:
        return None
    lg = np.log(gap[usable])
    design = np.column_stack([lg, np.ones(lg.size)])
    (slope, _), *_ = np.linalg.lstsq(design, np.log(phi_l2[usable]),
                                     rcond=None)
    return 1.0 - float(slope)


def superexponential_flag(taus: np.ndarray, log_i: np.ndarray):
    """Detect downward curvature in log I strong enough to beat every
    exponential over the window.

    Fits a quadratic in tau; flags when the quadratic coefficient is
    negative and bends the window by more than 4 (a factor e^4 beyond
    linear decay). Returns (flagged, quadratic_coefficient).
    """
    taus = np.asarray(taus, dtype=float)
    log_i = np.asarray(log_i, dtype=float)
    if taus.size < 5:
        return False, 0.0
    t = taus - taus.mean()
    design = np.column_stack([t * t, t, np.ones(t.size)])
    (a, _, _), *_ = np.linalg.lstsq(design, log_i, rcond=None)
    span = taus[-1] - taus[0]
    return bool(a < 0.0 and abs(a) * span * span > 4.0), float(a)


@dataclass
class FrequencyTrace:
    """Per-frame records of the two-flow frequency monitor.

    columns holds one array per CSV column (TRACE_COLUMNS order); underflow
    rows carry zeros in the quotient fields and are excluded from every fit.
    Row r is frame r + 1 of both trajectories, and row r of the (rows, m)
    array fields holds the normal-graph heights u of that target frame over
    that base frame (kept in memory, not written). The margin array
    summarizes the verified inequalities; summary holds the fitted scalars
    as `separation` writes them (lambdaFit, offsetFit, Uinf, Lambda,
    thetaFit, integralD, integralC2).
    """

    columns: dict
    fields: np.ndarray
    inequality_margin: np.ndarray
    summary: dict
    flags: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.columns["tau"])

    def save_csv(self, path) -> None:
        ioutil.write_csv(path, TRACE_COLUMNS,
                         zip(*(self.columns[name] for name in TRACE_COLUMNS)))


def monitor(base_traj, target_traj, *,
            fit_fraction: float = 0.4) -> FrequencyTrace:
    """Track one flow as a normal graph over another and verify the
    frequency inequalities frame by frame, frame j of the target over frame
    j of the base; the two share their frame times, as the flows of one
    `flowcore.run_flows` batch do.

    Per interior frame: the graph energy I, frequency U, deviation energies
    of the base, the error budget D, the fitted linearization constant C,
    and the decomposition of dU/dtau into its nonnegative main part and the
    remainder. The base columns (Itilde, F, dFdtau, phiL2, D), integralD,
    integralC2 and thetaFit are those of `_approach` over the `_frames`
    columns of base_traj.
    Checks recorded in flags:

      * the logarithmic derivative of I matches U minus the measure
        correction within 3(C + D) + C * (dirichlet ratio);
      * U <= 2 Lambda + 1e-10 against the spectral bound;
      * no super-exponential collapse of I over the fit window.

    The graphs come from `gauge.normal_graphs`: Newton seeded at each base
    node's own parameter, no crossing search, each frame accepted under the
    convexity certificate that its crossing is the only one within reach/2
    (the rolling disk of radius 1/max H of a convex target, at node
    resolution) and otherwise sent through `gauge.normal_graph`, the one
    crossing search; the target flow may have another m than the base.
    They agree with `normal_graph` to about 1e-12 relative. The graphs, the
    base diagnostics, I, U, the Dirichlet ratio and the residuals run over
    `curvegeo.frame_blocks` of STACK_NODES nodes, as stacked rfft/irfft
    passes (`spectral.dirichlet_rows`, `gauge.residuals`) whose rows equal
    the per-frame calls bit for bit.

    Lambda (the top eigenvalue along the base) comes from an eigensolve
    of every max(1, k // 12)-th base frame and the last, k the number of
    frames. Fits use the trailing fit_fraction of non-underflow rows;
    lambdaFit, offsetFit and Uinf are None when fewer than two rows clear
    ENERGY_FLOOR. FrameMissing if the frame times differ or k < 5;
    NotAGraph, naming the frame time, if a frame pair is no graph.
    """
    if {base_traj.picture, target_traj.picture} != {"rmcf"}:
        raise ValueError("monitor expects two rescaled trajectories")
    if list(base_traj.times) != list(target_traj.times):
        raise FrameMissing("the trajectories do not share their frame times")
    k = len(base_traj)
    if k < 5:
        raise FrameMissing("need at least 5 frames, got %d" % k)
    curves = base_traj.curves
    taus = np.asarray(base_traj.times, dtype=float)
    try:
        fields = normal_graphs(curves, target_traj.curves)
    except NotAGraph as exc:
        raise NotAGraph("frame pair at tau = %.6g: %s" % (taus[exc.frame], exc))
    _, _, lambda_bound = spectral.rayleigh_bound(base_traj,
                                                 stride=max(1, k // 12))
    frames = _frames(base_traj)
    base = _approach(taus, frames)

    # per frame: I, U, the measure correction and the Dirichlet ratio, U
    # and the ratio sharing one stiffness evaluation; per interior frame j,
    # the residual of frames j - 1, j, j + 1 and the Gaussian norm of its L u
    i_vals = np.empty(k)
    u_quot = np.zeros(k)
    corr = np.zeros(k)
    dirat = np.zeros(k)
    fitted_c = np.zeros(k)
    drift_sq = np.zeros(k)
    spans = np.zeros(k)
    spans[1:-1] = taus[2:] - taus[:-2]
    for block in frame_blocks(k, base_traj.m, STACK_NODES):
        u = fields[block]
        weights = frames["weights"][block]
        phi = frames["phi"][block]
        ops = [spectral.assemble(c) for c in curves[block]]
        i_vals[block] = np.sum(weights * u * u, axis=1)
        dirichlet = spectral.dirichlet_rows(ops, u)
        potential = np.sum(np.stack([op.potential for op in ops]) * u * u,
                           axis=1)
        live = i_vals[block] > ENERGY_FLOOR
        i_live = i_vals[block][live]
        u_quot[block][live] = 2.0 * (potential - dirichlet)[live] / i_live
        corr[block][live] = np.sum(weights * phi ** 2 * u * u,
                                   axis=1)[live] / i_live
        dirat[block][live] = dirichlet[live] / i_live
        inner = np.arange(k)[block]
        inner = inner[(inner > 0) & (inner < k - 1)]
        if not inner.size:
            continue
        res = residuals([curves[j] for j in inner], fields[inner - 1],
                        fields[inner], fields[inner + 1], spans[inner] / 2)
        fitted_c[inner] = res["fittedC"]
        drift_sq[inner] = np.sum(frames["weights"][inner] * res["drift"] ** 2,
                                 axis=1)
    under = i_vals <= ENERGY_FLOOR

    n_rows = k - 2
    cols = {name: base[name] if name in base else np.zeros(n_rows)
            for name in TRACE_COLUMNS}
    cols["I"] = i_vals[1:-1]
    cols["U"] = u_quot[1:-1]
    cols["fittedC"] = fitted_c[1:-1]
    cols["underflow"] = (under[:-2] | under[1:-1] | under[2:]).astype(float)
    # row j - 1 checks frame j unless it underflows; underflow rows keep zeros
    good = cols["underflow"] == 0.0
    j = np.arange(1, k - 1)[good]
    span = spans[j]
    dlog_i = (np.log(i_vals[j + 1]) - np.log(i_vals[j - 1])) / span
    v_main = 4.0 * drift_sq[j] / i_vals[j] - u_quot[j] ** 2
    cols["dlogI"][good] = dlog_i
    cols["Vmain"][good] = v_main
    cols["Verr"][good] = (u_quot[j + 1] - u_quot[j - 1]) / span - v_main
    lhs = np.abs(dlog_i - (u_quot[j] - corr[j]))
    rhs = 3.0 * (fitted_c[j] + cols["D"][good]) + fitted_c[j] * dirat[j]
    margin = np.zeros(n_rows)
    margin[good] = rhs - lhs
    flags: list = []
    for tau, u, left, right in zip(taus[j], u_quot[j], lhs, rhs):
        if right - left < -1e-9:
            flags.append("frequency-inequality violated at tau = %.6g "
                         "(lhs %.3g > rhs %.3g)" % (tau, left, right))
        if u > 2.0 * lambda_bound + 1e-10:
            flags.append("rayleigh bound violated at tau = %.6g "
                         "(U = %.6g, Lambda = %.6g)" % (tau, u, lambda_bound))

    n_good = int(good.sum())
    lam_fit = offset_fit = u_inf = None
    if n_good >= 2:
        start = min(int(math.ceil((1.0 - fit_fraction) * n_good)), n_good - 2)
        tw = cols["tau"][good][start:]
        lw = np.log(cols["I"][good][start:])
        design = np.column_stack([tw, np.ones(tw.size)])
        (slope, _), *_ = np.linalg.lstsq(design, lw, rcond=None)
        lam_fit = -float(slope)
        offset_fit = float((-lam_fit * tw - lw).max())
        u_inf = float(cols["U"][good][start:].min())
        collapsed, _ = superexponential_flag(tw, lw)
        if collapsed:
            flags.append("super-exponential collapse of I over the "
                         "fit window")

    summary = {"lambdaFit": lam_fit, "offsetFit": offset_fit, "Uinf": u_inf,
               "Lambda": float(lambda_bound), "thetaFit": base["theta"],
               "integralD": base["integralD"],
               "integralC2": base["integralC2"]}
    return FrequencyTrace(columns=cols, fields=fields[1:-1],
                          inequality_margin=margin, summary=summary,
                          flags=flags)
