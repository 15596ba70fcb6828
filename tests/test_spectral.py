"""Spectrum of the weighted drift operator."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkerlab.curvegeo import (circle, ellipse, fourier_curve,
                                  gaussian_weights, random_fourier)
from shrinkerlab.errors import DegenerateCurve
from shrinkerlab.flowcore import run_rmcf
from shrinkerlab.gauge import apply_L
from shrinkerlab.spectral import (apply_rows, assemble, dirichlet_rows,
                                 eigenpairs, rayleigh_bound)

SQRT2 = np.sqrt(2.0)


def form(op, u, v):
    """The weak form of op at (u, v): the lumped potential term minus the
    Dirichlet form, polarized from the package's `dirichlet_rows`."""
    plus, minus = dirichlet_rows([op, op], [u + v, u - v])
    return float(np.sum(op.potential * u * v) - 0.25 * (plus - minus))

# the curves the matrix-free solver is checked on against the dense oracle
ORACLE_CURVES = {
    "circle": lambda m: circle(SQRT2, m=m),
    "ellipse-1.4": lambda m: ellipse(1.4, 1.0, m=m),
    "ellipse-2": lambda m: ellipse(2.0, 0.5, m=m),
    "random-0": lambda m: random_fourier(5, 0.06, seed=0, m=m),
    "random-1": lambda m: random_fourier(5, 0.06, seed=1, m=m),
    "random-2": lambda m: random_fourier(5, 0.06, seed=2, m=m),
    "fourier-2": lambda m: fourier_curve(1.0, (0.0, 0.05), (0.0, 0.0), m=m),
}


def circle_levels(n_modes):
    # 1 - k^2/2, k = 0 then doubled for k >= 1
    out = [1.0]
    for k in range(1, n_modes + 1):
        out += [1.0 - k * k / 2.0] * 2
    return np.array(out)


def dense_levels(op):
    """All eigenvalues, descending, by a dense eigvalsh of the assembled form."""
    root = np.sqrt(op.weights)
    sym = op.quad_form / root[:, None] / root[None, :]
    return np.linalg.eigvalsh(sym)[::-1]


def peak_bytes(fn):
    """(result, tracemalloc peak) of one call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_round_base_spectrum_is_exact():
    for m, tol in ((512, 1e-10), (8192, 1e-9)):
        # no m x m array: one would take 512 MB at m = 8192
        t0 = time.perf_counter()
        spec, peak = peak_bytes(
            lambda: eigenpairs(assemble(circle(SQRT2, m=m)), count=13))
        assert time.perf_counter() - t0 < 30.0
        assert peak < 64e6
        assert np.abs(spec.eigenvalues - circle_levels(6)).max() < tol
        # degenerate pairs stay numerically degenerate
        pairs = spec.eigenvalues[1::2] - spec.eigenvalues[2::2]
        assert np.abs(pairs).max() < 1e-8


def test_form_is_symmetric():
    op = assemble(random_fourier(5, 0.06, seed=3, m=128))
    rng = np.random.default_rng(0)
    v, w = rng.standard_normal((2, 128))
    vw = form(op, v, w)
    assert abs(vw - form(op, w, v)) < 1e-12 * (1 + abs(vw))
    assert abs(vw - v @ op.quad_form @ w) < 1e-12 * abs(vw)
    assert np.abs(op.quad_form - op.quad_form.T).max() == 0.0


def test_apply_matches_assembled_matrix():
    op = assemble(random_fourier(5, 0.06, seed=3, m=128))
    block = np.random.default_rng(1).standard_normal((128, 6))
    want = op.quad_form @ block / op.weights[:, None]
    scale = np.abs(want).max()
    assert np.abs(op.apply(block) - want).max() < 1e-13 * scale
    assert np.abs(op.apply(block[:, 2]) - want[:, 2]).max() < 1e-13 * scale


@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_eigenpairs_match_dense_oracle(name, m):
    op = assemble(ORACLE_CURVES[name](m))
    dense = dense_levels(op)
    for count in (1, 5, 13):
        vals = eigenpairs(op, count=count).eigenvalues
        assert np.all(np.abs(vals - dense[:count])
                      <= 1e-10 * np.maximum(1.0, np.abs(dense[:count])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kmax=st.integers(2, 8), amplitude=st.floats(0.01, 0.08),
       curve_seed=st.integers(0, 1000), field_seed=st.integers(0, 1000),
       m=st.sampled_from([64, 128, 256]))
def test_one_self_adjoint_drift_operator(kmax, amplitude, curve_seed,
                                         field_seed, m):
    # the form, apply_L and the frequency quotient are one discrete operator
    # L, so the frequency argument's Cauchy-Schwarz step holds to rounding
    # even on rough fields (where two discretizations would part by percents)
    base = random_fourier(kmax, amplitude, seed=curve_seed, m=m)
    op = assemble(base)
    w = gaussian_weights(base)
    u, v = np.random.default_rng(field_seed).standard_normal((2, m))
    scale = 1.0 + abs(form(op, u, u)) + abs(form(op, v, v))
    assert abs(form(op, u, v) - form(op, v, u)) <= 1e-12 * scale
    lu, lv = apply_L(base, u), apply_L(base, v)
    assert abs(np.sum(w * lu * v) - np.sum(w * u * lv)) <= 1e-12 * scale
    i_val = np.sum(w * u * u)
    big_u = 2.0 * form(op, u, u) / i_val
    assert abs(big_u - 2.0 * np.sum(w * u * lu) / i_val) \
        <= 1e-12 * (1.0 + abs(big_u))
    v_main = 4.0 * np.sum(w * lu * lu) / i_val - big_u ** 2
    assert v_main >= -1e-12 * (1.0 + big_u ** 2)


def test_eigenfunctions_weighted_orthonormal():
    base = ellipse(1.6, 1.2, m=128)
    spec = eigenpairs(assemble(base), count=9)
    w = gaussian_weights(base)
    gram = spec.eigenfunctions.T @ (w[:, None] * spec.eigenfunctions)
    assert np.abs(gram - np.eye(9)).max() < 1e-8


def test_mode_two_eigenspace_on_round_base():
    spec = eigenpairs(assemble(circle(SQRT2, m=256)), count=13)
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    w = gaussian_weights(circle(SQRT2, m=256))
    # eigenvalue -1 lives on span{cos 2t, sin 2t}
    for j in (3, 4):
        v = spec.eigenfunctions[:, j]
        c = np.cos(2 * t)
        s = np.sin(2 * t)
        proj = (np.sum(w * v * c) ** 2 / np.sum(w * c * c)
                + np.sum(w * v * s) ** 2 / np.sum(w * s * s))
        assert proj > 0.999  # v is unit, so proj is the squared correlation


def test_full_spectrum_trace_identity():
    # count = m leaves no room for a Ritz basis: the dense branch runs
    op = assemble(ellipse(1.4, 1.0, m=64))
    spec = eigenpairs(op, count=64)
    trace = np.sum(np.diag(op.quad_form) / op.weights)
    assert np.isclose(spec.eigenvalues.sum(), trace, rtol=1e-6)
    assert np.abs(spec.eigenvalues - dense_levels(op)).max() < 1e-10


def test_near_round_base_perturbs_spectrum_slightly():
    base = ellipse(SQRT2 * 1.01, SQRT2 / 1.01, m=256)
    spec = eigenpairs(assemble(base), count=13)
    assert np.abs(spec.eigenvalues - circle_levels(6)).max() < 5e-2


def test_degenerate_rejected():
    base = circle(1.0, m=64)
    squashed = base.scaled(1e-11)
    with pytest.raises(DegenerateCurve):
        assemble(squashed)


def test_count_validation():
    op = assemble(circle(1.0, m=64))
    with pytest.raises(ValueError):
        eigenpairs(op, count=0)
    with pytest.raises(ValueError):
        eigenpairs(op, count=65)


def test_spectrum_serialization(tmp_path):
    spec = eigenpairs(assemble(circle(SQRT2, m=64)), count=3)
    path = tmp_path / "spec.json"
    spec.save(path)
    import json

    data = json.loads(path.read_text())
    assert set(data) == {"m", "eigenvalues", "Lambda"}
    assert data["m"] == 64
    assert data["Lambda"] == pytest.approx(1.0, abs=1e-9)
    assert data["Lambda"] == data["eigenvalues"][0]


def test_rayleigh_bound_static_and_converging():
    static = run_rmcf(circle(SQRT2, m=96), 0.4, frame_dtau=0.1)
    times, vals, uniform = rayleigh_bound(static)
    assert len(times) == len(static)
    assert np.abs(vals - 1.0).max() < 1e-6
    assert uniform == pytest.approx(1.0, abs=1e-6)

    conv = run_rmcf(circle(1.9, m=96), 2.0, frame_dtau=0.25, gauge="area")
    _, vals2, uniform2 = rayleigh_bound(conv, stride=2)
    assert uniform2 >= vals2[-1]
    # gauge-fixed frames approach the round circle, so the bound tightens
    assert abs(vals2[-1] - 1.0) < abs(vals2[0] - 1.0) + 1e-12


def separation_base(m, tau_end):
    """The base flow of the separation scenario: its ellipse at area 2 pi."""
    return run_rmcf(ellipse(1.1 * SQRT2, SQRT2 / 1.1, m=m), tau_end,
                    frame_dtau=0.1, gauge="area-centroid")


def test_rayleigh_bound_matches_dense_along_separation():
    traj = separation_base(128, 1.0)
    _, vals, uniform = rayleigh_bound(traj)
    dense = np.array([dense_levels(assemble(c))[0] for c in traj.curves])
    assert np.abs(vals - dense).max() < 1e-10
    # an upper bound, up to the rounding of the dense oracle
    assert (vals - dense).min() > -1e-12
    assert uniform == vals.max()


def test_rayleigh_bound_memory_is_linear_in_m():
    traj = separation_base(1024, 0.2)
    (_, vals, _), peak = peak_bytes(lambda: rayleigh_bound(traj))
    assert len(vals) == len(traj)
    assert peak < 16e6


def test_stacked_rows_equal_their_own_operator_calls():
    # one stacked pass over frames of different bases gives each row the
    # bits of its own operator's apply and of a one-row Dirichlet energy
    curves = [ORACLE_CURVES[name](128) for name in sorted(ORACLE_CURVES)]
    ops = [assemble(c) for c in curves]
    rng = np.random.default_rng(3)
    fields = rng.standard_normal((len(ops), 128))
    applied = apply_rows(ops, fields)
    energies = dirichlet_rows(ops, fields)
    for op, u, lu, e in zip(ops, fields, applied, energies):
        assert np.array_equal(lu, op.apply(u))
        assert e == dirichlet_rows([op], [u])[0]
