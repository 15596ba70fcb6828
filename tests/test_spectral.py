"""Spectrum of the weighted drift operator."""

import numpy as np
import pytest

from shrinkerlab.curvegeo import circle, ellipse, gaussian_weights, random_fourier
from shrinkerlab.errors import DegenerateCurve
from shrinkerlab.flowcore import run_rmcf
from shrinkerlab.gauge import apply_L
from shrinkerlab.spectral import assemble, eigenpairs, rayleigh_bound

SQRT2 = np.sqrt(2.0)


def circle_levels(n_modes):
    # 1 - k^2/2, k = 0 then doubled for k >= 1
    out = [1.0]
    for k in range(1, n_modes + 1):
        out += [1.0 - k * k / 2.0] * 2
    return np.array(out)


def test_round_base_spectrum_is_exact():
    spec = eigenpairs(assemble(circle(SQRT2, m=512)), count=13)
    assert np.abs(spec.eigenvalues - circle_levels(6)).max() < 1e-10
    assert spec.top_eigenvalue == spec.eigenvalues[0]
    # degenerate pairs stay numerically degenerate
    pairs = spec.eigenvalues[1::2] - spec.eigenvalues[2::2]
    assert np.abs(pairs).max() < 1e-8


def test_form_is_symmetric():
    op = assemble(random_fourier(5, 0.06, seed=3, m=128))
    rng = np.random.default_rng(0)
    v, w = rng.standard_normal((2, 128))
    assert abs(op.form(v, w) - op.form(w, v)) < 1e-12 * (1 + abs(op.form(v, w)))
    assert np.abs(op.quad_form - op.quad_form.T).max() == 0.0


def test_strong_form_matches_pointwise_operator():
    # matrix action and the pointwise divergence-form action agree on smooth
    # fields (they share the potential; stiffness differs only at the very
    # top of the spectrum, absent from a band-limited field)
    base = ellipse(1.5, 1.1, m=128)
    t = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    u = np.cos(3 * t) + 0.3 * np.sin(5 * t)
    a = assemble(base).apply(u)
    b = apply_L(base, u)
    assert np.abs(a - b).max() < 1e-6 * (1 + np.abs(b).max())


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
    op = assemble(ellipse(1.4, 1.0, m=64))
    spec = eigenpairs(op, count=64)
    assert np.isclose(spec.eigenvalues.sum(), op.trace(), rtol=1e-6)


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
