from dataclasses import replace

import numpy as np
import pytest

from harness import LinearSplineBasis2D, l2_norm, spline_mode_error
from vpqmc.core import (GriddedDensity, ParticleEnsemble, PhaseSpaceDomain,
                        normalize_to_sampling_density)
from vpqmc.densest import (SingularSystem, bilinear_ridge_fit, cic_moments,
                           osde_linear)
from vpqmc.lowdisc import PseudoRandom, Sobol, generate_pairs
from vpqmc.sampling import build_sampler, rosenblatt_sample

DOM = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)


def _basis(nx=8, nv=8, domain=DOM):
    return LinearSplineBasis2D(domain, nx, nv)


# --- mass matrices ---------------------------------------------------------------

def test_mass_x_stencil():
    b = _basis(nx=8)
    row = b.mass_x_row()
    expect = np.zeros(8)
    expect[0] = 2.0 / 3.0
    expect[1] = expect[-1] = 1.0 / 6.0
    np.testing.assert_allclose(row, b.dx * expect)


def test_mass_x_stencil_matches_hat_overlap_quadrature():
    # independent check of the stencil entries: numerically integrate the
    # products of neighbouring hats
    b = _basis(nx=6)
    xs = np.linspace(0, b.dx, 20001)
    hat_down = 1 - xs / b.dx
    hat_up = xs / b.dx
    diag = 2 * np.trapezoid(hat_down ** 2, xs)
    off = np.trapezoid(hat_down * hat_up, xs)
    assert diag == pytest.approx(2 * b.dx / 3, rel=1e-8)
    assert off == pytest.approx(b.dx / 6, rel=1e-8)


def test_mass_v_boundary_entries():
    b = _basis(nv=6)
    m = b.mass_v_dense()
    assert m[0, 0] == pytest.approx(b.dv / 3)
    assert m[-1, -1] == pytest.approx(b.dv / 3)
    assert m[2, 2] == pytest.approx(2 * b.dv / 3)
    assert m[2, 3] == pytest.approx(b.dv / 6)
    eigs = np.linalg.eigvalsh(m)
    assert np.all(eigs > 0)


def test_mass_solve_roundtrip():
    b = _basis(nx=12, nv=9)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((12, 9))
    back = b.solve_mass(b.apply_mass(coeffs))
    np.testing.assert_allclose(back, coeffs, atol=1e-12)


def test_mass_solve_matches_dense_kron_oracle():
    b = _basis(nx=8, nv=8)
    rng = np.random.default_rng(1)
    moments = rng.standard_normal((8, 8))
    dense = np.kron(b.mass_x_dense(), b.mass_v_dense())
    ref = np.linalg.solve(dense, moments.reshape(-1)).reshape(8, 8)
    np.testing.assert_allclose(b.solve_mass(moments), ref, atol=1e-11)


# --- OSDE ------------------------------------------------------------------------

def test_osde_single_marker_against_dense_oracle():
    b = _basis(nx=8, nv=8)
    e = ParticleEnsemble(x=[b.dx * 3.0], v=[-1.0 + b.dv * 2.0],
                         f_like=[1.0], g_like=[1.0])
    est = osde_linear(e, b)
    moments = np.zeros((8, 8))
    moments[3, 2] = 1.0
    dense = np.kron(b.mass_x_dense(), b.mass_v_dense())
    ref = np.linalg.solve(dense, moments.reshape(-1)).reshape(8, 8)
    np.testing.assert_allclose(est.values, ref, atol=1e-12)


def test_osde_constant_density_from_cell_centres():
    # markers at every cell centre reproduce the uniform density exactly:
    # the moment vector is proportional to the mass-matrix row sums
    b = _basis(nx=8, nv=9)
    xc = b.dx * (np.arange(8) + 0.5)
    vc = -1.0 + b.dv * (np.arange(8) + 0.5)
    xx, vv = np.meshgrid(xc, vc, indexing="ij")
    n = xx.size
    e = ParticleEnsemble(x=xx.ravel(), v=vv.ravel(),
                         f_like=np.ones(n), g_like=np.ones(n))
    est = osde_linear(e, b)
    np.testing.assert_allclose(est.values, 1.0 / DOM.area, atol=1e-12)


def test_osde_linear_in_weights_and_permutation_invariant():
    b = _basis()
    rng = np.random.default_rng(2)
    n = 500
    x = rng.uniform(0, 2, n)
    v = rng.uniform(-1, 1, n)
    w = rng.random(n) + 0.5
    e1 = ParticleEnsemble(x=x, v=v, f_like=3.0 * w, g_like=np.ones(n))
    e2 = ParticleEnsemble(x=x, v=v, f_like=w, g_like=np.ones(n))
    a = osde_linear(e1, b)
    c = osde_linear(e2, b)
    np.testing.assert_allclose(a.values, 3.0 * c.values, rtol=1e-12)
    perm = rng.permutation(n)
    e3 = ParticleEnsemble(x=x[perm], v=v[perm], f_like=w[perm],
                          g_like=np.ones(n))
    d = osde_linear(e3, b)
    np.testing.assert_allclose(d.values, c.values, atol=1e-15)


def _bilinear_test_density(nx=16, nv=17, seed=5):
    rng = np.random.default_rng(seed)
    vals = rng.random((nx, nv)) + 0.3
    return normalize_to_sampling_density(GriddedDensity(DOM, vals))


def test_osde_recovers_sampled_bilinear_density():
    g = _bilinear_test_density()
    sampler = build_sampler(g)
    basis = LinearSplineBasis2D(DOM, g.nx, g.nv)
    e = rosenblatt_sample(sampler, generate_pairs(Sobol(skip=1), 1 << 14))
    # unit weights: the estimate targets g
    est = osde_linear(replace(e, f_like=e.g_like), basis)
    err = l2_norm(basis, est.values - g.values) / l2_norm(basis, g.values)
    assert err < 0.02
    # trapezoid mass close to 1
    assert est.mass() == pytest.approx(1.0, abs=3.0 / np.sqrt(e.n_p))


def test_osde_sobol_beats_pseudorandom():
    g = _bilinear_test_density()
    sampler = build_sampler(g)
    basis = LinearSplineBasis2D(DOM, g.nx, g.nv)
    n = 10_000
    e_q = rosenblatt_sample(sampler, generate_pairs(Sobol(skip=1), n))
    e_r = rosenblatt_sample(sampler, generate_pairs(PseudoRandom(seed=11), n))
    # unit weights: the estimates target g
    err_q, err_r = (l2_norm(basis, osde_linear(replace(e, f_like=e.g_like), basis).values
                            - g.values) for e in (e_q, e_r))
    assert err_q < err_r


# --- ridge interpolation ------------------------------------------------------------

def test_ridge_interpolates_node_samples_exactly():
    b = _basis(nx=6, nv=5)
    xx, vv = np.meshgrid(b.dx * np.arange(6), -1.0 + b.dv * np.arange(5),
                         indexing="ij")
    rng = np.random.default_rng(3)
    vals = rng.random((6, 5))
    fit = bilinear_ridge_fit(xx.ravel(), vv.ravel(), vals.ravel(), b, lam=0.0)
    np.testing.assert_allclose(fit.values, vals, atol=1e-10)


def test_ridge_wellposed_near_machine_recovery():
    b = _basis(nx=8, nv=8)
    truth = _bilinear_test_density(nx=8, nv=8, seed=7)
    rng = np.random.default_rng(8)
    n = 4 * 64
    x = rng.uniform(0, 2, n)
    v = rng.uniform(-1, 1, n)
    y = truth.bilinear_at(x, v)
    fit = bilinear_ridge_fit(x, v, y, b, lam=1e-12)
    np.testing.assert_allclose(fit.values, truth.values, atol=1e-6)


def test_ridge_break_even_regimes():
    # error drops by orders of magnitude once samples exceed the dof count
    b = _basis(nx=8, nv=8)
    truth = _bilinear_test_density(nx=8, nv=8, seed=9)
    rng = np.random.default_rng(10)

    def err_at(n, lam):
        x = rng.uniform(0, 2, n)
        v = rng.uniform(-1, 1, n)
        fit = bilinear_ridge_fit(x, v, truth.bilinear_at(x, v), b, lam=lam)
        return np.max(np.abs(fit.values - truth.values))

    ill = err_at(16, None)       # n << dof: regularized, poor
    well = err_at(8 * 64, 1e-12)  # n >> dof: interpolation regime
    assert well < 1e-6
    assert ill > 1e-3
    assert ill / well > 1e3


def test_ridge_norm_monotone_in_lambda():
    b = _basis(nx=6, nv=6)
    rng = np.random.default_rng(12)
    n = 30  # fewer samples than the 36 dof
    x = rng.uniform(0, 2, n)
    v = rng.uniform(-1, 1, n)
    y = rng.random(n)
    norms = []
    for lam in (1e-10, 1e-6, 1e-3, 1e-1, 10.0):
        fit = bilinear_ridge_fit(x, v, y, b, lam=lam)
        norms.append(np.sum(fit.values ** 2))
    assert all(a >= b_ for a, b_ in zip(norms, norms[1:]))


def test_ridge_singular_without_regularization():
    b = _basis(nx=8, nv=8)
    rng = np.random.default_rng(13)
    n = 10  # rank-deficient design
    x = rng.uniform(0, 2, n)
    v = rng.uniform(-1, 1, n)
    with pytest.raises(SingularSystem):
        bilinear_ridge_fit(x, v, np.ones(n), b, lam=0.0)


def test_ridge_default_lambda_kicks_in_when_underdetermined():
    b = _basis(nx=8, nv=8)
    rng = np.random.default_rng(14)
    n = 20
    x = rng.uniform(0, 2, n)
    v = rng.uniform(-1, 1, n)
    fit = bilinear_ridge_fit(x, v, np.ones(n), b, lam=None)
    assert np.all(np.isfinite(fit.values))


# --- spline mode error ----------------------------------------------------------------

def test_spline_mode_error_constants():
    # kh/2 = 1, linear splines: 1 - sinc(1)^2
    assert spline_mode_error(2.0, 1.0, 1) == pytest.approx(0.2919, abs=5e-5)
    # kh/2 = 1/32 after 32x padding
    assert spline_mode_error(1.0 / 16.0, 1.0, 1) == pytest.approx(3.2548e-4,
                                                                  rel=1e-4)
    assert spline_mode_error(0.0, 0.3, 1) == 0.0
    assert spline_mode_error(2.0, 1.0, 0) == pytest.approx(1 - np.sin(1.0),
                                                           rel=1e-12)


def test_cic_moments_expected_value():
    # moments of a uniform marker cloud approach integral of N_ij over the box
    b = _basis(nx=6, nv=7)
    rng = np.random.default_rng(15)
    n = 200_000
    x = rng.uniform(0, 2, n)
    v = rng.uniform(-1, 1, n)
    m = cic_moments(b, x, v, 1.0)
    expect_x = b.dx / DOM.area  # integral of one periodic hat / area
    interior = m[:, 1:-1]
    np.testing.assert_allclose(interior, expect_x * b.dv, rtol=0.05)
    np.testing.assert_allclose(m[:, 0], expect_x * b.dv / 2, rtol=0.08)
