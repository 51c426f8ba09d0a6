import numpy as np
import pytest

from oracles import fit_loglog_slope
from vpqmc.core import InitialCondition, PhaseSpaceDomain, Species
from vpqmc.densest import spline_mode_error
from vpqmc.spectral import (NonNeutralPlasmaWarning, RUTH3, SpectralState,
                            SplitCoefficients, advect_x, apply_filter,
                            charge_density, field_energy, hk_variation,
                            kick_v, kinetic_energy, poisson_fourier,
                            run_spectral, state_from_initial_condition,
                            step_order3, total_mass, zero_pad)

LANDAU = InitialCondition(epsilon=0.5, k=0.5)
DOM = PhaseSpaceDomain(0.0, 4 * np.pi, -6.5, 6.5)


def _maxwellian_state(nx=32, nv=64, domain=DOM):
    return state_from_initial_condition(InitialCondition(epsilon=0.0, k=0.5),
                                        domain, nx, nv)


def test_split_coefficients_validated():
    with pytest.raises(ValueError):
        SplitCoefficients(drift=(0.5, 0.6), kick=(0.5, 0.5))
    assert sum(RUTH3.drift) == pytest.approx(1.0)
    assert sum(RUTH3.kick) == pytest.approx(1.0)


# --- advect -------------------------------------------------------------------

def test_advect_zero_dt_identity():
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    out = advect_x(s, 0.0)
    np.testing.assert_allclose(out.values, s.values, atol=1e-15)


def test_advect_single_mode_shear():
    nx, nv = 32, 48
    s = _maxwellian_state(nx, nv)
    kappa = 2 * 2 * np.pi / DOM.length
    x = s.x_nodes()[:, None]
    v = s.v_nodes()[None, :]
    phi = np.exp(-0.5 * v ** 2)
    s.values = np.cos(kappa * x) * phi
    dt = 0.37
    out = advect_x(s, dt)
    expect = np.cos(kappa * (x - v * dt)) * phi
    np.testing.assert_allclose(out.values, expect, atol=1e-10)


def test_advect_two_halves_compose():
    s = state_from_initial_condition(LANDAU, DOM, 32, 32)
    once = advect_x(s, 0.4)
    twice = advect_x(advect_x(s, 0.2), 0.2)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-13)


def test_advect_preserves_mass_and_v_moments():
    s = state_from_initial_condition(LANDAU, DOM, 32, 48)
    out = advect_x(s, 0.7)
    for p in (0, 1, 2):
        m0 = np.sum(s.values * s.v_nodes()[None, :] ** p)
        m1 = np.sum(out.values * s.v_nodes()[None, :] ** p)
        assert m1 == pytest.approx(m0, rel=1e-12, abs=1e-12)


# --- poisson ------------------------------------------------------------------

def _state_with_rho(rho_fn, nx=64, nv=16, domain=None):
    domain = domain or PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(domain, np.zeros((nx, nv)))
    x = s.x_nodes()
    # v-independent f whose trapezoid integral reproduces rho(x)
    s.values = np.tile(rho_fn(x)[:, None], (1, nv)) / (s.dv * nv)
    return s


def test_poisson_cosine_fluctuation():
    # Gauss pairing: dE/dx = q (rho - 1); for rho - 1 = cos x and q = 1
    # the potential is +cos x and E = +sin x
    s = _state_with_rho(lambda x: 1.0 + np.cos(x))
    e = poisson_fourier(s, Species(q=1.0, m=1.0))
    np.testing.assert_allclose(e, np.sin(s.x_nodes()), atol=1e-12)


def test_poisson_neutral_zero_field():
    s = _state_with_rho(lambda x: np.ones_like(x))
    e = poisson_fourier(s)
    np.testing.assert_allclose(e, 0.0, atol=1e-13)


def test_poisson_linearity_in_fluctuations():
    r1 = lambda x: 1.0 + 0.3 * np.cos(x)
    r2 = lambda x: 1.0 + 0.1 * np.sin(2 * x)
    a, b = 0.7, 1.9
    combo = lambda x: a * r1(x) + b * r2(x) - (a + b - 1.0)
    e1 = poisson_fourier(_state_with_rho(r1))
    e2 = poisson_fourier(_state_with_rho(r2))
    ec = poisson_fourier(_state_with_rho(combo))
    np.testing.assert_allclose(ec, a * e1 + b * e2, atol=1e-12)


def test_poisson_nonneutral_warns():
    s = _state_with_rho(lambda x: 1.1 + 0.0 * x)
    with pytest.warns(NonNeutralPlasmaWarning):
        poisson_fourier(s)


def test_gauss_law_consistency():
    # dE/dx must equal q*(rho - 1) spectrally (the physical pairing)
    s = _state_with_rho(lambda x: 1.0 + 0.2 * np.cos(3 * x) - 0.05 * np.sin(x))
    q = -1.0
    e = poisson_fourier(s)
    kx = s.kappa_x()
    de = np.fft.ifft(1j * kx * np.fft.fft(e)).real
    np.testing.assert_allclose(de, q * (charge_density(s) - 1.0), atol=1e-12)


# --- kick ---------------------------------------------------------------------

def test_kick_zero_field_identity():
    s = state_from_initial_condition(LANDAU, DOM, 16, 32)
    out = kick_v(s, 0.5, e_field=np.zeros(16))
    np.testing.assert_allclose(out.values, s.values, atol=1e-14)


def test_kick_constant_field_shifts_gaussian():
    s = _maxwellian_state(nx=8, nv=64)
    e0 = 0.7
    dt = 0.3
    out = kick_v(s, dt, e_field=np.full(8, e0))
    shift = -1.0 * e0 * dt  # q/m = -1
    v = s.v_nodes()
    expect = np.exp(-0.5 * (v - shift) ** 2) / np.sqrt(2 * np.pi)
    np.testing.assert_allclose(out.values, np.tile(expect, (8, 1)), atol=1e-8)


def test_kick_preserves_spatial_density():
    s = state_from_initial_condition(LANDAU, DOM, 32, 64)
    out = kick_v(s, 0.25)
    np.testing.assert_allclose(charge_density(out), charge_density(s), atol=1e-12)
    assert total_mass(out) == pytest.approx(total_mass(s), rel=1e-13)


# --- composite step -------------------------------------------------------------

def test_step_free_streaming_reduces_to_advect():
    s = state_from_initial_condition(LANDAU, DOM, 32, 32)
    stepped = step_order3(s, 0.25, force_zero_field=True)
    drifted = apply_filter(advect_x(s, 0.25))
    np.testing.assert_allclose(stepped.values, drifted.values, atol=1e-13)


def test_step_order3_self_convergence():
    def run(dt, n=64, T=1.0):
        s = state_from_initial_condition(LANDAU, DOM, n, n)
        for _ in range(int(round(T / dt))):
            s = step_order3(s, dt)
        return s.values

    dts = [0.2, 0.1, 0.05]
    errs = [np.max(np.abs(run(dt) - run(dt / 8))) for dt in dts]
    slope = fit_loglog_slope(dts, errs)
    assert slope == pytest.approx(3.0, abs=0.2)


def test_state_stays_real_and_mass_constant():
    s = state_from_initial_condition(LANDAU, DOM, 32, 32)
    m0 = total_mass(s)
    for _ in range(20):
        s = step_order3(s, 0.05)
    assert total_mass(s) == pytest.approx(m0, rel=1e-12)
    # realness is structural (arrays are float); check the transform residue
    fh = np.fft.fft2(s.values)
    back = np.fft.ifft2(fh)
    assert np.max(np.abs(back.imag)) < 1e-10


def test_subflows_preserve_l2():
    s = state_from_initial_condition(LANDAU, DOM, 32, 48)
    l2 = np.linalg.norm(s.values)
    assert np.linalg.norm(advect_x(s, 0.3).values) == pytest.approx(l2, rel=1e-10)
    assert np.linalg.norm(kick_v(s, 0.3).values) == pytest.approx(l2, rel=1e-10)


# --- Hardy-Krause variation -----------------------------------------------------

def test_hk_variation_sine():
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    for nx in (64, 128):
        s = SpectralState(dom, np.zeros((nx, 16)))
        s.values = np.tile(np.sin(s.x_nodes())[:, None], (1, 16))
        assert hk_variation(s) == pytest.approx(8.0, rel=0.01)


def test_hk_variation_constant_zero():
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(dom, np.full((32, 16), 0.7))
    assert hk_variation(s) == pytest.approx(0.0, abs=1e-12)


def test_hk_variation_two_mode_analytic():
    # f = cos(2x): V = int |2 sin(2x)| * v-span = 8 * 2 = 16 on [0,2pi]x[-1,1]
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(dom, np.zeros((128, 8)))
    s.values = np.tile(np.cos(2 * s.x_nodes())[:, None], (1, 8))
    assert hk_variation(s) == pytest.approx(16.0, rel=0.01)


# --- zero padding ----------------------------------------------------------------

def test_zero_pad_identity():
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    out = zero_pad(s, 1)
    assert out.values.shape == (16, 17)
    np.testing.assert_allclose(out.values[:, :16], s.values, atol=1e-12)
    np.testing.assert_allclose(out.values[:, 16], s.values[:, 0], atol=1e-12)


def test_zero_pad_single_mode():
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(dom, np.zeros((16, 8)))
    s.values = np.tile(np.cos(3 * s.x_nodes())[:, None], (1, 8))
    fine = zero_pad(s, 4)
    assert fine.values.shape == (64, 33)
    np.testing.assert_allclose(fine.values[:, 0], np.cos(3 * fine.x_nodes()),
                               atol=1e-10)


def test_zero_pad_preserves_original_nodes():
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    fine = zero_pad(s, 8)
    np.testing.assert_allclose(fine.values[::8, :-1][:, ::8], s.values, atol=1e-10)


def test_zero_pad_mass_preserved():
    s = state_from_initial_condition(LANDAU, DOM, 32, 32)
    fine = zero_pad(s, 4)
    assert fine.mass() == pytest.approx(total_mass(s), rel=1e-10)


def _linear_interpolant_mode(values, length, kappa):
    """Exact Fourier coefficient (1/L) int interp(x) e^{-i kappa x} dx of the
    periodic piecewise-linear interpolant through values."""
    n = len(values)
    h = length / n
    xa = h * np.arange(n)
    fa = values
    fb = np.roll(values, -1)
    kh = kappa * h
    i0 = (1.0 - np.exp(-1j * kh)) / (1j * kappa)
    i1 = -h * np.exp(-1j * kh) / (1j * kappa) - (1.0 - np.exp(-1j * kh)) / kappa ** 2
    cells = np.exp(-1j * kappa * xa) * (fa * i0 + (fb - fa) / h * i1)
    return np.sum(cells) / length


def test_zero_pad_linear_respline_mode_error():
    # attenuation of the 'highest mode' (k h_orig / 2 = 1) after re-expanding
    # the 32x padded values as a linear spline: about 1 - sinc(1/32)^2
    n_pad = 32
    nx = 32
    length = 2 * np.pi
    dom = PhaseSpaceDomain(0.0, length, -1.0, 1.0)
    h = length / nx
    k_star = int(np.floor(2.0 / h))  # largest integer mode with k h / 2 <= 1
    s = SpectralState(dom, np.zeros((nx, 4)))
    s.values = np.tile(np.cos(k_star * s.x_nodes())[:, None], (1, 4))
    fine = zero_pad(s, n_pad)
    coeff = _linear_interpolant_mode(fine.values[:, 0], length, float(k_star))
    measured = abs(1.0 - coeff / 0.5)
    h_fine = length / (n_pad * nx)
    predicted = spline_mode_error(k_star, h_fine, 1)
    assert measured == pytest.approx(predicted, rel=0.02)
    assert predicted <= 1.0 - np.sinc(1.0 / 32 / np.pi) ** 2 + 1e-6
    assert measured <= 3.3e-4


# --- run loop --------------------------------------------------------------------

def test_run_equilibrium_field_stays_zero():
    ic = InitialCondition(epsilon=0.0, k=0.5)
    records, state = run_spectral(ic, DOM, 32, 32, 0.05, 2.0)
    for r in records:
        assert r.field_energy <= 1e-12
    assert state.t == pytest.approx(2.0)


def test_run_emits_expected_cadence():
    records, _ = run_spectral(LANDAU, DOM, 16, 16, 0.1, 1.0, out_stride=2)
    times = [r.t for r in records]
    np.testing.assert_allclose(times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)


def test_run_hk_period_toggles_field():
    # every hk_period-th emitted record, also when the last stride is partial
    # (steps 0, 2, 4, 5 are emitted below)
    for stride, expected in ((1, [True, False, True, False, True, False]),
                             (2, [True, False, True, False])):
        records, _ = run_spectral(LANDAU, DOM, 16, 16, 0.1, 0.5,
                                  out_stride=stride, hk_period=2)
        assert [r.hk_variation is not None for r in records] == expected


def test_run_bump_on_tail_grows_then_saturates():
    ic = InitialCondition(epsilon=1e-3, k=0.3, n_b=0.1, sigma_b=0.3, v_b=4.5)
    dom = PhaseSpaceDomain(0.0, 2 * np.pi / 0.3, -10.0, 10.0)
    with pytest.warns(NonNeutralPlasmaWarning):
        # nv=32 over [-10,10] under-resolves the sigma_b=0.3 bump, so the
        # background-neutrality check reports the quadrature defect
        records, _ = run_spectral(ic, dom, 32, 32, 0.1, 40.0, out_stride=5)
    t = np.array([r.t for r in records])
    fe = np.array([r.field_energy for r in records])
    # exponential growth by orders of magnitude out of the 1e-3 seed ...
    assert fe.max() > 1e3 * fe[0]
    # ... saturating before t = 35
    assert t[np.argmax(fe)] < 35.0
    sat = fe[t >= 30.0]
    assert sat.min() > 0.2 * fe.max()


def test_energy_diagnostics_positive():
    s = state_from_initial_condition(LANDAU, DOM, 32, 32)
    assert kinetic_energy(s) > 0
    assert field_energy(s) > 0
