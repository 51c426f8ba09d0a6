import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harness import spline_mode_error
from oracles import (fit_loglog_slope, spectral_step_order3_complex_reference,
                     zero_pad_complex_reference, zero_pad_two_step_reference)
from vpqmc import spectral
from vpqmc.core import InitialCondition, PhaseSpaceDomain
from vpqmc.spectral import (NonNeutralPlasmaWarning, RUTH3, SpectralState,
                            advance, advect_x, charge_density, field_energy, hk_variation,
                            kick_v, kinetic_energy, poisson_fourier,
                            run_spectral, state_from_initial_condition,
                            step_order3, total_mass, zero_pad)

LANDAU = InitialCondition(epsilon=0.5, k=0.5)
DOM = PhaseSpaceDomain(0.0, 4 * np.pi, -6.5, 6.5)


def _maxwellian_state(nx=32, nv=64, domain=DOM):
    return state_from_initial_condition(InitialCondition(epsilon=0.0, k=0.5),
                                        domain, nx, nv)


def test_split_coefficients_validated():
    # one stage count, and each set of fractions sums to 1
    assert len(RUTH3.drift) == len(RUTH3.kick) == 3
    assert abs(sum(RUTH3.drift) - 1.0) <= 1e-12
    assert abs(sum(RUTH3.kick) - 1.0) <= 1e-12


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
    s = replace(s, values=np.cos(kappa * x) * phi)
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
    return replace(s, values=np.tile(rho_fn(x)[:, None], (1, nv)) / (s.dv * nv))


def test_poisson_cosine_fluctuation():
    # Gauss pairing: dE/dx = q (rho - 1); for rho - 1 = cos x and q = -1
    # the potential is -cos x and E = -sin x
    s = _state_with_rho(lambda x: 1.0 + np.cos(x))
    e = poisson_fourier(s)
    np.testing.assert_allclose(e, -np.sin(s.x_nodes()), atol=1e-12)


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
    with pytest.warns(NonNeutralPlasmaWarning) as record:
        poisson_fourier(s)
    assert record[0].filename == __file__  # names the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poisson_fourier(s)  # the state's solve is a memo: no second warning


def test_gauss_law_consistency():
    # dE/dx must equal q*(rho - 1) spectrally (the physical pairing)
    s = _state_with_rho(lambda x: 1.0 + 0.2 * np.cos(3 * x) - 0.05 * np.sin(x))
    q = -1.0
    e = poisson_fourier(s)
    kx = s.kappa_x()
    de = np.fft.irfft(1j * kx * np.fft.rfft(e), s.nx)
    np.testing.assert_allclose(de, q * (charge_density(s) - 1.0), atol=1e-12)


# --- kick ---------------------------------------------------------------------

def test_kick_zero_field_identity():
    # a Maxwellian's own field is zero to rounding
    s = _maxwellian_state(nx=16, nv=32)
    out = kick_v(s, 0.5)
    np.testing.assert_allclose(out.values, s.values, atol=1e-14)


def test_kick_constant_field_shifts_gaussian():
    # f = (1 + a cos x) M(v) has the electron field E = -a sin x, so the
    # kick moves column i to (1 + a cos x_i) M(v - a dt sin x_i)
    a, dt = 0.1, 0.3
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -6.5, 6.5)
    s = _maxwellian_state(nx=8, nv=64, domain=dom)
    x = s.x_nodes()[:, None]
    v = s.v_nodes()[None, :]
    s = replace(s, values=(1.0 + a * np.cos(x)) * np.exp(-0.5 * v ** 2) / np.sqrt(2 * np.pi))
    out = kick_v(s, dt)
    expect = ((1.0 + a * np.cos(x)) * np.exp(-0.5 * (v - a * dt * np.sin(x)) ** 2)
              / np.sqrt(2 * np.pi))
    np.testing.assert_allclose(out.values, expect, atol=1e-8)


def test_kick_preserves_spatial_density():
    s = state_from_initial_condition(LANDAU, DOM, 32, 64)
    out = kick_v(s, 0.25)
    np.testing.assert_allclose(charge_density(out), charge_density(s), atol=1e-12)
    assert total_mass(out) == pytest.approx(total_mass(s), rel=1e-13)


# --- composite step -------------------------------------------------------------

def _complex_reference(s, dt, n_steps):
    ref = s.values
    for _ in range(n_steps):
        ref = spectral_step_order3_complex_reference(
            SpectralState(s.domain, ref), dt)
    return ref


@pytest.mark.parametrize("nx,nv", [(32, 32), (17, 15)])
def test_step_order3_matches_complex_reference(nx, nv):
    # one advance of 200 steps and 200 single steps (each starting from
    # a new v transform of its values) against the complex-FFT step, and
    # against each other
    s0 = state_from_initial_condition(LANDAU, DOM, nx, nv)
    ref = _complex_reference(s0, 0.05, 200)
    fused = advance(s0, 0.05, 200)
    s = s0
    for _ in range(200):
        s = step_order3(s, 0.05)
    np.testing.assert_allclose(fused.values, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(s.values, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fused.values, s.values, rtol=0.0, atol=1e-13)
    assert fused.t == pytest.approx(s.t) == pytest.approx(10.0)


def test_advance_cache_keeps_domains_apart():
    # two domains on the same (nx, nv, dt) need different drift tables
    other = PhaseSpaceDomain(0.0, 8 * np.pi, -8.0, 8.0)
    states = [state_from_initial_condition(LANDAU, dom, 16, 16)
              for dom in (DOM, other)]
    refs = [_complex_reference(s, 0.1, 6) for s in states]
    for _ in range(3):
        states = [advance(s, 0.1, 2) for s in states]
    for s, ref in zip(states, refs):
        np.testing.assert_allclose(s.values, ref, rtol=0.0, atol=1e-12)


def test_advance_returns_fresh_arrays():
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    before = s.values.copy()
    first = advance(s, 0.1, 1)
    expect = first.values.copy()
    with pytest.raises(ValueError):  # a result is read-only, so the cache stays intact
        first.values *= 3.0
    np.testing.assert_array_equal(advance(s, 0.1, 1).values, expect)
    np.testing.assert_array_equal(s.values, before)
    with pytest.raises(ValueError):
        advance(s, 0.1, 0)


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


def test_l2_never_grows_and_mass_constant():
    # kicks and drifts keep the L2 norm to rounding and the filter only
    # damps, so no step may raise it
    s = state_from_initial_condition(LANDAU, DOM, 32, 32)
    m0 = total_mass(s)
    l2 = np.linalg.norm(s.values)
    for _ in range(20):
        s = step_order3(s, 0.05)
        l2_next = np.linalg.norm(s.values)
        assert l2_next <= l2 * (1.0 + 1e-14)
        l2 = l2_next
    assert total_mass(s) == pytest.approx(m0, rel=1e-12)


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
        s = replace(s, values=np.tile(np.sin(s.x_nodes())[:, None], (1, 16)))
        assert hk_variation(s) == pytest.approx(8.0, rel=0.01)


def test_hk_variation_constant_zero():
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(dom, np.full((32, 16), 0.7))
    assert hk_variation(s) == pytest.approx(0.0, abs=1e-12)


def test_hk_variation_two_mode_analytic():
    # f = cos(2x): V = int |2 sin(2x)| * v-span = 8 * 2 = 16 on [0,2pi]x[-1,1]
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(dom, np.zeros((128, 8)))
    s = replace(s, values=np.tile(np.cos(2 * s.x_nodes())[:, None], (1, 8)))
    assert hk_variation(s) == pytest.approx(16.0, rel=0.01)


# --- zero padding ----------------------------------------------------------------

def test_zero_pad_identity():
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    out = zero_pad(s, 1)
    assert out.values.shape == (16, 17)
    assert np.array_equal(out.values[:, :16], s.values)
    assert np.array_equal(out.values[:, 16], s.values[:, 0])


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 40), nv=st.integers(2, 40),
       n_pad=st.sampled_from([1, 2, 3, 8]), seed=st.integers(0, 2 ** 32 - 1))
def test_zero_pad_matches_complex_reference(nx, nv, n_pad, seed):
    values = np.random.default_rng(seed).standard_normal((nx, nv))
    fine = zero_pad(SpectralState(DOM, values), n_pad)
    ref = zero_pad_complex_reference(values, n_pad)
    assert fine.values.shape == ref.shape == (n_pad * nx, n_pad * nv + 1)
    np.testing.assert_allclose(fine.values, ref, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(values)))


@pytest.mark.parametrize("n_pad", [1, 2, 3, 32])
@pytest.mark.parametrize("nx, nv", [(8, 6), (7, 9), (6, 5), (9, 10), (32, 32)])
def test_zero_pad_matches_the_two_step_form_bitwise(nx, nv, n_pad):
    # even and odd lengths on both axes; the output is written in place
    values = np.random.default_rng(100 * nx + nv).standard_normal((nx, nv))
    fine = zero_pad(SpectralState(DOM, values), n_pad).values
    ref = zero_pad_two_step_reference(values, n_pad)
    assert fine.shape == ref.shape == (n_pad * nx, n_pad * nv + 1)
    np.testing.assert_array_equal(fine.view(np.uint64), ref.view(np.uint64))


def test_zero_pad_single_mode():
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    s = SpectralState(dom, np.zeros((16, 8)))
    s = replace(s, values=np.tile(np.cos(3 * s.x_nodes())[:, None], (1, 8)))
    fine = zero_pad(s, 4)
    assert fine.values.shape == (64, 33)
    x_fine = dom.length / 64 * np.arange(64)
    np.testing.assert_allclose(fine.values[:, 0], np.cos(3 * x_fine), atol=1e-10)


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
    s = replace(s, values=np.tile(np.cos(k_star * s.x_nodes())[:, None], (1, 4)))
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


def test_run_output_stride_records_match_every_step_run():
    fields = ("t", "field_energy", "kinetic_energy", "total_mass", "entropy")
    every, end_every = run_spectral(LANDAU, DOM, 16, 16, 0.1, 2.2)
    strided, end_strided = run_spectral(LANDAU, DOM, 16, 16, 0.1, 2.2,
                                        out_stride=5)
    # steps 0, 5, 10, 15, 20 and the partial last stride's step 22; every
    # step makes its values whether it is emitted or not, so bit for bit
    assert len(strided) == 6
    for got, want in zip(strided, every[::5] + every[-1:]):
        for name in fields:
            assert getattr(got, name) == getattr(want, name)
    np.testing.assert_array_equal(end_strided.values, end_every.values)


def test_run_solves_each_emitted_field_once(monkeypatch):
    calls = []
    solve = spectral._solve_fourier
    monkeypatch.setattr(spectral, "_solve_fourier",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    records, end = run_spectral(LANDAU, DOM, 16, 16, 0.1, 1.0, out_stride=2)
    # one solve per record and per kick, less the first kick after each of
    # the five records before the last, which reuses its record's solve
    assert len(calls) == len(records) + 3 * 10 - 5
    # the reused fields give the bits of fresh solves: advance solves the
    # field of every state it kicks, and no record's
    s0 = state_from_initial_condition(LANDAU, DOM, 16, 16)
    for n, rec in enumerate(records[1:], 1):
        assert rec.field_energy == field_energy(advance(s0, 0.1, 2 * n))
    np.testing.assert_array_equal(end.values, advance(s0, 0.1, 10).values)


@pytest.mark.parametrize("out_stride", [1, 3, 10])
def test_run_makes_13_full_grid_transforms_per_step(monkeypatch, out_stride):
    full_grid = []
    for name in ("rfft", "irfft"):
        def counted(a, *args, _transform=getattr(np.fft, name), **kwargs):
            if np.ndim(a) == 2:
                full_grid.append(1)
            return _transform(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    run_spectral(LANDAU, DOM, 16, 16, 0.1, 1.0, out_stride=out_stride)
    # the v transform of the initial values, then 13 for each of 10 steps
    assert len(full_grid) == 1 + 13 * 10


def test_every_solved_state_warns_once_when_nonneutral():
    # 10 steps of 3 kicks, each on a new state, plus the last emitted state,
    # whose field only the diagnostics solve; the first kick after an
    # emitted state reuses that state's solve and warns no more
    ic = InitialCondition(epsilon=1e-3, k=0.3, n_b=0.1, sigma_b=0.3, v_b=4.5)
    dom = PhaseSpaceDomain(0.0, 2 * np.pi / 0.3, -10.0, 10.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_spectral(ic, dom, 32, 32, 0.1, 1.0, out_stride=2)
    assert [w.category for w in caught] == [NonNeutralPlasmaWarning] * (3 * 10 + 1)


def test_rebinding_values_drops_the_solved_field():
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    field_energy(s)
    s = replace(s, values=state_from_initial_condition(InitialCondition(0.1, 0.5), DOM, 16, 16).values)
    # the kick solves the new values, as a state that never held a field does
    np.testing.assert_array_equal(advance(s, 0.1, 1).values,
                                  advance(SpectralState(DOM, s.values), 0.1, 1).values)


@pytest.mark.parametrize("name", ["domain", "values", "t"])
def test_state_is_frozen(name):
    s = state_from_initial_condition(LANDAU, DOM, 8, 8)
    with pytest.raises(FrozenInstanceError):
        setattr(s, name, getattr(s, name))


def test_state_values_and_field_are_read_only():
    a = np.full((8, 4), 1.0 / DOM.v_span)  # a neutral plasma
    s = SpectralState(DOM, a)
    with pytest.raises(ValueError):
        s.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        poisson_fourier(s)[0] = 2.0
    assert a.flags.writeable  # the caller's own base array is left as it was


def test_a_replaced_state_solves_its_own_field():
    s = _state_with_rho(lambda x: 1.0 + np.cos(x))
    e = poisson_fourier(s)
    r = replace(s, values=_state_with_rho(lambda x: 1.0 + 0.5 * np.cos(x)).values)
    assert poisson_fourier(r) is not e
    np.testing.assert_allclose(poisson_fourier(r), -0.5 * np.sin(r.x_nodes()), atol=1e-12)
    assert poisson_fourier(s) is e


def test_poisson_fourier_solves_once_per_state(monkeypatch):
    calls = []
    solve = spectral._solve_fourier
    monkeypatch.setattr(spectral, "_solve_fourier",
                        lambda s: calls.append(s) or solve(s))
    s = state_from_initial_condition(LANDAU, DOM, 16, 16)
    e = poisson_fourier(s)
    assert poisson_fourier(s) is e
    field_energy(s)
    assert calls == [s]


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
