import numpy as np
import pytest

from oracles import ks_statistic_two_sample, ks_statistic_uniform
from vpqmc.core import InitialCondition, PhaseSpaceDomain
from vpqmc.coupling import HandoffConfig, handoff, run_coupled, run_pic
from vpqmc.lowdisc import Sobol
from vpqmc import pic, spectral

MAXWELL = InitialCondition(epsilon=0.0, k=0.5)
DOM = PhaseSpaceDomain(0.0, 4 * np.pi, -6.5, 6.5)


def _maxwell_state(nx=32, nv=32):
    return spectral.state_from_initial_condition(MAXWELL, DOM, nx, nv)


def test_handoff_config_invariants():
    with pytest.raises(ValueError):
        HandoffConfig(t0=1.0, n_p=0, n_pad=32, sequence=Sobol(), n_f=16)
    with pytest.raises(ValueError):
        HandoffConfig(t0=1.0, n_p=10, n_pad=0, sequence=Sobol(), n_f=16)


def test_handoff_maxwellian_statistics():
    state = _maxwell_state()
    cfg = HandoffConfig(t0=0.0, n_p=20_000, n_pad=8, sequence=Sobol(skip=1),
                        n_f=16)
    e = handoff(state, cfg)
    # velocity variance of the unit Maxwellian
    sigma = np.std(e.v ** 2) / np.sqrt(e.n_p)
    assert np.var(e.v) == pytest.approx(1.0, abs=3 * sigma + 5e-3)
    # x uniform at the 1% KS level
    assert ks_statistic_uniform(e.x, 0.0, DOM.length) <= 1.63 / np.sqrt(e.n_p)


def test_handoff_preserves_mass_and_kinetic_energy():
    state = _maxwell_state()
    cfg = HandoffConfig(t0=0.0, n_p=30_000, n_pad=8, sequence=Sobol(skip=1),
                        n_f=16)
    e = handoff(state, cfg)
    f_fine = spectral.zero_pad(state, cfg.n_pad)
    assert abs(pic.total_mass(e) - f_fine.mass()) <= 3.0 / np.sqrt(e.n_p)
    h_grid = spectral.kinetic_energy(state)
    summand = 0.5 * e.v ** 2 * e.weights()
    sigma = np.std(summand) / np.sqrt(e.n_p)
    assert abs(pic.kinetic_energy(e) - h_grid) <= 3 * sigma + 1e-3


def test_handoff_padding_statistically_indistinguishable():
    # band-limited state: padding adds no information; two-sample KS on the
    # x and v marginals stays below the 1% critical value
    state = _maxwell_state(16, 16)
    n = 8192
    e1 = handoff(state, HandoffConfig(t0=0.0, n_p=n, n_pad=1,
                                      sequence=Sobol(skip=1), n_f=16))
    e32 = handoff(state, HandoffConfig(t0=0.0, n_p=n, n_pad=32,
                                       sequence=Sobol(skip=1), n_f=16))
    crit = 1.63 * np.sqrt(2.0 / n)
    assert ks_statistic_two_sample(e1.x, e32.x) <= crit
    assert ks_statistic_two_sample(e1.v, e32.v) <= crit


def test_handoff_determinism():
    state = _maxwell_state()
    cfg = HandoffConfig(t0=0.0, n_p=4096, n_pad=4, sequence=Sobol(skip=7),
                        n_f=16)
    a = handoff(state, cfg)
    b = handoff(state, cfg)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.f_like, b.f_like)
    np.testing.assert_array_equal(a.g_like, b.g_like)


def test_handoff_preserves_negative_likelihoods():
    # inject a negative blob: markers sampled there carry w < 0 while the
    # sampling likelihood stays positive
    state = _maxwell_state()
    x = state.x_nodes()[:, None]
    v = state.v_nodes()[None, :]
    # dip into the tail where the Maxwellian is ~1e-4
    state.values = state.values - 0.02 * np.exp(-((x - 6.0) ** 2 + (v - 4.0) ** 2))
    cfg = HandoffConfig(t0=0.0, n_p=20_000, n_pad=4, sequence=Sobol(skip=1),
                        n_f=16)
    e = handoff(state, cfg)
    assert np.all(e.g_like > 0)
    assert np.any(e.f_like < 0)
    w = e.weights()
    assert np.any(w < 0)
    assert np.all(np.isfinite(w))


def test_run_pic_emits_cadence_and_star_disc():
    state = _maxwell_state()
    e = handoff(state, HandoffConfig(t0=0.0, n_p=2000, n_pad=2,
                                     sequence=Sobol(skip=1), n_f=16))
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 16)
    start = e.copy()
    records = run_pic(e, solver, pic.IntegratorKind.RUTH3, dt=0.1,
                      t_start=0.0, t_max=0.5, out_stride=1,
                      star_disc_period=2, star_disc_window=(0, 2, -1, 1))
    assert [round(r.t, 10) for r in records] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert [r.star_disc is not None for r in records] == [True, False] * 3
    # an array window gives the records of the tuple window
    from_array = run_pic(start, solver, pic.IntegratorKind.RUTH3, dt=0.1,
                         t_start=0.0, t_max=0.5, out_stride=1, star_disc_period=2,
                         star_disc_window=np.array([0, 2, -1, 1.0]))
    assert from_array == records
    # every star_disc_period-th emitted record, also after a partial last stride
    records = run_pic(e, solver, pic.IntegratorKind.RUTH3, dt=0.1,
                      t_start=0.5, t_max=1.2, out_stride=2,
                      star_disc_period=2, star_disc_window=(0, 2, -1, 1))
    assert [round(r.t, 10) for r in records] == [0.5, 0.7, 0.9, 1.1, 1.2]
    assert [r.star_disc is not None for r in records] == [True, False, True, False, True]


@pytest.mark.parametrize("kind,per_step", [(pic.IntegratorKind.RUTH3, 3),
                                            (pic.IntegratorKind.SYMPLECTIC_EULER, 1)])
def test_run_pic_shares_the_emit_deposit_with_the_push(monkeypatch, kind, per_step):
    # the emitted record's field and the next push's first field are one
    # deposit at the same positions
    calls = []
    deposit = pic.deposit_rhs
    monkeypatch.setattr(pic, "deposit_rhs",
                        lambda *args: calls.append(1) or deposit(*args))
    e = handoff(_maxwell_state(), HandoffConfig(t0=0.0, n_p=2000, n_pad=2,
                                                sequence=Sobol(skip=1), n_f=16))
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 16)
    k = 4
    run_pic(e, solver, kind, dt=0.1, t_start=0.0, t_max=k * 0.1)
    assert len(calls) == 1 + per_step * k


def test_run_coupled_equilibrium_stays_flat():
    cfg = HandoffConfig(t0=1.0, n_p=20_000, n_pad=4, sequence=Sobol(skip=1),
                        n_f=16)
    result = run_coupled(MAXWELL, DOM, 32, 32, 0.1, 2.0, cfg)
    segs = [seg for seg, _ in result.rows]
    assert "spectral" in segs and "pic" in segs
    for seg, r in result.rows:
        if seg == "spectral":
            assert r.field_energy <= 1e-12
        else:
            # sampling-noise floor: fluctuation field energy scales like
            # 1/n_p (measured ~3e-6 at n_p = 2e4; generous factor 10)
            assert r.field_energy <= 3e-5
    # time axis is contiguous across the switch
    times = [r.t for _, r in result.rows]
    assert times == sorted(times)
    assert result.rows[-1][1].t == pytest.approx(2.0)


def test_run_coupled_requires_t0_before_tmax():
    cfg = HandoffConfig(t0=3.0, n_p=100, n_pad=2, sequence=Sobol(skip=1),
                        n_f=16)
    with pytest.raises(ValueError):
        run_coupled(MAXWELL, DOM, 16, 16, 0.1, 2.0, cfg)


def test_partial_step_rejected_before_any_record():
    # t0 = 0.25 is 2.5 steps of 0.1: rounding would hand off the t = 0.2
    # state labelled 0.25 and end the PIC segment short of t_max
    rows = []
    cfg = HandoffConfig(t0=0.25, n_p=200, n_pad=2, sequence=Sobol(skip=1),
                        n_f=8)
    with pytest.raises(ValueError, match="whole number"):
        run_coupled(MAXWELL, DOM, 16, 16, 0.1, 0.5, cfg,
                    on_spectral_record=lambda r, s: rows.append(r),
                    on_pic_record=lambda r, e: rows.append(r))
    assert rows == []
    with pytest.raises(ValueError, match="whole number"):
        spectral.run_spectral(MAXWELL, DOM, 16, 16, 0.1, 0.25,
                              on_record=lambda r, s: rows.append(r))
    e = handoff(_maxwell_state(16, 16), cfg)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 8)
    with pytest.raises(ValueError, match="whole number"):
        run_pic(e, solver, pic.IntegratorKind.RUTH3, dt=0.1, t_start=0.25,
                t_max=0.5, on_record=lambda r, e: rows.append(r))
    assert rows == []
    # 0.3 / 0.1 is 2.9999999999999996 in binary floating point
    cfg = HandoffConfig(t0=0.3, n_p=200, n_pad=2, sequence=Sobol(skip=1),
                        n_f=8)
    result = run_coupled(MAXWELL, DOM, 16, 16, 0.1, 0.5, cfg)
    assert [seg for seg, _ in result.rows] == ["spectral"] * 4 + ["pic"] * 3
    assert [round(r.t, 10) for _, r in result.rows] == [
        0.0, 0.1, 0.2, 0.3, 0.3, 0.4, 0.5]


def test_field_solvers_agree_on_smooth_density():
    # the Fourier solve and the spline weak solve must produce the same
    # field for the same charge fluctuation, otherwise the handoff cannot
    # be continuous; load vector by exact quadrature of the fluctuation
    L = DOM.length
    kappa = 2 * 2 * np.pi / L
    amp = 0.05

    state = spectral.SpectralState(DOM, np.zeros((64, 8)))
    rho = 1.0 + amp * np.cos(kappa * state.x_nodes())
    state.values = np.tile(rho[:, None], (1, 8)) / (state.dv * 8)
    e_spectral = spectral.poisson_fourier(state)

    solver = pic.SplinePoissonSolver.build(0.0, L, 32)
    xi = solver.dx * np.arange(solver.n_f)
    shape = np.sinc(kappa * solver.dx / 2 / np.pi) ** 4
    load = -1.0 * amp * solver.dx * shape * np.cos(kappa * xi)  # q = -1
    field = pic.solve_poisson_fem(solver, load)
    # agreement at the n_f=32 spline discretization error (~1e-4 relative)
    np.testing.assert_allclose(field.E(state.x_nodes()), e_spectral,
                               atol=3e-4 * amp / kappa)


def test_landau_coupling_tracks_spectral_envelope():
    # strong-Landau handoff at t0 = 30 (a moment of small amplitudes): the
    # PIC segment must stay within an order of magnitude of the continued
    # spectral field-energy envelope up to t = 40
    ic = InitialCondition(epsilon=0.5, k=0.5)
    ref_records, _ = spectral.run_spectral(ic, DOM, 64, 64, 0.05, 40.0,
                                           out_stride=10)
    cfg = HandoffConfig(t0=30.0, n_p=100_000, n_pad=32,
                        sequence=Sobol(skip=1), n_f=16)
    result = run_coupled(ic, DOM, 64, 64, 0.05, 40.0, cfg, out_stride=10)
    ref = {round(r.t, 6): r.field_energy for r in ref_records}
    checked = 0
    for seg, r in result.rows:
        if seg != "pic":
            continue
        ratio = r.field_energy / ref[round(r.t, 6)]
        assert 0.1 < ratio < 10.0, f"t={r.t}: ratio {ratio}"
        checked += 1
    assert checked > 10
