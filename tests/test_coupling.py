import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import ks_statistic_two_sample, ks_statistic_uniform
from vpqmc.core import InitialCondition, PhaseSpaceDomain
from vpqmc.coupling import handoff, run_coupled, run_pic
from vpqmc.lowdisc import Sobol, generate_pairs
from vpqmc import pic, sampling, spectral

MAXWELL = InitialCondition(epsilon=0.0, k=0.5)
DOM = PhaseSpaceDomain(0.0, 4 * np.pi, -6.5, 6.5)


def _maxwell_state(nx=32, nv=32):
    return spectral.state_from_initial_condition(MAXWELL, DOM, nx, nv)


def test_run_coupled_rejects_bad_sizes_before_any_record():
    rows = []
    for bad in ({"n_p": 0}, {"n_pad": 0}, {"n_f": 3}, {"out_stride": 0}):
        sizes = {"n_p": 10, "n_pad": 2, "n_f": 16} | bad
        with pytest.raises(ValueError):
            run_coupled(MAXWELL, DOM, 16, 16, 0.1, 2.0, t0=1.0, **sizes,
                        sequence=Sobol(), on_record=lambda r, carrier: rows.append(r))
    with pytest.raises(ValueError, match="out_stride"):
        spectral.run_spectral(MAXWELL, DOM, 16, 16, 0.1, 1.0, out_stride=0,
                              on_record=lambda r, s: rows.append(r))
    e = handoff(_maxwell_state(16, 16), 2, Sobol(skip=1), 200)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 8)
    with pytest.raises(ValueError, match="out_stride"):
        run_pic(e, solver, pic.IntegratorKind.RUTH3, 0.1, 0.0, 1.0, out_stride=0,
                on_record=lambda r, e: rows.append(r))
    assert rows == []


def test_handoff_maxwellian_statistics():
    state = _maxwell_state()
    e = handoff(state, 8, Sobol(skip=1), 20_000)
    # velocity variance of the unit Maxwellian
    sigma = np.std(e.v ** 2) / np.sqrt(e.n_p)
    assert np.var(e.v) == pytest.approx(1.0, abs=3 * sigma + 5e-3)
    # x uniform at the 1% KS level
    assert ks_statistic_uniform(e.x, 0.0, DOM.length) <= 1.63 / np.sqrt(e.n_p)


def test_handoff_preserves_mass_and_kinetic_energy():
    state = _maxwell_state()
    e = handoff(state, 8, Sobol(skip=1), 30_000)
    f_fine = spectral.zero_pad(state, 8)
    assert abs(pic.total_mass(e) - f_fine.mass()) <= 3.0 / np.sqrt(e.n_p)
    h_grid = spectral.kinetic_energy(state)
    summand = 0.5 * e.v ** 2 * e.weights()
    sigma = np.std(summand) / np.sqrt(e.n_p)
    assert abs(pic.kinetic_energy(e) - h_grid) <= 3 * sigma + 1e-3


def test_handoff_peak_memory_is_three_fine_grids_markers_and_one_chunk():
    # the padded density, the normalized |f| and the sampler's cum_cols;
    # six marker-length arrays (the pairs' two columns, x, v, g_like and
    # f_like); and a fixed allowance of CHUNK-length temporaries, however
    # many markers there are (mapping all markers in one pass takes about
    # 120 CHUNK-lengths of temporaries at this n_p)
    state = _maxwell_state(16, 16)
    n_pad, n_p = 16, 100_000
    grid_bytes = spectral.zero_pad(state, n_pad).values.nbytes
    bound = 3 * grid_bytes + 6 * 8 * n_p + 32 * 8 * sampling.CHUNK
    tracemalloc.start()
    try:
        handoff(state, n_pad, Sobol(skip=1), n_p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_handoff_peak_memory_is_one_fine_grid_markers_and_one_row_block():
    # the padded density is the only fine grid; seven marker-length arrays
    # (the pairs' two columns, x, v, g_like, f_like and the sort index); a
    # fixed allowance of CHUNK-length temporaries; and one row block's
    # normalized |f| and cum_cols, at most 2 * ROWS rows each.  A second
    # fine grid (8.4 MB here) does not fit
    state = _maxwell_state(32, 32)
    n_pad, n_p = 32, 20_000
    grid = spectral.zero_pad(state, n_pad).values
    block_bytes = 2 * (2 * sampling.ROWS) * grid.shape[1] * 8
    bound = grid.nbytes + 7 * 8 * n_p + 32 * 8 * sampling.CHUNK + block_bytes
    assert bound < 2 * grid.nbytes
    del grid
    tracemalloc.start()
    try:
        handoff(state, n_pad, Sobol(skip=1), n_p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_rosenblatt_sample_peak_memory_is_one_fine_grid_markers_and_one_row_block():
    # the public path, rosenblatt_sample(build_sampler(g), pairs), with the
    # budget of the handoff above: the padded density, normalized in place,
    # is the only fine grid, and the sampler builds the conditional tables
    # one row block at a time.  A whole-grid cum_cols (8.4 MB here) does
    # not fit
    state = _maxwell_state(32, 32)
    n_pad, n_p = 32, 20_000
    grid = spectral.zero_pad(state, n_pad).values
    block_bytes = 2 * (2 * sampling.ROWS) * grid.shape[1] * 8
    bound = grid.nbytes + 7 * 8 * n_p + 32 * 8 * sampling.CHUNK + block_bytes
    assert bound < 2 * grid.nbytes
    del grid
    tracemalloc.start()
    try:
        g = spectral.zero_pad(state, n_pad)
        values = g.values
        np.abs(values, out=values)
        values /= g.mass()
        pairs = generate_pairs(Sobol(skip=1), n_p)
        e = sampling.rosenblatt_sample(sampling.build_sampler(g), pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
    assert e.n_p == n_p


def test_handoff_padding_statistically_indistinguishable():
    # band-limited state: padding adds no information; two-sample KS on the
    # x and v marginals stays below the 1% critical value
    state = _maxwell_state(16, 16)
    n = 8192
    e1 = handoff(state, 1, Sobol(skip=1), n)
    e32 = handoff(state, 32, Sobol(skip=1), n)
    crit = 1.63 * np.sqrt(2.0 / n)
    assert ks_statistic_two_sample(e1.x, e32.x) <= crit
    assert ks_statistic_two_sample(e1.v, e32.v) <= crit


def test_handoff_determinism():
    state = _maxwell_state()
    a = handoff(state, 4, Sobol(skip=7), 4096)
    b = handoff(state, 4, Sobol(skip=7), 4096)
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
    state = dataclasses.replace(
        state, values=state.values - 0.02 * np.exp(-((x - 6.0) ** 2 + (v - 4.0) ** 2)))
    e = handoff(state, 4, Sobol(skip=1), 20_000)
    assert np.all(e.g_like > 0)
    assert np.any(e.f_like < 0)
    w = e.weights()
    assert np.any(w < 0)
    assert np.all(np.isfinite(w))


def test_run_pic_emits_cadence_and_star_disc():
    state = _maxwell_state()
    e = handoff(state, 2, Sobol(skip=1), 2000)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 16)
    start = dataclasses.replace(e)  # run_pic rebinds e's arrays, never writes them
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
    e = handoff(_maxwell_state(), 2, Sobol(skip=1), 2000)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 16)
    k = 4
    run_pic(e, solver, kind, dt=0.1, t_start=0.0, t_max=k * 0.1)
    assert len(calls) == 1 + per_step * k


@pytest.mark.parametrize("kind", list(pic.IntegratorKind))
def test_run_pic_computes_the_entropy_once_per_likelihood_pair(monkeypatch, kind):
    # the volume-preserving kinds never rebind the likelihoods; the Euler
    # kinds rebind them on every step, so every record computes afresh
    calls = []
    entropy = pic.discrete_entropy
    monkeypatch.setattr(pic, "discrete_entropy",
                        lambda e: calls.append(1) or entropy(e))
    e = handoff(_maxwell_state(), 2, Sobol(skip=1), 2000)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 16)
    records = run_pic(e, solver, kind, dt=0.1, t_start=0.0, t_max=0.4)
    euler = kind in (pic.IntegratorKind.EXPLICIT_EULER, pic.IntegratorKind.EXPLICIT_EULER2)
    assert len(calls) == (len(records) if euler else 1)


@pytest.mark.parametrize("kind", list(pic.IntegratorKind))
def test_run_pic_moments_equal_a_fresh_estimate_at_every_record(kind):
    seen = []

    def check(rec, e):
        fresh = dataclasses.replace(e, f_like=e.f_like.copy(), g_like=e.g_like.copy())
        assert rec.total_mass == pic.total_mass(fresh)
        assert rec.kinetic_energy == pic.kinetic_energy(fresh)
        assert rec.entropy == pic.discrete_entropy(fresh).value
        seen.append(rec)

    e = handoff(_maxwell_state(), 2, Sobol(skip=1), 2000)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 16)
    run_pic(e, solver, kind, dt=0.1, t_start=0.0, t_max=0.4, on_record=check)
    assert len(seen) == 5


def test_run_coupled_equilibrium_stays_flat():
    rows, _ = run_coupled(MAXWELL, DOM, 32, 32, 0.1, 2.0, t0=1.0, n_p=20_000,
                          n_pad=4, n_f=16, sequence=Sobol(skip=1))
    segs = [seg for seg, _ in rows]
    assert "spectral" in segs and "pic" in segs
    for seg, r in rows:
        if seg == "spectral":
            assert r.field_energy <= 1e-12
        else:
            # sampling-noise floor: fluctuation field energy scales like
            # 1/n_p (measured ~3e-6 at n_p = 2e4; generous factor 10)
            assert r.field_energy <= 3e-5
    # time axis is contiguous across the switch
    times = [r.t for _, r in rows]
    assert times == sorted(times)
    assert rows[-1][1].t == pytest.approx(2.0)


def test_run_coupled_requires_t0_before_tmax():
    with pytest.raises(ValueError):
        run_coupled(MAXWELL, DOM, 16, 16, 0.1, 2.0, t0=3.0, n_p=100, n_pad=2,
                    n_f=16, sequence=Sobol(skip=1))


def test_partial_step_rejected_before_any_record():
    # t0 = 0.25 is 2.5 steps of 0.1: rounding would hand off the t = 0.2
    # state labelled 0.25 and end the PIC segment short of t_max
    rows = []
    sizes = dict(n_p=200, n_pad=2, n_f=8, sequence=Sobol(skip=1))
    with pytest.raises(ValueError, match="whole number"):
        run_coupled(MAXWELL, DOM, 16, 16, 0.1, 0.5, t0=0.25, **sizes,
                    on_record=lambda r, carrier: rows.append(r))
    assert rows == []
    with pytest.raises(ValueError, match="whole number"):
        spectral.run_spectral(MAXWELL, DOM, 16, 16, 0.1, 0.25,
                              on_record=lambda r, s: rows.append(r))
    e = handoff(_maxwell_state(16, 16), 2, Sobol(skip=1), 200)
    solver = pic.SplinePoissonSolver.build(0.0, DOM.length, 8)
    with pytest.raises(ValueError, match="whole number"):
        run_pic(e, solver, pic.IntegratorKind.RUTH3, dt=0.1, t_start=0.25,
                t_max=0.5, on_record=lambda r, e: rows.append(r))
    assert rows == []
    # 0.3 / 0.1 is 2.9999999999999996 in binary floating point; one
    # on_record sees the spectral states, then the markers, in row order
    seen = []
    rows, ensemble = run_coupled(MAXWELL, DOM, 16, 16, 0.1, 0.5, t0=0.3, **sizes,
                                 on_record=lambda r, carrier: seen.append((r, carrier)))
    assert [seg for seg, _ in rows] == ["spectral"] * 4 + ["pic"] * 3
    assert [round(r.t, 10) for _, r in rows] == [
        0.0, 0.1, 0.2, 0.3, 0.3, 0.4, 0.5]
    assert [r for r, _ in seen] == [r for _, r in rows]
    assert [type(carrier) for _, carrier in seen] == (
        [spectral.SpectralState] * 4 + [type(ensemble)] * 3)
    assert all(carrier is ensemble for _, carrier in seen[4:])


def test_field_solvers_agree_on_smooth_density():
    # the Fourier solve and the spline weak solve must produce the same
    # field for the same charge fluctuation, otherwise the handoff cannot
    # be continuous; load vector by exact quadrature of the fluctuation
    L = DOM.length
    kappa = 2 * 2 * np.pi / L
    amp = 0.05

    state = spectral.SpectralState(DOM, np.zeros((64, 8)))
    rho = 1.0 + amp * np.cos(kappa * state.x_nodes())
    state = dataclasses.replace(state, values=np.tile(rho[:, None], (1, 8)) / (state.dv * 8))
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
    rows, _ = run_coupled(ic, DOM, 64, 64, 0.05, 40.0, t0=30.0, n_p=100_000,
                          n_pad=32, n_f=16, sequence=Sobol(skip=1), out_stride=10)
    ref = {round(r.t, 6): r.field_energy for r in ref_records}
    checked = 0
    for seg, r in rows:
        if seg != "pic":
            continue
        ratio = r.field_energy / ref[round(r.t, 6)]
        assert 0.1 < ratio < 10.0, f"t={r.t}: ratio {ratio}"
        checked += 1
    assert checked > 10
