"""The compiled loops of ``vpqmc/_kernels.c`` against their numpy forms in
``oracles.py``, bit for bit (compared as uint64 words); the spectral kick
only to rounding, as numpy's complex multiply fuses multiply-adds on some
of its dispatch paths."""

import numpy as np
import pytest

import oracles
from test_lowdisc import _BITWISE_CASES, _tied_sets
from test_pic import _edge_positions
from vpqmc import _kernels, pic, spectral
from vpqmc.core import (InitialCondition, ParticleEnsemble, PhaseSpaceDomain, Q_OVER_M,
                        periodic_cell)
from vpqmc.lowdisc import (SOBOL_POINTS, PseudoRandom, Sobol, generate_pairs,
                           star_discrepancy)
from vpqmc.sampling import uniform_sample

L = 4 * np.pi


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _strided(a):
    """``a`` as a non-contiguous view with the same values."""
    wide = np.empty((a.size, 2))
    wide[:, 0] = a
    return wide[:, 0]


# --- cell lookup ----------------------------------------------------------------

def _cell_inputs(x_min, h, n):
    length = n * h
    edges = [x_min, x_min + length, np.nextafter(x_min + length, -np.inf),
             np.nextafter(x_min + length, np.inf), np.nextafter(x_min, -np.inf),
             np.nextafter(x_min, np.inf), x_min + h, np.nextafter(x_min + h, -np.inf),
             -0.0, 0.0, -1e-300, np.nan, np.inf, -np.inf, 1e19, -1e19, 2.0 ** 63 * h,
             -(2.0 ** 63) * h, 1e308, -1e308]
    rng = np.random.default_rng(11)
    spread = rng.uniform(x_min - 5 * length, x_min + 5 * length, 500)
    return np.concatenate([edges, spread, _edge_positions(x_min, length)])


@pytest.mark.parametrize("x_min, h, n", [(0.0, L / 32, 32), (-1.3, L / 16, 16),
                                         (2.5, 0.7, 193), (0.0, 1.0, 1)])
def test_periodic_cell_matches_numpy_form_bitwise(x_min, h, n):
    x = _cell_inputs(x_min, h, n)
    for arg in (x, _read_only(x), _strided(x)):
        i, u = periodic_cell(arg, x_min, h, n)
        want_i, want_u = oracles.periodic_cell_reference(x, x_min, h, n)
        _same_bits(i, want_i)
        _same_bits(u, want_u)
        assert i.min() >= 0 and i.max() < n


def test_periodic_cell_needs_a_cell():
    with pytest.raises(ValueError, match="at least one cell"):
        periodic_cell(np.ones(3), 0.0, 1.0, 0)


def test_periodic_cell_of_non_finite_input():
    # a NaN or infinite coordinate takes the floor as -2**63
    i, u = periodic_cell(np.array([np.nan, np.inf, -np.inf]), 0.0, 0.5, 193)
    np.testing.assert_array_equal(i, (-(2 ** 63)) % 193)
    assert np.isnan(u[0]) and u[1] == np.inf and u[2] == -np.inf


@pytest.mark.parametrize("shape", [(0,), (), (3, 4)])
def test_periodic_cell_keeps_the_input_shape(shape):
    x = np.random.default_rng(12).uniform(-3, 3, shape)
    i, u = periodic_cell(x, -0.5, 0.25, 8)
    want_i, want_u = oracles.periodic_cell_reference(x, -0.5, 0.25, 8)
    assert i.shape == u.shape == shape
    _same_bits(i, want_i)
    _same_bits(u, want_u)


# --- wrap -----------------------------------------------------------------------

@pytest.mark.parametrize("x_min", [0.0, -1.3])
def test_wrap_of_non_finite_and_huge_positions_bitwise(x_min):
    x = np.concatenate([[np.nan, np.inf, -np.inf, 1e300, -1e300, -1e-300, -0.0],
                        _edge_positions(x_min, L)])
    for arg in (x, _strided(x)):
        e = ParticleEnsemble(x=arg, v=np.zeros(x.size), f_like=np.ones(x.size),
                             g_like=np.ones(x.size))
        e.x = pic._wrap(e.x.copy(), x_min, L)
        _same_bits(e.x, oracles.wrap_reference(x, x_min, L))


def test_wrap_works_in_place_and_refuses_what_it_cannot_overwrite():
    x = np.array([-1.0, 0.5, L + 1.0])
    assert pic._wrap(x, 0.0, L) is x
    _same_bits(x, oracles.wrap_reference(np.array([-1.0, 0.5, L + 1.0]), 0.0, L))
    # the compiled loop writes x.size contiguous doubles at x's address
    for bad in (_read_only([-1.0, L + 1.0]), _strided(np.array([-1.0, L + 1.0])),
                np.array([-1.0, L + 1.0], dtype=np.float32)):
        before = bad.copy()
        with pytest.raises(ValueError, match="writable C-contiguous float64"):
            pic._wrap(bad, 0.0, L)
        _same_bits(bad, before)


# --- spline deposit and evaluation ------------------------------------------------

def _stencil(x_min, n_f, n):
    solver = pic.SplinePoissonSolver.build(x_min, L, n_f)
    x = _edge_positions(x_min, L, n)[:n] if n else np.empty(0)
    return pic.SplineStencil(solver, x)


@pytest.mark.parametrize("x_min, n_f", [(0.0, 16), (-1.3, 32), (2.5, 7)])
@pytest.mark.parametrize("n", [0, 1, 5000])
def test_deposit_matches_bincount_form_bitwise(x_min, n_f, n):
    stencil = _stencil(x_min, n_f, n)
    w = np.random.default_rng(13).standard_normal(n)
    want = oracles.spline_deposit_bincount_reference(stencil, w)
    for arg in (w, _read_only(w), _strided(w)):
        _same_bits(stencil.deposit(arg), want)


def test_deposit_rejects_weights_of_another_length():
    stencil = _stencil(0.0, 16, 10)
    with pytest.raises(ValueError, match="one weight per"):
        stencil.deposit(np.ones(9))


@pytest.mark.parametrize("x_min, n_f", [(0.0, 16), (-1.3, 32), (2.5, 7)])
@pytest.mark.parametrize("n", [0, 1, 5000])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_evaluate_matches_take_form_bitwise(x_min, n_f, n, order):
    stencil = _stencil(x_min, n_f, n)
    c = np.random.default_rng(14).standard_normal(n_f)
    want = oracles.spline_evaluate_take_reference(stencil, c, order)
    for arg in (c, _read_only(c), _strided(c)):
        _same_bits(stencil.evaluate(arg, order), want)


def test_evaluate_rejects_an_order_beyond_the_cubic():
    stencil = _stencil(0.0, 16, 10)
    with pytest.raises(ValueError, match="order 0 to 3"):
        stencil.evaluate(np.ones(16), 4)


# --- Sobol pairs -------------------------------------------------------------------

@pytest.mark.parametrize("skip, n", [
    (1, 5000),
    (SOBOL_POINTS - 3000, 3000),  # ends at index 2^32 - 1
    (SOBOL_POINTS - 1, 1),
    ((1 << 31) - 1500, 3000),  # across 2^31
    ((1 << 5) - 1, 100), ((1 << 16) - 1, 100), ((1 << 31) - 1, 100),  # long trailing ones
    (1, 1), (2, 1), (173, 1), ((1 << 32) - 2, 1),
])
def test_sobol_pairs_match_the_round_form_bitwise(skip, n):
    got = generate_pairs(Sobol(skip=skip), n)
    assert got.flags.c_contiguous
    _same_bits(got, oracles.sobol_pairs_rounds_reference(skip, n))


def test_sobol_pairs_refuse_an_index_beyond_the_construction():
    generate_pairs(Sobol(skip=SOBOL_POINTS - 10), 10)
    with pytest.raises(ValueError, match="32-bit construction"):
        generate_pairs(Sobol(skip=SOBOL_POINTS - 10), 11)
    with pytest.raises(ValueError, match="32-bit construction"):
        generate_pairs(Sobol(skip=SOBOL_POINTS), 1)


# --- star discrepancy -------------------------------------------------------------

def _sobol_window_set(cap):
    """The first ``cap`` markers of a uniform Sobol fill inside the window
    of a discrepancy-tracking run, rescaled to the unit square."""
    domain = PhaseSpaceDomain(0.0, L, -8.0, 8.0)
    e = uniform_sample(InitialCondition(epsilon=0.5, k=0.5),
                       generate_pairs(Sobol(skip=1), 250000), domain)
    inside = (e.x >= 0.0) & (e.x <= 2.0) & (e.v >= -1.0) & (e.v <= 1.0)
    pts = np.column_stack([e.x[inside] / 2.0, (e.v[inside] + 1.0) / 2.0])[:cap]
    assert pts.shape == (cap, 2)
    return pts


def _star_cases():
    rng = np.random.default_rng(15)
    yield from _BITWISE_CASES.values()
    for seed in range(20):
        yield generate_pairs(PseudoRandom(seed=seed), int(rng.integers(1, 600)))
    for skip in (1, 7, 1 << 18):
        yield generate_pairs(Sobol(skip=skip), 1000)
    for n in range(5, 13):  # every residue of the four-way loops
        for _ in range(4):
            yield rng.random((n, 2))
    yield _sobol_window_set(4000)
    yield from _tied_sets(rng, 350)
    sizes = rng.integers(1, 41, 40)  # tied groups of 1 to 40 points
    tied = np.repeat(rng.random(40), sizes)
    yield np.column_stack([tied, rng.random(tied.size)])
    yield np.column_stack([rng.random(tied.size), tied])
    yield np.array([[0.5, 0.5]])
    yield np.array([[1.0, 1.0]])
    yield np.array([[1.0, 0.25], [0.5, 1.0], [1.0, 1.0], [0.0, 1.0]])


def test_star_discrepancy_matches_numpy_sweep_bitwise():
    for pts in _star_cases():
        got = star_discrepancy(pts)
        assert type(got) is float
        want = oracles.star_discrepancy_passed_points_reference(pts)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), pts


# --- spectral kick ------------------------------------------------------------------

@pytest.mark.parametrize("nx, nk", [(128, 65), (128, 8), (37, 2), (5, 1)])
def test_kick_matches_the_cumprod_form(nx, nk):
    # nk = nv // 2 + 1: nv = 128, the odd nv = 15, nv = 2 and a lone bin;
    # 37 rows end on a part block; unit z of random phase, as
    # exp(-i shift k_v[1]) is
    rng = np.random.default_rng(nx * nk)
    fh = rng.standard_normal((nx, nk)) + 1j * rng.standard_normal((nx, nk))
    z = np.exp(1j * rng.uniform(-np.pi, np.pi, nx))
    want = fh * oracles.kick_phase_cumprod_reference(z, nk)
    _kernels.kick(nx, nk, fh.ctypes.data, z.ctypes.data)
    np.testing.assert_allclose(fh, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("nx, nv", [(128, 128), (16, 15)])
def test_spectral_kick_matches_the_cumprod_form(nx, nv):
    s = spectral.state_from_initial_condition(InitialCondition(epsilon=0.5, k=0.5),
                                              PhaseSpaceDomain(0.0, L, -6.5, 6.5), nx, nv)
    fh = np.fft.rfft(s.values, axis=1)
    shift = Q_OVER_M * spectral.poisson_fourier(s) * 0.3
    want = fh * oracles.kick_phase_cumprod_reference(
        np.exp(-1j * s.kappa_v()[1] * shift), nv // 2 + 1)
    spectral._kick(fh, s, 0.3)
    np.testing.assert_allclose(fh, want, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError, match="v-spectrum"):
        spectral._kick(np.asfortranarray(fh), s, 0.3)
