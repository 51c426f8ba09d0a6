import decimal
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracles
from harness import CountingRows
from vpqmc import sampling, spectral
from vpqmc.core import (AllZeroDensity, GriddedDensity, InitialCondition,
                        PhaseSpaceDomain, eval_initial_f,
                        normalize_to_sampling_density, periodic_cell)
from vpqmc.lowdisc import PseudoRandom, Sobol, generate_pairs
from vpqmc.sampling import (ZeroConditional, build_sampler,
                            forward_cdf, its_tensor_product, rosenblatt_sample,
                            sample_conditional_v, sample_marginal_x,
                            uniform_sample)

UNIT = PhaseSpaceDomain(0.0, 1.0, 0.0, 1.0)


def _sampler(domain, values):
    g = normalize_to_sampling_density(GriddedDensity(domain, np.asarray(values, float)))
    return build_sampler(g)


def _uniform_sampler(domain=UNIT, nx=4, nv=5):
    return _sampler(domain, np.ones((nx, nv)))


def _random_sampler(seed, domain=None, nx=9, nv=8):
    rng = np.random.default_rng(seed)
    domain = domain or PhaseSpaceDomain(0.0, 2.0, -1.0, 1.5)
    return _sampler(domain, rng.random((nx, nv)) + 0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampler_rejects_a_non_finite_node(bad):
    # core.nonzero_mass owns the rule for all three; a NaN node used to
    # fail the sampler's own sign check first
    values = np.ones((4, 5))  # unit mass on the unit square
    for build in (sampling.BilinearSampler, build_sampler, normalize_to_sampling_density):
        build(GriddedDensity(UNIT, values))
        broken = values.copy()
        broken[2, 3] = bad
        with pytest.raises(ValueError, match="^sampling density mass must be finite$"):
            build(GriddedDensity(UNIT, broken))


def _signed_density(nx, nv=21, seed=51):
    values = np.random.default_rng(seed).standard_normal((nx, nv)) + 0.2
    return GriddedDensity(PhaseSpaceDomain(-1.0, 2.0, -3.0, 4.0), values)


def _padded_density():
    values = np.random.default_rng(52).standard_normal((20, 16)) + 0.2
    state = spectral.SpectralState(PhaseSpaceDomain(-1.0, 2.0, -3.0, 4.0), values, 0.0)
    return spectral.PaddedGrid(state, 8)


@pytest.mark.parametrize("make", [lambda: _signed_density(5),
                                  lambda: _signed_density(2 * sampling.ROWS + 3),
                                  _padded_density],
                         ids=["grid_5_rows", "grid_131_rows", "padded_grid"])
def test_sampler_reads_each_row_once_for_mass_and_marginal(make):
    # the mass and the marginal used to take a pass over the rows each
    density = CountingRows(make())
    s = sampling.BilinearSampler(density)
    assert density.served == s.nx == density.nx
    assert (s.domain, s.nv) == (density.domain, density.nv)


def test_sampler_marginal_and_partial_sums_are_read_only():
    s = sampling.BilinearSampler(_signed_density(9))
    before = s.cum_x.copy()
    for table in (s.marginal_x_nodes, s.cum_x):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 5.0
    np.testing.assert_array_equal(s.cum_x, before)


@pytest.mark.parametrize("nx", [2, 5, sampling.ROWS, 2 * sampling.ROWS + 3])
def test_sampler_mass_and_marginal_are_those_of_abs_density(nx):
    density = _signed_density(nx, seed=53 + nx)
    s = sampling.BilinearSampler(density)
    gx = GriddedDensity(density.domain, np.abs(density.values)).x_marginal_nodes()
    # the mass keeps the bits of the trapezoid sum of |density|'s marginal
    assert _bits(s.mass) == _bits(np.float64(density.dx * np.sum(gx)))
    np.testing.assert_allclose(s.marginal_x_nodes, gx / s.mass, rtol=1e-14, atol=0.0)
    assert s.cum_x[-1] == pytest.approx(1.0, rel=1e-13)


def test_build_sampler_rejects_a_negative_node():
    values = np.ones((4, 5))
    values[1, 2] = -0.5
    with pytest.raises(ValueError, match="^sampling density must be nonnegative$"):
        build_sampler(GriddedDensity(UNIT, values))


# --- marginal inversion -------------------------------------------------------

def test_uniform_marginal_identity():
    s = _uniform_sampler()
    assert sample_marginal_x(s, 0.25) == pytest.approx(0.25, abs=1e-13)
    u = np.linspace(0, 1, 33)
    np.testing.assert_allclose(sample_marginal_x(s, u), u, atol=1e-12)


def test_single_cell_quadratic_cdf():
    # marginal density rising linearly from 0 to 2 on [0,1]: G(x) = x^2
    dom = PhaseSpaceDomain(0.0, 1.0, 0.0, 1.0)
    vals = np.array([[0.0, 0.0], [2.0, 2.0]])
    # one x cell requires nx=2 periodic; restrict to the first cell by
    # querying u <= mass of cell 0 = 1/2... instead use a pure 1-D check
    # through the conditional machinery on the v axis where [0,1] is a
    # genuine single-cell bounded direction.
    s = _sampler(dom, vals.T)  # g(x, v) independent of x, linear 0->2 in v
    assert sample_conditional_v(s, 0.3, 0.25) == pytest.approx(0.5, abs=1e-12)
    assert sample_conditional_v(s, 0.9, 0.0625) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("a", [0.73, 41.0])
@pytest.mark.parametrize("ratio", [1e-10, -1e-10, 1e-12])
def test_in_cell_root_keeps_its_precision_when_the_nodes_nearly_agree(a, ratio):
    # |b - a| / a small, where the root
    # (-a + sqrt(a^2 + 2*(b-a)*target/h)) / (b - a) cancels; the reference
    # is the exact root of the float inputs in 50-digit decimals
    b = a * (1.0 + ratio)
    h = 0.0625
    s = np.linspace(0.0, 1.0, 41)
    target = h * (s * a + 0.5 * s * s * (b - a))
    got = sampling._invert_cell_quadratic(np.full(s.size, a), np.full(s.size, b), target, h)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        diff = D(b) - D(a)
        for g, t in zip(got, target):
            q = 2 * D(t) / D(h)
            want = q / (D(a) + (D(a) * D(a) + diff * q).sqrt())
            assert abs(D(g) - want) <= D(4e-16) * want, (g, t)


@pytest.mark.parametrize("a, b", [(1e-15, 5e-15), (0.0, 5e-15), (2e-15, 1e-15)])
def test_in_cell_root_of_a_cell_whose_nodes_are_tiny(a, b):
    # nodes far below 1 that differ by a factor, at half the cell's mass:
    # the root takes the cell's own shape, not the linear root of equal
    # nodes; the reference is the exact root in 50-digit decimals
    h = 1.0
    target = 0.25 * h * (a + b)
    got = float(sampling._invert_cell_quadratic(a, b, target, h))
    assert sampling._cell_cdf(a, b, got, h) / target == pytest.approx(1.0, rel=1e-15)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        q = 2 * D(target) / D(h)
        want = q / (D(a) + (D(a) * D(a) + (D(b) - D(a)) * q).sqrt())
        assert abs(D(got) - want) <= D(4e-16) * want


def test_round_trip_through_a_tail_below_1e_14():
    # a Maxwellian in v down to 5e-27 at v_min = -11, and draws whose v
    # coordinate puts them in the cells whose nodes are all below 1e-14
    # (v < -8): the forward map gives each draw's pair back
    dom = PhaseSpaceDomain(0.0, 2.0, -11.0, 11.0)
    v = np.linspace(dom.v_min, dom.v_max, 45)
    values = np.exp(-0.5 * v * v) * (1.0 + 0.1 * np.arange(8))[:, None]
    s = sampling.BilinearSampler(GriddedDensity(dom, values))
    u_v = np.logspace(-26, -1, 400)
    pairs = np.column_stack([np.random.default_rng(33).random(u_v.size), u_v])
    e = rosenblatt_sample(s, pairs)
    assert np.count_nonzero(e.v < -8.0) > 100
    ux, uv = forward_cdf(s, e.x, e.v)
    np.testing.assert_allclose(ux, pairs[:, 0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(uv, u_v, rtol=1e-9)


def test_marginal_endpoints():
    s = _random_sampler(1)
    dom = s.domain
    assert sample_marginal_x(s, 0.0) == pytest.approx(dom.x_min, abs=1e-13)
    assert sample_marginal_x(s, 1.0) == pytest.approx(dom.x_max, abs=1e-10)


def test_marginal_inversion_matches_cdf():
    s = _random_sampler(2)
    u = np.random.default_rng(3).random(257)
    x = sample_marginal_x(s, u)
    ux, _ = forward_cdf(s, x, np.full_like(x, s.domain.v_min))
    np.testing.assert_allclose(ux, u, atol=1e-12)


def test_marginal_monotone():
    s = _random_sampler(4)
    u = np.sort(np.random.default_rng(5).random(300))
    x = sample_marginal_x(s, u)
    assert np.all(np.diff(x) >= 0)


def test_zero_mass_leading_cells_skipped():
    # first two columns dead: u=0 must land on the boundary of the live region
    dom = PhaseSpaceDomain(0.0, 4.0, 0.0, 1.0)
    vals = np.zeros((4, 3))
    vals[2:, :] = 1.0
    s = _sampler(dom, vals)
    # cells 0 and the first half of cell 1 have zero mass; mass starts
    # growing at x = 1 (density rises linearly across cell [1,2])
    x0 = sample_marginal_x(s, 0.0)
    assert 1.0 <= x0 <= 2.0
    assert s.density.bilinear_at(x0, 0.5) == pytest.approx(0.0, abs=1e-13)
    x = sample_marginal_x(s, np.random.default_rng(0).random(500))
    assert np.all(x >= 1.0)


# --- conditional inversion ------------------------------------------------------

def test_separable_uniform_conditional_midpoint():
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    rng = np.random.default_rng(6)
    a = rng.random(6) + 0.2
    vals = np.outer(a, np.ones(7))  # g(x, v) = a(x) * uniform(v)
    s = _sampler(dom, vals)
    for x in (0.0, 0.37, 1.99):
        assert sample_conditional_v(s, x, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_conditional_quadratic_cdf():
    # g(x, v) = 2 v on [0,1]^2 at every x: conditional CDF G(v) = v^2
    dom = PhaseSpaceDomain(0.0, 1.0, 0.0, 1.0)
    s = _sampler(dom, np.array([[0.0, 2.0], [0.0, 2.0]]))
    for x in (0.1, 0.5, 0.9):
        assert sample_conditional_v(s, x, 0.25) == pytest.approx(0.5, abs=1e-12)


def test_conditional_endpoint():
    s = _random_sampler(7)
    assert sample_conditional_v(s, 0.5, 1.0) == pytest.approx(
        s.domain.v_max, abs=1e-10)
    assert sample_conditional_v(s, 0.5, 0.0) == pytest.approx(
        s.domain.v_min, abs=1e-13)


def test_conditional_monotone():
    s = _random_sampler(8)
    u = np.sort(np.random.default_rng(9).random(200))
    v = sample_conditional_v(s, np.full_like(u, 0.77), u)
    assert np.all(np.diff(v) >= 0)


def test_zero_conditional_raises():
    dom = PhaseSpaceDomain(0.0, 3.0, 0.0, 1.0)
    vals = np.ones((3, 4))
    vals[1, :] = 0.0  # dead column at x = 1
    s = _sampler(dom, vals)
    with pytest.raises(ZeroConditional):
        sample_conditional_v(s, 1.0, 0.5)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 24), nv=st.integers(2, 40),
       runs=st.lists(st.tuples(st.integers(0, 39), st.integers(1, 12),
                               st.booleans()), max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conditional_bisection_matches_dense_table_bitwise(nx, nv, runs, seed):
    # zero-mass runs along v, across every column or in one column only,
    # leave flat stretches in cum_cols, so delta_j ties over several j
    rng = np.random.default_rng(seed)
    vals = rng.random((nx, nv)) + 0.05
    for start, length, every_column in runs:
        rows = slice(None) if every_column else int(rng.integers(nx))
        vals[rows, start % nv:start % nv + length] = 0.0
    vals[:, rng.integers(nv)] = 0.5  # no column is all zero
    s = _sampler(PhaseSpaceDomain(-1.0, 2.0, -1.0, 1.5), vals)
    nodes = s.domain.x_min + np.arange(nx) * s.dx
    x = np.concatenate([nodes, rng.uniform(-1.0, 2.0, 200)])
    x = np.repeat(x, 6)
    u = np.tile([0.0, 1.0, np.nextafter(1.0, 0.0), np.nan, 0.5, 0.0], x.size // 6)
    u[4::6] = rng.random(x.size // 6)
    np.testing.assert_array_equal(
        _bits(sample_conditional_v(s, x, u)),
        _bits(oracles.sample_conditional_v_dense_reference(s, x, u)))


def test_conditional_bisection_matches_dense_table_on_padded_grid():
    # the handoff's fine grid: 32 x 32 bump-on-tail state padded 32 times,
    # nv = 1025, with the absolute value of the signed padded density
    ic = InitialCondition(epsilon=1e-3, k=0.3, n_b=0.1, sigma_b=0.3, v_b=4.5)
    dom = PhaseSpaceDomain(0.0, ic.length, -10.0, 10.0)
    fine = spectral.zero_pad(spectral.state_from_initial_condition(ic, dom, 32, 32), 32)
    assert fine.nv == 1025
    s = build_sampler(normalize_to_sampling_density(fine))
    pairs = generate_pairs(Sobol(skip=1), 3000)
    x = sample_marginal_x(s, pairs[:, 0])
    u = pairs[:, 1].copy()
    u[:3] = (0.0, 1.0, np.nextafter(1.0, 0.0))
    np.testing.assert_array_equal(
        _bits(sample_conditional_v(s, x, u)),
        _bits(oracles.sample_conditional_v_dense_reference(s, x, u)))


def test_rosenblatt_sample_matches_chunked_dense_path_bitwise():
    # more markers than the reference's 16384-marker chunk, not a multiple of it
    s = _random_sampler(21, nx=11, nv=37)
    pairs = np.random.default_rng(22).random((40_000, 2))
    e = rosenblatt_sample(s, pairs)
    x, v, g_like = oracles.rosenblatt_sample_chunked_reference(s, pairs)
    for got, want in ((e.x, x), (e.v, v), (e.g_like, g_like), (e.f_like, g_like)):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@settings(max_examples=60, deadline=None)
@given(nx=st.one_of(st.integers(2, 24),
                    st.integers(2 * sampling.ROWS - 1, 3 * sampling.ROWS + 3)),
       nv=st.integers(2, 40), v_span=st.floats(0.1, 30.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cum_cols_match_the_concatenate_form_bitwise(nx, nv, v_span, seed):
    # each block's tables are the rows first..end (row nx is row 0) of the
    # whole grid's |density| / mass and its concatenate-form cum_cols, and
    # its signed rows those of the density
    dom = PhaseSpaceDomain(0.0, 2.0, -0.5 * v_span, 0.5 * v_span)
    s = _random_sampler(seed, domain=dom, nx=nx, nv=nv)
    whole = GriddedDensity(dom, np.abs(s.density.values) / s.mass)
    cum_cols = oracles.cum_cols_concatenate_reference(whole)
    for first, end in sampling._row_blocks(nx):
        held = np.arange(first, end + 1) % nx
        rows, block_cum_cols, gx_rows, signed = sampling._block_tables(s, first, end)
        np.testing.assert_array_equal(_bits(signed), _bits(s.density.values[held]))
        np.testing.assert_array_equal(_bits(rows), _bits(whole.values[held]))
        np.testing.assert_array_equal(_bits(block_cum_cols), _bits(cum_cols[held]))
        np.testing.assert_array_equal(_bits(gx_rows), _bits(s.marginal_x_nodes[held]))


@pytest.mark.parametrize("sequence", [Sobol(skip=5), PseudoRandom(seed=11)])
def test_sample_gridded_density_matches_the_unchunked_form_bitwise(sequence):
    # a signed density with negative nodes, and two whole chunks plus a part
    rng = np.random.default_rng(31)
    density = GriddedDensity(PhaseSpaceDomain(-1.0, 2.0, -3.0, 4.0),
                             rng.standard_normal((12, 17)) + 0.3)
    assert np.any(density.values < 0)
    n = 2 * sampling.CHUNK + 123
    e = sampling.sample_gridded_density(density, sequence, n)
    want = oracles.sample_gridded_density_unchunked_reference(density, sequence, n)
    for got, ref in zip((e.x, e.v, e.g_like, e.f_like), want):
        np.testing.assert_array_equal(_bits(got), _bits(ref))
    assert np.any(e.f_like < 0)


def test_sample_gridded_density_by_row_blocks_matches_the_unchunked_form_bitwise():
    # nx is one row more than a multiple of ROWS (a mat-vec of that one row
    # alone has other bits); the zero rows 63..128 leave the block of rows
    # 64..127 without markers; the last block wraps round to row 0 and
    # holds more than one chunk of markers
    nx, rows = 193, sampling.ROWS
    assert nx % rows == 1 and nx > 3 * rows
    values = np.random.default_rng(45).standard_normal((nx, 33)) + 0.3
    values[rows - 1:2 * rows + 1] = 0.0
    density = GriddedDensity(PhaseSpaceDomain(-1.0, 2.0, -3.0, 4.0), values)
    n = 2 * sampling.CHUNK + 123
    e = sampling.sample_gridded_density(density, Sobol(skip=3), n)
    want = oracles.sample_gridded_density_unchunked_reference(density, Sobol(skip=3), n)
    for got, ref in zip((e.x, e.v, e.g_like, e.f_like), want):
        np.testing.assert_array_equal(_bits(got), _bits(ref))
    ix = periodic_cell(e.x, -1.0, density.dx, nx)[0]
    assert not np.any((ix >= rows) & (ix < 2 * rows))
    assert np.any(ix == nx - 1)
    assert np.count_nonzero(ix >= 2 * rows) > sampling.CHUNK
    assert np.any(e.f_like < 0)


def test_rosenblatt_f_like_is_the_signed_density_bitwise():
    # both likelihoods come from one cell lookup per marker: f_like has the
    # bits of a fresh lookup on the signed grid, and g_like is |f| / mass
    values = np.random.default_rng(47).standard_normal((2 * sampling.ROWS + 3, 21)) + 0.2
    density = GriddedDensity(PhaseSpaceDomain(-1.0, 2.0, -3.0, 4.0), values)
    s = sampling.BilinearSampler(density)
    e = rosenblatt_sample(s, generate_pairs(Sobol(skip=7), sampling.CHUNK + 77))
    np.testing.assert_array_equal(_bits(e.f_like), _bits(density.bilinear_at(e.x, e.v)))
    np.testing.assert_array_equal(
        _bits(e.g_like),
        _bits(GriddedDensity(density.domain, np.abs(values) / s.mass).bilinear_at(e.x, e.v)))
    assert np.any(e.f_like < 0)
    assert s.mass == pytest.approx(GriddedDensity(density.domain, np.abs(values)).mass(),
                                   rel=1e-14)


@pytest.mark.parametrize("c", [1e-3, 7.3])
def test_build_sampler_normalizes_any_positive_mass(c):
    g = _random_sampler(23, nx=13, nv=19).density
    pairs = np.random.default_rng(24).random((2000, 2))
    want = rosenblatt_sample(build_sampler(g), pairs)
    got = rosenblatt_sample(build_sampler(GriddedDensity(g.domain, c * g.values)), pairs)
    for a, b in ((got.x, want.x), (got.v, want.v), (got.g_like, want.g_like)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.f_like, c * want.f_like, rtol=1e-12)


@pytest.mark.parametrize("sample", [
    pytest.param(lambda pairs: rosenblatt_sample(_random_sampler(5), pairs),
                 id="rosenblatt_sample"),
    pytest.param(lambda pairs: its_tensor_product(_BUMP, pairs, _landau_domain(_BUMP)),
                 id="its_tensor_product"),
    pytest.param(lambda pairs: uniform_sample(_BUMP, pairs, _landau_domain(_BUMP)),
                 id="uniform_sample"),
])
@pytest.mark.parametrize("bad", [np.nan, -1e-300, np.nextafter(1.0, 2.0), -np.inf])
def test_pairs_outside_the_unit_square_are_rejected(sample, bad):
    pairs = np.array([[0.5, 0.5], [0.0, 1.0], [0.25, 0.75]])
    sample(pairs)
    for k in range(2):
        broken = pairs.copy()
        broken[1, k] = bad
        with pytest.raises(ValueError, match=r"^pairs must lie in \[0, 1\]\^2$"):
            sample(broken)


def _unit_spaced(rows):
    """A density on a unit-spaced grid of len(rows) x 2 nodes over v in
    [0, 1] whose x marginal is ``rows``."""
    rows = np.asarray(rows, dtype=float)
    return GriddedDensity(PhaseSpaceDomain(0.0, rows.size, 0.0, 1.0),
                          np.repeat(rows[:, None], 2, axis=1))


def test_sample_gridded_density_rejects_a_nan_node_by_row_blocks():
    rows = np.ones(3 * sampling.ROWS + 5)
    rows[-2] = np.nan
    with pytest.raises(ValueError, match="^sampling density mass must be finite$"):
        sampling.sample_gridded_density(_unit_spaced(rows), Sobol(), 100)


def test_sample_gridded_density_rejects_an_all_zero_grid_by_row_blocks():
    with pytest.raises(AllZeroDensity, match="^cannot normalize a density that "
                       "vanishes at every node$"):
        sampling.sample_gridded_density(_unit_spaced(np.zeros(3 * sampling.ROWS + 5)),
                                        Sobol(), 100)


def test_sample_gridded_density_raises_zero_conditional_by_row_blocks():
    # x marginal 2, then 63 ones, a zero row, then 126 halves: mass 128 (all
    # dyadic, so exact), half of it before the zero row 64, where the first
    # pair (0.5, 0.5) lands; row 64 is in the second block
    rows = np.concatenate(([2.0], np.ones(63), [0.0], np.full(126, 0.5)))
    assert sampling.ROWS == 64
    with pytest.raises(ZeroConditional, match="^conditional density requested "
                       "on a zero-mass column$"):
        sampling.sample_gridded_density(_unit_spaced(rows), Sobol(skip=1), 100)


# --- rosenblatt + forward map -----------------------------------------------

def test_rosenblatt_uniform_is_affine():
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    s = _uniform_sampler(dom, nx=5, nv=6)
    pairs = generate_pairs(Sobol(skip=1), 200)
    e = rosenblatt_sample(s, pairs)
    np.testing.assert_allclose(e.x, pairs[:, 0] * 2.0, atol=1e-12)
    np.testing.assert_allclose(e.v, -1.0 + pairs[:, 1] * 2.0, atol=1e-12)
    np.testing.assert_allclose(e.g_like, 0.25, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 24), nv=st.integers(2, 24),
       x_min=st.floats(-5.0, 5.0).filter(lambda x: x != 0.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_round_trip_identity(nx, nv, x_min, seed):
    dom = PhaseSpaceDomain(x_min, x_min + 2.0, -1.0, 1.5)
    s = _random_sampler(seed, domain=dom, nx=nx, nv=nv)
    pairs = np.random.default_rng(seed + 1).random((1000, 2))
    e = rosenblatt_sample(s, pairs)
    ux, uv = forward_cdf(s, e.x, e.v)
    np.testing.assert_allclose(ux, pairs[:, 0], atol=1e-10)
    np.testing.assert_allclose(uv, pairs[:, 1], atol=1e-10)
    assert np.all(e.g_like > 0)


def test_forward_cdf_corners_and_uniform():
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    s = _uniform_sampler(dom, nx=6, nv=6)
    assert forward_cdf(s, 0.0, -1.0) == pytest.approx((0.0, 0.0), abs=1e-13)
    assert forward_cdf(s, 2.0, 1.0) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert forward_cdf(s, 1.0, 0.0) == pytest.approx((0.5, 0.5), abs=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_forward_cdf_matches_the_whole_grid_reference_bitwise(seed):
    # a signed grid whose row `dead` is zero, so the column through its
    # nodes has no mass; dx = 0.25 puts x_min + dead*dx exactly on a node
    rng = np.random.default_rng(seed)
    nx, nv = int(rng.integers(2, 14)), int(rng.integers(2, 24))
    values = rng.standard_normal((nx, nv)) + 0.3
    dead = int(rng.integers(nx))
    values[dead] = 0.0
    dom = PhaseSpaceDomain(-1.0, -1.0 + 0.25 * nx, -2.0, 2.5)
    s = sampling.BilinearSampler(GriddedDensity(dom, values))
    dead_x = dom.x_min + dead * s.dx
    xs = np.concatenate([[dom.x_min, dom.x_max, dom.x_min - 0.3, dom.x_max + 0.7, dead_x],
                         rng.uniform(dom.x_min, dom.x_max, 20)])
    vs = np.concatenate([[dom.v_min, dom.v_max, dom.v_min - 1.0, dom.v_max + 1.0],
                         rng.uniform(dom.v_min, dom.v_max, 20)])
    x, v = np.meshgrid(xs, vs, indexing="ij")
    ux, uv = forward_cdf(s, x, v)
    want_ux, want_uv = oracles.forward_cdf_reference(s, x, v)
    np.testing.assert_array_equal(_bits(ux), _bits(want_ux))
    np.testing.assert_array_equal(_bits(uv), _bits(want_uv))
    assert np.all(uv[4] == 0.0)
    if dead == 0:  # x_max closes the wrap cell on row 0
        assert np.all(uv[1] == 0.0)


def test_forward_jacobian_equals_density():
    # central differences of the forward map, in-cell: det(DPi) = g(x, v)
    s = _random_sampler(12)
    g = s.density
    rng = np.random.default_rng(13)
    h = 1e-4 * min(g.dx, g.dv)
    for _ in range(40):
        ix = rng.integers(0, g.nx)
        jv = rng.integers(0, g.nv - 1)
        fx, fv = rng.uniform(0.25, 0.75, 2)
        x = g.domain.x_min + (ix + fx) * g.dx
        v = g.domain.v_min + (jv + fv) * g.dv
        ux_p, uv_p = forward_cdf(s, x + h, v)
        ux_m, uv_m = forward_cdf(s, x - h, v)
        ux_vp, uv_vp = forward_cdf(s, x, v + h)
        ux_vm, uv_vm = forward_cdf(s, x, v - h)
        det = ((ux_p - ux_m) * (uv_vp - uv_vm)
               - (ux_vp - ux_vm) * (uv_p - uv_m)) / (4 * h * h)
        assert det == pytest.approx(g.bilinear_at(x, v), rel=1e-4)


def test_measure_preservation_box():
    # fraction of Sobol samples inside a fixed box vs the exact integral
    s = _random_sampler(14)
    g = s.density
    pairs = generate_pairs(Sobol(skip=1), 100_000)
    e = rosenblatt_sample(s, pairs)
    box = (0.4, 1.3, -0.5, 0.9)
    frac = np.mean((e.x >= box[0]) & (e.x < box[1])
                   & (e.v >= box[2]) & (e.v < box[3]))
    # exact integral of the bilinear interpolant by very fine midpoint rule
    xs = np.linspace(box[0], box[1], 801)
    vs = np.linspace(box[2], box[3], 801)
    xm = 0.5 * (xs[1:] + xs[:-1])
    vm = 0.5 * (vs[1:] + vs[:-1])
    xx, vv = np.meshgrid(xm, vm, indexing="ij")
    integral = np.mean(g.bilinear_at(xx, vv)) * (box[1] - box[0]) * (box[3] - box[2])
    assert abs(frac - integral) <= 0.01


def test_forward_cdf_strictly_increasing_where_positive():
    s = _random_sampler(20)  # strictly positive density
    dom = s.domain
    xs = np.linspace(dom.x_min, dom.x_max, 97)
    ux, _ = forward_cdf(s, xs, np.full_like(xs, 0.3))
    assert np.all(np.diff(ux) > 0)
    vs = np.linspace(dom.v_min, dom.v_max, 97)
    _, uv = forward_cdf(s, np.full_like(vs, 1.1), vs)
    assert np.all(np.diff(uv) > 0)


def test_ordering_matches_input():
    s = _random_sampler(15)
    pairs = np.random.default_rng(16).random((64, 2))
    e = rosenblatt_sample(s, pairs)
    e2 = rosenblatt_sample(s, pairs[::-1])
    np.testing.assert_array_equal(e.x[::-1], e2.x)


_BUMP = InitialCondition(epsilon=0.1, k=0.5, n_b=0.1, sigma_b=0.5, v_b=3.0)


_POINTWISE = [
    pytest.param(lambda s, x, y: eval_initial_f(_BUMP, x, y), id="eval_initial_f"),
    pytest.param(lambda s, x, y: s.density.bilinear_at(x, y), id="bilinear_at"),
    pytest.param(lambda s, x, y: sample_marginal_x(s, y), id="sample_marginal_x"),
    pytest.param(sample_conditional_v, id="sample_conditional_v"),
    pytest.param(lambda s, x, y: forward_cdf(s, x, y)[0], id="forward_cdf_x"),
    pytest.param(lambda s, x, y: forward_cdf(s, x, y)[1], id="forward_cdf_v"),
]


@pytest.mark.parametrize("call", _POINTWISE)
def test_scalar_input_gives_a_value_of_shape_0(call):
    s = _random_sampler(3)
    got = call(s, 0.3, 0.4)
    assert np.shape(got) == ()
    assert got == call(s, np.array([0.3]), np.array([0.4]))[0]


@pytest.mark.parametrize("call", _POINTWISE)
def test_two_dimensional_input_keeps_its_shape(call):
    s = _random_sampler(3)
    x = np.linspace(0.1, 1.9, 12).reshape(3, 4)
    y = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    got = call(s, x, y)
    assert np.shape(got) == (3, 4)
    np.testing.assert_array_equal(_bits(got), _bits(call(s, x.ravel(), y.ravel())).reshape(3, 4))


# --- tensor-product ITS -------------------------------------------------------

def _landau_domain(ic, vmax=8.0):
    return PhaseSpaceDomain(0.0, ic.length, -vmax, vmax)


def test_its_unperturbed_x_is_affine():
    ic = InitialCondition(epsilon=0.0, k=0.5)
    dom = _landau_domain(ic)
    pairs = np.random.default_rng(17).random((500, 2))
    e = its_tensor_product(ic, pairs, dom)
    np.testing.assert_allclose(e.x, pairs[:, 0] * ic.length, atol=1e-11)


def test_its_gaussian_median():
    ic = InitialCondition(epsilon=0.3, k=0.5, n_b=0.0)
    dom = _landau_domain(ic)
    pairs = np.column_stack([np.full(3, 0.25), np.full(3, 0.5)])
    e = its_tensor_product(ic, pairs, dom)
    np.testing.assert_allclose(e.v, 0.0, atol=1e-12)


def test_its_mean_cosine_matches_quadrature():
    ic = InitialCondition(epsilon=0.5, k=0.5)
    dom = _landau_domain(ic)
    pairs = generate_pairs(Sobol(skip=1), 100_000)
    e = its_tensor_product(ic, pairs, dom)
    # quadrature oracle: mean of cos(kx) under density prop to 1 - eps cos(kx)
    num, _ = quad(lambda x: np.cos(ic.k * x) * (1 - ic.epsilon * np.cos(ic.k * x)),
                  0, ic.length)
    den, _ = quad(lambda x: 1 - ic.epsilon * np.cos(ic.k * x), 0, ic.length)
    assert num / den == pytest.approx(-0.25, abs=1e-12)
    assert np.mean(np.cos(ic.k * e.x)) == pytest.approx(-0.25, abs=5e-4)


def test_its_likelihoods_consistent():
    ic = InitialCondition(epsilon=1e-3, k=0.3, n_b=0.1, sigma_b=0.3, v_b=4.5)
    dom = PhaseSpaceDomain(0.0, ic.length, -10.0, 10.0)
    pairs = generate_pairs(Sobol(skip=1), 4096)
    e = its_tensor_product(ic, pairs, dom)
    assert np.all(e.g_like > 0)
    np.testing.assert_allclose(e.f_like, eval_initial_f(ic, e.x, e.v), rtol=1e-13)
    # mass estimator: mean(w) should approach the total mass = L (the
    # truncation to |v| <= 10 is negligible)
    assert np.mean(e.weights()) == pytest.approx(ic.length, rel=2e-3)
    # bump fraction: share of markers near the bump drift velocity
    assert 0.05 < np.mean(e.v > 3.0) < 0.2


def test_its_bump_velocity_histogram():
    # empirical CDF of v against the sampled mixture law at a few probes
    ic = InitialCondition(epsilon=0.0, k=0.5, n_b=0.1, sigma_b=0.3, v_b=4.5)
    dom = PhaseSpaceDomain(0.0, ic.length, -8.0, 8.0)
    pairs = generate_pairs(Sobol(skip=1), 1 << 15)
    e = its_tensor_product(ic, pairs, dom)
    from scipy.special import erf

    def mix_cdf(v):
        phi = lambda z: 0.5 * (1 + erf(z / np.sqrt(2)))
        c0 = (phi(v) - phi(-8.0)) / (phi(8.0) - phi(-8.0))
        zb = phi((8.0 - 4.5) / 0.3) - phi((-8.0 - 4.5) / 0.3)
        cb = (phi((v - 4.5) / 0.3) - phi((-8.0 - 4.5) / 0.3)) / zb
        return 0.9 * c0 + 0.1 * cb
    for probe in (-1.0, 0.0, 2.0, 4.5, 5.0):
        emp = np.mean(e.v <= probe)
        assert emp == pytest.approx(mix_cdf(probe), abs=3e-3)


@pytest.mark.parametrize("ic, v_min, v_max, component", [
    (InitialCondition(epsilon=0.5, k=0.5), 40.0, 50.0, "bulk Gaussian N(0, 1^2)"),
    (InitialCondition(epsilon=0.5, k=0.5, n_b=0.5, v_b=50.0), -6.5, 6.5,
     "bump Gaussian N(50, 1^2)"),
], ids=["bulk", "bump"])
def test_its_rejects_a_component_with_no_mass_in_the_window(ic, v_min, v_max, component):
    # each used to divide by a zero truncated mass: NaN likelihoods for the
    # bulk, zero weights (and a RuntimeWarning) for the bump
    dom = PhaseSpaceDomain(0.0, ic.length, v_min, v_max)
    pairs = generate_pairs(Sobol(skip=1), 64)
    with pytest.raises(ValueError, match=rf"^the {re.escape(component)} has no mass "
                       rf"in \[v_min, v_max\] = \[{v_min:g}, {v_max:g}\]$"):
        its_tensor_product(ic, pairs, dom)


@pytest.mark.parametrize("z", [-8.0, -13.5, -20.0])
def test_std_normal_cdf_keeps_its_relative_precision_in_the_lower_tail(z):
    # 0.5*(1 + erf(z/sqrt(2))) cancels there: Phi(-8) came out 1.8% low,
    # and Phi(-13.5) and Phi(-20) as 0
    from scipy.special import ndtr
    assert sampling._std_normal_cdf(z) == pytest.approx(ndtr(z), rel=1e-13, abs=0)


def test_its_samples_a_window_above_the_mean_through_the_mirrored_tail():
    # the upper-tail CDF 1 - 6e-16 at v = 8 cancels: the window [8, 50]
    # used to put 4096 markers on 7 velocities, with NaN weights at v = 50
    ic = InitialCondition(epsilon=0.5, k=0.5)
    pairs = generate_pairs(Sobol(skip=1), 4096)
    up = its_tensor_product(ic, pairs, PhaseSpaceDomain(0.0, ic.length, 8.0, 50.0))
    down = its_tensor_product(ic, pairs, PhaseSpaceDomain(0.0, ic.length, -50.0, -8.0))
    assert np.unique(up.v).size == 4096
    assert np.all((8.0 <= up.v) & (up.v <= 50.0))
    np.testing.assert_allclose(up.weights(), down.weights(), rtol=1e-14)


def test_its_degenerate_perturbation_bisection_rescue():
    # epsilon = 1 makes the spatial CDF derivative vanish at x = 0; Newton
    # stalls there and the bisection fallback must still hit 1e-13
    ic = InitialCondition(epsilon=1.0, k=0.5)
    dom = _landau_domain(ic)
    u = np.concatenate([[1e-9, 1e-6, 1e-3], np.linspace(0.01, 0.99, 50)])
    pairs = np.column_stack([u, np.full_like(u, 0.5)])
    e = its_tensor_product(ic, pairs, dom)
    resid = np.abs(e.x - (ic.epsilon / ic.k) * np.sin(ic.k * e.x)
                   - u * ic.length) / ic.length
    assert np.max(resid) <= 1e-13


def test_uniform_sample_variant():
    ic = InitialCondition(epsilon=0.5, k=0.5)
    dom = PhaseSpaceDomain(0.0, ic.length, -8.0, 8.0)
    pairs = generate_pairs(PseudoRandom(seed=0), 1000)
    e = uniform_sample(ic, pairs, dom)
    assert np.all((e.x >= 0) & (e.x < ic.length))
    assert np.all((e.v >= -8) & (e.v < 8))
    np.testing.assert_allclose(e.g_like, 1.0 / dom.area)
    np.testing.assert_allclose(e.f_like, eval_initial_f(ic, e.x, e.v), rtol=1e-13)


# --- the normal quantile of the tensor-product sampler ----------------------

def test_std_normal_ppf_matches_the_erfcinv_oracle():
    # both region boundaries (|p - 1/2| = 0.425 at 0.075 and 0.925, and
    # r = 5 near p = 1.4e-11), both deep tails, and uniform values
    probes = np.array([1e-300, 1e-20, 1e-10, 0.075, 0.5, 0.925, 1 - 1e-16,
                       np.exp(-25.0)])
    p = np.concatenate([probes, np.random.default_rng(12).random(10_000)])
    z = sampling._std_normal_ppf(p)
    ref = oracles.std_normal_ppf_erfcinv_newton(p)
    np.testing.assert_allclose(z, ref, rtol=4e-15, atol=0.0)


def test_std_normal_ppf_ends_and_order():
    assert sampling._std_normal_ppf(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]
    p = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(13).random(10_000),
                                np.logspace(-300, -1, 1000), 1.0 - np.logspace(-16, -1, 1000)]))
    assert np.all(np.diff(sampling._std_normal_ppf(p)) >= 0.0)


@pytest.mark.parametrize("ic,v_span", [
    (InitialCondition(epsilon=0.5, k=0.5), 6.5),
    (InitialCondition(epsilon=1e-3, k=0.3, n_b=0.1, sigma_b=0.3, v_b=4.5), 10.0),
])
def test_its_with_the_oracle_quantile(monkeypatch, ic, v_span):
    # the AS241 quantile moves v and the likelihoods only in the last digits
    dom = PhaseSpaceDomain(0.0, ic.length, -v_span, v_span)
    pairs = generate_pairs(Sobol(skip=1), 1 << 15)
    e = its_tensor_product(ic, pairs, dom)
    monkeypatch.setattr(sampling, "_std_normal_ppf", oracles.std_normal_ppf_erfcinv_newton)
    ref = its_tensor_product(ic, pairs, dom)
    np.testing.assert_array_equal(e.x, ref.x)
    for got, want in ((e.v, ref.v), (e.f_like, ref.f_like), (e.g_like, ref.g_like)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
