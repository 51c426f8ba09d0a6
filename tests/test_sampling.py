import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracles
from vpqmc import spectral
from vpqmc.core import (GriddedDensity, InitialCondition, PhaseSpaceDomain,
                        eval_initial_f, normalize_to_sampling_density)
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
    values = np.ones((4, 5))  # unit mass on the unit square
    build_sampler(GriddedDensity(UNIT, values))
    values[2, 3] = bad
    with pytest.raises(ValueError, match="sampling density"):
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


def test_marginal_endpoints():
    s = _random_sampler(1)
    dom = s.g.domain
    assert sample_marginal_x(s, 0.0) == pytest.approx(dom.x_min, abs=1e-13)
    assert sample_marginal_x(s, 1.0) == pytest.approx(dom.x_max, abs=1e-10)


def test_marginal_inversion_matches_cdf():
    s = _random_sampler(2)
    u = np.random.default_rng(3).random(257)
    x = sample_marginal_x(s, u)
    ux, _ = forward_cdf(s, x, np.full_like(x, s.g.domain.v_min))
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
    assert s.g.bilinear_at(x0, 0.5) == pytest.approx(0.0, abs=1e-13)
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
        s.g.domain.v_max, abs=1e-10)
    assert sample_conditional_v(s, 0.5, 0.0) == pytest.approx(
        s.g.domain.v_min, abs=1e-13)


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
    nodes = s.g.domain.x_min + np.arange(nx) * s.g.dx
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


def test_forward_jacobian_equals_density():
    # central differences of the forward map, in-cell: det(DPi) = g(x, v)
    s = _random_sampler(12)
    g = s.g
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
    g = s.g
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
    dom = s.g.domain
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
