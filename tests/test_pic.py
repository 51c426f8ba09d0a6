import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from harness import (AnalyticField, FrozenField, adjoint_euler_step, eval_phi,
                     flow_jacobian_det, frozen_step, map_jacobian_det, momentum)
from vpqmc.core import InitialCondition, ParticleEnsemble, PhaseSpaceDomain
from vpqmc import pic
from vpqmc.pic import (FixedPointDiverged, IntegratorKind, SelfConsistentField,
                       SplinePoissonSolver, deposit_rhs, discrete_entropy,
                       field_energy, kinetic_energy, push, solve_poisson_fem,
                       total_mass)
from vpqmc.lowdisc import Sobol, generate_pairs
from vpqmc.sampling import its_tensor_product
from vpqmc.spectral import SpectralState, poisson_fourier

L = 2 * np.pi


def _solver(n_f=16, length=L):
    return SplinePoissonSolver.build(0.0, length, n_f)


def _analytic_cos_load(solver, kappa, q=1.0):
    # b_i = q * integral cos(kappa x) N_i(x) dx; the periodized cubic
    # B-spline against a pure mode gives dx * sinc(kappa dx / 2)^4
    dx = solver.dx
    xi = solver.x_min + dx * np.arange(solver.n_f)
    z = kappa * dx / 2.0
    return q * dx * np.sinc(z / np.pi) ** 4 * np.cos(kappa * xi)


def _ensemble(x, v, f=None, g=None):
    x = np.asarray(x, float)
    f = np.ones_like(x) if f is None else np.asarray(f, float)
    g = np.ones_like(x) if g is None else np.asarray(g, float)
    return ParticleEnsemble(x=x, v=np.asarray(v, float), f_like=f, g_like=g)


# --- deposition -----------------------------------------------------------------

def test_deposit_zero_particles_pure_background():
    solver = _solver()
    e = _ensemble(np.empty(0), np.empty(0))
    b = deposit_rhs(e, solver)
    np.testing.assert_allclose(b, solver.dx)


def test_deposit_single_particle_at_knot():
    solver = _solver()
    n_p = 5
    x = np.full(n_p, 3 * solver.dx)  # knot 3
    e = _ensemble(x, np.zeros(n_p), f=np.full(n_p, 1.0), g=np.full(n_p, 1.0))
    b = deposit_rhs(e, solver)
    expect = solver.dx * np.ones(solver.n_f)
    expect[2] -= 1.0 / 6.0
    expect[3] -= 4.0 / 6.0
    expect[4] -= 1.0 / 6.0
    np.testing.assert_allclose(b, expect, atol=1e-14)


def test_deposit_sum_identity():
    solver = _solver(n_f=12)
    rng = np.random.default_rng(0)
    w = rng.random(200) + 0.5
    e = _ensemble(rng.uniform(0, L, 200), np.zeros(200),
                  f=w, g=np.ones(200))
    b = deposit_rhs(e, solver)
    # partition of unity: sum_i b_i = q (mean w - L) with q = -1
    assert np.sum(b) == pytest.approx(L - np.mean(w), abs=1e-12)


# --- one stencil per position array, against the textbook formulas --------------

# The moment deposit and the Horner evaluation regroup the terms of the
# textbook formulas in tests/oracles.py (monomials in u, summed per cell),
# so they agree with them to rounding, not bit for bit.  Two orders of one
# floating-point sum differ by a few ulps of the sum of the absolute values
# of its terms.  The monomial coefficients of every B-spline piece and of
# its first two u-derivatives sum to at most 5 in absolute value, so that
# sum is at most 5 * sum_k |w_k| for a deposit entry and 4 * 5 * max_j |c_j|
# for a spline value.
ORACLE_ULPS = 4


def _oracle_atol(abs_terms):
    return ORACLE_ULPS * np.finfo(float).eps * abs_terms


def _edge_positions(x_min, length, n=300):
    # the period's ends, one ulp below its right end, points left of x_min
    # and more than one period out, plus a random spread
    edges = [x_min, x_min + length, np.nextafter(x_min + length, -np.inf),
             x_min - 0.3, -2.0, x_min + 2.5 * length, x_min - 1.7 * length]
    rest = np.random.default_rng(4).uniform(x_min - length, x_min + 2 * length, n)
    return np.concatenate([edges, rest])


def _edge_field(x_min):
    length = 4 * np.pi
    solver = SplinePoissonSolver.build(x_min, length, 16)
    x = _edge_positions(x_min, length)
    rng = np.random.default_rng(5)
    e = _ensemble(x, np.zeros_like(x), f=rng.random(x.size) - 0.2,
                  g=rng.random(x.size) + 0.5)
    return solver, e, SelfConsistentField(solver)(e)


@pytest.mark.parametrize("x_min", [0.0, -1.3])
def test_stencil_path_matches_textbook_oracle(x_min):
    solver, e, field = _edge_field(x_min)
    dx, x, w = solver.dx, e.x, e.weights()
    ref_b = oracles.spline_deposit_reference(x, w, x_min, dx, 16)
    np.testing.assert_allclose(pic.SplineStencil(solver, x).deposit(w), ref_b, rtol=0,
                               atol=_oracle_atol(5 * np.sum(np.abs(w))))

    c = field.coeffs
    ref = [oracles.spline_eval_reference(c, x, x_min, dx, 16, order) for order in (0, 1, 2)]
    atol = _oracle_atol(4 * 5 * np.max(np.abs(c)))
    np.testing.assert_allclose(eval_phi(field, x), ref[0], rtol=0, atol=atol)
    np.testing.assert_allclose(pic.eval_E(field, x), -ref[1] / dx, rtol=0, atol=atol / dx)
    np.testing.assert_allclose(pic.eval_dE(field, x), -ref[2] / dx ** 2, rtol=0,
                               atol=atol / dx ** 2)


@pytest.mark.parametrize("x_min", [0.0, -1.3])
def test_deposited_stencil_matches_one_off_stencil_bitwise(x_min):
    # the stencil the field was deposited from, and a one-off stencil
    _, e, field = _edge_field(x_min)
    assert field.stencil.x is e.x
    for ev in (eval_phi, pic.eval_E, pic.eval_dE):
        np.testing.assert_array_equal(ev(field, e.x), ev(field, e.x.copy()))


def test_stencil_path_with_no_markers():
    solver = _solver()
    e = _ensemble(np.empty(0), np.empty(0))
    np.testing.assert_array_equal(deposit_rhs(e, solver),
                                  np.full(solver.n_f, solver.dx))
    field = SelfConsistentField(solver)(e)
    np.testing.assert_array_equal(field.coeffs, 0.0)
    for ev in (eval_phi, pic.eval_E, pic.eval_dE):
        assert ev(field, e.x).shape == (0,)


@pytest.mark.parametrize("x_min", [0.0, -1.3, 2.5])
def test_wrap_matches_full_modulo_bitwise(x_min):
    # the masked wrap against x_min + np.mod(x - x_min, L) on every marker
    length = 4 * np.pi
    x = np.array([0.0, -0.0, length, np.nextafter(length, 0.0), -1e-300,
                  -length, 3.5 * length, -5.25 * length, 7 * length + 0.1,
                  -9 * length - 0.1, np.nan])
    x = np.concatenate([x, x + x_min, np.random.default_rng(6).uniform(
        x_min - 3 * length, x_min + 3 * length, 200)])
    e = _ensemble(x, np.zeros_like(x))
    e.x = pic._wrap(e.x.copy(), x_min, length)
    want = x_min + np.mod(x - x_min, length)
    np.testing.assert_array_equal(e.x.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("x_min", [0.0, -1.3, 2.5])
@pytest.mark.parametrize("odd", [None, "period_end", "below_min", "nan"])
def test_wrap_fast_path_and_its_fallbacks_bitwise(x_min, odd):
    # markers inside the period are left alone; one marker at x_min + L,
    # one just below x_min or one NaN is wrapped by index, and either way
    # each gives the bits of the full modulo
    length = 4 * np.pi
    x = x_min + np.random.default_rng(7).uniform(0.0, length, 50)
    extra = {"period_end": x_min + length,
             "below_min": np.nextafter(x_min, -np.inf), "nan": np.nan}
    if odd is not None:
        x = np.insert(x, 20, extra[odd])
    e = _ensemble(x, np.zeros_like(x))
    e.x = pic._wrap(e.x.copy(), x_min, length)
    want = x_min + np.mod(x - x_min, length)
    np.testing.assert_array_equal(e.x.view(np.uint64), want.view(np.uint64))


# --- field solve ------------------------------------------------------------------

def test_stiffness_rows_sum_to_zero():
    solver = _solver(n_f=20)
    assert abs(solver.stiffness_eigs[0]) < 1e-13


def test_solve_zero_load_zero_coeffs():
    solver = _solver()
    field = solve_poisson_fem(solver, np.zeros(solver.n_f))
    np.testing.assert_allclose(field.coeffs, 0.0, atol=1e-15)


def test_solve_residual_and_zero_mean():
    solver = _solver(n_f=24)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(24)
    b -= b.mean()
    field = solve_poisson_fem(solver, b)
    resid = solver.apply_stiffness(field.coeffs) - b
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)
    assert np.mean(field.coeffs) == pytest.approx(0.0, abs=1e-14)


def test_fem_analytic_cosine_field():
    # -phi'' = q (rho-1) with rho-1 = cos(kx), q=1: E = sin(kx)/k
    kappa = 2 * np.pi / L
    solver = _solver(n_f=32)
    field = solve_poisson_fem(solver, _analytic_cos_load(solver, kappa))
    knots = solver.dx * np.arange(solver.n_f)
    np.testing.assert_allclose(field.E(knots), np.sin(kappa * knots) / kappa,
                               atol=1e-5)


def test_fem_refinement_order():
    # knot-measured error of E shows cubic-spline superconvergence order 4
    kappa = 2 * np.pi / L
    errs = []
    for n_f in (8, 16, 32):
        solver = _solver(n_f=n_f)
        field = solve_poisson_fem(solver, _analytic_cos_load(solver, kappa))
        knots = solver.dx * np.arange(n_f)
        errs.append(np.max(np.abs(field.E(knots) - np.sin(kappa * knots) / kappa)))
    orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    assert np.all(orders >= 3.8)


def test_eval_e_constant_potential_and_periodicity():
    solver = _solver()
    field = pic.FieldSolution(coeffs=np.full(solver.n_f, 1.7), solver=solver)
    xs = np.linspace(0, L, 50, endpoint=False)
    np.testing.assert_allclose(field.E(xs), 0.0, atol=1e-13)
    field2 = solve_poisson_fem(solver, _analytic_cos_load(solver, 2 * np.pi / L))
    assert field2.E(np.array([0.0]))[0] == pytest.approx(
        field2.E(np.array([L - 1e-12]))[0], abs=1e-10)


def test_eval_e_is_c1_across_knots():
    solver = _solver()
    field = solve_poisson_fem(solver, _analytic_cos_load(solver, 2 * np.pi / L))
    knot = 5 * solver.dx
    h = 1e-8
    left = field.E(np.array([knot - h]))[0]
    right = field.E(np.array([knot + h]))[0]
    assert left == pytest.approx(right, abs=1e-6)
    dleft = field.dE(np.array([knot - h]))[0]
    dright = field.dE(np.array([knot + h]))[0]
    assert dleft == pytest.approx(dright, abs=1e-6)


def test_field_energy_matches_quadrature():
    solver = _solver(n_f=32)
    field = solve_poisson_fem(solver, _analytic_cos_load(solver, 2 * np.pi / L))
    xs = np.linspace(0, L, 20001, endpoint=False)
    ref = 0.5 * np.mean(field.E(xs) ** 2) * L
    assert field_energy(field) == pytest.approx(ref, rel=1e-6)


def test_de_matches_finite_difference():
    solver = _solver(n_f=16)
    field = solve_poisson_fem(solver, _analytic_cos_load(solver, 2 * np.pi / L))
    xs = np.array([0.3, 1.7, 4.0])
    h = 1e-6
    fd = (field.E(xs + h) - field.E(xs - h)) / (2 * h)
    np.testing.assert_allclose(field.dE(xs), fd, atol=1e-6)


# --- pushers ------------------------------------------------------------------------

ALL_KINDS = list(IntegratorKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_free_streaming(kind):
    field = AnalyticField(e_fn=lambda x: np.zeros_like(x),
                          de_fn=lambda x: np.zeros_like(x))
    e = _ensemble([0.5, 1.0], [1.0, -2.0])
    push(kind, e, FrozenField(field), 0.25)
    np.testing.assert_allclose(e.x, [0.75, 0.5], atol=1e-12)
    np.testing.assert_allclose(e.v, [1.0, -2.0], atol=1e-12)
    np.testing.assert_array_equal(e.f_like, [1.0, 1.0])
    np.testing.assert_array_equal(e.g_like, [1.0, 1.0])


def _harmonic_field():
    # with q/m = -1 the acceleration is -x: unit-frequency oscillator
    return AnalyticField(e_fn=lambda x: x, de_fn=lambda x: np.ones_like(x))


def _energy(e):
    return 0.5 * (e.x ** 2 + e.v ** 2)


def test_harmonic_symplectic_bounded_euler_grows():
    dt, n_steps = 0.05, 10_000
    frozen = FrozenField(_harmonic_field())
    e_se = _ensemble([1.0], [0.0])
    e_r3 = _ensemble([1.0], [0.0])
    e_im = _ensemble([1.0], [0.0])
    e_eu = _ensemble([1.0], [0.0])
    en_eu = [float(_energy(e_eu)[0])]
    for _ in range(n_steps):
        push(IntegratorKind.SYMPLECTIC_EULER, e_se, frozen, dt)
        push(IntegratorKind.RUTH3, e_r3, frozen, dt)
        push(IntegratorKind.IMPLICIT_MIDPOINT, e_im, frozen, dt)
        push(IntegratorKind.EXPLICIT_EULER, e_eu, frozen, dt)
        en_eu.append(float(_energy(e_eu)[0]))
    for e in (e_se, e_r3):
        assert abs(_energy(e)[0] - 0.5) < 0.1
    # implicit midpoint conserves the quadratic invariant almost exactly
    assert _energy(e_im)[0] == pytest.approx(0.5, abs=1e-6)
    # explicit Euler multiplies the energy by (1 + dt^2) every step
    assert all(b > a for a, b in zip(en_eu, en_eu[1:]))
    assert en_eu[-1] > 100.0


def test_explicit_euler_jacobian_rescaling():
    # linear frozen field with dE/dx = -c: g is divided by 1 - dt^2 (q/m) (-c)
    c = 0.8
    field = AnalyticField(e_fn=lambda x: -c * x, de_fn=lambda x: -c * np.ones_like(x))
    dt = 0.1
    det = 1.0 - dt * dt * (-1.0) * (-c)
    e = _ensemble([0.4], [0.6], f=[0.7], g=[0.2])
    push(IntegratorKind.EXPLICIT_EULER, e, FrozenField(field), dt)
    assert e.g_like[0] == pytest.approx(0.2 / det, rel=1e-14)
    assert e.f_like[0] == 0.7  # characteristics value kept

    e2 = _ensemble([0.4], [0.6], f=[0.7], g=[0.2])
    push(IntegratorKind.EXPLICIT_EULER2, e2, FrozenField(field), dt)
    assert e2.g_like[0] == pytest.approx(0.2 / det, rel=1e-14)
    assert e2.f_like[0] == pytest.approx(0.7 / det, rel=1e-14)
    assert e2.f_like[0] / e2.g_like[0] == pytest.approx(0.7 / 0.2, rel=1e-14)


def _smooth_frozen_field():
    return AnalyticField(e_fn=lambda x: 0.3 * np.sin(x) + 0.1 * np.cos(2 * x),
                         de_fn=lambda x: 0.3 * np.cos(x) - 0.2 * np.sin(2 * x))


@pytest.mark.parametrize("kind,expected", [
    (IntegratorKind.SYMPLECTIC_EULER, 1.0),
    (IntegratorKind.IMPLICIT_MIDPOINT, 1.0),
    (IntegratorKind.RUTH3, 1.0),
])
def test_flow_jacobian_volume_preserving(kind, expected):
    field = _smooth_frozen_field()
    for x, v in ((0.2, 0.5), (2.5, -1.0), (4.0, 2.0)):
        det = flow_jacobian_det(kind, x, v, 0.1, field)
        assert det == pytest.approx(expected, abs=1e-6)


def test_flow_jacobian_explicit_euler_formula():
    field = _smooth_frozen_field()
    dt = 0.1
    for x, v in ((0.2, 0.5), (2.5, -1.0), (4.0, 2.0)):
        det = flow_jacobian_det(IntegratorKind.EXPLICIT_EULER, x, v, dt, field)
        expect = 1.0 - dt * dt * (-1.0) * field.dE(np.array([x]))[0]
        assert det == pytest.approx(expect, abs=1e-6)


def test_adjoint_half_step_det_inverts_explicit():
    field = _smooth_frozen_field()
    dt = 0.2
    x, v = 1.3, 0.7
    x_half, v_half = adjoint_euler_step(x, v, dt / 2, field)
    det_adj = map_jacobian_det(
        lambda xs, vs: adjoint_euler_step(xs, vs, dt / 2, field),
        x, v, 1e-5, 1e-5)
    det_exp = map_jacobian_det(
        lambda xs, vs: frozen_step(IntegratorKind.EXPLICIT_EULER, xs, vs,
                                   dt / 2, field),
        float(x_half), float(v_half), 1e-5, 1e-5)
    assert det_adj * det_exp == pytest.approx(1.0, abs=1e-6)


def test_fixed_point_divergence_reported():
    steep = AnalyticField(e_fn=lambda x: -30.0 * np.sin(x),
                          de_fn=lambda x: -30.0 * np.cos(x))
    e = _ensemble([0.5], [0.1])
    with pytest.raises(FixedPointDiverged) as err:
        push(IntegratorKind.IMPLICIT_MIDPOINT, e, FrozenField(steep), 1.0)
    assert err.value.iterations == 100
    assert err.value.residual > 0


# --- likelihood bookkeeping over self-consistent steps --------------------------

def _landau_ensemble(n=2000):
    ic = InitialCondition(epsilon=0.5, k=0.5)
    dom = PhaseSpaceDomain(0.0, 4 * np.pi, -6.5, 6.5)
    return its_tensor_product(ic, generate_pairs(Sobol(skip=1), n), dom), dom


@pytest.mark.parametrize("kind", [IntegratorKind.SYMPLECTIC_EULER,
                                  IntegratorKind.IMPLICIT_MIDPOINT,
                                  IntegratorKind.RUTH3])
def test_volume_preserving_kinds_keep_likelihoods_bitwise(kind):
    e, dom = _landau_ensemble()
    f0, g0 = e.f_like.copy(), e.g_like.copy()
    m0 = total_mass(e)
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))
    for _ in range(5):
        push(kind, e, fields, 0.05)
        np.testing.assert_array_equal(e.f_like, f0)
        np.testing.assert_array_equal(e.g_like, g0)
        assert total_mass(e) == m0  # bitwise: same reduction of same values


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cached_field_equals_a_fresh_deposit(kind):
    e, dom = _landau_ensemble()
    solver = SplinePoissonSolver.build(0.0, dom.length, 16)
    fields = SelfConsistentField(solver)
    for _ in range(2):
        push(kind, e, fields, 0.05)
        cached, fresh = fields(e), SelfConsistentField(solver)(e)
        np.testing.assert_array_equal(cached.coeffs, fresh.coeffs)
        np.testing.assert_array_equal(cached.E(e.x), fresh.E(e.x))


def test_cached_field_follows_each_rebound_array():
    e, dom = _landau_ensemble()
    solver = SplinePoissonSolver.build(0.0, dom.length, 16)
    fields = SelfConsistentField(solver)
    first = fields(e)
    assert fields(e).coeffs is first.coeffs  # same arrays: no new deposit
    for name in ("x", "f_like", "g_like"):
        setattr(e, name, getattr(e, name) * 0.75)
        np.testing.assert_array_equal(fields(e).coeffs,
                                      SelfConsistentField(solver)(e).coeffs)


@pytest.mark.parametrize("kind", [IntegratorKind.EXPLICIT_EULER,
                                  IntegratorKind.EXPLICIT_EULER2])
def test_weights_follow_each_rebound_likelihood_bitwise(kind):
    e, dom = _landau_ensemble()
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))
    for _ in range(3):
        e.weights()  # a memo of the pair that the push replaces
        push(kind, e, fields, 0.05)
        np.testing.assert_array_equal(e.weights(), e.f_like / e.g_like)


def test_weights_are_computed_once_read_only_and_freed_on_rebinding():
    e, _ = _landau_ensemble(100)
    w = weakref.ref(e.weights())
    assert e.weights() is w()
    with pytest.raises(ValueError):
        e.weights()[0] = 1.0
    e.g_like = 2.0 * e.g_like
    assert w() is None  # the memo does not keep the old pair's weights
    np.testing.assert_array_equal(e.weights(), e.f_like / e.g_like)


def test_carrier_arrays_are_read_only_views():
    base = np.linspace(0.0, 1.0, 8)
    e = _ensemble(base, base, base, base)
    s = SpectralState(PhaseSpaceDomain(0.0, 1.0, -1.0, 1.0), np.ones((4, 4)))
    for carrier, name in [(e, "x"), (e, "v"), (e, "f_like"), (e, "g_like"),
                          (s, "values")]:
        with pytest.raises(ValueError):
            getattr(carrier, name)[0] = 2.0
    base[0] = 2.0  # a view: the caller's own array stays writable
    assert e.x[0] == 2.0


def test_memo_arrays_are_read_only():
    # a write into a memo's array would change what later calls return
    e, dom = _landau_ensemble(100)
    field = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))(e)
    s = SpectralState(dom, np.full((8, 8), 1.0 / dom.v_span))  # neutral: no warning
    for array in (field.coeffs, field.stencil.i, field.stencil.u, poisson_fourier(s)):
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_each_memo_is_dropped_by_exactly_the_arrays_it_reads():
    e, dom = _landau_ensemble(200)
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))
    weights, field = e.weights(), fields(e)
    e.v = e.v * 0.75
    assert fields(e) is field  # the field does not read v
    e.x = e.x * 0.75
    assert e.weights() is weights  # the weights do not read x
    moved = fields(e)
    assert moved is not field and moved.stencil is not field.stencil
    assert moved.stencil.x is e.x
    e.f_like = e.f_like * 0.75
    assert fields(e) is not moved


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["x", "v", "f_like", "g_like"]),
                          st.sampled_from([0.5, 0.75, 1.5])), min_size=1, max_size=8))
def test_memos_equal_fresh_values_after_any_rebinds(rebinds):
    e, dom = _landau_ensemble(64)
    solver = SplinePoissonSolver.build(0.0, dom.length, 8)
    fields = SelfConsistentField(solver)
    for name, scale in rebinds:
        fields(e), e.weights()  # memos that the rebind may leave stale
        setattr(e, name, getattr(e, name) * scale)
        np.testing.assert_array_equal(fields(e).coeffs,
                                      SelfConsistentField(solver)(e).coeffs)
        np.testing.assert_array_equal(e.weights(), e.f_like / e.g_like)


def test_explicit_euler_weights_drift():
    e, dom = _landau_ensemble()
    w0 = e.weights().copy()
    f0 = e.f_like.copy()
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))
    for _ in range(5):
        push(IntegratorKind.EXPLICIT_EULER, e, fields, 0.05)
    assert np.max(np.abs(e.weights() - w0)) > 0
    np.testing.assert_array_equal(e.f_like, f0)


def test_explicit_euler2_weights_constant_likelihoods_drift():
    e, dom = _landau_ensemble()
    w0 = e.weights().copy()
    g0 = e.g_like.copy()
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))
    for _ in range(5):
        push(IntegratorKind.EXPLICIT_EULER2, e, fields, 0.05)
        # both likelihoods carry the same determinant product; the ratio
        # (f/det)/(g/det) reassociates at the last IEEE bit, so the weight
        # identity holds to ulp level rather than bitwise
        np.testing.assert_allclose(e.weights(), w0, rtol=1e-14)
    assert np.max(np.abs(e.g_like - g0)) > 0


def test_entropy_drifts_monotonically_under_euler2():
    # the rescaled likelihoods expose the dissipation in the entropy
    # estimator during the strong-damping onset; volume-preserving kinds
    # hold the estimator bitwise constant (constant summands)
    e, dom = _landau_ensemble(20_000)
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 32))
    entropies = [discrete_entropy(e).value]
    for _ in range(25):
        push(IntegratorKind.EXPLICIT_EULER2, e, fields, 0.05)
        entropies.append(discrete_entropy(e).value)
    assert np.all(np.diff(entropies) > 0)

    e2, _ = _landau_ensemble(20_000)
    s0 = discrete_entropy(e2).value
    for _ in range(5):
        push(IntegratorKind.RUTH3, e2, fields, 0.05)
    assert discrete_entropy(e2).value == s0


@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("machinery", ["self_consistent", "frozen"])
def test_push_matches_the_reference_bitwise(kind, machinery):
    # three steps of every kind against the per-kind branches with the
    # numpy wrap; the markers start on both sides of x_min and x_min + L,
    # so the wrap moves some of them
    x_min = -1.3
    rng = np.random.default_rng(21)
    n = 400
    x = x_min + rng.uniform(-0.2, L + 0.2, n)
    x[:4] = [x_min, np.nextafter(x_min, -np.inf), x_min + L, np.nextafter(x_min + L, 0)]
    v = rng.uniform(-3.0, 3.0, n)
    v[:4] = [-2.5, -1.0, 2.5, 1.0]
    f = rng.uniform(0.5, 1.5, n)
    g = rng.uniform(0.5, 1.5, n)
    if machinery == "self_consistent":
        fields = SelfConsistentField(SplinePoissonSolver.build(x_min, L, 16))
    else:
        fields = FrozenField(AnalyticField(lambda y: 0.3 * np.sin(y),
                                           lambda y: 0.3 * np.cos(y)))
    got, want = _ensemble(x, v, f, g), _ensemble(x, v, f, g)
    for _ in range(3):
        push(kind, got, fields, 0.2)
        oracles.push_reference(kind, want, fields, 0.2)
        for name in ("x", "v", "f_like", "g_like"):
            np.testing.assert_array_equal(getattr(got, name).view(np.uint64),
                                          getattr(want, name).view(np.uint64))
    inside = (got.x >= x_min) & (got.x < x_min + L)
    assert inside.all() if machinery == "self_consistent" else not inside.all()


def test_midpoint_evaluates_e_once_per_fixed_point_iteration(monkeypatch):
    # the last iteration's field also kicks the final update, so no E is
    # evaluated after the loop
    class Counting(SelfConsistentField):
        iterations = 0

        def __call__(self, ensemble):
            self.iterations += 1
            return super().__call__(ensemble)

    evaluations = []
    eval_e = pic.eval_E
    monkeypatch.setattr(pic, "eval_E", lambda field, x: evaluations.append(1) or eval_e(field, x))
    e, dom = _landau_ensemble()
    fields = Counting(SplinePoissonSolver.build(0.0, dom.length, 16))
    push(IntegratorKind.IMPLICIT_MIDPOINT, e, fields, 0.1)
    assert fields.iterations >= 2
    assert len(evaluations) == fields.iterations


def test_positions_wrapped_into_period():
    e, dom = _landau_ensemble(500)
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 16))
    for _ in range(10):
        push(IntegratorKind.RUTH3, e, fields, 0.5)
    assert np.all((e.x >= 0.0) & (e.x < dom.length))


def test_basis_translation_invariance_and_momentum_drift():
    # the derivative of the basis functions' sum vanishes pointwise (the
    # translation-invariance identity behind momentum balance) ...
    stencil = pic.SplineStencil(_solver(), np.random.default_rng(2).uniform(0, L, 100))
    np.testing.assert_allclose(stencil.evaluate(np.ones(16), 1), 0.0, atol=1e-14)
    # ... and the self-consistent momentum drift per step stays at the
    # deposition-aliasing level (the Galerkin derivative force is not
    # exactly momentum conserving; the error scales with field amplitude
    # and marker noise)
    e, dom = _landau_ensemble(50_000)
    fields = SelfConsistentField(SplinePoissonSolver.build(0.0, dom.length, 32))
    p_prev = momentum(e)
    for _ in range(10):
        push(IntegratorKind.RUTH3, e, fields, 0.01)
        p = momentum(e)
        assert abs(p - p_prev) < 1e-7
        p_prev = p


# --- estimators -----------------------------------------------------------------

def test_kinetic_energy_maxwellian():
    ic = InitialCondition(epsilon=0.0, k=0.5)
    dom = PhaseSpaceDomain(0.0, 4 * np.pi, -8.0, 8.0)
    e = its_tensor_product(ic, generate_pairs(Sobol(skip=1), 1 << 16), dom)
    h = kinetic_energy(e)
    summand = 0.5 * e.v ** 2 * e.weights()
    sigma = np.std(summand) / np.sqrt(e.n_p)
    assert abs(h - 2 * np.pi) <= 3 * sigma + 1e-6


def test_mass_unity_when_f_equals_g():
    rng = np.random.default_rng(3)
    g = rng.random(1000) + 0.2
    e = ParticleEnsemble(x=rng.random(1000), v=rng.standard_normal(1000),
                         f_like=g.copy(), g_like=g.copy())
    assert total_mass(e) == 1.0


def test_entropy_uniform_density_exact():
    area = 8.0
    n = 400
    e = ParticleEnsemble(x=np.linspace(0, 4, n), v=np.zeros(n),
                         f_like=np.full(n, 1 / area), g_like=np.full(n, 1 / area))
    est = discrete_entropy(e)
    assert est.value == pytest.approx(-np.log(area), rel=1e-12)
    assert est.skipped_fraction == 0.0


def test_entropy_skips_nonpositive_f():
    e = ParticleEnsemble(x=np.zeros(4), v=np.zeros(4),
                         f_like=np.array([0.5, -0.1, 0.0, 0.5]),
                         g_like=np.ones(4))
    est = discrete_entropy(e)
    assert est.skipped_fraction == pytest.approx(0.5)
    assert est.value == pytest.approx(2 * 0.5 * np.log(0.5) / 4)
