import re

import numpy as np
import pytest
from scipy.integrate import quad

from harness import weight
from vpqmc.core import (AllZeroDensity, GriddedDensity, InitialCondition,
                        ParticleEnsemble, PhaseSpaceDomain, SQRT_2PI,
                        eval_initial_f, normalize_to_sampling_density,
                        whole_steps)

LANDAU = InitialCondition(epsilon=0.5, k=0.5)
BUMP = InitialCondition(epsilon=1e-3, k=0.3, n_b=0.1, sigma_b=0.3, v_b=4.5)


def test_unperturbed_maxwellian_peak():
    ic = InitialCondition(epsilon=0.0, k=0.5)
    assert eval_initial_f(ic, 1.234, 0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)
    assert 1.0 / SQRT_2PI == pytest.approx(0.3989422804, abs=1e-10)


def test_landau_case_at_origin():
    # direct evaluation with the Landau parameters at x = v = 0
    assert eval_initial_f(LANDAU, 0.0, 0.0) == pytest.approx(0.1994711402, abs=1e-10)


def test_gaussian_tails_vanish():
    for ic in (LANDAU, BUMP):
        assert eval_initial_f(ic, 1.0, 40.0) == pytest.approx(0.0, abs=1e-200)
        assert eval_initial_f(ic, 1.0, -40.0) == pytest.approx(0.0, abs=1e-200)


@pytest.mark.parametrize("ic", [LANDAU, BUMP, InitialCondition(epsilon=0.9, k=0.7)])
def test_total_mass_is_length(ic):
    # x integral of (1 - eps cos kx) over one period is exactly L; the v
    # profile integrates to 1 up to Gaussian tails beyond |v| = 10
    profile = lambda v: ((1 - ic.n_b) * np.exp(-v ** 2 / 2)
                         + ic.n_b / ic.sigma_b * np.exp(-(v - ic.v_b) ** 2
                                                        / (2 * ic.sigma_b ** 2))) / SQRT_2PI
    v_mass, _ = quad(profile, -10, 10, limit=200)
    assert ic.length * v_mass == pytest.approx(ic.length, rel=1e-8)


def test_periodic_wrap_invariance():
    L = LANDAU.length
    x = np.linspace(0, L, 17)
    v = np.linspace(-3, 3, 17)
    base = eval_initial_f(LANDAU, x, v)
    np.testing.assert_allclose(eval_initial_f(LANDAU, x + L, v), base, rtol=1e-14)
    np.testing.assert_allclose(eval_initial_f(LANDAU, x - L, v), base, rtol=1e-14)


def test_nonnegative_for_epsilon_at_most_one():
    ic = InitialCondition(epsilon=1.0, k=0.5)
    x = np.linspace(0, ic.length, 101)
    v = np.linspace(-8, 8, 101)
    xx, vv = np.meshgrid(x, v)
    assert np.all(eval_initial_f(ic, xx, vv) >= 0.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        InitialCondition(epsilon=0.1, k=0.0)
    with pytest.raises(ValueError):
        InitialCondition(epsilon=0.1, k=0.5, sigma_b=0.0)
    with pytest.raises(ValueError):
        InitialCondition(epsilon=0.1, k=0.5, n_b=1.0)
    with pytest.raises(ValueError):
        PhaseSpaceDomain(0.0, 0.0, -1.0, 1.0)


@pytest.mark.parametrize("epsilon", [1.5, -1.5, np.nextafter(1.0, 2.0)])
def test_epsilon_beyond_one_rejected(epsilon):
    # f would be negative over part of the period, and the ITS x-CDF
    # x - (eps/k) sin(kx) not monotone
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[-1, 1\]$"):
        InitialCondition(epsilon=epsilon, k=0.5)


@pytest.mark.parametrize("epsilon", [1.0, -1.0])
def test_epsilon_of_one_accepted(epsilon):
    assert InitialCondition(epsilon=epsilon, k=0.5).epsilon == epsilon


# an int beyond the float range is not finite either (math.isfinite
# raises OverflowError on it)
_NON_FINITE = [np.nan, np.inf, -np.inf, pytest.param(10 ** 400, id="10**400"),
               pytest.param(-10 ** 400, id="-10**400")]


@pytest.mark.parametrize("key", ["epsilon", "k", "sigma_b", "v_b"])
@pytest.mark.parametrize("value", _NON_FINITE)
def test_initial_condition_rejects_non_finite_parameters(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        InitialCondition(**{"epsilon": 0.1, "k": 0.5, key: value})


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("value", _NON_FINITE)
def test_domain_rejects_non_finite_bounds(index, value):
    bounds = [0.0, 2.0, -1.0, 1.0]
    bounds[index] = value
    name = ("x_min", "x_max", "v_min", "v_max")[index]
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        PhaseSpaceDomain(*bounds)


@pytest.mark.parametrize("bounds, message", [
    ((-1e308, 1e308, -1.0, 1.0), "the x extent x_max - x_min must be finite"),
    ((0.0, 2.0, -1e308, 1e308), "the v extent v_max - v_min must be finite"),
    ((-1e308, 1e308, -1e308, 1e308), "the x extent x_max - x_min must be finite; "
                                      "the v extent v_max - v_min must be finite"),
])
def test_domain_rejects_an_extent_that_overflows(bounds, message):
    # a finite pair of bounds whose extent is inf gave dx = inf and NaN rows
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PhaseSpaceDomain(*bounds)


def test_whole_steps():
    assert whole_steps(0.3, 0.1) == 3  # 0.3 / 0.1 is 2.9999999999999996
    assert whole_steps(50.0, 0.05) == 1000
    assert whole_steps(0.1, 0.1) == 1
    for span, dt in [(0.25, 0.1), (0.2, 0.5), (0.0, 0.1), (-0.3, 0.1),
                     (1.0, 0.0), (1.0, -0.1), (float("inf"), 0.1),
                     (float("nan"), 0.1), (10.0, 1e-320)]:
        with pytest.raises(ValueError, match="whole number"):
            whole_steps(span, dt)


# --- normalize_to_sampling_density -----------------------------------------

def _uniform_density(value, domain, nx=8, nv=9):
    return GriddedDensity(domain, np.full((nx, nv), value))


def test_normalize_scales_mass_two_to_one():
    dom = PhaseSpaceDomain(0.0, 2.0, 0.0, 1.0)
    f = _uniform_density(1.0, dom)
    assert f.mass() == pytest.approx(2.0, abs=1e-13)
    g = normalize_to_sampling_density(f)
    assert g.mass() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(g.values, f.values / 2.0)


def test_normalize_takes_absolute_value():
    dom = PhaseSpaceDomain(0.0, 2.0, 0.0, 1.0)
    vals = np.ones((8, 9))
    vals[3, 4] = -2.0
    g = normalize_to_sampling_density(GriddedDensity(dom, vals))
    assert g.values[3, 4] > 0
    assert g.values[3, 4] == pytest.approx(2.0 * g.values[0, 0])


def test_normalize_constant_density():
    dom = PhaseSpaceDomain(0.0, 2.0, 0.0, 1.0)
    g = normalize_to_sampling_density(_uniform_density(7.3, dom))
    np.testing.assert_allclose(g.values, 0.5, rtol=1e-13)


def test_normalize_idempotent_on_unit_mass():
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    rng = np.random.default_rng(7)
    f = GriddedDensity(dom, rng.random((12, 11)) + 0.1)
    g = normalize_to_sampling_density(f)
    g2 = normalize_to_sampling_density(g)
    np.testing.assert_allclose(g2.values, g.values, rtol=1e-13)


def test_normalize_all_zero_raises():
    dom = PhaseSpaceDomain(0.0, 2.0, 0.0, 1.0)
    with pytest.raises(AllZeroDensity):
        normalize_to_sampling_density(_uniform_density(0.0, dom))


@pytest.mark.parametrize("node, fill", [(np.inf, 1.0), (np.nan, 1.0), (1e308, 1e308)],
                         ids=["inf_node", "nan_node", "mass_overflows"])
def test_normalize_rejects_a_non_finite_mass(node, fill):
    # each used to give NaN nodes or an all-zero grid without an error
    dom = PhaseSpaceDomain(0.0, 2.0, 0.0, 1.0)
    f = _uniform_density(fill, dom)
    f.values[3, 4] = node
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="mass must be finite"):
        normalize_to_sampling_density(f)


# --- weights ----------------------------------------------------------------

def test_weight_ratio():
    e = ParticleEnsemble(x=[0.1], v=[0.2], f_like=[0.2], g_like=[0.1])
    assert weight(e, 0) == pytest.approx(2.0)


def test_weight_unity_when_f_equals_g():
    rng = np.random.default_rng(0)
    g = rng.random(32) + 0.5
    e = ParticleEnsemble(x=rng.random(32), v=rng.random(32),
                         f_like=g.copy(), g_like=g.copy())
    np.testing.assert_array_equal(e.weights(), np.ones(32))


def test_negative_weight_permitted():
    e = ParticleEnsemble(x=[0.0], v=[0.0], f_like=[-0.01], g_like=[0.02])
    assert weight(e, 0) == pytest.approx(-0.5)


def test_weight_index_out_of_range():
    e = ParticleEnsemble(x=[0.0], v=[0.0], f_like=[1.0], g_like=[1.0])
    with pytest.raises(IndexError):
        weight(e, 1)


# --- gridded density geometry ------------------------------------------------

def test_grid_nodes_and_bilinear_wrap():
    dom = PhaseSpaceDomain(0.0, 4.0, -1.0, 1.0)
    vals = np.arange(12.0).reshape(4, 3)
    g = GriddedDensity(dom, vals)
    assert g.dx == pytest.approx(1.0)
    assert g.dv == pytest.approx(1.0)
    # node values returned exactly, wrap cell interpolates to column 0
    assert g.bilinear_at(2.0, 0.0) == vals[2, 1]
    assert g.bilinear_at(3.5, -1.0) == pytest.approx(0.5 * (vals[3, 0] + vals[0, 0]))
    assert g.bilinear_at(4.0, -1.0) == pytest.approx(vals[0, 0])


def test_gridded_density_rows_are_fresh_copies_taken_mod_nx():
    vals = np.arange(12.0).reshape(4, 3)
    g = GriddedDensity(PhaseSpaceDomain(0.0, 4.0, -1.0, 1.0), vals)
    rows = g.rows(3, 6)
    np.testing.assert_array_equal(rows, vals[[3, 0, 1]])
    rows[:] = -1.0
    np.testing.assert_array_equal(g.values, np.arange(12.0).reshape(4, 3))


def test_mass_matches_2d_trapezoid_with_wrap():
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    g = GriddedDensity(dom, np.random.default_rng(3).random((16, 9)))
    # reference: trapezoid in v, periodic extension then trapezoid in x
    ext = np.vstack([g.values, g.values[:1]])
    ref = np.trapezoid(np.trapezoid(ext, dx=g.dv, axis=1), dx=g.dx)
    assert g.mass() == pytest.approx(ref, rel=1e-13)
