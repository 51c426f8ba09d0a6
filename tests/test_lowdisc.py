import numpy as np
import pytest

from harness import traced_peak
from oracles import (brute_force_star_discrepancy, fit_loglog_slope,
                     sobol_pairs_sequential, star_discrepancy_histogram_sweep)
from vpqmc.core import ParticleEnsemble
from vpqmc.lowdisc import (EmptyPointSet, PseudoRandom, Sobol, generate_pairs,
                           star_discrepancy, star_discrepancy_in_window)


def test_sobol_first_three_points():
    pts = generate_pairs(Sobol(skip=1), 3)
    np.testing.assert_allclose(pts, [[0.5, 0.5], [0.75, 0.25], [0.25, 0.75]])


def test_sobol_matches_sequential_oracle():
    ref = sobol_pairs_sequential(1, 600)
    np.testing.assert_array_equal(generate_pairs(Sobol(skip=1), 600), ref)
    ref = sobol_pairs_sequential(173, 64)
    np.testing.assert_array_equal(generate_pairs(Sobol(skip=173), 64), ref)


def test_sobol_matches_scipy_qmc():
    qmc = pytest.importorskip("scipy.stats.qmc")
    ref = qmc.Sobol(d=2, scramble=False).random(256)
    np.testing.assert_allclose(generate_pairs(Sobol(skip=1), 255), ref[1:],
                               atol=1e-15)


def test_sobol_block_distinct_and_in_range():
    pts = generate_pairs(Sobol(skip=1), 2 ** 16)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    assert len(np.unique(pts, axis=0)) == 2 ** 16


def test_sobol_skip_invariant():
    with pytest.raises(ValueError):
        Sobol(skip=0)


def test_pseudorandom_deterministic():
    a = generate_pairs(PseudoRandom(seed=1234), 2)
    b = generate_pairs(PseudoRandom(seed=1234), 2)
    np.testing.assert_array_equal(a, b)
    c = generate_pairs(PseudoRandom(seed=1235), 2)
    assert not np.array_equal(a, c)


# --- star discrepancy ---------------------------------------------------------

def test_single_centre_point():
    assert star_discrepancy(np.array([[0.5, 0.5]])) == pytest.approx(0.75)


def test_two_diagonal_points():
    pts = np.array([[0.25, 0.25], [0.75, 0.75]])
    assert star_discrepancy(pts) == pytest.approx(0.4375)


def test_point_near_upper_corner():
    for delta in (1e-3, 1e-6, 1e-9):
        d = star_discrepancy(np.array([[1 - delta, 1 - delta]]))
        assert d == pytest.approx(1.0, abs=3 * delta)


def test_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 20, 40):
        pts = rng.random((n, 2))
        assert star_discrepancy(pts) == pytest.approx(
            brute_force_star_discrepancy(pts), abs=1e-14)
    # duplicated coordinates and ties; a 1/8 lattice; every point three times
    tied = [np.array([[0.25, 0.5], [0.25, 0.5], [0.25, 0.75], [0.8, 0.5]]),
            np.floor(rng.random((30, 2)) * 8) / 8,
            np.repeat(rng.random((12, 2)), 3, axis=0)]
    for pts in tied:
        assert star_discrepancy(pts) == pytest.approx(
            brute_force_star_discrepancy(pts), abs=1e-14)


_RNG = np.random.default_rng(9)
_EDGES = np.array([[1.0, 0.3], [0.2, 1.0], [0.0, 0.0], [1.0, 1.0],
                   [0.0, 0.7], [0.4, 0.0], [1.0, 0.0], [0.0, 1.0]])
_BITWISE_CASES = {
    "sobol_4096": generate_pairs(Sobol(skip=1), 4096),
    "pcg64_3980": generate_pairs(PseudoRandom(seed=0), 3980),
    "lattice_64": np.floor(_RNG.random((3000, 2)) * 64) / 64,
    "lattice_64_x_only": np.column_stack(
        [np.floor(_RNG.random(3000) * 64) / 64, _RNG.random(3000)]),
    "edges": np.vstack([_RNG.random((300, 2)), _EDGES]),
    "each_three_times": np.repeat(_RNG.random((700, 2)), 3, axis=0),
}


@pytest.mark.parametrize("name", sorted(_BITWISE_CASES))
def test_matches_histogram_sweep_bitwise(name):
    pts = _BITWISE_CASES[name]
    assert star_discrepancy(pts) == star_discrepancy_histogram_sweep(pts)


def _tied_sets(rng, count):
    """Small point sets with ties in x, in y or in both (on lattices that
    hold 0 and 1 themselves), with every point repeated, or on one x or
    one y."""
    for case in range(count):
        n = int(rng.integers(1, 30))
        pts = rng.random((n, 2))
        levels = int(rng.integers(1, 7))
        on_lattice = np.round(pts * levels) / levels  # 0 and 1 included
        kind = case % 7
        if kind in (0, 2):
            pts[:, 0] = on_lattice[:, 0]
        if kind in (1, 2):
            pts[:, 1] = on_lattice[:, 1]
        if kind == 3:
            pts = np.repeat(pts[:max(1, n // 3)], 3, axis=0)
        if kind == 4:
            pts[:, 0] = rng.choice([0.0, 1.0, pts[0, 0]])
        if kind == 5:
            pts[:, 1] = rng.choice([0.0, 1.0, pts[0, 1]])
        yield pts


def test_matches_histogram_sweep_bitwise_on_tied_sets():
    rng = np.random.default_rng(19)
    for pts in _tied_sets(rng, 1400):
        assert star_discrepancy(pts) == star_discrepancy_histogram_sweep(pts), pts


def test_sweep_memory_is_linear():
    # an n x m corner table at n = 4000 would be 128 MB
    pts = generate_pairs(PseudoRandom(seed=3), 4000)
    star_discrepancy(pts)  # numpy loads some modules on first use
    peak, _ = traced_peak(lambda: star_discrepancy(pts))
    assert peak < 1 << 20


def test_points_outside_unit_square_rejected():
    for bad in ([[0.5, 1.5]], [[-0.1, 0.5]], [[np.nan, 0.5]]):
        with pytest.raises(ValueError):
            star_discrepancy(np.array(bad))


def test_permutation_invariance_and_range():
    rng = np.random.default_rng(5)
    pts = rng.random((64, 2))
    d = star_discrepancy(pts)
    assert 0.0 < d <= 1.0
    perm = rng.permutation(64)
    assert star_discrepancy(pts[perm]) == d


def test_empty_point_set_raises():
    with pytest.raises(EmptyPointSet):
        star_discrepancy(np.empty((0, 2)))


def test_sobol_monotone_refinement():
    values = [star_discrepancy(generate_pairs(Sobol(skip=1), 2 ** m))
              for m in range(4, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scaling_slopes_random_vs_sobol():
    sizes = [2 ** m for m in range(8, 15)]
    med_random = []
    for n in sizes:
        ds = [star_discrepancy(generate_pairs(PseudoRandom(seed=s), n))
              for s in range(3)]
        med_random.append(np.median(ds))
    slope_random = fit_loglog_slope(sizes, med_random)
    assert -0.65 <= slope_random <= -0.35

    sobol_ds = [star_discrepancy(generate_pairs(Sobol(skip=1), n)) for n in sizes]
    slope_sobol = fit_loglog_slope(sizes, sobol_ds)
    assert slope_sobol <= -0.8


# --- windowed discrepancy -----------------------------------------------------

def _ensemble_from(xs, vs):
    n = len(xs)
    return ParticleEnsemble(x=np.asarray(xs, float), v=np.asarray(vs, float),
                            f_like=np.ones(n), g_like=np.ones(n))


def test_window_rescale_composition():
    # markers placed at known window fractions give the same D* as the
    # directly rescaled point set
    window = (1.0, 3.0, -0.5, 0.5)
    fracs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    xs = 1.0 + 2.0 * fracs[:, 0]
    vs = -0.5 + 1.0 * fracs[:, 1]
    res = star_discrepancy_in_window(_ensemble_from(xs, vs), window)
    assert res.n_in_window == 3
    assert res.d_star == pytest.approx(star_discrepancy(fracs), abs=1e-14)


def test_window_selects_and_caps():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 4, 6000)
    vs = rng.uniform(-2, 2, 6000)
    res = star_discrepancy_in_window(_ensemble_from(xs, vs), (0, 2, -1, 1),
                                     cap=500)
    assert res.n_in_window > 1000
    assert res.n_used <= 500


@pytest.mark.parametrize("cap", [0, -1, -5])
def test_window_cap_below_one_rejected(cap):
    e = _ensemble_from(np.linspace(0.1, 1.9, 10), np.linspace(-0.9, 0.9, 10))
    with pytest.raises(ValueError, match=r"^cap must be >= 1$"):
        star_discrepancy_in_window(e, (0.0, 2.0, -1.0, 1.0), cap=cap)


@pytest.mark.parametrize("window", [(0.0, np.inf, -1.0, 1.0), (-np.inf, np.inf, -1.0, 1.0),
                                    (0.0, 2.0, -1.0, np.nan), (0.0, 2.0, -1e308, 1e308)])
def test_window_must_have_positive_finite_extent(window):
    e = _ensemble_from(np.linspace(0.1, 1.9, 10), np.linspace(-0.9, 0.9, 10))
    with pytest.raises(ValueError, match=r"^window must have positive, finite extent$"):
        star_discrepancy_in_window(e, window)


def test_window_disjoint_raises():
    with pytest.raises(EmptyPointSet):
        star_discrepancy_in_window(_ensemble_from([0.1], [0.0]), (2.0, 3.0, -1, 1))


def test_sobol_uniform_beats_pseudorandom_in_window():
    # fresh uniform fills of [0,4pi] x [-8,8]: the Sobol fill has smaller
    # D* in the measurement window than the pseudo-random average
    from vpqmc.core import InitialCondition, PhaseSpaceDomain
    from vpqmc.sampling import uniform_sample

    ic = InitialCondition(epsilon=0.5, k=0.5)
    dom = PhaseSpaceDomain(0.0, 4 * np.pi, -8.0, 8.0)
    window = (0.0, 2.0, -1.0, 1.0)
    e_sobol = uniform_sample(ic, generate_pairs(Sobol(skip=1), 4096), dom)
    d_sobol = star_discrepancy_in_window(e_sobol, window).d_star
    d_random = np.mean([
        star_discrepancy_in_window(
            uniform_sample(ic, generate_pairs(PseudoRandom(seed=s), 4096), dom),
            window).d_star
        for s in range(10)])
    assert d_sobol < d_random
