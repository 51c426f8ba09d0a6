import numpy as np
import pytest

from harness import sweep_bound_ties, traced_peak
from oracles import (brute_force_star_discrepancy, fit_loglog_slope,
                     sobol_pairs_sequential, star_discrepancy_histogram_sweep)
from vpqmc import lowdisc
from vpqmc.core import InitialCondition, ParticleEnsemble, PhaseSpaceDomain
from vpqmc.coupling import run_pic
from vpqmc.pic import IntegratorKind, SplinePoissonSolver
from vpqmc.sampling import uniform_sample
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


def test_matches_histogram_sweep_bitwise_on_windows_of_a_pic_run(monkeypatch):
    # the windowed sets that a discrepancy-tracking run measures: 2e5
    # uniform Sobol markers pushed by symplectic Euler, at t = 0, 7.5, 15
    measured = []

    def keep(points):
        measured.append(points)
        return star_discrepancy(points)

    monkeypatch.setattr(lowdisc, "star_discrepancy", keep)
    dom = PhaseSpaceDomain(0.0, 4 * np.pi, -8.0, 8.0)
    e = uniform_sample(InitialCondition(epsilon=0.5, k=0.5),
                       generate_pairs(Sobol(skip=1), 200_000), dom)
    records = run_pic(e, SplinePoissonSolver.build(0.0, dom.length, 32),
                      IntegratorKind.SYMPLECTIC_EULER, 0.3, 0.0, 15.0,
                      out_stride=25, star_disc_period=1)
    assert [r.t for r in records] == [0.0, 7.5, 15.0]
    assert all(3900 < len(p) <= 4000 for p in measured)
    # a window of a uniform Sobol fill, as at t = 0, is among the cases of
    # test_kernels.py
    for rec, pts in zip(records[1:], measured[1:]):
        assert rec.star_disc == star_discrepancy_histogram_sweep(pts)


def _lattice_with_ends(rng, levels, n):
    """n points on a 1/levels lattice in x (x = 0 and x = 1 each held by
    several of them) and a 1/16 lattice in y."""
    xs = np.r_[0.0, 0.0, 1.0, 1.0, np.floor(rng.random(n - 4) * (levels + 1)) / levels]
    return np.column_stack([rng.permutation(xs), np.floor(rng.random(n) * 16) / 16])


def test_matches_histogram_sweep_bitwise_where_a_group_bound_meets_the_maximum():
    # dyadic x and y on lattices: every value is exact, so many tie, and
    # the sweep skips groups whose bound equals its maximum; distinct x,
    # then tied x with groups at x = 0 and x = 1
    rng = np.random.default_rng(4)
    sets = [np.column_stack([(rng.permutation(n) + 0.5) / n,
                             np.floor(rng.random(n) * levels) / levels])
            for levels, n in ((4, 1024), (8, 1000), (16, 512))]
    sets += [_lattice_with_ends(rng, levels, n) for levels, n in ((4, 1000), (16, 700))]
    for pts in sets:
        ties, mirrored = sweep_bound_ties(pts)
        assert ties > 0
        assert star_discrepancy(pts) == mirrored == star_discrepancy_histogram_sweep(pts)


def _shuffle_y_within_tied_x(rng, pts):
    """pts with the y of each group of points that share an x permuted
    among that group's rows; every other row as it was."""
    out = pts.copy()
    for u in np.unique(pts[:, 0]):
        rows = np.flatnonzero(pts[:, 0] == u)
        out[rows, 1] = pts[rng.permutation(rows), 1]
    return out


def test_tied_points_go_in_in_any_order():
    # the stable sort on x keeps the rows of a tied x in their order, so
    # permuting y inside each tied group changes the order in which the
    # group's points go in, and nothing else
    rng = np.random.default_rng(23)
    sets = list(_tied_sets(rng, 350))
    sets += [_lattice_with_ends(rng, levels, n) for levels, n in ((2, 40), (8, 300), (16, 900))]
    for pts in sets:
        want = star_discrepancy_histogram_sweep(pts)
        for _ in range(3):
            assert star_discrepancy(_shuffle_y_within_tied_x(rng, pts)) == want, pts


# Sets whose maximum is a value of one end of a four-rank group, across a
# gap in y from the group's other ranks, while the group's other bound
# stays below the maximum: the open corner (0.9, 0.99) of the last rank,
# with 0.99's rank later raised by 35 points below it, and the closed
# corner (0.5, 0.21) of the first.  A bound read from a rank nearer the
# gap would skip the group and lose the maximum.
_GROUP_END_CASES = {
    "open": (np.column_stack([np.r_[0.01, 0.02, 0.03, 0.04, 0.9, np.linspace(0.91, 0.99, 35)],
                              np.r_[0.1, 0.11, 0.12, 0.99, 0.05, np.linspace(0.13, 0.98, 35)]]),
             0.9 * 0.99 - 3 / 40),
    "closed": (np.column_stack([np.r_[np.linspace(0.005, 0.295, 30), 0.35, 0.37, 0.39, 0.45,
                                      0.5, np.linspace(0.6, 0.95, 5)],
                                np.r_[np.linspace(0.005, 0.195, 30), 0.9, 0.91, 0.92, 0.21,
                                      0.205, np.linspace(0.95, 0.99, 5)]]),
               32 / 40 - 0.5 * 0.21),
}


@pytest.mark.parametrize("end", sorted(_GROUP_END_CASES))
def test_maximum_at_one_end_of_a_rank_group(end):
    pts, want = _GROUP_END_CASES[end]
    assert star_discrepancy(pts) == star_discrepancy_histogram_sweep(pts) == want


def test_matches_histogram_sweep_bitwise_in_any_order():
    # Sobol points and points tied in x and y on a 1/16 lattice, in
    # their order, reversed and shuffled
    rng = np.random.default_rng(21)
    pts = np.vstack([generate_pairs(Sobol(skip=3), 1500),
                     np.floor(rng.random((500, 2)) * 16) / 16])
    want = star_discrepancy_histogram_sweep(pts)
    for order in (slice(None), slice(None, None, -1), rng.permutation(2000),
                  rng.permutation(2000)):
        assert star_discrepancy(pts[order]) == want


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
