"""Independent oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
package code it checks: brute-force enumeration and a histogram-and-cumsum
sweep for the star discrepancy, the sequential Gray-code recurrence for
Sobol, the plasma dispersion function for the Landau rate, dense linear
algebra for the mass solve, complex transforms and a hand-embedded
Hermitian spectrum for the real-input spectral solver, scipy's erfcinv
with a Newton step for the normal quantile.  The exceptions are the
numpy forms of the package's compiled loops (``vpqmc/_kernels.c``): the
same evaluation order in whole-array steps, which each loop must match
bit for bit.
"""

import numpy as np
from scipy.special import erfc, erfcinv, wofz


def brute_force_star_discrepancy(points):
    """O(n^3) reference D*: direct counting at every critical corner."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    us = np.unique(np.append(pts[:, 0], 1.0))
    ws = np.unique(np.append(pts[:, 1], 1.0))
    best = 0.0
    for u in us:
        for w in ws:
            closed = np.count_nonzero((pts[:, 0] <= u) & (pts[:, 1] <= w))
            opened = np.count_nonzero((pts[:, 0] < u) & (pts[:, 1] < w))
            area = u * w
            best = max(best, closed / n - area, area - opened / n)
    return best


def star_discrepancy_histogram_sweep(points):
    """O(n^2) reference D*: per distinct u, a histogram of w ranks and two
    full cumulative sums.  Every corner value is the same floating-point
    expression as in the package kernel (u*w_j, count/n, one subtraction),
    so the two must agree bit for bit."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    xs = pts[:, 0]
    ys = pts[:, 1]
    ucands = np.unique(np.append(xs, 1.0))
    wcands = np.unique(np.append(ys, 1.0))
    m = wcands.size

    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    yrank = np.searchsorted(wcands, ys[order])

    hist = np.zeros(m, dtype=np.int64)
    best = 0.0
    lo = 0
    for u in ucands:
        hi_strict = np.searchsorted(xs_sorted, u, side="left")
        hi_closed = np.searchsorted(xs_sorted, u, side="right")
        # points with x < u
        np.add.at(hist, yrank[lo:hi_strict], 1)
        cum = np.cumsum(hist)
        # open count with y < w_j is the cumulative up to rank j-1
        open_cnt = np.concatenate(([0], cum[:-1]))
        area = u * wcands
        over = np.max(area - open_cnt / n)
        # add points with x == u for the closed criterion
        np.add.at(hist, yrank[hi_strict:hi_closed], 1)
        closed_cnt = np.cumsum(hist)
        under = np.max(closed_cnt / n - area)
        best = max(best, over, under)
        lo = hi_closed
    return float(best)


def star_discrepancy_passed_points_reference(points):
    """``vpqmc.lowdisc.star_discrepancy``'s passed-points sweep in numpy:
    the y of the k points passed in the even slots of one interleaved
    buffer, negated, with their upper neighbours in the odd slots, so
    that per single point one shift inserts it and one multiply, one
    subtraction of the interleaved (-(t+1)/n, t/n) and one max take the
    closed value of each moved rank and the open value of the rank above
    it.  The points of a tied x go in by one merge, between their open
    and closed values.  The same values as the compiled sweep, so the
    same bits."""
    from bisect import bisect_right

    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    xs, ys = pts[:, 0], pts[:, 1]
    order = np.argsort(xs, kind="stable")
    ys = ys[order]
    ucands = np.unique(np.append(xs, 1.0))
    # ends[i] points have x <= ucands[i], sizes[i] of them x == ucands[i]
    # (mostly 1, a cached int, so the list costs no int objects).
    ends = np.searchsorted(xs[order], ucands, side="right")
    sizes = np.diff(ends, prepend=0).tolist()
    # The open corners (u, 1), u minus the count of points with x < u.
    best = float(np.max(ucands - np.concatenate(([0], ends[:-1])) / n))

    # pairs[2t] = -S[t] and pairs[2t+1] = S[t+1] for t < k, with S[k] = 0
    # (its open value -k/n cannot win); table[2t] = -(t+1)/n and
    # table[2t+1] = t/n.  After a point lands at rank t, u*pairs - table
    # from 2t on holds the closed value of each rank and the open value
    # of the rank above it, which moved up from there.
    pairs = np.zeros(2 * n + 2)
    table = np.empty(2 * n)
    np.divide(np.arange(n), n, out=table[1::2])
    np.divide(np.arange(-1, -n - 1, -1), n, out=table[0::2])
    counts = table[1::2]  # t/n
    crit = np.empty(2 * n)
    passed = []  # S[:k] as a list, for bisect
    y_list = ys.tolist()
    last = ucands.size - 1
    k = 0
    for i, (u, size) in enumerate(zip(ucands.tolist(), sizes)):
        if i == last and k:
            # the open corners (1, S[t]) of every passed rank
            here = crit[:k]
            np.negative(pairs[:2 * k:2], out=here)
            here -= counts[:k]
            best = max(best, np.maximum.reduce(here))
        if size == 1:
            y = y_list[k]
            if passed is None:
                passed = np.negative(pairs[:2 * k:2]).tolist()
            t = bisect_right(passed, y)
            passed.insert(t, y)
            pairs[2 * t + 2:2 * k + 4] = pairs[2 * t:2 * k + 2]
            pairs[2 * t] = -y
            pairs[2 * t + 1] = passed[t + 1] if t < k else 0.0
            if t:
                pairs[2 * t - 1] = y
            k += 1
            here = crit[:2 * (k - t)]
            np.multiply(u, pairs[2 * t:2 * k], out=here)
            np.subtract(here, table[2 * t:2 * k], out=here)
            best = max(best, np.maximum.reduce(here))
        elif size:
            group = ys[k:k + size]
            s = np.negative(pairs[:2 * k:2])
            t = int(np.searchsorted(s, group.min(), side="right"))
            if t < k:
                # the open corners at u of the ranks that will move
                here = crit[:k - t]
                np.multiply(-u, pairs[2 * t:2 * k:2], out=here)
                np.subtract(here, counts[t:k], out=here)
                best = max(best, np.maximum.reduce(here))
            s = np.concatenate((s, group))
            s.sort(kind="stable")  # a merge of two sorted runs
            k = s.size
            np.negative(s, out=pairs[:2 * k:2])
            pairs[1:2 * k - 1:2] = s[1:]
            pairs[2 * k - 1] = 0.0
            passed = None  # rebuilt when a single point next needs it
            # the closed corners at u of the ranks that moved
            here = crit[:k - t]
            np.multiply(u, pairs[2 * t:2 * k:2], out=here)
            np.subtract(here, table[2 * t:2 * k:2], out=here)
            best = max(best, np.maximum.reduce(here))
    return float(best)


def sobol_pairs_sequential(skip, n):
    """Sobol reference: the one-point-at-a-time Gray-code update
    x_i = x_{i-1} XOR V[lowest zero bit of i-1]."""
    nb = 32
    m2 = [1]
    for _ in range(nb - 1):
        m2.append(m2[-1] ^ (m2[-1] << 1))
    v1 = [1 << (nb - k) for k in range(1, nb + 1)]
    v2 = [m2[k - 1] << (nb - k) for k in range(1, nb + 1)]
    out = []
    a = b = 0
    for i in range(skip + n):
        if i >= skip:
            out.append((a / 2.0 ** nb, b / 2.0 ** nb))
        # lowest zero bit of i
        c = 0
        j = i
        while j & 1:
            j >>= 1
            c += 1
        a ^= v1[c]
        b ^= v2[c]
    return np.array(out[:n])


def sobol_pairs_rounds_reference(skip, n):
    """``vpqmc.lowdisc._sobol_pairs`` in numpy: the Gray-code formula
    x_i = XOR of direction integers over the set bits of gray(i), for all
    n indices at once in one round per bit, then scaled by 2^-32."""
    from vpqmc.lowdisc import _SOBOL_V1, _SOBOL_V2

    gray = np.arange(skip, skip + n, dtype=np.uint64)
    gray ^= gray >> np.uint64(1)
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    for bit in range(_SOBOL_V1.size):
        mask = gray & np.uint64(1)
        gray >>= np.uint64(1)
        a ^= mask * _SOBOL_V1[bit]
        b ^= mask * _SOBOL_V2[bit]
    scale = 2.0 ** -_SOBOL_V1.size
    return np.column_stack([a * scale, b * scale])


def std_normal_ppf_erfcinv_newton(p):
    """Inverse standard-normal CDF: erfcinv, then one Newton step.

    The package used this quantile before its scipy-free AS241 form, with
    one difference: its Newton step took the CDF as (1 + erf(z/sqrt 2))/2,
    which cancels in the lower tail (2e-9 relative off at p = 1e-10, 1e-2
    at p = 1e-20).  Here the CDF is erfc(-z/sqrt 2)/2, accurate in both
    tails.
    """
    p = np.asarray(p, dtype=float)
    z = -np.sqrt(2.0) * erfcinv(2.0 * p)
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return z - (0.5 * erfc(-z / np.sqrt(2.0)) - p) / np.maximum(pdf, 1e-300)


def plasma_dispersion_z(zeta):
    """Z(zeta) = i sqrt(pi) w(zeta) with w the Faddeeva function."""
    return 1j * np.sqrt(np.pi) * wofz(zeta)


def landau_root(k, guess=1.4 - 0.15j, iterations=60):
    """Least-damped root of 1 + (1 + zeta Z(zeta))/k^2 = 0, zeta = omega/(sqrt2 k).

    Newton iteration with the analytic derivative Z' = -2 (1 + zeta Z).
    Returns complex omega; the damping rate is -omega.imag.
    """
    omega = complex(guess)
    s2k = np.sqrt(2.0) * k
    for _ in range(iterations):
        zeta = omega / s2k
        z = plasma_dispersion_z(zeta)
        eps = 1.0 + (1.0 + zeta * z) / k ** 2
        zprime = -2.0 * (1.0 + zeta * z)
        deps = (z + zeta * zprime) / (k ** 2 * s2k)
        step = eps / deps
        omega = omega - step
        if abs(step) < 1e-14:
            break
    return omega


def ks_statistic_uniform(samples, lo, hi):
    """One-sample Kolmogorov-Smirnov distance to the uniform law on [lo, hi]."""
    x = np.sort((np.asarray(samples) - lo) / (hi - lo))
    n = len(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - x), np.max(x - (grid - 1.0 / n))))


def ks_statistic_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / len(a)
    cdf_b = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def fit_loglog_slope(n_values, errors):
    """Least-squares slope of log(error) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(n_values, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


def bspline3_weights_reference(u, order=0):
    """The four cubic B-splines covering a cell (offsets -1, 0, 1, 2) at
    local u in [0, 1), or their first or second derivative in u: the
    textbook formulas, written out as whole-array expressions."""
    c = 1.0 - u
    if order == 0:
        return (c * c * c / 6.0,
                (3.0 * u ** 3 - 6.0 * u ** 2 + 4.0) / 6.0,
                (-3.0 * u ** 3 + 3.0 * u ** 2 + 3.0 * u + 1.0) / 6.0,
                u ** 3 / 6.0)
    if order == 1:
        return (-0.5 * c * c,
                1.5 * u ** 2 - 2.0 * u,
                -1.5 * u ** 2 + u + 0.5,
                0.5 * u ** 2)
    return (1.0 - u, 3.0 * u - 2.0, -3.0 * u + 1.0, u)


def _spline_cells_reference(x, x_min, dx, n_f):
    t = (np.asarray(x, dtype=float) - x_min) / dx
    i = np.floor(t).astype(np.int64)
    return i % n_f, t - i


def spline_deposit_reference(x, weights, x_min, dx, n_f):
    """sum_k weights_k N_j(x_k) for each periodic cubic B-spline j, binned
    by each neighbour's own index (no shared lookup, no rotation)."""
    i, u = _spline_cells_reference(x, x_min, dx, n_f)
    b = np.zeros(n_f)
    for off, wgt in zip((-1, 0, 1, 2), bspline3_weights_reference(u)):
        b += np.bincount((i + off) % n_f, weights=weights * wgt, minlength=n_f)
    return b


def spline_eval_reference(coeffs, x, x_min, dx, n_f, order):
    """The order-th u-derivative of sum_j coeffs_j N_j at x (divide by
    dx**order for the x-derivative)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    i, u = _spline_cells_reference(x, x_min, dx, n_f)
    out = np.zeros_like(u)
    for off, wgt in zip((-1, 0, 1, 2), bspline3_weights_reference(u, order)):
        out += coeffs[(i + off) % n_f] * wgt
    return out


def periodic_cell_reference(x, x_min, h, n):
    """``vpqmc.core.periodic_cell`` in numpy: the floor cast to int64 (on
    x86-64 a NaN, infinite or out-of-range floor casts to -2**63), the
    coordinate less the cast floor, then the index modulo n where one is
    out of range."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        u = np.subtract(x, x_min, out=np.empty(x.shape))
        u /= h
        i = np.floor(u, out=np.empty(x.shape, np.int64), casting="unsafe")
        u -= i
    if i.size and (i.min() < 0 or i.max() >= n):
        i %= n
    return i, u


def wrap_reference(x, x_min, length):
    """``vpqmc.pic._wrap``'s positions by numpy's float modulo."""
    with np.errstate(invalid="ignore"):
        return x_min + np.mod(np.asarray(x, dtype=float) - x_min, length)


def push_reference(kind, ensemble, fields, dt):
    """``vpqmc.pic.push`` with a separate branch per kind, as written
    before its split kinds shared one stage loop: symplectic Euler drifts,
    wraps and kicks; RUTH3 kicks then drifts per stage; each position is
    wrapped by ``wrap_reference`` after it is rebound, under a
    ``SelfConsistentField`` only.  The numpy form of one kick/drift stage:
    ``push`` must match it bit for bit."""
    from dataclasses import replace
    from vpqmc.core import Q_OVER_M, RUTH3
    from vpqmc.pic import (_FIXED_POINT_CAP, _FIXED_POINT_TOL, FixedPointDiverged,
                           IntegratorKind, SelfConsistentField)

    qm = Q_OVER_M
    solver = fields.solver if isinstance(fields, SelfConsistentField) else None

    def wrap(carrier):
        if solver is not None:
            carrier.x = wrap_reference(carrier.x, solver.x_min, solver.length)

    if kind in (IntegratorKind.EXPLICIT_EULER, IntegratorKind.EXPLICIT_EULER2):
        field = fields(ensemble)
        e_old = field.E(ensemble.x)
        det = 1.0 - dt * dt * qm * field.dE(ensemble.x)
        ensemble.x = ensemble.x + dt * ensemble.v
        ensemble.v = ensemble.v + dt * qm * e_old
        ensemble.g_like = ensemble.g_like / det
        if kind is IntegratorKind.EXPLICIT_EULER2:
            ensemble.f_like = ensemble.f_like / det
        wrap(ensemble)
    elif kind is IntegratorKind.SYMPLECTIC_EULER:
        ensemble.x = ensemble.x + dt * ensemble.v
        wrap(ensemble)
        ensemble.v = ensemble.v + dt * qm * fields(ensemble).E(ensemble.x)
    elif kind is IntegratorKind.RUTH3:
        for c, d in zip(RUTH3.drift, RUTH3.kick):
            ensemble.v = ensemble.v + d * dt * qm * fields(ensemble).E(ensemble.x)
            ensemble.x = ensemble.x + c * dt * ensemble.v
            wrap(ensemble)
    elif kind is IntegratorKind.IMPLICIT_MIDPOINT:
        x_n = ensemble.x
        v_n = v_half = ensemble.v
        trial = replace(ensemble)
        x_half_prev = None
        for _ in range(_FIXED_POINT_CAP):
            x_half = x_n + 0.5 * dt * v_half
            if x_half_prev is not None:
                resid = float(np.max(np.abs(x_half - x_half_prev)))
                if resid <= _FIXED_POINT_TOL:
                    break
            x_half_prev = x_half
            trial.x = x_half
            wrap(trial)
            field = fields(trial)
            v_half = v_n + 0.5 * dt * qm * field.E(trial.x)
        else:
            raise FixedPointDiverged("reference fixed point stalled",
                                     _FIXED_POINT_CAP, resid)
        e_half = field.E(trial.x)
        ensemble.x = x_n + dt * v_half
        ensemble.v = v_n + dt * qm * e_half
        wrap(ensemble)
    else:
        raise ValueError(f"unknown integrator kind {kind!r}")


def spline_deposit_bincount_reference(stencil, weights):
    """``vpqmc.pic.SplineStencil.deposit`` in numpy: each power moment by
    np.bincount over the stencil's cells (which sums in marker order),
    with w u^p as ((w*u)*u)*u, then the same table product and rotation."""
    from vpqmc.pic import _BSPLINE3

    n = stencil.solver.n_f
    moments = np.empty((4, n))
    wu = weights
    for p in range(4):
        if p:
            wu = wu * stencil.u
        moments[p] = np.bincount(stencil.i, weights=wu, minlength=n)
    b = np.zeros(n)
    for k, row in enumerate(_BSPLINE3 @ moments):
        b[stencil.solver.neighbours[k:k + n]] += row
    return b


def spline_evaluate_take_reference(stencil, coeffs, order):
    """``vpqmc.pic.SplineStencil.evaluate`` in numpy: the same per-cell
    polynomial table, then Horner in u over np.take of its rows."""
    from numpy.lib.stride_tricks import sliding_window_view
    from vpqmc.pic import _BSPLINE3

    n = stencil.solver.n_f
    window = sliding_window_view(coeffs[stencil.solver.neighbours], n)
    poly = _BSPLINE3.T @ window
    for _ in range(order):
        poly = poly[1:] * np.arange(1.0, len(poly))[:, None]
    out = np.take(poly[-1], stencil.i)
    for row in poly[-2::-1]:
        out *= stencil.u
        out += np.take(row, stencil.i)
    return out


def _sampling_density_reference(s):
    """|density| / mass of a ``vpqmc.sampling.BilinearSampler`` as one
    whole grid."""
    from vpqmc.core import GriddedDensity

    return GriddedDensity(s.domain, np.abs(s.density.values) / s.mass)


def sample_conditional_v_dense_reference(s, x, u_v):
    """The conditional inversion of ``vpqmc.sampling.sample_conditional_v``
    by the dense route: |density| / mass and its per-column cumulative
    table over the whole grid (:func:`cum_cols_concatenate_reference`),
    the whole n x nv table of interpolated cumulative sums, and the cell
    as the count of entries not above the target, minus one.  The cell
    lookup and the in-cell root are the package's own."""
    from vpqmc.core import periodic_cell
    from vpqmc.sampling import ZeroConditional, _invert_cell_quadratic

    g = _sampling_density_reference(s)
    values, cum_cols = g.values, cum_cols_concatenate_reference(g)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u_v, dtype=float))
    if x.shape != u.shape:
        x, u = np.broadcast_arrays(x, u)
    ix, fx = periodic_cell(x, s.domain.x_min, s.dx, s.nx)
    ixp = (ix + 1) % s.nx
    gx_here = (1.0 - fx) * s.marginal_x_nodes[ix] + fx * s.marginal_x_nodes[ixp]
    if np.any(gx_here <= 0.0):
        raise ZeroConditional("conditional density requested on a zero-mass column")
    target = gx_here * u
    delta = (1.0 - fx)[:, None] * cum_cols[ix] + fx[:, None] * cum_cols[ixp]
    j = np.clip(np.sum(delta <= target[:, None], axis=1) - 1, 0, s.nv - 2)
    rows = np.arange(x.size)
    gamma0 = (1.0 - fx) * values[ix, j] + fx * values[ixp, j]
    gamma1 = (1.0 - fx) * values[ix, j + 1] + fx * values[ixp, j + 1]
    frac = _invert_cell_quadratic(gamma0, gamma1, target - delta[rows, j], s.dv)
    return s.domain.v_min + (j + frac) * s.dv


def rosenblatt_sample_chunked_reference(s, pairs, chunk=1 << 14):
    """(x, v, g_like) of the inverse Rosenblatt map, computed chunk by chunk
    in input order with the dense conditional table."""
    from vpqmc.sampling import sample_marginal_x

    pairs = np.asarray(pairs, dtype=float)
    xs = np.empty(pairs.shape[0])
    vs = np.empty(pairs.shape[0])
    for lo in range(0, pairs.shape[0], chunk):
        hi = min(lo + chunk, pairs.shape[0])
        xs[lo:hi] = sample_marginal_x(s, pairs[lo:hi, 0])
        vs[lo:hi] = sample_conditional_v_dense_reference(s, xs[lo:hi], pairs[lo:hi, 1])
    return xs, vs, np.asarray(_sampling_density_reference(s).bilinear_at(xs, vs))


def forward_cdf_reference(s, x, v):
    """The forward map of ``vpqmc.sampling.forward_cdf`` on whole-grid
    tables of nx rows (:func:`cum_cols_concatenate_reference`), with the
    next row of the last one addressed as row (ix + 1) % nx."""
    from vpqmc.core import bounded_cell
    from vpqmc.sampling import _cell_cdf

    g = _sampling_density_reference(s)
    values, cum_cols = g.values, cum_cols_concatenate_reference(g)
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    ix, fx = bounded_cell(x, s.domain.x_min, s.dx, s.nx + 1)
    ixp = (ix + 1) % s.nx
    a = s.marginal_x_nodes[ix]
    b = s.marginal_x_nodes[ixp]
    u_x = s.cum_x[ix] + _cell_cdf(a, b, fx, s.dx)

    j, fv = bounded_cell(v, s.domain.v_min, s.dv, s.nv)
    delta = (1.0 - fx) * cum_cols[ix, j] + fx * cum_cols[ixp, j]
    gamma0 = (1.0 - fx) * values[ix, j] + fx * values[ixp, j]
    gamma1 = (1.0 - fx) * values[ix, j + 1] + fx * values[ixp, j + 1]
    gx_here = (1.0 - fx) * a + fx * b
    col_mass = delta + _cell_cdf(gamma0, gamma1, fv, s.dv)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_v = np.where(gx_here > 0.0, col_mass / np.where(gx_here > 0, gx_here, 1.0), 0.0)
    return np.clip(u_x, 0.0, 1.0), np.clip(u_v, 0.0, 1.0)


def cum_cols_concatenate_reference(g):
    """The per-column trapezoid partial sums along v of the gridded density
    ``g``, as separate arrays: the cell pieces, their cumsum, and a zero
    column joined on by concatenation."""
    vals = g.values
    piece = 0.5 * g.dv * (vals[:, :-1] + vals[:, 1:])
    return np.concatenate([np.zeros((g.nx, 1)), np.cumsum(piece, axis=1)], axis=1)


def sample_gridded_density_unchunked_reference(density, sequence, n):
    """(x, v, g_like, f_like) of ``vpqmc.sampling.sample_gridded_density``
    in one pass over all n markers in input order: the whole sampling
    grid |density| / mass first, the conditional inversion by
    :func:`sample_conditional_v_dense_reference`, and each likelihood
    looked up afresh on its whole grid."""
    from vpqmc.lowdisc import generate_pairs
    from vpqmc.sampling import BilinearSampler, sample_marginal_x

    s = BilinearSampler(density)
    g = _sampling_density_reference(s)
    pairs = generate_pairs(sequence, n)
    x = sample_marginal_x(s, pairs[:, 0])
    v = sample_conditional_v_dense_reference(s, x, pairs[:, 1])
    return x, v, g.bilinear_at(x, v), density.bilinear_at(x, v)


def _kappa_complex(n, d):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=d)


def _filter_profile_complex(n):
    k = np.fft.fftfreq(n) * n
    kmax = np.max(np.abs(k))
    return np.exp(-36.0 * (np.abs(k) / kmax) ** 36)


def spectral_step_order3_complex_reference(s, dt):
    """One kick-first RUTH3 split step plus the exponential filter, with
    every transform complex (full fft/ifft, the real part kept): the
    field before each kick, the velocity shear, the free-streaming shear,
    then the 2-D filter.  Returns the new values array."""
    from vpqmc.core import Q, Q_OVER_M, RUTH3

    f = s.values
    kx = _kappa_complex(s.nx, s.dx)
    kv = _kappa_complex(s.nv, s.dv)
    v = s.v_nodes()
    nonzero = kx != 0.0
    for c, d in zip(RUTH3.drift, RUTH3.kick):
        rho_hat = np.fft.fft(s.dv * np.sum(f, axis=1))
        phi_hat = np.zeros_like(rho_hat)
        phi_hat[nonzero] = Q * rho_hat[nonzero] / kx[nonzero] ** 2
        e = np.fft.ifft(-1j * kx * phi_hat).real
        shift = Q_OVER_M * e * (d * dt)
        f = np.fft.ifft(np.fft.fft(f, axis=1) * np.exp(-1j * np.outer(shift, kv)),
                        axis=1).real
        phase = np.exp(-1j * np.outer(kx, v) * (c * dt))
        f = np.fft.ifft(np.fft.fft(f, axis=0) * phase, axis=0).real
    fh = np.fft.fft2(f)
    fh *= np.outer(_filter_profile_complex(s.nx), _filter_profile_complex(s.nv))
    return np.fft.ifft2(fh).real


def kick_phase_cumprod_reference(z, nk):
    """The (len(z), nk) table z_i**j of the spectral kick, built by
    np.cumprod along j from a column of ones: the numpy form the compiled
    ``vp_kick`` replaced, whose powers it builds by the same products."""
    phase = np.empty((z.size, nk), dtype=complex)
    phase[:, 0] = 1.0
    phase[:, 1:] = z[:, None]
    return np.cumprod(phase, axis=1, out=phase)


def _pad_spectrum_axis(fh, n_pad, axis):
    """Embed an unshifted FFT into an n_pad-times longer spectrum along axis.

    The Nyquist bin of an even-length transform is split in half between
    the +N/2 and -N/2 slots so a Hermitian spectrum stays Hermitian.
    """
    fh = np.moveaxis(fh, axis, 0)
    n = fh.shape[0]
    big = np.zeros((n_pad * n,) + fh.shape[1:], dtype=complex)
    if n_pad == 1:
        big[:] = fh
    else:
        half = n // 2
        if n % 2 == 0:
            big[:half] = fh[:half]
            big[half] = 0.5 * fh[half]
            big[-half] = 0.5 * fh[half]
            big[len(big) - half + 1:] = fh[half + 1:]
        else:
            big[:half + 1] = fh[:half + 1]
            big[len(big) - half:] = fh[half + 1:]
    return np.moveaxis(big, 0, axis)


def zero_pad_complex_reference(values, n_pad):
    """The trigonometric interpolant of a real (nx, nv) array on the
    n_pad-times finer grid, by embedding its full 2-D spectrum into a
    zero-filled one; with the wrap column, shape (n_pad*nx, n_pad*nv + 1)."""
    fh = np.fft.fft2(values)
    fh = _pad_spectrum_axis(fh, n_pad, 0)
    fh = _pad_spectrum_axis(fh, n_pad, 1)
    fine = (np.fft.ifft2(fh) * (n_pad * n_pad)).real
    return np.concatenate([fine, fine[:, :1]], axis=1)


def zero_pad_two_step_reference(values, n_pad):
    """``vpqmc.spectral.zero_pad``'s values in the form that allocates each
    step: per axis (x, then v) the real spectrum, the halved Nyquist bin of
    an even length, and a new inverse transform at n_pad times the length
    times n_pad; then the wrap column joined on by concatenation."""
    fine = values
    if n_pad > 1:
        for axis in (0, 1):
            n = fine.shape[axis]
            fh = np.fft.rfft(fine, axis=axis)
            if n % 2 == 0:
                np.moveaxis(fh, axis, 0)[n // 2] *= 0.5
            fine = np.fft.irfft(fh, n_pad * n, axis=axis) * n_pad
    return np.concatenate([fine, fine[:, :1]], axis=1)


def spectral_moments_node_sum_reference(s):
    """(total mass, kinetic energy) of a ``vpqmc.spectral.SpectralState``
    as whole-grid node sums: of f, and of v_j**2 f built as a full
    (nx, nv) product."""
    mass = float(s.dx * s.dv * np.sum(s.values))
    kinetic = float(0.5 * s.dx * s.dv * np.sum(s.v_nodes() ** 2 * s.values))
    return mass, kinetic
