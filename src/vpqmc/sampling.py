"""Inverse transform sampling.

Two routes to a marker ensemble:

* :func:`its_tensor_product` draws from the analytic initial condition,
  whose density factorizes into one-dimensional pieces (Newton inversion
  of the spatial CDF, truncated-Gaussian mixture inversion in velocity).

* :class:`BilinearSampler` performs the exact dimension-by-dimension
  inversion (marginal CDF in x, then the conditional CDF in v given x)
  of |density| / mass for an arbitrary signed bilinear gridded density,
  working out the mass itself; each one-cell CDF piece is a monotone
  quadratic with a closed-form root.  :func:`rosenblatt_sample` builds
  the conditional tables one block of grid rows at a time and reads both
  likelihoods in the same pass; the verification entry points
  :func:`sample_conditional_v` and :func:`forward_cdf` (the forward map,
  which sends the samples back to their uniform pairs) use the tables of
  the whole grid.  All three read them through one column kernel,
  :func:`_column`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import lowdisc
from .core import (GriddedDensity, InitialCondition, ParticleEnsemble,
                   PhaseSpaceDomain, SQRT_2PI, bilinear_sum, bounded_cell,
                   cell_stencil, eval_initial_f, initial_x_density, nonzero_mass,
                   periodic_cell)
from .lowdisc import SequenceKind


class ZeroConditional(ValueError):
    """Raised when the conditional density along v vanishes at the given x."""


class NewtonNoConvergence(RuntimeError):
    """Raised when neither Newton nor bisection invert the spatial CDF."""


_DEGENERATE_REL = 1e-14

#: Markers mapped per pass of :func:`rosenblatt_sample`: its temporaries
#: are a few dozen arrays of this length, whatever the number of markers.
CHUNK = 1 << 14

#: Grid rows per block of the conditional inversion: its tables hold at
#: most 2*ROWS rows, whatever the grid (see :func:`_row_blocks`).
ROWS = 64


def _invert_cell_quadratic(a, b, target, h):
    """Solve target = h*(s*a + s^2*(b-a)/2) for s in [0, 1].

    One cell of a piecewise-linear density with node values (a, b); the
    inversion follows the closed-form quadratic root, falling back to the
    linear expression when b - a underflows the discriminant.  Vectorized.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    target = np.asarray(target, dtype=float)
    diff = b - a
    degenerate = np.abs(diff) < _DEGENERATE_REL * np.maximum(np.maximum(a, b), 1.0)
    safe_diff = np.where(degenerate, 1.0, diff)
    radicand = np.maximum(a * a + 2.0 * diff * target / h, 0.0)
    s_quad = (-a + np.sqrt(radicand)) / safe_diff
    # zero-density cells only ever receive a zero target; park s at 0
    safe_a = np.where(a > 0.0, a, 1.0)
    s_lin = np.where(a > 0.0, target / (safe_a * h), 0.0)
    s = np.where(degenerate, s_lin, s_quad)
    return np.clip(s, 0.0, 1.0)


def _cell_cdf(a, b, s, h):
    """Mass h*(s*a + s^2*(b-a)/2) accumulated up to local coordinate s."""
    return h * (s * a + 0.5 * s * s * (b - a))


def _checked_pairs(pairs) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array")
    # written so that NaN fails
    if not (pairs.min() >= 0.0 and pairs.max() <= 1.0):
        raise ValueError("pairs must lie in [0, 1]^2")
    return pairs


@dataclass(frozen=True)
class BilinearSampler:
    """Exact inverse-transform sampler of |density| / mass, mass the
    trapezoid mass of |density|: holds the mass, the x marginal of the
    whole grid and its trapezoid partial sums, and builds the conditional
    tables one block of rows at a time (:func:`_block_tables`).
    Immutable, so sampling is pure and thread-safe."""

    density: GriddedDensity
    mass: float = field(init=False)
    marginal_x_nodes: np.ndarray = field(init=False)
    cum_x: np.ndarray = field(init=False)

    def __post_init__(self):
        mass = nonzero_mass(float(self.dx * np.sum(_abs_x_marginal(self.density))))
        gx = _abs_x_marginal(self.density, mass)
        cell = 0.5 * self.dx * (gx + np.roll(gx, -1))
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "marginal_x_nodes", gx)
        object.__setattr__(self, "cum_x", np.concatenate(([0.0], np.cumsum(cell))))

    @property
    def domain(self) -> PhaseSpaceDomain:
        return self.density.domain

    @property
    def nx(self) -> int:
        return self.density.nx

    @property
    def nv(self) -> int:
        return self.density.nv

    @property
    def dx(self) -> float:
        return self.density.dx

    @property
    def dv(self) -> float:
        return self.density.dv


def build_sampler(g: GriddedDensity) -> BilinearSampler:
    """The sampler of a nonnegative gridded density of any positive mass:
    it samples g / mass, and f_like / g_like is that mass."""
    s = BilinearSampler(g)  # a NaN node fails here, by its mass
    if np.any(g.values < 0):
        raise ValueError("sampling density must be nonnegative")
    return s


def sample_marginal_x(s: BilinearSampler, u_x):
    """Invert the x-marginal CDF: returns x with G_X(x) = u_x.

    The cell is the rightmost one whose cumulative mass does not exceed
    u_x (ties go right, so samples never land strictly inside zero-mass
    cells); within the cell the quadratic CDF piece is inverted exactly.
    """
    u = np.asarray(u_x, dtype=float)
    gx = s.marginal_x_nodes
    nx = s.nx
    i = np.clip(np.searchsorted(s.cum_x, u, side="right") - 1, 0, nx - 1)
    a = gx[i]
    b = gx[(i + 1) % nx]
    frac = _invert_cell_quadratic(a, b, u - s.cum_x[i], s.dx)
    return s.domain.x_min + (i + frac) * s.dx


def sample_conditional_v(s: BilinearSampler, x, u_v):
    """Invert the conditional CDF along v at fixed x.

    The conditional density is the linear interpolation between the two
    neighbouring grid columns; its cumulative table is the same
    interpolation of the per-column tables,
    ``delta_j = (1-fx)*cum_cols[ix, j] + fx*cum_cols[ix + 1, j]``.  The cell
    is the rightmost j with ``delta_j <= target`` (ties go right), found
    by a vectorized bisection over j: about log2(nv) probes, each
    evaluating ``delta_j`` at one j per marker, so no n x nv table is
    built.  ``cum_cols`` is a cumsum of nonnegative values and the
    rounding of the interpolation is monotone, so ``delta_j`` is
    nondecreasing in j in floating point and the bisection picks the same
    cell as counting every ``delta_j <= target``.  The points are mapped
    on the tables of the whole grid, which have the bits of the row blocks
    of :func:`rosenblatt_sample`.  Raises :class:`ZeroConditional` where
    the marginal g_X(x) vanishes.
    """
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(u_v, dtype=float))
    ix, fx = periodic_cell(x, s.domain.x_min, s.dx, s.nx)
    return _invert_in_rows(s, *_block_tables(s, 0, s.nx), ix, fx, u)


def _chunks(n: int):
    """Slices of at most ``CHUNK`` entries covering range(n) in order."""
    return (slice(lo, lo + CHUNK) for lo in range(0, n, CHUNK))


def _row_blocks(nx: int):
    """(first, end) row ranges covering range(nx) in order: ``ROWS`` rows
    each, the last one taking the remainder (up to 2*ROWS - 1 rows).
    The x-marginal mat-vec of such blocks has the bits of the whole
    grid's; over a short tail block of 1 to 3 rows BLAS can round
    differently."""
    bounds = list(range(0, max(nx - ROWS, 0) + 1, ROWS)) + [nx]
    return zip(bounds[:-1], bounds[1:])


def _abs_x_marginal(density: GriddedDensity, mass: float = 1.0) -> np.ndarray:
    """The x-marginal nodes of |density| / mass, one block of rows at a
    time: the bits of ``GriddedDensity(domain, np.abs(values) /
    mass).x_marginal_nodes()`` without a second whole grid (x / 1.0 == x)."""
    gx = np.empty(density.nx)
    for first, end in _row_blocks(density.nx):
        block = np.abs(density.values[first:end])
        block /= mass
        gx[first:end] = GriddedDensity(density.domain, block).x_marginal_nodes()
    return gx


def _block_tables(s: BilinearSampler, first: int, end: int):
    """|density| / mass at the grid rows first..end (row nx is row 0),
    ``cum_cols[i, j]``, the mass of its row i below node j (cell pieces
    0.5*dv*(left + right) in columns 1.., then an in-place cumsum), and
    the x marginal at those rows."""
    held = np.arange(first, end + 1) % s.nx
    rows = s.density.values[held]
    np.abs(rows, out=rows)
    rows /= s.mass
    cum_cols = np.empty(rows.shape)
    cum_cols[:, 0] = 0.0
    pieces = cum_cols[:, 1:]
    np.add(rows[:, :-1], rows[:, 1:], out=pieces)
    pieces *= 0.5 * s.dv
    np.cumsum(pieces, axis=1, out=pieces)
    return rows, cum_cols, s.marginal_x_nodes[held]


def _column(rows, gx_rows, ix, fx):
    """g_X(x) at points between table rows ix and ix + 1 at local x
    coordinate fx, interpolated from ``gx_rows``, and ``at(table, j)``,
    column j of a table shaped like ``rows`` interpolated the same way."""
    w0 = 1.0 - fx
    nv = rows.shape[1]
    row0 = ix * nv

    def lerp(flat, i0, i1):
        return w0 * flat[i0] + fx * flat[i1]

    def at(table, j):
        return lerp(table.ravel(), row0 + j, row0 + nv + j)

    return lerp(gx_rows, ix, ix + 1), at


def _invert_in_rows(s: BilinearSampler, rows, cum_cols, gx_rows, ix, fx, u):
    """:func:`sample_conditional_v` at points in the cells of the tables
    of :func:`_block_tables`, given by table row ix and local x
    coordinate fx."""
    nv = s.nv
    gx_here, at = _column(rows, gx_rows, ix, fx)
    if np.any(gx_here <= 0.0):
        raise ZeroConditional("conditional density requested on a zero-mass column")

    target = gx_here * u
    # n_le counts the j with delta_j <= target (a prefix of 0..nv-1), built
    # bit by bit from the highest power of two not above nv
    n_le = np.zeros(fx.shape, dtype=np.int64)
    step = 1 << (nv.bit_length() - 1)
    while step:
        probe = n_le + step
        j = np.minimum(probe, nv) - 1
        n_le = np.where((probe <= nv) & (at(cum_cols, j) <= target), probe, n_le)
        step >>= 1
    j = np.clip(n_le - 1, 0, nv - 2)
    frac = _invert_cell_quadratic(at(rows, j), at(rows, j + 1),
                                  target - at(cum_cols, j), s.dv)
    return s.domain.v_min + (j + frac) * s.dv


def _conditional_by_row_blocks(s: BilinearSampler, x, u):
    """v = G_{X=x,V}^{-1}(u) at each point, the bilinear density (f) and
    |density| / mass (g) at each (x, v).

    The points are sorted by their x cell; for each block of rows from
    :func:`_row_blocks` that holds points, the tables of the block and
    the row after it are built and its points mapped ``CHUNK`` at a time.
    One stencil per chunk reads g from the table rows and f from the
    grid.  Every step is elementwise, so the results have the bits of one
    pass over whole-grid tables.
    """
    ix = periodic_cell(x, s.domain.x_min, s.dx, s.nx)[0]
    order = np.argsort(ix, kind="stable")
    # starts[i] points lie in the rows before row i, so row i's are
    # order[starts[i]:starts[i + 1]]
    starts = np.concatenate(([0], np.cumsum(np.bincount(ix, minlength=s.nx))))
    del ix
    v, f, g = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    for first, end in _row_blocks(s.nx):
        block = order[starts[first]:starts[end]]
        if block.size == 0:
            continue
        rows, cum_cols, gx_rows = _block_tables(s, first, end)
        for c in _chunks(block.size):
            idx = block[c]
            ix, fx = periodic_cell(x[idx], s.domain.x_min, s.dx, s.nx)
            row = ix - first  # grid row ix is table row ix - first
            v[idx] = vs = _invert_in_rows(s, rows, cum_cols, gx_rows, row, fx, u[idx])
            jv, fv = bounded_cell(vs, s.domain.v_min, s.dv, s.nv)
            g[idx] = bilinear_sum(rows, *cell_stencil(row, row + 1, fx, jv, fv))
            f[idx] = bilinear_sum(s.density.values,
                                  *cell_stencil(ix, (ix + 1) % s.nx, fx, jv, fv))
        del rows, cum_cols  # before the next block's are built
    return v, f, g


def rosenblatt_sample(s: BilinearSampler, pairs: np.ndarray) -> ParticleEnsemble:
    """Map uniform pairs in [0, 1]^2 through the inverse Rosenblatt transform.

    Output ordering matches the input pair ordering.  f_like is the
    bilinear (signed) density at the samples, so markers where it is
    negative carry negative weights, and g_like the bilinear |density| /
    mass.  x comes from the marginal inversion in chunks of ``CHUNK``,
    then v and both likelihoods one block of rows at a time
    (:func:`_conditional_by_row_blocks`).  Live at once: the density, the
    length-n u_v, x, v, f_like, g_like and sort index, one block's two
    tables (at most 2*ROWS rows each) and one chunk's temporaries; the
    pairs too, unless the caller passed them inline.
    """
    pairs = _checked_pairs(pairs)
    x = np.empty(pairs.shape[0])
    for c in _chunks(x.size):
        x[c] = sample_marginal_x(s, pairs[c, 0])
    u = pairs[:, 1].copy()
    del pairs  # the last reference when the caller passed them inline
    v, f_like, g_like = _conditional_by_row_blocks(s, x, u)
    return ParticleEnsemble(x=x, v=v, f_like=f_like, g_like=g_like)


def sample_gridded_density(density: GriddedDensity, sequence: SequenceKind,
                           n: int) -> ParticleEnsemble:
    """Draw n markers from a signed gridded density: the first n pairs of
    ``sequence`` through ``rosenblatt_sample(BilinearSampler(density),
    pairs)``.  No second grid is made.  For a 1024 x 1025 float grid
    (8 MiB) and n = 1e5 the traced peak of a handoff is 14.9 MiB.
    """
    return rosenblatt_sample(BilinearSampler(density), lowdisc.generate_pairs(sequence, n))


def forward_cdf(s: BilinearSampler, x, v):
    """The forward map (x, v) -> (G_X(x), G_{X=x,V}(v)) onto [0,1]^2.

    Companion of the inverse sampler, on the tables of the whole grid
    (:func:`_block_tables`), whose last row is the wrap row; where the
    column mass vanishes the conditional coordinate is reported as 0.
    """
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    rows, cum_cols, gx_rows = _block_tables(s, 0, s.nx)
    # x on a bounded grid of nx + 1 nodes: x_max is in the last cell, not the first
    ix, fx = bounded_cell(x, s.domain.x_min, s.dx, s.nx + 1)
    u_x = s.cum_x[ix] + _cell_cdf(gx_rows[ix], gx_rows[ix + 1], fx, s.dx)

    j, fv = bounded_cell(v, s.domain.v_min, s.dv, s.nv)
    gx_here, at = _column(rows, gx_rows, ix, fx)
    col_mass = at(cum_cols, j) + _cell_cdf(at(rows, j), at(rows, j + 1), fv, s.dv)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_v = np.where(gx_here > 0.0, col_mass / np.where(gx_here > 0, gx_here, 1.0), 0.0)
    u_x = np.clip(u_x, 0.0, 1.0)
    u_v = np.clip(u_v, 0.0, 1.0)
    return u_x, u_v


# ---------------------------------------------------------------------------
# tensor-product sampling of the analytic initial condition


def _invert_x_cdf(ic: InitialCondition, u: np.ndarray) -> np.ndarray:
    """Solve x - (eps/k) sin(kx) = u*L by Newton, bisection as fallback."""
    L = ic.length
    eps, k = ic.epsilon, ic.k
    target = u * L

    def G(x):
        return x - (eps / k) * np.sin(k * x)

    x = target.copy()
    for _ in range(50):
        resid = G(x) - target
        ok = np.abs(resid) / L <= 1e-13
        if np.all(ok):
            return x
        deriv = 1.0 - eps * np.cos(k * x)
        step = np.where(ok, 0.0, resid / np.maximum(deriv, 1e-30))
        x = np.clip(x - step, 0.0, L)
    # bisection rescue for the stragglers
    bad = np.abs(G(x) - target) / L > 1e-13
    lo = np.zeros(np.count_nonzero(bad))
    hi = np.full(lo.shape, L)
    tb = target[bad]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high = G(mid) > tb
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    mid = 0.5 * (lo + hi)
    if np.any(np.abs(G(mid) - tb) / L > 1e-13):
        raise NewtonNoConvergence("spatial CDF inversion failed to reach 1e-13")
    x[bad] = mid
    return x


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# Wichura's AS241 (PPND16), "The Percentage Points of the Normal
# Distribution", Appl. Stat. 37 (1988) 477-484: numerator and denominator
# coefficients, highest degree first, of its three rational approximations:
# central |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, and the tails
# in r = sqrt(-log(min(p, 1 - p))), shifted by 1.6 for r <= 5 and by 5
# beyond.  The coefficients are those of the stdlib's
# statistics.NormalDist.inv_cdf.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2,
     2.4178072517745061177e-1, 1.2704582524523683826e+0,
     3.6478483247632045605e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4,
     1.5198666563616457197e-2, 1.4810397642748007459e-1,
     6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5,
     1.2426609473880784386e-3, 2.6532189526576123093e-2,
     2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7,
     1.8463183175100546818e-5, 7.8686913114561325910e-4,
     1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _poly(coeffs, r):
    out = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        out = out * r + c
    return out


def _std_normal_ppf(p):
    """Inverse standard-normal CDF by Wichura's AS241, vectorised.

    The rational approximations are good to about 1e-16 relative, so no
    Newton polish follows.  p = 0 and p = 1 give -inf and +inf.  The
    result is nondecreasing in p up to rounding: p values a few ulps
    apart can come out one ulp out of order.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    z = np.empty_like(p)
    qc = q[central]
    r = 0.180625 - qc * qc
    z[central] = qc * _poly(_AS241_CENTRAL[0], r) / _poly(_AS241_CENTRAL[1], r)
    tail = ~central
    pt = p[tail]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        zt = np.empty_like(r)
        for region, coeffs, shift in ((r <= 5.0, _AS241_NEAR, 1.6),
                                      (~(r <= 5.0), _AS241_FAR, 5.0)):
            rr = r[region] - shift
            zt[region] = _poly(coeffs[0], rr) / _poly(coeffs[1], rr)
    # p = 0 and p = 1 give r = inf, where the far quotient is inf/inf
    zt[r == np.inf] = np.inf
    z[tail] = np.where(q[tail] < 0.0, -zt, zt)
    return z


class _TruncatedGaussian(NamedTuple):
    """N(mu, sigma^2) truncated to [v_min, v_max].  side is -1 for a
    window above mu, read mirrored in the lower tail, where the CDF does
    not cancel, and +1 otherwise; p0 is the CDF of side*(v - mu)/sigma at
    v_min and mass the probability of the window."""
    mu: float
    sigma: float
    side: float
    p0: float
    mass: float


def _velocity_components(ic: InitialCondition, domain: PhaseSpaceDomain) -> dict:
    """The :class:`_TruncatedGaussian` of each Gaussian that
    :func:`its_tensor_product` samples: "bulk" N(0, 1), and "bump"
    N(v_b, sigma_b^2) when n_b > 0.  Raises ValueError naming each one
    with no mass in [v_min, v_max], which its truncated density would
    divide by."""
    named = [("bulk", 0.0, 1.0)] + ([("bump", ic.v_b, ic.sigma_b)] if ic.n_b > 0 else [])
    components, problems = {}, []
    for name, mu, sigma in named:
        side = -1.0 if domain.v_min > mu else 1.0
        p0 = _std_normal_cdf(side * (domain.v_min - mu) / sigma)
        mass = side * (_std_normal_cdf(side * (domain.v_max - mu) / sigma) - p0)
        if not mass > 0.0:
            problems.append(f"the {name} Gaussian N({mu:g}, {sigma:g}^2) has no mass "
                            f"in [v_min, v_max] = [{domain.v_min:g}, {domain.v_max:g}]")
        components[name] = _TruncatedGaussian(mu, sigma, side, p0, mass)
    if problems:
        raise ValueError("; ".join(problems))
    return components


def _truncated_gaussian_ppf(u, g: _TruncatedGaussian, domain: PhaseSpaceDomain):
    """Invert the CDF of ``g`` at u in [0, 1], clipped to [v_min, v_max]."""
    z = _std_normal_ppf(g.p0 + g.side * (u * g.mass))
    return np.clip(g.mu + g.side * g.sigma * z, domain.v_min, domain.v_max)


def its_tensor_product(ic: InitialCondition, pairs: np.ndarray,
                       domain: PhaseSpaceDomain) -> ParticleEnsemble:
    """Sample the analytic initial condition by 1-D tensor-product inversion.

    x comes from the density proportional to (1 - eps*cos(kx)); v from the
    two-Gaussian mixture, picking the component by stratifying u_v at the
    bump fraction and inverting the truncated component CDF.  g_like is
    the product of the two 1-D densities actually sampled from, so
    f_like/g_like stays meaningful after truncation.  A component with no
    mass in [v_min, v_max] raises ValueError (:func:`_velocity_components`).
    """
    pairs = _checked_pairs(pairs)
    if abs(domain.length - ic.length) > 1e-9 * ic.length:
        raise ValueError("domain length must equal one perturbation period 2*pi/k")
    gaussians = _velocity_components(ic, domain)

    u_x, u_v = pairs[:, 0], pairs[:, 1]
    x = domain.x_min + _invert_x_cdf(ic, u_x)

    v = np.empty_like(u_v)
    bulk = u_v < (1.0 - ic.n_b) if ic.n_b > 0 else np.ones(u_v.shape, dtype=bool)
    v[bulk] = _truncated_gaussian_ppf(u_v[bulk] / (1.0 - ic.n_b), gaussians["bulk"], domain)
    if ic.n_b > 0:
        tail = ~bulk
        v[tail] = _truncated_gaussian_ppf((u_v[tail] - (1.0 - ic.n_b)) / ic.n_b,
                                          gaussians["bump"], domain)

    gv = (1.0 - ic.n_b) * np.exp(-0.5 * v * v) / (SQRT_2PI * gaussians["bulk"].mass)
    if ic.n_b > 0:
        gv = gv + ic.n_b * np.exp(-0.5 * ((v - ic.v_b) / ic.sigma_b) ** 2) \
            / (SQRT_2PI * ic.sigma_b * gaussians["bump"].mass)

    g_like = initial_x_density(ic, x) * gv
    f_like = eval_initial_f(ic, x, v)
    return ParticleEnsemble(x=x, v=v, f_like=f_like, g_like=g_like)


def uniform_sample(ic: InitialCondition, pairs: np.ndarray,
                   domain: PhaseSpaceDomain) -> ParticleEnsemble:
    """Markers uniform on the phase-space box; g_like = 1/area, f_like from
    the initial condition.  Used by the discrepancy-tracking experiments."""
    pairs = _checked_pairs(pairs)
    x = domain.x_min + pairs[:, 0] * domain.length
    v = domain.v_min + pairs[:, 1] * domain.v_span
    g_like = np.full(pairs.shape[0], 1.0 / domain.area)
    f_like = eval_initial_f(ic, x, v)
    return ParticleEnsemble(x=x, v=v, f_like=f_like, g_like=g_like)
