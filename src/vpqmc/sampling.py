"""Inverse transform sampling.

Two routes to a marker ensemble:

* :func:`its_tensor_product` draws from the analytic initial condition,
  whose density factorizes into one-dimensional pieces (Newton inversion
  of the spatial CDF, truncated-Gaussian mixture inversion in velocity).

* :class:`BilinearSampler` performs the exact dimension-by-dimension
  inversion (marginal CDF in x, then the conditional CDF in v given x)
  of an arbitrary bilinear gridded density; each one-cell CDF piece is a
  monotone quadratic with a closed-form root.  The forward Rosenblatt
  map :func:`forward_cdf` verifies the inverse: it sends the samples
  back to their uniform pairs, and its Jacobian determinant equals the
  density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lowdisc
from .core import (GriddedDensity, InitialCondition, ParticleEnsemble,
                   PhaseSpaceDomain, SQRT_2PI, bounded_cell, eval_initial_f,
                   initial_x_density, normalize_to_sampling_density,
                   periodic_cell)
from .lowdisc import SequenceKind


class ZeroConditional(ValueError):
    """Raised when the conditional density along v vanishes at the given x."""


class NewtonNoConvergence(RuntimeError):
    """Raised when neither Newton nor bisection invert the spatial CDF."""


_DEGENERATE_REL = 1e-14


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
    return pairs


@dataclass(frozen=True)
class BilinearSampler:
    """Exact inverse-transform sampler for a bilinear gridded density.

    Built once per density by :func:`build_sampler`; carries the
    x-marginal nodes, their trapezoid partial sums, and the per-column
    cumulative tables used by the conditional inversion.  Immutable, so
    sampling is pure and thread-safe.
    """

    g: GriddedDensity
    marginal_x_nodes: np.ndarray
    cum_x: np.ndarray
    cum_cols: np.ndarray


def build_sampler(g: GriddedDensity) -> BilinearSampler:
    """The sampler of a nonnegative gridded density of unit mass."""
    vals = g.values
    # written so that NaN fails both checks
    if not np.all(vals >= 0):
        raise ValueError("sampling density must be nonnegative")
    mass = g.mass()
    if not abs(mass - 1.0) <= 1e-12:
        raise ValueError(f"sampling density mass {mass!r} is not 1 within 1e-12")
    gx = g.x_marginal_nodes()
    cell = 0.5 * g.dx * (gx + np.roll(gx, -1))
    cum_x = np.concatenate(([0.0], np.cumsum(cell)))
    # per-column trapezoid partial sums along v: cum_cols[i, j] is the
    # column-i mass below node j, so cum_cols[i, -1] == gx[i]
    piece = 0.5 * g.dv * (vals[:, :-1] + vals[:, 1:])
    cum_cols = np.concatenate([np.zeros((g.nx, 1)), np.cumsum(piece, axis=1)],
                              axis=1)
    return BilinearSampler(g=g, marginal_x_nodes=gx, cum_x=cum_x, cum_cols=cum_cols)


def sample_marginal_x(s: BilinearSampler, u_x):
    """Invert the x-marginal CDF: returns x with G_X(x) = u_x.

    The cell is the rightmost one whose cumulative mass does not exceed
    u_x (ties go right, so samples never land strictly inside zero-mass
    cells); within the cell the quadratic CDF piece is inverted exactly.
    """
    u = np.asarray(u_x, dtype=float)
    g = s.g
    gx = s.marginal_x_nodes
    nx = g.nx
    i = np.clip(np.searchsorted(s.cum_x, u, side="right") - 1, 0, nx - 1)
    a = gx[i]
    b = gx[(i + 1) % nx]
    frac = _invert_cell_quadratic(a, b, u - s.cum_x[i], g.dx)
    return g.domain.x_min + (i + frac) * g.dx


def sample_conditional_v(s: BilinearSampler, x, u_v):
    """Invert the conditional CDF along v at fixed x.

    The conditional density is the linear interpolation between the two
    neighbouring grid columns; its cumulative table is the same
    interpolation of the per-column tables,
    ``delta_j = (1-fx)*cum_cols[ix, j] + fx*cum_cols[ixp, j]``.  The cell
    is the rightmost j with ``delta_j <= target`` (ties go right), found
    by a vectorized bisection over j: about log2(nv) probes, each
    evaluating ``delta_j`` at one j per marker, so no n x nv table is
    built.  ``cum_cols`` is a cumsum of nonnegative values and the
    rounding of the interpolation is monotone, so ``delta_j`` is
    nondecreasing in j in floating point and the bisection picks the same
    cell as counting every ``delta_j <= target``.  Raises
    :class:`ZeroConditional` where the marginal g_X(x) vanishes.
    """
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(u_v, dtype=float))
    g = s.g
    ix, fx = periodic_cell(x, g.domain.x_min, g.dx, g.nx)
    ixp = (ix + 1) % g.nx
    gx_here = (1.0 - fx) * s.marginal_x_nodes[ix] + fx * s.marginal_x_nodes[ixp]
    if np.any(gx_here <= 0.0):
        raise ZeroConditional("conditional density requested on a zero-mass column")

    target = gx_here * u
    w0 = 1.0 - fx
    cum = s.cum_cols.ravel()
    row0 = ix * g.nv
    row1 = ixp * g.nv

    def delta(j):
        return w0 * cum[row0 + j] + fx * cum[row1 + j]

    # n_le counts the j with delta_j <= target (a prefix of 0..nv-1), built
    # bit by bit from the highest power of two not above nv
    n_le = np.zeros(x.shape, dtype=np.int64)
    step = 1 << (g.nv.bit_length() - 1)
    while step:
        probe = n_le + step
        j = np.minimum(probe, g.nv) - 1
        n_le = np.where((probe <= g.nv) & (delta(j) <= target), probe, n_le)
        step >>= 1
    j = np.clip(n_le - 1, 0, g.nv - 2)

    gamma0 = w0 * g.values[ix, j] + fx * g.values[ixp, j]
    gamma1 = w0 * g.values[ix, j + 1] + fx * g.values[ixp, j + 1]
    frac = _invert_cell_quadratic(gamma0, gamma1, target - delta(j), g.dv)
    return g.domain.v_min + (j + frac) * g.dv


def rosenblatt_sample(s: BilinearSampler, pairs: np.ndarray) -> ParticleEnsemble:
    """Map uniform pairs through the inverse Rosenblatt transform.

    Output ordering matches the input pair ordering.  All markers are
    mapped in one pass: every step is elementwise and the conditional
    inversion bisects rather than tabulating, so the temporaries are a
    few arrays of length n and peak memory grows linearly in n, not in
    n * nv.  g_like is the bilinear density at the sampled points; f_like
    is initialized to a copy of g_like (unit weights) and is overwritten
    by callers that sample a different target density, e.g. the
    spectral handoff.
    """
    pairs = _checked_pairs(pairs)
    x = sample_marginal_x(s, pairs[:, 0])
    v = sample_conditional_v(s, x, pairs[:, 1])
    g_like = s.g.bilinear_at(x, v)
    return ParticleEnsemble(x=x, v=v, f_like=g_like.copy(), g_like=g_like)


def sample_gridded_density(density: GriddedDensity, sequence: SequenceKind,
                           n: int) -> ParticleEnsemble:
    """Draw n markers from a signed gridded density.

    The sampling density is |density| normalized to unit mass; g_like is
    its bilinear value at each marker and f_like the bilinear value of
    ``density`` itself, so markers where it is negative carry negative
    weights.
    """
    sampler = build_sampler(normalize_to_sampling_density(density))
    ensemble = rosenblatt_sample(sampler, lowdisc.generate_pairs(sequence, n))
    ensemble.f_like = density.bilinear_at(ensemble.x, ensemble.v)
    return ensemble


def forward_cdf(s: BilinearSampler, x, v):
    """The forward map (x, v) -> (G_X(x), G_{X=x,V}(v)) onto [0,1]^2.

    Companion of the inverse sampler; where the column mass vanishes the
    conditional coordinate is reported as 0.
    """
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    g = s.g
    # x on a bounded grid of nx + 1 nodes: x_max is in the last cell, not the first
    ix, fx = bounded_cell(x, g.domain.x_min, g.dx, g.nx + 1)
    ixp = (ix + 1) % g.nx
    a = s.marginal_x_nodes[ix]
    b = s.marginal_x_nodes[ixp]
    u_x = s.cum_x[ix] + _cell_cdf(a, b, fx, g.dx)

    j, fv = bounded_cell(v, g.domain.v_min, g.dv, g.nv)
    delta = (1.0 - fx) * s.cum_cols[ix, j] + fx * s.cum_cols[ixp, j]
    gamma0 = (1.0 - fx) * g.values[ix, j] + fx * g.values[ixp, j]
    gamma1 = (1.0 - fx) * g.values[ix, j + 1] + fx * g.values[ixp, j + 1]
    gx_here = (1.0 - fx) * a + fx * b
    col_mass = delta + _cell_cdf(gamma0, gamma1, fv, g.dv)
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


def _truncated_gaussian_ppf(u, mu, sigma, v_lo, v_hi):
    """Quantile of N(mu, sigma^2) truncated to [v_lo, v_hi]."""
    a = _std_normal_cdf((v_lo - mu) / sigma)
    b = _std_normal_cdf((v_hi - mu) / sigma)
    z = _std_normal_ppf(a + u * (b - a))
    return np.clip(mu + sigma * z, v_lo, v_hi), (b - a)


def its_tensor_product(ic: InitialCondition, pairs: np.ndarray,
                       domain: PhaseSpaceDomain) -> ParticleEnsemble:
    """Sample the analytic initial condition by 1-D tensor-product inversion.

    x comes from the density proportional to (1 - eps*cos(kx)); v from the
    two-Gaussian mixture, picking the component by stratifying u_v at the
    bump fraction and inverting the truncated component CDF.  g_like is
    the product of the two 1-D densities actually sampled from, so
    f_like/g_like stays meaningful after truncation.
    """
    pairs = _checked_pairs(pairs)
    if abs(domain.length - ic.length) > 1e-9 * ic.length:
        raise ValueError("domain length must equal one perturbation period 2*pi/k")

    u_x, u_v = pairs[:, 0], pairs[:, 1]
    x = domain.x_min + _invert_x_cdf(ic, u_x)

    v = np.empty_like(u_v)
    gv = np.empty_like(u_v)
    bulk = u_v < (1.0 - ic.n_b) if ic.n_b > 0 else np.ones(u_v.shape, dtype=bool)
    u_bulk = u_v[bulk] / (1.0 - ic.n_b)
    v0, z0 = _truncated_gaussian_ppf(u_bulk, 0.0, 1.0, domain.v_min, domain.v_max)
    v[bulk] = v0

    def _mix_density(vv, zb0, zbb):
        out = (1.0 - ic.n_b) * np.exp(-0.5 * vv * vv) / (SQRT_2PI * zb0)
        if ic.n_b > 0:
            out = out + ic.n_b * np.exp(-0.5 * ((vv - ic.v_b) / ic.sigma_b) ** 2) \
                / (SQRT_2PI * ic.sigma_b * zbb)
        return out

    if ic.n_b > 0:
        tail = ~bulk
        u_tail = (u_v[tail] - (1.0 - ic.n_b)) / ic.n_b
        vb, zb = _truncated_gaussian_ppf(u_tail, ic.v_b, ic.sigma_b,
                                         domain.v_min, domain.v_max)
        v[tail] = vb
    else:
        zb = 1.0
    gv = _mix_density(v, z0, zb)

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
