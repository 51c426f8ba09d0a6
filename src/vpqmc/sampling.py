"""Inverse transform sampling.

Two routes to a marker ensemble:

* :func:`its_tensor_product` draws from the analytic initial condition,
  whose density factorizes into one-dimensional pieces (Newton inversion
  of the spatial CDF, truncated-Gaussian mixture inversion in velocity).

* :class:`BilinearSampler` performs the exact dimension-by-dimension
  inversion (marginal CDF in x, then the conditional CDF in v given x)
  of an arbitrary bilinear gridded density; each one-cell CDF piece is a
  monotone quadratic with a closed-form root.  The forward map
  :func:`forward_cdf` is the inverse's test companion: its Jacobian
  determinant equals the density itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcinv

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


@dataclass(frozen=True)
class BilinearSampler:
    """Exact inverse-transform sampler for a bilinear gridded density.

    Built once per density; carries the x-marginal nodes, their trapezoid
    partial sums, and the per-column cumulative tables used by the
    conditional inversion.  Immutable, so sampling is pure and
    thread-safe.
    """

    g: GriddedDensity
    marginal_x_nodes: np.ndarray
    cum_x: np.ndarray
    cum_cols: np.ndarray

    @classmethod
    def from_density(cls, g: GriddedDensity) -> "BilinearSampler":
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
        return cls(g=g, marginal_x_nodes=gx, cum_x=cum_x, cum_cols=cum_cols)

    def _x_cell_clamped(self, x):
        # CDF-side lookup: x_max belongs to the last cell (coordinate 1),
        # not to the wrapped first cell
        dom = self.g.domain
        tx = np.clip((np.asarray(x, dtype=float) - dom.x_min) / self.g.dx,
                     0.0, float(self.g.nx))
        ix = np.minimum(np.floor(tx).astype(np.int64), self.g.nx - 1)
        fx = tx - ix
        return ix, fx


def build_sampler(g: GriddedDensity) -> BilinearSampler:
    """Convenience alias for :meth:`BilinearSampler.from_density`."""
    return BilinearSampler.from_density(g)


def sample_marginal_x(s: BilinearSampler, u_x):
    """Invert the x-marginal CDF: returns x with G_X(x) = u_x.

    The cell is the rightmost one whose cumulative mass does not exceed
    u_x (ties go right, so samples never land strictly inside zero-mass
    cells); within the cell the quadratic CDF piece is inverted exactly.
    """
    u = np.asarray(u_x, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    g = s.g
    gx = s.marginal_x_nodes
    nx = g.nx
    i = np.clip(np.searchsorted(s.cum_x, u, side="right") - 1, 0, nx - 1)
    a = gx[i]
    b = gx[(i + 1) % nx]
    frac = _invert_cell_quadratic(a, b, u - s.cum_x[i], g.dx)
    x = g.domain.x_min + (i + frac) * g.dx
    return float(x[0]) if scalar else x


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.asarray(u_v, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if x.shape != u.shape:
        x, u = np.broadcast_arrays(x, u)
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
    v = g.domain.v_min + (j + frac) * g.dv
    return float(v[0]) if scalar else v


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
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array")
    x = sample_marginal_x(s, pairs[:, 0])
    v = sample_conditional_v(s, x, pairs[:, 1])
    g_like = np.asarray(s.g.bilinear_at(x, v))
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
    ensemble.f_like = np.asarray(density.bilinear_at(ensemble.x, ensemble.v))
    return ensemble


def forward_cdf(s: BilinearSampler, x, v):
    """The forward map (x, v) -> (G_X(x), G_{X=x,V}(v)) onto [0,1]^2.

    Companion of the inverse sampler; where the column mass vanishes the
    conditional coordinate is reported as 0.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    scalar = x.ndim == 0 and v.ndim == 0
    x, v = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(v))
    g = s.g
    ix, fx = s._x_cell_clamped(x)
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
    if scalar:
        return float(u_x[0]), float(u_v[0])
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


def _std_normal_cdf(z):
    return 0.5 * (1.0 + erf(z / np.sqrt(2.0)))


def _std_normal_ppf(p):
    """Inverse standard-normal CDF via erfcinv plus one Newton polish."""
    p = np.asarray(p, dtype=float)
    z = -np.sqrt(2.0) * erfcinv(2.0 * p)
    pdf = np.exp(-0.5 * z * z) / SQRT_2PI
    z = z - (_std_normal_cdf(z) - p) / np.maximum(pdf, 1e-300)
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
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array")
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
    f_like = np.asarray(eval_initial_f(ic, x, v))
    return ParticleEnsemble(x=x, v=v, f_like=f_like, g_like=g_like)


def uniform_sample(ic: InitialCondition, pairs: np.ndarray,
                   domain: PhaseSpaceDomain) -> ParticleEnsemble:
    """Markers uniform on the phase-space box; g_like = 1/area, f_like from
    the initial condition.  Used by the discrepancy-tracking experiments."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array")
    x = domain.x_min + pairs[:, 0] * domain.length
    v = domain.v_min + pairs[:, 1] * domain.v_span
    g_like = np.full(pairs.shape[0], 1.0 / domain.area)
    f_like = np.asarray(eval_initial_f(ic, x, v))
    return ParticleEnsemble(x=x, v=v, f_like=f_like, g_like=g_like)
