"""Shared phase-space types: domain geometry, initial conditions, gridded
densities and marker ensembles.

Grid convention used throughout the package: the spatial direction is
periodic and node-indexed without the duplicate right endpoint
(``x_i = x_min + i * dx``, ``dx = L / nx``, ``i = 0..nx-1``), while the
velocity direction is bounded and includes both endpoints
(``v_j = v_min + j * dv``, ``dv = (v_max - v_min) / (nv - 1)``).  All
masses and marginals of gridded densities use the trapezoidal rule on
this grid, which in the periodic direction reduces to the plain node sum.
Its spacings and bilinear stencils are written once, in ``NodeGrid``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


class AllZeroDensity(ValueError):
    """Raised when normalizing a density whose nodes are all zero."""


def finite(value) -> bool:
    """Whether a real number is finite as a float: NaN, +-inf and an int
    beyond the float range are not (``math.isfinite`` raises
    OverflowError on such an int)."""
    return abs(value) <= sys.float_info.max


def _non_finite(obj, *names) -> list:
    """One "<name> must be finite" problem per non-finite attribute."""
    return [f"{name} must be finite" for name in names if not finite(getattr(obj, name))]


@dataclass(frozen=True)
class PhaseSpaceDomain:
    """Periodic-in-x, velocity-truncated phase-space box [x_min,x_max]x[v_min,v_max]
    with finite bounds and finite extents; a broken rule raises ValueError
    naming every one."""

    x_min: float
    x_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        problems = _non_finite(self, "x_min", "x_max", "v_min", "v_max")
        if not problems:  # the order and extent rules on finite bounds only
            if not self.x_max > self.x_min:
                problems.append("x_max must exceed x_min")
            elif not finite(self.length):
                problems.append("the x extent x_max - x_min must be finite")
            if not self.v_max > self.v_min:
                problems.append("v_max must exceed v_min")
            elif not finite(self.v_span):
                problems.append("the v extent v_max - v_min must be finite")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def length(self) -> float:
        """Spatial period L."""
        return self.x_max - self.x_min

    @property
    def v_span(self) -> float:
        return self.v_max - self.v_min

    @property
    def area(self) -> float:
        return self.length * self.v_span


class SplitCoefficients(NamedTuple):
    """Drift/kick fractions of one composite split step."""

    drift: tuple
    kick: tuple


#: Third-order symplectic Runge-Kutta (Ruth) fractions, applied kick-first
#: (Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. II).
#: Shared by the spectral split step and the RUTH3 particle pusher.
RUTH3 = SplitCoefficients(drift=(2.0 / 3.0, -2.0 / 3.0, 1.0),
                          kick=(7.0 / 24.0, 3.0 / 4.0, -1.0 / 24.0))


#: Charge and charge-to-mass ratio of the electrons in normalized units
#: (q = -1, m = 1); the neutralizing ion background is a fixed unit
#: density inside the field solvers.
Q = -1.0
Q_OVER_M = -1.0


def whole_steps(span: float, dt: float) -> int:
    """The number of dt steps that make up ``span``.

    Raises ValueError unless span / dt is a whole number n >= 1 to a
    relative 1e-9 (0.3 / 0.1 is 2.9999999999999996), so that a run never
    stops short of its end time or labels a state with a time it has not
    reached.
    """
    n = span / dt if dt > 0 else math.nan
    steps = round(n) if math.isfinite(n) else 0
    if steps < 1 or abs(n - steps) > 1e-9 * n:
        raise ValueError(f"{span!r} is not a whole number (>= 1) of "
                         f"dt = {dt!r} steps")
    return steps


@dataclass(frozen=True)
class InitialCondition:
    """Perturbed Maxwellian with an optional drifting bump in velocity.

    f(x, v) = (1 - epsilon*cos(k*x))/sqrt(2*pi)
              * [(1-n_b) exp(-v^2/2) + (n_b/sigma_b) exp(-(v-v_b)^2/(2 sigma_b^2))]

    Every parameter is finite; a broken rule raises ValueError naming
    every one.

    Parameters
    ----------
    epsilon : float
        Perturbation amplitude in [-1, 1], so that f >= 0.
    k : float
        Perturbation wavenumber, > 0; the spatial period L = 2*pi/k must
        be finite.
    n_b : float
        Bump fraction in [0, 1).
    sigma_b : float
        Bump thermal width, > 0.
    v_b : float
        Bump drift velocity.
    """

    epsilon: float
    k: float
    n_b: float = 0.0
    sigma_b: float = 1.0
    v_b: float = 0.0

    def __post_init__(self):
        problems = _non_finite(self, "epsilon", "k", "sigma_b", "v_b")
        if finite(self.epsilon) and not abs(self.epsilon) <= 1.0:
            problems.append("epsilon must lie in [-1, 1]")
        if finite(self.k):
            if not self.k > 0:
                problems.append("k must be > 0")
            elif not finite(self.length):
                problems.append("k is too small: 2*pi/k overflows")
        if finite(self.sigma_b) and not self.sigma_b > 0:
            problems.append("sigma_b must be > 0")
        if not (0.0 <= self.n_b < 1.0):
            problems.append("n_b must lie in [0, 1)")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def length(self) -> float:
        """Spatial period L = 2*pi/k of the perturbation."""
        return 2.0 * np.pi / self.k


def eval_initial_f(ic: InitialCondition, x, v):
    """Evaluate the initial phase-space density at (x, v).

    Takes and returns arrays; x is taken as-is (the cosine makes the
    expression L-periodic), v supports the full real line.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    bulk = (1.0 - ic.n_b) * np.exp(-0.5 * v * v)
    bump = 0.0
    if ic.n_b != 0.0:
        bump = (ic.n_b / ic.sigma_b) * np.exp(-0.5 * ((v - ic.v_b) / ic.sigma_b) ** 2)
    return (1.0 - ic.epsilon * np.cos(ic.k * x)) / SQRT_2PI * (bulk + bump)


def initial_x_density(ic: InitialCondition, x):
    """Normalized spatial factor (1 - eps*cos(kx)) / L of the initial density."""
    return (1.0 - ic.epsilon * np.cos(ic.k * np.asarray(x, dtype=float))) / ic.length


def v_trapezoid_weights(nv: int) -> np.ndarray:
    """Trapezoid weights (1/2, 1, ..., 1, 1/2) for the endpoint-inclusive v grid."""
    w = np.ones(nv)
    w[0] = w[-1] = 0.5
    return w


def periodic_cell(x, x_min: float, h: float, n: int):
    """Cell index i in 0..n-1 and local coordinate in [0, 1] of x on the
    periodic grid x_min + i*h (n cells, the last one wrapping).

    With t = (x - x_min) / h, i is floor(t) mod n and the coordinate
    t - floor(t); a NaN or infinite t (or a floor beyond the int64 range)
    takes the floor as -2**63, so its coordinate is t + 2**63."""
    if n < 1:
        raise ValueError("a periodic grid needs at least one cell")
    x = np.asarray(x, dtype=float)
    i = np.empty(x.shape, np.int64)
    u = np.empty(x.shape)
    x = np.ascontiguousarray(x)
    _kernels.periodic_cell(x.size, x.ctypes.data, x_min, h, n, i.ctypes.data,
                           u.ctypes.data)
    return i, u


def bounded_cell(v, v_min: float, h: float, n: int):
    """Cell index j in 0..n-2 and local coordinate in [0, 1] of v on the
    endpoint-inclusive grid of n nodes v_min + j*h; v is clipped to the
    grid, and the last node belongs to the last cell."""
    t = np.clip((np.asarray(v, dtype=float) - v_min) / h, 0.0, n - 1.0)
    j = np.minimum(np.floor(t).astype(np.int64), n - 2)
    return j, t - j


def cell_stencil(ix, ixp, fx, jv, fv):
    """The four (i, j) nodes and bilinear weights of points in the cells
    between rows ix and ixp and columns jv and jv + 1, at local
    coordinates (fx, fv)."""
    nodes = ((ix, jv), (ixp, jv), (ix, jv + 1), (ixp, jv + 1))
    wgts = ((1 - fx) * (1 - fv), fx * (1 - fv), (1 - fx) * fv, fx * fv)
    return nodes, wgts


def bilinear_sum(values: np.ndarray, nodes, wgts):
    """The bilinear interpolant from a stencil: each weight times its node
    value, summed in stencil order."""
    terms = [w * values[i, j] for (i, j), w in zip(nodes, wgts)]
    # not sum(terms): its 0 + (-0.0) would drop the sign of a zero
    return terms[0] + terms[1] + terms[2] + terms[3]


class NodeGrid:
    """The package grid convention (module docstring) of a subclass's
    ``domain``, ``nx`` and ``nv``: node spacings and bilinear stencils."""

    @property
    def dx(self) -> float:
        return self.domain.length / self.nx

    @property
    def dv(self) -> float:
        return self.domain.v_span / (self.nv - 1)

    def stencil(self, x, v):
        """The four (i, j) nodes and bilinear weights at each (x, v)."""
        ix, fx = periodic_cell(x, self.domain.x_min, self.dx, self.nx)
        jv, fv = bounded_cell(v, self.domain.v_min, self.dv, self.nv)
        return cell_stencil(ix, (ix + 1) % self.nx, fx, jv, fv)


@dataclass(frozen=True)
class GriddedDensity(NodeGrid):
    """Node values of a phase-space density on the package grid convention.

    ``values[i, j]`` lives at ``(x_i, v_j)`` with x periodic-indexed
    (nx nodes, nx cells including the wrap cell) and v endpoint-inclusive
    (nv nodes, nv - 1 cells).  Between nodes the density is understood as
    its bilinear interpolant.
    """

    domain: PhaseSpaceDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ValueError("values must be an nx x nv array with nx, nv >= 2")
        object.__setattr__(self, "values", vals)

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def nv(self) -> int:
        return self.values.shape[1]

    def rows(self, first: int, end: int) -> np.ndarray:
        """A fresh, writable copy of rows first..end-1, taken mod nx."""
        return self.values[np.arange(first, end) % self.nx]

    def x_marginal_nodes(self) -> np.ndarray:
        """Trapezoid v-integral of each x column: g_X(x_i)."""
        return self.dv * (self.values @ v_trapezoid_weights(self.nv))

    def mass(self) -> float:
        """Trapezoid integral over the full domain (periodic sum in x)."""
        return float(self.dx * np.sum(self.x_marginal_nodes()))

    def bilinear_at(self, x, v):
        """Bilinear interpolant value at (x, v); x wraps periodically, v clips.

        Takes and returns arrays.
        """
        return bilinear_sum(self.values, *self.stencil(x, v))


def nonzero_mass(mass: float) -> float:
    """``mass``, the trapezoid mass of a density's absolute value.

    Raises
    ------
    AllZeroDensity
        If it is zero, i.e. every node of the density is zero.
    ValueError
        If it is not finite: an inf or NaN node, or a sum that overflows.
    """
    if mass == 0.0:
        raise AllZeroDensity("cannot normalize a density that vanishes at every node")
    if not math.isfinite(mass):
        raise ValueError("sampling density mass must be finite")
    return mass


def normalize_to_sampling_density(f: GriddedDensity) -> GriddedDensity:
    """Return |f| scaled to unit trapezoid mass; one new grid, divided in
    place.

    Raises
    ------
    AllZeroDensity
        If every node of f is zero.
    ValueError
        If the mass of |f| is not finite.
    """
    absvals = np.abs(f.values)
    absvals /= nonzero_mass(GriddedDensity(f.domain, absvals).mass())
    return GriddedDensity(f.domain, absvals)


@dataclass
class ParticleEnsemble:
    """Marker arrays sampling the stochastic characteristics.

    Each marker carries its position, velocity and the two likelihoods
    f_like (plasma density at the marker) and g_like (sampling density at
    the marker); the ratio f_like/g_like is the particle weight.  Pushers
    change the arrays only by rebinding: each assigned array is stored as
    a read-only view (the caller's base array stays writable), so writing
    into it raises ValueError, and ``memo`` keeps a value computed from
    named attributes until one of them is rebound.  The weights and the
    entropy estimate are memos of the likelihoods alone, which the
    volume-preserving pushers never rebind, so under them each is computed
    once per run.
    """

    x: np.ndarray
    v: np.ndarray
    f_like: np.ndarray
    g_like: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.f_like = np.asarray(self.f_like, dtype=float)
        self.g_like = np.asarray(self.g_like, dtype=float)
        n = self.x.shape[0]
        if not (self.v.shape == self.f_like.shape == self.g_like.shape == (n,)):
            raise ValueError("all marker arrays must share one length")

    def __setattr__(self, name, value):
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        entries = self.__dict__.get("_memo", {})
        for fn in [fn for fn, (reads, _) in entries.items() if name in reads]:
            del entries[fn]  # frees what the old array gave
        super().__setattr__(name, value)

    def memo(self, fn, reads):
        """``fn(self)``, computed once until an attribute named in ``reads``
        is rebound; ``fn`` must read no other attribute."""
        entries = self.__dict__.setdefault("_memo", {})
        if fn not in entries:
            entries[fn] = (reads, fn(self))
        return entries[fn][1]

    @property
    def n_p(self) -> int:
        return self.x.shape[0]

    def weights(self) -> np.ndarray:
        """f_like / g_like, read-only and computed once per likelihood pair."""
        return self.memo(_weights, ("f_like", "g_like"))


def _weights(ensemble: ParticleEnsemble) -> np.ndarray:
    w = ensemble.f_like / ensemble.g_like
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of the conserved-quantity diagnostics."""

    t: float
    field_energy: float
    kinetic_energy: float
    total_mass: float
    entropy: float
    star_disc: Optional[float] = None
    hk_variation: Optional[float] = None

    @property
    def total_energy(self) -> float:
        return self.field_energy + self.kinetic_energy
