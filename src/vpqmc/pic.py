"""Geometric particle-in-cell: cubic-B-spline weak Poisson solve, the
integrator family with explicit likelihood bookkeeping, and the
Monte-Carlo estimators of the conserved quantities.

Charge deposition and field evaluation share one periodic cubic B-spline
basis (Galerkin consistency), read from one table of its polynomial
pieces: the deposit applies the table to per-cell power moments of the
marker weights, the evaluation applies its transpose to the coefficients,
so each is the adjoint of the other.  The circulant stiffness matrix is
inverted spectrally with the constant null space pinned to zero mean.
Pushers rebind the ensemble's read-only arrays to new ones; symplectic
Euler and RUTH3 are kick-first splits from one table, run by one stage
loop.  The dissipative explicit Euler variants rescale the likelihoods by
the one-step flow determinant, all other kinds leave them untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .core import Q, Q_OVER_M, RUTH3, ParticleEnsemble, SplitCoefficients, periodic_cell


class FixedPointDiverged(RuntimeError):
    """Implicit pusher failed to converge; carries iteration count and residual."""

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class IntegratorKind(enum.Enum):
    EXPLICIT_EULER = "euler"
    EXPLICIT_EULER2 = "euler2"
    SYMPLECTIC_EULER = "seuler"
    IMPLICIT_MIDPOINT = "midpoint"
    RUTH3 = "ruth3"


_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_CAP = 100


# ---------------------------------------------------------------------------
# cubic B-spline basis on a uniform periodic grid

#: The four cubic B-splines that cover a cell, at cell offsets -1, 0, 1
#: and 2 (rows), as polynomials in the local coordinate u: column p holds
#: the coefficient of u^p, so the first row is (1 - u)^3 / 6.
_BSPLINE3 = np.array([[1.0, -3.0, 3.0, -1.0],
                      [4.0, 0.0, -6.0, 3.0],
                      [1.0, 3.0, 3.0, -3.0],
                      [0.0, 0.0, 0.0, 1.0]]) / 6.0


@dataclass(frozen=True)
class SplinePoissonSolver:
    """Weak Poisson solver on n_f periodic cubic B-splines over [x_min, x_min+L].

    The stiffness matrix (integrals of N_i' N_j') is circulant with first
    row (2/3, -1/8, -1/5, -1/120, 0, ..., -1/120, -1/5, -1/8)/dx; its rows
    sum to zero (constants are the null space), so the solve pins the
    coefficient mean to zero.  ``neighbours[i + 1 + off]`` is the periodic
    index of cell i + off for i in 0..n_f-1 and off in -1..2.
    """

    x_min: float
    length: float
    n_f: int
    stiffness_eigs: np.ndarray
    neighbours: np.ndarray

    @classmethod
    def build(cls, x_min: float, length: float, n_f: int) -> "SplinePoissonSolver":
        if n_f < 4:
            raise ValueError("need at least 4 cells for the cubic basis")
        dx = length / n_f
        row = np.zeros(n_f)
        stencil = np.array([2.0 / 3.0, -1.0 / 8.0, -1.0 / 5.0, -1.0 / 120.0]) / dx
        row[0] = stencil[0]
        for off in (1, 2, 3):
            row[off] += stencil[off]
            row[-off] += stencil[off]
        eigs = np.fft.fft(row)
        return cls(x_min=x_min, length=length, n_f=n_f, stiffness_eigs=eigs,
                   neighbours=np.arange(-1, n_f + 2) % n_f)

    @property
    def dx(self) -> float:
        return self.length / self.n_f

    def apply_stiffness(self, c: np.ndarray) -> np.ndarray:
        return np.fft.ifft(np.fft.fft(c) * self.stiffness_eigs).real


class SplineStencil:
    """One position array located on a solver's cubic B-spline grid.

    Holds each position's cell ``i`` and local coordinate ``u`` (from
    :func:`core.periodic_cell`, read-only), so the charge deposit and
    every spline evaluation at the same positions share one lookup.  Both
    read the one coefficient table ``_BSPLINE3``: the deposit applies it
    to per-cell power moments of the weights, the evaluation applies its
    transpose to the coefficients and runs Horner in u at the positions.
    The per-marker loops of both are compiled (``_kernels.c``) and read
    the read-only arrays in place.
    """

    def __init__(self, solver: SplinePoissonSolver, x: np.ndarray):
        self.solver = solver
        self.i, self.u = periodic_cell(x, solver.x_min, solver.dx, solver.n_f)
        self.i.flags.writeable = self.u.flags.writeable = False
        self.x = x

    def deposit(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k N_j(x_k) for every basis function j.

        The power moments sum_k weights_k u_k^p of each cell (p = 0..3),
        summed in marker order, times the table give each offset's
        contribution by the marker's own cell; each is then added to its
        neighbour's entry (a rotation, so no entry repeats).
        """
        n = self.solver.n_f
        weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != self.u.shape:
            raise ValueError("one weight per located position is needed")
        moments = np.zeros((4, n))
        _kernels.deposit_moments(self.u.size, self.i.ctypes.data, self.u.ctypes.data,
                                 weights.ctypes.data, n, moments.ctypes.data)
        b = np.zeros(n)
        for k, row in enumerate(_BSPLINE3 @ moments):
            b[self.solver.neighbours[k:k + n]] += row
        return b

    def evaluate(self, coeffs: np.ndarray, order: int) -> np.ndarray:
        """The order-th u-derivative of sum_j coeffs_j N_j at the positions
        (order 0 to 3)."""
        if not 0 <= order <= 3:
            raise ValueError("a cubic has derivatives of order 0 to 3")
        n = self.solver.n_f
        window = sliding_window_view(coeffs[self.solver.neighbours], n)
        poly = _BSPLINE3.T @ window          # row p: each cell's u^p coefficient
        for _ in range(order):
            poly = poly[1:] * np.arange(1.0, len(poly))[:, None]
        poly = np.ascontiguousarray(poly)
        out = np.empty(self.u.shape)
        _kernels.horner(out.size, self.i.ctypes.data, self.u.ctypes.data, len(poly), n,
                        poly.ctypes.data, out.ctypes.data)
        return out


def _stencil_at(stencil, solver: SplinePoissonSolver, x) -> SplineStencil:
    """``stencil`` when it is located at this very array x, else a new one.
    A field's stencil holds an ensemble's read-only x, whose identity
    stands for its values."""
    if stencil is not None and x is stencil.x:
        return stencil
    return SplineStencil(solver, np.atleast_1d(np.asarray(x, dtype=float)))


class FieldSolution(NamedTuple):
    """Cubic-spline coefficients of the zero-mean potential.

    ``stencil``, when set, is the located position array the field was
    deposited from; evaluations at that same array reuse it.
    """

    coeffs: np.ndarray
    solver: "SplinePoissonSolver"
    stencil: Optional[SplineStencil] = None

    def E(self, x):
        return eval_E(self, x)

    def dE(self, x):
        return eval_dE(self, x)


def deposit_rhs(ensemble: ParticleEnsemble, solver: SplinePoissonSolver,
                stencil: Optional[SplineStencil] = None) -> np.ndarray:
    """Weak-form load vector b_i = q [ (1/n_p) sum_k w_k N_i(x_k) - dx ].

    The subtracted dx is the projection of the unit neutralizing
    background onto each basis function.  Deposition accumulates in one
    fixed (marker-index) order, so results do not depend on chunking.
    ``stencil`` is used when it is located at ``ensemble.x``.
    """
    b = _stencil_at(stencil, solver, ensemble.x).deposit(ensemble.weights())
    if ensemble.n_p > 0:
        b /= ensemble.n_p
    return Q * (b - solver.dx)


def solve_poisson_fem(solver: SplinePoissonSolver, b: np.ndarray) -> FieldSolution:
    """Solve stiffness * coeffs = b with the mean projected out of both sides."""
    bh = np.fft.fft(np.asarray(b, dtype=float))
    bh[0] = 0.0
    eigs = solver.stiffness_eigs.copy()
    eigs[0] = 1.0
    coeffs = np.fft.ifft(bh / eigs).real
    coeffs.flags.writeable = False  # SelfConsistentField shares its fields
    return FieldSolution(coeffs=coeffs, solver=solver)


def _spline_eval(field: FieldSolution, x, order: int, scale: float) -> np.ndarray:
    """The order-th u-derivative of the spline scale * coeffs at x."""
    stencil = _stencil_at(field.stencil, field.solver, x)
    return stencil.evaluate(scale * field.coeffs, order)


def eval_E(field: FieldSolution, x):
    """E = -Phi'(x); continuous and C1 across knots."""
    return _spline_eval(field, x, 1, -1.0 / field.solver.dx)


def eval_dE(field: FieldSolution, x):
    """dE/dx = -Phi''(x) from the analytic second derivative of the spline."""
    return _spline_eval(field, x, 2, -1.0 / field.solver.dx ** 2)


def field_energy(field: FieldSolution) -> float:
    """(1/2) integral of E^2 dx = (1/2) c^T S c (exact spline quadrature)."""
    c = field.coeffs
    return float(0.5 * np.dot(c, field.solver.apply_stiffness(c)))


class SelfConsistentField:
    """Callable field machinery: deposit the ensemble, solve, return the field.

    The field is a memo of the ensemble's (x, f_like, g_like)
    (``core.Carrier.memo``): a call returns the field already built from
    the same three arrays without depositing again.  Each deposit locates
    the positions afresh, and the field keeps that stencil for
    evaluations at the same x.  Being shared, the field's coefficients
    and the stencil's arrays are read-only.
    """

    def __init__(self, solver: SplinePoissonSolver):
        self.solver = solver

    def __call__(self, ensemble: ParticleEnsemble) -> FieldSolution:
        return ensemble.memo(self._solve, ("x", "f_like", "g_like"))

    def _solve(self, ensemble: ParticleEnsemble) -> FieldSolution:
        stencil = SplineStencil(self.solver, ensemble.x)
        b = deposit_rhs(ensemble, self.solver, stencil)
        return solve_poisson_fem(self.solver, b)._replace(stencil=stencil)


def _wrap(x: np.ndarray, x_min: float, length: float) -> np.ndarray:
    """Overwrite x with ``x_min + np.mod(x - x_min, length)`` and return
    it, with the bits of numpy's float modulo (NaN included); the compiled
    loop skips the modulo where ``x - x_min`` is already on
    ``[0, length)``, where it returns its argument exactly, as it does for
    almost every marker after a stage.  x must be a writable C-contiguous
    float64 array."""
    if not (x.dtype == np.float64 and x.flags.c_contiguous and x.flags.writeable):
        raise ValueError("wrap needs a writable C-contiguous float64 array")
    _kernels.wrap(x.size, x.ctypes.data, x_min, length, x.ctypes.data)
    return x


#: Kick-first fractions of the split kinds: symplectic Euler drifts, then kicks.
_SPLITS = {
    IntegratorKind.SYMPLECTIC_EULER: SplitCoefficients(drift=(1.0, 0.0), kick=(0.0, 1.0)),
    IntegratorKind.RUTH3: RUTH3,
}


def push(kind: IntegratorKind, ensemble: ParticleEnsemble, fields, dt: float) -> None:
    """Advance the ensemble one step of ``kind``.

    The ensemble's arrays are rebound to new arrays (they are read-only),
    which drops the ensemble's memos that read them: the field of a
    :class:`SelfConsistentField` after a rebind of x, the weights after a
    rebind of a likelihood.

    ``fields`` is the field machinery: a callable mapping the current
    ensemble to a field object with E(x) and dE(x).  Every position
    update is one ``move``, which wraps into the period of a
    :class:`SelfConsistentField`'s solver (other machinery leaves x
    unwrapped).  Each stage of a split kind (``_SPLITS``) kicks by d*dt,
    then drifts by c*dt; a zero fraction skips its half.  The implicit
    midpoint kind iterates the particle-field fixed point to 1e-12 in the
    max norm of position increments.

    Likelihood bookkeeping: the volume-preserving kinds leave f_like and
    g_like untouched; ExplicitEuler divides g_like by the one-step flow
    determinant 1 - dt^2 (q/m) dE(x_old); ExplicitEuler2 divides both
    likelihoods, keeping the weights unchanged.
    """
    qm = Q_OVER_M
    solver = fields.solver if isinstance(fields, SelfConsistentField) else None

    def move(carrier, x):
        # x is the caller's new array, wrapped in place: a wrapped copy
        # would add a marker array
        carrier.x = x if solver is None else _wrap(x, solver.x_min, solver.length)

    if kind in _SPLITS:
        for c, d in zip(*_SPLITS[kind]):
            # no field local: it would keep the last stage's positions alive
            # through the next deposit
            if d:
                ensemble.v = ensemble.v + d * dt * qm * fields(ensemble).E(ensemble.x)
            if c:
                move(ensemble, ensemble.x + c * dt * ensemble.v)
        return

    if kind in (IntegratorKind.EXPLICIT_EULER, IntegratorKind.EXPLICIT_EULER2):
        field = fields(ensemble)
        e_old = field.E(ensemble.x)
        de_old = field.dE(ensemble.x)
        det = 1.0 - dt * dt * qm * de_old
        move(ensemble, ensemble.x + dt * ensemble.v)
        ensemble.v = ensemble.v + dt * qm * e_old
        ensemble.g_like = ensemble.g_like / det
        if kind is IntegratorKind.EXPLICIT_EULER2:
            ensemble.f_like = ensemble.f_like / det
        return

    if kind is IntegratorKind.IMPLICIT_MIDPOINT:
        x_n = ensemble.x
        v_n = v_half = ensemble.v
        trial = replace(ensemble)
        x_half_prev = None
        for it in range(_FIXED_POINT_CAP):
            x_half = x_n + 0.5 * dt * v_half
            if x_half_prev is not None:
                resid = float(np.max(np.abs(x_half - x_half_prev)))
                if resid <= _FIXED_POINT_TOL:
                    break
            x_half_prev = x_half
            move(trial, x_half.copy())  # x_half_prev stays unwrapped
            field = fields(trial)
            v_half = v_n + 0.5 * dt * qm * field.E(trial.x)
        else:
            raise FixedPointDiverged("implicit midpoint fixed point stalled",
                                     _FIXED_POINT_CAP, resid)
        e_half = field.E(trial.x)
        move(ensemble, x_n + dt * v_half)
        ensemble.v = v_n + dt * qm * e_half
        return

    raise ValueError(f"unknown integrator kind {kind!r}")


# ---------------------------------------------------------------------------
# Monte-Carlo estimators

def kinetic_energy(ensemble: ParticleEnsemble) -> float:
    """H_T = (1/2n_p) sum v_k^2 w_k."""
    return float(0.5 * np.mean(ensemble.v ** 2 * ensemble.weights()))


def total_mass(ensemble: ParticleEnsemble) -> float:
    """M = (1/n_p) sum f_k/g_k."""
    return float(np.mean(ensemble.weights()))


class EntropyEstimate(NamedTuple):
    value: float
    skipped_fraction: float


def discrete_entropy(ensemble: ParticleEnsemble) -> EntropyEstimate:
    """S = (1/n_p) sum f_k ln(f_k) / g_k over markers with f_k > 0.

    Markers with nonpositive plasma likelihood (possible after a
    negative-weight handoff) are skipped; the skipped fraction is reported
    alongside the value.  The likelihoods are copied only when a marker is
    skipped: the first estimate of a run is taken while the weights memo
    already holds one array of the ensemble's size.
    """
    f, g = ensemble.f_like, ensemble.g_like
    pos = f > 0.0
    n_pos = np.count_nonzero(pos)
    if n_pos < ensemble.n_p:
        f, g = f[pos], g[pos]
    total = float(np.sum(f * np.log(f) / g))
    return EntropyEstimate(value=total / ensemble.n_p,
                           skipped_fraction=1.0 - n_pos / ensemble.n_p)
