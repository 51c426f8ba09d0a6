"""Geometric particle-in-cell: cubic-B-spline weak Poisson solve, the
integrator family with explicit likelihood bookkeeping, and the
Monte-Carlo estimators of the conserved quantities.

Charge deposition and field evaluation share one periodic cubic B-spline
basis (Galerkin consistency), read from one table of its polynomial
pieces: the deposit applies the table to per-cell power moments of the
marker weights, the evaluation applies its transpose to the coefficients,
so each is the adjoint of the other.  The circulant stiffness matrix is
inverted spectrally with the constant null space pinned to zero mean.
Pushers advance the ensemble by rebinding its arrays to new ones, never
by writing into them; the dissipative explicit Euler variants rescale
the likelihoods by the one-step flow determinant, all other kinds leave
them untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Q, Q_OVER_M, RUTH3, ParticleEnsemble, periodic_cell


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
    :func:`core.periodic_cell`), so the charge deposit and every spline
    evaluation at the same positions share one lookup.  Both kernels read
    the one coefficient table ``_BSPLINE3``: the deposit applies it to
    per-cell power moments of the weights, the evaluation applies its
    transpose to the coefficients and runs Horner in u at the positions.
    """

    def __init__(self, solver: SplinePoissonSolver, x: np.ndarray):
        self.solver = solver
        self.i, self.u = periodic_cell(x, solver.x_min, solver.dx, solver.n_f)
        self.x = x

    def deposit(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k N_j(x_k) for every basis function j.

        The power moments sum_k weights_k u_k^p of each cell (p = 0..3)
        times the table give each offset's contribution by the marker's
        own cell; each is then added to its neighbour's entry (a
        rotation, so no entry repeats).
        """
        n = self.solver.n_f
        moments = np.empty((4, n))
        wu = weights
        for p in range(4):
            if p:
                wu = wu * self.u
            moments[p] = np.bincount(self.i, weights=wu, minlength=n)
        b = np.zeros(n)
        for k, row in enumerate(_BSPLINE3 @ moments):
            b[self.solver.neighbours[k:k + n]] += row
        return b

    def evaluate(self, coeffs: np.ndarray, order: int) -> np.ndarray:
        """The order-th u-derivative of sum_j coeffs_j N_j at the positions."""
        n = self.solver.n_f
        window = sliding_window_view(coeffs[self.solver.neighbours], n)
        poly = _BSPLINE3.T @ window          # row p: each cell's u^p coefficient
        for _ in range(order):
            poly = poly[1:] * np.arange(1.0, len(poly))[:, None]
        out = np.take(poly[-1], self.i)
        for row in poly[-2::-1]:
            out *= self.u
            out += np.take(row, self.i)
        return out


def _stencil_at(stencil, solver: SplinePoissonSolver, x) -> SplineStencil:
    """``stencil`` when it is located at this very array x, else a new one."""
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

    Remembers the field built from the last (x, f_like, g_like) array
    objects: a call with the same three arrays returns that field without
    depositing again.  A new deposit locates the positions afresh (new
    ``i`` and ``u`` arrays) unless x is the array that field's stencil
    holds, and never changes a stencil an earlier field holds.  This
    relies on an invariant that every pusher keeps: ensemble arrays are
    rebound to new arrays, never changed in place, so array identity
    stands for array contents.
    """

    def __init__(self, solver: SplinePoissonSolver):
        self.solver = solver
        self._key = ()
        self._field: Optional[FieldSolution] = None

    def __call__(self, ensemble: ParticleEnsemble) -> FieldSolution:
        key = (ensemble.x, ensemble.f_like, ensemble.g_like)
        if self._field is None or any(a is not b for a, b in zip(key, self._key)):
            stencil = _stencil_at(getattr(self._field, "stencil", None), self.solver,
                                  ensemble.x)
            self._field = None  # free the last positions before the deposit's temporaries
            b = deposit_rhs(ensemble, self.solver, stencil)
            self._field = solve_poisson_fem(self.solver, b)._replace(stencil=stencil)
            self._key = key
        return self._field


def _wrap(ensemble: ParticleEnsemble, x_min: float, length: float):
    """Rebind x to ``x_min + np.mod(x - x_min, length)``, running the
    modulo only where it changes something: on ``[0, length)`` it returns
    its argument exactly, and after a stage almost every marker is there."""
    r = ensemble.x - x_min
    outside = ~((r >= 0.0) & (r < length))  # NaN included, as np.mod sees it
    if outside.any():
        r[outside] = np.mod(r[outside], length)
    ensemble.x = x_min + r


def push(kind: IntegratorKind, ensemble: ParticleEnsemble, fields, dt: float) -> None:
    """Advance the ensemble one step of ``kind``.

    The ensemble's arrays are rebound to new arrays, never written into:
    :class:`SelfConsistentField` reuses a field for the same array objects.

    ``fields`` is the field machinery: a callable mapping the current
    ensemble to a field object with E(x) and dE(x).  Positions wrap into
    the period of a :class:`SelfConsistentField`'s solver; field machinery
    without a solver leaves them unwrapped.  The implicit midpoint kind
    iterates the particle-field fixed point to 1e-12 in the max norm of
    position increments.

    Likelihood bookkeeping: the volume-preserving kinds leave f_like and
    g_like untouched; ExplicitEuler divides g_like by the one-step flow
    determinant 1 - dt^2 (q/m) dE(x_old); ExplicitEuler2 divides both
    likelihoods, keeping the weights unchanged.
    """
    qm = Q_OVER_M
    if isinstance(fields, SelfConsistentField):
        x_min = fields.solver.x_min
        length = fields.solver.length
    else:
        x_min, length = None, None

    def wrap():
        if x_min is not None:
            _wrap(ensemble, x_min, length)

    if kind in (IntegratorKind.EXPLICIT_EULER, IntegratorKind.EXPLICIT_EULER2):
        field = fields(ensemble)
        e_old = field.E(ensemble.x)
        de_old = field.dE(ensemble.x)
        det = 1.0 - dt * dt * qm * de_old
        ensemble.x = ensemble.x + dt * ensemble.v
        ensemble.v = ensemble.v + dt * qm * e_old
        ensemble.g_like = ensemble.g_like / det
        if kind is IntegratorKind.EXPLICIT_EULER2:
            ensemble.f_like = ensemble.f_like / det
        wrap()
        return

    if kind is IntegratorKind.SYMPLECTIC_EULER:
        ensemble.x = ensemble.x + dt * ensemble.v
        wrap()
        ensemble.v = ensemble.v + dt * qm * fields(ensemble).E(ensemble.x)
        return

    if kind is IntegratorKind.RUTH3:
        for c, d in zip(RUTH3.drift, RUTH3.kick):
            # no field local: it would keep the last stage's positions alive
            # through the next deposit
            ensemble.v = ensemble.v + d * dt * qm * fields(ensemble).E(ensemble.x)
            ensemble.x = ensemble.x + c * dt * ensemble.v
            wrap()
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
            trial.x = x_half
            if x_min is not None:
                _wrap(trial, x_min, length)
            field = fields(trial)
            v_half = v_n + 0.5 * dt * qm * field.E(trial.x)
        else:
            raise FixedPointDiverged("implicit midpoint fixed point stalled",
                                     _FIXED_POINT_CAP, resid)
        e_half = field.E(trial.x)
        ensemble.x = x_n + dt * v_half
        ensemble.v = v_n + dt * qm * e_half
        wrap()
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
    alongside the value.
    """
    f = ensemble.f_like
    pos = f > 0.0
    skipped = 1.0 - np.count_nonzero(pos) / ensemble.n_p
    total = float(np.sum(f[pos] * np.log(f[pos]) / ensemble.g_like[pos]))
    return EntropyEstimate(value=total / ensemble.n_p, skipped_fraction=skipped)
