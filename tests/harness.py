"""Test harness built on the library's public API.

The frozen-field Jacobian probes check the paper's central claim, that
the volume-preserving integrators are measure-preserving maps: one step
of an integrator for independent particles in a prescribed field, the
adjoint Euler map, and central finite-difference determinants of such
maps.  Beside them are the estimators and dense operator forms that only
tests compare against: the spline potential, the momentum estimator, the
dense hat-basis mass matrices and the spline norm, the B-spline
re-expansion error, a marker's weight and the periodic wrap of positions,
the traced peak allocation of a call, a row source that counts the
rows it serves, and a count of the rank groups whose skip bound in the
star-discrepancy sweep meets its running maximum exactly.
"""

import tracemalloc
from bisect import bisect_right
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from vpqmc import densest
from vpqmc.core import Q_OVER_M, NodeGrid, ParticleEnsemble, PhaseSpaceDomain
from vpqmc.pic import (FieldSolution, FixedPointDiverged, IntegratorKind,
                       SplineStencil, push)

_FIXED_POINT_CAP = 100


def wrap_x(domain: PhaseSpaceDomain, x):
    """Map positions into [x_min, x_max) by periodicity."""
    return domain.x_min + np.mod(np.asarray(x, dtype=float) - domain.x_min, domain.length)


def traced_peak(fn: Callable):
    """(peak bytes that tracemalloc traced during fn(), its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def sweep_bound_ties(points):
    """(ties, D*): ties counts the four-rank groups that ``sweep_point``
    in ``vpqmc/_kernels.c`` skips with a bound equal to its running
    maximum, by the same sweep in Python floats (the same IEEE
    operations, the points in the same stable order on x, tied x and
    x = 1 included); D* is that sweep's result.  A set with ties > 0
    tests the skip at equality."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0].tolist(), pts[order, 1].tolist()
    counts = (np.arange(n + 1) / n).tolist()
    s, best, ties = [], -np.inf, 0
    for k, (u, y) in enumerate(zip(xs, ys)):
        t = bisect_right(s, y)
        top = max(best, u - counts[k], counts[t + 1] - u * y)
        for r in range(t, k, 4):
            if r + 4 <= k:
                ob, cb = u * s[r + 3] - counts[r], counts[r + 5] - u * s[r]
                if ob <= top and cb <= top:
                    ties += ob == top or cb == top
                    continue
            for j in range(r, min(r + 4, k)):
                top = max(top, u * s[j] - counts[j], counts[j + 2] - u * s[j])
        s.insert(t, y)
        best = top
    # the open corners (1, s[r])
    return ties, max(best, *(w - c for w, c in zip(s, counts)))


class CountingRows(NodeGrid):
    """The rows of ``density``, served through ``rows`` like the
    density's own; ``served`` counts the rows handed out so far."""

    def __init__(self, density: NodeGrid):
        self.density = density
        self.domain, self.nx, self.nv = density.domain, density.nx, density.nv
        self.served = 0

    def rows(self, first: int, end: int) -> np.ndarray:
        self.served += end - first
        return self.density.rows(first, end)


def weight(ensemble: ParticleEnsemble, k: int) -> float:
    """Weight w_k = f_like[k] / g_like[k] of marker k; constant under
    volume-preserving pushes."""
    if not 0 <= k < ensemble.n_p:
        raise IndexError(f"marker index {k} out of range")
    return float(ensemble.f_like[k] / ensemble.g_like[k])


# ---------------------------------------------------------------------------
# frozen-field single-particle maps (Jacobian probes)

class AnalyticField(NamedTuple):
    """Frozen analytic field for harness tests and Jacobian probes."""

    e_fn: Callable
    de_fn: Callable

    def E(self, x):
        return self.e_fn(np.asarray(x, dtype=float))

    def dE(self, x):
        return self.de_fn(np.asarray(x, dtype=float))


class FrozenField:
    """Field machinery that ignores the ensemble (external prescribed
    field); ``push`` does not wrap positions for it."""

    def __init__(self, field):
        self.field = field

    def __call__(self, ensemble=None):
        return self.field


def frozen_step(kind: IntegratorKind, x, v, dt: float, field):
    """One step of ``kind`` for independent particles (1-D arrays x, v) in
    a frozen field.

    Runs :func:`push` on a unit-likelihood ensemble without wrapping, so
    the Jacobian probes measure the production integrators.
    """
    x = np.asarray(x, dtype=float)
    ensemble = ParticleEnsemble(x, np.asarray(v, dtype=float),
                                np.ones_like(x), np.ones_like(x))
    push(kind, ensemble, FrozenField(field), dt)
    return ensemble.x, ensemble.v


def adjoint_euler_step(x, v, dt: float, field):
    """The adjoint (implicit) Euler map: x' = x + dt v', v' = v + dt (q/m) E(x')."""
    qm = Q_OVER_M
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    v_new = np.array(v, dtype=float, copy=True)
    for it in range(_FIXED_POINT_CAP):
        x_new = x + dt * v_new
        v_next = v + dt * qm * field.E(x_new)
        resid = float(np.max(np.abs(v_next - v_new)))
        v_new = v_next
        if resid <= 1e-14 * max(1.0, float(np.max(np.abs(v_new)))):
            break
    else:
        raise FixedPointDiverged("adjoint Euler fixed point stalled",
                                 _FIXED_POINT_CAP, resid)
    return x + dt * v_new, v_new


def map_jacobian_det(step_map, x: float, v: float, h_x: float, h_v: float) -> float:
    """Central finite-difference determinant of a 2-D one-step map."""
    xp, vp = step_map(np.array([x + h_x, x - h_x, x, x]),
                      np.array([v, v, v + h_v, v - h_v]))
    dxdx = (xp[0] - xp[1]) / (2 * h_x)
    dvdx = (vp[0] - vp[1]) / (2 * h_x)
    dxdv = (xp[2] - xp[3]) / (2 * h_v)
    dvdv = (vp[2] - vp[3]) / (2 * h_v)
    return float(dxdx * dvdv - dxdv * dvdx)


def flow_jacobian_det(kind: IntegratorKind, x: float, v: float, dt: float,
                      field) -> float:
    """Numerical Jacobian determinant of one frozen-field step at (x, v).

    Central differences with h = 1e-5 * scale per coordinate.
    """
    h_x = 1e-5 * max(1.0, abs(x))
    h_v = 1e-5 * max(1.0, abs(v))
    return map_jacobian_det(
        lambda xs, vs: frozen_step(kind, xs, vs, dt, field),
        x, v, h_x, h_v)


# ---------------------------------------------------------------------------
# estimators and dense operators that only tests read

def eval_phi(field: FieldSolution, x):
    """The spline potential Phi at x."""
    return SplineStencil(field.solver, x).evaluate(field.coeffs, 0)


def momentum(ensemble: ParticleEnsemble) -> float:
    return float(np.mean(ensemble.v * ensemble.weights()))


class LinearSplineBasis2D(densest.LinearSplineBasis2D):
    """The library's hat basis plus the dense mass matrices and the mass
    product that tests check its FFT and banded solve against."""

    def mass_v_dense(self) -> np.ndarray:
        ab = self.mass_v_banded()
        m = np.diag(ab[1])
        off = np.diag(ab[0, 1:], k=1)
        return m + off + off.T

    def mass_x_dense(self) -> np.ndarray:
        return scipy.linalg.circulant(self.mass_x_row()).T

    def apply_mass(self, coeffs: np.ndarray) -> np.ndarray:
        """(M_x kron M_v) @ coeffs for an (nx, nv) coefficient array."""
        out = np.fft.ifft(np.fft.fft(coeffs, axis=0)
                          * self.mass_x_eigs()[:, None], axis=0).real
        return out @ self.mass_v_dense().T


def l2_norm(basis: LinearSplineBasis2D, coeffs: np.ndarray) -> float:
    """L2 norm of the spline function with the given coefficients."""
    return float(np.sqrt(np.sum(coeffs * basis.apply_mass(coeffs))))


def spline_mode_error(k: float, h: float, m: int) -> float:
    """Relative amplitude error |1 - sinc(kh/2)^(m+1)| of the k-th Fourier
    mode after re-expanding in order-m B-splines on a grid of step h."""
    if m < 0:
        raise ValueError("spline order must be >= 0")
    z = 0.5 * k * h
    sinc = np.sinc(z / np.pi)  # numpy sinc is the normalized variant
    return float(abs(1.0 - sinc ** (m + 1)))
