"""Density reconstruction from marker ensembles.

Orthogonal-series density estimation projects the empirical measure onto
the tensor-product linear-spline (hat) basis: cloud-in-cell moment
accumulation followed by the exact mass-matrix solve (circulant in the
periodic x direction, tridiagonal in the bounded v direction).
``bilinear_ridge_fit`` instead interpolates the transported density
values carried by the markers, with L2 regularization for the
underdetermined regime.

Note on the stencils: the L2 overlap of unit hats is h/6, so the mass
matrices are h*(1/6, 2/3, 1/6) with boundary diagonal h/3 for the
half-support end elements in v.

scipy is imported inside the two functions that use it: only
``vpqmc reconstruct`` reaches them, so a run never loads scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GriddedDensity, NodeGrid, ParticleEnsemble, PhaseSpaceDomain


class SingularSystem(np.linalg.LinAlgError):
    """Unregularized normal equations are rank-deficient."""


@dataclass(frozen=True)
class LinearSplineBasis2D(NodeGrid):
    """Tensor-product hat basis on the package grid (periodic x, bounded v)."""

    domain: PhaseSpaceDomain
    nx: int
    nv: int

    def __post_init__(self):
        if self.nx < 2 or self.nv < 2:
            raise ValueError("need nx, nv >= 2")

    def mass_x_row(self) -> np.ndarray:
        """First row of the circulant x mass matrix: dx*(2/3, 1/6, 0, ..., 1/6)."""
        row = np.zeros(self.nx)
        row[0] = 2.0 / 3.0
        row[1] += 1.0 / 6.0
        row[-1] += 1.0 / 6.0
        return self.dx * row

    def mass_x_eigs(self) -> np.ndarray:
        return np.fft.fft(self.mass_x_row())

    def mass_v_banded(self) -> np.ndarray:
        """The v mass matrix in solveh_banded layout (upper band, diagonal)."""
        diag = np.full(self.nv, 2.0 / 3.0)
        diag[0] = diag[-1] = 1.0 / 3.0
        upper = np.full(self.nv, 1.0 / 6.0)
        upper[0] = 0.0
        return self.dv * np.vstack([upper, diag])

    def solve_mass(self, moments: np.ndarray) -> np.ndarray:
        """(M_x kron M_v)^{-1} @ moments: FFT in x, banded Cholesky in v."""
        import scipy.linalg

        tmp = np.fft.ifft(np.fft.fft(moments, axis=0)
                          / self.mass_x_eigs()[:, None], axis=0).real
        sol = scipy.linalg.solveh_banded(self.mass_v_banded(), tmp.T)
        return sol.T


def cic_moments(basis: LinearSplineBasis2D, x: np.ndarray, v: np.ndarray,
                omega) -> np.ndarray:
    """Moment array m_ij = (1/n) sum_k omega_k N_ij(x_k, v_k)."""
    n = np.asarray(x).shape[0]
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (n,))
    flat = np.zeros(basis.nx * basis.nv)
    nodes, wgts = basis.stencil(x, v)
    for (i, j), w in zip(nodes, wgts):
        flat += np.bincount(i * basis.nv + j, weights=omega * w,
                            minlength=flat.size)
    return flat.reshape(basis.nx, basis.nv) / n


def osde_linear(ensemble: ParticleEnsemble, basis: LinearSplineBasis2D) -> GriddedDensity:
    """Linear-spline orthogonal-series density estimate of f: each marker
    carries its weight w_k = f_k/g_k."""
    if ensemble.n_p < 1:
        raise ValueError("need at least one marker")
    moments = cic_moments(basis, ensemble.x, ensemble.v, ensemble.weights())
    coeffs = basis.solve_mass(moments)
    return GriddedDensity(basis.domain, coeffs)


def bilinear_ridge_fit(x, v, values, basis: LinearSplineBasis2D,
                       lam: Optional[float] = None) -> GriddedDensity:
    """Least-squares bilinear fit of point samples with L2 regularization.

    Minimizes sum_s (sum_ij c_ij N_ij(x_s, v_s) - values_s)^2 + lam*|c|^2
    through the sparse normal equations.  ``lam=None`` picks 0 when there
    are at least as many samples as unknowns and every hat function holds
    a sample (every diagonal entry of the normal matrix is positive), else
    1e-8 * max diagonal of the normal matrix.

    Raises
    ------
    SingularSystem
        If lam == 0 and the design matrix is rank-deficient.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    values = np.asarray(values, dtype=float)
    n_s = x.shape[0]
    n_dof = basis.nx * basis.nv
    nodes, wgts = basis.stencil(x, v)
    rows = np.concatenate([np.arange(n_s)] * 4)
    cols = np.concatenate([i * basis.nv + j for (i, j) in nodes])
    data = np.concatenate(list(wgts))
    a = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n_s, n_dof))
    ata = (a.T @ a).tocsc()
    aty = a.T @ values
    if lam is None:
        diag = ata.diagonal()
        lam = 0.0 if n_s >= n_dof and np.all(diag > 0) else 1e-8 * float(diag.max())
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    system = ata + lam * scipy.sparse.identity(n_dof, format="csc")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
        try:
            coeffs = scipy.sparse.linalg.spsolve(system, aty)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from None
    resid = np.linalg.norm(system @ coeffs - aty)
    scale = max(np.linalg.norm(aty), 1e-300)
    if not np.all(np.isfinite(coeffs)) or resid > 1e-10 * scale:
        if lam == 0.0:
            raise SingularSystem(
                "normal equations are rank-deficient; pass lam > 0")
        raise np.linalg.LinAlgError(
            f"normal-equation residual {resid:.3e} exceeds tolerance")
    return GriddedDensity(basis.domain, coeffs.reshape(basis.nx, basis.nv))
