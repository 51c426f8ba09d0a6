"""Pseudo-spectral Vlasov-Poisson solver with Hamiltonian split-stepping.

The state holds real collocation values of f on a grid periodic in both
directions (velocity is treated as periodic on [v_min, v_max]; the
Gaussian tails make the wrap-around error negligible for a wide enough
box).  Each split sub-step is an exact shear implemented as a phase
multiplication in the transformed direction, so mass and the L2 norm are
conserved to rounding.  Every transform is real-input (rfft/irfft), so the
state is real by construction.  A smooth exponential filter applied once
per full step keeps aliasing at bay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# RUTH3 and SplitCoefficients are also re-exported from here
from .core import (DiagnosticsRecord, ELECTRON, GriddedDensity,
                   InitialCondition, PhaseSpaceDomain, RUTH3, Species,
                   SplitCoefficients, eval_initial_f)


class NonNeutralPlasmaWarning(UserWarning):
    """Mean charge density deviates from the neutralizing background."""


@dataclass
class SpectralState:
    """Real collocation values of f at time t.

    Nodes: x_i = x_min + i*L/nx (i = 0..nx-1), v_j = v_min + j*S/nv
    (j = 0..nv-1) with S = v_max - v_min; both directions periodic for
    transform purposes.
    """

    domain: PhaseSpaceDomain
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-D (nx, nv)")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def nv(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return self.domain.length / self.nx

    @property
    def dv(self) -> float:
        return self.domain.v_span / self.nv

    def x_nodes(self) -> np.ndarray:
        return self.domain.x_min + self.dx * np.arange(self.nx)

    def v_nodes(self) -> np.ndarray:
        return self.domain.v_min + self.dv * np.arange(self.nv)

    def kappa_x(self) -> np.ndarray:
        """The non-negative wavenumbers of an rfft along x."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.nx, d=self.dx)

    def kappa_v(self) -> np.ndarray:
        """The non-negative wavenumbers of an rfft along v."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.nv, d=self.dv)


def state_from_initial_condition(ic: InitialCondition, domain: PhaseSpaceDomain,
                                 nx: int, nv: int) -> SpectralState:
    s = SpectralState(domain, np.zeros((nx, nv)))
    xx, vv = np.meshgrid(s.x_nodes(), s.v_nodes(), indexing="ij")
    s.values = np.asarray(eval_initial_f(ic, xx, vv))
    return s


def advect_x(s: SpectralState, dt: float) -> SpectralState:
    """Exact free-streaming shear f(x, v) <- f(x - v*dt, v)."""
    fh = np.fft.rfft(s.values, axis=0)
    phase = np.exp(-1j * np.outer(s.kappa_x(), s.v_nodes()) * dt)
    out = np.fft.irfft(fh * phase, s.nx, axis=0)
    return SpectralState(s.domain, out, s.t)


def charge_density(s: SpectralState) -> np.ndarray:
    """rho(x_i) = integral of f dv (periodic trapezoid = node sum)."""
    return s.dv * np.sum(s.values, axis=1)


def poisson_fourier(s: SpectralState, species: Species = ELECTRON,
                    warn_nonneutral: bool = True) -> np.ndarray:
    """Electric field on the x nodes from the Fourier Poisson solve.

    Solves the weak-form sign convention -Phi'' = q*(rho - 1), i.e. Gauss's
    law dE/dx = q*(rho - 1) with E = -Phi' and the zero mode pinned, and
    returns E at the collocation points.  Warns when the mean density
    departs from the unit neutralizing background.
    """
    rho = charge_density(s)
    rho_hat = np.fft.rfft(rho)
    if warn_nonneutral and abs(rho_hat[0] / s.nx - 1.0) > 1e-6:
        warnings.warn("mean density deviates from the unit background",
                      NonNeutralPlasmaWarning, stacklevel=2)
    kx = s.kappa_x()
    phi_hat = np.zeros_like(rho_hat)
    nonzero = kx != 0.0
    phi_hat[nonzero] = species.q * rho_hat[nonzero] / kx[nonzero] ** 2
    # the background only affects the zero mode, which is pinned anyway
    e_hat = -1j * kx * phi_hat
    return np.fft.irfft(e_hat, s.nx)


def kick_v(s: SpectralState, dt: float, species: Species = ELECTRON,
           e_field: Optional[np.ndarray] = None) -> SpectralState:
    """Exact velocity shear f(x, v) <- f(x, v - (q/m) E(x) dt) per column.

    E defaults to the self-consistent field of the current state; a
    diagnostic override can be passed for harness tests.
    """
    if e_field is None:
        e_field = poisson_fourier(s, species)
    fh = np.fft.rfft(s.values, axis=1)
    shift = species.q_over_m * np.asarray(e_field) * dt
    phase = np.exp(-1j * np.outer(shift, s.kappa_v()))
    out = np.fft.irfft(fh * phase, s.nv, axis=1)
    return SpectralState(s.domain, out, s.t)


def _filter_profile(n: int) -> np.ndarray:
    # Hou-Li style smooth exponential filter exp(-36 (|k|/k_max)^36), with
    # |k| = min(i, n - i) the integer wavenumber of transform bin i
    i = np.arange(n)
    k = np.minimum(i, n - i)
    return np.exp(-36.0 * (k / k.max()) ** 36)


def apply_filter(s: SpectralState) -> SpectralState:
    """Smooth exponential anti-alias filter in both directions."""
    fh = np.fft.rfft2(s.values)
    fh *= np.outer(_filter_profile(s.nx), _filter_profile(s.nv)[:s.nv // 2 + 1])
    return SpectralState(s.domain, np.fft.irfft2(fh, s.values.shape), s.t)


def step_order3(s: SpectralState, dt: float,
                species: Species = ELECTRON) -> SpectralState:
    """One composite kick-first RUTH3 split step followed by the filter.

    The field is recomputed before every kick (kicks preserve the charge
    density, so each sub-flow is exact).
    """
    out = s
    for c, d in zip(RUTH3.drift, RUTH3.kick):
        out = advect_x(kick_v(out, d * dt, species), c * dt)
    out = apply_filter(out)
    out.t = s.t + dt
    return out


def hk_variation(s: SpectralState) -> float:
    """Hardy-Krause variation of f on the collocation grid.

    Sum of the L1 norms of f_x, f_v and the mixed f_xv (counted once);
    x-derivatives spectral, v-derivatives 4th-order central differences,
    absolute values integrated by the periodic trapezoid rule.
    """
    f = s.values
    fx = np.fft.irfft(1j * s.kappa_x()[:, None] * np.fft.rfft(f, axis=0), s.nx, axis=0)

    def ddv(a):
        return (-np.roll(a, -2, axis=1) + 8.0 * np.roll(a, -1, axis=1)
                - 8.0 * np.roll(a, 1, axis=1) + np.roll(a, 2, axis=1)) / (12.0 * s.dv)

    fv = ddv(f)
    fxv = ddv(fx)
    cell = s.dx * s.dv
    return float(cell * (np.sum(np.abs(fx)) + np.sum(np.abs(fv)) + np.sum(np.abs(fxv))))


def zero_pad(s: SpectralState, n_pad: int) -> GriddedDensity:
    """Evaluate the trigonometric interpolant of f on an n_pad-times finer grid.

    One axis at a time, the real spectrum is inverse-transformed at
    n_pad times the length, which zero-fills the new modes; an even
    length's Nyquist bin is halved, since the finer grid holds both its
    +n/2 and -n/2 modes.  The result follows the package grid convention,
    so the v direction gains one wrap node: output shape
    (n_pad*nx, n_pad*nv + 1).  Values at the original nodes are unchanged,
    and for n_pad == 1 they are the state's own values.
    """
    if n_pad < 1:
        raise ValueError("n_pad must be >= 1")
    fine = s.values
    if n_pad > 1:
        for axis in (0, 1):
            n = fine.shape[axis]
            fh = np.fft.rfft(fine, axis=axis)
            if n % 2 == 0:
                np.moveaxis(fh, axis, 0)[n // 2] *= 0.5
            fine = np.fft.irfft(fh, n_pad * n, axis=axis) * n_pad
    out = np.concatenate([fine, fine[:, :1]], axis=1)
    return GriddedDensity(s.domain, out)


def field_energy(s: SpectralState, species: Species = ELECTRON) -> float:
    """(1/2) integral of E^2 dx (the node sum equals the mode sum by Parseval)."""
    e = poisson_fourier(s, species, warn_nonneutral=False)
    return float(0.5 * s.dx * np.sum(e * e))


def kinetic_energy(s: SpectralState) -> float:
    return float(0.5 * s.dx * s.dv * np.sum(s.v_nodes() ** 2 * s.values))


def total_mass(s: SpectralState) -> float:
    return float(s.dx * s.dv * np.sum(s.values))


def grid_entropy(s: SpectralState) -> float:
    """Integral of f ln f over the nodes where f > 0."""
    f = s.values
    pos = f > 0.0
    return float(s.dx * s.dv * np.sum(f[pos] * np.log(f[pos])))


def diagnostics(s: SpectralState, species: Species = ELECTRON,
                with_hk: bool = False) -> DiagnosticsRecord:
    return DiagnosticsRecord.make(
        t=s.t,
        field_energy=field_energy(s, species),
        kinetic_energy=kinetic_energy(s),
        total_mass=total_mass(s),
        entropy=grid_entropy(s),
        hk_variation=hk_variation(s) if with_hk else None,
    )


def run_spectral(ic: InitialCondition, domain: PhaseSpaceDomain,
                 nx: int, nv: int, dt: float, t_max: float,
                 species: Species = ELECTRON,
                 out_stride: int = 1,
                 hk_period: int = 0,
                 on_record: Optional[Callable[[DiagnosticsRecord], None]] = None):
    """Step the spectral solver from the initial condition at t = 0 to t_max.

    Diagnostics are emitted at t = 0 and then every ``out_stride`` steps
    (the Hardy-Krause variation on every ``hk_period``-th record when > 0).
    ``on_record(record, state)`` is invoked per emission, e.g. for periodic
    dumps.  Returns (records, final_state).
    """
    state = state_from_initial_condition(ic, domain, nx, nv)
    n_steps = int(round(t_max / dt))
    records = []

    def emit():
        with_hk = hk_period > 0 and len(records) % hk_period == 0
        rec = diagnostics(state, species, with_hk=with_hk)
        records.append(rec)
        if on_record is not None:
            on_record(rec, state)

    emit()
    for i in range(1, n_steps + 1):
        state = step_order3(state, dt, species)
        state.t = i * dt
        if i % out_stride == 0 or i == n_steps:
            emit()
    return records, state
