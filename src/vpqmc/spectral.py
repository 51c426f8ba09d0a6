"""Pseudo-spectral Vlasov-Poisson solver with Hamiltonian split-stepping.

The state holds real collocation values of f on a grid periodic in both
directions (velocity is treated as periodic on [v_min, v_max]; the
Gaussian tails make the wrap-around error negligible for a wide enough
box).  Each split sub-step is an exact shear implemented as a phase
multiplication in the transformed direction, so mass and the L2 norm are
conserved to rounding.  Every transform is real-input (rfft/irfft), so the
state is real by construction.  A smooth exponential filter applied once
per full step keeps aliasing at bay.  ``advance`` is the one split-step
implementation; ``advect_x``, ``kick_v`` and ``apply_filter`` apply its
sub-flows one at a time, through the same phase and profile builders.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# RUTH3 is also re-exported from here
from .core import (Carrier, DiagnosticsRecord, GriddedDensity,
                   InitialCondition, PhaseSpaceDomain, Q, Q_OVER_M, RUTH3,
                   eval_initial_f, whole_steps)


class NonNeutralPlasmaWarning(UserWarning):
    """Mean charge density deviates from the neutralizing background."""


_NONNEUTRAL = "mean density deviates from the unit background"


@dataclass
class SpectralState(Carrier):
    """Real collocation values of f at time t.

    Nodes: x_i = x_min + i*L/nx (i = 0..nx-1), v_j = v_min + j*S/nv
    (j = 0..nv-1) with S = v_max - v_min; both directions periodic for
    transform purposes.  ``values`` is read-only (see ``core.Carrier``),
    and the field that ``poisson_fourier`` solves is a memo of it, so the
    record's solve serves the first kick of ``advance``.
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
    s.values = eval_initial_f(ic, xx, vv)
    return s


def _shear(f: np.ndarray, factor: np.ndarray, axis: int) -> np.ndarray:
    """Multiply the real spectrum of f along ``axis`` by ``factor``."""
    fh = np.fft.rfft(f, axis=axis)
    fh *= factor
    return np.fft.irfft(fh, f.shape[axis], axis=axis)


def _drift_phase(s: SpectralState, tau: float) -> np.ndarray:
    """exp(-i k_x v tau) on the (rfft bin along x, v node) grid."""
    return np.exp(-1j * np.outer(s.kappa_x(), s.v_nodes()) * tau)


def _kick_phase(s: SpectralState, shift: np.ndarray) -> np.ndarray:
    """exp(-i shift(x) k_v) on the (x node, rfft bin along v) grid.

    k_v is j times the first nonzero wavenumber, so row i holds the powers
    z_i**j of z_i = exp(-i shift_i k_v[1]): one complex exp per x node and
    a running product along v instead of one exp per entry.
    """
    z = np.exp(-1j * s.kappa_v()[1] * shift)
    phase = np.empty((s.nx, s.nv // 2 + 1), dtype=complex)
    phase[:, 0] = 1.0
    phase[:, 1:] = z[:, None]
    return np.cumprod(phase, axis=1, out=phase)


def advect_x(s: SpectralState, dt: float) -> SpectralState:
    """Exact free-streaming shear f(x, v) <- f(x - v*dt, v)."""
    return SpectralState(s.domain, _shear(s.values, _drift_phase(s, dt), 0), s.t)


def charge_density(s: SpectralState) -> np.ndarray:
    """rho(x_i) = integral of f dv (periodic trapezoid = node sum)."""
    return s.dv * np.sum(s.values, axis=1)


def poisson_fourier(s: SpectralState, warn_nonneutral: bool = True) -> np.ndarray:
    """Electric field on the x nodes from the Fourier Poisson solve.

    Solves the weak-form sign convention -Phi'' = q*(rho - 1), i.e. Gauss's
    law dE/dx = q*(rho - 1) with E = -Phi' and the zero mode pinned, and
    returns E at the collocation points.  Warns, on every call, when the
    mean density departs from the unit neutralizing background.  The
    solve is a memo of ``values`` (see ``SpectralState``): until it is
    rebound, every call returns the same read-only array.
    """
    e, nonneutral = s.memo(_solve_fourier, ("values",))
    if warn_nonneutral and nonneutral:
        warnings.warn(_NONNEUTRAL, NonNeutralPlasmaWarning, stacklevel=2)
    return e


def _solve_fourier(s: SpectralState):
    """The field of ``poisson_fourier`` and whether the plasma is non-neutral."""
    rho = charge_density(s)
    rho_hat = np.fft.rfft(rho)
    nonneutral = abs(rho_hat[0] / s.nx - 1.0) > 1e-6
    kx = s.kappa_x()
    phi_hat = np.zeros_like(rho_hat)
    nonzero = kx != 0.0
    phi_hat[nonzero] = Q * rho_hat[nonzero] / kx[nonzero] ** 2
    # the background only affects the zero mode, which is pinned anyway
    e = np.fft.irfft(-1j * kx * phi_hat, s.nx)
    e.flags.writeable = False
    return e, nonneutral


def kick_v(s: SpectralState, dt: float) -> SpectralState:
    """Exact velocity shear f(x, v) <- f(x, v - (q/m) E(x) dt) per column,
    E the self-consistent field of the current state."""
    shift = Q_OVER_M * poisson_fourier(s) * dt
    return SpectralState(s.domain, _shear(s.values, _kick_phase(s, shift), 1), s.t)


def _filter_profile(n: int) -> np.ndarray:
    # Hou-Li style smooth exponential filter exp(-36 (|k|/k_max)^36) on the
    # n//2 + 1 bins of an rfft of length n, whose integer wavenumber is k = i
    k = np.arange(n // 2 + 1)
    return np.exp(-36.0 * (k / k[-1]) ** 36)


def apply_filter(s: SpectralState) -> SpectralState:
    """Smooth exponential anti-alias filter in both directions."""
    f = _shear(s.values, _filter_profile(s.nx)[:, None], 0)
    return SpectralState(s.domain, _shear(f, _filter_profile(s.nv), 1), s.t)


@functools.lru_cache(maxsize=8)
def _drift_tables(domain: PhaseSpaceDomain, nx: int, nv: int,
                  dt: float) -> tuple:
    """The drift phases of one RUTH3 step, the x filter folded into the last.

    Built by ``_drift_phase``, as ``advect_x`` builds its phase, and cached
    read-only: a run reuses the same three tables on every step and call.
    """
    s = SpectralState(domain, np.empty((nx, nv)))
    tables = [_drift_phase(s, c * dt) for c in RUTH3.drift]
    tables[-1] *= _filter_profile(nx)[:, None]
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def advance(s: SpectralState, dt: float, n_steps: int) -> SpectralState:
    """``n_steps`` composite kick-first RUTH3 split steps, each filtered.

    The field is recomputed before every kick (kicks preserve the charge
    density, so each sub-flow is exact), except that the first kick reads
    the field memo of ``s`` (``poisson_fourier``), so the field of an
    emitted state is solved once.  The three drift phases come from a
    cache keyed on (domain, nx, nv, dt), and the x factor of the filter is
    folded into the last of them.  The v factor of a step's filter is
    folded into the next step's first kick phase, and the one still
    pending is applied by one v-axis transform pair before returning; it
    is 1 at k_v = 0, so the charge density, and hence the field, does not
    see it.  Each kick phase is built by recurrence along v (see
    ``_kick_phase``).  Returns a new state.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    drifts = _drift_tables(s.domain, s.nx, s.nv, dt)
    filter_v = _filter_profile(s.nv)
    f = s.values
    for step in range(n_steps):
        for i, (d, drift) in enumerate(zip(RUTH3.kick, drifts)):
            now = s if f is s.values else SpectralState(s.domain, f)
            shift = Q_OVER_M * poisson_fourier(now) * (d * dt)
            phase = _kick_phase(now, shift)
            if i == 0 and step > 0:
                phase *= filter_v
            f = _shear(_shear(f, phase, 1), drift, 0)
    return SpectralState(s.domain, _shear(f, filter_v, 1), s.t + n_steps * dt)


def step_order3(s: SpectralState, dt: float) -> SpectralState:
    """One composite kick-first RUTH3 split step followed by the filter:
    ``advance(s, dt, 1)``, with its cached drift tables, folded filter and
    kick phases built by recurrence."""
    return advance(s, dt, 1)


def hk_variation(s: SpectralState) -> float:
    """Hardy-Krause variation of f on the collocation grid.

    Sum of the L1 norms of f_x, f_v and the mixed f_xv (counted once);
    x-derivatives spectral, v-derivatives 4th-order central differences,
    absolute values integrated by the periodic trapezoid rule.
    """
    f = s.values
    fx = _shear(f, 1j * s.kappa_x()[:, None], 0)

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

    The x axis is transformed first, at the coarse v length, and the v
    transform writes straight into the output, so the only fine-grid array
    is the result itself.
    """
    if n_pad < 1:
        raise ValueError("n_pad must be >= 1")
    nx, nv = s.values.shape
    out = np.empty((n_pad * nx, n_pad * nv + 1))
    fine = out[:, :-1]
    if n_pad == 1:
        fine[:] = s.values
    else:
        fh = np.fft.rfft(s.values, axis=0)
        if nx % 2 == 0:
            fh[nx // 2] *= 0.5
        f_x = np.fft.irfft(fh, n_pad * nx, axis=0)
        f_x *= n_pad
        fh = np.fft.rfft(f_x, axis=1)
        del f_x
        if nv % 2 == 0:
            fh[:, nv // 2] *= 0.5
        np.fft.irfft(fh, n_pad * nv, axis=1, out=fine)
        fine *= n_pad
    out[:, -1] = out[:, 0]
    return GriddedDensity(s.domain, out)


def field_energy(s: SpectralState) -> float:
    """(1/2) integral of E^2 dx (the node sum equals the mode sum by Parseval)."""
    e = poisson_fourier(s, warn_nonneutral=False)
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


def diagnostics(s: SpectralState, with_hk: bool = False) -> DiagnosticsRecord:
    return DiagnosticsRecord.make(
        t=s.t,
        field_energy=field_energy(s),
        kinetic_energy=kinetic_energy(s),
        total_mass=total_mass(s),
        entropy=grid_entropy(s),
        hk_variation=hk_variation(s) if with_hk else None,
    )


def run_spectral(ic: InitialCondition, domain: PhaseSpaceDomain,
                 nx: int, nv: int, dt: float, t_max: float,
                 out_stride: int = 1,
                 hk_period: int = 0,
                 on_record: Optional[Callable[[DiagnosticsRecord, SpectralState],
                                           None]] = None):
    """Step the spectral solver from the initial condition at t = 0 to t_max.

    ``t_max`` must be a whole number (>= 1) of ``dt`` steps
    (``core.whole_steps``) and ``out_stride`` >= 1, else ValueError before
    the first record.
    Diagnostics are emitted at t = 0 and then every ``out_stride`` steps
    (the Hardy-Krause variation on every ``hk_period``-th record when > 0).
    The field of each emitted state is solved once: the field energy's
    solve is reused by the next step's first kick.  ``on_record(record,
    state)`` is invoked per emission, e.g. for periodic dumps.  Returns
    (records, final_state).
    """
    state = state_from_initial_condition(ic, domain, nx, nv)
    n_steps = whole_steps(t_max, dt)
    if out_stride < 1:
        raise ValueError("out_stride must be >= 1")
    records = []

    def emit():
        with_hk = hk_period > 0 and len(records) % hk_period == 0
        rec = diagnostics(state, with_hk=with_hk)
        records.append(rec)
        if on_record is not None:
            on_record(rec, state)

    emit()
    done = 0
    while done < n_steps:
        stride = min(out_stride, n_steps - done)
        state = advance(state, dt, stride)
        done += stride
        state.t = done * dt
        emit()
    return records, state
