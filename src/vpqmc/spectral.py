"""Pseudo-spectral Vlasov-Poisson solver with Hamiltonian split-stepping.

The state holds real collocation values of f on a grid periodic in both
directions (velocity is treated as periodic on [v_min, v_max]; the
Gaussian tails make the wrap-around error negligible for a wide enough
box).  Each split sub-step is an exact shear implemented as a phase
multiplication in the transformed direction, so mass and the L2 norm are
conserved to rounding.  Every transform is real-input (rfft/irfft), so the
state is real by construction.  A smooth exponential filter applied once
per full step keeps aliasing at bay.  ``_steps`` is the one split-step
loop: ``run_spectral`` drives it and ``advance`` takes it a given number
of steps.  ``advect_x``, ``kick_v`` and ``apply_filter`` apply its
sub-flows one at a time, through the same phase, kick and profile
builders.  ``PaddedGrid`` exports the state to an n_pad-times finer grid
one block of rows at a time, and ``zero_pad`` is all its rows at once.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
# RUTH3 is also re-exported from here
from .core import (DiagnosticsRecord, GriddedDensity, InitialCondition,
                   NodeGrid, PhaseSpaceDomain, Q, Q_OVER_M, RUTH3,
                   eval_initial_f, whole_steps)


class NonNeutralPlasmaWarning(UserWarning):
    """Mean charge density deviates from the neutralizing background."""


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Real collocation values of f at time t, an immutable value.

    Nodes: x_i = x_min + i*L/nx (i = 0..nx-1), v_j = v_min + j*S/nv
    (j = 0..nv-1) with S = v_max - v_min; both directions periodic for
    transform purposes.  ``values`` is stored as a read-only view (the
    caller's own base array stays writable), and the field that
    ``poisson_fourier`` returns is solved once per state, so the record's
    solve serves the next step's first kick.
    """

    domain: PhaseSpaceDomain
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        if values.ndim != 2:
            raise ValueError("values must be 2-D (nx, nv)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def _field(self) -> np.ndarray:
        return _solve_fourier(self)

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


def state_from_initial_condition(ic: InitialCondition, domain: PhaseSpaceDomain,
                                 nx: int, nv: int) -> SpectralState:
    grid = SpectralState(domain, np.empty((nx, nv)))  # for its nodes
    xx, vv = np.meshgrid(grid.x_nodes(), grid.v_nodes(), indexing="ij")
    return SpectralState(domain, eval_initial_f(ic, xx, vv))


def _shear(f: np.ndarray, factor: np.ndarray, axis: int) -> np.ndarray:
    """Multiply the real spectrum of f along ``axis`` by ``factor``."""
    fh = np.fft.rfft(f, axis=axis)
    fh *= factor
    return np.fft.irfft(fh, f.shape[axis], axis=axis)


def _drift_phase(s: SpectralState, tau: float) -> np.ndarray:
    """exp(-i k_x v tau) on the (rfft bin along x, v node) grid."""
    return np.exp(-1j * np.outer(s.kappa_x(), s.v_nodes()) * tau)


def _kick(fh: np.ndarray, s: SpectralState, tau: float) -> None:
    """The velocity shear f(x, v) <- f(x, v - (q/m) E(x) tau) on ``fh``, the
    v-spectrum (rfft along v) of ``s``, in place; E is the field of ``s``.

    The phase exp(-i shift(x) k_v) has k_v = j k_v[1] in bin j, so row i
    takes the powers z_i**j of z_i = exp(-i shift_i k_v[1]): one complex
    exp per x node, and ``_kernels.c``'s ``vp_kick`` multiplies the powers
    in by a running product along v.
    """
    if not (fh.dtype == complex and fh.shape == (s.nx, s.nv // 2 + 1)
            and fh.flags.c_contiguous and fh.flags.writeable):
        raise ValueError("fh must be the writable C-contiguous v-spectrum of s")
    shift = Q_OVER_M * poisson_fourier(s) * tau
    # k_v[1] = 2 pi / (nv dv), with the bits of np.fft.rfftfreq's entry 1
    z = np.exp(-1j * (2.0 * np.pi * (1.0 / (s.nv * s.dv))) * shift)
    _kernels.kick(s.nx, fh.shape[1], fh.ctypes.data, z.ctypes.data)


def advect_x(s: SpectralState, dt: float) -> SpectralState:
    """Exact free-streaming shear f(x, v) <- f(x - v*dt, v)."""
    return SpectralState(s.domain, _shear(s.values, _drift_phase(s, dt), 0), s.t)


def charge_density(s: SpectralState) -> np.ndarray:
    """rho(x_i) = integral of f dv (periodic trapezoid = node sum)."""
    return s.dv * np.sum(s.values, axis=1)


def poisson_fourier(s: SpectralState) -> np.ndarray:
    """Electric field on the x nodes from the Fourier Poisson solve.

    Solves the weak-form sign convention -Phi'' = q*(rho - 1), i.e. Gauss's
    law dE/dx = q*(rho - 1) with E = -Phi' and the zero mode pinned, and
    returns E at the collocation points.  The field is solved once per
    state: every call on the same state returns the same read-only array.
    The solve warns, once per state, when the mean density departs from
    the unit neutralizing background.
    """
    return s._field


def _solve_fourier(s: SpectralState) -> np.ndarray:
    """The field of ``poisson_fourier``; warns if the plasma is non-neutral."""
    rho_hat = np.fft.rfft(charge_density(s))
    if abs(rho_hat[0] / s.nx - 1.0) > 1e-6:
        # above: _field, cached_property.__get__, poisson_fourier, its caller
        warnings.warn("mean density deviates from the unit background",
                      NonNeutralPlasmaWarning, stacklevel=5)
    rho_hat *= _field_multiplier(s.domain, s.nx)
    e = np.fft.irfft(rho_hat, s.nx)
    e.flags.writeable = False
    return e


@functools.lru_cache(maxsize=8)
def _field_multiplier(domain: PhaseSpaceDomain, nx: int) -> np.ndarray:
    """-i q / k_x on the rfft bins along x, 0 at k_x = 0, cached read-only.

    With Phi_hat = q rho_hat / k_x**2 and E_hat = -i k_x Phi_hat, it takes
    the charge density's spectrum to the field's; the background only
    affects the zero mode, which is pinned.
    """
    kx = SpectralState(domain, np.empty((nx, 1))).kappa_x()
    m = np.zeros(kx.shape, dtype=complex)
    m[1:] = -1j * Q / kx[1:]
    m.flags.writeable = False
    return m


def kick_v(s: SpectralState, dt: float) -> SpectralState:
    """Exact velocity shear f(x, v) <- f(x, v - (q/m) E(x) dt) per column,
    E the self-consistent field of the current state."""
    fh = np.fft.rfft(s.values, axis=1)
    _kick(fh, s, dt)
    return SpectralState(s.domain, np.fft.irfft(fh, s.nv, axis=1), s.t)


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


def _steps(s: SpectralState, dt: float):
    """Composite kick-first RUTH3 split steps from ``s``, each filtered,
    without end: yields the state after the n-th step, at t = s.t + n*dt.

    The field is recomputed before every kick (kicks preserve the charge
    density, so each sub-flow is exact) from the field of the state it
    kicks (``poisson_fourier``), so a yielded state whose field the
    caller solves before asking for the next step is solved once.  The
    three drift phases come from a cache keyed on (domain, nx, nv, dt),
    and the x factor of the filter is folded into the last of them.  Each
    step ends on its filtered v-spectrum gh = filter_v * rfft_v(f); the
    yielded values are irfft_v(gh), and the next step's first kick starts
    from gh, so a step takes 13 transforms of the whole grid.  The filter
    is 1 at k_v = 0, so the charge density, and hence the field, does not
    see it.
    """
    drifts = _drift_tables(s.domain, s.nx, s.nv, dt)
    filter_v = _filter_profile(s.nv)
    t0 = s.t
    fh = np.fft.rfft(s.values, axis=1)
    for n in itertools.count(1):
        for d, drift in zip(RUTH3.kick, drifts):
            _kick(fh, s, d * dt)
            # the state the next kick reads; after the last drift, only its
            # values are read, by the filter's transform
            s = SpectralState(s.domain, _shear(np.fft.irfft(fh, s.nv, axis=1), drift, 0))
            fh = np.fft.rfft(s.values, axis=1)
        fh *= filter_v
        s = SpectralState(s.domain, np.fft.irfft(fh, s.nv, axis=1), t0 + n * dt)
        yield s


def advance(s: SpectralState, dt: float, n_steps: int) -> SpectralState:
    """``n_steps`` composite kick-first RUTH3 split steps, each filtered:
    the state ``_steps(s, dt)`` yields after ``n_steps``.  The first kick
    reads the field of ``s``.  Returns a new state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return next(itertools.islice(_steps(s, dt), n_steps - 1, None))


def step_order3(s: SpectralState, dt: float) -> SpectralState:
    """One composite kick-first RUTH3 split step followed by the filter:
    ``advance(s, dt, 1)``."""
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


class PaddedGrid(NodeGrid):
    """The trigonometric interpolant of f on an n_pad-times finer grid, made
    one block of rows at a time.

    Each axis is zero-padded as its real spectrum is inverse-transformed
    at n_pad times the length; an even length's Nyquist bin is halved,
    since the finer grid holds both its +n/2 and -n/2 modes.  The grid
    follows the package convention, so the v direction gains one wrap
    node: nx = n_pad*nx_s and nv = n_pad*nv_s + 1 for a state of shape
    (nx_s, nv_s).  Construction does the x axis, at the coarse v length,
    and the v rfft of the result, and keeps only that half-spectrum,
    (n_pad*nx_s, nv_s//2 + 1) complex: ~0.28 MB for a 32 x 32 state
    padded 32 times, whose whole fine grid takes 8 MiB.  ``rows`` takes
    the v transform of the rows asked for alone; for n_pad == 1 the rows
    are the state's own values.
    """

    def __init__(self, s: SpectralState, n_pad: int):
        if n_pad < 1:
            raise ValueError("n_pad must be >= 1")
        nx, nv = s.values.shape
        self.domain = s.domain
        self.n_pad = n_pad
        self.nx = n_pad * nx
        self.nv = n_pad * nv + 1
        if n_pad == 1:
            self._source = s.values
            return
        fh = np.fft.rfft(s.values, axis=0)
        if nx % 2 == 0:
            fh[nx // 2] *= 0.5
        f_x = np.fft.irfft(fh, n_pad * nx, axis=0)
        f_x *= n_pad
        fh = np.fft.rfft(f_x, axis=1)
        if nv % 2 == 0:
            fh[:, nv // 2] *= 0.5
        fh.flags.writeable = False
        self._source = fh

    def rows(self, first: int, end: int) -> np.ndarray:
        """A fresh, writable copy of fine rows first..end-1, taken mod nx:
        one v transform into the block, then the wrap column.  A row has
        the bits of the same row of the whole grid."""
        held = np.arange(first, end) % self.nx
        out = np.empty((held.size, self.nv))
        fine = out[:, :-1]
        if self.n_pad == 1:
            fine[:] = self._source[held]
        else:
            np.fft.irfft(self._source[held], self.nv - 1, axis=1, out=fine)
            fine *= self.n_pad
        out[:, -1] = out[:, 0]
        return out


def zero_pad(s: SpectralState, n_pad: int) -> GriddedDensity:
    """Evaluate the trigonometric interpolant of f on an n_pad-times finer
    grid: all rows of ``PaddedGrid(s, n_pad)`` as one grid, of shape
    (n_pad*nx, n_pad*nv + 1).  Values at the original nodes are
    unchanged, and for n_pad == 1 they are the state's own values.  The
    handoff samples the ``PaddedGrid`` itself, so it never holds this
    whole grid (8 MiB for a 32 x 32 state padded 32 times).
    """
    grid = PaddedGrid(s, n_pad)
    return GriddedDensity(s.domain, grid.rows(0, grid.nx))


def field_energy(s: SpectralState) -> float:
    """(1/2) integral of E^2 dx (the node sum equals the mode sum by Parseval)."""
    e = poisson_fourier(s)
    return float(0.5 * s.dx * np.sum(e * e))


@functools.lru_cache(maxsize=8)
def _v_squared(domain: PhaseSpaceDomain, nv: int) -> np.ndarray:
    """v_j**2 on the v nodes, cached read-only."""
    v = SpectralState(domain, np.empty((1, nv))).v_nodes()
    v2 = v * v
    v2.flags.writeable = False
    return v2


def _moments(s: SpectralState) -> tuple:
    """(total mass, kinetic energy) from one sum over x: the node sums of
    f and of v**2 f are those of the column sums.  No BLAS product: its
    first call touches ~0.1-0.4 MB of buffers that no run needs."""
    col = s.values.sum(axis=0)
    cell = s.dx * s.dv
    return float(cell * col.sum()), float(0.5 * cell * (col * _v_squared(s.domain, s.nv)).sum())


def kinetic_energy(s: SpectralState) -> float:
    return _moments(s)[1]


def total_mass(s: SpectralState) -> float:
    return _moments(s)[0]


def grid_entropy(s: SpectralState) -> float:
    """Integral of f ln f over the nodes where f > 0."""
    f = s.values[s.values > 0.0]
    return float(s.dx * s.dv * np.sum(f * np.log(f)))


def diagnostics(s: SpectralState, with_hk: bool = False) -> DiagnosticsRecord:
    mass, kinetic = _moments(s)
    return DiagnosticsRecord(
        t=s.t,
        field_energy=field_energy(s),
        kinetic_energy=kinetic,
        total_mass=mass,
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
    steps = itertools.islice(_steps(state, dt), n_steps)
    for done, state in enumerate(steps, 1):
        if done % out_stride == 0 or done == n_steps:
            emit()
    return records, state
