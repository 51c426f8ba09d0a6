"""Spectral-to-PIC handoff and the coupled run driver.

The handoff zero-pads the spectral state onto a fine grid, normalizes the
absolute value into a sampling density, draws the ensemble through the
bilinear inverse transform, and assigns likelihoods: g from the sampling
density, f from the bilinear interpolant of the padded (signed) density,
so markers in negative-f regions carry negative weights and the PIC
segment continues as close as possible to the spectral solution.  The PIC
field is re-estimated from the sampled markers at the switch time; no
field coefficients cross the interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from . import lowdisc, pic, sampling, spectral
from .core import (DiagnosticsRecord, InitialCondition, ParticleEnsemble,
                   PhaseSpaceDomain, whole_steps)
from .lowdisc import SequenceKind


@dataclass(frozen=True)
class HandoffConfig:
    """Parameters of the spectral-to-PIC switch."""

    t0: float
    n_p: int
    n_pad: int
    sequence: SequenceKind
    n_f: int

    def __post_init__(self):
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        if self.n_pad < 1:
            raise ValueError("n_pad must be >= 1")


def handoff(state: spectral.SpectralState, cfg: HandoffConfig) -> ParticleEnsemble:
    """Sample a marker ensemble from a spectral state at the switch time.

    Negative values of the padded density survive into f_like; g_like is
    strictly positive by the absolute-value normalization, so the
    marginal CDFs stay monotone and the inversion well-posed.
    """
    f_fine = spectral.zero_pad(state, cfg.n_pad)
    return sampling.sample_gridded_density(f_fine, cfg.sequence, cfg.n_p)


def run_pic(ensemble: ParticleEnsemble,
            solver: pic.SplinePoissonSolver,
            kind: pic.IntegratorKind,
            dt: float, t_start: float, t_max: float,
            out_stride: int = 1,
            star_disc_period: int = 0,
            star_disc_window=(0.0, 2.0, -1.0, 1.0),
            star_disc_cap: int = 4000,
            on_record=None) -> List[DiagnosticsRecord]:
    """PIC time loop with diagnostics every ``out_stride`` steps.

    ``t_max - t_start`` must be a whole number (>= 1) of ``dt`` steps
    (``core.whole_steps``), else ValueError before the first record.  The
    optional star-discrepancy probe runs on every ``star_disc_period``-th
    emitted record.  Its exact sweep costs one pass over the distinct v of
    the windowed subset (at most ``star_disc_cap`` markers) per distinct x,
    about seven numpy calls each, so it is quadratic in the subset size and
    throttled separately from the cheap moment diagnostics.
    """
    fields = pic.SelfConsistentField(solver)
    records: List[DiagnosticsRecord] = []
    n_steps = whole_steps(t_max - t_start, dt)

    def emit(t: float):
        fld = fields(ensemble)
        star = None
        if star_disc_period > 0 and len(records) % star_disc_period == 0:
            star = lowdisc.star_discrepancy_in_window(
                ensemble, star_disc_window, cap=star_disc_cap).d_star
        rec = DiagnosticsRecord.make(
            t=t,
            field_energy=pic.field_energy(fld),
            kinetic_energy=pic.kinetic_energy(ensemble),
            total_mass=pic.total_mass(ensemble),
            entropy=pic.discrete_entropy(ensemble).value,
            star_disc=star,
        )
        records.append(rec)
        if on_record is not None:
            on_record(rec, ensemble)

    emit(t_start)
    for i in range(1, n_steps + 1):
        pic.push(kind, ensemble, fields, dt)
        if i % out_stride == 0 or i == n_steps:
            emit(t_start + i * dt)
    return records


@dataclass
class CoupledResult:
    """Diagnostics of both segments plus the final PIC ensemble."""

    rows: List[Tuple[str, DiagnosticsRecord]]
    ensemble: ParticleEnsemble


def run_coupled(ic: InitialCondition, domain: PhaseSpaceDomain,
                nx: int, nv: int, dt: float, t_max: float,
                cfg: HandoffConfig,
                kind: pic.IntegratorKind = pic.IntegratorKind.RUTH3,
                out_stride: int = 1,
                hk_period: int = 0,
                on_spectral_record=None,
                on_pic_record=None) -> CoupledResult:
    """Spectral segment on [0, t0], handoff, PIC segment on [t0, t_max].

    Both segments share the time discretization, so ``t0`` and
    ``t_max - t0`` must each be a whole number (>= 1) of ``dt`` steps;
    otherwise ValueError before any record is emitted.  The merged rows
    carry a segment marker so the switch is visible in the output.
    """
    if not cfg.t0 < t_max:
        raise ValueError("handoff time t0 must precede t_max")
    whole_steps(cfg.t0, dt)
    whole_steps(t_max - cfg.t0, dt)
    spec_records, state = spectral.run_spectral(
        ic, domain, nx, nv, dt, cfg.t0,
        out_stride=out_stride, hk_period=hk_period,
        on_record=on_spectral_record)
    ensemble = handoff(state, cfg)
    solver = pic.SplinePoissonSolver.build(domain.x_min, domain.length, cfg.n_f)
    pic_records = run_pic(ensemble, solver, kind, dt, cfg.t0, t_max,
                          out_stride=out_stride,
                          on_record=on_pic_record)
    rows = [("spectral", r) for r in spec_records]
    rows += [("pic", r) for r in pic_records]
    return CoupledResult(rows=rows, ensemble=ensemble)
