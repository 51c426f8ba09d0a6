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

from typing import List

from . import lowdisc, pic, sampling, spectral
from .core import (DiagnosticsRecord, InitialCondition, ParticleEnsemble,
                   PhaseSpaceDomain, whole_steps)
from .lowdisc import SequenceKind


def handoff(state: spectral.SpectralState, n_pad: int, sequence: SequenceKind,
            n_p: int) -> ParticleEnsemble:
    """Sample n_p markers from a spectral state zero-padded n_pad times.

    Negative values of the padded density survive into f_like; g_like is
    strictly positive by the absolute-value normalization, so the
    marginal CDFs stay monotone and the inversion well-posed.
    """
    f_fine = spectral.zero_pad(state, n_pad)
    return sampling.sample_gridded_density(f_fine, sequence, n_p)


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


def run_coupled(ic: InitialCondition, domain: PhaseSpaceDomain,
                nx: int, nv: int, dt: float, t_max: float, *,
                t0: float, n_p: int, n_pad: int, n_f: int,
                sequence: SequenceKind,
                kind: pic.IntegratorKind = pic.IntegratorKind.RUTH3,
                out_stride: int = 1,
                hk_period: int = 0,
                on_record=None):
    """Spectral segment on [0, t0], handoff, PIC segment on [t0, t_max].

    Both segments share the time discretization, so ``t0`` and
    ``t_max - t0`` must each be a whole number (>= 1) of ``dt`` steps,
    and n_p, n_pad and n_f must be valid; otherwise ValueError before any
    record is emitted.  ``on_record(record, carrier)`` is invoked per
    emission of both segments, with the spectral state, then the marker
    ensemble.  Returns (rows, final ensemble); the rows are the
    ``(segment, record)`` pairs, ``"spectral"`` then ``"pic"``.
    """
    whole_steps(t_max - t0, dt)  # run_spectral checks t0 itself
    if n_p < 1 or n_pad < 1:
        raise ValueError("n_p and n_pad must be >= 1")
    solver = pic.SplinePoissonSolver.build(domain.x_min, domain.length, n_f)
    spec_records, state = spectral.run_spectral(
        ic, domain, nx, nv, dt, t0,
        out_stride=out_stride, hk_period=hk_period, on_record=on_record)
    ensemble = handoff(state, n_pad, sequence, n_p)
    pic_records = run_pic(ensemble, solver, kind, dt, t0, t_max,
                          out_stride=out_stride, on_record=on_record)
    rows = [("spectral", r) for r in spec_records]
    rows += [("pic", r) for r in pic_records]
    return rows, ensemble
