"""Uniform point generation on [0,1)^2 and exact star-discrepancy measurement.

The Sobol generator is the classic two-dimensional construction
(dimension 1: van der Corput in base 2; dimension 2: the degree-1
primitive polynomial x + 1) in Gray-code order, so the first points after
skipping the all-zero element are (0.5, 0.5), (0.75, 0.25), (0.25, 0.75).
The pseudo-random generator is numpy's PCG64, whose double stream is
bit-reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ParticleEnsemble


class EmptyPointSet(ValueError):
    """Raised when a discrepancy is requested for zero points."""


@dataclass(frozen=True)
class PseudoRandom:
    """PCG64 pseudo-random pairs with a fixed 64-bit seed."""

    seed: int


@dataclass(frozen=True)
class Sobol:
    """2-D Sobol points, discarding the first ``skip`` elements (skip >= 1
    so the all-zero point never appears)."""

    skip: int = 1

    def __post_init__(self):
        if self.skip < 1:
            raise ValueError("Sobol skip must be >= 1")


SequenceKind = Union[PseudoRandom, Sobol]

_SOBOL_BITS = 32
#: The points of the construction: n points after ``skip`` need skip + n <= SOBOL_POINTS.
SOBOL_POINTS = 2 ** _SOBOL_BITS

# Direction-number integers m_k for dimension 2, primitive polynomial
# x + 1 (degree 1, Joe-Kuo initialization m_1 = 1, recurrence
# m_k = m_{k-1} XOR 2*m_{k-1}).  Dimension 1 uses m_k = 1 (van der Corput).
_SOBOL_M2 = (
    1, 3, 5, 15, 17, 51, 85, 255, 257, 771, 1285, 3855, 4369, 13107,
    21845, 65535, 65537, 196611, 327685, 983055, 1114129, 3342387,
    5570645, 16711935, 16843009, 50529027, 84215045, 252645135,
    286331153, 858993459, 1431655765, 4294967295,
)

_SOBOL_V1 = np.array([1 << (_SOBOL_BITS - k) for k in range(1, _SOBOL_BITS + 1)],
                     dtype=np.uint64)
_SOBOL_V2 = np.array([m << (_SOBOL_BITS - k) for k, m in enumerate(_SOBOL_M2, start=1)],
                     dtype=np.uint64)


def _sobol_pairs(skip: int, n: int) -> np.ndarray:
    """Sobol points with indices skip .. skip+n-1 via the Gray-code formula
    x_i = XOR of direction integers over the set bits of gray(i).

    The rounds shift ``gray`` down one bit at a time and reuse two work
    buffers, and the scaled integers go straight into the (n, 2) output:
    at most five uint64 arrays of length n are live at once."""
    gray = np.arange(skip, skip + n, dtype=np.uint64)
    gray ^= gray >> np.uint64(1)
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    mask = np.empty(n, dtype=np.uint64)
    term = np.empty(n, dtype=np.uint64)
    for bit in range(_SOBOL_BITS):
        np.bitwise_and(gray, np.uint64(1), out=mask)
        gray >>= np.uint64(1)
        a ^= np.multiply(mask, _SOBOL_V1[bit], out=term)
        b ^= np.multiply(mask, _SOBOL_V2[bit], out=term)
    del gray, mask, term
    scale = 2.0 ** -_SOBOL_BITS
    out = np.empty((n, 2))
    np.multiply(a, scale, out=out[:, 0])
    np.multiply(b, scale, out=out[:, 1])
    return out


def generate_pairs(kind: SequenceKind, n: int) -> np.ndarray:
    """Generate n pairs in [0,1)^2, deterministic given ``kind``.

    Returns an (n, 2) float array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(kind, Sobol):
        if kind.skip + n > SOBOL_POINTS:
            raise ValueError("Sobol index range exceeds the 32-bit construction")
        return _sobol_pairs(kind.skip, n)
    if isinstance(kind, PseudoRandom):
        rng = np.random.Generator(np.random.PCG64(kind.seed))
        return rng.random((n, 2))
    raise TypeError(f"unknown sequence kind: {kind!r}")


def star_discrepancy(points: np.ndarray) -> float:
    """Exact star discrepancy D* of a finite 2-D point set.

    Evaluates the two one-sided criteria at every critical corner (u, w)
    with coordinates drawn from the point coordinates plus 1, counting the
    closed box [0,u]x[0,w] against the open box [0,u)x[0,w):

        D* = max over corners of max(closed/n - u*w, u*w - open/n).

    Exact but quadratic: one pass over the m distinct w per distinct u,
    O(n*m) corner evaluations in all (practical up to n of a few thousand).
    The sweep visits u in ascending order and keeps one running count per
    w rank, ``cnt[j+1]`` = number of points already passed with y <= w_j,
    beside its fractions ``frac = cnt/n``.  For each u it takes the open
    criterion from ``frac[:-1]`` (the points with x < u), adds the points
    with x == u by one suffix increment of ``cnt`` per point (a bincount
    and cumsum for a group of tied x), and takes the closed criterion from
    ``frac[1:]``: about seven numpy calls over at most m + 1 elements per
    u, into preallocated buffers.  The counts are whole numbers held
    exactly in float64, so every corner value is ``u*w_j``, ``count/n``
    and one subtraction, as in a direct evaluation; only the order of the
    max reductions is free, and the result does not depend on it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    n = pts.shape[0]
    if n == 0:
        raise EmptyPointSet("star discrepancy of an empty point set")

    xs = pts[:, 0]
    ys = pts[:, 1]
    ucands = np.unique(np.append(xs, 1.0))
    wcands = np.unique(np.append(ys, 1.0))
    m = wcands.size

    order = np.argsort(xs, kind="stable")
    # The points with x == ucands[i] are order[ends[i-1]:ends[i]]; their
    # slots in cnt are their w rank plus one (read singly from the list).
    ends = np.searchsorted(xs[order], ucands, side="right").tolist()
    slot = np.searchsorted(wcands, ys[order]) + 1
    slots = slot.tolist()

    cnt = np.zeros(m + 1)
    frac = np.zeros(m + 1)
    open_frac = frac[:-1]
    closed_frac = frac[1:]
    area = np.empty(m)
    # Row 0 holds u*w_j - open/n and row 1 closed/n - u*w_j, so that one
    # reduction takes the max of both criteria.
    crit = np.empty((2, m))
    over, under = crit
    best = 0.0
    lo = 0
    for u, hi in zip(ucands.tolist(), ends):
        np.multiply(u, wcands, out=area)
        np.subtract(area, open_frac, out=over)
        if hi > lo:
            if hi - lo == 1:
                r = slots[lo]
                cnt[r:] += 1.0
            else:
                group = slot[lo:hi]
                r = int(group.min())
                cnt[r:] += np.cumsum(np.bincount(group - r,
                                                 minlength=m + 1 - r))
            np.divide(cnt[r:], n, out=frac[r:])
        np.subtract(closed_frac, area, out=under)
        best = max(best, np.maximum.reduce(crit, axis=None))
        lo = hi
    return float(best)


@dataclass(frozen=True)
class WindowDiscrepancy:
    """Star discrepancy of the markers inside an axis-aligned window."""

    d_star: float
    n_in_window: int
    n_used: int


def star_discrepancy_in_window(ensemble: ParticleEnsemble,
                               window,
                               cap: int = 4000) -> WindowDiscrepancy:
    """D* of the markers inside ``window``, rescaled to the unit square.

    Parameters
    ----------
    window : (x_lo, x_hi, v_lo, v_hi)
        Axis-aligned phase-space box (inclusive on all edges).
    cap : int
        Exact-D* subset cap.  When more markers fall in the window, every
        ceil(n/cap)-th marker by index is kept so the computation stays at
        desk scale; the reported n_used records the subsampling.

    Raises
    ------
    EmptyPointSet
        If no marker falls inside the window.
    """
    x_lo, x_hi, v_lo, v_hi = (float(s) for s in window)
    if not (x_hi > x_lo and v_hi > v_lo):
        raise ValueError("window must have positive extent")
    inside = ((ensemble.x >= x_lo) & (ensemble.x <= x_hi)
              & (ensemble.v >= v_lo) & (ensemble.v <= v_hi))
    n_in = int(np.count_nonzero(inside))
    if n_in == 0:
        raise EmptyPointSet("no marker inside the requested window")
    u = (ensemble.x[inside] - x_lo) / (x_hi - x_lo)
    w = (ensemble.v[inside] - v_lo) / (v_hi - v_lo)
    if n_in > cap:
        stride = -(-n_in // cap)  # ceil
        u = u[::stride]
        w = w[::stride]
    d = star_discrepancy(np.column_stack([u, w]))
    return WindowDiscrepancy(d_star=d, n_in_window=n_in, n_used=u.size)
