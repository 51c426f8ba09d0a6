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

from . import _kernels
from .core import ParticleEnsemble


class EmptyPointSet(ValueError):
    """Raised for an empty point set: no pairs, or no marker in a window."""


def unit_square_pairs(pairs) -> np.ndarray:
    """``pairs`` as a float (n, 2) array, n >= 1, with every entry in
    [0, 1]; else ValueError, and EmptyPointSet for n = 0."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be a nonempty (n, 2) array")
    if pairs.shape[0] == 0:
        raise EmptyPointSet("pairs must be a nonempty (n, 2) array")
    # written so that NaN fails
    if not (pairs.min() >= 0.0 and pairs.max() <= 1.0):
        raise ValueError("pairs must lie in [0, 1]^2")
    return pairs


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


def _direction_integers_x_plus_1(n: int) -> tuple:
    """The first n direction-number integers m_k of the primitive
    polynomial x + 1 (degree 1, Joe-Kuo initialization m_1 = 1,
    recurrence m_k = m_{k-1} XOR 2*m_{k-1})."""
    m = [1]
    while len(m) < n:
        m.append(m[-1] ^ (m[-1] << 1))
    return tuple(m)


# dimension 1 uses m_k = 1 (van der Corput), dimension 2 the polynomial x + 1
_SOBOL_M2 = _direction_integers_x_plus_1(_SOBOL_BITS)

_SOBOL_V1 = np.array([1 << (_SOBOL_BITS - k) for k in range(1, _SOBOL_BITS + 1)],
                     dtype=np.uint64)
_SOBOL_V2 = np.array([m << (_SOBOL_BITS - k) for k, m in enumerate(_SOBOL_M2, start=1)],
                     dtype=np.uint64)


def _sobol_pairs(skip: int, n: int) -> np.ndarray:
    """Sobol points with indices skip .. skip+n-1 as an (n, 2) array.

    One compiled loop (``_kernels.c``) takes the first point by the
    Gray-code formula, x_skip = XOR of the direction integers over the
    set bits of gray(skip), and each next one by the recurrence
    x_{i+1} = x_i XOR V[lowest set bit of i+1], for both dimensions at
    once; then scales by 2^-32.  No work array beyond the output."""
    out = np.empty((n, 2))
    _kernels.sobol_pairs(skip, n, _SOBOL_V1.ctypes.data, _SOBOL_V2.ctypes.data,
                         out.ctypes.data)
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
    """Exact star discrepancy D* of a finite point set in [0, 1]^2.

    The maximum of the two one-sided criteria over the critical corners
    (u, w), coordinates drawn from the point coordinates plus 1, counting
    the closed box [0,u]x[0,w] against the open box [0,u)x[0,w):

        D* = max over corners of max(closed/n - u*w, u*w - open/n).

    The sweep visits the distinct x in ascending order and keeps the y of
    the k points already passed in one sorted buffer S, so that each rank
    t is a count.  At x = u the closed corner (u, S[t]) is (t+1)/n -
    u*S[t]; before the points at u go in, the open corner (u, S[t]) is
    u*S[t] - t/n and the open corner (u, 1) is u - k/n.  Every other
    corner computes to no more than one of these, as fl(u*w) is monotone
    in w and fl(c - a) in a: between two passed y the closed count is
    constant (its best corner is the lower y), and so is the open count
    (its best corner is the upper y).  Among tied y the first rank carries
    the true open count and the last the true closed count.  A rank's
    closed value only falls as u grows and its open value only rises, so
    each is taken only when a point lands at or below the rank: the open
    value before, the closed value after, at that u; every open value is
    taken once more at u = 1.  Every value taken is ``u*w``, ``count/n``
    and one subtraction, as in a direct evaluation, so the result has its
    bits.

    The sweep is one compiled loop (``_kernels.c``) over S.  A binary
    search finds a point's rank t; one read-only pass over the ranks from
    t on takes each one's open value before the point goes in and its
    closed value after (its rank one higher), in four running maxima of
    each kind, since a maximum of values that are never NaN is exact in
    any order; then one memmove shifts those ranks up and y goes in at
    t.  The points of a tied x go in together, between one pass of open
    values and one of closed values.  Quadratic at worst, about n^2/4
    rank pairs for points in random order; O(n) memory.  ``points`` must
    pass ``unit_square_pairs``.
    """
    pts = unit_square_pairs(points)
    n = pts.shape[0]
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    counts = np.arange(n + 1) / n
    passed = np.empty(n)
    return _kernels.star_discrepancy(n, xs.ctypes.data, ys.ctypes.data,
                                     counts.ctypes.data, passed.ctypes.data)


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
    ValueError
        If ``cap`` is below 1 or the window has no positive, finite extent
        (which a non-finite bound breaks).
    EmptyPointSet
        If no marker falls inside the window.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    x_lo, x_hi, v_lo, v_hi = (float(s) for s in window)
    if not (0 < x_hi - x_lo < np.inf and 0 < v_hi - v_lo < np.inf):
        raise ValueError("window must have positive, finite extent")
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
