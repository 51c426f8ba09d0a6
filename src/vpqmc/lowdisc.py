"""Uniform point generation on [0,1)^2 and exact star-discrepancy measurement.

The Sobol generator is the classic two-dimensional construction
(dimension 1: van der Corput in base 2; dimension 2: the degree-1
primitive polynomial x + 1) in Gray-code order, so the first points after
skipping the all-zero element are (0.5, 0.5), (0.75, 0.25), (0.25, 0.75).
The pseudo-random generator is numpy's PCG64, whose double stream is
bit-reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

from bisect import bisect_right
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

    One point at rank t moves the ranks t..k-1 only.  The buffer
    interleaves -S[t] with S[t+1] (S[k] = 0), so one shift inserts the
    point and one multiply by u, one subtraction of the interleaved
    (-(t+1)/n, t/n) and one max take both values of the k - t ranks: four
    numpy calls per point.  The points of a tied x go in by one merge,
    between their open and closed values.  Quadratic at worst, about
    n^2/4 rank pairs for points in random order; O(n) memory.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    n = pts.shape[0]
    if n == 0:
        raise EmptyPointSet("star discrepancy of an empty point set")
    if not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValueError("points must lie in [0, 1]^2")

    xs, ys = pts[:, 0], pts[:, 1]
    order = np.argsort(xs, kind="stable")
    ys = ys[order]
    ucands = np.unique(np.append(xs, 1.0))
    # ends[i] points have x <= ucands[i], sizes[i] of them x == ucands[i]
    # (mostly 1, a cached int, so the list costs no int objects).
    ends = np.searchsorted(xs[order], ucands, side="right")
    sizes = np.diff(ends, prepend=0).tolist()
    # The open corners (u, 1), u minus the count of points with x < u.
    best = float(np.max(ucands - np.concatenate(([0], ends[:-1])) / n))

    # pairs[2t] = -S[t] and pairs[2t+1] = S[t+1] for t < k, with S[k] = 0
    # (its open value -k/n cannot win); table[2t] = -(t+1)/n and
    # table[2t+1] = t/n.  After a point lands at rank t, u*pairs - table
    # from 2t on holds the closed value of each rank and the open value
    # of the rank above it, which moved up from there.
    pairs = np.zeros(2 * n + 2)
    table = np.empty(2 * n)
    np.divide(np.arange(n), n, out=table[1::2])
    np.divide(np.arange(-1, -n - 1, -1), n, out=table[0::2])
    counts = table[1::2]  # t/n
    crit = np.empty(2 * n)
    passed = []  # S[:k] as a list, for bisect
    y_list = ys.tolist()
    last = ucands.size - 1
    k = 0
    for i, (u, size) in enumerate(zip(ucands.tolist(), sizes)):
        if i == last and k:
            # the open corners (1, S[t]) of every passed rank
            here = crit[:k]
            np.negative(pairs[:2 * k:2], out=here)
            here -= counts[:k]
            best = max(best, np.maximum.reduce(here))
        if size == 1:
            y = y_list[k]
            if passed is None:
                passed = np.negative(pairs[:2 * k:2]).tolist()
            t = bisect_right(passed, y)
            passed.insert(t, y)
            pairs[2 * t + 2:2 * k + 4] = pairs[2 * t:2 * k + 2]
            pairs[2 * t] = -y
            pairs[2 * t + 1] = passed[t + 1] if t < k else 0.0
            if t:
                pairs[2 * t - 1] = y
            k += 1
            here = crit[:2 * (k - t)]
            np.multiply(u, pairs[2 * t:2 * k], out=here)
            np.subtract(here, table[2 * t:2 * k], out=here)
            best = max(best, np.maximum.reduce(here))
        elif size:
            group = ys[k:k + size]
            s = np.negative(pairs[:2 * k:2])
            t = int(np.searchsorted(s, group.min(), side="right"))
            if t < k:
                # the open corners at u of the ranks that will move
                here = crit[:k - t]
                np.multiply(-u, pairs[2 * t:2 * k:2], out=here)
                np.subtract(here, counts[t:k], out=here)
                best = max(best, np.maximum.reduce(here))
            s = np.concatenate((s, group))
            s.sort(kind="stable")  # a merge of two sorted runs
            k = s.size
            np.negative(s, out=pairs[:2 * k:2])
            pairs[1:2 * k - 1:2] = s[1:]
            pairs[2 * k - 1] = 0.0
            passed = None  # rebuilt when a single point next needs it
            # the closed corners at u of the ranks that moved
            here = crit[:k - t]
            np.multiply(u, pairs[2 * t:2 * k:2], out=here)
            np.subtract(here, table[2 * t:2 * k:2], out=here)
            best = max(best, np.maximum.reduce(here))
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
