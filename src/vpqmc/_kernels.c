/* Compiled loops of vpqmc, loaded through ctypes by _kernels.py.

   Each loop keeps the evaluation order of the numpy form it replaced:
   IEEE double arithmetic, no fused multiply-add (the build passes
   -ffp-contract=off) and no reassociation.  Only a maximum of values
   that are never NaN is taken in another order, as it is exact.  So the
   results carry the bits of the numpy form, except vp_kick's: numpy's
   complex multiply fuses multiply-adds on some of its dispatch paths, so
   it agrees with that one only to rounding.  Every array is C-contiguous;
   the caller allocates the outputs. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Cell index in 0..n-1 and local coordinate of each x on the periodic
   grid x_min + i*h: with t = (x - x_min) / h, the floor of t taken
   modulo n (the sign of n, as Python's %) and t minus that floor.  A
   floor outside the int64 range, NaN or +-inf counts as INT64_MIN, the
   value numpy's float-to-int64 cast gives on x86-64 (in C the cast would
   be undefined), so the local coordinate is then t + 2^63.  In range,
   the floor is the truncation, less one below a negative fraction (a
   double with a fraction is below 2^52 in magnitude). */
void vp_periodic_cell(int64_t m, const double *x, double x_min, double h,
                      int64_t n, int64_t *cell, double *u)
{
    for (int64_t k = 0; k < m; k++) {
        double t = (x[k] - x_min) / h;
        int64_t i = INT64_MIN;
        if (t >= -0x1p63 && t < 0x1p63) {
            i = (int64_t)t;
            if ((double)i > t)
                i--;
        }
        u[k] = t - (double)i;
        if (i < 0 || i >= n) {
            i %= n;
            if (i < 0)
                i += n;
        }
        cell[k] = i;
    }
}

/* x_min + (x - x_min) mod length with numpy's float remainder: fmod,
   shifted by length when its sign differs from length's, and a zero
   remainder signed as length; NaN and +-inf give NaN.  Skipped where
   x - x_min already lies in [0, length), where it is the identity. */
void vp_wrap(int64_t m, const double *x, double x_min, double length,
             double *out)
{
    for (int64_t k = 0; k < m; k++) {
        double r = x[k] - x_min;
        if (!(r >= 0.0 && r < length)) {
            double mod = fmod(r, length);
            if (mod != 0.0) {
                if ((length < 0.0) != (mod < 0.0))
                    mod += length;
            } else {
                mod = copysign(0.0, length);
            }
            r = mod;
        }
        out[k] = x_min + r;
    }
}

/* The four power moments sum_k w_k u_k^p (p = 0..3) of each of n cells,
   into the rows of the zeroed (4, n) array moments, accumulated in marker
   order as np.bincount does; w u^p is ((w*u)*u)*u. */
void vp_deposit_moments(int64_t m, const int64_t *cell, const double *u,
                        const double *w, int64_t n, double *moments)
{
    for (int64_t k = 0; k < m; k++) {
        double *col = moments + cell[k];
        double wu = w[k];
        col[0] += wu;
        wu *= u[k];
        col[n] += wu;
        wu *= u[k];
        col[2 * n] += wu;
        wu *= u[k];
        col[3 * n] += wu;
    }
}

/* Horner in u of the (rows, n) table poly at each marker's cell: row p
   holds each cell's coefficient of u^p, the highest row goes first. */
void vp_horner(int64_t m, const int64_t *cell, const double *u, int64_t rows,
               int64_t n, const double *poly, double *out)
{
    for (int64_t k = 0; k < m; k++) {
        const double *col = poly + cell[k];
        double acc = col[(rows - 1) * n];
        for (int64_t p = rows - 2; p >= 0; p--)
            acc = acc * u[k] + col[p * n];
        out[k] = acc;
    }
}

/* The larger of a and b, neither of them NaN. */
static double max2(double a, double b)
{
    return a > b ? a : b;
}

/* The first index of the sorted s[0..k) whose value exceeds y. */
static int64_t upper_bound(const double *s, int64_t k, double y)
{
    int64_t lo = 0, hi = k;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (s[mid] <= y)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The largest of best and sign*(u*s[r] - c[r]) over the ranks r in
   [lo, hi), in four running maxima that do not wait on each other:
   sign = +1 takes the open corners (u, s[r]) with c[r] = r/n, and
   sign = -1 the closed ones whose count is c[r] (under round-to-nearest
   -(p - c) is c - p exactly, and D* > 0, so a zero's sign never shows). */
static double corner_max(double sign, double u, const double *s,
                         const double *c, int64_t lo, int64_t hi, double best)
{
    double m0 = best, m1 = best, m2 = best, m3 = best;
    int64_t r = lo;
    for (; r + 4 <= hi; r += 4) {
        m0 = max2(m0, sign * (u * s[r] - c[r]));
        m1 = max2(m1, sign * (u * s[r + 1] - c[r + 1]));
        m2 = max2(m2, sign * (u * s[r + 2] - c[r + 2]));
        m3 = max2(m3, sign * (u * s[r + 3] - c[r + 3]));
    }
    for (; r < hi; r++)
        m0 = max2(m0, sign * (u * s[r] - c[r]));
    return max2(max2(m0, m1), max2(m2, m3));
}

/* The values a point with y at x = u takes as it goes into the sorted y
   values s[0..k) of the points passed, at rank t: its own closed corner
   (u, y), (t+1)/n - u*y, and for each rank r >= t, which moves up to
   r + 1, the open corner (u, s[r]) before the move, u*s[r] - r/n, and
   the closed one after, (r+2)/n - u*s[r]; counts[r] = r/n.  One pass
   over the ranks r >= t takes both into top, the largest of best and
   every value taken so far, and then one memmove shifts the ranks up
   for y.

   The pass goes in groups of four ranks [r, r+4) and skips a group that
   cannot raise top.  s is sorted and u >= 0, so fl(u*s[j]) never falls
   as j grows, and fl(a - b) never falls in a nor rises in b: u*s[r+3] -
   counts[r] is at least each open value of the group, and counts[r+5] -
   u*s[r] at least each closed one.  When both are <= top, no value of
   the group is above top, so skipping it leaves the maximum, bits and
   all.  No value is NaN, as unit_square_pairs rejects NaN.  A group
   that is not skipped takes its eight values in a tree of maxima, whose
   order does not matter, as a maximum is exact. */
static double sweep_point(double u, double y, double *s, int64_t k,
                          const double *counts, double best)
{
    int64_t t = upper_bound(s, k, y);
    double top = max2(best, counts[t + 1] - u * y);
    int64_t r = t;
    for (; r + 4 <= k; r += 4) {
        if (u * s[r + 3] - counts[r] <= top && counts[r + 5] - u * s[r] <= top)
            continue;
        double p0 = u * s[r], p1 = u * s[r + 1];
        double p2 = u * s[r + 2], p3 = u * s[r + 3];
        double open = max2(max2(p0 - counts[r], p1 - counts[r + 1]),
                           max2(p2 - counts[r + 2], p3 - counts[r + 3]));
        double closed = max2(max2(counts[r + 2] - p0, counts[r + 3] - p1),
                             max2(counts[r + 4] - p2, counts[r + 5] - p3));
        top = max2(top, max2(open, closed));
    }
    for (; r < k; r++) {
        double p = u * s[r];
        top = max2(top, max2(p - counts[r], counts[r + 2] - p));
    }
    memmove(s + t + 1, s + t, (size_t)(k - t) * sizeof(double));
    s[t] = y;
    return top;
}

/* The same for the m > 1 points with y values g at one x = u: the open
   corners of every rank that will move, from the lowest landing rank t
   on, then all m points go in, then the closed corners (u, s[r]),
   (r+1)/n - u*s[r], of the ranks from t on. */
static double sweep_group(double u, const double *g, int64_t m, double *s,
                          int64_t k, const double *counts, double best)
{
    double lo = g[0];
    for (int64_t j = 1; j < m; j++)
        if (g[j] < lo)
            lo = g[j];
    int64_t t = upper_bound(s, k, lo);
    best = corner_max(1.0, u, s, counts, t, k, best);
    for (int64_t j = 0; j < m; j++, k++) {
        int64_t at = upper_bound(s, k, g[j]);
        memmove(s + at + 1, s + at, (size_t)(k - at) * sizeof(double));
        s[at] = g[j];
    }
    return corner_max(-1.0, u, s, counts + 1, t, k, best);
}

/* One step of the sweep: the points ys[0..m) at x = u go in. */
static double sweep_step(double u, const double *ys, int64_t m, double *s,
                         int64_t k, const double *counts, double best)
{
    if (m == 1)
        return sweep_point(u, ys[0], s, k, counts, best);
    return sweep_group(u, ys, m, s, k, counts, best);
}

/* Exact star discrepancy of n >= 1 points in [0, 1]^2 by the
   passed-points sweep (lowdisc.star_discrepancy): xs ascending, ys in
   the same order, counts[r] = r/n for r = 0..n, and s room for n values.
   The distinct x go in ascending order, the points of one x together;
   each u also takes its open corner (u, 1), u - (count of x < u)/n, and
   at u = 1 every passed rank takes its open corner (1, s[r]) before the
   points at x = 1 go in. */
double vp_star_discrepancy(int64_t n, const double *xs, const double *ys,
                           const double *counts, double *s)
{
    double best = -INFINITY;
    int64_t k = 0;
    while (k < n && xs[k] < 1.0) {
        double u = xs[k];
        int64_t end = k + 1;
        while (end < n && xs[end] == u)
            end++;
        best = max2(best, u - counts[k]);
        best = sweep_step(u, ys + k, end - k, s, k, counts, best);
        k = end;
    }
    best = corner_max(1.0, 1.0, s, counts, 0, k, best); /* 1.0 * s[r] is s[r] */
    best = max2(best, 1.0 - counts[k]);
    if (k < n)
        best = sweep_step(1.0, ys + k, n - k, s, k, counts, best);
    return best;
}

/* The Sobol points with indices skip .. skip+n-1 (skip + n <= 2^32) of
   the two-dimensional construction whose 32-bit direction integers are
   v1[0..32) and v2[0..32), into the rows of the (n, 2) array out, each
   scaled by 2^-32.  The first point is the XOR of the direction integers
   over the set bits of gray(skip) = skip ^ (skip >> 1); as gray(i) and
   gray(i-1) differ only in the lowest set bit of i, each next one is
   x(i) = x(i-1) ^ v[ctz(i)] (Antonov and Saleev).  XOR is exact, so the
   bits do not depend on the route. */
void vp_sobol_pairs(int64_t skip, int64_t n, const uint64_t *v1,
                    const uint64_t *v2, double *out)
{
    uint64_t gray = (uint64_t)skip ^ ((uint64_t)skip >> 1);
    uint64_t a = 0, b = 0;
    for (int bit = 0; gray; bit++, gray >>= 1) {
        if (gray & 1) {
            a ^= v1[bit];
            b ^= v2[bit];
        }
    }
    for (int64_t k = 0; k < n; k++) {
        if (k > 0) {
            uint64_t i = (uint64_t)(skip + k);
            int bit = 0;
            while (!(i >> bit & 1)) /* i > 0: one step on average */
                bit++;
            a ^= v1[bit];
            b ^= v2[bit];
        }
        out[2 * k] = (double)a * 0x1p-32;
        out[2 * k + 1] = (double)b * 0x1p-32;
    }
}

/* The velocity shear of the spectral solver on the (nx, nk) complex
   v-spectrum fh, in place: fh[i, j] *= z[i]**j.  The powers are built as
   np.cumprod builds them along j from 1, w_j = w_(j-1) * z, and each
   complex product is (ar*br - ai*bi) + (ar*bi + ai*br) i.  The rows go in
   blocks of KICK_ROWS; in a block the columns go outside and the rows
   inside, so the rows' running powers, held in the block, do not wait on
   each other, and the block's rows stay in cache from one column to the
   next.  Column 0 takes z**0 = 1 and is left as it is.  Complex values
   are (re, im) pairs of doubles. */
#define KICK_ROWS 16

void vp_kick(int64_t nx, int64_t nk, double *fh, const double *z)
{
    for (int64_t i0 = 0; i0 < nx; i0 += KICK_ROWS) {
        int64_t m = nx - i0 < KICK_ROWS ? nx - i0 : KICK_ROWS;
        double wr[KICK_ROWS], wi[KICK_ROWS];
        for (int64_t b = 0; b < m; b++) {
            wr[b] = 1.0;
            wi[b] = 0.0;
        }
        for (int64_t j = 1; j < nk; j++) {
            for (int64_t b = 0; b < m; b++) {
                const double *zb = z + 2 * (i0 + b);
                double pr = wr[b] * zb[0] - wi[b] * zb[1];
                double pi = wr[b] * zb[1] + wi[b] * zb[0];
                wr[b] = pr;
                wi[b] = pi;
                double *c = fh + 2 * ((i0 + b) * nk + j);
                double fr = c[0], fi = c[1];
                c[0] = fr * pr - fi * pi;
                c[1] = fr * pi + fi * pr;
            }
        }
    }
}
