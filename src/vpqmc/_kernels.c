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

/* Exact star discrepancy of n >= 1 points in [0, 1]^2 by the
   passed-points sweep (lowdisc.star_discrepancy): xs ascending, ys in
   the same order, counts[r] = r/n for r = 0..n, and s room for n values.
   Every point goes in on its own through sweep_point, first taking its
   open corner (u, 1), u - (count of points passed)/n; then every rank
   takes its open corner (1, s[r]).

   Points that share an x, those at x = 1 too, go in one after another,
   in any order, and the maximum is still exact.  A tied point counts
   the tied points before it in its open corners, which count only
   x < u, and misses those after it in its closed corners, which count
   x <= u: each error lowers a value, as fl(a - b) never falls in a nor
   rises in b, so no value is taken above its true one.  And each true
   value is taken: a rank's open value at the first tied insertion that
   lands at or below it (no tied point is below it yet), or at the last
   pass if none does; its closed value at the last such insertion (all
   of them are below it); and (u, 1) at the first point of each x.  The
   open corner (1, 1) is the open corner (1, s[r]) of the first rank of
   y = 1 if a point has y = 1; else (u, 1) at the first point at x = 1
   if there is one; else its value is 0, which is not the maximum, as
   the first point takes a positive value: u - 0 or, at u = 0, 1/n - 0. */
double vp_star_discrepancy(int64_t n, const double *xs, const double *ys,
                           const double *counts, double *s)
{
    double best = -INFINITY;
    for (int64_t k = 0; k < n; k++)
        best = sweep_point(xs[k], ys[k], s, k, counts, max2(best, xs[k] - counts[k]));
    for (int64_t r = 0; r < n; r++) /* 1.0 * s[r] is s[r] */
        best = max2(best, s[r] - counts[r]);
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
