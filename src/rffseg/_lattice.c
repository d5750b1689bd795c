/* The segment lattice's forward pass and backward draw, compiled.
 *
 * Both follow the numpy code in hsmm.py step for step and in its
 * arithmetic order, so that the two agree to round-off: the running
 * segment sums add one position at a time, a cell is (score + log
 * duration) + entry mass, every frame is shifted by its peak before
 * exp, a class's mass sums its lengths in order (pairwise when there is
 * one class, as numpy reduces a contiguous axis), the class total and
 * a draw's normalizer are numpy's pairwise sums, and the transition
 * product is a sum of separate products in source-class order.  Build
 * with -ffp-contract=off, so that no product is fused into a sum.
 */
#include <math.h>
#include <stddef.h>

/* numpy's pairwise sum of n doubles: eight accumulators per block of at
 * most 128, halves above that */
static double pairwise_sum(const double *a, ptrdiff_t n, ptrdiff_t stride)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j * stride];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[(i + j) * stride];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride) + pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* The forward pass over a (C, kmax, T) table read through byte strides.
 * Writes log_alpha (T, n_k, C) and log_norm (T); work holds
 * C * kmax + (T + 1) * C + n_k * C + 2 * C doubles. */
void forward(const char *emis, ptrdiff_t stride_c, ptrdiff_t stride_j, ptrdiff_t stride_t,
             ptrdiff_t n_classes, ptrdiff_t kmax, ptrdiff_t n_frames, ptrdiff_t kmin,
             const double *log_dur, const double *trans,
             double *log_alpha, double *log_norm, double *work)
{
    const ptrdiff_t n_k = kmax - kmin + 1, n_cells = n_k * n_classes;
    double *sums = work;                          /* (C, kmax): segments ending at t */
    double *entry = sums + n_classes * kmax;      /* (T + 1, C): mass entering at s */
    double *mass = entry + (n_frames + 1) * n_classes;  /* (n_k, C) */
    double *ending = mass + n_cells;              /* (C) */
    double *into = ending + n_classes;            /* (C) */

    for (ptrdiff_t i = 0; i < n_classes * kmax; i++)
        sums[i] = -INFINITY;
    for (ptrdiff_t c = 0; c < n_classes; c++)
        entry[c] = -log((double)n_classes);

    for (ptrdiff_t t = 0; t < n_frames; t++) {
        double *cells = log_alpha + t * n_cells;
        for (ptrdiff_t c = 0; c < n_classes; c++) {
            const char *col = emis + c * stride_c + t * stride_t;
            double *s = sums + c * kmax;
            for (ptrdiff_t j = kmax - 1; j > 0; j--)
                s[j] = s[j - 1] + *(const double *)(col + j * stride_j);
            s[0] = *(const double *)col;
        }
        double peak = -INFINITY;
        for (ptrdiff_t i = 0; i < n_k; i++) {
            const ptrdiff_t k = kmin + i, start = t - k + 1;
            for (ptrdiff_t c = 0; c < n_classes; c++) {
                double v = sums[c * kmax + k - 1] + log_dur[i];
                v += start >= 0 ? entry[start * n_classes + c] : -INFINITY;
                cells[i * n_classes + c] = v;
                if (v > peak)
                    peak = v;
            }
        }
        const double shift = isfinite(peak) ? peak : 0.0;
        /* exp rounds to +0 below -745.14 (its smallest subnormal result
         * is exp(-744.44)); skipping the call spares exp's slow path */
        for (ptrdiff_t i = 0; i < n_cells; i++) {
            const double d = cells[i] - shift;
            mass[i] = d < -746.0 ? 0.0 : exp(d);
        }
        if (n_classes == 1) {
            ending[0] = pairwise_sum(mass, n_k, 1);
        } else {
            for (ptrdiff_t c = 0; c < n_classes; c++)
                ending[c] = 0.0;
            for (ptrdiff_t i = 0; i < n_k; i++)
                for (ptrdiff_t c = 0; c < n_classes; c++)
                    ending[c] += mass[i * n_classes + c];
        }
        const double total = pairwise_sum(ending, n_classes, 1);
        const double norm = shift + log(total);
        if (t + 1 < n_frames) {
            const double scale = total > 0 ? total : 1.0;
            for (ptrdiff_t c = 0; c < n_classes; c++) {
                ending[c] /= scale;
                into[c] = 0.0;
            }
            for (ptrdiff_t i = 0; i < n_classes; i++)
                for (ptrdiff_t c = 0; c < n_classes; c++)
                    into[c] += ending[i] * trans[i * n_classes + c];
            for (ptrdiff_t c = 0; c < n_classes; c++)
                entry[(t + 1) * n_classes + c] = norm + log(into[c]);
        }
        log_norm[t] = norm;
        const double sub = isfinite(norm) ? norm : 0.0;
        for (ptrdiff_t i = 0; i < n_cells; i++)
            cells[i] -= sub;
    }
}

/* One backward draw: the flat (length, class) index that a uniform u
 * picks from the n cells of a lattice row, each weighted by column[c]
 * (log transition into the later class) when column is not NULL; -1 if
 * every cell is -inf.  work holds n doubles. */
ptrdiff_t draw(const double *row, ptrdiff_t n, ptrdiff_t n_classes, const double *column,
               double u, double *work)
{
    double w_max = -INFINITY;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double w = column ? row[i] + column[i % n_classes] : row[i];
        work[i] = w;
        if (w > w_max)
            w_max = w;
    }
    if (w_max == -INFINITY)
        return -1;
    for (ptrdiff_t i = 0; i < n; i++)
        work[i] = exp(work[i] - w_max);
    const double total = pairwise_sum(work, n, 1);
    double run = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        run = i ? run + work[i] / total : work[i] / total;
        work[i] = run;
    }
    const double last = work[n - 1];
    for (ptrdiff_t i = 0; i < n; i++)
        if (u < work[i] / last)
            return i;
    return n;
}
