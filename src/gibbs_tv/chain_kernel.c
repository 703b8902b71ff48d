/* Random-scan heat-bath Glauber chains: line-for-line ports of _chain_py.py.
 *
 * Each step reads one pre-drawn site and one pre-drawn uniform, so these
 * kernels and the Python twin walk bit-identical trajectories from the same
 * arrays.  _chain.py compiles this file with -ffp-contract=off: a fused
 * multiply-add in the Ising field sum would round differently from the twin.
 *
 * run_hardcore / run_ising apply all `steps` updates to `state`.  They
 * return 0, or -1 before any step when a site or the adjacency (CSR
 * indptr/indices of nnz entries) points outside the n vertices.
 *
 * coalesce_hardcore / coalesce_ising are the early exit by coupling from the
 * past.  They run a bounding chain over the tail windows of the same arrays:
 * the last w0, then 2*w0, 4*w0, ... updates, while the windows' total stays
 * within `limit` steps (and within `steps`).  Each window starts with every
 * free vertex (pins[v] == 0) unknown and the pinned ones at their pins.  A
 * bounding state holds -1, +1 or 0 for unknown, and every update is sound:
 * a vertex it calls known takes that value after the update from every
 * state the bounds allow.  When a window ends with no vertex unknown,
 * every start state at step steps - w, the plain chain's included, reaches
 * that state at step `steps`; it is copied into `state`, which is then the
 * plain chain's result bit for bit.  Return value: the steps spent (>= 0)
 * when a window coalesced; -2 - spent when none did and `state` is
 * untouched; -1 before any step when the adjacency, or a site in the
 * longest window the schedule may read, is out of range.  `bound` is n
 * bytes of scratch. */
#include <math.h>
#include <stdint.h>
#include <string.h>

static int out_of_range(int64_t n, const int32_t *indptr, const int32_t *indices,
                        int64_t nnz, const int64_t *sites, int64_t steps)
{
    if (indptr[0] < 0 || indptr[n] > nnz) return 1;
    for (int64_t v = 0; v < n; v++)
        if (indptr[v] > indptr[v + 1]) return 1;
    for (int64_t k = indptr[0]; k < indptr[n]; k++)
        if (indices[k] < 0 || indices[k] >= n) return 1;
    for (int64_t t = 0; t < steps; t++)
        if (sites[t] < 0 || sites[t] >= n) return 1;
    return 0;
}

/* Heat-bath probability of +1 at local field c, saturated where exp(-2c)
 * would overflow or vanish. */
static double plus_probability(double c)
{
    double a = -2.0 * c;
    if (a > 709.0) return 0.0;
    if (a < -709.0) return 1.0;
    return 1.0 / (1.0 + exp(a));
}

int run_hardcore(int64_t n, const int32_t *indptr, const int32_t *indices, int64_t nnz,
                 const double *p_plus, int8_t *state, const int64_t *sites,
                 const double *us, int64_t steps)
{
    if (out_of_range(n, indptr, indices, nnz, sites, steps)) return -1;
    for (int64_t t = 0; t < steps; t++) {
        int64_t v = sites[t];
        int occupied = 0;
        for (int32_t k = indptr[v]; k < indptr[v + 1]; k++)
            if (state[indices[k]] == 1) { occupied = 1; break; }
        state[v] = (!occupied && us[t] < p_plus[v]) ? 1 : -1;
    }
    return 0;
}

int run_ising(int64_t n, const int32_t *indptr, const int32_t *indices, int64_t nnz,
              const double *csr_j, const double *h, int8_t *state, const int64_t *sites,
              const double *us, int64_t steps)
{
    if (out_of_range(n, indptr, indices, nnz, sites, steps)) return -1;
    for (int64_t t = 0; t < steps; t++) {
        int64_t v = sites[t];
        double c = h[v];
        for (int32_t k = indptr[v]; k < indptr[v + 1]; k++)
            c += csr_j[k] * state[indices[k]];
        state[v] = us[t] < plus_probability(c) ? 1 : -1;
    }
    return 0;
}

/* Longest window of the schedule w0, 2*w0, ... whose running total stays
 * within limit; 0 when not even w0 fits. */
static int64_t longest_window(int64_t steps, int64_t w0, int64_t limit)
{
    int64_t longest = 0;
    if (limit > steps) limit = steps;
    for (int64_t w = w0, used = 0; w > 0 && w <= limit - used; used += w, w *= 2)
        longest = w;
    return longest;
}

/* Starts a window: pins into the bounding state; returns the free count. */
static int64_t reset_bounds(int64_t n, const int8_t *pins, int8_t *bound)
{
    int64_t unknown = 0;
    for (int64_t v = 0; v < n; v++) {
        bound[v] = pins[v];
        unknown += pins[v] == 0;
    }
    return unknown;
}

int64_t coalesce_hardcore(int64_t n, const int32_t *indptr, const int32_t *indices,
                          int64_t nnz, const double *p_plus, const int8_t *pins,
                          int8_t *state, const int64_t *sites, const double *us,
                          int64_t steps, int64_t w0, int64_t limit, int8_t *bound)
{
    int64_t longest = longest_window(steps, w0, limit), spent = 0;
    if (out_of_range(n, indptr, indices, nnz, sites + (steps - longest), longest)) return -1;
    for (int64_t w = w0; w > 0 && w <= longest; w *= 2) {
        int64_t unknown = reset_bounds(n, pins, bound);
        for (int64_t t = steps - w; t < steps; t++) {
            int64_t v = sites[t];
            int8_t x = -1;
            if (us[t] < p_plus[v]) {
                x = 1;  /* +1 unless a neighbour is, or may be, occupied */
                for (int32_t k = indptr[v]; k < indptr[v + 1]; k++) {
                    int8_t b = bound[indices[k]];
                    if (b == 1) { x = -1; break; }
                    if (b == 0) x = 0;
                }
            }
            unknown += (x == 0) - (bound[v] == 0);
            bound[v] = x;
        }
        spent += w;
        if (unknown == 0) {
            memcpy(state, bound, (size_t)n);
            return spent;
        }
    }
    return -2 - spent;
}

int64_t coalesce_ising(int64_t n, const int32_t *indptr, const int32_t *indices,
                       int64_t nnz, const double *csr_j, const double *h, const int8_t *pins,
                       int8_t *state, const int64_t *sites, const double *us,
                       int64_t steps, int64_t w0, int64_t limit, int8_t *bound)
{
    int64_t longest = longest_window(steps, w0, limit), spent = 0;
    if (out_of_range(n, indptr, indices, nnz, sites + (steps - longest), longest)) return -1;
    for (int64_t w = w0; w > 0 && w <= longest; w *= 2) {
        int64_t unknown = reset_bounds(n, pins, bound);
        for (int64_t t = steps - w; t < steps; t++) {
            int64_t v = sites[t];
            /* lo <= c <= hi for every spin state the bounds allow: each term
             * J*s lies in [-|J|, |J|], J*s is exact for s = +-1, and rounded
             * sums in a fixed order are monotone in their terms.  With every
             * neighbour known, lo and hi are the plain chain's c bit for bit. */
            double lo = h[v], hi = h[v];
            for (int32_t k = indptr[v]; k < indptr[v + 1]; k++) {
                int8_t b = bound[indices[k]];
                if (b != 0) {
                    lo += csr_j[k] * b;
                    hi += csr_j[k] * b;
                } else {
                    lo -= fabs(csr_j[k]);
                    hi += fabs(csr_j[k]);
                }
            }
            int8_t x;
            if (lo == hi) {
                x = us[t] < plus_probability(lo) ? 1 : -1;
            } else {
                /* The computed probability is monotone in c up to the error
                 * of exp, a few ulps; a relative margin of 2^-40 on either
                 * side leaves any u in doubt unknown. */
                double p_lo = plus_probability(lo), p_hi = plus_probability(hi);
                if (us[t] < p_lo - p_lo * 0x1p-40) x = 1;
                else if (us[t] >= p_hi + p_hi * 0x1p-40) x = -1;
                else x = 0;
            }
            unknown += (x == 0) - (bound[v] == 0);
            bound[v] = x;
        }
        spent += w;
        if (unknown == 0) {
            memcpy(state, bound, (size_t)n);
            return spent;
        }
    }
    return -2 - spent;
}
