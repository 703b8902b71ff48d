/* Random-scan heat-bath Glauber chains: line-for-line ports of _chain_py.py.
 *
 * Each step reads one pre-drawn site and one pre-drawn uniform, so these
 * kernels and the Python twin walk bit-identical trajectories from the same
 * arrays.  _chain.py compiles this file with -ffp-contract=off: a fused
 * multiply-add in the Ising field sum would round differently from the twin.
 * Both return 0, or -1 before any step when a site or the adjacency (CSR
 * indptr/indices of nnz entries) points outside the n vertices. */
#include <math.h>
#include <stdint.h>

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
        double a = -2.0 * c, p;
        if (a > 709.0) p = 0.0;
        else if (a < -709.0) p = 1.0;
        else p = 1.0 / (1.0 + exp(a));
        state[v] = us[t] < p ? 1 : -1;
    }
    return 0;
}
