/* Random-scan heat-bath Glauber chains, with a twin in _chain_py.py.
 *
 * The twin applies the same updates in the same order, so both walk
 * bit-identical trajectories.  _chain.py compiles this file with
 * -ffp-contract=off: a fused multiply-add in the Ising field sum would round
 * differently from the twin.
 *
 * sample_chunk runs chains first .. first + size - 1 of a batch into the
 * `size` rows of `out` (n bytes each) and draws their randomness itself,
 * from Philox4x64-10 (Salmon et al., SC'11) under the batch's 128-bit key.
 * The generator is counter-based, so any step can be drawn alone:
 *   - the block at counter (b, chain, 0, 0) holds the words (site, uniform)
 *     of step 2b and then of step 2b + 1;
 *   - word k >> 6 of the blocks at (0, chain, 1, 0), (1, chain, 1, 0), ...
 *     holds in bit k & 63 the Ising start spin of free vertex free[k]
 *     (1: +1, 0: -1).
 * A chain's output thus depends on the key and its index in the batch
 * alone, not on the chunk or the thread that runs it.  A word x becomes the
 * site free[(x * n_free) >> 64], without rejection, so that a step stays
 * one block: each free vertex's probability is off 1/n_free by less than
 * 2^-64, and a step's site law is within n_free / 2^64 of uniform in total
 * variation.  It becomes the uniform (x >> 11) * 2^-53, as in numpy.
 * Steps are drawn a segment of SEGMENT at a time into the stack, and the
 * rounds are written out: drawn one block at a time from a loop of rounds,
 * a plain hardcore step on a 300-cycle took 8.5 ns instead of 5.3 (one
 * thread of an AMD EPYC).
 *
 * Each chain first tries the early exit by coupling from the past: a
 * bounding chain over the tail windows of its `steps` updates, the last
 * w0, then 2 w0, 4 w0, ... while the windows' total stays within `limit`
 * (and within `steps`), so only the tail is drawn.  Each window starts with
 * every free vertex (pins[v] == 0) unknown and the pinned ones at their
 * pins.  A bounding state holds -1, +1 or 0 for unknown, and every update
 * is sound: a vertex it calls known takes that value after the update from
 * every state the bounds allow.  When a window ends with no vertex unknown,
 * every start state at step steps - w, the plain chain's included, reaches
 * that state at step `steps`, so it is the plain chain's result bit for
 * bit.  When no window coalesces (or w0 is 0), the plain chain runs all
 * `steps` updates from its start state: the pins, with every free vertex
 * at -1 (hardcore) or at its start spin (Ising).
 *
 * sample_chunk returns the steps it ran, windows included, and stores in
 * *fallbacks the number of chains that ran the plain chain; it returns -1
 * before any step when the adjacency (CSR indptr/indices of nnz entries), a
 * free index or a pin lies out of range.
 *
 * run_hardcore / run_ising apply `steps` pre-drawn updates to `state`.
 * They return 0, or -1 before any step when a site or the adjacency points
 * outside the n vertices.  philox4x64_10 is one block of the generator. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

enum { HARDCORE, ISING };
enum { SEGMENT = 256 };  /* steps drawn at a time; even */

typedef struct {
    int64_t n;
    const int32_t *indptr, *indices;
    const double *p_plus;     /* hardcore */
    const double *csr_j, *h;  /* Ising */
} Model;

typedef struct {
    uint64_t k0, k1;
    const int64_t *free;
    uint64_t n_free;
} Stream;

/* ---- Philox4x64-10 --------------------------------------------------- */

#define PHILOX_ROUND                                                        \
    do {                                                                    \
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * x0; \
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * x2; \
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;                                \
        x1 = (uint64_t)p1;                                                  \
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;                                \
        x3 = (uint64_t)p0;                                                  \
        k0 += 0x9E3779B97F4A7C15u;                                          \
        k1 += 0xBB67AE8584CAA73Bu;                                          \
    } while (0)

INLINE void philox(uint64_t x0, uint64_t x1, uint64_t x2, uint64_t x3,
                   uint64_t k0, uint64_t k1, uint64_t out[4])
{
    PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND;
    PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND;
    out[0] = x0; out[1] = x1; out[2] = x2; out[3] = x3;
}

void philox4x64_10(const uint64_t *counter, const uint64_t *key, uint64_t *out)
{
    philox(counter[0], counter[1], counter[2], counter[3], key[0], key[1], out);
}

/* Sites and uniforms of the 2 nb steps from step 2 b0 of `chain`. */
static void draw_steps(const Stream *s, uint64_t chain, uint64_t b0, int64_t nb,
                       int64_t *sites, double *us)
{
    for (int64_t b = 0; b < nb; b++) {
        uint64_t x[4];
        philox(b0 + (uint64_t)b, chain, 0, 0, s->k0, s->k1, x);
        sites[2 * b] = s->free[(uint64_t)(((unsigned __int128)x[0] * s->n_free) >> 64)];
        us[2 * b] = (double)(x[1] >> 11) * 0x1p-53;
        sites[2 * b + 1] = s->free[(uint64_t)(((unsigned __int128)x[2] * s->n_free) >> 64)];
        us[2 * b + 1] = (double)(x[3] >> 11) * 0x1p-53;
    }
}

/* Free vertices of `row` at the Ising start spins of `chain`. */
static void start_spins(const Stream *s, uint64_t chain, int8_t *row)
{
    uint64_t x[4] = {0, 0, 0, 0};
    for (uint64_t k = 0; k < s->n_free; k++) {
        if ((k & 255) == 0) philox(k >> 8, chain, 1, 0, s->k0, s->k1, x);
        row[s->free[k]] = (x[(k >> 6) & 3] >> (k & 63)) & 1 ? 1 : -1;
    }
}

/* ---- One update of each model ---------------------------------------- */

/* Heat-bath probability of +1 at local field c, saturated where exp(-2c)
 * would overflow or vanish. */
static double plus_probability(double c)
{
    double a = -2.0 * c;
    if (a > 709.0) return 0.0;
    if (a < -709.0) return 1.0;
    return 1.0 / (1.0 + exp(a));
}

INLINE int8_t hardcore_step(const Model *m, const int8_t *state, int64_t v, double u)
{
    int free_nbhd = u < m->p_plus[v];
    for (int32_t k = m->indptr[v]; k < m->indptr[v + 1]; k++)
        free_nbhd &= state[m->indices[k]] != 1;
    return (int8_t)(2 * free_nbhd - 1);
}

INLINE int8_t ising_step(const Model *m, const int8_t *state, int64_t v, double u)
{
    double c = m->h[v];
    for (int32_t k = m->indptr[v]; k < m->indptr[v + 1]; k++)
        c += m->csr_j[k] * state[m->indices[k]];
    return u < plus_probability(c) ? 1 : -1;
}

/* +1 unless a neighbour is, or may be, occupied. */
INLINE int8_t hardcore_bound(const Model *m, const int8_t *bound, int64_t v, double u)
{
    int maybe_free = u < m->p_plus[v], sure = 1;
    for (int32_t k = m->indptr[v]; k < m->indptr[v + 1]; k++) {
        int8_t b = bound[m->indices[k]];
        maybe_free &= b != 1;
        sure &= b != 0;
    }
    return (int8_t)(maybe_free ? sure : -1);
}

INLINE int8_t ising_bound(const Model *m, const int8_t *bound, int64_t v, double u)
{
    /* lo <= c <= hi for every spin state the bounds allow: each term J*s
     * lies in [-|J|, |J|], J*s is exact for s = +-1, and rounded sums in a
     * fixed order are monotone in their terms.  With every neighbour known,
     * lo and hi are the plain chain's c bit for bit. */
    double lo = m->h[v], hi = m->h[v];
    for (int32_t k = m->indptr[v]; k < m->indptr[v + 1]; k++) {
        int8_t b = bound[m->indices[k]];
        if (b != 0) {
            lo += m->csr_j[k] * b;
            hi += m->csr_j[k] * b;
        } else {
            lo -= fabs(m->csr_j[k]);
            hi += fabs(m->csr_j[k]);
        }
    }
    if (lo == hi) return u < plus_probability(lo) ? 1 : -1;
    /* The computed probability is monotone in c up to the error of exp, a
     * few ulps; a relative margin of 2^-40 on either side leaves any u in
     * doubt unknown. */
    double p_lo = plus_probability(lo);
    if (u < p_lo - p_lo * 0x1p-40) return 1;
    double p_hi = plus_probability(hi);
    if (u >= p_hi + p_hi * 0x1p-40) return -1;
    return 0;
}

INLINE int8_t update(int kind, int bounding, const Model *m, const int8_t *state,
                     int64_t v, double u)
{
    if (kind == HARDCORE)
        return bounding ? hardcore_bound(m, state, v, u) : hardcore_step(m, state, v, u);
    return bounding ? ising_bound(m, state, v, u) : ising_step(m, state, v, u);
}

/* ---- Chains ----------------------------------------------------------- */

static int graph_out_of_range(int64_t n, const int32_t *indptr, const int32_t *indices,
                              int64_t nnz)
{
    if (indptr[0] < 0 || indptr[n] > nnz) return 1;
    for (int64_t v = 0; v < n; v++)
        if (indptr[v] > indptr[v + 1]) return 1;
    for (int64_t k = indptr[0]; k < indptr[n]; k++)
        if (indices[k] < 0 || indices[k] >= n) return 1;
    return 0;
}

static int sites_out_of_range(int64_t n, const int64_t *sites, int64_t steps)
{
    for (int64_t t = 0; t < steps; t++)
        if (sites[t] < 0 || sites[t] >= n) return 1;
    return 0;
}

/* Applies steps t0 .. t1 - 1 of `chain` to `state` (the bounding update
 * when `bounding`); returns the change in the number of unknown vertices. */
INLINE int64_t walk(int kind, int bounding, const Model *m, const Stream *s, uint64_t chain,
                    int64_t t0, int64_t t1, int8_t *state)
{
    int64_t sites[SEGMENT];
    double us[SEGMENT];
    int64_t unknown = 0;
    for (int64_t t = t0; t < t1;) {
        int64_t a = t & ~(int64_t)1, nb = (t1 - a + 1) / 2;  /* blocks start at even steps */
        if (nb > SEGMENT / 2) nb = SEGMENT / 2;
        draw_steps(s, chain, (uint64_t)a >> 1, nb, sites, us);
        int64_t end = a + 2 * nb < t1 ? a + 2 * nb : t1;
        for (int64_t i = t - a; i < end - a; i++) {
            int64_t v = sites[i];
            int8_t x = update(kind, bounding, m, state, v, us[i]);
            if (bounding) unknown += (x == 0) - (state[v] == 0);
            state[v] = x;
        }
        t = end;
    }
    return unknown;
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

/* One chain into `row`; returns the steps it ran, and counts it in
 * *fallbacks when it ran the plain chain. */
INLINE int64_t chain_into(int kind, const Model *m, const Stream *s, const int8_t *pins,
                          uint64_t chain, int64_t steps, int64_t w0, int64_t longest,
                          int8_t *row, int64_t *fallbacks)
{
    int64_t spent = 0;
    for (int64_t w = w0; w > 0 && w <= longest; w *= 2) {
        int64_t unknown = reset_bounds(m->n, pins, row);
        unknown += walk(kind, 1, m, s, chain, steps - w, steps, row);
        spent += w;
        if (unknown == 0) return spent;
    }
    memcpy(row, pins, (size_t)m->n);
    if (kind == ISING)
        start_spins(s, chain, row);
    else
        for (uint64_t k = 0; k < s->n_free; k++) row[s->free[k]] = -1;
    walk(kind, 0, m, s, chain, 0, steps, row);
    *fallbacks += 1;
    return spent + steps;
}

INLINE int64_t run_chunk(int kind, const Model *m, const Stream *s, const int8_t *pins,
                         int64_t first, int64_t size, int64_t steps, int64_t w0,
                         int64_t limit, int8_t *out, int64_t *fallbacks)
{
    int64_t longest = longest_window(steps, w0, limit), spent = 0;
    for (int64_t i = 0; i < size; i++)
        spent += chain_into(kind, m, s, pins, (uint64_t)(first + i), steps, w0, longest,
                            out + i * m->n, fallbacks);
    return spent;
}

int64_t sample_chunk(int64_t n, const int32_t *indptr, const int32_t *indices, int64_t nnz,
                     const double *p_plus, const double *csr_j, const double *h,
                     const int8_t *pins, const int64_t *free, int64_t n_free,
                     const uint64_t *key, int64_t first, int64_t size, int64_t steps,
                     int64_t w0, int64_t limit, int8_t *out, int64_t *fallbacks)
{
    if (n < 0 || n_free < 0 || first < 0 || size < 0 || steps < 0 || w0 < 0) return -1;
    if ((steps > 0 && n_free == 0) || (p_plus == NULL && (csr_j == NULL || h == NULL)))
        return -1;
    if (graph_out_of_range(n, indptr, indices, nnz)) return -1;
    for (int64_t v = 0; v < n; v++)
        if (pins[v] < -1 || pins[v] > 1) return -1;
    if (sites_out_of_range(n, free, n_free)) return -1;
    Model m = {n, indptr, indices, p_plus, csr_j, h};
    Stream s = {key[0], key[1], free, (uint64_t)n_free};
    *fallbacks = 0;
    if (p_plus != NULL)
        return run_chunk(HARDCORE, &m, &s, pins, first, size, steps, w0, limit, out, fallbacks);
    return run_chunk(ISING, &m, &s, pins, first, size, steps, w0, limit, out, fallbacks);
}

int run_hardcore(int64_t n, const int32_t *indptr, const int32_t *indices, int64_t nnz,
                 const double *p_plus, int8_t *state, const int64_t *sites,
                 const double *us, int64_t steps)
{
    if (graph_out_of_range(n, indptr, indices, nnz) || sites_out_of_range(n, sites, steps))
        return -1;
    Model m = {n, indptr, indices, p_plus, NULL, NULL};
    for (int64_t t = 0; t < steps; t++)
        state[sites[t]] = hardcore_step(&m, state, sites[t], us[t]);
    return 0;
}

int run_ising(int64_t n, const int32_t *indptr, const int32_t *indices, int64_t nnz,
              const double *csr_j, const double *h, int8_t *state, const int64_t *sites,
              const double *us, int64_t steps)
{
    if (graph_out_of_range(n, indptr, indices, nnz) || sites_out_of_range(n, sites, steps))
        return -1;
    Model m = {n, indptr, indices, NULL, csr_j, h};
    for (int64_t t = 0; t < steps; t++)
        state[sites[t]] = ising_step(&m, state, sites[t], us[t]);
    return 0;
}
