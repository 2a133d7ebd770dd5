/* Native kernels of the HedgeCut reproduction.
 *
 * 1. Packed-ensemble traversal. Every (row, tree) pair is walked from the
 *    tree's root slot to a leaf over the flat arrays of
 *    repro.core.packed.PackedArrays:
 *
 *      feature[slot]  feature id tested at the slot, or HC_LEAF_MARKER;
 *      payload[slot]  route-table offset of an internal slot, leaf row of
 *                     a leaf slot;
 *      right[slot]    right child; the left child sits at right - 1;
 *      route[payload + code]  1 when the code goes left.
 *
 *    A code at or beyond the route-table width lies outside every
 *    feature's domain and goes right at every split, like an extreme
 *    value in the node graph; a negative code is out of range.
 *
 *    Every index is checked against its array length before it is read,
 *    and a walk may take at most n_slots + 1 steps. A consistent pack
 *    never trips either check; a torn read of shared memory mid-splice
 *    (or any corrupt input) returns HC_RANGE or HC_TORN instead of
 *    reading outside a buffer or looping forever.
 *
 *    Probabilities are computed as (double)n_plus / (double)n, 0.5 for an
 *    empty leaf, summed in tree order and divided by n_trees. The module
 *    is compiled with -ffp-contract=off and never -ffast-math, so the
 *    results are bit-identical to the numpy formulation of the same sums.
 *
 * 2. Salted 64-bit FNV-1a routing hash of the sharded deployment (see
 *    repro.sharding.partitioner).
 */

#include <stdint.h>

#define HC_OK 0
#define HC_TORN 1
#define HC_RANGE 2
#define HC_LEAF_MARKER (-1)

typedef struct {
    const int64_t *feature;
    const int64_t *payload;
    const int64_t *right;
    int64_t n_slots;
    const uint8_t *route;
    int64_t route_len;
    int64_t width;
    const int64_t *roots;
    int64_t n_trees;
    const int64_t *leaf_n;
    const int64_t *leaf_n_plus;
    int64_t n_leaves;
} hc_pack;

/* Walk one tree for one row; stores the leaf row in *leaf. */
static int hc_walk(const hc_pack *p, const int64_t *row, int64_t n_features,
                   int64_t tree, int64_t *leaf)
{
    int64_t slot = p->roots[tree];
    int64_t step;
    for (step = 0; step <= p->n_slots; ++step) {
        int64_t fid, offset, code;
        int goes_left = 0;
        if (slot < 0 || slot >= p->n_slots)
            return HC_RANGE;
        fid = p->feature[slot];
        offset = p->payload[slot];
        if (fid == HC_LEAF_MARKER) {
            if (offset < 0 || offset >= p->n_leaves)
                return HC_RANGE;
            *leaf = offset;
            return HC_OK;
        }
        if (fid < 0 || fid >= n_features)
            return HC_RANGE;
        code = row[fid];
        if (code < 0 || offset < 0 || offset >= p->route_len)
            return HC_RANGE;
        if (code < p->width) {
            if (code >= p->route_len - offset)
                return HC_RANGE;
            goes_left = p->route[offset + code] != 0;
        }
        /* Unsigned arithmetic: a wild right pointer wraps instead of
         * overflowing, and the next step's range check rejects it. */
        slot = (int64_t)((uint64_t)p->right[slot] - (uint64_t)goes_left);
    }
    return HC_TORN;
}

/* Whether the leaf's hard vote is positive: 2 * n_plus > n, with the
 * doubling wrapping like numpy int64 arithmetic. */
static int hc_positive(const hc_pack *p, int64_t leaf)
{
    return (int64_t)((uint64_t)p->leaf_n_plus[leaf] * 2u) > p->leaf_n[leaf];
}

int hc_leaves(const hc_pack *p, const int64_t *values, int64_t n_rows,
              int64_t n_features, int64_t *out)
{
    int64_t r, t;
    for (r = 0; r < n_rows; ++r) {
        const int64_t *row = values + r * n_features;
        for (t = 0; t < p->n_trees; ++t) {
            int status = hc_walk(p, row, n_features, t, out + r * p->n_trees + t);
            if (status != HC_OK)
                return status;
        }
    }
    return HC_OK;
}

int hc_votes(const hc_pack *p, const int64_t *values, int64_t n_rows,
             int64_t n_features, int64_t *out)
{
    int64_t r, t;
    for (r = 0; r < n_rows; ++r) {
        const int64_t *row = values + r * n_features;
        int64_t votes = 0;
        for (t = 0; t < p->n_trees; ++t) {
            int64_t leaf;
            int status = hc_walk(p, row, n_features, t, &leaf);
            if (status != HC_OK)
                return status;
            votes += hc_positive(p, leaf);
        }
        out[r] = votes;
    }
    return HC_OK;
}

int hc_proba(const hc_pack *p, const int64_t *values, int64_t n_rows,
             int64_t n_features, double *out)
{
    int64_t r, t;
    for (r = 0; r < n_rows; ++r) {
        const int64_t *row = values + r * n_features;
        double total = 0.0;
        for (t = 0; t < p->n_trees; ++t) {
            int64_t leaf, n;
            int status = hc_walk(p, row, n_features, t, &leaf);
            if (status != HC_OK)
                return status;
            n = p->leaf_n[leaf];
            total += n > 0 ? (double)p->leaf_n_plus[leaf] / (double)n : 0.5;
        }
        out[r] = total / (double)p->n_trees;
    }
    return HC_OK;
}

#define HC_FNV_OFFSET 14695981039346656037ull
#define HC_FNV_PRIME 1099511628211ull

int hc_shards(const int64_t *values, const int64_t *labels, int64_t n_rows,
              int64_t n_features, uint64_t salt, uint64_t n_shards,
              int64_t *out)
{
    int64_t r, f;
    if (n_shards == 0)
        return HC_RANGE;
    for (r = 0; r < n_rows; ++r) {
        const int64_t *row = values + r * n_features;
        uint64_t digest = (HC_FNV_OFFSET ^ salt) * HC_FNV_PRIME;
        for (f = 0; f < n_features; ++f)
            digest = (digest ^ (uint64_t)row[f]) * HC_FNV_PRIME;
        digest = (digest ^ (uint64_t)labels[r]) * HC_FNV_PRIME;
        out[r] = (int64_t)(digest % n_shards);
    }
    return HC_OK;
}
