/* 4. The level kernels of the frontier trainer (repro.training).
 *
 * Compiled in the same unit as kernel.c and write.c (after them), whose
 * HC_* status codes it shares. A frontier level is a set of code columns
 * and a label column in level order; starts[s]..starts[s + 1] is growth
 * point s's segment (hc_level below). Two whole-level passes:
 *
 *   hc_level_counts  fills every feature's (n_slots, 2, n_values) count
 *                    tensor, [slot][label][code], and the (n_slots, 2)
 *                    label totals of every growth point;
 *   hc_level_route   stable-partitions the segment of every plain split
 *                    into its left and right child segments of the next
 *                    level and scatters every column and the labels there.
 *
 * Code columns are uint8, uint16 or int64 arrays (the dataset layer's
 * compact dtypes); width[f] is column f's element size in bytes. A code
 * is compared as unsigned, so a negative int64 code is out of range like
 * one at or beyond n_values. Labels are uint8 0/1.
 *
 * Every index is checked before it is used: a code outside its domain, a
 * label above 1, non-monotone starts, an unknown feature or width, a
 * membership table read past its end, or a destination at or beyond the
 * output length returns HC_RANGE. The route checks every destination
 * before it writes an output column, so a rejected level leaves the
 * outputs untouched; nothing is ever written past a buffer.
 */

#include <string.h>

/* Split tests of hc_level_route. */
#define HC_TEST_CUT 0   /* numeric: code < param */
#define HC_TEST_MASK 1  /* categorical, n_values <= 62: bit code of param */
#define HC_TEST_TABLE 2 /* wider categorical: tables[param + code] != 0 */
#define HC_MASK_VALUES 62

typedef struct {
    const void *const *codes;
    const int64_t *width;
    const int64_t *n_values;
    int64_t n_features;
    const uint8_t *labels;
    int64_t n_positions;
    const int64_t *starts;
    int64_t n_slots;
} hc_level;

/* Per-type loops: one definition per code width, so the inner loops carry
 * no dispatch. */
#define HC_LEVEL_LOOPS(SUFFIX, T)                                              \
    static int hc_count_##SUFFIX(const hc_level *lv, const T *column,          \
                                 uint64_t n_values, int64_t *out)              \
    {                                                                          \
        int64_t s, i;                                                          \
        for (s = 0; s < lv->n_slots; ++s) {                                    \
            int64_t *row = out + s * 2 * (int64_t)n_values;                    \
            for (i = lv->starts[s]; i < lv->starts[s + 1]; ++i) {              \
                uint64_t code = (uint64_t)column[i];                           \
                if (code >= n_values)                                          \
                    return HC_RANGE;                                           \
                row[lv->labels[i] * n_values + code] += 1;                     \
            }                                                                  \
        }                                                                      \
        return HC_OK;                                                          \
    }                                                                          \
                                                                               \
    /* Destinations of segment [lo, hi): the left and right cursors start  \
     * at the children's offsets and advance past each position they      \
     * take; a negative cursor (a dropped child) stays where it is. */     \
    static int hc_sides_##SUFFIX(const T *column, uint64_t n_values,           \
                                 int test, int64_t param,                      \
                                 const uint8_t *table, int64_t lo, int64_t hi, \
                                 int64_t l, int64_t r, int64_t n_out,          \
                                 int64_t *dest)                                \
    {                                                                          \
        int64_t i;                                                             \
        for (i = lo; i < hi; ++i) {                                            \
            uint64_t code = (uint64_t)column[i];                               \
            int goes;                                                          \
            if (code >= n_values)                                              \
                return HC_RANGE;                                               \
            if (test == HC_TEST_CUT)                                           \
                goes = (int64_t)code < param;                                  \
            else if (test == HC_TEST_MASK)                                     \
                goes = (int)(((uint64_t)param >> code) & 1u);                  \
            else                                                               \
                goes = table[code] != 0;                                       \
            dest[i] = goes ? l : r;                                            \
            if (dest[i] >= n_out)                                              \
                return HC_RANGE;                                               \
            l += goes & (l >= 0);                                              \
            r += !goes & (r >= 0);                                             \
        }                                                                      \
        return HC_OK;                                                          \
    }                                                                          \
                                                                               \
    /* A dropped position (dest -1) is stored into a local sink, which     \
     * keeps the loop free of data-dependent branches. */                    \
    static void hc_scatter_##SUFFIX(const T *in, T *out, const int64_t *dest,  \
                                    int64_t lo, int64_t hi)                    \
    {                                                                          \
        int64_t i;                                                             \
        T sink;                                                                \
        for (i = lo; i < hi; ++i) {                                            \
            T *to = dest[i] >= 0 ? out + dest[i] : &sink;                      \
            *to = in[i];                                                       \
        }                                                                      \
    }

HC_LEVEL_LOOPS(u8, uint8_t)
HC_LEVEL_LOOPS(u16, uint16_t)
HC_LEVEL_LOOPS(i64, int64_t)

/* Starts must rise from 0 or more to at most n_positions, and every
 * column must have a supported width. */
static int hc_check_level(const hc_level *lv)
{
    int64_t s, f;
    if (lv->n_slots < 0 || lv->starts[0] < 0 ||
        lv->starts[lv->n_slots] > lv->n_positions)
        return HC_RANGE;
    for (s = 0; s < lv->n_slots; ++s)
        if (lv->starts[s] > lv->starts[s + 1])
            return HC_RANGE;
    for (f = 0; f < lv->n_features; ++f) {
        int64_t w = lv->width[f];
        if ((w != 1 && w != 2 && w != 8) || lv->n_values[f] < 1)
            return HC_RANGE;
    }
    return HC_OK;
}

int hc_level_counts(const hc_level *lv, int64_t *const *counts,
                    int64_t *node_counts)
{
    int64_t s, i, f;
    int status = hc_check_level(lv);
    if (status != HC_OK)
        return status;
    memset(node_counts, 0, (size_t)lv->n_slots * 2 * sizeof(int64_t));
    for (s = 0; s < lv->n_slots; ++s)
        for (i = lv->starts[s]; i < lv->starts[s + 1]; ++i) {
            if (lv->labels[i] > 1)
                return HC_RANGE;
            node_counts[2 * s + lv->labels[i]] += 1;
        }
    for (f = 0; f < lv->n_features; ++f) {
        uint64_t n_values = (uint64_t)lv->n_values[f];
        memset(counts[f], 0, (size_t)lv->n_slots * 2 * n_values * sizeof(int64_t));
        if (lv->width[f] == 1)
            status = hc_count_u8(lv, lv->codes[f], n_values, counts[f]);
        else if (lv->width[f] == 2)
            status = hc_count_u16(lv, lv->codes[f], n_values, counts[f]);
        else
            status = hc_count_i64(lv, lv->codes[f], n_values, counts[f]);
        if (status != HC_OK)
            return status;
    }
    return HC_OK;
}

/* feature[s] is slot s's split feature, -1 when the slot is not a plain
 * split (its positions are dropped); param[s] its cut, its subset mask, or
 * the offset of its membership table in tables; left_start[s] and
 * right_start[s] the offsets of its children in the outputs, -1 for a
 * child that is not routed (a pruned leaf). dest is n_positions scratch. */
int hc_level_route(const hc_level *lv, const int64_t *feature,
                   const int64_t *param, const uint8_t *numeric,
                   const uint8_t *tables, int64_t tables_len,
                   const int64_t *left_start, const int64_t *right_start,
                   void *const *out_codes, uint8_t *out_labels, int64_t n_out,
                   int64_t *dest)
{
    int64_t s, f, lo, hi;
    int status = hc_check_level(lv);
    if (status != HC_OK)
        return status;
    lo = lv->starts[0];
    hi = lv->starts[lv->n_slots];
    for (s = 0; s < lv->n_slots; ++s) {
        int64_t fid = feature[s], from = lv->starts[s], to = lv->starts[s + 1];
        int64_t n_values, l = left_start[s], r = right_start[s];
        const uint8_t *table = tables;
        int test;
        if (fid == -1) {
            for (; from < to; ++from)
                dest[from] = -1;
            continue;
        }
        if (fid < 0 || fid >= lv->n_features)
            return HC_RANGE;
        n_values = lv->n_values[fid];
        if (numeric[fid])
            test = HC_TEST_CUT;
        else if (n_values <= HC_MASK_VALUES)
            test = HC_TEST_MASK;
        else if (param[s] < 0 || param[s] > tables_len - n_values)
            return HC_RANGE;
        else {
            test = HC_TEST_TABLE;
            table = tables + param[s];
        }
        if (lv->width[fid] == 1)
            status = hc_sides_u8(lv->codes[fid], (uint64_t)n_values, test,
                                 param[s], table, from, to, l, r, n_out, dest);
        else if (lv->width[fid] == 2)
            status = hc_sides_u16(lv->codes[fid], (uint64_t)n_values, test,
                                  param[s], table, from, to, l, r, n_out, dest);
        else
            status = hc_sides_i64(lv->codes[fid], (uint64_t)n_values, test,
                                  param[s], table, from, to, l, r, n_out, dest);
        if (status != HC_OK)
            return status;
    }
    for (f = 0; f < lv->n_features; ++f) {
        if (lv->width[f] == 1)
            hc_scatter_u8(lv->codes[f], out_codes[f], dest, lo, hi);
        else if (lv->width[f] == 2)
            hc_scatter_u16(lv->codes[f], out_codes[f], dest, lo, hi);
        else
            hc_scatter_i64(lv->codes[f], out_codes[f], dest, lo, hi);
    }
    hc_scatter_u8(lv->labels, out_labels, dest, lo, hi);
    return HC_OK;
}
