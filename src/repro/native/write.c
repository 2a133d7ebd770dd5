/* 3. The write kernel: one routine for every count update of the model.
 *
 * Compiled in the same unit as kernel.c (after it), whose HC_* codes and
 * HC_LEAF_MARKER it shares. It walks the write pack of
 * repro.core.writes.UnlearnPack for one record at a time, with sign -1
 * (unlearn) or +1 (insert):
 *
 *   feature[slot]    feature id of a split, HC_LEAF_MARKER, or HC_FAN_MARKER;
 *   payload[slot]    route-table offset of a split, store row of a leaf,
 *                    maintenance-node id of a fan;
 *   right[slot]      right child of a split; the left child sits at right - 1;
 *   stats_row[slot]  store row of a split's counts (-1 on leaf and fan
 *                    slots, where the kernel never reads it);
 *   fan_ptr/fan_slots  CSR list of every variant's split slot per fan.
 *
 * The counts live in the store arrays (stats: n, n_plus, n_left,
 * n_left_plus per row; leaves: n, n_plus per row), next to every variant
 * gain and every active-variant index. Leaf updates are also written to
 * the read pack's leaf row of an active leaf (leaf_read_row, -1 when the
 * leaf's variant is inactive).
 *
 * Visit order is the object walk's (repro.core.unlearning.plan_unlearn):
 * a fan validates every variant's root split before it descends, then
 * pops the last variant's child first. So a rejected record fails on the
 * same check, with the same message, as the reference.
 *
 * After a record's walk, each visited maintenance node is re-scored with
 * the scalar Gini arithmetic of SplitStats.gini_gain, in the same order
 * of operations; the module is compiled with -ffp-contract=off, so every
 * gain is the double the Python code computes. The active variant is the
 * first maximum (lowest index on ties).
 *
 * A batch applies its records in order, re-scoring after each, and is
 * atomic: when a record is rejected (or an index is out of range), its
 * own updates are undone from the walk log, the earlier records are
 * walked again with the opposite sign and no validation, and every
 * re-scored node gets its pre-batch gains and active index back. Every index is checked before
 * it is read or written, a record's walk may take at most n_slots + 1
 * steps, and counts update with wrapping unsigned arithmetic, so corrupt
 * arrays give HC_RANGE or HC_TORN, never a stray access or a hang.
 */

#define HC_FAN_MARKER (-2)
#define HC_REJECT_LEAF 3
#define HC_REJECT_SPLIT 4
#define HC_REJECT_VARIANT 5

/* report[] slots */
#define HC_R_LEAVES 0
#define HC_R_ROBUST 1
#define HC_R_MNODES 2
#define HC_R_SWITCHES 3
#define HC_R_SWITCHED 4
#define HC_R_FAILED 5

typedef struct {
    const int64_t *feature;
    const int64_t *payload;
    const int64_t *right;
    const int64_t *stats_row;
    int64_t n_slots;
    const uint8_t *route;
    int64_t route_len;
    int64_t width;
    const int64_t *roots;
    int64_t n_trees;
    const int64_t *fan_ptr;
    const int64_t *fan_slots;
    int64_t n_fan;
    int64_t n_mnodes;
    int64_t *stats;
    int64_t n_stats;
    int64_t *leaves;
    int64_t n_leaves;
    double *gains;
    int64_t *active;
    const int64_t *leaf_read_row;
    int64_t *read_n;
    int64_t *read_n_plus;
    int64_t n_read;
    int64_t *log;
    int64_t *mlog;
    int64_t *stack;
    int64_t scratch_len;
    int64_t *seen;
    int64_t *touched;
    int64_t *saved_active;
    double *saved_gains;
    int64_t epoch;
} hc_store;

static int64_t hc_add(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a + (uint64_t)b);
}

static int64_t hc_sub(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a - (uint64_t)b);
}

/* Route one split for a row; stores the next slot and the side. */
static int hc_route(const hc_store *s, int64_t slot, const int64_t *row,
                    int64_t n_features, int64_t *next, int *left)
{
    int64_t fid = s->feature[slot], offset = s->payload[slot], code;
    *left = 0;
    if (fid < 0 || fid >= n_features)
        return HC_RANGE;
    code = row[fid];
    if (code < 0 || offset < 0 || offset >= s->route_len)
        return HC_RANGE;
    if (code < s->width) {
        if (code >= s->route_len - offset)
            return HC_RANGE;
        *left = s->route[offset + code] != 0;
    }
    *next = hc_sub(s->right[slot], *left);
    return HC_OK;
}

/* Apply one signed update to a split's counts (no validation). */
static void hc_bump_split(int64_t *st, int64_t sign, int positive, int left)
{
    st[0] = hc_add(st[0], sign);
    if (positive)
        st[1] = hc_add(st[1], sign);
    if (left) {
        st[2] = hc_add(st[2], sign);
        if (positive)
            st[3] = hc_add(st[3], sign);
    }
}

/* Apply one signed update to a leaf's counts and mirror it into the read
 * pack's row when the leaf is active there. */
static int hc_bump_leaf(hc_store *s, int64_t leaf, int64_t sign, int positive)
{
    int64_t *lv = s->leaves + 2 * leaf;
    int64_t read_row = s->leaf_read_row[leaf];
    if (read_row >= s->n_read)
        return HC_RANGE;
    lv[0] = hc_add(lv[0], sign);
    if (positive)
        lv[1] = hc_add(lv[1], sign);
    if (read_row >= 0) {
        s->read_n[read_row] = lv[0];
        s->read_n_plus[read_row] = lv[1];
    }
    return HC_OK;
}

/* Whether removing one record from this quadrant keeps it non-negative. */
static int hc_removable(const int64_t *st, int positive, int left)
{
    int64_t n = st[0], n_plus = st[1], n_left = st[2], n_left_plus = st[3];
    int64_t quadrant;
    if (positive)
        quadrant = left ? n_left_plus : hc_sub(n_plus, n_left_plus);
    else if (left)
        quadrant = hc_sub(n_left, n_left_plus);
    else
        quadrant = hc_sub(hc_sub(n, n_left), hc_sub(n_plus, n_left_plus));
    return quadrant > 0;
}

/* Visit one split: route, validate (when asked), update and log it.
 * ``variant`` marks a variant's root split. Every split carries
 * statistics, so a stats row outside the store is HC_RANGE, returned
 * before this split is written. */
static int hc_split(hc_store *s, int64_t slot, const int64_t *row,
                    int64_t n_features, int positive, int64_t sign,
                    int validate, int variant, int64_t *report, int64_t *n_log,
                    int64_t *next)
{
    int left;
    int64_t stats_row;
    int64_t *st;
    int status = hc_route(s, slot, row, n_features, next, &left);
    if (status != HC_OK)
        return status;
    stats_row = s->stats_row[slot];
    if (stats_row < 0 || stats_row >= s->n_stats)
        return HC_RANGE;
    if (!variant)
        report[HC_R_ROBUST] += 1;
    st = s->stats + 4 * stats_row;
    if (validate && !hc_removable(st, positive, left))
        return variant ? HC_REJECT_VARIANT : HC_REJECT_SPLIT;
    if (*n_log >= s->scratch_len)
        return HC_TORN;
    hc_bump_split(st, sign, positive, left);
    s->log[(*n_log)++] = 2 * stats_row + left;
    return HC_OK;
}

/* Walk every tree for one record, updating counts as it goes. Every
 * update is logged (split rows as 2*row + side, leaves as -(row + 1)),
 * and every visited fan's node id goes to mlog. */
static int hc_walk_record(hc_store *s, const int64_t *row, int64_t n_features,
                          int positive, int64_t sign, int validate,
                          int64_t *report, int64_t *n_log, int64_t *n_mlog)
{
    int64_t tree, steps = 0;
    for (tree = 0; tree < s->n_trees; ++tree) {
        int64_t slot = s->roots[tree], top = 0;
        for (;;) {
            int64_t fid;
            int status;
            if (++steps > s->n_slots + 1)
                return HC_TORN;
            if (slot < 0 || slot >= s->n_slots)
                return HC_RANGE;
            fid = s->feature[slot];
            if (fid >= 0) {
                status = hc_split(s, slot, row, n_features, positive, sign,
                                  validate, 0, report, n_log, &slot);
                if (status != HC_OK)
                    return status;
                continue;
            }
            if (fid == HC_LEAF_MARKER) {
                int64_t leaf = s->payload[slot];
                int64_t *lv;
                if (leaf < 0 || leaf >= s->n_leaves)
                    return HC_RANGE;
                lv = s->leaves + 2 * leaf;
                if (validate && (lv[0] <= 0 || (positive && lv[1] <= 0)))
                    return HC_REJECT_LEAF;
                if (*n_log >= s->scratch_len)
                    return HC_TORN;
                status = hc_bump_leaf(s, leaf, sign, positive);
                if (status != HC_OK)
                    return status;
                s->log[(*n_log)++] = -(leaf + 1);
                report[HC_R_LEAVES] += 1;
            } else if (fid == HC_FAN_MARKER) {
                int64_t node = s->payload[slot], lo, hi, j;
                if (node < 0 || node >= s->n_mnodes)
                    return HC_RANGE;
                lo = s->fan_ptr[node];
                hi = s->fan_ptr[node + 1];
                if (lo < 0 || lo > hi || hi > s->n_fan)
                    return HC_RANGE;
                if (*n_mlog >= s->scratch_len)
                    return HC_TORN;
                s->mlog[(*n_mlog)++] = node;
                report[HC_R_MNODES] += 1;
                for (j = lo; j < hi; ++j) {
                    int64_t variant = s->fan_slots[j], child;
                    if (++steps > s->n_slots + 1 || top >= s->scratch_len)
                        return HC_TORN;
                    if (variant < 0 || variant >= s->n_slots)
                        return HC_RANGE;
                    status = hc_split(s, variant, row, n_features, positive,
                                      sign, validate, 1, report, n_log, &child);
                    if (status != HC_OK)
                        return status;
                    s->stack[top++] = child;
                }
            } else {
                return HC_RANGE;
            }
            if (top == 0)
                break;
            slot = s->stack[--top];
        }
    }
    return HC_OK;
}

/* Undo the first n_log logged updates of one record, newest first. */
static void hc_unwind(hc_store *s, int64_t n_log, int positive, int64_t sign)
{
    while (n_log > 0) {
        int64_t entry = s->log[--n_log];
        if (entry < 0)
            hc_bump_leaf(s, -entry - 1, -sign, positive);
        else
            hc_bump_split(s->stats + 4 * (entry / 2), -sign, positive,
                          (int)(entry % 2));
    }
}

/* SplitStats.gini_gain, operation for operation. */
static double hc_gini_gain(const int64_t *st)
{
    int64_t n = st[0], n_plus = st[1], n_left = st[2], n_left_plus = st[3];
    int64_t n_right;
    double p, before, w_left, w_right, gini_left = 0.0, gini_right = 0.0;
    if (n <= 0)
        return 0.0;
    p = (double)n_plus / (double)n;
    before = 2.0 * p * (1.0 - p);
    w_left = (double)n_left / (double)n;
    n_right = hc_sub(n, n_left);
    w_right = (double)n_right / (double)n;
    if (n_left > 0) {
        p = (double)n_left_plus / (double)n_left;
        gini_left = 2.0 * p * (1.0 - p);
    }
    if (n_right > 0) {
        p = (double)hc_sub(n_plus, n_left_plus) / (double)n_right;
        gini_right = 2.0 * p * (1.0 - p);
    }
    return before - (w_left * gini_left + (w_right * gini_right));
}

/* Re-score one maintenance node; saves its pre-batch state on first touch.
 * The record's walk has checked the node's fan range and every variant's
 * slot and stats row. */
static void hc_rescore(hc_store *s, int64_t node, int64_t *n_seen, int *switched)
{
    int64_t lo = s->fan_ptr[node], hi = s->fan_ptr[node + 1], j, best = -1;
    double best_gain = 0.0;
    if (s->touched[node] != s->epoch) {
        s->touched[node] = s->epoch;
        s->saved_active[node] = s->active[node];
        for (j = lo; j < hi; ++j)
            s->saved_gains[j] = s->gains[j];
        s->seen[(*n_seen)++] = node;
    }
    for (j = lo; j < hi; ++j) {
        int64_t stats_row = s->stats_row[s->fan_slots[j]];
        double gain = hc_gini_gain(s->stats + 4 * stats_row);
        s->gains[j] = gain;
        if (best < 0 || gain > best_gain) {
            best = j - lo;
            best_gain = gain;
        }
    }
    *switched = best != s->active[node];
    s->active[node] = best;
}

/* Apply records [0, n_records) with one sign, atomically.
 *
 * report receives the UnlearningReport counters, the number of switched
 * nodes (final active index differs from the pre-batch one; their ids go
 * to switched[], capacity n_mnodes) and, on failure, the failing record.
 */
int hc_write(hc_store *s, const int64_t *values, const int64_t *labels,
             int64_t n_records, int64_t n_features, int64_t sign,
             int64_t *report, int64_t *switched)
{
    int64_t record, k, n_seen = 0, n_switched = 0;
    int status = HC_OK;
    for (k = 0; k <= HC_R_FAILED; ++k)
        report[k] = 0;
    if (sign != 1 && sign != -1)
        return HC_RANGE;
    s->epoch += 1;
    for (record = 0; record < n_records; ++record) {
        const int64_t *row = values + record * n_features;
        int positive = labels[record] == 1;
        int64_t n_log = 0, n_mlog = 0;
        status = hc_walk_record(s, row, n_features, positive, sign, sign < 0,
                                report, &n_log, &n_mlog);
        if (status != HC_OK) {
            hc_unwind(s, n_log, positive, sign);
            break;
        }
        for (k = 0; k < n_mlog; ++k) {
            int node_switched;
            hc_rescore(s, s->mlog[k], &n_seen, &node_switched);
            report[HC_R_SWITCHES] += node_switched;
        }
    }
    if (status != HC_OK) {
        int64_t failed = record, scratch[HC_R_FAILED + 1];
        for (record = failed - 1; record >= 0; --record) {
            int64_t n_log = 0, n_mlog = 0;
            hc_walk_record(s, values + record * n_features, n_features,
                           labels[record] == 1, -sign, 0, scratch, &n_log,
                           &n_mlog);
        }
        for (k = 0; k < n_seen; ++k) {
            int64_t node = s->seen[k], j;
            s->active[node] = s->saved_active[node];
            for (j = s->fan_ptr[node]; j < s->fan_ptr[node + 1]; ++j)
                s->gains[j] = s->saved_gains[j];
        }
        for (k = 0; k <= HC_R_FAILED; ++k)
            report[k] = 0;
        report[HC_R_FAILED] = failed;
        return status;
    }
    for (k = 0; k < n_seen; ++k) {
        int64_t node = s->seen[k];
        if (s->active[node] != s->saved_active[node])
            switched[n_switched++] = node;
    }
    report[HC_R_SWITCHED] = n_switched;
    return HC_OK;
}
