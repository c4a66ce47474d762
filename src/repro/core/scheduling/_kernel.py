"""Compiled kernels for the simulator's interpreter-bound loops.

One shared library holds them all, the schedulers', the channel bank's
and the BLU controller's access feedback:

* ``greedy_fill`` — the schedule builder's greedy chain scan
  for linear (PF-family) utilities.  Its cost is not arithmetic but
  *boxing*: the scan (strict ``1e-15`` improvement over a running best,
  ascending id order) must stay a sequential recurrence to keep near-tie
  behaviour reproducible, and in pure Python that means materializing
  every weight as a heap-allocated float just to compare it.  The kernel
  runs the same recurrence over the unboxed ``float64`` weight tensors.
* ``speculative_fill`` — the same walk for BLU's speculative scheduler
  (Eqns. 3–4): every candidate is valued by looking up the extended
  group's decodable-service probabilities and accumulating
  ``service · weight`` over the committed members in commit order, then
  the candidate — the float sequence of the pure-Python step scorer.
  Admission under the distinct-client budget and the freeze to the
  admitted clients at saturation are one helper both walks share.
* ``joint_lookup`` / ``joint_rehash`` — the speculative scheduler's
  service table (``_FastJointTables`` in ``core/joint/provider.py``): an
  open-addressing hash table keyed by ``(group bitmask, M)`` whose misses
  run ``joint_service`` (Eqn. 4's ``Σ_{s≤M} π[(i, s)]``: footprint
  products, the blocked-set convolution and the per-member fold, a few
  hundred float operations per group) straight into the entry.
* ``fading_block`` — the AR(1) Rayleigh recurrence of
  :class:`~repro.lte.channel.UplinkChannelBank` over one whole
  innovation block (``h = rho * h + c * e`` per UE, then per step), in
  place over the bank's buffers.  Per subframe, numpy would spend a
  handful of dispatches on a ``(num_ues, num_rbs)`` array; here the
  block is one call.  The innovations' complex division and
  ``|h|^2``/``log10`` stay in numpy (see the bank).
* ``access_feedback`` — one UL subframe's access sample (Section 3.3):
  it bumps the :class:`~repro.core.measurement.estimator.AccessEstimator`
  counts of the scheduled clients and pairs, then, given the adaptive
  controller's :class:`~repro.dynamics.detect.DriftMonitor`, steps every
  touched Page–Hinkley or CUSUM stream and runs the co-flag pass, all
  over the dense count and state arrays those objects own
  (``core/measurement/feedback.py`` holds its Python form).

Bit-exactness: each kernel performs exactly the IEEE-754 binary64
operations its Python form performs, in the same order — ``greedy_fill``
only double additions and strict ``>`` compares; ``speculative_fill``
``total + p * w`` per member in commit order, skipping ``p <= 0``;
``joint_service`` the footprint products, ``prob + p * x`` convolution
updates and the partial sums, keyed by local bit codes whose insertion
order replays the Python dicts'; ``fading_block`` ``rho * h + c * e``
per real component; ``access_feedback`` ``count + 1.0`` per count, and
the single-stream detectors' recurrences (``mean += (x - mean) / n``
with ``n`` as a double, each ``max``/``min`` as the compare it performs).  Products feed sums in one expression,
so ``-ffp-contract=off`` is load-bearing: without it a compiler may fuse
``a + p * x`` into one FMA, rounding once instead of twice and changing
the last bit (GCC's and clang's defaults both allow that on targets with
FMA, such as AArch64).  ``-fno-fast-math`` likewise forbids
reassociation.  x86-64 and AArch64 both evaluate plain double operations
in binary64, so results are bit-identical to the interpreted paths
(which themselves match the scalar oracle in ``tests/reference/``).

Memory: the service table's buffers (keys, values and the
``{capacity, hits, misses, size}`` counters) are numpy arrays owned by
the Python caller, handed over as one :class:`ServiceTable` descriptor
of pointers.  The caller also grows them (``joint_rehash`` into doubled
buffers) before a walk could need more room; the kernels only read and
write through the pointers they are handed — ``fading_block`` likewise
writes only into the bank's state and block buffers, and
``access_feedback`` only into the estimator's and monitor's arrays, at
ids it has checked against their size before the first write.  All other scratch
state lives on the stack — there are no static buffers, so concurrent
callers never share state.  ``REPRO_KERNEL_SANITIZE=1`` builds the
library with AddressSanitizer and UBSan to check exactly that (load it
with the ASan runtime preloaded).

The library is optional infrastructure, never a correctness dependency:

* compiled lazily on first use with whatever ``cc`` the platform has;
* cached as a shared object in the user's temp directory, keyed by a
  hash of the source (concurrent builds race safely via atomic rename);
* any failure — no compiler, compile error, unloadable object — degrades
  to ``kernel() is None`` and callers keep the pure-Python greedy scan,
  Eqn. 4 step scorer and joint-service walk, the channel bank steps
  its block row by row in numpy, and access feedback runs its loop in
  Python; the failure is reported once
  per process as a :class:`RuntimeWarning` naming the compiler and the
  tail of its error output, because the fallback changes speed (never
  results);
* ``REPRO_DISABLE_KERNEL=1`` forces the pure paths (used by tests to pin
  down which flavour they exercise).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from typing import Optional

__all__ = [
    "kernel",
    "kernel_available",
    "KERNEL_MAX_SLOTS",
    "KERNEL_MAX_MEMBERS",
    "KERNEL_MAX_SERVICE_SLOTS",
    "AccessCounts",
    "DriftStreams",
    "DRIFT_STATE",
    "ServiceTable",
    "TABLE_FULL",
]

#: Upper bound on slots (dense UE ids or compact indices) per
#: ``greedy_fill`` call; calls beyond it fall back to the pure-Python scan.
KERNEL_MAX_SLOTS = 4096
#: Upper bound on group members per service-table entry (the scheduler
#: caps groups at ``MAX_ORTHOGONAL_PILOTS``, also 8); larger groups take
#: the pure-Python walk.
KERNEL_MAX_MEMBERS = 8
#: Upper bound on dense UE ids per ``speculative_fill`` call: service keys
#: are 64-bit group masks.  Cells with larger ids take the step scorer.
KERNEL_MAX_SERVICE_SLOTS = 64

#: ``joint_lookup``'s answer when an insert needs a larger table (nothing
#: was counted; grow it and ask again).
TABLE_FULL = -2


class ServiceTable(ctypes.Structure):
    """The C ``service_table``: pointers to a service table's buffers,
    which the caller owns and keeps alive (see ``_FastJointTables``)."""

    _fields_ = [
        ("term_masks", ctypes.c_void_p),
        ("idle", ctypes.c_void_p),
        ("n_terms", ctypes.c_int64),
        ("keys_mask", ctypes.c_void_p),
        ("keys_m", ctypes.c_void_p),
        ("values", ctypes.c_void_p),
        ("meta", ctypes.c_void_p),
    ]


#: Doubles of state per drift stream (Page–Hinkley: mean, low, low_max,
#: high, high_min; CUSUM: mean, pos, neg and two unused).
DRIFT_STATE = 5


class AccessCounts(ctypes.Structure):
    """The C ``access_counts``: pointers to an access estimator's count
    arrays, which the estimator owns (see ``AccessEstimator``)."""

    _fields_ = [
        ("n", ctypes.c_void_p),
        ("clear", ctypes.c_void_p),
        ("n_pair", ctypes.c_void_p),
        ("clear_pair", ctypes.c_void_p),
    ]


class DriftStreams(ctypes.Structure):
    """The C ``drift_streams``: a drift monitor's settings and pointers to
    its per-stream arrays, which the monitor owns (see ``DriftMonitor``)."""

    _fields_ = [
        ("cusum", ctypes.c_int64),
        ("min_samples", ctypes.c_int64),
        ("slack", ctypes.c_double),
        ("threshold", ctypes.c_double),
        ("bar", ctypes.c_double),
        ("ue_count", ctypes.c_void_p),
        ("ue_state", ctypes.c_void_p),
        ("pair_count", ctypes.c_void_p),
        ("pair_state", ctypes.c_void_p),
        ("drifted", ctypes.c_void_p),
    ]


_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define MAX_SLOTS 4096
#define MAX_GROUP 64
#define MAX_MEMBERS 8
#define MAX_PATTERNS (1 << MAX_MEMBERS)
#define MAX_SERVICE_SLOTS 64

/* The admitted slots in ascending order: the frozen candidate list once
 * the distinct-client budget is spent.  Returns their count. */
static int64_t admitted_slots(
    const uint8_t *member_flags, int64_t n_slots, int64_t *cur)
{
    int64_t n = 0, i;
    for (i = 0; i < n_slots; i++)
        if (member_flags[i])
            cur[n++] = i;
    return n;
}

/* Admission for one column, shared by both greedy walks: the greedy
 * order's prefix of newcomers that fits the remaining distinct-client
 * budget *max_new.  Writes the column's size and zero-padded member row
 * (so callers can gather rates over the full member block without
 * reading uninitialized slots), marks the admitted newcomers, spends
 * their budget and, at saturation, freezes the candidates (cur, n_cur)
 * to the admitted slots.  Returns the admitted count; adm holds them. */
static int64_t admit_column(
    const int64_t *group,
    int64_t gsz,
    int64_t col,
    int64_t size_cap,
    int64_t n_slots,
    uint8_t *member_flags,
    int64_t *max_new,
    int64_t *cur,
    int64_t *n_cur,
    int64_t *adm,
    int64_t *out_sizes,
    int64_t *out_members)
{
    int64_t n_adm = 0, new_count = 0, i;
    if (*max_new > 0) {
        for (i = 0; i < gsz; i++) {
            int64_t slot = group[i];
            if (member_flags[slot])
                adm[n_adm++] = slot;
            else if (new_count < *max_new) {
                adm[n_adm++] = slot;
                new_count++;
            }
        }
    } else {
        memcpy(adm, group, (size_t)gsz * sizeof(int64_t));
        n_adm = gsz;
    }

    out_sizes[col] = n_adm;
    for (i = 0; i < n_adm; i++)
        out_members[col * size_cap + i] = adm[i];
    for (i = n_adm; i < size_cap; i++)
        out_members[col * size_cap + i] = 0;

    if (new_count > 0) {
        for (i = 0; i < n_adm; i++)
            member_flags[adm[i]] = 1;
        *max_new -= new_count;
        if (*max_new == 0)
            *n_cur = admitted_slots(member_flags, n_slots, cur);
    }
    return n_adm;
}

/* One call schedules the RB columns [col_start, col_end) of a weight slab.
 *
 * weights      : (n_streams, n_slots, n_cols) C-contiguous float64 slab;
 *                row for stream count s starts at (s-1)*n_slots*n_cols.
 * cand         : candidate slots in scan order (ascending id order).
 * member_flags : per-slot admitted-this-subframe flags (in/out).
 * max_new      : remaining distinct-client budget (K - |distinct|).
 * out_sizes    : admitted group size per column (0 = no grants).
 * out_members  : admitted slots, row-major (n_cols x size_cap).
 * out_utils    : admitted-group utility per column.
 *
 * Returns the remaining budget (>= 0), or -1 on a bounds violation.
 *
 * The greedy recurrence is the exact Python loop: for each group size,
 * value = (sum of member weights, in admission order) + w[candidate];
 * accept the scan's last candidate exceeding best_value + 1e-15.  Only
 * double additions and strict compares occur, so results are IEEE
 * bit-identical to the interpreted scan.
 */
int64_t greedy_fill(
    const double *weights,
    int64_t n_slots,
    int64_t n_cols,
    int64_t col_start,
    int64_t col_end,
    int64_t size_cap,
    int64_t antennas,
    const int64_t *cand,
    int64_t n_cand,
    uint8_t *member_flags,
    int64_t max_new,
    int64_t *out_sizes,
    int64_t *out_members,
    double *out_utils)
{
    int64_t cur[MAX_SLOTS];
    int64_t rem[MAX_SLOTS];
    int64_t group[MAX_GROUP];
    int64_t adm[MAX_GROUP];
    int64_t n_cur, i, col;

    if (n_cand > MAX_SLOTS || n_slots > MAX_SLOTS || size_cap > MAX_GROUP ||
        size_cap < 1 || antennas < 1 || n_cand < 0 || max_new < 0 ||
        col_start < 0 || col_end > n_cols)
        return -1;

    if (max_new > 0) {
        memcpy(cur, cand, (size_t)n_cand * sizeof(int64_t));
        n_cur = n_cand;
    } else {
        n_cur = admitted_slots(member_flags, n_slots, cur);
    }

    for (col = col_start; col < col_end; col++) {
        int64_t n_rem = n_cur;
        int64_t gsz = 0;
        int64_t n_adm;
        double current = 0.0;
        memcpy(rem, cur, (size_t)n_cur * sizeof(int64_t));

        while (n_rem > 0 && gsz < size_cap) {
            int64_t size = gsz + 1;
            int64_t s = size < antennas ? size : antennas;
            const double *w = weights + (s - 1) * n_slots * n_cols + col;
            double base = 0.0;
            int64_t best = -1;
            double best_value = current;
            double threshold = current + 1e-15;
            for (i = 0; i < gsz; i++)
                base += w[group[i] * n_cols];
            for (i = 0; i < n_rem; i++) {
                double value = base + w[rem[i] * n_cols];
                if (value > threshold) {
                    best = i;
                    best_value = value;
                    threshold = value + 1e-15;
                }
            }
            if (best < 0)
                break;
            group[gsz++] = rem[best];
            memmove(rem + best, rem + best + 1,
                    (size_t)(n_rem - best - 1) * sizeof(int64_t));
            n_rem--;
            current = best_value;
        }

        n_adm = admit_column(group, gsz, col, size_cap, n_slots, member_flags,
                             &max_new, cur, &n_cur, adm, out_sizes,
                             out_members);
        if (n_adm == 0) {
            out_utils[col] = 0.0;
        } else if (n_adm == gsz) {
            out_utils[col] = current;
        } else {
            int64_t s = n_adm < antennas ? n_adm : antennas;
            const double *w = weights + (s - 1) * n_slots * n_cols + col;
            double trimmed = 0.0;
            for (i = 0; i < n_adm; i++)
                trimmed += w[adm[i] * n_cols];
            out_utils[col] = trimmed;
        }
    }
    return max_new;
}

/* Decodable-service probabilities of one group: out[j] = sum over s <= M
 * of P(member j clears and exactly s members clear), members ascending.
 *
 * term_masks  : per hidden terminal, the bitmask of UEs it silences.
 * idle        : per hidden terminal, 1 - q.
 * mask        : the group's UE bitmask (at most MAX_MEMBERS bits).
 * max_streams : M.
 * out         : one probability per member.
 *
 * Returns the member count, or -1 on a bounds violation.
 *
 * Each step is the Python walk's exact IEEE operation sequence, over
 * local codes (bit j = the group's j-th lowest UE) instead of UE masks:
 * footprint products in ascending terminal order starting from 1.0;
 * the blocked-set convolution in first-seen key order, a new key taking
 * 0.0 + p * x; per-member, per-size partial sums in pattern order; and
 * the sizes <= M summed in each member's first-seen size order.
 */
static int64_t joint_service(
    const uint64_t *term_masks,
    const double *idle,
    int64_t n_terms,
    uint64_t mask,
    int64_t max_streams,
    double *out)
{
    int64_t member_bit[MAX_MEMBERS];
    double fp_idle[MAX_PATTERNS];
    uint8_t fp_seen[MAX_PATTERNS];
    int64_t fp_order[MAX_PATTERNS];
    double prob[2][MAX_PATTERNS];
    uint8_t present[2][MAX_PATTERNS];
    int64_t keys[2][MAX_PATTERNS];
    int64_t n_keys[2];
    double sums[MAX_MEMBERS][MAX_MEMBERS + 1];
    uint8_t size_seen[MAX_MEMBERS][MAX_MEMBERS + 1];
    int64_t size_order[MAX_MEMBERS][MAX_MEMBERS + 1];
    int64_t n_sizes[MAX_MEMBERS];
    int64_t n_members = 0, n_fp = 0, cur = 0, full, t, i, j, k;

    if (n_terms < 0)
        return -1;
    for (t = 0; t < 64; t++) {
        if (!(mask >> t & 1))
            continue;
        if (n_members == MAX_MEMBERS)
            return -1;
        member_bit[n_members++] = t;
    }
    full = ((int64_t)1 << n_members) - 1;

    /* Footprints inside the group, merged in first-seen terminal order. */
    memset(fp_seen, 0, sizeof(fp_seen));
    for (t = 0; t < n_terms; t++) {
        uint64_t footprint = term_masks[t] & mask;
        int64_t code = 0;
        if (!footprint)
            continue;
        for (j = 0; j < n_members; j++)
            if (footprint >> member_bit[j] & 1)
                code |= (int64_t)1 << j;
        if (fp_seen[code]) {
            fp_idle[code] = fp_idle[code] * idle[t];
        } else {
            fp_seen[code] = 1;
            fp_idle[code] = 1.0 * idle[t];
            fp_order[n_fp++] = code;
        }
    }

    /* Blocked-set convolution; keys keep first-seen insertion order. */
    keys[0][0] = 0;
    prob[0][0] = 1.0;
    n_keys[0] = 1;
    for (i = 0; i < n_fp; i++) {
        int64_t code = fp_order[i];
        int64_t nxt = 1 - cur;
        double x = fp_idle[code];
        double busy = 1.0 - x;
        n_keys[nxt] = 0;
        memset(present[nxt], 0, sizeof(present[nxt]));
        for (k = 0; k < n_keys[cur]; k++) {
            int64_t blocked = keys[cur][k];
            int64_t grown = blocked | code;
            double p = prob[cur][blocked];
            if (present[nxt][blocked]) {
                prob[nxt][blocked] = prob[nxt][blocked] + p * x;
            } else {
                present[nxt][blocked] = 1;
                keys[nxt][n_keys[nxt]++] = blocked;
                prob[nxt][blocked] = 0.0 + p * x;
            }
            if (present[nxt][grown]) {
                prob[nxt][grown] = prob[nxt][grown] + p * busy;
            } else {
                present[nxt][grown] = 1;
                keys[nxt][n_keys[nxt]++] = grown;
                prob[nxt][grown] = 0.0 + p * busy;
            }
        }
        cur = nxt;
    }

    /* Clear patterns (a bijection of blocked sets, same order) folded into
     * per-member, per-size partial sums. */
    memset(size_seen, 0, sizeof(size_seen));
    memset(n_sizes, 0, sizeof(n_sizes));
    for (k = 0; k < n_keys[cur]; k++) {
        int64_t clear = full & ~keys[cur][k];
        int64_t size = 0;
        double p = 0.0 + prob[cur][keys[cur][k]];
        for (j = 0; j < n_members; j++)
            size += clear >> j & 1;
        for (j = 0; j < n_members; j++) {
            if (!(clear >> j & 1))
                continue;
            if (size_seen[j][size]) {
                sums[j][size] = sums[j][size] + p;
            } else {
                size_seen[j][size] = 1;
                size_order[j][n_sizes[j]++] = size;
                sums[j][size] = 0.0 + p;
            }
        }
    }

    for (j = 0; j < n_members; j++) {
        double total = 0.0;
        for (k = 0; k < n_sizes[j]; k++)
            if (size_order[j][k] <= max_streams)
                total = total + sums[j][size_order[j][k]];
        out[j] = total;
    }
    return n_members;
}

/* The service table: open addressing with linear probing over buffers
 * the caller owns.  Entry e is keyed by (keys_mask[e], keys_m[e]) --
 * keys_m[e] = -1 marks an empty entry -- and holds MAX_MEMBERS service
 * probabilities at values[e * MAX_MEMBERS], members ascending.
 * meta = {capacity (a power of two), hits, misses, size}; term_masks and
 * idle describe the topology the entries are computed from. */
typedef struct {
    const uint64_t *term_masks;
    const double *idle;
    int64_t n_terms;
    uint64_t *keys_mask;
    int64_t *keys_m;
    double *values;
    int64_t *meta;
} service_table;

enum { META_CAPACITY, META_HITS, META_MISSES, META_SIZE };

static uint64_t key_hash(uint64_t mask, int64_t max_streams)
{
    uint64_t h = mask ^ ((uint64_t)max_streams * 0x9E3779B97F4A7C15ull);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return h;
}

static int table_valid(const service_table *table)
{
    int64_t capacity = table->meta[META_CAPACITY];
    int64_t size = table->meta[META_SIZE];
    return table->n_terms >= 0 && capacity > 0 &&
           (capacity & (capacity - 1)) == 0 && size >= 0 &&
           2 * size <= capacity;
}

/* The entry of (mask, max_streams), computed into a free entry on a miss.
 * Returns the entry index, -1 when the group does not fit an entry, or
 * TABLE_FULL when an insert would push the load past one half; then
 * nothing is counted, and the caller grows the table and asks again. */
#define TABLE_FULL (-2)

static int64_t table_lookup(
    const service_table *table, uint64_t mask, int64_t max_streams)
{
    int64_t *meta = table->meta;
    uint64_t wrap = (uint64_t)meta[META_CAPACITY] - 1;
    uint64_t e = key_hash(mask, max_streams) & wrap;
    while (table->keys_m[e] >= 0) {
        if (table->keys_mask[e] == mask && table->keys_m[e] == max_streams) {
            meta[META_HITS]++;
            return (int64_t)e;
        }
        e = (e + 1) & wrap;
    }
    if (2 * (meta[META_SIZE] + 1) > meta[META_CAPACITY])
        return TABLE_FULL;
    if (joint_service(table->term_masks, table->idle, table->n_terms, mask,
                      max_streams, table->values + e * MAX_MEMBERS) < 0)
        return -1;
    table->keys_mask[e] = mask;
    table->keys_m[e] = max_streams;
    meta[META_MISSES]++;
    meta[META_SIZE]++;
    return (int64_t)e;
}

/* One service-table query (see table_lookup); -1 also on bad arguments. */
int64_t joint_lookup(
    const service_table *table, uint64_t mask, int64_t max_streams)
{
    if (max_streams < 0 || !table_valid(table))
        return -1;
    return table_lookup(table, mask, max_streams);
}

/* Re-insert every entry of `from` (capacity from_capacity) into the empty
 * buffers of `to` (capacity to_capacity, keys_m all -1).  Returns the
 * number of entries moved, or -1 on bad capacities. */
int64_t joint_rehash(
    const service_table *from,
    int64_t from_capacity,
    const service_table *to,
    int64_t to_capacity)
{
    uint64_t wrap = (uint64_t)to_capacity - 1;
    int64_t moved = 0, i;
    if (to_capacity < from_capacity || to_capacity < 1 ||
        (to_capacity & (to_capacity - 1)) != 0)
        return -1;
    for (i = 0; i < from_capacity; i++) {
        uint64_t e;
        if (from->keys_m[i] < 0)
            continue;
        e = key_hash(from->keys_mask[i], from->keys_m[i]) & wrap;
        while (to->keys_m[e] >= 0)
            e = (e + 1) & wrap;
        to->keys_mask[e] = from->keys_mask[i];
        to->keys_m[e] = from->keys_m[i];
        memcpy(to->values + e * MAX_MEMBERS, from->values + i * MAX_MEMBERS,
               MAX_MEMBERS * sizeof(double));
        moved++;
    }
    return moved;
}

/* Position of UE bit `ue` among the set bits of `mask` (its index in the
 * entry's ascending member list). */
static int64_t member_rank(uint64_t mask, int64_t ue)
{
    return __builtin_popcountll(mask & (((uint64_t)1 << ue) - 1));
}

/* greedy_fill's walk with Eqn. 4 valuation: the speculative scheduler's
 * RB columns [col_start, col_end).  Slots are dense UE ids (< 64), so a
 * group is a 64-bit mask.
 *
 * weights, n_slots .. out_utils : as for greedy_fill; the weight row of a
 *     size-k group is stream count min(k, max_streams).
 * want_utils : whether a K-budget-trimmed group's utility is needed (it
 *     costs one service lookup, which the counters record).
 * table : the service table, with room reserved for the call's worst case.
 *
 * Returns the remaining budget (>= 0), -1 on a bounds violation, or
 * TABLE_FULL when the service table ran out of reserved room.
 *
 * A candidate c extending the committed group G (commit order) is valued
 * from the entry of G + c: total = 0.0, then for each member of G and
 * finally c, total + p * w[ue] whenever p > 0.0 -- the step scorer's
 * exact float sequence.  One lookup per candidate, as in the scorer, so
 * the table's hit and miss counts match it too.
 */
int64_t speculative_fill(
    const double *weights,
    int64_t n_slots,
    int64_t n_cols,
    int64_t col_start,
    int64_t col_end,
    int64_t size_cap,
    int64_t max_streams,
    const int64_t *cand,
    int64_t n_cand,
    uint8_t *member_flags,
    int64_t max_new,
    int64_t *out_sizes,
    int64_t *out_members,
    double *out_utils,
    int64_t want_utils,
    const service_table *table)
{
    int64_t cur[MAX_SERVICE_SLOTS];
    int64_t rem[MAX_SERVICE_SLOTS];
    int64_t group[MAX_MEMBERS];
    int64_t adm[MAX_MEMBERS];
    int64_t n_cur, i, j, col;

    if (n_cand > MAX_SERVICE_SLOTS || n_slots > MAX_SERVICE_SLOTS ||
        size_cap > MAX_MEMBERS || size_cap < 1 || max_streams < 1 ||
        n_cand < 0 || max_new < 0 || col_start < 0 || col_end > n_cols ||
        !table_valid(table))
        return -1;
    for (i = 0; i < n_cand; i++)
        if (cand[i] < 0 || cand[i] >= n_slots)
            return -1;

    if (max_new > 0) {
        memcpy(cur, cand, (size_t)n_cand * sizeof(int64_t));
        n_cur = n_cand;
    } else {
        n_cur = admitted_slots(member_flags, n_slots, cur);
    }

    for (col = col_start; col < col_end; col++) {
        int64_t n_rem = n_cur;
        int64_t gsz = 0;
        int64_t n_adm;
        uint64_t mask = 0;
        double current = 0.0;
        memcpy(rem, cur, (size_t)n_cur * sizeof(int64_t));

        while (n_rem > 0 && gsz < size_cap) {
            int64_t size = gsz + 1;
            int64_t s = size < max_streams ? size : max_streams;
            const double *w = weights + (s - 1) * n_slots * n_cols + col;
            int64_t best = -1;
            double best_value = current;
            double threshold = current + 1e-15;
            for (i = 0; i < n_rem; i++) {
                int64_t c = rem[i];
                uint64_t extended = mask | (uint64_t)1 << c;
                int64_t entry = table_lookup(table, extended, max_streams);
                const double *service;
                double total = 0.0, p;
                if (entry < 0)
                    return entry;
                service = table->values + entry * MAX_MEMBERS;
                for (j = 0; j < gsz; j++) {
                    p = service[member_rank(extended, group[j])];
                    if (p > 0.0)
                        total = total + p * w[group[j] * n_cols];
                }
                p = service[member_rank(extended, c)];
                if (p > 0.0)
                    total = total + p * w[c * n_cols];
                if (total > threshold) {
                    best = i;
                    best_value = total;
                    threshold = total + 1e-15;
                }
            }
            if (best < 0)
                break;
            group[gsz++] = rem[best];
            mask |= (uint64_t)1 << rem[best];
            memmove(rem + best, rem + best + 1,
                    (size_t)(n_rem - best - 1) * sizeof(int64_t));
            n_rem--;
            current = best_value;
        }

        n_adm = admit_column(group, gsz, col, size_cap, n_slots, member_flags,
                             &max_new, cur, &n_cur, adm, out_sizes,
                             out_members);
        if (n_adm == gsz) {
            out_utils[col] = current;
        } else if (n_adm == 0 || !want_utils) {
            out_utils[col] = 0.0;
        } else {
            int64_t s = n_adm < max_streams ? n_adm : max_streams;
            const double *w = weights + (s - 1) * n_slots * n_cols + col;
            uint64_t trimmed = 0;
            int64_t entry;
            const double *service;
            double total = 0.0, p;
            for (i = 0; i < n_adm; i++)
                trimmed |= (uint64_t)1 << adm[i];
            entry = table_lookup(table, trimmed, max_streams);
            if (entry < 0)
                return entry;
            service = table->values + entry * MAX_MEMBERS;
            for (i = 0; i < n_adm; i++) {
                p = service[member_rank(trimmed, adm[i])];
                if (p > 0.0)
                    total = total + p * w[adm[i] * n_cols];
            }
            out_utils[col] = total;
        }
    }
    return max_new;
}

/* The channel bank's AR(1) Rayleigh recurrence over one innovation block,
 * per UE and then per step (UplinkChannelBank in lte/channel.py).
 *
 * h      : (n_ues, n_rbs) complex state as interleaved (re, im) doubles;
 *          the state before the block on entry, after its last step on
 *          return.
 * block  : (n_steps, n_ues, n_rbs) complex innovations on entry; on
 *          return, the state after each step.
 * rho, c : the AR(1) coefficient and sqrt(1 - rho^2).
 *
 * Returns 0, or -1 on negative sizes.
 *
 * Each component takes h = rho * h + c * e: two rounded products and one
 * rounded sum, as numpy's complex `rho * h + c * e` does (there the real
 * scalars' zero imaginary parts contribute only signed zeros).
 */
int64_t fading_block(
    double *h,
    double *block,
    int64_t n_ues,
    int64_t n_steps,
    int64_t n_rbs,
    double rho,
    double c)
{
    int64_t width = 2 * n_rbs, u, t, k;
    if (n_ues < 0 || n_steps < 0 || n_rbs < 0)
        return -1;
    for (u = 0; u < n_ues; u++) {
        double *state = h + u * width;
        for (t = 0; t < n_steps; t++) {
            double *row = block + (t * n_ues + u) * width;
            for (k = 0; k < width; k++) {
                state[k] = rho * state[k] + c * row[k];
                row[k] = state[k];
            }
        }
    }
    return 0;
}

/* An access estimator's count arrays (AccessEstimator in
 * core/measurement/estimator.py): n and clear of shape (U,), n_pair and
 * clear_pair of shape (U, U), upper triangle only. */
typedef struct {
    double *n;
    double *clear;
    double *n_pair;
    double *clear_pair;
} access_counts;

/* A drift monitor's streams (DriftMonitor in dynamics/detect.py): per
 * stream an int64 sample count and DRIFT_STATE doubles -- Page-Hinkley:
 * mean, low, low_max, high, high_min; CUSUM: mean, pos, neg.  UE streams
 * are (U,), pair streams (U, U) (upper triangle; NULL without pair
 * detectors).  A stream whose count is 0 is a fresh detector: its state
 * is all zeros.  drifted is the (U,) output flag row. */
#define DRIFT_STATE 5

typedef struct {
    int64_t cusum;
    int64_t min_samples;
    double slack;
    double threshold;
    double bar;
    int64_t *ue_count;
    double *ue_state;
    int64_t *pair_count;
    double *pair_state;
    uint8_t *drifted;
} drift_streams;

/* One stream's detector recurrence on sample x; returns whether it fires.
 * The single-stream update's float sequence: mean += (x - mean) / n with
 * n as a double, then Page-Hinkley's low += (x - mean) + slack and
 * high += (x - mean) - slack, or CUSUM's ((pos + x) - mean) - slack and
 * ((neg - x) + mean) - slack; every max/min is the compare it performs
 * (the first argument kept unless the second is strictly greater or
 * smaller), so ties and signed zeros resolve as in Python. */
static int drift_step(
    const drift_streams *m, int64_t *count, double *state, double x)
{
    int64_t n = *count + 1;
    double mean = state[0];
    mean += (x - mean) / (double)n;
    *count = n;
    state[0] = mean;
    if (m->cusum) {
        double pos = ((state[1] + x) - mean) - m->slack;
        double neg = ((state[2] - x) + mean) - m->slack;
        if (!(pos > 0.0))
            pos = 0.0;
        if (!(neg > 0.0))
            neg = 0.0;
        state[1] = pos;
        state[2] = neg;
        return n >= m->min_samples &&
               (neg > pos ? neg : pos) > m->threshold;
    } else {
        double low = state[1] + ((x - mean) + m->slack);
        double low_max = state[2];
        double high = state[3] + ((x - mean) - m->slack);
        double high_min = state[4];
        double falling, rising;
        if (low > low_max)
            low_max = low;
        if (high < high_min)
            high_min = high;
        state[1] = low;
        state[2] = low_max;
        state[3] = high;
        state[4] = high_min;
        if (n < m->min_samples)
            return 0;
        falling = low_max - low;
        rising = high - high_min;
        return (rising > falling ? rising : falling) > m->threshold;
    }
}

/* One UL subframe of access feedback.
 *
 * ids      : the scheduled UE ids, strictly ascending, each in [0, n_ues).
 * accessed : per scheduled UE (aligned with ids), 1 when it accessed.
 * counts   : estimator counts to update, or NULL.
 * monitor  : drift streams to update, or NULL.
 *
 * Returns -1 when ids break their contract (nothing is written), else
 * the number of clients flagged drifted (0 without a monitor).
 *
 * The estimator takes n += 1.0 (and clear += 1.0 on access) per scheduled
 * UE, then per pair in combinations order n_pair += 1.0 (clear_pair
 * += 1.0 when both accessed).  The monitor steps the UE streams in
 * ascending order, then the pair streams in the same pair order; a
 * firing stream flags its clients.  When anything fired, every other
 * client whose stream has min_samples samples and an envelope strictly
 * past bar is flagged with it. */
int64_t access_feedback(
    const int64_t *ids,
    int64_t n_ids,
    const uint8_t *accessed,
    int64_t n_ues,
    const access_counts *counts,
    const drift_streams *monitor)
{
    int64_t i, j, flagged = 0;
    int any = 0;

    if (n_ids < 0 || n_ues < 1)
        return -1;
    for (i = 0; i < n_ids; i++)
        if (ids[i] < 0 || ids[i] >= n_ues || (i > 0 && ids[i] <= ids[i - 1]))
            return -1;

    if (counts) {
        for (i = 0; i < n_ids; i++) {
            int64_t a = ids[i];
            counts->n[a] = counts->n[a] + 1.0;
            if (accessed[i])
                counts->clear[a] = counts->clear[a] + 1.0;
        }
        for (i = 0; i < n_ids; i++) {
            const int64_t row = ids[i] * n_ues;
            for (j = i + 1; j < n_ids; j++) {
                int64_t e = row + ids[j];
                counts->n_pair[e] = counts->n_pair[e] + 1.0;
                if (accessed[i] && accessed[j])
                    counts->clear_pair[e] = counts->clear_pair[e] + 1.0;
            }
        }
    }
    if (!monitor)
        return 0;

    memset(monitor->drifted, 0, (size_t)n_ues);
    for (i = 0; i < n_ids; i++) {
        int64_t a = ids[i];
        if (drift_step(monitor, monitor->ue_count + a,
                       monitor->ue_state + a * DRIFT_STATE,
                       accessed[i] ? 1.0 : 0.0)) {
            monitor->drifted[a] = 1;
            any = 1;
        }
    }
    if (monitor->pair_count) {
        for (i = 0; i < n_ids; i++) {
            const int64_t row = ids[i] * n_ues;
            for (j = i + 1; j < n_ids; j++) {
                int64_t e = row + ids[j];
                if (drift_step(monitor, monitor->pair_count + e,
                               monitor->pair_state + e * DRIFT_STATE,
                               accessed[i] && accessed[j] ? 1.0 : 0.0)) {
                    monitor->drifted[ids[i]] = 1;
                    monitor->drifted[ids[j]] = 1;
                    any = 1;
                }
            }
        }
    }
    if (any) {
        for (i = 0; i < n_ues; i++) {
            const double *state = monitor->ue_state + i * DRIFT_STATE;
            double falling, rising;
            if (monitor->drifted[i] || monitor->ue_count[i] < monitor->min_samples)
                continue;
            if (monitor->cusum) {
                falling = state[1];
                rising = state[2];
            } else {
                falling = state[2] - state[1];
                rising = state[3] - state[4];
            }
            if ((rising > falling ? rising : falling) > monitor->bar)
                monitor->drifted[i] = 1;
        }
        for (i = 0; i < n_ues; i++)
            flagged += monitor->drifted[i];
    }
    return flagged;
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]
#: ``REPRO_KERNEL_SANITIZE=1`` builds with AddressSanitizer and UBSan.  The
#: instrumented library only loads with the ASan runtime preloaded
#: (``LD_PRELOAD=libasan.so``); without it the interpreter aborts instead
#: of falling back, so the build is opt-in.
_SANITIZE_CFLAGS = [
    "-O1",
    "-g",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
]


def _cflags() -> list:
    if os.environ.get("REPRO_KERNEL_SANITIZE"):
        return _CFLAGS + _SANITIZE_CFLAGS
    return _CFLAGS

_kernel: Optional[ctypes.CDLL] = None
_kernel_tried = False


def _cache_path() -> str:
    digest = hashlib.sha256(
        (_C_SOURCE + " ".join(_cflags())).encode()
    ).hexdigest()[:16]
    suffix = ".dll" if sys.platform == "win32" else ".so"
    return os.path.join(
        tempfile.gettempdir(), f"repro_greedy_{digest}{suffix}"
    )


def _build(path: str) -> Optional[str]:
    """Compile the kernel to ``path``; return why that failed, or None."""
    compiler = os.environ.get("CC") or "cc"
    workdir = tempfile.mkdtemp(prefix="repro_kernel_")
    source = os.path.join(workdir, "greedy.c")
    built = os.path.join(workdir, "greedy.so")
    try:
        with open(source, "w") as handle:
            handle.write(_C_SOURCE)
        subprocess.run(
            [compiler, *_cflags(), "-o", built, source],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(built, path)  # atomic: concurrent builders converge
        return None
    except subprocess.CalledProcessError as error:
        stderr = error.stderr.decode("utf-8", "replace").strip().splitlines()
        return (
            f"compiler {compiler!r} exited with status {error.returncode}: "
            + (" | ".join(stderr[-5:]) or "no error output")
        )
    except (OSError, subprocess.SubprocessError) as error:
        return f"compiler {compiler!r} failed: {error}"
    finally:
        for leftover in (source, built):
            try:
                os.unlink(leftover)
            except OSError:
                pass
        try:
            os.rmdir(workdir)
        except OSError:
            pass


def _fall_back(reason: str) -> None:
    warnings.warn(
        "compiled kernels (greedy_fill, speculative_fill, joint_service, "
        f"fading_block, access_feedback) unavailable ({reason}); using the "
        "pure-Python greedy scan, Eqn. 4 step scorer and joint-service "
        "walk, the channel bank's per-step numpy recurrence and the Python "
        "access-feedback loop (same results, slower)",
        RuntimeWarning,
        stacklevel=4,
    )


def _bind(function, *argtypes) -> None:
    function.restype = ctypes.c_int64
    function.argtypes = list(argtypes)


def _load() -> Optional[ctypes.CDLL]:
    path = _cache_path()
    if not os.path.exists(path):
        failure = _build(path)
        if failure is not None:
            _fall_back(failure)
            return None
    try:
        lib = ctypes.CDLL(path)
    except OSError as error:
        _fall_back(f"cannot load {path}: {error}")
        return None
    ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    # weights, n_slots, n_cols, col_start, col_end, size_cap, antennas,
    # cand, n_cand, member_flags, max_new, out_sizes, out_members,
    # out_utils
    walk = (ptr, i64, i64, i64, i64, i64, i64, ptr, i64, ptr, i64, ptr, ptr, ptr)
    _bind(lib.greedy_fill, *walk)
    # ... want_utils, table
    _bind(lib.speculative_fill, *walk, i64, ptr)
    # table, mask, max_streams
    _bind(lib.joint_lookup, ptr, u64, i64)
    # from table, its capacity, to table, its capacity
    _bind(lib.joint_rehash, ptr, i64, ptr, i64)
    # h, block, n_ues, n_steps, n_rbs, rho, c
    _bind(
        lib.fading_block, ptr, ptr, i64, i64, i64,
        ctypes.c_double, ctypes.c_double,
    )
    # ids, n_ids, accessed flags, n_ues, counts, monitor
    _bind(lib.access_feedback, ptr, i64, ctypes.c_char_p, i64, ptr, ptr)
    return lib


def kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` when unavailable."""
    global _kernel, _kernel_tried
    if os.environ.get("REPRO_DISABLE_KERNEL"):
        return None
    if not _kernel_tried:
        _kernel_tried = True
        _kernel = _load()
    return _kernel


def kernel_available() -> bool:
    """Whether the compiled kernels can be used on this machine."""
    return kernel() is not None
