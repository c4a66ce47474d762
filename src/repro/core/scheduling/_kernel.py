"""Compiled kernels for the scheduler's two interpreter-bound loops.

One shared library holds both:

* ``greedy_fill`` — the vectorized schedule builder's greedy chain scan.
  Its cost is not arithmetic but *boxing*: the scan (strict ``1e-15``
  improvement over a running best, ascending id order) must stay a
  sequential recurrence to keep near-tie behaviour reproducible, and in
  pure Python that means materializing every weight as a heap-allocated
  float just to compare it.  The kernel runs the same recurrence over the
  unboxed ``float64`` weight tensors directly.
* ``joint_service`` — a cache miss of the speculative scheduler's
  decodable-service tables (Eqn. 4's ``Σ_{s≤M} π[(i, s)]``, see
  ``_FastJointTables`` in ``core/joint/provider.py``): footprint
  products, the blocked-set convolution and the per-member fold, a few
  hundred float operations per group that the interpreter would pay
  for one by one.

Bit-exactness: each kernel performs exactly the IEEE-754 binary64
operations its Python form performs, in the same order — ``greedy_fill``
only double additions and strict ``>`` compares, ``joint_service`` the
footprint products, ``prob + p * x`` convolution updates and the
partial sums, keyed by local bit codes whose insertion order replays the
Python dicts'.  ``joint_service`` multiplies and adds in one expression,
so ``-ffp-contract=off`` is load-bearing: without it a compiler may fuse
``prob + p * x`` into one FMA, rounding once instead of twice and
changing the last bit (GCC's and clang's defaults both allow that on
targets with FMA, such as AArch64).  ``-fno-fast-math`` likewise forbids
reassociation.  x86-64 and AArch64 both evaluate plain double operations
in binary64, so results are bit-identical to the interpreted paths
(which themselves match the scalar references).  Both kernels keep all
scratch state on the stack — no static buffers — so concurrent callers
never share state.

The library is optional infrastructure, never a correctness dependency:

* compiled lazily on first use with whatever ``cc`` the platform has;
* cached as a shared object in the user's temp directory, keyed by a
  hash of the source (concurrent builds race safely via atomic rename);
* any failure — no compiler, compile error, unloadable object — degrades
  to ``kernel() is None`` and callers keep the pure-Python greedy scan
  and joint-service walk; the failure is reported once per process as a
  :class:`RuntimeWarning` naming the compiler and the tail of its error
  output, because the fallback changes speed (never results);
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

__all__ = ["kernel", "kernel_available", "KERNEL_MAX_SLOTS", "KERNEL_MAX_MEMBERS"]

#: Upper bound on slots (dense UE ids or compact indices) per kernel call;
#: calls beyond it fall back to the pure-Python scan.
KERNEL_MAX_SLOTS = 4096
#: Upper bound on group members per ``joint_service`` call (the scheduler
#: caps groups at ``MAX_ORTHOGONAL_PILOTS``, also 8); larger groups take
#: the pure-Python walk.
KERNEL_MAX_MEMBERS = 8
_MAX_GROUP = 64

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define MAX_SLOTS 4096
#define MAX_GROUP 64

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
        /* Saturated: candidates are the admitted slots, ascending. */
        n_cur = 0;
        for (i = 0; i < n_slots; i++)
            if (member_flags[i])
                cur[n_cur++] = i;
    }

    for (col = col_start; col < col_end; col++) {
        int64_t n_rem = n_cur;
        int64_t gsz = 0;
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

        /* Admission: the greedy order's prefix of newcomers that fits the
         * remaining distinct-client budget. */
        int64_t n_adm = 0;
        int64_t new_count = 0;
        if (max_new > 0) {
            for (i = 0; i < gsz; i++) {
                int64_t slot = group[i];
                if (member_flags[slot])
                    adm[n_adm++] = slot;
                else if (new_count < max_new) {
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
        /* Zero-pad so callers can gather rates over the full member block
         * without reading uninitialized slots. */
        for (i = n_adm; i < size_cap; i++)
            out_members[col * size_cap + i] = 0;
        if (n_adm == 0) {
            out_utils[col] = 0.0;
            continue;
        }

        if (n_adm == gsz) {
            out_utils[col] = current;
        } else {
            int64_t s = n_adm < antennas ? n_adm : antennas;
            const double *w = weights + (s - 1) * n_slots * n_cols + col;
            double trimmed = 0.0;
            for (i = 0; i < n_adm; i++)
                trimmed += w[adm[i] * n_cols];
            out_utils[col] = trimmed;
        }

        if (new_count > 0) {
            for (i = 0; i < n_adm; i++)
                member_flags[adm[i]] = 1;
            max_new -= new_count;
            if (max_new == 0) {
                /* Saturation: freeze candidates to the admitted slots. */
                n_cur = 0;
                for (i = 0; i < n_slots; i++)
                    if (member_flags[i])
                        cur[n_cur++] = i;
            }
        }
    }
    return max_new;
}

#define MAX_MEMBERS 8
#define MAX_PATTERNS (1 << MAX_MEMBERS)

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
int64_t joint_service(
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
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

_kernel: Optional[ctypes.CDLL] = None
_kernel_tried = False


def _cache_path() -> str:
    digest = hashlib.sha256(
        (_C_SOURCE + " ".join(_CFLAGS)).encode()
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
            [compiler, *_CFLAGS, "-o", built, source],
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
        f"compiled scheduling kernels (greedy_fill, joint_service) "
        f"unavailable ({reason}); using the pure-Python greedy scan and "
        "joint-service walk (same results, slower)",
        RuntimeWarning,
        stacklevel=4,
    )


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
    fill = lib.greedy_fill
    fill.restype = ctypes.c_int64
    fill.argtypes = [
        ctypes.c_void_p,  # weights
        ctypes.c_int64,  # n_slots
        ctypes.c_int64,  # n_cols
        ctypes.c_int64,  # col_start
        ctypes.c_int64,  # col_end
        ctypes.c_int64,  # size_cap
        ctypes.c_int64,  # antennas
        ctypes.c_void_p,  # cand
        ctypes.c_int64,  # n_cand
        ctypes.c_void_p,  # member_flags
        ctypes.c_int64,  # max_new
        ctypes.c_void_p,  # out_sizes
        ctypes.c_void_p,  # out_members
        ctypes.c_void_p,  # out_utils
    ]
    service = lib.joint_service
    service.restype = ctypes.c_int64
    service.argtypes = [
        ctypes.c_void_p,  # term_masks
        ctypes.c_void_p,  # idle
        ctypes.c_int64,  # n_terms
        ctypes.c_uint64,  # mask
        ctypes.c_int64,  # max_streams
        ctypes.c_void_p,  # out
    ]
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
