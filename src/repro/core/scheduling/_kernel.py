"""Compiled greedy-scan kernel for the vectorized schedule builder.

The fast flavour's bottleneck is not arithmetic but *boxing*: the greedy
chain scan (strict ``1e-15`` improvement over a running best, ascending id
order) must stay a sequential recurrence to keep near-tie behaviour
reproducible, and in pure Python that means materializing every weight as
a heap-allocated float just to compare it.  This module compiles the same
recurrence to native code once per machine and drives it over the unboxed
``float64`` weight tensors directly.

Bit-exactness: the kernel performs exactly the operations the Python loop
performs — double additions (``base + w``, ``value + 1e-15``) and strict
``>`` comparisons, in the same order.  There are no multiplications, so
FMA contraction cannot alter any result, and x86-64/AArch64 both evaluate
plain double adds in IEEE-754 binary64; the selected groups are therefore
bit-identical to the pure-Python scan (which itself matches the scalar
legacy flavour).  ``-ffp-contract=off`` is passed anyway as belt and
braces.

The kernel is optional infrastructure, never a correctness dependency:

* compiled lazily on first use with whatever ``cc`` the platform has;
* cached as a shared object in the user's temp directory, keyed by a
  hash of the source (concurrent builds race safely via atomic rename);
* any failure — no compiler, compile error, unloadable object — degrades
  to ``kernel() is None`` and callers keep the pure-Python scan; the
  failure is reported once per process as a :class:`RuntimeWarning`
  naming the compiler and the tail of its error output, because the
  fallback changes speed (never results);
* ``REPRO_DISABLE_KERNEL=1`` forces the pure path (used by tests to pin
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

__all__ = ["kernel", "kernel_available", "KERNEL_MAX_SLOTS"]

#: Upper bound on slots (dense UE ids or compact indices) per kernel call;
#: calls beyond it fall back to the pure-Python scan.
KERNEL_MAX_SLOTS = 4096
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
        f"greedy scheduling kernel unavailable ({reason}); using the "
        "pure-Python scan (same results, slower)",
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
    """Whether the compiled greedy kernel can be used on this machine."""
    return kernel() is not None
