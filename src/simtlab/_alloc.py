"""Process-wide glibc allocator tuning for numeric churn.

The training loops allocate and free many ~100KB temporaries. With
glibc's default trim threshold those blocks go straight back to the
kernel and every reuse faults the pages in again. Raising the trim/mmap
thresholds keeps freed blocks on the process free list; on systems where
this does not apply it is a no-op.

Measured with the benchmark in 4 alternating pairs per workload at seed 1
(2 vCPU, Python 3.11.7, numpy 2.4.6), with this tuning -> without it:
on ``simul_eval``, ``setup_s`` 4.54 -> 5.13 s (+13.0%) and
``pretrain_tokens_per_s`` 3217 -> 2835 (-11.9%), both worse without it in
4 of 4 pairs, while ``peak_rss_mb`` went 167.4 -> 165.3; on ``rl_visual``,
``setup_s`` +10.7% and ``pretrain_tokens_per_s`` -8.0%, worse in 4 of 4,
while ``peak_rss_mb`` went 233.0 -> 229.1. Transcript fingerprints were
identical. The tuning buys about a tenth of set-up and pretraining time
for about 2% more peak memory.
"""

import ctypes
import logging

log = logging.getLogger(__name__)

_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3


def tune_allocator() -> bool:
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = (libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
              and libc.mallopt(_M_TOP_PAD, 1 << 26)
              and libc.mallopt(_M_MMAP_THRESHOLD, 1 << 30))
        return bool(ok)
    except OSError:  # non-glibc platform
        log.debug("allocator tuning unavailable on this platform")
        return False
