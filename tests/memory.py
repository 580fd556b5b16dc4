"""Peak allocation of one call, for tests that pin how much memory code takes.

numpy reports its array buffers to ``tracemalloc``, so the peak covers
arrays as well as Python objects.
"""

import tracemalloc


def peak_bytes(fn):
    """Run ``fn()`` under ``tracemalloc``; return its result and its peak bytes.

    The peak is counted above what was allocated when ``fn`` started, and
    includes the result while ``fn`` builds it.
    """
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start
