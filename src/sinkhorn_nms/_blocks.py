"""Row blocks that bound the temporaries of the blocked array kernels.

A kernel that would broadcast to a 3-d temporary (the k-means distances)
takes its rows in blocks whose temporaries fit in
``BLOCK_BYTES``, so that they stay in cache and the allocator need not keep
a large arena; one scratch buffer serves every block of a call.  At the
desk-scale point (256 x 16) every kernel is a single block.
"""

from __future__ import annotations

BLOCK_BYTES = 1 << 20


def block_rows(n: int, row_bytes: int) -> int:
    """Rows per block of ``n`` rows whose temporaries take ``row_bytes`` each:
    as many as fit in ``BLOCK_BYTES``, at least one and at most ``n``."""
    return max(1, min(n, BLOCK_BYTES // max(row_bytes, 1)))
