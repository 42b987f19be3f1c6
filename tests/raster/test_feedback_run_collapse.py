"""The feedback pass drops consecutive repeat pages before its sort.

Keeping the first ref of each run keeps every page's first touch, so
``page_requests`` must equal the plain first-touch-ordered unique pages
of the coarsened stream, on streams dense in runs that straddle page
boundaries and pages that come back after other pages.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.feedback import page_requests
from repro.texture.tiling import L1_TILE_TEXELS, coarsen_refs, pack_tile_refs


def first_touch_pages(refs, page_texels):
    """The definition: unique coarsened pages in first-touch order."""
    pages = coarsen_refs(refs, page_texels // L1_TILE_TEXELS)
    return list(dict.fromkeys(pages.tolist()))


@given(
    seed=st.integers(0, 10_000),
    page_texels=st.sampled_from([8, 16, 32, 64]),
)
@settings(max_examples=100, deadline=None)
def test_matches_first_touch_unique(seed, page_texels):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    # A walk over a small tile grid: runs of refs inside one page, steps
    # across page edges, and jumps back to pages seen before.
    tx = np.cumsum(rng.integers(-1, 2, n)) % 32
    ty = np.cumsum(rng.integers(-1, 2, n) * (rng.random(n) < 0.2)) % 32
    refs = pack_tile_refs(rng.integers(0, 2, n), rng.integers(0, 2, n), ty, tx)
    refs = np.repeat(refs, rng.integers(1, 5, n))
    got = page_requests(refs, page_texels)
    assert got.dtype == np.int64
    assert got.tolist() == first_touch_pages(refs, page_texels)


def test_empty_frame():
    out = page_requests(np.empty(0, dtype=np.int64), 32)
    assert out.dtype == np.int64 and len(out) == 0
