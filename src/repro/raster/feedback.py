"""Feedback-driven visible-page pass for virtual texturing.

Real VT renderers run a feedback pass: render (or sample) the frame,
collect which virtual pages each fragment touched at its selected MIP
level, and hand the unique page set to the streamer. This reproduction
already has exactly that signal — the rasterizer's per-fragment trace
*is* the per-pixel MIP/footprint sampling — so the feedback pass reduces
to coarsening the frame's packed tile references to page granularity and
keeping first-touch-ordered unique pages. First-touch order matters: it
makes request order (and therefore streamer state and RNG draws)
deterministic and identical across engines.

Consecutive refs almost always fall in the same page, so consecutive
repeats of a page id are dropped before the sort: keeping the first of
each run keeps every page's first touch, so the output is unchanged. It is
the one-set case of the L1's MRU re-hit filter
(:func:`repro.core.l1_cache.mru_rehits`): the first-touch pages are the
misses of an unbounded LRU stack, and a repeat re-touches its top.
"""

from __future__ import annotations

import numpy as np

from repro.core.l1_cache import mru_rehits
from repro.texture.tiling import L1_TILE_TEXELS, coarsen_refs

__all__ = ["page_requests"]


def page_requests(refs: np.ndarray, page_texels: int) -> np.ndarray:
    """Unique visible pages of one frame, in first-touch order.

    Args:
        refs: the frame's packed 4x4-tile reference stream (the
            rasterizer's per-fragment footprint samples).
        page_texels: VT page edge in texels.
    """
    pages = coarsen_refs(refs, page_texels // L1_TILE_TEXELS)
    pages = pages[~mru_rehits(pages)]
    _, first = np.unique(pages, return_index=True)
    return pages[np.sort(first)]
