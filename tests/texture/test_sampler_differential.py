"""Differential proof: bilinear/trilinear footprints == a per-fragment loop.

``footprint_tiles_grid`` packs bilinear footprints with inlined shifts and
a compare-based wrap of the ``+1`` neighbour. The oracle here does it the
plain way, one fragment at a time: Python ``%`` wraps, floor division into
4x4 tiles, and ``pack_tile_refs(..., check=True)`` so any out-of-range
field would raise instead of silently bleeding into a neighbour field.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.sampler import FilterMode, footprint_tiles_grid
from repro.texture.texture import Texture
from repro.texture.tiling import L1_TILE_TEXELS, pack_tile_refs


def bilinear_refs(tex, tid, u, v, level):
    """One fragment's four tile refs at ``level``, in footprint order."""
    w, h = tex.level_dims(level)
    x0 = math.floor(u * w - 0.5)
    y0 = math.floor(v * h - 0.5)
    return [
        int(pack_tile_refs(tid, level, (yy % h) // L1_TILE_TEXELS,
                           (xx % w) // L1_TILE_TEXELS, check=True))
        for yy in (y0, y0 + 1)
        for xx in (x0, x0 + 1)
    ]


def reference_grid(tex, tid, u, v, lod, mode):
    last = tex.level_count - 1
    rows = []
    for ui, vi, li in zip(u.tolist(), v.tolist(), lod.tolist()):
        if mode is FilterMode.BILINEAR:
            m = min(max(math.floor(li + 0.5), 0), last)
            rows.append(bilinear_refs(tex, tid, ui, vi, m))
        else:
            m0 = min(max(math.floor(li), 0), last)
            m1 = min(m0 + 1, last)
            rows.append(bilinear_refs(tex, tid, ui, vi, m0)
                        + bilinear_refs(tex, tid, ui, vi, m1))
    return np.array(rows, dtype=np.int64).reshape(len(u), -1)


def assert_matches_reference(tex, tid, u, v, lod, mode):
    got = footprint_tiles_grid(tex, tid, u, v, lod, mode)
    want = reference_grid(tex, tid, u, v, lod, mode)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


# Non-power-of-two sizes included; 1 and 2 put 1x1 levels in reach of
# small LODs, and every pyramid ends in a 1x1 level.
dims = st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 64, 256, 1024]))
coord = st.one_of(
    st.floats(-2.0, 3.0),
    st.floats(-1e6, 1e6),
    st.integers(-50, 50).map(float),
)
lods = st.floats(-3.0, 12.0)


@st.composite
def fragments(draw):
    tex = Texture("t", draw(dims), draw(dims))
    n = draw(st.integers(1, 40))
    u = np.array([draw(coord) for _ in range(n)], dtype=np.float64)
    v = np.array([draw(coord) for _ in range(n)], dtype=np.float64)
    lod = np.array([draw(lods) for _ in range(n)], dtype=np.float64)
    return tex, draw(st.integers(0, (1 << 14) - 1)), u, v, lod


class TestBilinearPackingDifferential:
    @given(fragments(), st.sampled_from([FilterMode.BILINEAR,
                                         FilterMode.TRILINEAR]))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_per_fragment_packing(self, frag_args, mode):
        tex, tid, u, v, lod = frag_args
        assert_matches_reference(tex, tid, u, v, lod, mode)

    def test_wrap_column_and_row(self):
        # u, v placed so x0 = w - 1 and y0 = h - 1 at every level: the +1
        # neighbour wraps to column/row 0 of each non-power-of-two level.
        tex = Texture("npot", 300, 77)
        levels = np.arange(tex.level_count)
        lod = levels.astype(np.float64)
        w = np.array([tex.level_dims(int(m))[0] for m in levels], dtype=np.float64)
        h = np.array([tex.level_dims(int(m))[1] for m in levels], dtype=np.float64)
        u = (w - 0.25) / w
        v = (h - 0.25) / h
        got = footprint_tiles_grid(tex, 5, u, v, lod, FilterMode.BILINEAR)
        assert (np.floor(u * w - 0.5) == w - 1).all()
        assert_matches_reference(tex, 5, u, v, lod, FilterMode.BILINEAR)
        # Columns 1 and 3 are the wrapped x neighbour: tile column 0.
        assert (got[:, [1, 3]] & ((1 << 22) - 1) == 0).all()

    def test_one_by_one_levels_and_extreme_coordinates(self):
        tex = Texture("strip", 5, 1)  # 5x1 -> 2x1 -> 1x1
        u = np.array([-1e6 - 0.3, 1e6 + 0.7, -0.5, 0.0, 0.999999])
        v = np.array([3.25, -7.5, 1e5, -1e5, 0.5])
        for lod in (np.zeros(5), np.full(5, 1.0), np.full(5, 40.0)):
            for mode in (FilterMode.BILINEAR, FilterMode.TRILINEAR):
                assert_matches_reference(tex, (1 << 14) - 1, u, v, lod, mode)
