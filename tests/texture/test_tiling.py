"""Unit and property tests for hierarchical tiling and address translation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.texture import Texture
from repro.texture.tiling import (
    _TID_MASK,
    AddressSpace,
    L1_TILE_TEXELS,
    MAX_MIP_LEVELS,
    TextureLayout,
    coarsen_refs,
    morton2,
    pack_tile_refs,
    unpack_tile_refs,
)


class TestPacking:
    def test_roundtrip_scalar(self):
        p = pack_tile_refs(5, 3, 100, 200)
        f = unpack_tile_refs(p)
        assert (int(f.tid), int(f.mip), int(f.tile_y), int(f.tile_x)) == (5, 3, 100, 200)

    @given(
        st.integers(0, 2**14 - 1),
        st.integers(0, 31),
        st.integers(0, 2**22 - 1),
        st.integers(0, 2**22 - 1),
    )
    @settings(max_examples=200)
    def test_property_roundtrip(self, tid, mip, ty, tx):
        f = unpack_tile_refs(pack_tile_refs(tid, mip, ty, tx))
        assert (int(f.tid), int(f.mip), int(f.tile_y), int(f.tile_x)) == (tid, mip, ty, tx)

    def test_packed_values_nonnegative(self):
        p = pack_tile_refs(2**14 - 1, 31, 2**22 - 1, 2**22 - 1)
        assert int(p) >= 0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pack_tile_refs(2**14, 0, 0, 0)
        with pytest.raises(ValueError):
            pack_tile_refs(0, 32, 0, 0)
        with pytest.raises(ValueError):
            pack_tile_refs(0, 0, -1, 0)

    def test_vectorized_matches_scalar(self):
        tids = np.array([0, 1, 2])
        p = pack_tile_refs(tids, 1, 2, np.array([3, 4, 5]))
        for i in range(3):
            assert int(p[i]) == int(pack_tile_refs(int(tids[i]), 1, 2, 3 + i))

    def test_distinct_fields_give_distinct_packed(self):
        a = pack_tile_refs(1, 0, 0, 0)
        b = pack_tile_refs(0, 1, 0, 0)
        c = pack_tile_refs(0, 0, 1, 0)
        d = pack_tile_refs(0, 0, 0, 1)
        assert len({int(a), int(b), int(c), int(d)}) == 4


class TestCoarsen:
    def test_factor_one_is_identity(self):
        p = pack_tile_refs(1, 2, 7, 9)
        assert int(coarsen_refs(p, 1)) == int(p)

    def test_factor_four_shifts_coords(self):
        p = pack_tile_refs(1, 2, 7, 9)
        f = unpack_tile_refs(coarsen_refs(p, 4))
        assert (int(f.tile_y), int(f.tile_x)) == (1, 2)
        assert (int(f.tid), int(f.mip)) == (1, 2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            coarsen_refs(pack_tile_refs(0, 0, 0, 0), 3)

    def test_coarsening_merges_neighbors(self):
        # 4x4 tiles (0,0),(1,0),(0,1),(1,1) all fall in 8x8 block (0,0).
        refs = pack_tile_refs(0, 0, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        assert len(np.unique(coarsen_refs(refs, 2))) == 1


class TestMorton:
    def test_interleaves_bits(self):
        assert int(morton2(np.int64(1), np.int64(0))) == 1
        assert int(morton2(np.int64(0), np.int64(1))) == 2
        assert int(morton2(np.int64(3), np.int64(3))) == 15

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=100)
    def test_property_injective(self, x, y):
        m = int(morton2(np.int64(x), np.int64(y)))
        # De-interleave and compare.
        def extract(v):
            out = 0
            for i in range(16):
                out |= ((v >> (2 * i)) & 1) << i
            return out

        assert extract(m) == x
        assert extract(m >> 1) == y


class TestTextureLayout:
    def test_block_grid_64x64_16(self):
        layout = TextureLayout.for_texture(Texture("t", 64, 64), 16)
        # Levels: 64,32,16,8,4,2,1 -> block grids 4x4,2x2,1x1,1x1,...
        assert layout.blocks_w[:3] == (4, 2, 1)
        assert layout.total_blocks == 16 + 4 + 1 + 1 + 1 + 1 + 1

    def test_level_bases_are_cumulative(self):
        layout = TextureLayout.for_texture(Texture("t", 64, 64), 16)
        assert layout.level_base[0] == 0
        assert layout.level_base[1] == 16
        assert layout.level_base[2] == 20

    def test_sub_blocks_per_block(self):
        t = Texture("t", 64, 64)
        assert TextureLayout.for_texture(t, 8).sub_blocks_per_block == 4
        assert TextureLayout.for_texture(t, 16).sub_blocks_per_block == 16
        assert TextureLayout.for_texture(t, 32).sub_blocks_per_block == 64

    def test_rejects_bad_tile_size(self):
        t = Texture("t", 64, 64)
        with pytest.raises(ValueError):
            TextureLayout.for_texture(t, 12)
        with pytest.raises(ValueError):
            TextureLayout.for_texture(t, 2)

    def test_virtual_address_within_block(self):
        layout = TextureLayout.for_texture(Texture("t", 64, 64), 16)
        # Tile (1, 2) in 4x4 units is inside L2 block (0, 0); sub = 2*4+1.
        l2, l1 = layout.virtual_address(0, 1, 2)
        assert l2 == 0
        assert l1 == 9

    def test_virtual_address_block_stride(self):
        layout = TextureLayout.for_texture(Texture("t", 64, 64), 16)
        # Tile (4, 0) starts the second L2 block of row 0.
        l2, l1 = layout.virtual_address(0, 4, 0)
        assert l2 == 1
        assert l1 == 0

    def test_virtual_address_higher_level_offsets(self):
        layout = TextureLayout.for_texture(Texture("t", 64, 64), 16)
        l2, l1 = layout.virtual_address(1, 0, 0)
        assert l2 == 16  # first block of level 1

    @given(
        st.sampled_from([8, 16, 32]),
        st.integers(0, 15),
        st.integers(0, 15),
    )
    @settings(max_examples=100)
    def test_property_addresses_unique(self, l2_size, tx, ty):
        layout = TextureLayout.for_texture(Texture("t", 64, 64), l2_size)
        seen = set()
        for yy in range(16):
            for xx in range(16):
                seen.add(layout.virtual_address(0, xx, yy))
        assert len(seen) == 256  # every 4x4 tile of level 0 is unique


class TestAddressSpace:
    @pytest.fixture
    def space(self):
        return AddressSpace(
            [Texture("a", 64, 64), Texture("b", 128, 32), Texture("c", 16, 16)]
        )

    def test_total_l2_blocks_sums_textures(self, space):
        total = space.total_l2_blocks(16)
        expected = sum(
            TextureLayout.for_texture(t, 16).total_blocks for t in space.textures
        )
        assert total == expected

    def test_translate_l2_matches_scalar_layout(self, space):
        refs = pack_tile_refs(
            np.array([0, 1, 2, 1]),
            np.array([0, 1, 0, 0]),
            np.array([3, 1, 2, 0]),
            np.array([5, 2, 1, 7]),
        )
        tid, l2, l1 = space.translate_l2(refs, 16)
        for i in range(4):
            layout = space.layout(int(tid[i]), 16)
            f = unpack_tile_refs(refs[i : i + 1])
            el2, el1 = layout.virtual_address(
                int(f.mip[0]), int(f.tile_x[0]), int(f.tile_y[0])
            )
            assert (int(l2[i]), int(l1[i])) == (el2, el1)

    def test_global_l2_ids_disjoint_between_textures(self, space):
        # Same local tile coordinates in different textures must map to
        # different global ids.
        refs = pack_tile_refs(np.array([0, 1, 2]), 0, 0, 0)
        ids = space.global_l2_ids(refs, 16)
        assert len(np.unique(ids)) == 3

    def test_l2_extent_contiguous(self, space):
        starts = []
        for tid in range(3):
            tstart, tlen = space.l2_extent(tid, 16)
            starts.append((tstart, tlen))
        assert starts[0][0] == 0
        assert starts[1][0] == starts[0][0] + starts[0][1]
        assert starts[2][0] == starts[1][0] + starts[1][1]

    def test_global_ids_below_total(self, space):
        refs = pack_tile_refs(2, 2, 0, 0)
        ids = space.global_l2_ids(np.array([refs]), 16)
        assert 0 <= int(ids[0]) < space.total_l2_blocks(16)

    def test_l1_set_indices_in_range(self, space):
        refs = pack_tile_refs(
            np.zeros(100, dtype=np.int64),
            0,
            np.arange(100) // 10,
            np.arange(100) % 10,
        )
        sets = space.l1_set_indices(refs, 16)
        assert sets.min() >= 0
        assert sets.max() < 16

    def test_l1_set_indices_spread_neighbors(self, space):
        # Horizontally and vertically adjacent tiles must land in
        # different sets (the 6D-blocked property).
        r0 = pack_tile_refs(0, 0, 0, 0)
        r1 = pack_tile_refs(0, 0, 0, 1)
        r2 = pack_tile_refs(0, 0, 1, 0)
        sets = space.l1_set_indices(np.array([r0, r1, r2]), 64)
        assert len(set(sets.tolist())) == 3

    def test_l1_sets_require_power_of_two(self, space):
        with pytest.raises(ValueError):
            space.l1_set_indices(np.array([0]), 12)

    def test_wrap_texels(self, space):
        x, y = space.wrap_texels(np.array([0]), np.array([0]), np.array([65]), np.array([-1]))
        assert int(x[0]) == 1
        assert int(y[0]) == 63

    def test_too_many_mip_levels_rejected(self):
        # 2^22 wide would need 23 levels > MAX_MIP_LEVELS.
        big = Texture("big", 1 << 17, 1)
        with pytest.raises(ValueError):
            AddressSpace([big])

    def test_empty_space(self):
        space = AddressSpace([])
        assert space.texture_count == 0
        assert space.total_l1_tiles == 0


class TestL1SetIndexFastPath:
    def test_matches_masked_tile_codes_at_field_extremes(self):
        # The fast path reads the per-(tid, mip) base through the packed
        # ref's top fields and the Morton code through a low-bit table;
        # both must agree with the full code at the largest tid and mip
        # an address space holds and at every power-of-two set count.
        textures = [Texture(f"t{i}", 4, 4) for i in range(_TID_MASK - 1)]
        textures.append(Texture("deep", 1 << 15, 1 << 15))  # 16 MIP levels
        space = AddressSpace(textures)
        max_tid = space.texture_count - 1
        rng = np.random.default_rng(0)
        n = 4096
        top = (1 << 22) - 1
        tid = np.concatenate([[0, max_tid, max_tid, 0], rng.integers(0, max_tid + 1, n)])
        mip = np.concatenate(
            [[0, MAX_MIP_LEVELS - 1, 0, MAX_MIP_LEVELS - 1],
             rng.integers(0, MAX_MIP_LEVELS, n)]
        )
        ty = np.concatenate([[0, top, top, 1], rng.integers(0, top + 1, n)])
        tx = np.concatenate([[0, top, 1, top], rng.integers(0, top + 1, n)])
        refs = pack_tile_refs(tid, mip, ty, tx)
        codes = space.l1_tile_codes(refs)
        for k in range(17):
            n_sets = 1 << k
            np.testing.assert_array_equal(
                space.l1_set_indices(refs, n_sets), codes & (n_sets - 1)
            )
