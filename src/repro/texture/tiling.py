"""Hierarchical texture tiling and virtual texture addresses (paper §2.2).

The paper addresses texture hierarchically: a texture id ``tid``, an L2 block
number ``L2`` unique within the texture (numbered sequentially across MIP
levels, each level starting a fresh block), and an L1 sub-block number ``L1``
unique within its parent L2 block. The concatenation ``<tid, L2, L1>``
identifies a unique 4x4-texel L1 tile among all textures.

The canonical access event in this reproduction is a **4x4-texel L1 tile
reference** packed into a single non-negative int64:

    bits 49..62  tid      (14 bits)
    bits 44..48  mip      (5 bits)
    bits 22..43  tile_y   (22 bits, in 4x4-texel units)
    bits  0..21  tile_x   (22 bits, in 4x4-texel units)

Packing the finest granularity means one rendered trace serves every
experiment: 8x8 L1 tiles (Fig 6) and 8x8/16x16/32x32 L2 blocks (Figs 4, 5,
10) are all derived by shifting the tile coordinates.

:class:`AddressSpace` is the translation machinery: built over an ordered
texture set, it converts packed references into ``<tid, L2, L1>`` virtual
addresses for any L2 tile size — "straightforward ... in integer arithmetic
in a small number of shifts, additions, and a table look-up" (§2.2), which is
exactly how the vectorized implementation below works.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.texture.texture import Texture

__all__ = [
    "MAX_MIP_LEVELS",
    "L1_TILE_TEXELS",
    "CACHE_TEXEL_BYTES",
    "L1_BLOCK_BYTES",
    "L2_TILE_CHOICES",
    "pack_tile_refs",
    "unpack_tile_refs",
    "coarsen_refs",
    "PackedRefFields",
    "TextureLayout",
    "AddressSpace",
]

# The paper fixes L1 tiles at 4x4 texels of 32-bit data (§2.3).
L1_TILE_TEXELS = 4
CACHE_TEXEL_BYTES = 4
L1_BLOCK_BYTES = L1_TILE_TEXELS * L1_TILE_TEXELS * CACHE_TEXEL_BYTES  # 64 bytes

# L2 tile sizes studied in the paper (§3.2).
L2_TILE_CHOICES = (8, 16, 32)

MAX_MIP_LEVELS = 16

_TX_BITS = 22
_TY_BITS = 22
_MIP_BITS = 5
_TID_BITS = 14
_TY_SHIFT = _TX_BITS
_MIP_SHIFT = _TX_BITS + _TY_BITS
_TID_SHIFT = _MIP_SHIFT + _MIP_BITS
_TX_MASK = (1 << _TX_BITS) - 1
_TY_MASK = (1 << _TY_BITS) - 1
_MIP_MASK = (1 << _MIP_BITS) - 1
_TID_MASK = (1 << _TID_BITS) - 1


class PackedRefFields(NamedTuple):
    """Unpacked fields of a packed tile reference (arrays or scalars)."""

    tid: np.ndarray
    mip: np.ndarray
    tile_y: np.ndarray
    tile_x: np.ndarray


def pack_tile_refs(
    tid: np.ndarray | int,
    mip: np.ndarray | int,
    tile_y: np.ndarray | int,
    tile_x: np.ndarray | int,
    check: bool = True,
) -> np.ndarray:
    """Pack (tid, mip, tile_y, tile_x) into int64 tile references.

    All arguments broadcast; the result is an int64 array (or 0-d array for
    scalar inputs).
    """
    tid = np.asarray(tid, dtype=np.int64)
    mip = np.asarray(mip, dtype=np.int64)
    ty = np.asarray(tile_y, dtype=np.int64)
    tx = np.asarray(tile_x, dtype=np.int64)
    if check:
        if np.any(tid < 0) or np.any(tid > _TID_MASK):
            raise ValueError(f"tid out of range [0, {_TID_MASK}]")
        if np.any(mip < 0) or np.any(mip > _MIP_MASK):
            raise ValueError(f"mip out of range [0, {_MIP_MASK}]")
        if np.any(ty < 0) or np.any(ty > _TY_MASK) or np.any(tx < 0) or np.any(tx > _TX_MASK):
            raise ValueError("tile coordinate out of range")
    return (tid << _TID_SHIFT) | (mip << _MIP_SHIFT) | (ty << _TY_SHIFT) | tx


def unpack_tile_refs(packed: np.ndarray) -> PackedRefFields:
    """Inverse of :func:`pack_tile_refs`."""
    p = np.asarray(packed, dtype=np.int64)
    return PackedRefFields(
        tid=(p >> _TID_SHIFT) & _TID_MASK,
        mip=(p >> _MIP_SHIFT) & _MIP_MASK,
        tile_y=(p >> _TY_SHIFT) & _TY_MASK,
        tile_x=p & _TX_MASK,
    )


def coarsen_refs(packed: np.ndarray, factor: int) -> np.ndarray:
    """Re-express 4x4-tile references at a coarser tile granularity.

    ``factor`` is the linear coarsening (2 maps 4x4 tiles to 8x8 tiles, 4 to
    16x16, 8 to 32x32). The result is again a valid packed reference whose
    tile coordinates are in coarse-tile units, usable as a unique block id
    (e.g. with ``np.unique`` for working-set counting).
    """
    if factor < 1 or (factor & (factor - 1)):
        raise ValueError(f"factor must be a positive power of two, got {factor}")
    if factor == 1:
        return np.asarray(packed, dtype=np.int64)
    shift = factor.bit_length() - 1
    f = unpack_tile_refs(packed)
    return pack_tile_refs(f.tid, f.mip, f.tile_y >> shift, f.tile_x >> shift, check=False)


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each element to even bit positions."""
    x = x & np.int64(0xFFFF)
    x = (x | (x << 8)) & np.int64(0x00FF00FF)
    x = (x | (x << 4)) & np.int64(0x0F0F0F0F)
    x = (x | (x << 2)) & np.int64(0x33333333)
    x = (x | (x << 1)) & np.int64(0x55555555)
    return x


def morton2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleave the low 16 bits of x and y (Morton/Z-order code).

    Used to build L1 set indices that mix the two tile-coordinate axes — the
    effect of Hakura's "6D blocked representation": vertically and
    horizontally adjacent tiles land in different cache sets.
    """
    return _part1by1(np.asarray(x, dtype=np.int64)) | (
        _part1by1(np.asarray(y, dtype=np.int64)) << 1
    )


@functools.lru_cache(maxsize=None)
def _morton_low_table(k: int) -> np.ndarray:
    """Morton codes of every ``(tile_y, tile_x)`` low-bit pair of a k-bit index.

    Entry ``(ty << xbits) | tx`` (``xbits = (k + 1) // 2`` low x bits,
    ``k // 2`` low y bits) is ``morton2(tx, ty)``: the only Morton bits
    that survive masking to ``2**k`` sets. Lets the set-index fast path
    replace the five-step interleave with one table gather.
    """
    xbits = (k + 1) // 2
    tx = np.arange(1 << xbits, dtype=np.int64)
    ty = np.arange(1 << (k // 2), dtype=np.int64)
    table = morton2(tx[None, :], ty[:, None]).ravel()
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class TextureLayout:
    """Block layout of one texture at a given L2 tile size.

    Implements the paper's L2 block numbering: "L2 block numbers are assigned
    sequentially from the first block of the lowest MIP level to the last
    block of the highest MIP level. Each new level of the MIP begins with a
    unique L2 block." We number from level 0 (highest resolution) upward;
    only uniqueness and per-level contiguity matter to the caches.

    Attributes:
        l2_tile_texels: L2 block edge in texels (8, 16, or 32).
        blocks_w / blocks_h: per-MIP-level L2 block grid dimensions.
        level_base: per-level first L2 block number within the texture.
        total_blocks: L2 blocks in the whole texture (== page-table ``tlen``).
        sub_blocks_per_block: 4x4 L1 sub-blocks per L2 block.
    """

    l2_tile_texels: int
    blocks_w: tuple[int, ...]
    blocks_h: tuple[int, ...]
    level_base: tuple[int, ...]
    total_blocks: int

    @property
    def sub_blocks_per_block(self) -> int:
        """4x4 L1 sub-blocks per L2 block."""
        edge = self.l2_tile_texels // L1_TILE_TEXELS
        return edge * edge

    @staticmethod
    def for_texture(texture: Texture, l2_tile_texels: int) -> "TextureLayout":
        """Compute the layout of ``texture`` for a given L2 tile size."""
        if l2_tile_texels < L1_TILE_TEXELS or (l2_tile_texels & (l2_tile_texels - 1)):
            raise ValueError(
                f"L2 tile size must be a power of two >= {L1_TILE_TEXELS}, "
                f"got {l2_tile_texels}"
            )
        blocks_w = []
        blocks_h = []
        level_base = []
        total = 0
        for m in range(texture.level_count):
            w, h = texture.level_dims(m)
            bw = -(-w // l2_tile_texels)  # ceil division
            bh = -(-h // l2_tile_texels)
            blocks_w.append(bw)
            blocks_h.append(bh)
            level_base.append(total)
            total += bw * bh
        return TextureLayout(
            l2_tile_texels=l2_tile_texels,
            blocks_w=tuple(blocks_w),
            blocks_h=tuple(blocks_h),
            level_base=tuple(level_base),
            total_blocks=total,
        )

    def virtual_address(self, mip: int, tile_x: int, tile_y: int) -> tuple[int, int]:
        """Translate a 4x4-tile coordinate into ``(L2, L1)`` within the texture.

        ``tile_x``/``tile_y`` are in 4x4-texel units at MIP level ``mip``;
        the return is the L2 block number within the texture and the L1
        sub-block number within that L2 block (row-major within the block).
        """
        shift = (self.l2_tile_texels // L1_TILE_TEXELS).bit_length() - 1
        mask = (1 << shift) - 1
        bx = tile_x >> shift
        by = tile_y >> shift
        l2 = self.level_base[mip] + by * self.blocks_w[mip] + bx
        l1 = (tile_y & mask) * (self.l2_tile_texels // L1_TILE_TEXELS) + (tile_x & mask)
        return l2, l1


class AddressSpace:
    """Vectorized address translation over an ordered texture set.

    The texture at position ``i`` of ``textures`` has ``tid == i`` (the
    :class:`~repro.texture.manager.TextureManager` maintains this ordering).
    The address space precomputes per-(tid, mip) lookup tables so that whole
    reference streams translate with a handful of numpy gathers — the
    vectorized equivalent of the paper's "shifts, additions, and a table
    look-up".
    """

    def __init__(self, textures: Sequence[Texture]):
        if len(textures) > _TID_MASK:
            raise ValueError(f"too many textures ({len(textures)} > {_TID_MASK})")
        self.textures = list(textures)
        n = len(self.textures)
        size = max(n, 1) * MAX_MIP_LEVELS

        # Per-(tid, mip) level dimensions in texels, for UV wrapping.
        self.level_w = np.ones(size, dtype=np.int64)
        self.level_h = np.ones(size, dtype=np.int64)
        # Per-(tid, mip) global base of 4x4 tiles: a distinct running offset
        # per level so L1 set indexing decorrelates textures and MIP levels.
        self.l1_tile_base = np.zeros(size, dtype=np.int64)
        self.l1_tiles_w = np.ones(size, dtype=np.int64)
        self.level_count = np.zeros(max(n, 1), dtype=np.int64)

        running = 0
        for tid, tex in enumerate(self.textures):
            if tex.level_count > MAX_MIP_LEVELS:
                raise ValueError(
                    f"texture {tex.name!r} has {tex.level_count} MIP levels; "
                    f"the packed address format supports {MAX_MIP_LEVELS}"
                )
            self.level_count[tid] = tex.level_count
            for m in range(tex.level_count):
                w, h = tex.level_dims(m)
                key = tid * MAX_MIP_LEVELS + m
                self.level_w[key] = w
                self.level_h[key] = h
                tw = -(-w // L1_TILE_TEXELS)
                th = -(-h // L1_TILE_TEXELS)
                self.l1_tiles_w[key] = tw
                self.l1_tile_base[key] = running
                running += tw * th
        self.total_l1_tiles = running
        # The same bases indexed by ``ref >> _MIP_SHIFT`` (``tid << 5 | mip``:
        # the tid field is on top and the mip field 5 bits wide), so the set
        # index reads a ref's base with one shift and one gather.
        by_field = np.zeros((max(n, 1), 1 << _MIP_BITS), dtype=np.int64)
        by_field[:, :MAX_MIP_LEVELS] = self.l1_tile_base.reshape(-1, MAX_MIP_LEVELS)
        self._l1_base_by_field = by_field.ravel()

        # Lazily-built per-L2-size translation tables.
        self._l2_tables: dict[int, dict[str, np.ndarray]] = {}
        self._layouts: dict[tuple[int, int], TextureLayout] = {}

    # ------------------------------------------------------------------
    # Layout access
    # ------------------------------------------------------------------
    @property
    def texture_count(self) -> int:
        """Number of textures in the address space."""
        return len(self.textures)

    def layout(self, tid: int, l2_tile_texels: int) -> TextureLayout:
        """Per-texture :class:`TextureLayout` (cached)."""
        key = (tid, l2_tile_texels)
        if key not in self._layouts:
            self._layouts[key] = TextureLayout.for_texture(
                self.textures[tid], l2_tile_texels
            )
        return self._layouts[key]

    def total_l2_blocks(self, l2_tile_texels: int) -> int:
        """Total L2 blocks over all textures (page-table entry count)."""
        return sum(
            self.layout(tid, l2_tile_texels).total_blocks
            for tid in range(self.texture_count)
        )

    def _l2_table(self, l2_tile_texels: int) -> dict[str, np.ndarray]:
        """Per-(tid, mip) tables for vectorized L2 translation."""
        if l2_tile_texels not in self._l2_tables:
            n = max(self.texture_count, 1)
            size = n * MAX_MIP_LEVELS
            blocks_w = np.ones(size, dtype=np.int64)
            level_base = np.zeros(size, dtype=np.int64)
            extent_base = np.zeros(n, dtype=np.int64)
            running = 0
            for tid in range(self.texture_count):
                layout = self.layout(tid, l2_tile_texels)
                extent_base[tid] = running
                for m in range(self.textures[tid].level_count):
                    key = tid * MAX_MIP_LEVELS + m
                    blocks_w[key] = layout.blocks_w[m]
                    level_base[key] = layout.level_base[m]
                running += layout.total_blocks
            self._l2_tables[l2_tile_texels] = {
                "blocks_w": blocks_w,
                "level_base": level_base,
                "extent_base": extent_base,
                "total": np.int64(running),
            }
        return self._l2_tables[l2_tile_texels]

    # ------------------------------------------------------------------
    # Vectorized translation
    # ------------------------------------------------------------------
    def translate_l2(
        self, packed: np.ndarray, l2_tile_texels: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Translate packed 4x4-tile refs into L2 virtual addresses.

        Returns:
            ``(tid, l2_index, l1_sub)`` arrays: the texture id, the L2 block
            number *within the texture* (what the paper calls ``L2``), and
            the L1 sub-block number within the block (``L1``).
        """
        table = self._l2_table(l2_tile_texels)
        f = unpack_tile_refs(packed)
        shift = (l2_tile_texels // L1_TILE_TEXELS).bit_length() - 1
        mask = (1 << shift) - 1
        key = f.tid * MAX_MIP_LEVELS + f.mip
        bx = f.tile_x >> shift
        by = f.tile_y >> shift
        l2_index = table["level_base"][key] + by * table["blocks_w"][key] + bx
        edge = l2_tile_texels // L1_TILE_TEXELS
        l1_sub = (f.tile_y & mask) * edge + (f.tile_x & mask)
        return f.tid, l2_index, l1_sub

    def global_l2_ids(self, packed: np.ndarray, l2_tile_texels: int) -> np.ndarray:
        """Globally unique L2 block ids (page-table index: tstart + L2)."""
        gids, _ = self.l2_addresses(packed, l2_tile_texels)
        return gids

    def l2_addresses(
        self, packed: np.ndarray, l2_tile_texels: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global L2 block ids and sub-block numbers in one translation pass.

        The hierarchy needs both for every L1 miss (the gid for the page
        table / TLB, the sub-block for sector mapping); computing them
        together avoids unpacking and translating the same stream twice.
        """
        table = self._l2_table(l2_tile_texels)
        tid, l2_index, l1_sub = self.translate_l2(packed, l2_tile_texels)
        return table["extent_base"][tid] + l2_index, l1_sub

    def l2_extent(self, tid: int, l2_tile_texels: int) -> tuple[int, int]:
        """Page-table extent ``(tstart, tlen)`` of a texture (§5.2)."""
        table = self._l2_table(l2_tile_texels)
        return (
            int(table["extent_base"][tid]),
            self.layout(tid, l2_tile_texels).total_blocks,
        )

    def l1_tile_codes(self, packed: np.ndarray) -> np.ndarray:
        """Global Morton tile code per packed reference (pre-masking).

        Mixes the tile coordinates with a Morton code and adds the per-level
        global tile base; the L1 set index is this code masked to the set
        count. Exposed separately so the analytic layer can compute the code
        once and reuse it across a whole cache-size sweep.
        """
        f = unpack_tile_refs(packed)
        key = f.tid * MAX_MIP_LEVELS + f.mip
        return morton2(f.tile_x, f.tile_y) + self.l1_tile_base[key]

    def l1_set_indices(self, packed: np.ndarray, n_sets: int) -> np.ndarray:
        """L1 cache set index for each packed reference.

        Realizes the collision-avoiding "6D blocked representation" tag
        calculation of §3.3 (which the paper fixes, independent of the L2
        tile size).
        """
        if n_sets < 1 or (n_sets & (n_sets - 1)):
            raise ValueError(f"n_sets must be a positive power of two, got {n_sets}")
        if n_sets > (1 << 16):
            return (self.l1_tile_codes(packed) & np.int64(n_sets - 1)).astype(np.int64)
        # Fast path: only the low log2(n_sets) Morton bits survive the mask,
        # and addition commutes with low-bit masking, so gather the Morton
        # code of just those coordinate bits from one table instead of
        # unpacking and interleaving the full 22-bit coordinates.
        k = int(n_sets).bit_length() - 1
        xbits = (k + 1) // 2
        p = np.asarray(packed, dtype=np.int64)
        low_xy = (p & np.int64((1 << xbits) - 1)) | (
            (p >> np.int64(_TY_SHIFT - xbits))
            & np.int64(((1 << (k // 2)) - 1) << xbits)
        )
        base = self._l1_base_by_field[p >> np.int64(_MIP_SHIFT)]
        return (_morton_low_table(k)[low_xy] + base) & np.int64(n_sets - 1)

    def wrap_texels(
        self, tid_or_key: np.ndarray, mip: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Wrap texel coordinates into a level's bounds (GL_REPEAT)."""
        key = np.asarray(tid_or_key, dtype=np.int64) * MAX_MIP_LEVELS + np.asarray(
            mip, dtype=np.int64
        )
        w = self.level_w[key]
        h = self.level_h[key]
        return np.mod(x, w), np.mod(y, h)
