"""The L2 texture cache (paper §5.1-5.2).

The L2 is organized as virtual memory rather than a hardware-indexed cache:
a **texture page table** (``t_table[]``) maps virtual block addresses
``<tid, L2>`` — here, the global page-table index ``tstart + L2`` — to
physical blocks of **L2 cache memory**; a **Block Replacement List**
(``BRL[]``) drives replacement (clock by default); and **sector mapping**
downloads only the 4x4 L1 sub-block each L1 miss needs, tracked by a
per-entry sector bit-vector, "in order not to exceed the download bandwidth
of the pull architecture".

Accounting distinguishes (per §5.4.2's conditional hit rates):

* **full hit** — block allocated and sub-block present: serviced from local
  L2 memory, no host traffic;
* **partial hit** — block allocated, sub-block absent: one L1-tile download
  from host memory (into L2 and, in parallel, L1);
* **full miss** — no physical block: find a victim, re-map, then download.

Like :class:`~repro.core.l1_cache.L1CacheSim`, the simulator has two
interchangeable engines: a per-access reference loop (``use_reference=True``)
and a batched kernel that classifies whole chunks of the miss stream with
numpy passes, dropping into a tight allocation loop only at full misses.
An evicted entry that recurs later in the same chunk joins that loop as a
full miss, and its gid's classes are re-derived per residency episode, so
every chunk is sorted and walked exactly once however small the cache.
The two engines are bit-identical — per-frame transaction counts, eviction
counts, final residency state, and replacement-policy state all match —
and the differential test suite asserts it.

:class:`SetAssociativeL2Cache` implements the organization §5.1 argues
*against* (restricted placement causes inter-texture collisions); it exists
for the associativity ablation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.policies import ReplacementPolicy, make_policy
from repro.texture.tiling import (
    AddressSpace,
    CACHE_TEXEL_BYTES,
    L1_BLOCK_BYTES,
    L1_TILE_TEXELS,
)

__all__ = ["L2CacheConfig", "L2FrameResult", "L2TextureCache", "SetAssociativeL2Cache"]

#: Sector bits available per page-table entry (``_t_sectors`` is uint64).
MAX_SECTOR_BITS = 64


@dataclass(frozen=True)
class L2CacheConfig:
    """L2 cache geometry and policy.

    Attributes:
        size_bytes: L2 cache memory (the paper studies 2, 4, 8 MB).
        l2_tile_texels: L2 block edge in texels (8, 16, or 32; paper
            default 16).
        policy: replacement policy name ("clock" is the paper's choice).
    """

    size_bytes: int = 2 * 1024 * 1024
    l2_tile_texels: int = 16
    policy: str = "clock"

    def __post_init__(self) -> None:
        if self.l2_tile_texels < L1_TILE_TEXELS or (
            self.l2_tile_texels & (self.l2_tile_texels - 1)
        ):
            raise ValueError(
                f"L2 tile size must be a power of two >= {L1_TILE_TEXELS}, "
                f"got {self.l2_tile_texels}"
            )
        if self.sub_blocks_per_block > MAX_SECTOR_BITS:
            # The per-entry sector bit-vector is a uint64; a larger tile
            # would need more sector bits and ``1 << sub`` would silently
            # wrap, corrupting the sector accounting.
            max_tile = L1_TILE_TEXELS * int(MAX_SECTOR_BITS**0.5)
            raise ValueError(
                f"l2_tile_texels={self.l2_tile_texels} needs "
                f"{self.sub_blocks_per_block} sector bits per entry, but the "
                f"sector bit-vector holds {MAX_SECTOR_BITS}; the maximum "
                f"supported L2 tile is {max_tile} texels"
            )
        if self.size_bytes < self.block_bytes:
            raise ValueError(
                f"L2 size {self.size_bytes} smaller than one block "
                f"({self.block_bytes})"
            )

    @property
    def block_bytes(self) -> int:
        """Bytes per L2 block (tile area x 4-byte texels)."""
        return self.l2_tile_texels * self.l2_tile_texels * CACHE_TEXEL_BYTES

    @property
    def n_blocks(self) -> int:
        """Physical blocks in L2 cache memory."""
        return self.size_bytes // self.block_bytes

    @property
    def sub_blocks_per_block(self) -> int:
        """4x4 L1 sub-blocks per L2 block (sector bits per entry)."""
        edge = self.l2_tile_texels // L1_TILE_TEXELS
        return edge * edge


@dataclass
class L2FrameResult:
    """Per-frame L2 outcome over the L1 miss stream."""

    accesses: int
    full_hits: int
    partial_hits: int
    full_misses: int
    evictions: int

    @property
    def host_downloads(self) -> int:
        """L1-tile downloads from host memory (partial hits + full misses)."""
        return self.partial_hits + self.full_misses

    @property
    def agp_bytes(self) -> int:
        """Host-to-accelerator traffic this frame."""
        return self.host_downloads * L1_BLOCK_BYTES

    @property
    def local_bytes(self) -> int:
        """L2-memory-to-L1 traffic serviced locally (full hits)."""
        return self.full_hits * L1_BLOCK_BYTES

    def hit_rates(self) -> tuple[float, float]:
        """(full, partial) hit rates conditional on an L1 miss (§5.4.2)."""
        if self.accesses == 0:
            return 0.0, 0.0
        return self.full_hits / self.accesses, self.partial_hits / self.accesses


class L2TextureCache:
    """The paper's page-table L2 cache over an address space.

    Args:
        config: cache geometry/policy.
        space: address space of the workload's textures; sizes the page
            table (one entry per L2 block of every texture, the host
            driver's ``tstart``/``tlen`` allocation).
        use_reference: run the per-access reference loop instead of the
            batched kernel (differential testing).
        chunk_size: accesses per batched pass; state is re-snapshotted at
            chunk boundaries, so smaller chunks trade throughput for
            temporary-array footprint without changing results.
    """

    def __init__(
        self,
        config: L2CacheConfig,
        space: AddressSpace,
        use_reference: bool = False,
        chunk_size: int = 1 << 15,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.config = config
        self.space = space
        self._use_reference = use_reference
        self._chunk_size = chunk_size
        n_entries = space.total_l2_blocks(config.l2_tile_texels)
        # t_table[]: physical block per virtual block (-1 = unallocated) and
        # the per-entry sector bit-vector (bit set = L1 sub-block present).
        # Invariant: unallocated entries always have an all-zero bit-vector.
        self._t_block = np.full(n_entries, -1, dtype=np.int64)
        self._t_sectors = np.zeros(n_entries, dtype=np.uint64)
        # BRL[]: owning t_table index per physical block (-1 = free).
        self._brl_t_index = np.full(config.n_blocks, -1, dtype=np.int64)
        self.policy: ReplacementPolicy = make_policy(config.policy, config.n_blocks)
        self._next_unused = 0
        self._free: list[int] = []

    # ------------------------------------------------------------------
    @property
    def page_table_entries(self) -> int:
        """t_table entries (one per L2 block of every texture)."""
        return len(self._t_block)

    @property
    def resident_blocks(self) -> int:
        """Physical blocks currently mapped."""
        return int((self._brl_t_index >= 0).sum())

    def is_resident(self, gid: int, sub: int | None = None) -> bool:
        """Whether a virtual block (optionally a specific sub-block) is in L2."""
        if self._t_block[gid] < 0:
            return False
        if sub is None:
            return True
        return bool(self._t_sectors[gid] & np.uint64(1 << sub))

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture page table, BRL, allocator, and policy state."""
        return {
            "t_block": self._t_block.copy(),
            "t_sectors": self._t_sectors.copy(),
            "brl_t_index": self._brl_t_index.copy(),
            "next_unused": int(self._next_unused),
            "free": list(self._free),
            "policy": self.policy.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        t_block = np.asarray(state["t_block"], dtype=np.int64)
        t_sectors = np.asarray(state["t_sectors"], dtype=np.uint64)
        brl = np.asarray(state["brl_t_index"], dtype=np.int64)
        if (
            t_block.shape != self._t_block.shape
            or t_sectors.shape != self._t_sectors.shape
            or brl.shape != self._brl_t_index.shape
        ):
            raise ValueError("L2 checkpoint does not match the cache geometry")
        self._t_block[:] = t_block
        self._t_sectors[:] = t_sectors
        self._brl_t_index[:] = brl
        self._next_unused = int(state["next_unused"])
        self._free = [int(b) for b in state["free"]]
        self.policy.restore_state(state["policy"])

    # ------------------------------------------------------------------
    def access_frame(self, miss_refs: np.ndarray) -> L2FrameResult:
        """Run one frame's L1 miss stream through the L2 (Fig 7 steps C-F)."""
        gids_arr, subs_arr = self.space.l2_addresses(
            miss_refs, self.config.l2_tile_texels
        )
        return self.access_blocks(gids_arr, subs_arr)

    def access_blocks(self, gids: np.ndarray, subs: np.ndarray) -> L2FrameResult:
        """Lower-level entry point taking pre-translated addresses."""
        gids = np.asarray(gids, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        if self._use_reference:
            return self._access_blocks_reference(gids, subs)
        n = len(gids)
        full_hits = partial = full_miss = evictions = 0
        for start in range(0, n, self._chunk_size):
            stop = start + self._chunk_size
            fh, ph, fm, ev = self._access_chunk(gids[start:stop], subs[start:stop])
            full_hits += fh
            partial += ph
            full_miss += fm
            evictions += ev
        return L2FrameResult(
            accesses=n,
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )

    def _access_blocks_reference(
        self, gids: np.ndarray, subs: np.ndarray
    ) -> L2FrameResult:
        """Per-access loop; the ground truth the batched kernel must match."""
        full_hits = 0
        partial = 0
        full_miss = 0
        evictions = 0

        t_block = self._t_block
        t_sectors = self._t_sectors
        brl = self._brl_t_index
        policy = self.policy
        n_blocks = self.config.n_blocks
        free = self._free

        for gid, sub in zip(gids.tolist(), subs.tolist()):
            blk = t_block[gid]
            bit = np.uint64(1 << sub)
            if blk >= 0:
                if t_sectors[gid] & bit:
                    full_hits += 1  # step D yes: load from L2 memory
                else:
                    partial += 1  # step F: download sub-block from host
                    t_sectors[gid] |= bit
                policy.touch(blk)
                continue
            # Step E: full miss — allocate a physical block.
            full_miss += 1
            if free:
                blk = free.pop()
            elif self._next_unused < n_blocks:
                blk = self._next_unused
                self._next_unused += 1
            else:
                blk = policy.victim()
                old = brl[blk]
                if old >= 0:
                    t_block[old] = -1
                    t_sectors[old] = 0
                    evictions += 1
            brl[blk] = gid
            t_block[gid] = blk
            t_sectors[gid] = bit
            policy.touch(blk)

        return L2FrameResult(
            accesses=len(gids),
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )

    def _access_chunk(
        self, g: np.ndarray, s: np.ndarray
    ) -> tuple[int, int, int, int]:
        """Run one chunk of the miss stream through the batched kernel.

        Classifies every access optimistically from a snapshot of the page
        table plus within-chunk first-occurrence masks, then walks the full
        misses in access order, replaying allocation exactly and committing
        policy touches segment-wise between them, so every ``victim`` call
        sees exactly the touches that preceded it. An eviction whose gid
        recurs later in the chunk turns that next occurrence into a full
        miss the snapshot could not see: it joins the walk through a heap,
        and the classes and sector words of such re-allocated gids are
        re-derived per residency episode afterwards. Returns
        ``(full_hits, partial_hits, full_misses, evictions)``.
        """
        t_block = self._t_block
        t_sectors = self._t_sectors
        brl = self._brl_t_index
        policy = self.policy
        n = len(g)

        bits = np.uint64(1) << s.astype(np.uint64)
        resident0 = t_block[g] >= 0
        bit_set0 = (t_sectors[g] & bits) != 0

        # Occurrences grouped by gid, each group in access order, and the
        # first occurrence of each gid / of each (gid, sub) pair.
        order = np.argsort(g, kind="stable")
        sg = g[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sg[1:], sg[:-1], out=boundary[1:])
        group_start = np.flatnonzero(boundary)
        group_end = np.append(group_start[1:], n)
        first_gid = np.zeros(n, dtype=bool)
        first_gid[order[group_start]] = True

        pair_key = (g << np.int64(6)) | s  # sub < 64 by config validation
        pair_order = np.argsort(pair_key, kind="stable")
        spk = pair_key[pair_order]
        pair_boundary = np.empty(n, dtype=bool)
        pair_boundary[0] = True
        np.not_equal(spk[1:], spk[:-1], out=pair_boundary[1:])
        first_pair = np.zeros(n, dtype=bool)
        first_pair[pair_order[pair_boundary]] = True

        # A nonresident entry always has zero sector bits, so these classes
        # are exactly what the sequential loop sees — for every access that
        # precedes its gid's first mid-chunk eviction.
        full_miss = first_gid & ~resident0
        partial = first_pair & ~bit_set0 & ~full_miss

        first_misses = np.flatnonzero(full_miss).tolist()
        requeued: list[int] = []
        evictions = 0
        evicted: list[int] = []
        if first_misses:
            group_of = np.cumsum(boundary) - 1
            pos_group = np.empty(n, dtype=np.int64)
            pos_group[order] = group_of
            # Occurrences ordered by (group, position): one searchsorted
            # finds an evicted gid's next occurrence after the eviction.
            occ_key = group_of * n + order
            # Chunk group of the gid each physical block holds (-1: that
            # gid does not occur in the chunk).
            n_blocks = self.config.n_blocks
            block_group = np.full(n_blocks, -1, dtype=np.int64)
            held = order[group_start]
            held_res = resident0[held]
            block_group[t_block[g[held[held_res]]]] = np.flatnonzero(held_res)

            free = self._free
            pending: list[int] = []  # heap of re-queued full misses
            n_first = len(first_misses)
            i = 0
            seg_start = 0
            while True:
                if pending and (i == n_first or pending[0] < first_misses[i]):
                    p = heapq.heappop(pending)
                    requeued.append(p)
                elif i < n_first:
                    p = first_misses[i]
                    i += 1
                else:
                    break
                if p > seg_start:
                    # No mapping changes between two misses, so the live
                    # page table gives every touched block exactly.
                    policy.touch_many(t_block[g[seg_start:p]])
                gid = int(g[p])
                if free:
                    b = free.pop()
                elif self._next_unused < n_blocks:
                    b = self._next_unused
                    self._next_unused += 1
                else:
                    b = policy.victim()
                    old = int(brl[b])
                    if old >= 0:
                        t_block[old] = -1
                        evictions += 1
                        evicted.append(old)
                        grp = int(block_group[b])
                        if grp >= 0:
                            j = int(occ_key.searchsorted(grp * n + p, "right"))
                            if j < group_end[grp]:
                                heapq.heappush(pending, int(order[j]))
                brl[b] = gid
                t_block[gid] = b
                block_group[b] = pos_group[p]
                policy.touch(b)
                seg_start = p + 1
            if seg_start < n:
                policy.touch_many(t_block[g[seg_start:]])
        else:
            policy.touch_many(t_block[g])

        # Sector updates commute with everything above except eviction
        # clears: OR once, then re-clear evicted entries.
        upd = partial | full_miss
        ph = int(np.count_nonzero(partial))
        if requeued:
            # Re-allocated gids: from the first re-miss on, the snapshot's
            # classes are stale. Split their occurrences into residency
            # episodes at each re-miss; within an episode the first access
            # to a sub is the download, and the final episode's subs make
            # the sector word.
            rq = np.asarray(requeued)  # ascending: the walk is in order
            remiss = np.zeros(n, dtype=bool)
            remiss[rq] = True
            groups, first_rq = np.unique(pos_group[rq], return_index=True)
            lo = group_start[groups]
            lens = group_end[groups] - lo
            ends = np.cumsum(lens)
            # The gids' occurrences, gid by gid, each in access order.
            pos = order[np.repeat(lo - ends + lens, lens) + np.arange(ends[-1])]
            late = pos >= np.repeat(rq[first_rq], lens)
            episode_start = remiss[pos]
            episode_start[ends - lens] = True
            seg = np.cumsum(episode_start) - 1
            late_pos = pos[late]
            key = (seg[late] << np.int64(6)) | s[late_pos]
            key_order = np.argsort(key, kind="stable")
            sk = key[key_order]
            first = np.empty(len(sk), dtype=bool)
            first[0] = True
            np.not_equal(sk[1:], sk[:-1], out=first[1:])
            downloads = np.zeros(len(sk), dtype=bool)
            downloads[key_order[first]] = True
            downloads &= ~remiss[late_pos]
            ph += int(np.count_nonzero(downloads))
            ph -= int(np.count_nonzero(partial[late_pos]))
            upd[pos] = False
            seg_bits = np.bitwise_or.reduceat(bits[pos], np.flatnonzero(episode_start))
            realloc = sg[lo]
            final_bits = np.where(
                t_block[realloc] >= 0, seg_bits[seg[ends - 1]], np.uint64(0)
            )
        upd_idx = np.flatnonzero(upd)
        if len(upd_idx):
            np.bitwise_or.at(t_sectors, g[upd_idx], bits[upd_idx])
        if evicted:
            t_sectors[np.asarray(evicted, dtype=np.int64)] = 0
        if requeued:
            t_sectors[realloc] = final_bits

        fm = len(first_misses) + len(requeued)
        return n - fm - ph, ph, fm, evictions

    # ------------------------------------------------------------------
    def deallocate_texture(self, tid: int) -> int:
        """Release a deleted texture's page-table extent (§5.2).

        Frees every physical block the extent ``tstart .. tstart+tlen``
        owns, in one set of mask operations. Returns the number of blocks
        released.
        """
        tstart, tlen = self.space.l2_extent(tid, self.config.l2_tile_texels)
        extent = slice(tstart, tstart + tlen)
        blocks = self._t_block[extent]
        owned = blocks[blocks >= 0]
        if len(owned):
            self._brl_t_index[owned] = -1
            # Ascending page-table order, matching a loop over the extent.
            self._free.extend(owned.tolist())
            self._t_block[extent] = -1
            self._t_sectors[extent] = 0
        return len(owned)


class SetAssociativeL2Cache:
    """A conventionally-indexed L2 for the §5.1 organization ablation.

    Virtual blocks map to ``set = gid mod n_sets`` with per-set LRU over
    ``ways`` lines. §5.1 predicts this suffers collisions between textures
    (and between distant blocks of large textures) that the page-table
    organization avoids; the ablation bench quantifies that.

    The batched engine exploits the Mattson inclusion property: sorting the
    carried per-set state plus the frame's accesses stably by set index
    yields per-set substreams on which an access hits iff its LRU stack
    distance is below ``ways``; residency episodes (spans between refills)
    then separate full from partial hits. ``use_reference=True`` runs the
    per-access loop instead.
    """

    def __init__(
        self,
        config: L2CacheConfig,
        space: AddressSpace,
        ways: int = 4,
        use_reference: bool = False,
    ):
        if ways < 1 or config.n_blocks % ways:
            raise ValueError(
                f"ways ({ways}) must divide the block count ({config.n_blocks})"
            )
        self.config = config
        self.space = space
        self.ways = ways
        self.n_sets = config.n_blocks // ways
        self._use_reference = use_reference
        # Per-set list of resident gids, LRU order (front = oldest).
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self._sectors: dict[int, int] = {}

    def snapshot_state(self) -> dict:
        """Capture per-set residency (LRU order) and sector bit-vectors."""
        return {
            "sets": [list(content) for content in self._sets],
            "sector_gids": [int(g) for g in self._sectors],
            "sector_bits": [int(b) for b in self._sectors.values()],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        sets = state["sets"]
        if len(sets) != self.n_sets:
            raise ValueError("L2 checkpoint does not match the set count")
        self._sets = [[int(g) for g in content] for content in sets]
        self._sectors = {
            int(g): int(b)
            for g, b in zip(state["sector_gids"], state["sector_bits"])
        }

    def access_frame(self, miss_refs: np.ndarray) -> L2FrameResult:
        """Run one frame's L1 miss stream through the set-associative L2."""
        gids, subs = self.space.l2_addresses(miss_refs, self.config.l2_tile_texels)
        return self.access_blocks(gids, subs)

    def access_blocks(self, gids: np.ndarray, subs: np.ndarray) -> L2FrameResult:
        """Lower-level entry point taking pre-translated addresses."""
        gids = np.asarray(gids, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        if self._use_reference:
            return self._access_blocks_reference(gids, subs)
        return self._access_blocks_batched(gids, subs)

    def _access_blocks_reference(
        self, gids: np.ndarray, subs: np.ndarray
    ) -> L2FrameResult:
        """Per-access loop; the ground truth the batched kernel must match."""
        full_hits = 0
        partial = 0
        full_miss = 0
        evictions = 0
        n_sets = self.n_sets
        sets = self._sets
        sectors = self._sectors

        for gid, sub in zip(gids.tolist(), subs.tolist()):
            content = sets[gid % n_sets]
            bit = 1 << sub
            if gid in content:
                content.remove(gid)
                content.append(gid)
                if sectors[gid] & bit:
                    full_hits += 1
                else:
                    partial += 1
                    sectors[gid] |= bit
            else:
                full_miss += 1
                if len(content) >= self.ways:
                    old = content.pop(0)
                    del sectors[old]
                    evictions += 1
                content.append(gid)
                sectors[gid] = bit

        return L2FrameResult(
            accesses=len(gids),
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )

    def _access_blocks_batched(
        self, gids: np.ndarray, subs: np.ndarray
    ) -> L2FrameResult:
        """Stack-distance classification of a whole frame at once."""
        from repro.analytic.stack_distance import stack_distances

        n = len(gids)
        if n == 0:
            return L2FrameResult(0, 0, 0, 0, 0)
        ways = self.ways
        n_sets = self.n_sets

        # Carried state becomes a synthetic prefix: each set's residents in
        # LRU order, so the LRU stack right after the prefix equals the
        # cache. Synthetic accesses carry sub = -1 (no sector semantics).
        state_gids = [gid for content in self._sets for gid in content]
        n_state = len(state_gids)
        if n_state:
            all_gids = np.concatenate(
                [np.asarray(state_gids, dtype=np.int64), gids]
            )
            all_subs = np.concatenate(
                [np.full(n_state, -1, dtype=np.int64), subs]
            )
        else:
            all_gids = gids
            all_subs = subs
        all_sets = all_gids % n_sets
        m = len(all_gids)

        # Stable sort by set: per-set substreams stay in temporal order, so
        # stack distances computed on the sorted stream are per-set exact
        # (a gid belongs to exactly one set).
        order = np.argsort(all_sets, kind="stable")
        stream = all_gids[order]
        sub_stream = all_subs[order]
        is_real = order >= n_state

        d = stack_distances(stream)
        resident = (d >= 0) & (d < ways)

        # Occupancy before each access = min(distinct gids seen so far in
        # the set, ways); a miss evicts iff the set is already full.
        cold = d < 0
        before = np.cumsum(cold) - cold
        ss = all_sets[order]
        set_boundary = np.empty(m, dtype=bool)
        set_boundary[0] = True
        np.not_equal(ss[1:], ss[:-1], out=set_boundary[1:])
        set_group = np.cumsum(set_boundary) - 1
        distinct_before = before - before[set_boundary][set_group]

        miss = is_real & ~resident
        evict = miss & (distinct_before >= ways)
        full_miss = int(np.count_nonzero(miss))
        evictions = int(np.count_nonzero(evict))

        # Residency episodes: per gid, the episode number is the count of
        # refills (real misses) at or before the access; episode 0 is the
        # carried residency.
        order2 = np.argsort(stream, kind="stable")
        sg2 = stream[order2]
        gid_boundary = np.empty(m, dtype=bool)
        gid_boundary[0] = True
        np.not_equal(sg2[1:], sg2[:-1], out=gid_boundary[1:])
        fills = miss[order2].astype(np.int64)
        ep = np.cumsum(fills)
        ep_base = (ep - fills)[gid_boundary]
        episode2 = ep - ep_base[np.cumsum(gid_boundary) - 1]
        episode = np.empty(m, dtype=np.int64)
        episode[order2] = episode2

        # First occurrence of each (gid, episode, sub) triple; within an
        # episode the first touch of a sub-block is the download.
        order3 = np.lexsort((sub_stream, episode, stream))
        k_g = stream[order3]
        k_e = episode[order3]
        k_s = sub_stream[order3]
        tb = np.empty(m, dtype=bool)
        tb[0] = True
        tb[1:] = (k_g[1:] != k_g[:-1]) | (k_e[1:] != k_e[:-1]) | (k_s[1:] != k_s[:-1])
        first_pes = np.zeros(m, dtype=bool)
        first_pes[order3] = tb

        hit = is_real & resident
        full_hits = int(np.count_nonzero(hit & ~first_pes))
        partial = int(np.count_nonzero(hit & first_pes & (episode > 0)))
        # Episode-0 hits on a new sub consult the carried sector bits.
        sectors = self._sectors
        for i in np.flatnonzero(hit & first_pes & (episode == 0)).tolist():
            if sectors.get(int(stream[i]), 0) >> int(sub_stream[i]) & 1:
                full_hits += 1
            else:
                partial += 1

        # ---- end state -------------------------------------------------
        # Residents = per set, the `ways` most recently used distinct gids.
        rev = all_gids[::-1]
        uniq, ridx = np.unique(rev, return_index=True)
        last_pos = m - 1 - ridx
        su = uniq % n_sets
        o = np.lexsort((-last_pos, su))
        ssu = su[o]
        sb = np.empty(len(o), dtype=bool)
        sb[0] = True
        np.not_equal(ssu[1:], ssu[:-1], out=sb[1:])
        in_set_rank = np.arange(len(o)) - np.flatnonzero(sb)[np.cumsum(sb) - 1]
        keep = o[in_set_rank < ways]
        keep = keep[np.argsort(last_pos[keep])]  # recency order, oldest first
        new_sets: list[list[int]] = [[] for _ in range(n_sets)]
        for gid in uniq[keep].tolist():
            new_sets[gid % n_sets].append(gid)

        # Sector bits of a resident gid = union over its final episode,
        # plus the carried bits when that episode is the carried one.
        ge_boundary = np.empty(m, dtype=bool)
        ge_boundary[0] = True
        ge_boundary[1:] = (k_g[1:] != k_g[:-1]) | (k_e[1:] != k_e[:-1])
        seg_starts = np.flatnonzero(ge_boundary)
        shift = np.where(k_s >= 0, k_s, 0).astype(np.uint64)
        bits_sorted = np.where(
            k_s >= 0, np.uint64(1) << shift, np.uint64(0)
        )
        seg_bits = np.bitwise_or.reduceat(bits_sorted, seg_starts)
        seg_gid = k_g[seg_starts]
        seg_ep = k_e[seg_starts]
        is_last_seg = np.empty(len(seg_starts), dtype=bool)
        is_last_seg[-1] = True
        np.not_equal(seg_gid[1:], seg_gid[:-1], out=is_last_seg[:-1])
        final_bits = {
            int(gg): (int(bb) | (sectors.get(int(gg), 0) if ee == 0 else 0))
            for gg, bb, ee in zip(
                seg_gid[is_last_seg], seg_bits[is_last_seg], seg_ep[is_last_seg]
            )
        }
        self._sets = new_sets
        self._sectors = {
            gid: final_bits[gid] for content in new_sets for gid in content
        }

        return L2FrameResult(
            accesses=n,
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )
