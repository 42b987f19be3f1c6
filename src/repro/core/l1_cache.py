"""The on-chip L1 texture cache (paper §2.3).

Fixed by the paper's methodology: 4x4-texel tiles of 32-bit texels (64-byte
lines, line size == tile size), 2-way set associativity, sizes swept from
2 KB to 32 KB (Fig 9 / Table 2). Tags are the virtual texture address
``<tid, L2, L1>`` — equivalently, the unique packed 4x4-tile reference — and
the set index mixes both tile-coordinate axes (Hakura's "6D blocked
representation", fixed across L2 configurations per §3.3; computed by
:meth:`repro.texture.tiling.AddressSpace.l1_set_indices`).

Simulation is exact per-set LRU in numpy passes.
:func:`lru_stack_levels` is the one recency-stack kernel: it takes the
frame's accesses grouped per set and materializes each recency level with a
grouped forward-fill, ``ways`` passes per frame instead of a Python loop
per access. The page-table TLB (:mod:`repro.core.tlb`) runs its LRU policy
through the same kernel as a single set. The explicit per-access loop is
retained as ``use_reference=True`` ground truth, and runs associativities
past :data:`MAX_KERNEL_WAYS`, where the per-level pass count would exceed
the loop's cost. Both engines snapshot the same oldest-first per-set tag
lists, so a checkpoint resumes on either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.texture.tiling import L1_BLOCK_BYTES

__all__ = [
    "L1CacheConfig",
    "L1FrameResult",
    "L1CacheSim",
    "EMPTY",
    "MAX_KERNEL_WAYS",
    "lru_stack_levels",
]


@dataclass(frozen=True)
class L1CacheConfig:
    """L1 cache geometry.

    Attributes:
        size_bytes: total cache capacity (e.g. 2048 or 16384; Fig 9 sweeps
            2 KB - 32 KB).
        ways: associativity (the paper fixes 2; 1 gives direct-mapped).
        line_bytes: cache line size; the paper fixes line == tile == 64 B.
    """

    size_bytes: int = 16 * 1024
    ways: int = 2
    line_bytes: int = L1_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValueError(f"ways must be >= 1, got {self.ways}")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} is not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        n_sets = self.n_sets
        if n_sets & (n_sets - 1):
            raise ValueError(f"set count must be a power of two, got {n_sets}")

    @property
    def n_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def n_lines(self) -> int:
        """Total cache lines (sets * ways)."""
        return self.size_bytes // self.line_bytes


@dataclass
class L1FrameResult:
    """Per-frame L1 simulation outcome.

    Attributes:
        texel_reads: total texel reads (collapsed weights restored).
        accesses: collapsed tile references presented to the cache.
        misses: tile references that missed (each triggers one 64-byte tile
            download in the pull architecture).
        miss_refs: packed references of the misses, in access order — the
            stream the L2 cache and page-table TLB consume.
    """

    texel_reads: int
    accesses: int
    misses: int
    miss_refs: np.ndarray

    @property
    def texel_hit_rate(self) -> float:
        """Fraction of texel reads served from L1 (collapsed runs all hit)."""
        if self.texel_reads == 0:
            return 1.0
        return 1.0 - self.misses / self.texel_reads

    @property
    def miss_bytes(self) -> int:
        """Bytes downloaded into L1 this frame (one line per miss)."""
        return self.misses * L1_BLOCK_BYTES


#: Tag value of an invalid recency level (never equals a packed ref or gid).
EMPTY = np.int64(-1)

#: Widest associativity :func:`lru_stack_levels` handles; each way is one
#: grouped forward-fill pass, so past this the per-access loop wins anyway.
MAX_KERNEL_WAYS = 64


def lru_stack_levels(
    tags: np.ndarray, group_start: np.ndarray, carried: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact LRU over independent recency stacks, one numpy pass per level.

    Args:
        tags: accesses grouped per stack (a set, or the whole TLB), each
            group contiguous and in access order.
        group_start: True at each group's first access (``group_start[0]``
            must be True).
        carried: ``(groups, ways)`` stacks before the first access of each
            group, most recent first, padded with :data:`EMPTY` on the right.

    Returns:
        ``(hit, new_stacks)``: per-access hit mask, and each group's stack
        after its last access in the same layout as ``carried``.

    Recency level k before access i is a grouped forward-fill: level 0 is
    the previous access's tag, and level k >= 1 is redefined at i exactly
    when access i-1 was not within levels 0..k-1, taking level k-1's
    content at i-1 — the entry it demoted. Group starts seed every level
    from ``carried``. A tag hits iff it matches any level before its
    access. The end state shifts instead of sorting: level 0 becomes the
    last tag, and level k keeps its old content if the last tag was found
    above it, else inherits level k-1's (LRU eviction drops the bottom).
    """
    n = len(tags)
    ways = carried.shape[1]
    starts = np.flatnonzero(group_start)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = n - 1

    new = np.empty_like(carried)
    new[:, 0] = tags[ends]
    # in_top accumulates "tags[i] is within levels 0..k" as the level loop
    # deepens; after the last level it is the hit mask.
    level = np.empty(n, dtype=np.int64)
    level[1:] = tags[:-1]
    level[starts] = carried[:, 0]
    in_top = tags == level  # EMPTY never equals a tag
    idx = np.arange(n)
    define = np.empty(n, dtype=bool)
    vals = np.empty(n, dtype=np.int64)
    for k in range(1, ways):
        np.logical_not(in_top[:-1], out=define[1:])
        define[starts] = True
        vals[1:] = level[:-1]
        vals[starts] = carried[:, k]
        prev = level
        level = vals[np.maximum.accumulate(np.where(define, idx, 0))]
        new[:, k] = np.where(in_top[ends], level[ends], prev[ends])
        in_top |= tags == level
    return in_top, new


class L1CacheSim:
    """Stateful L1 cache simulator; state persists across frames."""

    def __init__(self, config: L1CacheConfig, use_reference: bool = False):
        """Args:
            config: cache geometry.
            use_reference: force the explicit per-access loop regardless of
                associativity. The two engines are behaviourally identical;
                the flag exists so tests can check that equivalence on
                arbitrary streams.
        """
        self.config = config
        self._sets_general: list[list[int]] | None = None
        self._stack: np.ndarray | None = None
        if use_reference or config.ways > MAX_KERNEL_WAYS:
            self.engine = "reference"
            self._sets_general = [[] for _ in range(config.n_sets)]
        else:
            self.engine = "stacked"
            self._stack = np.full(
                (config.n_sets, config.ways), EMPTY, dtype=np.int64
            )

    def reset(self) -> None:
        """Invalidate the whole cache."""
        if self._stack is not None:
            self._stack[:] = EMPTY
        else:
            for s in self._sets_general:
                s.clear()

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture the carried inter-frame state (checkpointing).

        Both engines write each set as an oldest-first tag list, so a
        snapshot taken on either restores onto the other bit-identically.
        """
        if self._stack is not None:
            sets = [
                [int(t) for t in reversed(row) if t != EMPTY] for row in self._stack
            ]
        else:
            sets = [list(s) for s in self._sets_general]
        return {"engine": "general", "sets": sets}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot.

        Also reads the ``{"engine": "vectorized", "mru", "lru"}`` tree that
        checkpoint v2/v3 files hold for 1- and 2-way caches.
        """
        engine = state.get("engine")
        if engine == "vectorized" and self.config.ways <= 2:
            mru = np.asarray(state["mru"], dtype=np.int64)
            lru = np.asarray(state["lru"], dtype=np.int64)
            if mru.shape != lru.shape:
                raise ValueError("L1 checkpoint does not match the cache geometry")
            sets = [
                [int(t) for t in pair if t != EMPTY] for pair in zip(lru, mru)
            ]
        elif engine == "general":
            sets = [[int(t) for t in s] for s in state["sets"]]
        else:
            raise ValueError(
                f"L1 checkpoint was taken on the {engine!r} engine, which "
                f"a {self.config.ways}-way cache cannot restore"
            )
        if len(sets) != self.config.n_sets or any(
            len(s) > self.config.ways for s in sets
        ):
            raise ValueError("L1 checkpoint does not match the cache geometry")
        if self._stack is not None:
            self._stack[:] = EMPTY
            for row, content in zip(self._stack, sets):
                row[: len(content)] = content[::-1]
        else:
            self._sets_general = sets

    # ------------------------------------------------------------------
    def access_frame(
        self, refs: np.ndarray, weights: np.ndarray, sets: np.ndarray
    ) -> L1FrameResult:
        """Run one frame's collapsed reference stream through the cache.

        Args:
            refs: collapsed packed tile references, in access order.
            weights: texel reads per entry.
            sets: per-entry set index (from ``AddressSpace.l1_set_indices``).
        """
        refs = np.asarray(refs, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        sets = np.asarray(sets, dtype=np.int64)
        if not (len(refs) == len(weights) == len(sets)):
            raise ValueError("refs, weights, sets must have equal length")
        texel_reads = int(weights.sum())
        if len(refs) == 0:
            return L1FrameResult(0, 0, 0, np.empty(0, dtype=np.int64))

        if self._stack is not None:
            hit = self._access_stacked(refs, sets)
        else:
            hit = self._access_general(refs, sets)

        miss_positions = np.flatnonzero(~hit)
        return L1FrameResult(
            texel_reads=texel_reads,
            accesses=len(refs),
            misses=len(miss_positions),
            miss_refs=refs[miss_positions],
        )

    # ------------------------------------------------------------------
    def _access_stacked(self, refs: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Group the frame by set and run :func:`lru_stack_levels` on it."""
        n = len(refs)
        # Set indices are tiny (tens to hundreds of sets); sorting them as
        # uint16 instead of int64 makes the stable sort several times
        # faster, and the sort dominates the whole frame pass.
        if self.config.n_sets <= 1 << 16:
            order = np.argsort(sets.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(sets, kind="stable")
        s = sets[order]

        group_start = np.empty(n, dtype=bool)
        group_start[0] = True
        np.not_equal(s[1:], s[:-1], out=group_start[1:])
        touched = s[group_start]

        hit_sorted, new_stacks = lru_stack_levels(
            refs[order], group_start, self._stack[touched]
        )
        self._stack[touched] = new_stacks
        hit = np.empty(n, dtype=bool)
        hit[order] = hit_sorted
        return hit

    def _access_general(self, refs: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Reference N-way LRU implementation (explicit per-access loop)."""
        ways = self.config.ways
        lines = self._sets_general
        hit = np.empty(len(refs), dtype=bool)
        for i, (tag, set_idx) in enumerate(zip(refs.tolist(), sets.tolist())):
            content = lines[set_idx]
            if tag in content:
                content.remove(tag)
                content.append(tag)  # most recent at the back
                hit[i] = True
            else:
                if len(content) >= ways:
                    content.pop(0)
                content.append(tag)
                hit[i] = False
        return hit
