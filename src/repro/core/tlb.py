"""The texture page table TLB (paper §5.4.3).

Page tables large enough to describe hundreds of MB of host texture must
live in the same external DRAM as the L2 blocks (Table 4), so every L1 miss
would pay a DRAM access for translation. A small on-chip TLB over
``<tid, L2>`` entries hides that latency. "Replacement for multi-entry
TLB's was round robin" — LRU is also provided for comparison.

Like the cache simulators, the TLB has a per-access reference loop
(``use_reference=True``) and a batched engine that resolves a whole frame
in numpy passes. The batched engine first collapses runs of a repeated
gid: a consecutive repeat always hits and changes no state under either
policy, so only run heads reach the policy engines. The collapse is the
one-set case of the L1's MRU re-hit filter and runs through it
(:func:`repro.core.l1_cache.mru_rehits`). LRU is the L1's recency-stack
kernel (:func:`repro.core.l1_cache.lru_stack_levels`) run as a single set;
TLBs wider than :data:`~repro.core.l1_cache.MAX_KERNEL_WAYS` entries run
the loop, as the L1 does. Round robin runs the per-access loop
over the run heads: their hit streaks are short, so a block scan against
the entry table is slower than probing a handful of entries per access.
Both are bit-identical to the loops, including the carried entry list and
hand position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.l1_cache import EMPTY, MAX_KERNEL_WAYS, lru_stack_levels, mru_rehits

__all__ = ["TLBFrameResult", "TextureTableTLB"]


@dataclass
class TLBFrameResult:
    """Per-frame TLB outcome over the L1 miss stream."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        """TLB misses this frame."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Hits / accesses (0.0 for an idle frame)."""
        return self.hits / self.accesses if self.accesses else 0.0


class TextureTableTLB:
    """A small fully-associative TLB over page-table entries.

    Args:
        n_entries: TLB capacity (the paper sweeps 1-16).
        policy: "round_robin" (the paper) or "lru".
        use_reference: run the per-access loop instead of the batched
            engine (differential testing).
    """

    _POLICIES = ("round_robin", "lru")

    def __init__(
        self, n_entries: int, policy: str = "round_robin", use_reference: bool = False
    ):
        if n_entries < 1:
            raise ValueError(f"TLB needs at least one entry, got {n_entries}")
        if policy not in self._POLICIES:
            raise ValueError(
                f"unknown TLB policy {policy!r}; choose from {self._POLICIES}"
            )
        self.n_entries = n_entries
        self.policy = policy
        self._use_reference = use_reference
        self._entries: list[int] = []
        self._hand = 0

    def reset(self) -> None:
        """Invalidate all TLB entries."""
        self._entries.clear()
        self._hand = 0

    def snapshot_state(self) -> dict:
        """Capture the entry list and round-robin hand (checkpointing)."""
        return {"entries": list(self._entries), "hand": int(self._hand)}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        entries = [int(g) for g in state["entries"]]
        if len(entries) > self.n_entries:
            raise ValueError("TLB checkpoint does not match the entry count")
        self._entries = entries
        self._hand = int(state["hand"])

    def access_frame(self, gids: np.ndarray) -> TLBFrameResult:
        """Translate one frame's worth of page-table indices.

        Args:
            gids: global L2 block ids (page-table indices) of the frame's
                L1 misses, in access order.
        """
        gids = np.asarray(gids, dtype=np.int64)
        wide_lru = self.policy == "lru" and self.n_entries > MAX_KERNEL_WAYS
        if self._use_reference or wide_lru:
            return self._access_frame_reference(gids)
        n = len(gids)
        if n == 0:
            return TLBFrameResult(accesses=0, hits=0)
        # A consecutive repeat always hits and changes no state: round
        # robin mutates only on a miss, and under LRU the repeated entry
        # is already the most recent. Only run heads reach the engines.
        runs = gids[~mru_rehits(gids)]
        repeats = n - len(runs)
        if self.policy == "round_robin":
            # Run heads rarely hit many times in a row, so a block scan
            # against the entry table does not pay for itself: probing a
            # handful of entries per run head is the fastest engine.
            hits = self._access_frame_reference(runs).hits
        else:
            # LRU: the recency-stack kernel over a single set.
            group_start = np.zeros(len(runs), dtype=bool)
            group_start[0] = True
            carried = np.full((1, self.n_entries), EMPTY, dtype=np.int64)
            carried[0, : len(self._entries)] = self._entries[::-1]
            hit, stack = lru_stack_levels(runs, group_start, carried)
            self._entries = [int(g) for g in stack[0, ::-1] if g != EMPTY]
            hits = int(np.count_nonzero(hit))
        return TLBFrameResult(accesses=n, hits=hits + repeats)

    def _access_frame_reference(self, gids: np.ndarray) -> TLBFrameResult:
        """Per-access loop; the ground truth the batched engine must match."""
        hits = 0
        entries = self._entries
        cap = self.n_entries
        if self.policy == "lru":
            for gid in gids.tolist():
                if gid in entries:
                    hits += 1
                    entries.remove(gid)
                    entries.append(gid)
                else:
                    if len(entries) >= cap:
                        entries.pop(0)
                    entries.append(gid)
        else:  # round robin
            hand = self._hand
            for gid in gids.tolist():
                if gid in entries:
                    hits += 1
                else:
                    if len(entries) >= cap:
                        entries[hand] = gid
                        hand = (hand + 1) % cap
                    else:
                        entries.append(gid)
            self._hand = hand
        return TLBFrameResult(accesses=len(gids), hits=hits)
