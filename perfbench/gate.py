"""Correctness gate: reference engines, run-to-run digests, accounting laws.

An *operation* is one frame carried to cache statistics in one design
point. The gate runs outside every timed region and marks an operation
failed when

* its unit of work raised,
* its per-frame stats digest differs from the first untraced unit's (every
  unit of a run replays the same frames, and the traced unit must match
  the untraced ones bit for bit),
* it breaks one of the accounting laws checked in :func:`law_violations`, or
* the reference engines disagree on its frame: :func:`render_mismatches`
  re-renders sampled frames on the per-triangle reference loop and
  :func:`sim_mismatches` re-simulates a prefix on the per-access loops.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np

from repro.core.hierarchy import MultiLevelTextureCache, frames_to_columns
from repro.raster.pipeline import Renderer
from repro.tenancy.stats import TenantFrameStats


def frame_digest(stats) -> str:
    """Stable digest of one frame's complete cache statistics."""
    h = hashlib.sha256()
    for name, column in sorted(frames_to_columns([stats]).items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def _tenant_total(stats, column: str) -> int:
    if column.startswith("l2_"):
        sub, field = stats.l2, column[3:]
    elif column.startswith("tlb_"):
        sub, field = stats.tlb, column[4:]
    else:
        sub, field = stats, column
    return 0 if sub is None else int(getattr(sub, field))


def law_violations(stats, refs: int, config) -> list[str]:
    """The accounting laws one frame's stats must obey.

    ``refs`` is the number of collapsed references the frame presented to
    the L1; ``config`` is the :class:`HierarchyConfig` it ran under.
    """
    bad = []
    if stats.l1_accesses != refs:
        bad.append(f"L1 accesses {stats.l1_accesses} != refs {refs}")
    if stats.l1_misses > stats.l1_accesses:
        bad.append("L1 misses exceed L1 accesses")
    if stats.l2 is not None:
        l2 = stats.l2
        if l2.accesses != stats.l1_misses:
            bad.append(f"L2 accesses {l2.accesses} != L1 misses {stats.l1_misses}")
        if l2.full_hits + l2.partial_hits + l2.full_misses != l2.accesses:
            bad.append("L2 full + partial + miss != L2 accesses")
    if stats.tlb is not None and stats.tlb.accesses != stats.l1_misses:
        bad.append(f"TLB accesses {stats.tlb.accesses} != L1 misses")
    if stats.tenants is not None:
        for f in fields(TenantFrameStats):
            column = getattr(stats.tenants, f.name)
            if int(np.sum(column)) != _tenant_total(stats, f.name):
                bad.append(f"tenant column {f.name} does not sum to the total")
    if stats.transfer is not None:
        downloads = (
            stats.l2.host_downloads if stats.l2 is not None else stats.l1_misses
        )
        if stats.transfer.requested_blocks != downloads:
            bad.append(
                f"link transfers {stats.transfer.requested_blocks} != "
                f"host downloads {downloads}"
            )
    if stats.vt is not None:
        budget = config.vt.max_resident_pages
        if stats.vt.resident_pages > budget:
            bad.append(
                f"VT resident pages {stats.vt.resident_pages} > budget {budget}"
            )
    return bad


def render_mismatches(scene, options, cameras, trace, frames) -> list[int]:
    """Frame indices whose streamed trace differs from a reference render."""
    reference = Renderer(
        scene.instances, scene.manager, options, use_reference=True
    )
    bad = []
    for i in frames:
        want = reference.render_frame(cameras[i]).trace
        got = trace.frames[i]
        same = (
            want.n_fragments == got.n_fragments
            and np.array_equal(want.refs, got.refs)
            and np.array_equal(want.weights, got.weights)
            and np.array_equal(want.object_offsets, got.object_offsets)
        )
        if not same:
            bad.append(i)
    return bad


def sim_mismatches(trace, config, stats, n_frames: int) -> list[int]:
    """Frame indices of a run's first ``n_frames`` that the reference
    simulator (per-access loops on every level) does not reproduce."""
    reference = MultiLevelTextureCache(
        config, trace.address_space, use_reference=True
    )
    bad = []
    for i in range(min(n_frames, len(stats), len(trace.frames))):
        if frame_digest(reference.run_frame(trace.frames[i])) != frame_digest(
            stats[i]
        ):
            bad.append(i)
    return bad


def failed_operations(units, traced, points, reference_bad) -> tuple[int, int, list[str]]:
    """Count ``(attempted, failed)`` operations over a run's units.

    ``units`` are the untraced units, ``traced`` the traced one; each is a
    :class:`~perfbench.workloads.Unit` (``error`` set when it raised).
    ``points`` are the design points' configs, ``reference_bad`` a set of
    ``(point, frame)`` pairs the reference engines rejected. Returns the
    counts plus one line per distinct failure reason.
    """
    baseline = next((u for u in units if u.error is None), None)
    base_digests = (
        None
        if baseline is None
        else [[frame_digest(s) for s in dp] for dp in baseline.stats]
    )
    attempted = failed = 0
    reasons: set[str] = set()
    for unit in [*units, traced]:
        n_ops = unit.n_frames * len(points)
        attempted += n_ops
        if unit.error is not None or base_digests is None:
            failed += n_ops
            reasons.add(f"unit raised: {unit.error or 'no successful unit'}")
            continue
        for d, (config, frames) in enumerate(zip(points, unit.stats)):
            for f, stats in enumerate(frames):
                why = law_violations(stats, unit.refs[f], config)
                if unit is not baseline and frame_digest(stats) != base_digests[d][f]:
                    why.append("stats digest differs from the first untraced unit")
                if (d, f) in reference_bad:
                    why.append("reference engines disagree")
                if why:
                    failed += 1
                    reasons.update(why)
    return attempted, failed, sorted(reasons)
