"""Bench target for the batched L2/TLB simulation kernels.

Runs the paper's full architecture (2 KB L1, 2 MB-class L2 of 16x16
tiles, 16-entry round-robin TLB) end to end over the bench-scale City
and Village traces twice — once with the batched kernels, once with the
per-access reference loops — and asserts the two contracts of the
kernels on every workload it times: bit-identical per-frame results, and
>= 3x end-to-end simulation speedup.

A third row times the L2 kernel alone on Village's L1 miss stream at 16
blocks, where evicted entries recur within a call all the time, and
asserts the batched kernel is bit-identical to the reference loop and no
slower than it.

Timings land in ``BENCH_l2_kernel.json`` at the repo root so successive
runs leave a trajectory of the kernel's throughput.

The comparison always runs at the fixed bench scale (not
``$REPRO_SCALE``): at tiny scales per-call overhead dominates and the
speedup floor would measure the harness, not the kernels.
"""

import json
import time
from pathlib import Path

from repro.core.hierarchy import MultiLevelTextureCache
from repro.core.l1_cache import L1CacheSim
from repro.core.l2_cache import L2TextureCache
from repro.experiments.config import Scale
from repro.experiments.simcache import build_config
from repro.experiments.traces import get_trace
from repro.texture.sampler import FilterMode

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_l2_kernel.json"
MIN_SPEEDUP = 3.0
#: L2 size of the small-cache row, in 16x16 blocks.
SMALL_L2_BLOCKS = 16


def _run(trace, config, use_reference):
    sim = MultiLevelTextureCache(config, trace.address_space, use_reference=use_reference)
    start = time.perf_counter()
    result = sim.run_trace(trace)
    return result, time.perf_counter() - start


def _l2_streams(trace, config):
    """Per frame, the L2 addresses ``(gids, subs)`` of the L1 miss stream."""
    space = trace.address_space
    l1 = L1CacheSim(config.l1)
    streams = []
    for frame in trace.frames:
        sets = space.l1_set_indices(frame.refs, config.l1.n_sets)
        miss = l1.access_frame(frame.refs, frame.weights, sets).miss_refs
        streams.append(space.l2_addresses(miss, config.l2.l2_tile_texels))
    return streams


def _run_l2(streams, config, space, use_reference):
    l2 = L2TextureCache(config.l2, space, use_reference=use_reference)
    start = time.perf_counter()
    results = [l2.access_blocks(gids, subs) for gids, subs in streams]
    return results, l2.snapshot_state(), time.perf_counter() - start


def test_batched_kernels_speedup_and_identity(benchmark):
    scale = Scale.bench()
    config = build_config(
        l1_bytes=2048, l2_bytes=2 * 1024 * 1024 // 16, tlb_entries=16
    )
    traces = {
        w: get_trace(w, scale, FilterMode.TRILINEAR) for w in ("city", "village")
    }

    timings = {}
    for workload, trace in traces.items():
        batched, t_batched = _run(trace, config, use_reference=False)
        reference, t_reference = _run(trace, config, use_reference=True)
        assert batched.frames == reference.frames, (
            f"batched kernels diverged from the reference loops on {workload}"
        )
        timings[workload] = {
            "batched_s": t_batched,
            "reference_s": t_reference,
            "speedup": t_reference / t_batched,
            "l2_accesses": sum(f.l2.accesses for f in batched.frames),
        }

    for workload, row in timings.items():
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"end-to-end hierarchy speedup regressed on {workload}: "
            f"{row['speedup']:.2f}x < {MIN_SPEEDUP}x ({row})"
        )

    # The L2 kernel alone under a re-allocation storm.
    small = build_config(l1_bytes=2048, l2_bytes=SMALL_L2_BLOCKS * 16 * 16 * 4)
    village = traces["village"]
    streams = _l2_streams(village, small)
    batched, batched_state, t_batched = _run_l2(
        streams, small, village.address_space, use_reference=False
    )
    reference, reference_state, t_reference = _run_l2(
        streams, small, village.address_space, use_reference=True
    )
    assert batched == reference, "batched L2 diverged at 16 blocks"
    for key in ("t_block", "t_sectors", "brl_t_index"):
        assert (batched_state[key] == reference_state[key]).all(), key
    small_row = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "l2_accesses": sum(r.accesses for r in batched),
    }
    assert t_batched <= t_reference, (
        f"batched L2 kernel slower than the reference loop at "
        f"{SMALL_L2_BLOCKS} blocks ({small_row})"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "l2_kernel",
                "scale": scale.name,
                "config": repr(config),
                "min_speedup": MIN_SPEEDUP,
                "workloads": timings,
                "l2_kernel_only": {
                    "workload": "village",
                    "config": repr(small.l2),
                    **small_row,
                },
            },
            indent=2,
        )
        + "\n"
    )

    # Register the batched City run with pytest-benchmark for trend tracking.
    benchmark.pedantic(
        lambda: _run(traces["city"], config, use_reference=False),
        rounds=1,
        iterations=1,
    )
