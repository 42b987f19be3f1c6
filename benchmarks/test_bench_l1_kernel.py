"""Bench target for the batched general-associativity L1 kernel.

Runs L1 reference streams through the stacked engine (MRU re-hit filter,
then the recency-level kernel) and through the retained per-access
reference loop, and asserts the pairing's two contracts on every row:
bit-identical per-frame results (miss counts *and* miss streams, plus
state snapshots at every frame boundary, including a mid-trace
checkpoint/resume across engines), and a speedup floor. The rows:

* ``city-16k-4way``: the bench-scale City trace, trilinear, through a
  16 KB 4-way L1; >= 3x.
* ``village-2k-2way``: the bench-scale Village trace, bilinear, through
  the 2 KB 2-way L1 every perfbench workload runs; >= 3x.
* ``rehit-free``: a random stream in which no access re-touches its
  set's most recent tag, so the filter drops nothing and only costs; the
  stacked engine must still beat the loop.

Timings land in ``BENCH_l1_kernel.json`` at the repo root so successive
runs leave a trajectory of the kernel's throughput. The kernel speedup is
algorithmic (numpy passes vs a Python loop), so unlike the render bench
it is measurable — and enforced — on a single-core container. Engines are
interleaved round by round, round zero is warmup, each keeps its best
(the ``test_bench_raster`` methodology) so a cold page cache right after
the trace render cannot skew the ratio.

The comparison always runs at the fixed bench scale (not ``$REPRO_SCALE``):
at tiny scales per-call overhead dominates and the speedup floor would
measure the harness, not the kernel.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.l1_cache import L1CacheConfig, L1CacheSim, mru_rehits
from repro.experiments.config import Scale
from repro.experiments.traces import get_trace
from repro.texture.sampler import FilterMode

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_l1_kernel.json"
MIN_SPEEDUP = 3.0
ROUNDS = 2
CITY = L1CacheConfig(size_bytes=16 * 1024, ways=4)
VILLAGE = L1CacheConfig(size_bytes=2 * 1024, ways=2)
#: Shape of the re-hit-free stream: frames, accesses per frame, and tags
#: cycled per set (a few more than the ways, so hits come from deeper
#: recency levels).
REHIT_FREE_FRAMES = 8
REHIT_FREE_ACCESSES = 250_000
REHIT_FREE_TAGS = 4


def _frames(trace, config):
    space = trace.address_space
    return [
        (f.refs, f.weights, space.l1_set_indices(f.refs, config.n_sets))
        for f in trace.frames
    ]


def _rehit_free_frames(config, seed=0):
    """Random frames where each access's tag differs from the previous
    access to its set, so :func:`mru_rehits` marks nothing."""
    rng = np.random.default_rng(seed)
    frames = []
    n = REHIT_FREE_ACCESSES
    for _ in range(REHIT_FREE_FRAMES):
        sets = rng.integers(0, config.n_sets, n)
        order = np.argsort(sets, kind="stable")
        # Within each set the tag index advances by 1..TAGS-1 (mod TAGS),
        # so it never repeats the set's previous tag.
        step = rng.integers(1, REHIT_FREE_TAGS, n)
        refs = np.empty(n, dtype=np.int64)
        refs[order] = sets[order] + config.n_sets * (
            np.cumsum(step) % REHIT_FREE_TAGS
        )
        assert not mru_rehits(refs, sets).any()
        frames.append((refs, np.ones(n, dtype=np.int64), sets))
    return frames


def _run(frames, config, use_reference):
    sim = L1CacheSim(config, use_reference=use_reference)
    results, snapshots = [], []
    start = time.perf_counter()
    for refs, weights, sets in frames:
        results.append(sim.access_frame(refs, weights, sets))
        snapshots.append(sim.snapshot_state())
    return results, snapshots, time.perf_counter() - start


def _compare(name, frames, config):
    """Time both engines on ``frames``, assert bit identity, return a row."""
    t_fast = t_ref = float("inf")
    for rnd in range(ROUNDS + 1):
        fast, fast_snaps, dt_fast = _run(frames, config, use_reference=False)
        ref, ref_snaps, dt_ref = _run(frames, config, use_reference=True)
        if rnd > 0:
            t_fast = min(t_fast, dt_fast)
            t_ref = min(t_ref, dt_ref)

    # Contract 1: bit identity, per frame and at every frame boundary.
    for i, (a, b) in enumerate(zip(fast, ref)):
        assert a.misses == b.misses, f"{name}: frame {i} miss count diverged"
        assert np.array_equal(a.miss_refs, b.miss_refs), f"{name}: frame {i} miss stream"
    for i, (sa, sb) in enumerate(zip(fast_snaps, ref_snaps)):
        assert sa == sb, f"{name}: frame {i} boundary state diverged"

    # Contract 1b: a mid-trace checkpoint taken on one engine resumes on
    # the other and still matches the uninterrupted reference.
    cut = len(frames) // 2
    resumed = L1CacheSim(config, use_reference=True)
    resumed.restore_state(fast_snaps[cut])
    for i, (refs, weights, sets) in enumerate(frames[cut + 1 :], cut + 1):
        out = resumed.access_frame(refs, weights, sets)
        assert out.misses == ref[i].misses, f"{name}: resumed frame {i} diverged"
        assert np.array_equal(out.miss_refs, ref[i].miss_refs)

    accesses = sum(r.accesses for r in fast)
    return {
        "config": repr(config),
        "accesses": accesses,
        "misses": sum(r.misses for r in fast),
        "stacked_s": t_fast,
        "reference_s": t_ref,
        "speedup": t_ref / t_fast,
        "stacked_accesses_per_s": accesses / t_fast,
        "reference_accesses_per_s": accesses / t_ref,
    }


def test_stacked_l1_kernel_speedup_and_identity(benchmark):
    scale = Scale.bench()
    city = _frames(get_trace("city", scale, FilterMode.TRILINEAR), CITY)
    village = _frames(get_trace("village", scale, FilterMode.BILINEAR), VILLAGE)
    rows = {
        "city-16k-4way": _compare("city-16k-4way", city, CITY),
        "village-2k-2way": _compare("village-2k-2way", village, VILLAGE),
        "rehit-free": _compare("rehit-free", _rehit_free_frames(VILLAGE), VILLAGE),
    }

    # Contract 2: the kernel is why the loop could be retired.
    for name in ("city-16k-4way", "village-2k-2way"):
        row = rows[name]
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"stacked L1 kernel speedup regressed on {name}: "
            f"{row['speedup']:.2f}x < {MIN_SPEEDUP}x ({row})"
        )
    # Contract 2b: where the re-hit filter drops nothing, its cost must
    # not hand the win back to the loop.
    free = rows["rehit-free"]
    assert free["stacked_s"] < free["reference_s"], (
        f"stacked L1 engine slower than the loop on a re-hit-free stream ({free})"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "l1_kernel",
                "scale": scale.name,
                "min_speedup": MIN_SPEEDUP,
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )

    # Register the stacked City run with pytest-benchmark for trend tracking.
    benchmark.pedantic(
        lambda: _run(city, CITY, use_reference=False), rounds=1, iterations=1
    )
