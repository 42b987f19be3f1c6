"""One benchmark run: set-up, untraced timed phase, traced pass, gate.

A run of workload ``W`` with seed ``s``:

1. sets ``W`` up;
2. repeats ``W``'s unit of work untraced until the units have taken
   ``seconds`` and at least :data:`MIN_UNITS` ran. These give the
   end-to-end metrics: each frame's host time is its fastest repetition,
   and ``peak_rss_mb`` is read after the first unit;
3. between the units, untimed for them: once, sets up and runs one more
   unit with every layer wrapped in spans (per-layer metrics, and the
   traced-equals-untraced digest check); once, runs the reference engines
   of the correctness gate; and sets ``W`` up again after each unit, until
   there were ``setup_repeats`` set-ups and beyond that while set-ups have
   taken less than :data:`SETUP_SHARE` of ``seconds`` (``setup_s`` is the
   median of them all). Spread over the run like this, the repetitions
   sample more of the host's load;
4. checks every operation against the gate, outside every timed region.

Per-layer ``*_s`` metrics are host seconds summed over the traced pass
(one set-up plus one unit); counts are summed over the same pass.
"""

from __future__ import annotations

import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.hierarchy import TraceRunResult
from repro.core.timing import estimate_frame_timings, mean_fps

from perfbench.gate import failed_operations
from perfbench.spans import NullTracer, Tracer, instrument
from perfbench.workloads import WORKLOADS, Setup, Size, Unit

ROOT = Path(__file__).resolve().parent.parent
#: The timed phase runs at least this many units, so every frame has
#: repetitions to take the fastest of.
MIN_UNITS = 3
#: Percentile of the per-frame host times reported as ``frame_ms_tail``.
TAIL_PERCENTILE = 90.0
#: Extra set-ups run between units while all set-ups so far took less than
#: this share of ``seconds``: a cheap set-up is then sampled across the whole
#: run instead of in one short window of the host's load.
SETUP_SHARE = 0.1


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def best_frame_times(units: list[Unit]) -> list[float]:
    """Per design point and frame, the fastest repetition's host seconds.

    Every unit replays the same frames, so a slower repetition of a frame
    measures other tenants of the host, not the program.
    """
    ok = [u.frame_s for u in units if u.error is None]
    return [min(reps) for point in zip(*ok) for reps in zip(*point)]


def _run_unit(workload, setup, size: Size, tracer) -> Unit:
    try:
        return workload.run_unit(setup, tracer)
    except Exception:  # counted as failed operations by the gate
        n_frames = len(setup.refs) if setup.refs else size.frames
        return Unit(n_frames=n_frames, error=traceback.format_exc(limit=3))


def sim_metrics(points, unit: Unit) -> dict[str, float]:
    """Modelled (simulated-time) metrics, exact: means over design points."""
    agp, fps = [], []
    for (_, config), frames in zip(points, unit.stats):
        agp.append(np.mean([f.agp_bytes + f.vt_stream_bytes for f in frames]))
        result = TraceRunResult(config=config, frames=frames)
        fps.append(mean_fps(estimate_frame_timings(result)))
    return {
        "sim_agp_bytes_per_frame": float(np.mean(agp)),
        "sim_texturing_fps": float(np.mean(fps)),
    }


def end_to_end_metrics(setup_s, units, peak_rss_mb, points) -> tuple[dict, dict]:
    """End-to-end metrics, plus the sample counts behind them."""
    ok_units = [u for u in units if u.error is None]
    frame_ms = [1000.0 * t for t in best_frame_times(units)]
    values = {
        "setup_s": statistics.median(setup_s),
        "frames_per_s": _ratio(len(frame_ms), sum(frame_ms) / 1000.0),
        "frame_ms_p50": statistics.median(frame_ms) if frame_ms else 0.0,
        "frame_ms_tail": (
            float(np.percentile(frame_ms, TAIL_PERCENTILE)) if frame_ms else 0.0
        ),
        "peak_rss_mb": peak_rss_mb,
        # Any successful unit will do: the gate checks that all agree.
        **(
            sim_metrics(points, ok_units[0])
            if ok_units
            else {"sim_agp_bytes_per_frame": 0.0, "sim_texturing_fps": 0.0}
        ),
    }
    timing = {
        "units_timed": len(ok_units),
        "frame_samples": len(frame_ms),
        "frame_ms_tail_percentile": TAIL_PERCENTILE,
    }
    return values, timing


def layer_metrics(tracer: Tracer, untraced_fps: float, traced_fps: float) -> dict[str, float]:
    """Per-layer metrics from the traced pass's spans and counters."""
    agg = tracer.aggregate()
    c = tracer.counters

    def total(name):
        return agg[name].total_s if name in agg else 0.0

    def self_s(name):
        return agg[name].self_s if name in agg else 0.0

    def calls(name):
        return agg[name].calls if name in agg else 0

    tenancy_frames = calls("tenancy.attribution")
    segments = sum(
        1
        for name, _, _, parent in tracer.spans
        if name == "core.l2" and parent >= 0 and tracer.spans[parent][0] == "tenancy.attribution"
    )
    fetch_attempts = c["vt.fetches"] + c["vt.failed_attempts"]
    return {
        "scenes.build_s": total("scenes.build"),
        "raster.frame_s": total("raster.frame"),
        "raster.rasterize_s": total("raster.rasterize"),
        "raster.self_s": self_s("raster.frame"),
        "raster.triangles": c["raster.triangles"],
        "raster.fragments": c["raster.fragments"],
        "raster.fragments_per_s": _ratio(c["raster.fragments"], total("raster.frame")),
        "texture.footprint_s": total("texture.footprint"),
        "texture.footprint_calls": calls("texture.footprint"),
        "trace.collapse_s": total("trace.collapse"),
        "trace.refs_per_frame": _ratio(c["trace.refs"], c["raster.frames"]),
        "trace.write_s": total("trace.write"),
        "trace.read_s": total("trace.read"),
        "trace.bytes_per_frame": _ratio(c["trace.bytes_written"], c["trace.frames_written"]),
        "texture.l1_set_index_s": total("texture.l1_set_index"),
        "core.l1_s": total("core.l1"),
        "core.l1_accesses": c["core.l1_accesses"],
        "core.l1_accesses_per_s": _ratio(c["core.l1_accesses"], total("core.l1")),
        "core.l1_hit_rate": 1.0 - _ratio(c["core.l1_misses"], c["core.l1_texel_reads"]),
        "texture.l2_address_s": total("texture.l2_address"),
        "core.tlb_s": total("core.tlb"),
        "core.tlb_calls": calls("core.tlb"),
        "core.tlb_hit_rate": _ratio(c["core.tlb_hits"], c["core.tlb_accesses"]),
        "core.l2_s": total("core.l2"),
        "core.l2_calls": calls("core.l2"),
        "core.l2_accesses": c["core.l2_accesses"],
        "core.l2_accesses_per_s": _ratio(c["core.l2_accesses"], total("core.l2")),
        "core.l2_full_hit_rate": _ratio(c["core.l2_full_hits"], c["core.l2_accesses"]),
        "core.l2_partial_hit_rate": _ratio(c["core.l2_partial_hits"], c["core.l2_accesses"]),
        "core.hierarchy_self_s": self_s("core.hierarchy") + self_s("tenancy.attribution"),
        "tenancy.merge_s": total("tenancy.merge"),
        "tenancy.segments_per_frame": _ratio(segments, tenancy_frames),
        "tenancy.attribution_self_s": self_s("tenancy.attribution"),
        "tenancy.quota_s": total("tenancy.quota"),
        "vt.run_frame_s": total("vt.run_frame"),
        "vt.fetches": c["vt.fetches"],
        "vt.failed_attempts": c["vt.failed_attempts"],
        "vt.fetch_yield": _ratio(c["vt.fetches"], fetch_attempts),
        "vt.degraded_pages": c["vt.degraded_pages"],
        "reliability.link_s": total("reliability.link"),
        "reliability.link_retries": c["reliability.link_retries"],
        "bench.span_coverage": tracer.coverage(),
        "bench.trace_overhead_frac": 1.0 - _ratio(traced_fps, untraced_fps),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Size | None = None,
    gate_hook=None,
) -> tuple[dict, dict]:
    """Run workload ``name``; returns ``(result, report)``.

    ``result`` is the JSON object the benchmark prints last; ``report``
    records what ran and the traced pass's self-time table. ``gate_hook``
    (tests only) may alter the units before the gate sees them.
    """
    workload = WORKLOADS[name]
    size = size or workload.size
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{name}."))
    try:
        setup_s = []

        def timed_setup(where: Path) -> Setup:
            # Garbage from earlier set-ups or units is not this set-up's.
            gc.collect()
            start = perf_counter()
            done = workload.setup(seed, size, where, NullTracer())
            setup_s.append(perf_counter() - start)
            return done

        # Wall time of the traced pass and of the reference engines.
        phase_s = {}
        reference_bad = None
        setup = timed_setup(workdir / "setup")
        units: list[Unit] = []
        unit_s = 0.0
        while unit_s < seconds or len(units) < MIN_UNITS:
            # Opened streams hold reference cycles; free them between units
            # (untimed) so neither memory nor collector pauses drift.
            gc.collect()
            units.append(_run_unit(workload, setup, size, NullTracer()))
            unit_s += units[-1].seconds
            if len(units) == 1:
                # Later units only add allocator drift, and how many run
                # depends on the host's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                # The traced pass runs between units too, so the fastest
                # repetitions are drawn from the whole run.
                start = perf_counter()
                tracer = Tracer()
                with instrument(tracer):
                    with tracer.span("bench.setup"):
                        traced_setup = workload.setup(
                            seed, size, workdir / "traced", tracer
                        )
                    with tracer.span("bench.unit"):
                        traced = _run_unit(workload, traced_setup, size, tracer)
                del traced_setup
                shutil.rmtree(workdir / "traced", ignore_errors=True)
                phase_s["traced"] = perf_counter() - start
            if reference_bad is None and units[-1].error is None:
                start = perf_counter()
                reference_bad = workload.reference_bad(setup, units[-1], seed)
                phase_s["reference"] = perf_counter() - start
            if (
                len(setup_s) < workload.setup_repeats
                or sum(setup_s) < SETUP_SHARE * seconds
            ):
                timed_setup(workdir / "again")
                shutil.rmtree(workdir / "again", ignore_errors=True)
        gc.collect()

        if gate_hook is not None:
            gate_hook(units, traced)
        configs = [config for _, config in setup.points]
        attempted, failed, reasons = failed_operations(
            units, traced, configs, reference_bad or set()
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only once no other run is using it

    values, timing = end_to_end_metrics(setup_s, units, peak_rss_mb, setup.points)
    traced_fps = (
        _ratio(traced.n_frames * len(setup.points), traced.seconds)
        if traced.error is None
        else 0.0
    )
    layers = layer_metrics(tracer, values["frames_per_s"], traced_fps)

    declared = declared_metrics()
    kind = "per_layer" if trace else "end_to_end"
    chosen = layers if trace else values
    if set(chosen) != set(declared[kind]):
        raise RuntimeError(
            f"computed {kind} metrics do not match BENCHMARK.json: "
            f"{sorted(set(chosen) ^ set(declared[kind]))}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": declared[kind][k]}
            for k, v in chosen.items()
        },
    }
    report = {
        "workload": name,
        "seed": seed,
        "size": vars(size),
        "frames": units[0].n_frames,
        "design_points": [label for label, _ in setup.points],
        "setup_s": setup_s,
        "unit_s": [u.seconds for u in units],
        "phase_s": phase_s,
        **timing,
        "failures": reasons,
        "end_to_end": values,
        "per_layer": layers,
        "self_time": {
            k: {"calls": v.calls, "total_s": v.total_s, "self_s": v.self_s}
            for k, v in sorted(tracer.aggregate().items())
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return result, report
