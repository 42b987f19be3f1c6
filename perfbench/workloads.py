"""The benchmark's workloads, driven through the CLIs' public entry points.

Each workload has a *set-up* (scene builds, and the renders, quotas and
configs its timed phase replays) and a *unit of work*: a fixed set of
frames carried to cache statistics through one or more design points. The
timed phase repeats the unit; every repetition replays exactly the same
frames, so every repetition must produce the same statistics.

Only the entry points the ``render --stream`` and ``simulate`` CLIs use
are driven: ``WORKLOAD_BUILDERS``, ``Renderer.iter_frames``,
``StreamTraceWriter``, ``open_trace``, ``merge_traces``,
``utility_quotas`` and ``MultiLevelTextureCache.run_trace``. Rendering is
serial (one job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.experiments.config import Scale, scaled_l2_sizes
from repro.raster.pipeline import Renderer, RenderOptions
from repro.reliability import FaultModel, TransferPolicy
from repro.scenes import WORKLOAD_BUILDERS
from repro.tenancy import TenancyConfig, merge_traces, split_quota, utility_quotas
from repro.texture.sampler import FilterMode
from repro.trace.stream import StreamTraceWriter, open_trace
from repro.trace.trace import TraceMeta
from repro.vt import MegaTexture, VtConfig

from perfbench.gate import render_mismatches, sim_mismatches
from perfbench.spans import NullTracer

#: Frames of each design point the reference simulator replays (a prefix,
#: since cache state carries across frames).
SIM_SAMPLE_FRAMES = 2
#: Frames of each rendered animation the reference renderer re-renders.
RENDER_SAMPLE_FRAMES = 2

L1_2KB = L1CacheConfig(size_bytes=2 * 1024, ways=2)
TLB_ENTRIES = 16


@dataclass(frozen=True)
class Size:
    """Render size of a workload's animation."""

    width: int = 320
    height: int = 240
    frames: int = 16
    detail: float = 1.0

    def l2_2mb(self) -> L2CacheConfig:
        """The L2 playing the paper's 2 MB role at this resolution."""
        scale = Scale(self.width, self.height, self.frames, self.detail, "bench")
        return L2CacheConfig(
            size_bytes=dict(scaled_l2_sizes(scale))["2 MB"],
            l2_tile_texels=16,
            policy="clock",
        )


@dataclass
class Shot:
    """A built scene with its renderer options and camera path."""

    workload: object
    options: RenderOptions
    cameras: list
    meta: TraceMeta


@dataclass
class Rendered:
    """A shot and where its stream lives."""

    shot: Shot
    path: Path


@dataclass
class Setup:
    """What a unit of work replays: design points and rendered streams."""

    points: list[tuple[str, HierarchyConfig]]
    renders: list[Rendered]
    refs: list[int] | None = None
    seed: int = 0


@dataclass
class Unit:
    """One unit of work: per design point, per frame, stats and host time."""

    n_frames: int
    stats: list[list] = field(default_factory=list)
    frame_s: list[list[float]] = field(default_factory=list)
    refs: list[int] = field(default_factory=list)
    seconds: float = 0.0
    error: str | None = None


class FrameClock:
    """A trace's frame sequence that stamps the clock as each frame goes out.

    ``run_trace`` consumes frames strictly in order, so the time between
    two stamps is one frame's read (or merge) plus its simulation.
    """

    def __init__(self, frames, tracer, span: str):
        self._frames = frames
        self._tracer = tracer
        self._span = span
        self.stamps: list[float] = []

    def __iter__(self):
        for i in range(len(self._frames)):
            self.stamps.append(perf_counter())
            with self._tracer.span(self._span):
                frame = self._frames[i]
            yield frame


def _spread(times: list[float], total: float) -> list[float]:
    """Share the time no frame was stamped with (open, close) evenly."""
    extra = (total - sum(times)) / len(times)
    return [t + extra for t in times]


def build_shot(name: str, seed: int, size: Size, tracer) -> Shot:
    """Build workload ``name`` from ``seed`` and its camera path."""
    with tracer.span("scenes.build"):
        wl = WORKLOAD_BUILDERS[name](detail=size.detail, seed=seed)
    cameras = wl.cameras(size.frames)
    options = RenderOptions(
        width=size.width, height=size.height, filter_mode=FilterMode.BILINEAR
    )
    meta = TraceMeta(
        workload=name,
        width=size.width,
        height=size.height,
        filter_mode=FilterMode.BILINEAR.value,
        n_frames=len(cameras),
    )
    return Shot(wl, options, cameras, meta)


def render_stream(shot: Shot, path: Path, tracer) -> tuple[list[float], list[int]]:
    """Render ``shot`` frame by frame into a ``.stream`` (one job).

    Returns per-frame host seconds (render + write) and per-frame refs.
    """
    scene = shot.workload.scene
    start = t = perf_counter()
    renderer = Renderer(scene.instances, scene.manager, shot.options)
    times, refs = [], []
    with StreamTraceWriter(path, shot.meta, scene.manager.textures) as writer:
        for out in renderer.iter_frames(shot.cameras):
            writer.append_frame(out.trace)
            refs.append(len(out.trace.refs))
            now = perf_counter()
            times.append(now - t)
            t = now
    times = _spread(times, perf_counter() - start)
    if tracer.enabled:
        tracer.count("trace.frames_written", len(refs))
        tracer.count(
            "trace.bytes_written",
            sum(p.stat().st_size for p in path.iterdir()),
        )
    return times, refs


def simulate(trace, config, tracer, span: str, start: float):
    """``run_trace`` over ``trace``; per-frame host seconds since ``start``."""
    clock = FrameClock(trace.frames, tracer, span)
    result = MultiLevelTextureCache(config, trace.address_space).run_trace(
        SimpleNamespace(frames=clock)
    )
    end = perf_counter()
    times = np.diff([*clock.stamps, end]).tolist()
    return result.frames, _spread(times, end - start)


def _open(path: Path, tracer):
    with tracer.span("trace.read"):
        return open_trace(path)


class Workload:
    """Base: subclasses define ``setup``, ``run_unit`` and the replay input."""

    name: str
    size = Size()
    setup_repeats = 3

    def setup(self, seed: int, size: Size, workdir: Path, tracer) -> Setup:
        raise NotImplementedError

    def run_unit(self, setup: Setup, tracer) -> Unit:
        raise NotImplementedError

    def replay_input(self, setup: Setup):
        """A fresh copy of the trace the design points replay."""
        raise NotImplementedError

    def reference_bad(self, setup: Setup, baseline: Unit, seed: int):
        """``(point, frame)`` pairs the reference engines reject."""
        rng = np.random.default_rng(seed)
        bad = set()
        n_points = len(setup.points)
        for r in setup.renders:
            n = len(r.shot.cameras)
            sample = sorted(
                rng.choice(n, size=min(RENDER_SAMPLE_FRAMES, n), replace=False)
            )
            for i in render_mismatches(
                r.shot.workload.scene, r.shot.options, r.shot.cameras,
                open_trace(r.path), sample,
            ):
                bad.update((d, i) for d in range(n_points))
        for d, (_, config) in enumerate(setup.points):
            for i in sim_mismatches(
                self.replay_input(setup), config,
                baseline.stats[d], SIM_SAMPLE_FRAMES,
            ):
                bad.add((d, i))
        return bad


class VillageWalk(Workload):
    """Render → stream on disk → reopen → simulate the 2-level hierarchy."""

    name = "village-walk"

    def setup(self, seed, size, workdir, tracer):
        shot = build_shot("village", seed, size, tracer)
        config = HierarchyConfig(
            l1=L1_2KB, l2=size.l2_2mb(), tlb_entries=TLB_ENTRIES
        )
        # The unit writes the stream; it lives next to the set-up.
        return Setup(
            points=[("l1-2k+l2-2mb+tlb16", config)],
            renders=[Rendered(shot, workdir / "village.stream")],
        )

    def replay_input(self, setup):
        return open_trace(setup.renders[0].path)

    def run_unit(self, setup, tracer):
        r = setup.renders[0]
        start = perf_counter()
        render_s, refs = render_stream(r.shot, r.path, tracer)
        sim_start = perf_counter()
        trace = _open(r.path, tracer)
        stats, sim_s = simulate(trace, setup.points[0][1], tracer, "trace.read", sim_start)
        return Unit(
            n_frames=len(refs),
            stats=[stats],
            frame_s=[[a + b for a, b in zip(render_s, sim_s)]],
            refs=refs,
            seconds=perf_counter() - start,
        )


class TerrainVt(Workload):
    """Terrain paged through the VT megatexture over a lossy AGP link.

    Set-up renders the fly-over into a ``.stream``; the unit reopens it and
    replays it through both residency budgets, each from cold caches.
    """

    name = "terrain-vt"

    def setup(self, seed, size, workdir, tracer):
        shot = build_shot("terrain", seed, size, tracer)
        path = workdir / "terrain.stream"
        _, refs = render_stream(shot, path, tracer)
        space = open_trace(path).address_space
        return Setup(
            points=self.points(seed, space),
            renders=[Rendered(shot, path)],
            refs=refs,
        )

    @staticmethod
    def points(seed, space) -> list[tuple[str, HierarchyConfig]]:
        total = MegaTexture(space, 32).total_pages()
        floor = space.texture_count + 32  # the pinned coarsest pages + slack
        out = []
        for label, share in (("vt-small", 16), ("vt-large", 4)):
            vt = VtConfig(
                page_texels=32,
                max_resident_pages=max(floor, total // share),
                max_in_flight=32,
                frame_budget_us=2000.0,
                timeout_frames=4,
                fault_model=FaultModel(drop_rate=0.2, seed=seed),
                policy=TransferPolicy(max_retries=3),
            )
            out.append(
                (
                    f"l1-2k-pull+lossy-link+{label}",
                    HierarchyConfig(
                        l1=L1_2KB,
                        fault_model=FaultModel(drop_rate=0.05, seed=seed),
                        transfer_policy=TransferPolicy(max_retries=3),
                        vt=vt,
                    ),
                )
            )
        return out

    def replay_input(self, setup):
        return open_trace(setup.renders[0].path)

    def run_unit(self, setup, tracer):
        unit = Unit(n_frames=len(setup.refs), refs=setup.refs)
        unit_start = start = perf_counter()  # the first frames carry the open
        trace = _open(setup.renders[0].path, tracer)
        for _, config in setup.points:
            stats, frame_s = simulate(trace, config, tracer, "trace.read", start)
            unit.stats.append(stats)
            unit.frame_s.append(frame_s)
            start = perf_counter()
        unit.seconds = perf_counter() - unit_start
        return unit


class TenantMix(Workload):
    """Four tenants (Village, City, Village, City) merged lazily on a
    bursty schedule through a utility-partitioned L2 with TLB quotas."""

    name = "tenant-mix"
    size = Size(frames=6)
    tenants = ("village", "city", "village", "city")

    def _merge(self, setup, tracer):
        return merge_traces(
            [_open(r.path, tracer) for r in setup.renders],
            schedule="bursty",
            seed=setup.seed,
            lazy=True,
        )

    def setup(self, seed, size, workdir, tracer):
        setup = Setup(points=[], renders=[], seed=seed)
        refs = []
        for t, scene in enumerate(self.tenants):
            # Each Village/City pair gets its own layouts, so a run averages
            # over two of each.
            shot = build_shot(scene, seed * 2 + t // 2, size, tracer)
            path = workdir / f"tenant{t}-{scene}.stream"
            refs.append(render_stream(shot, path, tracer)[1])
            setup.renders.append(Rendered(shot, path))
        l2 = size.l2_2mb()
        with tracer.span("tenancy.quota"):
            quotas = utility_quotas(
                [open_trace(r.path) for r in setup.renders],
                L1_2KB.size_bytes,
                l2,
                l1_ways=L1_2KB.ways,
            )
        _, bases = self._merge(setup, tracer)
        tenancy = TenancyConfig(
            tid_bases=bases,
            policy="utility",
            quotas=quotas,
            tlb_quotas=split_quota(TLB_ENTRIES, [1.0] * len(self.tenants)),
        )
        setup.points = [
            (
                "4-tenant-bursty+utility-l2+tlb-quotas",
                HierarchyConfig(
                    l1=L1_2KB, l2=l2, tlb_entries=TLB_ENTRIES, tenancy=tenancy
                ),
            )
        ]
        # A merged frame interleaves every tenant's refs for that frame.
        setup.refs = [sum(frame) for frame in zip(*refs)]
        return setup

    def replay_input(self, setup):
        return self._merge(setup, NullTracer())[0]

    def run_unit(self, setup, tracer):
        start = perf_counter()
        with tracer.span("tenancy.merge"):
            merged, bases = self._merge(setup, tracer)
        config = setup.points[0][1]
        if tuple(bases) != config.tenancy.tid_bases:
            raise RuntimeError(f"tenant bases moved: {bases}")
        stats, times = simulate(merged, config, tracer, "tenancy.merge", start)
        return Unit(
            n_frames=len(setup.refs),
            stats=[stats],
            frame_s=[times],
            refs=setup.refs,
            seconds=perf_counter() - start,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (VillageWalk(), TenantMix(), TerrainVt())
}
