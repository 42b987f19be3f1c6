"""In-memory spans and counters for the benchmark's traced run.

The traced run patches the public functions of each layer (and, for the
renderer, the module attributes ``repro.raster.pipeline`` calls) with
wrappers that open a :func:`time.perf_counter` span and bump counters.
Spans nest through a stack, so a layer's self time is its span minus the
time its direct child spans cover. Nothing under ``src/`` is modified:
:func:`instrument` installs the wrappers and restores the originals on
exit.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    """Aggregate of every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class NullTracer:
    """Tracing off: spans and counters cost one method call."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Records nested spans ``(name, start, end, parent)`` and counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def _covered(self) -> list[float]:
        """Per span, the time its direct children cover (they never overlap)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name calls, total time and self time (span minus children)."""
        covered = self._covered()
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for (name, start, end, _), child in zip(self.spans, covered):
            agg = out[name]
            agg.calls += 1
            agg.total_s += end - start
            agg.self_s += end - start - child
        return dict(out)

    def coverage(self) -> float:
        """Share of the root spans' wall time their child spans explain."""
        covered = self._covered()
        roots = [
            (end - start, child)
            for (_, start, end, parent), child in zip(self.spans, covered)
            if parent < 0
        ]
        wall = sum(d for d, _ in roots)
        return sum(c for _, c in roots) / wall if wall > 0 else 0.0


def _wrap(tracer: Tracer, fn, name, on_result):
    def wrapper(*args, **kwargs):
        span = name(*args) if callable(name) else name
        with tracer.span(span):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# ----------------------------------------------------------------------
# Counters read off each layer's return value
# ----------------------------------------------------------------------
def _on_frame_output(tracer, args, out) -> None:
    tracer.count("raster.frames")
    tracer.count("raster.triangles", out.rasterized_triangles)
    tracer.count("raster.fragments", out.trace.n_fragments)
    tracer.count("trace.refs", len(out.trace.refs))


def _on_l1(tracer, args, res) -> None:
    tracer.count("core.l1_accesses", res.accesses)
    tracer.count("core.l1_texel_reads", res.texel_reads)
    tracer.count("core.l1_misses", res.misses)


def _on_tlb(tracer, args, res) -> None:
    tracer.count("core.tlb_accesses", res.accesses)
    tracer.count("core.tlb_hits", res.hits)


def _on_l2(tracer, args, res) -> None:
    tracer.count("core.l2_accesses", res.accesses)
    tracer.count("core.l2_full_hits", res.full_hits)
    tracer.count("core.l2_partial_hits", res.partial_hits)


def _on_link(tracer, args, res) -> None:
    tracer.count("reliability.link_retries", res.retried_transfers)


def _on_vt(tracer, args, res) -> None:
    tracer.count("vt.fetches", res.completed_fetches)
    tracer.count("vt.failed_attempts", res.failed_attempts)
    tracer.count("vt.degraded_pages", res.degraded_pages)


def _hierarchy_span(sim, frame) -> str:
    return "core.hierarchy" if sim.tenancy is None else "tenancy.attribution"


def _patch_table():
    """``(owner, attribute, span name, counter hook)`` per wrapped layer.

    Leaf kernels are wrapped on their own classes, never on the tenancy
    partition wrappers that delegate to them, so no call is counted twice.
    """
    from repro.core.hierarchy import MultiLevelTextureCache
    from repro.core.l1_cache import L1CacheSim
    from repro.core.l2_cache import L2TextureCache, SetAssociativeL2Cache
    from repro.core.tlb import TextureTableTLB
    from repro.raster import pipeline
    from repro.reliability.transfer import AgpTransferLink
    from repro.texture.tiling import AddressSpace
    from repro.trace.stream import StreamTraceWriter
    from repro.vt.system import VirtualTextureSystem

    return [
        (pipeline.Renderer, "render_frame", "raster.frame", _on_frame_output),
        (pipeline, "rasterize_triangles", "raster.rasterize", None),
        (pipeline, "footprint_tiles_grid", "texture.footprint", None),
        (pipeline, "collapse_runs", "trace.collapse", None),
        (StreamTraceWriter, "append_frame", "trace.write", None),
        (StreamTraceWriter, "close", "trace.write", None),
        (MultiLevelTextureCache, "run_frame", _hierarchy_span, None),
        (AddressSpace, "l1_set_indices", "texture.l1_set_index", None),
        (L1CacheSim, "access_frame", "core.l1", _on_l1),
        (AddressSpace, "l2_addresses", "texture.l2_address", None),
        (TextureTableTLB, "access_frame", "core.tlb", _on_tlb),
        (L2TextureCache, "access_blocks", "core.l2", _on_l2),
        (SetAssociativeL2Cache, "access_blocks", "core.l2", _on_l2),
        (AgpTransferLink, "transfer_frame", "reliability.link", _on_link),
        (VirtualTextureSystem, "run_frame", "vt.run_frame", _on_vt),
    ]


@contextlib.contextmanager
def instrument(tracer: NullTracer):
    """Install span wrappers on every layer while the block runs."""
    if not tracer.enabled:
        yield
        return
    saved = []
    try:
        for owner, attr, name, hook in _patch_table():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, hook))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
