"""Differential proof: batched rasterizer == per-triangle reference, bitwise.

The batched engine (:mod:`repro.raster.batch`, and the pipeline built on
it) must be *bit-identical* — not merely close — to the per-triangle
reference, for every field of every fragment and for the final packed
trace streams, under both raster orders, with clipped geometry, secondary
textures, depth testing, and shading. These tests are that proof.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.batch import FragmentBatch, rasterize_triangles
from repro.raster.pipeline import RenderOptions, Renderer
from repro.raster.rasterizer import RasterOrder, rasterize_triangle
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.sampler import FilterMode

from tests.raster.test_pipeline import camera, simple_scene
from tests.raster.test_rasterizer_properties import near_grid

W, H = 48, 40
TEXW, TEXH = 64, 32


def reference_batch(screen, inv_w, uv, z_ndc, double_sided, order):
    """The ground truth: the per-triangle loop, concatenated."""
    cols = {k: [] for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids")}
    for i in range(screen.shape[0]):
        frags = rasterize_triangle(
            screen_xy=screen[i],
            inv_w=inv_w[i],
            uv=uv[i],
            z_ndc=z_ndc[i],
            width=W,
            height=H,
            tex_width=TEXW,
            tex_height=TEXH,
            double_sided=double_sided,
            order=order,
        )
        if frags is None:
            continue
        for k in ("xs", "ys", "z", "u", "v", "lod"):
            cols[k].append(getattr(frags, k))
        cols["tri_ids"].append(np.full(len(frags), i, dtype=np.int64))
    if not cols["xs"]:
        return None
    return {k: np.concatenate(v) for k, v in cols.items()}


def assert_batches_identical(batch: FragmentBatch, ref: dict | None):
    if ref is None:
        assert len(batch) == 0
        return
    for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids"):
        got = getattr(batch, k if k != "tri_ids" else "tri_ids")
        np.testing.assert_array_equal(got, ref[k], err_msg=k)
        assert got.dtype == ref[k].dtype, k


coord = st.floats(-30.0, 80.0)
invw = st.floats(0.05, 4.0)
uvc = st.floats(-2.0, 3.0)
zc = st.floats(-1.0, 1.0)


@st.composite
def triangle_batches(draw):
    n = draw(st.integers(0, 12))
    screen = np.array(
        [[draw(coord) for _ in range(6)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3, 2)
    inv_w = np.array(
        [[draw(invw) for _ in range(3)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3)
    uv = np.array(
        [[draw(uvc) for _ in range(6)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3, 2)
    z = np.array(
        [[draw(zc) for _ in range(3)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3)
    return screen, inv_w, uv, z


class TestKernelDifferential:
    @given(triangle_batches(), st.booleans(),
           st.sampled_from([RasterOrder.SCANLINE, RasterOrder.TILED]))
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical(self, batch_args, double_sided, order):
        screen, inv_w, uv, z = batch_args
        got = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=double_sided, order=order,
        )
        ref = reference_batch(screen, inv_w, uv, z, double_sided, order)
        assert_batches_identical(got, ref)

    @given(triangle_batches())
    @settings(max_examples=30, deadline=None)
    def test_property_block_budget_invariant(self, batch_args):
        # Tiny candidate budgets force multi-block expansion; the result
        # must not depend on the blocking.
        screen, inv_w, uv, z = batch_args
        full = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=True,
        )
        small = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=True, block_candidates=7,
        )
        assert_batches_identical(small, None if len(full) == 0 else {
            "xs": full.xs, "ys": full.ys, "z": full.z, "u": full.u,
            "v": full.v, "lod": full.lod, "tri_ids": full.tri_ids,
        })

    def test_empty_batch(self):
        got = rasterize_triangles(
            screen_xy=np.empty((0, 3, 2)), inv_w=np.empty((0, 3)),
            uv=np.empty((0, 3, 2)), z_ndc=np.empty((0, 3)),
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
        )
        assert len(got) == 0
        assert got.fragment_counts(0).shape == (0,)

    def test_fragment_counts(self):
        screen = np.array(
            [[[0, 0], [0, 10], [10, 10]],    # front
             [[0, 0], [10, 10], [0, 10]],    # back face: culled
             [[0, 0], [0, 10], [10, 10]]],   # front again
            dtype=np.float64,
        )
        got = rasterize_triangles(
            screen_xy=screen, inv_w=np.ones((3, 3)),
            uv=np.tile(np.array([[0, 0], [1, 0], [0, 1]], dtype=np.float64), (3, 1, 1)),
            z_ndc=np.zeros((3, 3)),
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
        )
        counts = got.fragment_counts(3)
        assert counts[1] == 0
        assert counts[0] == counts[2] > 0
        # tri_ids group fragments by triangle in input order.
        assert np.all(np.diff(got.tri_ids) >= 0)


def _frame_equal(a, b, check_image):
    assert np.array_equal(a.trace.refs, b.trace.refs)
    assert np.array_equal(a.trace.weights, b.trace.weights)
    assert a.trace.n_fragments == b.trace.n_fragments
    assert np.array_equal(a.trace.object_offsets, b.trace.object_offsets)
    assert a.culled_instances == b.culled_instances
    assert a.rasterized_triangles == b.rasterized_triangles
    if check_image:
        assert np.array_equal(a.image, b.image)


def render_both(instances, mgr, options, n_frames=2):
    ref = Renderer(instances, mgr, options, use_reference=True)
    bat = Renderer(instances, mgr, options, use_reference=False)
    assert ref.engine == "reference" and bat.engine == "batched"
    cams = [camera() for _ in range(n_frames)]
    return (
        list(ref.iter_frames(cams)),
        list(bat.iter_frames(cams)),
    )


class TestPipelineDifferential:
    @pytest.mark.parametrize("order", [RasterOrder.SCANLINE, RasterOrder.TILED])
    @pytest.mark.parametrize("z_first", [False, True])
    def test_trace_identical(self, order, z_first):
        instances, mgr = simple_scene(two_quads=True)
        opts = RenderOptions(width=32, height=32, order=order,
                             z_before_texture=z_first,
                             filter_mode=FilterMode.TRILINEAR)
        for a, b in zip(*render_both(instances, mgr, opts)):
            _frame_equal(a, b, check_image=False)

    def test_shaded_image_identical(self):
        instances, mgr = simple_scene(with_images=True, two_quads=True)
        opts = RenderOptions(width=32, height=32, shade=True,
                             filter_mode=FilterMode.BILINEAR)
        for a, b in zip(*render_both(instances, mgr, opts)):
            _frame_equal(a, b, check_image=True)


class TestWorkloadDifferential:
    """City + Village + terrain: real scenes with clipping and multi-texture."""

    @pytest.mark.parametrize("workload", ["city", "village", "terrain"])
    @pytest.mark.parametrize("order", [RasterOrder.SCANLINE, RasterOrder.TILED])
    def test_workload_trace_identical(self, workload, order):
        wl = WORKLOAD_BUILDERS[workload](detail=0.25)
        opts = RenderOptions(width=96, height=72, order=order,
                             filter_mode=FilterMode.BILINEAR)
        cams = wl.cameras(2)
        ref = Renderer(wl.scene.instances, wl.scene.manager, opts,
                       use_reference=True)
        bat = Renderer(wl.scene.instances, wl.scene.manager, opts)
        for a, b in zip(ref.iter_frames(cams), bat.iter_frames(cams)):
            _frame_equal(a, b, check_image=False)


# --- Extreme geometry: the span kernel's boundary snapping ------------------
#
# The batched kernel finds each row's covered span from a float estimate of
# every edge crossing, snapped to the exact column with the kernel's own edge
# function. These cases stress that snap where it is most fragile: huge
# coordinates, near-degenerate slivers, axis-aligned edges (b == 0 rows),
# crossings exactly on pixel centres, and per-triangle bindings.

def reference_batch_per_triangle(screen, inv_w, uv, z_ndc, tex_w, tex_h,
                                 double_sided, order):
    """The per-triangle loop with per-triangle texture size and sidedness."""
    cols = {k: [] for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids")}
    for i in range(screen.shape[0]):
        frags = rasterize_triangle(
            screen_xy=screen[i], inv_w=inv_w[i], uv=uv[i], z_ndc=z_ndc[i],
            width=W, height=H,
            tex_width=float(tex_w[i]), tex_height=float(tex_h[i]),
            double_sided=bool(double_sided[i]), order=order,
        )
        if frags is None:
            continue
        for k in ("xs", "ys", "z", "u", "v", "lod"):
            cols[k].append(getattr(frags, k))
        cols["tri_ids"].append(np.full(len(frags), i, dtype=np.int64))
    if not cols["xs"]:
        return None
    return {k: np.concatenate(v) for k, v in cols.items()}


huge = st.floats(-1e7, 1e7)
near = st.floats(-20.0, 70.0)
# Pixel corners (integers) and pixel centres (half-integers) in and around
# the viewport: edges through them put crossings exactly on sample points.
on_grid = st.integers(-20, 2 * W + 20).map(lambda k: k / 2)
vertex_coord = st.one_of(huge, near, on_grid)


@st.composite
def extreme_triangle(draw):
    kind = draw(st.sampled_from(["free", "sliver", "axis", "grid", "centre"]))
    coord = on_grid if kind == "grid" else vertex_coord
    pts = [[draw(coord), draw(coord)] for _ in range(3)]
    if kind == "sliver":
        # Two vertices within 1e-9 of each other.
        tiny = st.floats(-1e-9, 1e-9)
        pts[1] = [pts[0][0] + draw(tiny), pts[0][1] + draw(tiny)]
    elif kind == "axis":
        # One edge axis-aligned (b == 0 when horizontal), optionally a
        # second one at right angles to it.
        axis = draw(st.integers(0, 1))
        pts[1][axis] = pts[0][axis]
        if draw(st.booleans()):
            pts[2][1 - axis] = pts[1][1 - axis]
    elif kind == "centre":
        # An edge through a pixel centre in exact arithmetic: rounding
        # decides which side the centre falls on, so the float crossing
        # estimate can land on either neighbour and the snap must walk.
        cx = draw(st.integers(0, W - 1)) + 0.5
        cy = draw(st.integers(0, H - 1)) + 0.5
        dx, dy = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        a, c = draw(st.floats(1.0, 30.0)), draw(st.floats(1.0, 30.0))
        pts[0] = [cx + a * dx, cy + a * dy]
        pts[1] = [cx - c * dx, cy - c * dy]
    return pts


@st.composite
def extreme_batches(draw):
    n = draw(st.integers(1, 8))
    screen = np.array([draw(extreme_triangle()) for _ in range(n)],
                      dtype=np.float64).reshape(n, 3, 2)
    inv_w = np.array([[draw(invw) for _ in range(3)] for _ in range(n)])
    uv = np.array([[draw(uvc) for _ in range(6)] for _ in range(n)]).reshape(n, 3, 2)
    z = np.array([[draw(zc) for _ in range(3)] for _ in range(n)])
    dims = st.sampled_from([1, 3, 64, 100, 1024])
    tex_w = np.array([draw(dims) for _ in range(n)], dtype=np.float64)
    tex_h = np.array([draw(dims) for _ in range(n)], dtype=np.float64)
    ds = np.array([draw(st.booleans()) for _ in range(n)])
    return screen, inv_w, uv, z, tex_w, tex_h, ds


class TestExtremeGeometryDifferential:
    @given(extreme_batches(),
           st.sampled_from([RasterOrder.SCANLINE, RasterOrder.TILED]))
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical(self, batch_args, order):
        screen, inv_w, uv, z, tex_w, tex_h, ds = batch_args
        got = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=tex_w, tex_height=tex_h,
            double_sided=ds, order=order,
        )
        ref = reference_batch_per_triangle(
            screen, inv_w, uv, z, tex_w, tex_h, ds, order
        )
        assert_batches_identical(got, ref)

    @pytest.mark.parametrize("order", [RasterOrder.SCANLINE, RasterOrder.TILED])
    def test_overflowing_rows_take_the_dense_fallback(self, order):
        # Products of these coordinates overflow to inf, so the rows' edge
        # terms are non-finite and are edge-tested densely, row by row.
        screen = np.array([
            [[10.25, -1e155], [10.25, 1e155], [1e155, 20.5]],
            [[5.5, 3.0], [1e200, 3.0], [5.5, 1e200]],
            [[-1e170, 7.5], [30.0, -1e170], [1e170, 30.0]],
            [[-1e200, 30.0], [40.0, 30.0], [20.0, 1e-3]],
        ])
        n = len(screen)
        rng = np.random.default_rng(5)
        inv_w = rng.uniform(0.5, 2.0, (n, 3))
        uv = rng.uniform(0.0, 1.0, (n, 3, 2))
        z = rng.uniform(-1.0, 1.0, (n, 3))
        tex_w = np.array([64.0, 3.0, 100.0, 1.0])
        tex_h = np.array([32.0, 1024.0, 1.0, 64.0])
        ds = np.ones(n, dtype=bool)
        with np.errstate(all="ignore"):
            got = rasterize_triangles(
                screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
                width=W, height=H, tex_width=tex_w, tex_height=tex_h,
                double_sided=ds, order=order,
            )
            ref = reference_batch_per_triangle(
                screen, inv_w, uv, z, tex_w, tex_h, ds, order
            )
        assert ref is not None and len(got) > 0
        assert_batches_identical(got, ref)


class TestNearEdgeCoverageDifferential:
    """Pixel centres on or within rounding of an edge, where the coverage
    test's choice of base endpoint decides the bits: both windings of every
    triangle must match the reference."""

    @staticmethod
    def check_both_windings(fwd, order):
        screen = np.concatenate((fwd, fwd[:, ::-1]))
        n = len(screen)
        rng = np.random.default_rng(n)
        inv_w = rng.uniform(0.5, 2.0, (n, 3))
        uv = rng.uniform(0.0, 1.0, (n, 3, 2))
        z = rng.uniform(-1.0, 1.0, (n, 3))
        got = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=True, order=order,
        )
        assert_batches_identical(
            got, reference_batch(screen, inv_w, uv, z, True, order)
        )

    @given(st.lists(st.tuples(*[near_grid] * 6), min_size=1, max_size=6),
           st.sampled_from([RasterOrder.SCANLINE, RasterOrder.TILED]))
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical_both_windings(self, tris, order):
        self.check_both_windings(
            np.array(tris, dtype=np.float64).reshape(-1, 3, 2), order
        )

    @pytest.mark.parametrize("order", [RasterOrder.SCANLINE, RasterOrder.TILED])
    def test_centre_within_rounding_of_edge(self, order):
        # Pixel centre (1.5, 1.5) is within rounding of the second edge.
        fwd = np.array([[[1.0, 0.0], [2.0, 2.0], [2.220446049250313e-16, 0.0]]])
        self.check_both_windings(fwd, order)
