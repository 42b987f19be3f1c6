"""Perspective-correct triangle rasterization with analytic LOD.

The rasterizer walks each triangle's pixels in scanline order (the paper's
assumption, §2.3: "we study multi-level texture caching assuming that
primitives are rasterized in scanline order"), producing per-fragment
perspective-correct (u, v) and a level-of-detail value from the analytic
screen-space derivatives of the texture coordinates — the "texture
compression" ratio used to select MIP levels (§2.1).

A tiled fragment ordering is also provided for the Hakura rasterization-order
ablation.

Coverage uses the standard three-edge-function test with inclusive (>= 0)
comparisons: pixels exactly on a shared edge may rasterize in both triangles.
This inflates fragment counts by well under a percent on the study's
workloads and keeps the vectorized inner loop simple; the cache metrics are
insensitive to it (duplicated edge fragments collapse in the trace). Each
edge is evaluated from its endpoint with the smaller x, so coverage does not
depend on the winding or on which triangle owns the edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Fragments", "RasterOrder", "rasterize_triangle"]


class RasterOrder(enum.Enum):
    """Fragment emission order within a triangle."""

    SCANLINE = "scanline"
    TILED = "tiled"


#: Edge length (pixels) of the tile used by ``RasterOrder.TILED``.
TILE_EDGE = 8


@dataclass
class Fragments:
    """Fragments of one rasterized triangle, in emission order.

    Attributes:
        xs / ys: int64 pixel coordinates.
        z: NDC depth (linear in screen space), for z-buffering.
        u / v: perspective-correct texture coordinates (unwrapped; the
            sampler applies GL_REPEAT).
        lod: per-fragment level of detail, log2 of the texel:pixel ratio in
            the texture's texel units.
    """

    xs: np.ndarray
    ys: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


def _coverage_edge(xa, ya, xb, yb, px, py, sign, e):
    """Edge function of the edge a -> b for the coverage test.

    ``e`` is the same edge function taken from ``a``, which the barycentrics
    use. Coverage instead takes every edge from its endpoint with the
    smaller x (for a vertical edge both endpoints give the same bits).
    IEEE rounding is symmetric under negation, so the reversed edge b -> a
    of the other winding, or of the neighbouring triangle, then gives the
    same bits (up to the sign of a zero): a pixel centre within rounding of
    an edge is kept or dropped consistently. When ``a`` is already that
    endpoint this is ``e`` itself.
    """
    if xb < xa:
        return ((xb - xa) * (py - yb) - (yb - ya) * (px - xb)) * sign
    return e


def rasterize_triangle(
    screen_xy: np.ndarray,
    inv_w: np.ndarray,
    uv: np.ndarray,
    z_ndc: np.ndarray,
    width: int,
    height: int,
    tex_width: int,
    tex_height: int,
    double_sided: bool = False,
    order: RasterOrder = RasterOrder.SCANLINE,
) -> Fragments | None:
    """Rasterize one screen-space triangle.

    Args:
        screen_xy: ``(3, 2)`` vertex positions in pixel coordinates
            (x right, y **down**; pixel centers at integer + 0.5).
        inv_w: ``(3,)`` per-vertex 1/w_clip (the perspective term).
        uv: ``(3, 2)`` per-vertex texture coordinates (not yet divided by w).
        z_ndc: ``(3,)`` per-vertex NDC depth.
        width / height: viewport dimensions.
        tex_width / tex_height: level-0 texel dimensions of the bound
            texture, used to express LOD in texel units.
        double_sided: rasterize back faces too (sky geometry).
        order: scanline (default, the paper) or tiled fragment order.

    Returns:
        A :class:`Fragments` batch, or None when the triangle is culled,
        degenerate, or covers no pixel centers.
    """
    p = np.asarray(screen_xy, dtype=np.float64)
    x0, y0 = p[0]
    x1, y1 = p[1]
    x2, y2 = p[2]

    # Twice the signed area in pixel space (y down). Meshes wind CCW viewed
    # from the front in world space (y up); the y flip of the viewport
    # transform makes front faces *clockwise* in pixel space, i.e. area2 < 0.
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area2 == 0.0:
        return None
    if area2 > 0.0 and not double_sided:
        return None  # back face

    # Bounding box clamped to the viewport.
    min_x = max(int(np.floor(min(x0, x1, x2))), 0)
    max_x = min(int(np.ceil(max(x0, x1, x2))), width)
    min_y = max(int(np.floor(min(y0, y1, y2))), 0)
    max_y = min(int(np.ceil(max(y0, y1, y2))), height)
    if min_x >= max_x or min_y >= max_y:
        return None

    # Pixel-center grid, row-major: this *is* scanline order.
    ys_grid, xs_grid = np.mgrid[min_y:max_y, min_x:max_x]
    px = xs_grid.ravel() + 0.5
    py = ys_grid.ravel() + 0.5

    # Barycentric numerators (edge functions), normalized to positive area.
    sign = 1.0 if area2 > 0 else -1.0
    e0 = ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) * sign
    e1 = ((x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)) * sign
    e2 = ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)) * sign
    inside = (
        (_coverage_edge(x1, y1, x2, y2, px, py, sign, e0) >= 0)
        & (_coverage_edge(x2, y2, x0, y0, px, py, sign, e1) >= 0)
        & (_coverage_edge(x0, y0, x1, y1, px, py, sign, e2) >= 0)
    )
    if not np.any(inside):
        return None

    inv_area = 1.0 / (area2 * sign)
    l0 = e0[inside] * inv_area
    l1 = e1[inside] * inv_area
    l2 = e2[inside] * inv_area
    xs = xs_grid.ravel()[inside]
    ys = ys_grid.ravel()[inside]

    # Perspective-correct attributes: u/w, v/w, 1/w are linear in screen
    # space; recover u, v by dividing by the interpolated 1/w.
    iw = np.asarray(inv_w, dtype=np.float64)
    uvw = np.asarray(uv, dtype=np.float64) * iw[:, None]  # (3, 2) of (u/w, v/w)
    w_frag = l0 * iw[0] + l1 * iw[1] + l2 * iw[2]
    p_frag = l0 * uvw[0, 0] + l1 * uvw[1, 0] + l2 * uvw[2, 0]
    q_frag = l0 * uvw[0, 1] + l1 * uvw[1, 1] + l2 * uvw[2, 1]
    # w_frag > 0 is guaranteed by near-plane clipping upstream.
    u = p_frag / w_frag
    v = q_frag / w_frag

    # NDC depth interpolates linearly in screen space (it is z/w).
    zn = np.asarray(z_ndc, dtype=np.float64)
    z = l0 * zn[0] + l1 * zn[1] + l2 * zn[2]

    # Analytic screen-space gradients. The barycentric gradients are
    # constant over the triangle:
    #   dl0/dx = (y1 - y2) / area2,  dl0/dy = (x2 - x1) / area2, etc.
    gl = (
        np.array(
            [
                [y1 - y2, x2 - x1],
                [y2 - y0, x0 - x2],
                [y0 - y1, x1 - x0],
            ]
        )
        / area2
    )  # (3, 2): rows are dl_k/d(x, y)
    dP = gl[0] * uvw[0, 0] + gl[1] * uvw[1, 0] + gl[2] * uvw[2, 0]  # d(u/w)/d(x,y)
    dQ = gl[0] * uvw[0, 1] + gl[1] * uvw[1, 1] + gl[2] * uvw[2, 1]
    dW = gl[0] * iw[0] + gl[1] * iw[1] + gl[2] * iw[2]

    # du/dx = (d(u/w)/dx - u * d(1/w)/dx) / (1/w), per fragment; in texels.
    inv_wf = 1.0 / w_frag
    dudx = (dP[0] - u * dW[0]) * inv_wf * tex_width
    dudy = (dP[1] - u * dW[1]) * inv_wf * tex_width
    dvdx = (dQ[0] - v * dW[0]) * inv_wf * tex_height
    dvdy = (dQ[1] - v * dW[1]) * inv_wf * tex_height
    rho = np.maximum(np.hypot(dudx, dvdx), np.hypot(dudy, dvdy))
    lod = np.log2(np.maximum(rho, 1e-12))

    frags = Fragments(xs=xs, ys=ys, z=z, u=u, v=v, lod=lod)
    if order is RasterOrder.TILED:
        # Stable sort by (tile row, tile col) alone: fragments already
        # arrive in (ys, xs) scanline order, so lexsort's stability keeps
        # that order within each tile — re-sorting by the raw coordinates
        # as well (the old 4-key sort) was redundant.
        key = np.lexsort((frags.xs // TILE_EDGE, frags.ys // TILE_EDGE))
        frags = Fragments(
            xs=frags.xs[key],
            ys=frags.ys[key],
            z=frags.z[key],
            u=frags.u[key],
            v=frags.v[key],
            lod=frags.lod[key],
        )
    return frags
