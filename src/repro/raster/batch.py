"""Triangle-batched rasterization: the vectorized trace-generation engine.

:func:`rasterize_triangles` performs triangle setup for a whole block of
triangles in one vectorized pass — signed areas, backface culling, clamped
bounding boxes, barycentric gradients, and the perspective terms — and then
finds each bounding-box row's exact covered span, evaluating attributes at
covered pixels only. Fragments come out grouped per triangle in exactly the
emission order of the per-triangle reference rasterizer
(:func:`repro.raster.rasterizer.rasterize_triangle`): triangles in input
order, fragments in scanline (or tiled) order within each triangle.

Coverage is found per row, not per pixel. On a fixed row the kernel's edge
function ``e = t - b*(px - xk)`` is monotone in ``px`` under IEEE rounding,
because ``fl(a - c)`` and ``fl(b*d)`` are monotone in their varying
argument. Each edge's ``e >= 0`` set is therefore a prefix (``b > 0``) or a
suffix (``b < 0``) of the row, all or nothing when ``b == 0``, and the
covered pixels of a row are one interval ``[lo, hi)``. Each boundary is
estimated in float from the crossing ``xk + t/b`` and then snapped to the
exact column by evaluating the kernel's own ``e`` at neighbouring columns,
so the spans are exactly the pixels a dense edge test would keep. A row
with a non-finite ``t``, ``b`` or ``xk`` (overflowing coordinates) is
edge-tested densely instead. Rows are laid out in triangle order, so the
spans — and the fragments expanded from them — are already in emission
order.

Engine pairing (the PR 3 pattern, applied upstream of the caches): every
arithmetic expression mirrors the reference implementation operation for
operation and in the same operand order, so the emitted fragments are
**bit-identical** — not merely close — to the per-triangle loop. The
reference stays selectable (``Renderer(..., use_reference=True)``) as the
ground truth the differential suite proves this module against.

Fragments are evaluated in blocks of about ``block_candidates`` at a time
and written straight into output arrays sized by the spans, so peak
temporary memory stays bounded no matter how many triangles are batched or
how large they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.raster.rasterizer import TILE_EDGE, RasterOrder

__all__ = [
    "FragmentBatch",
    "rasterize_triangles",
    "DEFAULT_BLOCK_CANDIDATES",
]

#: Default cap on fragments evaluated per block. A block keeps ~20 float64
#: temporaries per fragment live, so 1 << 14 holds its working set near the
#: per-core L2 cache.
DEFAULT_BLOCK_CANDIDATES = 1 << 14


@dataclass
class FragmentBatch:
    """Fragments of a batch of triangles, grouped by triangle.

    Field semantics match :class:`~repro.raster.rasterizer.Fragments`;
    ``tri_ids`` additionally holds, per fragment, the index of its triangle
    in the input arrays. It is non-decreasing: fragments are grouped by
    triangle in input order, which is what lets callers slice per-triangle
    sub-streams (depth testing, shading) out of one batch.
    """

    xs: np.ndarray
    ys: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray
    tri_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)

    def fragment_counts(self, n_triangles: int) -> np.ndarray:
        """Fragments per input triangle (0 for culled/empty triangles)."""
        return np.bincount(self.tri_ids, minlength=n_triangles)


def _empty_batch() -> FragmentBatch:
    zi = np.empty(0, dtype=np.int64)
    zf = np.empty(0, dtype=np.float64)
    return FragmentBatch(
        xs=zi, ys=zi.copy(), z=zf, u=zf.copy(), v=zf.copy(), lod=zf.copy(),
        tri_ids=zi.copy(),
    )


def _edge_boundaries(t, b, xk, lo, hi):
    """Exact boundary column of each edge's ``e >= 0`` set on its row.

    All arguments are matching 1-D float64 arrays with finite ``t``, ``b``,
    ``xk`` and ``b != 0``; ``[lo, hi)`` is the row's box. Returns the first
    column ``c`` in ``[lo, hi]`` at which ``flips(c)`` — "outside" for a
    prefix edge (``b > 0``), "inside" for a suffix edge (``b < 0``) — or
    ``hi`` when none does. ``flips`` is monotone along the row, so walking
    from the float estimate to where it changes lands on that column.
    """
    prefix = b > 0

    def flips(col, s):
        # The kernel's own edge function at pixel centre col + 0.5.
        e = t[s] - b[s] * ((col + 0.5) - xk[s])
        return (e >= 0) != prefix[s]

    # e == 0 at px = xk + t/b, i.e. at column est; exact arithmetic would
    # put the boundary just past it (prefix) or on it (suffix).
    est = xk + t / b - 0.5
    col = np.where(prefix, np.floor(est) + 1.0, np.ceil(est))
    col = np.fmin(np.fmax(col, lo), hi)  # NaN-safe clamp to the box
    s = np.flatnonzero(col > lo)
    s = s[flips(col[s] - 1.0, s)]
    while len(s):
        col[s] -= 1.0
        s = s[col[s] > lo[s]]
        s = s[flips(col[s] - 1.0, s)]
    s = np.flatnonzero(col < hi)
    s = s[~flips(col[s], s)]
    while len(s):
        col[s] += 1.0
        s = s[col[s] < hi[s]]
        s = s[~flips(col[s], s)]
    return col


def rasterize_triangles(
    screen_xy: np.ndarray,
    inv_w: np.ndarray,
    uv: np.ndarray,
    z_ndc: np.ndarray,
    width: int,
    height: int,
    tex_width: int | np.ndarray,
    tex_height: int | np.ndarray,
    double_sided: bool | np.ndarray = False,
    order: RasterOrder = RasterOrder.SCANLINE,
    block_candidates: int = DEFAULT_BLOCK_CANDIDATES,
) -> FragmentBatch:
    """Rasterize a batch of screen-space triangles in one vectorized pass.

    Args:
        screen_xy: ``(T, 3, 2)`` vertex positions in pixel coordinates.
        inv_w: ``(T, 3)`` per-vertex 1/w_clip.
        uv: ``(T, 3, 2)`` per-vertex texture coordinates.
        z_ndc: ``(T, 3)`` per-vertex NDC depth.
        width / height / order: as in
            :func:`~repro.raster.rasterizer.rasterize_triangle`.
        tex_width / tex_height: bound texture dimensions — a scalar shared
            by the batch, or ``(T,)`` arrays so triangles with different
            texture bindings can share one call.
        double_sided: a scalar, or a ``(T,)`` bool array for per-triangle
            sidedness.
        block_candidates: fragments evaluated per block (a block always
            holds at least one whole row span).

    Returns:
        A :class:`FragmentBatch`. Culled, degenerate, and empty triangles
        simply contribute no fragments; the concatenation of the batch's
        per-triangle groups is bit-identical to calling the reference
        rasterizer triangle by triangle.
    """
    p = np.asarray(screen_xy, dtype=np.float64).reshape(-1, 3, 2)
    n_tris = p.shape[0]
    if n_tris == 0:
        return _empty_batch()
    iw_all = np.asarray(inv_w, dtype=np.float64).reshape(n_tris, 3)
    uv_all = np.asarray(uv, dtype=np.float64).reshape(n_tris, 3, 2)
    zn_all = np.asarray(z_ndc, dtype=np.float64).reshape(n_tris, 3)
    if block_candidates < 1:
        raise ValueError(f"block_candidates must be >= 1, got {block_candidates}")

    x0a, y0a = p[:, 0, 0], p[:, 0, 1]
    x1a, y1a = p[:, 1, 0], p[:, 1, 1]
    x2a, y2a = p[:, 2, 0], p[:, 2, 1]

    # Twice the signed area; front faces are clockwise in pixel space
    # (area2 < 0), exactly as in the reference.
    area2_all = (x1a - x0a) * (y2a - y0a) - (x2a - x0a) * (y1a - y0a)
    live = area2_all != 0.0
    ds = np.asarray(double_sided, dtype=bool)
    if ds.ndim:
        live &= (area2_all < 0.0) | ds.reshape(-1)
    elif not ds:
        live &= area2_all < 0.0

    # Bounding boxes clamped to the viewport, in float so absurd off-screen
    # coordinates cannot overflow the int cast; clamped-out triangles fail
    # the emptiness test exactly like the reference's early return.
    fw, fh = float(width), float(height)
    bx0 = np.clip(np.floor(np.minimum(np.minimum(x0a, x1a), x2a)), 0.0, fw)
    bx1 = np.clip(np.ceil(np.maximum(np.maximum(x0a, x1a), x2a)), 0.0, fw)
    by0 = np.clip(np.floor(np.minimum(np.minimum(y0a, y1a), y2a)), 0.0, fh)
    by1 = np.clip(np.ceil(np.maximum(np.maximum(y0a, y1a), y2a)), 0.0, fh)
    live &= (bx0 < bx1) & (by0 < by1)

    idx = np.flatnonzero(live)
    n_live = len(idx)
    if n_live == 0:
        return _empty_batch()

    # Per-live-triangle setup (one vectorized pass over the whole batch).
    x0, y0 = x0a[idx], y0a[idx]
    x1, y1 = x1a[idx], y1a[idx]
    x2, y2 = x2a[idx], y2a[idx]
    area2 = area2_all[idx]
    iw = iw_all[idx]
    zn = zn_all[idx]
    min_x = bx0[idx].astype(np.int64)
    min_y = by0[idx].astype(np.int64)
    widths = bx1[idx].astype(np.int64) - min_x
    heights = by1[idx].astype(np.int64) - min_y

    sign = np.where(area2 > 0.0, 1.0, -1.0)
    inv_area = 1.0 / (area2 * sign)

    # Perspective terms and the constant barycentric gradients.
    uvw = uv_all[idx] * iw[:, :, None]  # (L, 3, 2) of (u/w, v/w)
    gl = np.empty((n_live, 3, 2), dtype=np.float64)
    gl[:, 0, 0], gl[:, 0, 1] = y1 - y2, x2 - x1
    gl[:, 1, 0], gl[:, 1, 1] = y2 - y0, x0 - x2
    gl[:, 2, 0], gl[:, 2, 1] = y0 - y1, x1 - x0
    gl /= area2[:, None, None]
    dP = (
        gl[:, 0, :] * uvw[:, 0, 0, None]
        + gl[:, 1, :] * uvw[:, 1, 0, None]
        + gl[:, 2, :] * uvw[:, 2, 0, None]
    )
    dQ = (
        gl[:, 0, :] * uvw[:, 0, 1, None]
        + gl[:, 1, :] * uvw[:, 1, 1, None]
        + gl[:, 2, :] * uvw[:, 2, 1, None]
    )
    dW = (
        gl[:, 0, :] * iw[:, 0, None]
        + gl[:, 1, :] * iw[:, 1, None]
        + gl[:, 2, :] * iw[:, 2, None]
    )

    # Edge k is e_k = t_k - b_k*(px - xk_k). The reference multiplies the
    # whole edge function by sign; a multiply by exactly +/-1.0 is exact in
    # IEEE, so folding it into t and b ((t - b*dx)*s == t*s - (b*s)*dx,
    # bitwise) leaves the same bits.
    ea = (x2 - x1, x0 - x2, x1 - x0)
    ey = (y1, y2, y0)
    b_t = np.stack((y2 - y1, y0 - y2, y1 - y0)) * sign
    xk_t = np.stack((x1, x2, x0))

    # Rows: every row of every live triangle's box, in triangle order.
    n_rows = int(heights.sum())
    tri_r = np.repeat(np.arange(n_live), heights)
    ys_r = np.arange(n_rows, dtype=np.int64)
    ys_r += np.repeat(min_y - (np.cumsum(heights) - heights), heights)
    py_r = ys_r + 0.5
    sgn_r = sign[tri_r]
    t = np.stack([ea[k][tri_r] * (py_r - ey[k][tri_r]) * sgn_r for k in range(3)])
    b = b_t[:, tri_r]
    xk = xk_t[:, tri_r]
    lo = min_x[tri_r].astype(np.float64)
    hi = lo + widths[tri_r]

    # Each row's span [row_l, row_h): the intersection of its edges' prefixes
    # (b > 0) and suffixes (b < 0), emptied by any b == 0 edge with t < 0.
    finite = np.isfinite(t).all(axis=0)
    finite &= np.isfinite(np.vstack((b_t, xk_t))).all(axis=0)[tri_r]
    bound = np.where(b > 0, hi, lo)
    with np.errstate(all="ignore"):
        sel = np.nonzero((b != 0) & finite)
        bound[sel] = _edge_boundaries(t[sel], b[sel], xk[sel], lo[sel[1]], hi[sel[1]])
    row_l = np.where(b < 0, bound, lo).max(axis=0)
    row_h = np.where(b > 0, bound, hi).min(axis=0)
    row_ok = finite & ~((b == 0) & (t < 0)).any(axis=0)
    span_row = np.flatnonzero(row_ok & (row_h > row_l))
    span_lo = row_l[span_row].astype(np.int64)
    span_n = (row_h - row_l)[span_row].astype(np.int64)

    fallback = np.flatnonzero(~finite)
    if len(fallback):
        # Non-finite rows: dense edge test over the whole box row, each
        # covered pixel becoming a one-pixel span.
        wf = widths[tri_r[fallback]]
        rr = np.repeat(fallback, wf)
        xc = np.arange(len(rr), dtype=np.int64)
        xc += np.repeat(min_x[tri_r[fallback]] - (np.cumsum(wf) - wf), wf)
        with np.errstate(all="ignore"):
            e = t[:, rr] - b[:, rr] * ((xc + 0.5) - xk[:, rr])
        inside = np.minimum(np.minimum(e[0], e[1]), e[2]) >= 0
        # A stable sort by row keeps each row's pixels in x order.
        rows = np.concatenate((span_row, rr[inside]))
        key = np.argsort(rows, kind="stable")
        span_row = rows[key]
        span_lo = np.concatenate((span_lo, xc[inside]))[key]
        span_n = np.concatenate((span_n, np.ones(inside.sum(), np.int64)))[key]

    n_frags = int(span_n.sum())
    if n_frags == 0:
        return _empty_batch()

    # Integer fields come straight from the spans.
    span_start = np.cumsum(span_n) - span_n
    out_xs = np.arange(n_frags, dtype=np.int64)
    out_xs += np.repeat(span_lo - span_start, span_n)
    out_ys = np.repeat(ys_r[span_row], span_n)
    span_tri = tri_r[span_row]
    out_tri = np.repeat(idx[span_tri], span_n)
    out_z = np.empty(n_frags, dtype=np.float64)
    out_u = np.empty(n_frags, dtype=np.float64)
    out_v = np.empty(n_frags, dtype=np.float64)
    out_lod = np.empty(n_frags, dtype=np.float64)

    # Per-triangle constants, one contiguous row each, gathered per block.
    per_tri_tex = np.ndim(tex_width) > 0
    tri_consts = [b_t, xk_t, inv_area, iw.T, uvw[:, :, 0].T,
                  uvw[:, :, 1].T, zn.T, dP.T, dQ.T, dW.T]
    if per_tri_tex:
        dims = (tex_width, tex_height)
        tri_consts += [np.asarray(d, dtype=np.float64).reshape(-1)[idx] for d in dims]
    tri_consts = np.vstack(tri_consts)

    # Blocks of whole spans holding about block_candidates fragments.
    span_end = span_start + span_n
    marks = np.arange(block_candidates, n_frags, block_candidates)
    cuts = np.searchsorted(span_end, marks, side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(span_n)])))
    for s0, s1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        fs = slice(int(span_start[s0]), int(span_end[s1 - 1]))
        (t0, t1, t2, b0, b1, b2, xk0, xk1, xk2, ia, iw0, iw1, iw2,
         up0, up1, up2, uq0, uq1, uq2, zn0, zn1, zn2,
         dP0, dP1, dQ0, dQ1, dW0, dW1, *tex) = np.vstack(
            (t[:, span_row[s0:s1]], tri_consts[:, span_tri[s0:s1]])
        )
        # Span constants expand to fragments just before use: np.repeat
        # beats per-fragment gathers and keeps few temporaries live.
        r = partial(np.repeat, repeats=span_n[s0:s1])
        px = out_xs[fs] + 0.5
        # The reference's edge functions and interpolation, evaluated at
        # covered pixels only. In-place updates follow the reference's
        # operation tree exactly (((a + b) + c), ((d * e) * f), ...); only
        # the buffer reuse differs, not the arithmetic.
        ia_f = r(ia)
        l0 = r(t0) - r(b0) * (px - r(xk0))
        l0 *= ia_f
        l1 = r(t1) - r(b1) * (px - r(xk1))
        l1 *= ia_f
        l2 = r(t2) - r(b2) * (px - r(xk2))
        l2 *= ia_f

        w_frag = l0 * r(iw0)
        w_frag += l1 * r(iw1)
        w_frag += l2 * r(iw2)
        u_f = np.multiply(l0, r(up0), out=out_u[fs])
        u_f += l1 * r(up1)
        u_f += l2 * r(up2)
        u_f /= w_frag
        v_f = np.multiply(l0, r(uq0), out=out_v[fs])
        v_f += l1 * r(uq1)
        v_f += l2 * r(uq2)
        v_f /= w_frag
        z_f = np.multiply(l0, r(zn0), out=out_z[fs])
        z_f += l1 * r(zn1)
        z_f += l2 * r(zn2)

        inv_wf = 1.0 / w_frag
        # A repeated constant multiplies to the same IEEE bits as the
        # reference's scalar broadcast of the same value.
        tw_f, th_f = map(r, tex) if per_tri_tex else (tex_width, tex_height)
        dW0f, dW1f = r(dW0), r(dW1)
        dudx = r(dP0) - u_f * dW0f
        dudx *= inv_wf
        dudx *= tw_f
        dudy = r(dP1) - u_f * dW1f
        dudy *= inv_wf
        dudy *= tw_f
        dvdx = r(dQ0) - v_f * dW0f
        dvdx *= inv_wf
        dvdx *= th_f
        dvdy = r(dQ1) - v_f * dW1f
        dvdy *= inv_wf
        dvdy *= th_f
        rho = np.maximum(np.hypot(dudx, dvdx), np.hypot(dudy, dvdy))
        np.log2(np.maximum(rho, 1e-12), out=out_lod[fs])

    batch = FragmentBatch(
        xs=out_xs, ys=out_ys, z=out_z, u=out_u, v=out_v, lod=out_lod,
        tri_ids=out_tri,
    )
    if order is RasterOrder.TILED:
        # Stable sort by (triangle, tile row, tile col); scanline order
        # within each tile is inherited from the emission order, matching
        # the reference's per-triangle tiled sort exactly.
        key = np.lexsort(
            (batch.xs // TILE_EDGE, batch.ys // TILE_EDGE, batch.tri_ids)
        )
        batch = FragmentBatch(
            xs=batch.xs[key],
            ys=batch.ys[key],
            z=batch.z[key],
            u=batch.u[key],
            v=batch.v[key],
            lod=batch.lod[key],
            tri_ids=batch.tri_ids[key],
        )
    return batch
