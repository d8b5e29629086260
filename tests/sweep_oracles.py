"""Per-edge reference sweeps: one small numpy call chain per grid edge.

``per_edge_steps`` walks the sweep that ``fields.sweep_steps`` splits into
runs, one edge at a time.  The loops below are the step-by-step versions of
the scanned sweeps in ``extract.induced_normal_frame`` and
``reconstruct.sweep_parallel_frame``; the scan reassociates the products, so
both match them to rounding.  ``first_swept`` walks the sweep for the node
the normal frame's error names.  ``per_plaquette_path_gap`` is the loop
version of ``reconstruct.path_independence_residual``: it calls ``edge_flow``
for each edge of each plaquette, oriented by comparing node indices with the
base, and shares no index or slice with the package.
"""

import functools
import itertools

import numpy as np

from prodimm.errors import DegeneracyError, DimensionError
from prodimm.extract import _SEED_TOL, immersion_points, immersion_tangents
from prodimm.lorentz import gram_schmidt, minkowski_dot, product_normals
from prodimm.reconstruct import edge_flow


def per_edge_steps(grid, base, axis_order=None):
    """The sweep edge by edge: (src, dst, axis, delta) per edge, in sweep order.

    src/dst are region selectors (full slices on already-swept axes, so
    consumers batch whole lines) and delta is the signed coordinate step.
    Axis order is lexicographic by default.
    """
    nd = grid.ndim
    order = tuple(axis_order) if axis_order is not None else tuple(range(nd))
    if sorted(order) != list(range(nd)):
        raise DimensionError(f"axis order {order} is not a permutation of the axes")

    def line(pos, axis, index):
        sel = [base[a] for a in range(nd)]
        for done in order[:pos]:
            sel[done] = slice(None)
        sel[axis] = index
        return tuple(sel)

    for pos, axis in enumerate(order):
        h = grid.spacing[axis]
        for i in range(base[axis], grid.dims[axis] - 1):
            yield line(pos, axis, i), line(pos, axis, i + 1), axis, h
        for i in range(base[axis], 0, -1):
            yield line(pos, axis, i), line(pos, axis, i - 1), axis, -h


def _project_out(v, basis, norms):
    for w, n2 in zip(basis, norms):
        v = v - (minkowski_dot(v, w) / n2)[..., None] * w
    return v


def per_edge_normal_frame(imm, grid):
    """Canonical completion at the base, then project and re-orthonormalize per edge."""
    points = immersion_points(imm, grid)
    tangents = immersion_tangents(imm, grid, points)
    xi1, xi2 = product_normals(points, imm.k)
    tang, _ = gram_schmidt(tangents, basis=(xi1, xi2))
    basis = [xi1, xi2, *np.moveaxis(tang, -2, 0)]
    norms = [np.ones(grid.dims), -np.ones(grid.dims)] + [np.ones(grid.dims)] * tang.shape[-2]

    size = imm.ambient_dim
    base = (0,) * grid.ndim
    base_basis = [b[base] for b in basis]
    base_norms = [float(n[base]) for n in norms]
    seed = []
    for a in range(size):
        if len(seed) == imm.p:
            break
        v = np.eye(size)[a]
        for w, n2 in zip(base_basis + seed, base_norms + [1.0] * len(seed)):
            v = v - (minkowski_dot(v, w) / n2) * w
        n2 = float(minkowski_dot(v, v))
        if n2 > _SEED_TOL:
            seed.append(v / np.sqrt(n2))

    normals = np.zeros(grid.dims + (imm.p, size))
    normals[base] = np.stack(seed)
    for src, dst, axis, _delta in per_edge_steps(grid, base):
        carried = []
        dst_basis = [b[dst] for b in basis]
        dst_norms = [n[dst] for n in norms]
        for a in range(imm.p):
            v = _project_out(normals[src][..., a, :], dst_basis, dst_norms)
            for w in carried:
                v = v - minkowski_dot(v, w)[..., None] * w
            n2 = minkowski_dot(v, v)
            if n2.min() <= _SEED_TOL:
                raise DegeneracyError(f"normal frame degenerates while sweeping axis {axis}")
            carried.append(v / np.sqrt(n2)[..., None])
        normals[dst] = np.stack(carried, axis=-2)
    return normals


def first_swept(grid, base, mask):
    """First node in sweep order where ``mask`` holds (never the base node)."""
    nodes = np.moveaxis(np.indices(grid.dims), 0, -1)
    for _src, dst, _axis, _delta in per_edge_steps(grid, base):
        hit = nodes[dst][mask[dst]]
        if hit.size:
            return tuple(int(i) for i in hit[0])


def per_edge_parallel_frame(grid, conn, initial_frame, base, axis_order=None):
    """RK4 edge flow of the connection ``conn`` applied to the frame edge by edge."""
    size = initial_frame.shape[-1]
    frames = np.zeros(grid.dims + (size, size))
    frames[base] = initial_frame
    for src, dst, axis, delta in per_edge_steps(grid, base, axis_order):
        om = conn[..., axis, :, :]
        frames[dst] = edge_flow(om[src], om[dst], delta) @ frames[src]
    return frames


def per_plaquette_path_gap(grid, conn, base):
    """(*dims) gap between the two transports across each plaquette, at its lower corner.

    For each axis pair (a, b) and lower corner c, the two paths cross the
    plaquette from its corner nearest the base to its farthest, every edge
    crossed away from the base; the gap is |b_far a_near - a_far b_near| /
    (h_a h_b), the largest over axis pairs.
    """
    def shifted(node, axis):
        return node[:axis] + (node[axis] + 1,) + node[axis + 1:]

    def ends(lower, axis):
        """The (near, far) ends of the edge at ``lower`` along ``axis``, from the base."""
        upper = shifted(lower, axis)
        return (lower, upper) if lower[axis] >= base[axis] else (upper, lower)

    @functools.cache
    def flow(lower, axis):
        """The flow across the edge at ``lower`` along ``axis``, away from the base."""
        (near, far), h = ends(lower, axis), grid.spacing[axis]
        om = conn[..., axis, :, :]
        return edge_flow(om[near], om[far], h if near == lower else -h)

    gap = np.zeros(grid.dims)
    for a, b in itertools.combinations(range(grid.ndim), 2):
        corners = [range(d - 1) if c in (a, b) else range(d) for c, d in enumerate(grid.dims)]
        for corner in itertools.product(*corners):
            (near_a, far_a), (near_b, far_b) = ends(corner, a), ends(corner, b)
            a_near, a_far = flow(near_b, a), flow(far_b, a)
            b_near, b_far = flow(near_a, b), flow(far_a, b)
            dev = np.abs(b_far @ a_near - a_far @ b_near).max()
            gap[corner] = max(gap[corner], dev / (grid.spacing[a] * grid.spacing[b]))
    return gap
