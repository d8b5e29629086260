"""Per-edge reference sweeps: one small numpy call chain per grid edge.

These are the step-by-step loops that the batched sweeps in
``extract.induced_normal_frame`` and ``reconstruct.sweep_parallel_frame``
replace.  Transport must match them bitwise, the normal frame to rounding.
"""

import numpy as np

from prodimm.errors import DegeneracyError
from prodimm.extract import _SEED_TOL, immersion_points, immersion_tangents
from prodimm.fields import sweep_steps
from prodimm.lorentz import gram_schmidt, minkowski_dot, product_normals
from prodimm.reconstruct import edge_flow, reorthonormalize_frame


def _project_out(v, basis, norms):
    for w, n2 in zip(basis, norms):
        v = v - (minkowski_dot(v, w) / n2)[..., None] * w
    return v


def per_edge_normal_frame(imm, grid, use_analytic=True):
    """Canonical completion at the base, then project and re-orthonormalize per edge."""
    points = immersion_points(imm, grid)
    tangents = immersion_tangents(imm, grid, points, use_analytic)
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
    for src, dst, axis, _delta in sweep_steps(grid, base):
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


def per_edge_parallel_frame(conn, initial_frame, base, axis_order=None, gauge=None,
                            reorthonormalize=False):
    """RK4 edge flow applied to the frame edge by edge."""
    size = initial_frame.shape[-1]
    frames = np.zeros(conn.grid.dims + (size, size))
    frames[base] = initial_frame
    for src, dst, axis, delta in sweep_steps(conn.grid, base, axis_order):
        om = conn.values[..., axis, :, :]
        moved = edge_flow(om[src], om[dst], delta) @ frames[src]
        if reorthonormalize:
            moved = reorthonormalize_frame(moved, gauge.gram[dst])
        frames[dst] = moved
    return frames
