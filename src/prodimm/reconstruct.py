"""Rebuild the immersion from verified data by parallel-transporting a frame.

Pipeline (all deterministic):

1. split the extended structure at the base node, the grid centre, into its
   two eigenspaces and complete the canonical initial frame (identity-seed
   completion), its sphere block rotated when a seed is given;
2. build one table of RK4 flow matrices per axis (connection linear along
   each edge), every edge crossed in the direction away from the base node,
   filled run by run from ``fields.runs_away_from``;
   transport the frame along the lexicographic sweep (axis-0 spine through
   the base node, then axis-1, then axis-2 lines), each run of edges away
   from the base one scanned prefix product of its flows
   (``fields.sweep_compose``).  The plaquette path-independence record and
   the transposed sweep read the same table, which is dropped right after
   the transposed sweep, before its difference from the frame is formed;
3. read the rebuilt map off the frame components of xi1~ + xi2~, flipping
   the sign of the timelike coordinate, together with its nodewise distance
   from the product;
4. verify the rebuild by extracting its datum with the extraction's own
   pairings (``extract.induced_second_form`` and ``induced_structure``): the
   tangents d phi and second derivatives are the gradient and Hessian of the
   points, and the normals nu come off the frame's bundle rows, as phi comes
   off its xi rows (G is the identity on the bundle block).  One pairing of
   d phi with the rows (d phi, nu) gives isometry and normal orthogonality;
   the second form, the tangent and normal columns of psi and the normal
   connection are recorded as their distance from the dataset's.  The tangent
   rows of psi are raised by the dataset's validated g, so a rebuilt g that
   is not positive definite fails ``reconstruction_isometry`` and raises
   nothing.  What a datum does not see is judged elsewhere: the xi1, xi2
   components of the second derivatives (up to O(h^2) the Hessian of the
   on-product defect) by ``reconstruction_on_product``, and the part of psi e
   outside the span of the rows by ``frame_orthonormality`` and
   ``reconstruction_on_product``.

No full-size temporary outlives its stage, and the transport's arrays are
dropped after their last use.  Two residuals are formed by blocks of node rows
straight into their magnitudes (``structure.chunked_magnitude``), bitwise as
if formed whole: the frame's Gram defect and the cross-check difference.  The
verification holds its rows and datum whole, below the transport's peak.

Frames, points and the Gram matrices G are plain arrays over the node axes:
frames (*dims, N, N) with the transported sections as columns, points
(*dims, N) with the timelike coordinate last.  The structure is one
(*dims, n+p, n+p) matrix [[f, U], [u, lambda]]: the split pads psi to psi~
(N = n+p+2) at the base node only, and the compatibility records compare it
with the rebuild's.  ``ReconstructionResult`` holds the points, the
frame and the rebuild's report: records, timings and the ``reconstruction``
block (k, ambient_dim, base_node and psi_base, the frame map at the base).  The
on-product defect is the max of the ``reconstruction_on_product`` record alone.
G and the connection stay on the caller's ``Geometry``.

The alignment stage, ``align_congruence``, builds its own part of the report
too: the ``alignment`` block, merged by the caller like every other stage's.
Its distance is the product's own (``lorentz.product_distance``), not the
ambient Euclidean one, which grows with the hyperbolic coordinates.

The connection preserves G, so the transported frame is never corrected:
every sweep is one composition of the edge flows, and the drift of the
discrete transport is reported as ``frame_orthonormality``.  Likewise the
on-product defect of the rebuilt points is judged by its record alone, never
repaired here; repair exists only as an export option in the CLI.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import ReconstructionError, StructureError
from .extract import induced_second_form, induced_structure
from .fields import (ChartGrid, argmax_node, grad_field, hessian_field, runs_away_from,
                     sweep_compose)
from .flatbundle import Geometry, build_psi_tilde, eigen_split
from .lorentz import (eta, gram_defect, lower, minkowski_gram, product_defect, product_distance,
                      psi_flip)
from .structure import Report, ToleranceModel, chunked_magnitude, magnitude, nodewise_max, records

_FLOW_BATCH = 1024   # edges per edge_flow call in the table build (bounds its RK4 temporaries)


@dataclass(frozen=True)
class ReconstructionResult:
    points: np.ndarray        # (*dims, N) rebuilt points, timelike coordinate last
    frame: np.ndarray         # (*dims, N, N) transported frame, one section per column
    report: Report            # records, timings and reconstruction block, read by the properties

    @property
    def k(self) -> int:
        return self.report.reconstruction["k"]

    @property
    def base_node(self) -> tuple:
        return self.report.reconstruction["base_node"]

    @property
    def on_product_defect(self) -> float:
        """The worst node's distance from S^k x H^m, the max of its report record."""
        return self.report["reconstruction_on_product"].max_abs


def edge_flow(om_start, om_end, delta) -> np.ndarray:
    """RK4 flow matrix of dc/dt = -Omega(t) c across one edge.

    ``delta`` is the signed coordinate step (it may broadcast like the samples);
    Omega is interpolated linearly between the endpoint samples.  Broadcasts over leading axes.
    """
    om_start = np.asarray(om_start, dtype=float)
    om_end = np.asarray(om_end, dtype=float)
    mid = 0.5 * (om_start + om_end)
    ident = np.broadcast_to(np.eye(om_start.shape[-1]), om_start.shape)
    k1 = -delta * om_start
    k2 = -delta * (mid @ (ident + 0.5 * k1))
    k3 = -delta * (mid @ (ident + 0.5 * k2))
    k4 = -delta * (om_end @ (ident + k3))
    return ident + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


@dataclass(frozen=True)
class EdgeFlows:
    """RK4 flows of the big connection over every edge, oriented away from ``base``.

    ``ops[a]`` has the node axes of ``grid`` with axis ``a`` one shorter: the
    entry at an edge's lower node is the flow across the edge from its end
    nearer to ``base`` to its far end, the direction every sweep from
    ``base`` crosses it.  Each run of ``fields.runs_away_from`` fills its
    slice of the table from the views of its near and far ends.
    """

    grid: ChartGrid
    base: tuple
    ops: tuple

    @classmethod
    def of(cls, grid: ChartGrid, conn: np.ndarray, base: tuple) -> "EdgeFlows":
        """Flows of the connection ``conn`` (*dims, n, N, N) on ``grid``."""
        base = tuple(base)
        ops = []
        for a in range(grid.ndim):
            om = np.moveaxis(conn[..., a, :, :], a, 0)
            table = np.empty((grid.dims[a] - 1,) + om.shape[1:])
            lines = max(1, _FLOW_BATCH * grid.dims[a] // grid.n_nodes)   # per edge_flow call
            for near, far, edges, sign in runs_away_from(base[a], grid.dims[a]):
                om_near, om_far, run = om[near], om[far], table[edges]
                for lo in range(0, len(run), lines):
                    batch = slice(lo, lo + lines)
                    run[batch] = edge_flow(om_near[batch], om_far[batch], sign * grid.spacing[a])
            ops.append(np.moveaxis(table, 0, a))
        return cls(grid=grid, base=base, ops=tuple(ops))


def sweep_parallel_frame(flows: EdgeFlows, initial_frame: np.ndarray,
                         axis_order: tuple | None = None) -> np.ndarray:
    """Deterministic sweep from ``flows.base``: every node receives exactly one frame.

    Returns the (*dims, N, N) frames, the transported sections as columns,
    each the product of the edge flows along its sweep path times the
    initial frame.
    """
    return sweep_compose(flows.grid, initial_frame, flows.base, flows.ops, axis_order)


def random_block_rotation(size: int, seed: int) -> np.ndarray:
    """Seeded orthogonal matrix, for exploring the initial-frame freedom."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(size, size)))
    return q * np.sign(np.diagonal(r))


def assemble_immersion(frame: np.ndarray, k: int):
    """Read the rebuilt map off the frames (*dims, N, N): components of xi1~ + xi2~.

    The first n+p+1 coordinates are plain frame pairings, the last one flips
    sign (timelike).  Returns the points and their nodewise product defect, for
    ``reconstruction_on_product`` to judge.  A point that is not finite or lies
    on the lower sheet fails the rebuild, naming the first such node.
    """
    # Gram column of xi1~ + xi2~ in the fixed gauge: the last two rows, second negated
    phi = lower(frame[..., -2, :] - frame[..., -1, :])

    for bad, what in ((~np.isfinite(phi).all(axis=-1), "is not finite"),
                      (phi[..., -1] <= 0, "is on the lower sheet of the hyperboloid")):
        if bad.any():
            node = argmax_node(bad)
            raise ReconstructionError(f"rebuilt point {what} at node {node}", node=node)
    return phi, product_defect(phi, k)


def immersion_psi_field(frame: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Matrix of the frame isomorphism bundle -> ambient coordinates, over any leading axes."""
    return lower(np.swapaxes(frame, -1, -2) @ gram, axis=-2)


def verify_reconstruction(points: np.ndarray, frame: np.ndarray, k: int, geom: Geometry,
                          tolerances: ToleranceModel) -> Report:
    """Read the rebuild's datum off its rows with the extraction's pairings, and record
    how far each datum is from the dataset's (module docstring, step 4)."""
    grid = geom.grid
    n, p = grid.ndim, geom.p
    tangents = grad_field(grid, points)                # (..., m, N)
    normals = lower(frame[..., n:n + p, :])
    pairs = minkowski_gram(tangents, np.concatenate([tangents, normals], axis=-2))
    sigma = induced_second_form(grid, hessian_field(grid, points), normals)
    report = records(
        grid, tolerances,
        ("reconstruction_isometry", magnitude(pairs[..., :n] - geom.metric.values, n)),
        ("reconstruction_normal_orthogonality", magnitude(pairs[..., n:], n)),
        ("reconstruction_second_form", magnitude(sigma.values - geom.sigma.values, n)))
    del pairs, sigma   # before the structure read, which sets the stage's peak
    psi, bundle = induced_structure(k, geom.metric, tangents, normals)
    psi -= geom.psi    # the difference from the dataset's structure
    return Report.merge(report, records(
        grid, tolerances,
        ("reconstruction_psi_compat_tangent", magnitude(psi[..., :n], n)),
        ("reconstruction_psi_compat_normal", magnitude(psi[..., n:], n)),
        ("reconstruction_normal_connection", magnitude(bundle.omega - geom.bundle.omega, n))))


def path_independence_residual(flows: EdgeFlows, tolerances: ToleranceModel) -> Report:
    """Gap between the two transports across each plaquette, per unit area.

    Both paths run over table edges from the plaquette's corner nearest the
    base to its farthest: |b_far a_near - a_far b_near| / (h_a h_b), a_near
    and a_far the flows of its a-edges on the sides nearer to and farther from
    the base along b, b_near and b_far likewise.  Each pair of runs of the two
    axes (``fields.runs_away_from``) is read as views of the table.  The value
    sits at each plaquette's lower corner, the largest over axis pairs, zero
    elsewhere: a node-last magnitude with no free axes.  It scales like h^2
    on clean data and approaches the curvature norm on incompatible data, the
    detector for broken compatibility equations.
    """
    grid, base, ops = flows.grid, flows.base, flows.ops
    gap = np.zeros(grid.dims)
    for a, b in itertools.combinations(range(grid.ndim), 2):
        ops_a, ops_b, gap_ab = (np.moveaxis(x, (a, b), (0, 1)) for x in (ops[a], ops[b], gap))
        # per run: near ends n, far ends f and edges e along each axis
        for (na, fa, ea, _), (nb, fb, eb, _) in itertools.product(
                runs_away_from(base[a], grid.dims[a]), runs_away_from(base[b], grid.dims[b])):
            a_near, a_far = ops_a[ea, nb], ops_a[ea, fb]
            b_near, b_far = ops_b[na, eb], ops_b[fa, eb]
            dev = nodewise_max(magnitude(b_far @ a_near - a_far @ b_near, grid.ndim), grid.ndim)
            corner = gap_ab[ea, eb]
            np.maximum(corner, dev / (grid.spacing[a] * grid.spacing[b]), out=corner)
    return records(grid, tolerances, ("path_independence", gap))


def align_congruence(points_a: np.ndarray, frame_a: np.ndarray, k_a: int,
                     points_b: np.ndarray, frame_b: np.ndarray, k_b: int,
                     distance_tol: float | None = None) -> Report:
    """The alignment stage's report: the ambient isometry carrying rebuild A onto rebuild B.

    ``frame_a`` and ``frame_b`` are the (N, N) frame maps (bundle -> ambient
    coordinates) of the two rebuilds at one node they share.  The isometry is
    their change of frame there; it must be Lorentz-orthogonal and commute
    with the product structure.  The ``alignment`` block holds ``max_distance``,
    the worst node's ``lorentz.product_distance`` from the moved A point to
    the B point, the two defects, the ``isometry`` as its N^2 row-major list
    and, when one is given, ``distance_tol``, which makes it a verdict.
    """
    if k_a != k_b:
        raise StructureError(f"recovered factor splits differ: {k_a} vs {k_b}")
    t = frame_b @ np.linalg.inv(frame_a)
    psi_bar = psi_flip(np.eye(t.shape[0]), k_a)
    verdict = {} if distance_tol is None else {"distance_tol": distance_tol}
    return Report(alignment={
        "max_distance": float(product_distance(points_a @ t.T, points_b, k_b).max()),
        "eta_defect": float(np.abs(gram_defect(t, eta(t.shape[0]))).max()),
        "commutation_defect": float(np.abs(t @ psi_bar - psi_bar @ t).max()),
        "isometry": t.ravel().tolist()} | verdict)


def reconstruct_immersion(geom: Geometry, tolerances: ToleranceModel,
                          seed_frame: int | None = None) -> ReconstructionResult:
    """Full rebuild pipeline: split, transport, assemble, verify.

    The base node is the grid centre, which halves the longest transport
    path against a corner base.  The rebuild is unique up to an isometry of
    the product, and its one option, ``seed_frame``, rotates the initial
    frame's sphere block by ``random_block_rotation(k + 1, seed_frame)``.
    Reads G and the big connection from ``geom``, so a geometry the checks
    already filled is not derived again.  One edge-flow table serves the
    transport, the transposed cross-check sweep and path independence.
    """
    grid = geom.grid
    nd = grid.ndim
    base = tuple(d // 2 for d in grid.dims)
    timings: dict = {}

    t0 = time.perf_counter()
    gram = geom.gram
    try:
        k, b1, b2 = eigen_split(build_psi_tilde(geom.psi[base]), gram[base], nd, geom.p)
    except StructureError as err:   # ExclusionError included: the split names no node
        raise type(err)(f"{err} at base node {base}", node=base) from err
    if seed_frame is not None:
        b1 = b1 @ random_block_rotation(k + 1, seed_frame)
    frame0 = np.concatenate([b1, b2], axis=1)
    conn = geom.connection
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    flows = EdgeFlows.of(grid, conn, base)
    frame = sweep_parallel_frame(flows, frame0)
    timings["transport"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    table_report = path_independence_residual(flows, tolerances)
    alt = (sweep_parallel_frame(flows, frame0, axis_order=tuple(reversed(range(nd))))
           if nd >= 2 else None)
    del flows   # its last use: the difference, assembly and verification run without it
    if alt is not None:
        table_report = Report.merge(table_report, records(grid, tolerances, (
            "sweep_cross_check",
            chunked_magnitude(grid, frame.shape[nd:], lambda c: alt[c] - frame[c]))))
        del alt
    table_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    points, on_product = assemble_immersion(frame, k)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = Report.merge(
        verify_reconstruction(points, frame, k, geom, tolerances),
        records(grid, tolerances,
                ("frame_orthonormality", chunked_magnitude(
                    grid, frame.shape[nd:], lambda c: gram_defect(frame[c], gram[c]))),
                ("reconstruction_on_product", on_product)),
        table_report)
    timings["verify"] = table_time + time.perf_counter() - t0

    # the sweep leaves frame0 at the base node, so the frame map there is formed from it
    block = {"k": k, "ambient_dim": frame0.shape[-1], "base_node": tuple(map(int, base)),
             "psi_base": immersion_psi_field(frame0, gram[base])}
    return ReconstructionResult(points=points, frame=frame, report=Report.merge(
        report, grid=grid, reconstruction=block, timings=timings))
