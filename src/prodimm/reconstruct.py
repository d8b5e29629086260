"""Rebuild the immersion from verified data by parallel-transporting a frame.

Pipeline (all deterministic):

1. split the extended structure at the base node into its two eigenspaces
   and complete the canonical initial frame (identity-seed completion);
2. build one table of RK4 flow matrices per axis (connection linear along
   each edge), every edge crossed in the direction away from the base node,
   filled run by run from ``fields.runs_away_from``;
   transport the frame along the lexicographic sweep (axis-0 spine through
   the base node, then axis-1, then axis-2 lines), each run of edges away
   from the base one scanned prefix product of its flows
   (``fields.sweep_compose``).  The transposed sweep and the plaquette
   path-independence record read the same table, which is dropped before
   the next steps;
3. read the rebuilt map off the frame components of xi1~ + xi2~, flipping
   the sign of the timelike coordinate, together with its nodewise distance
   from the product;
4. verify isometry, normal orthogonality, the second form and the
   product-structure compatibility by finite differences of the rebuilt map:
   one pairing of d phi with the rebuilt rows e = (d phi, nu) gives the first
   two, <psi d phi, d phi> the product terms of the second form, and the
   residual psi e - psi^T e the compatibility records (tangent, normal rows).
   The normals nu come off the frame's bundle rows, as phi comes off its xi
   rows: G is the identity on the bundle block.

Frames, points and the Gram matrices G are plain arrays over the node axes:
frames (*dims, N, N) with the transported sections as columns, points
(*dims, N) with the timelike coordinate last.  The structure is one
(*dims, n+p, n+p) matrix [[f, U], [u, lambda]]: the split pads psi to psi~
(N = n+p+2) at the base node only, and the compatibility records apply its
transpose to the rebuilt rows.  ``ReconstructionResult`` holds the rebuild; G
and the connection stay on the caller's ``Geometry``.

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
from .fields import (ChartGrid, argmax_node, grad_field, hessian_field, runs_away_from,
                     sweep_compose)
from .flatbundle import Geometry, build_psi_tilde, eigen_split
from .lorentz import (eta, gram_defect, lower, minkowski_gram, product_defect, product_normals,
                      psi_flip)
from .structure import ResidualReport, ToleranceModel, magnitude, nodewise_max, records

_FLOW_BATCH = 1024   # edges per edge_flow call in the table build (bounds its RK4 temporaries)


@dataclass(frozen=True)
class AlignmentResult:
    isometry: np.ndarray
    max_distance: float
    eta_defect: float
    commutation_defect: float


@dataclass(frozen=True)
class ReconstructionResult:
    points: np.ndarray        # (*dims, N) rebuilt points, timelike coordinate last
    frame: np.ndarray         # (*dims, N, N) transported frame, one section per column
    base_node: tuple
    k: int
    report: ResidualReport
    timings: dict

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


def initial_frame_from_split(b1: np.ndarray, b2: np.ndarray,
                             rotation: np.ndarray | None = None) -> np.ndarray:
    """Stack the eigenbasis columns; optionally rotate the +1 block."""
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (b1.shape[1], b1.shape[1]):
            raise StructureError(
                f"rotation of shape {rotation.shape} against a rank-{b1.shape[1]} block")
        defect = np.abs(rotation.T @ rotation - np.eye(b1.shape[1])).max()
        if defect > 1e-10:
            raise StructureError(f"initial-frame rotation is not orthogonal ({defect:.2e})")
        b1 = b1 @ rotation
    return np.concatenate([b1, b2], axis=1)


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
                          tolerances: ToleranceModel) -> ResidualReport:
    """Check every conclusion of the rebuild by finite differences of the map."""
    grid = geom.grid
    n, p = grid.ndim, geom.p
    dphi = grad_field(grid, points)                    # (..., m, N)

    # the rebuilt rows (d_1 phi .. d_n phi, nu_1 .. nu_p); the normals are the
    # lowered bundle rows of the frame (exact, no differencing)
    rows = np.concatenate([dphi, lower(frame[..., n:n + p, :])], axis=-2)
    normals = rows[..., n:, :]
    pairs = minkowski_gram(dphi, rows)                 # (..., m, n+p): <d_m phi, e_B>
    induced = pairs[..., :n]

    xi1, xi2 = product_normals(points, k)
    psi_dphi = psi_flip(dphi, k)
    cross = minkowski_gram(psi_dphi, dphi)             # <psi d_m phi, d_n phi>
    d2phi = hessian_field(grid, points)                # (..., m, n, N)
    w = (d2phi + 0.5 * (induced + cross)[..., None] * xi1[..., None, None, :]
         - 0.5 * (induced - cross)[..., None] * xi2[..., None, None, :])
    # tangential part: g^rs <w_mn, d_r phi>
    w_tan = minkowski_gram(w, dphi[..., None, :, :]) @ geom.metric.inverse[..., None, :, :]
    res_second = w - w_tan @ dphi[..., None, :, :] - geom.sigma.values @ normals[..., None, :, :]

    # psi e_B - sum_A psi[A, B] e_A for every rebuilt row e_B
    res_psi = psi_flip(rows, k) - np.swapaxes(geom.psi, -1, -2) @ rows

    return records(grid, tolerances,
                   ("reconstruction_isometry", induced - geom.metric.values),
                   ("reconstruction_normal_orthogonality", pairs[..., n:]),
                   ("reconstruction_second_form", res_second),
                   ("reconstruction_psi_compat_tangent", res_psi[..., :n, :]),
                   ("reconstruction_psi_compat_normal", res_psi[..., n:, :]))


def path_independence_residual(flows: EdgeFlows, tolerances: ToleranceModel) -> ResidualReport:
    """Gap between the two transports across each plaquette, per unit area.

    Both paths run over table edges from the plaquette's corner nearest the
    base to its farthest: |b_far a_near - a_far b_near| / (h_a h_b), a_near
    and a_far the flows of its a-edges on the sides nearer to and farther from
    the base along b, b_near and b_far likewise.  Each pair of runs of the two
    axes (``fields.runs_away_from``) is read as views of the table.  The value
    sits at each plaquette's lower corner, the largest over axis pairs, zero
    elsewhere.  It scales like h^2 on clean data and approaches the curvature
    norm on incompatible data, the detector for broken compatibility equations.
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
                     points_b: np.ndarray, frame_b: np.ndarray, k_b: int) -> AlignmentResult:
    """Constant ambient isometry carrying rebuild A onto rebuild B.

    ``frame_a`` and ``frame_b`` are the (N, N) frame maps (bundle -> ambient
    coordinates) of the two rebuilds at one node they share.  The isometry is
    their change of frame there; it must be Lorentz-orthogonal and commute
    with the product structure, and the returned residual is the worst node
    distance between the transformed A points and the B points.
    """
    if k_a != k_b:
        raise StructureError(f"recovered factor splits differ: {k_a} vs {k_b}")
    t = frame_b @ np.linalg.inv(frame_a)

    eta_defect = float(np.abs(gram_defect(t, eta(t.shape[0]))).max())
    psi_bar = psi_flip(np.eye(t.shape[0]), k_a)
    comm_defect = float(np.abs(t @ psi_bar - psi_bar @ t).max())
    moved = points_a @ t.T
    dist = np.linalg.norm(moved - points_b, axis=-1)
    return AlignmentResult(isometry=t, max_distance=float(dist.max()),
                           eta_defect=eta_defect, commutation_defect=comm_defect)


def reconstruct_immersion(geom: Geometry,
                          tolerances: ToleranceModel,
                          base_node: tuple | None = None,
                          initial_rotation: np.ndarray | None = None,
                          seed_frame: int | None = None) -> ReconstructionResult:
    """Full rebuild pipeline: split, transport, assemble, verify.

    The base node defaults to the grid centre, which halves the longest
    transport path against a corner base.  Reads G and the big connection
    from ``geom``, so a geometry the checks already filled is not derived
    again.  One edge-flow table serves the transport, the transposed
    cross-check sweep (dimension >= 2) and path independence.
    """
    grid = geom.grid
    nd = grid.ndim
    base = tuple(d // 2 for d in grid.dims) if base_node is None else tuple(base_node)
    if len(base) != nd or not all(isinstance(i, (int, np.integer)) and 0 <= i < d
                                  for i, d in zip(base, grid.dims)):
        raise StructureError(f"base node {base} is not a node of the "
                             f"{'x'.join(map(str, grid.dims))} grid")
    timings: dict = {}

    t0 = time.perf_counter()
    gram = geom.gram
    try:
        k, b1, b2 = eigen_split(build_psi_tilde(geom.psi[base]), gram[base], nd, geom.p)
    except StructureError as err:   # ExclusionError included: the split names no node
        raise type(err)(f"{err} at base node {base}", node=base) from err
    if initial_rotation is None and seed_frame is not None:
        initial_rotation = random_block_rotation(k + 1, seed_frame)
    frame0 = initial_frame_from_split(b1, b2, rotation=initial_rotation)
    conn = geom.connection
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    flows = EdgeFlows.of(grid, conn, base)
    frame = sweep_parallel_frame(flows, frame0)
    timings["transport"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    table_report = path_independence_residual(flows, tolerances)
    if nd >= 2:
        alt = sweep_parallel_frame(flows, frame0, axis_order=tuple(reversed(range(nd))))
        table_report = ResidualReport.merge(
            table_report, records(grid, tolerances, ("sweep_cross_check", alt - frame)))
        del alt
    del flows   # freed before assembly and verification, whose temporaries peak higher
    table_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    points, on_product = assemble_immersion(frame, k)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = ResidualReport.merge(
        verify_reconstruction(points, frame, k, geom, tolerances),
        records(grid, tolerances, ("frame_orthonormality", gram_defect(frame, gram)),
                ("reconstruction_on_product", on_product)),
        table_report)
    timings["verify"] = table_time + time.perf_counter() - t0

    return ReconstructionResult(points=points, frame=frame, base_node=base, k=k, report=report,
                                timings=timings)
