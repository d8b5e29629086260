"""Rebuild the immersion from verified data by parallel-transporting a frame.

Pipeline (all deterministic):

1. split the extended structure at the base node into its two eigenspaces
   and complete the canonical initial frame (identity-seed completion);
2. transport the frame along the lexicographic sweep (axis-0 spine through
   the base node, then axis-1, then axis-2 lines): batched RK4 flow matrices
   per run of edges (connection linear along each edge), one matmul per edge;
   the transposed sweep is a cross-check;
3. read the rebuilt map off the frame components of xi1~ + xi2~, flipping
   the sign of the timelike coordinate;
4. verify isometry, normal orthogonality, the second form and the
   product-structure compatibility by finite differences of the rebuilt map.

The on-product defect of the rebuilt points is reported, never repaired here;
repair exists only as an export option in the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ReconstructionError, StructureError
from .fields import (BundleData, ChartGrid, MetricField, SecondFormField, grad_field,
                     hessian_field, sweep_compose)
from .flatbundle import (FlatBundleConnection, FlatBundleGauge, build_connection,
                         build_psi_tilde, eigen_split)
from .lorentz import (eta, gram_schmidt, minkowski_dot, product_defect, product_normals,
                      psi_flip)
from .structure import (CheckRecord, ProductStructureField, ResidualReport,
                        ToleranceModel, make_record)


@dataclass(frozen=True)
class ParallelFrameField:
    """Nodewise matrix whose columns are the transported frame sections."""

    grid: ChartGrid
    values: np.ndarray  # (*dims, N, N)
    base_node: tuple

    def gram_defect(self, gauge: FlatBundleGauge) -> np.ndarray:
        """Nodewise S^T G S - signature of the frame columns."""
        s = self.values
        return np.einsum("...ca,...cd,...db->...ab", s, gauge.gram, s) - gauge.signature

    def orthonormality_defect(self, gauge: FlatBundleGauge) -> float:
        return float(np.abs(self.gram_defect(gauge)).max())


@dataclass(frozen=True)
class ImmersionField:
    """Rebuilt node points in R^(n+p+2), timelike coordinate last."""

    grid: ChartGrid
    k: int
    values: np.ndarray  # (*dims, N)
    base_node: tuple
    on_product_defect: float

    @property
    def sphere_part(self) -> np.ndarray:
        return self.values[..., : self.k + 1]

    @property
    def hyper_part(self) -> np.ndarray:
        return self.values[..., self.k + 1:]


@dataclass(frozen=True)
class AlignmentResult:
    isometry: np.ndarray
    max_distance: float
    eta_defect: float
    commutation_defect: float


@dataclass(frozen=True)
class ReconstructionResult:
    immersion: ImmersionField
    frame: ParallelFrameField
    gauge: FlatBundleGauge
    connection: FlatBundleConnection
    k: int
    report: ResidualReport
    timings: dict


def edge_flow(om_start, om_end, delta: float) -> np.ndarray:
    """RK4 flow matrix of dc/dt = -Omega(t) c across one edge.

    ``delta`` is the signed coordinate step; Omega is interpolated linearly
    between the endpoint samples.  Broadcasts over leading axes.
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


def reorthonormalize_frame(frames: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the frame columns in the local metric, timelike last."""
    columns, _ = gram_schmidt(np.swapaxes(frames, -1, -2), gram)
    return np.swapaxes(columns, -1, -2)


def sweep_parallel_frame(conn: FlatBundleConnection, initial_frame: np.ndarray,
                         base_node: tuple | None = None,
                         axis_order: tuple | None = None,
                         gauge: FlatBundleGauge | None = None,
                         reorthonormalize: bool = False) -> ParallelFrameField:
    """Deterministic sweep: every node receives exactly one transported frame.

    With ``reorthonormalize`` the frame is re-orthonormalized after every
    edge (masks metric-compatibility drift; off by default on purpose).
    """
    grid = conn.grid
    nd = grid.ndim
    base = tuple(base_node) if base_node is not None else (0,) * nd
    if reorthonormalize and gauge is None:
        raise StructureError("re-orthonormalization needs the gauge Gram matrices")

    def flows(src, dst, axis, delta):
        om = conn.values[..., axis, :, :]
        return edge_flow(om[src], om[dst], delta)

    def restore(moved, dst):
        return reorthonormalize_frame(moved, gauge.gram[dst])

    size = initial_frame.shape[-1]
    frames = np.zeros(grid.dims + (size, size))
    frames[base] = initial_frame
    sweep_compose(grid, frames, base, flows, axis_order,
                  after=restore if reorthonormalize else None)
    return ParallelFrameField(grid=grid, values=frames, base_node=base)


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


def assemble_immersion(frame: ParallelFrameField, gauge: FlatBundleGauge, k: int,
                       tol: float = 1e-8) -> ImmersionField:
    """Read the rebuilt map off the frame: components of xi1~ + xi2~.

    The first n+p+1 coordinates are plain frame pairings, the last one flips
    sign (timelike).  Points are checked against the product constraints and
    the worst defect is reported; beyond 10x tolerance the rebuild fails.
    """
    s = frame.values
    size = gauge.size
    w = np.zeros(size)
    w[size - 2] = 1.0   # Gram column of xi1~ + xi2~ in the fixed gauge
    w[size - 1] = -1.0
    phi = np.einsum("...ji,j->...i", s, w)
    phi[..., -1] *= -1.0

    defect = product_defect(phi, k)
    worst = float(defect.max())
    if (phi[..., -1] <= 0).any() or worst > 10.0 * tol:
        node = tuple(int(i) for i in np.unravel_index(int(defect.argmax()), frame.grid.dims))
        raise ReconstructionError(
            f"rebuilt point leaves the product by {worst:.3e} at node {node}", node=node)
    return ImmersionField(grid=frame.grid, k=k, values=phi,
                          base_node=frame.base_node, on_product_defect=worst)


def immersion_psi_field(frame: ParallelFrameField, gauge: FlatBundleGauge) -> np.ndarray:
    """Nodewise matrix of the frame isomorphism gauge -> ambient coordinates."""
    s = frame.values
    out = np.einsum("...ji,...jb->...ib", s, gauge.gram)
    out[..., -1, :] *= -1.0
    return out


def verify_reconstruction(imm: ImmersionField, frame: ParallelFrameField,
                          gauge: FlatBundleGauge, g: MetricField, bundle: BundleData,
                          sigma: SecondFormField, psi: ProductStructureField,
                          tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Check every conclusion of the rebuild by finite differences of the map."""
    tolerances = tolerances or ToleranceModel()
    grid = imm.grid
    n, p, k = gauge.n, gauge.p, imm.k
    phi = imm.values
    dphi = grad_field(grid, phi)                       # (..., m, N)

    # normal columns of the frame isomorphism (exact, no differencing)
    psi_map = immersion_psi_field(frame, gauge)
    normals = np.einsum("...ib->...bi", psi_map[..., :, n:n + p])   # (..., b, N)

    induced = minkowski_dot(dphi[..., :, None, :], dphi[..., None, :, :])
    res_isometry = induced - g.values

    res_orth = minkowski_dot(dphi[..., :, None, :], normals[..., None, :, :])

    xi1, xi2 = product_normals(phi, k)
    psi_dphi = psi_flip(dphi, k)
    d2phi = hessian_field(grid, phi)                   # (..., m, n, N)
    plus = minkowski_dot((dphi + psi_dphi)[..., :, None, :], dphi[..., None, :, :])
    minus = minkowski_dot((dphi - psi_dphi)[..., :, None, :], dphi[..., None, :, :])
    w = (d2phi + 0.5 * plus[..., None] * xi1[..., None, None, :]
         - 0.5 * minus[..., None] * xi2[..., None, None, :])
    ginv = g.inverse()
    w_tan = np.einsum("...rs,...mnN,...rN->...mns", ginv, w,
                      dphi * np.concatenate([np.ones(phi.shape[-1] - 1), [-1.0]]))
    h_fd = w - np.einsum("...mns,...sN->...mnN", w_tan, dphi)
    h_model = np.einsum("...mna,...aN->...mnN", sigma.values, normals)
    res_second = h_fd - h_model

    res_psi_t = (psi_dphi
                 - np.einsum("...km,...kN->...mN", psi.f.values, dphi)
                 - np.einsum("...am,...aN->...mN", psi.u.values, normals))
    psi_normals = psi_flip(normals, k)
    res_psi_n = (psi_normals
                 - np.einsum("...kb,...kN->...bN", psi.big_u.values, dphi)
                 - np.einsum("...ab,...aN->...bN", psi.lam.values, normals))

    records = [
        make_record("reconstruction_isometry", res_isometry, grid,
                    tolerances.threshold("reconstruction_isometry", grid)),
        make_record("reconstruction_normal_orthogonality", res_orth, grid,
                    tolerances.threshold("reconstruction_normal_orthogonality", grid)),
        make_record("reconstruction_second_form", res_second, grid,
                    tolerances.threshold("reconstruction_second_form", grid)),
        make_record("reconstruction_psi_compat_tangent", res_psi_t, grid,
                    tolerances.threshold("reconstruction_psi_compat_tangent", grid)),
        make_record("reconstruction_psi_compat_normal", res_psi_n, grid,
                    tolerances.threshold("reconstruction_psi_compat_normal", grid)),
    ]
    return ResidualReport(tuple(records))


def path_independence_residual(conn: FlatBundleConnection,
                               tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Per-plaquette holonomy deviation from the identity, per unit area.

    The clean value scales like h^2; on incompatible data it approaches the
    curvature norm, which is the detector for broken compatibility equations.
    """
    tolerances = tolerances or ToleranceModel()
    grid = conn.grid
    nd = grid.ndim
    name = "path_independence"
    threshold = tolerances.threshold(name, grid)
    if nd == 1:
        return ResidualReport((make_record(name, np.zeros(grid.dims), grid, threshold),))
    worst = 0.0
    mean_acc, count = 0.0, 0
    worst_node = (0,) * nd
    for a in range(nd):
        for b in range(a + 1, nd):
            ha, hb = grid.spacing[a], grid.spacing[b]
            om_a = conn.values[..., a, :, :]
            om_b = conn.values[..., b, :, :]

            def cut(da, db):
                sel = [slice(None)] * nd
                sel[a] = slice(1, None) if da else slice(None, -1)
                sel[b] = slice(1, None) if db else slice(None, -1)
                return tuple(sel)

            corner, right, diag, top = cut(0, 0), cut(1, 0), cut(1, 1), cut(0, 1)
            loop = (edge_flow(om_b[top], om_b[corner], -hb)
                    @ edge_flow(om_a[diag], om_a[top], -ha)
                    @ edge_flow(om_b[right], om_b[diag], hb)
                    @ edge_flow(om_a[corner], om_a[right], ha))
            dev = np.abs(loop - np.eye(loop.shape[-1])).max(axis=(-1, -2)) / (ha * hb)
            mean_acc += float(dev.sum())
            count += dev.size
            local_max = float(dev.max())
            if local_max > worst:
                worst = local_max
                flat_idx = int(dev.argmax())
                worst_node = tuple(int(i) for i in np.unravel_index(flat_idx, dev.shape))
    rec = CheckRecord(name=name, max_abs=worst, mean_abs=mean_acc / max(count, 1),
                      argmax_node=worst_node, threshold=threshold,
                      passed=bool(worst <= threshold))
    return ResidualReport((rec,))


def align_congruence(imm_a: ImmersionField, psi_field_a: np.ndarray,
                     imm_b: ImmersionField, psi_field_b: np.ndarray,
                     node: tuple | None = None) -> AlignmentResult:
    """Constant ambient isometry carrying rebuild A onto rebuild B.

    The isometry is the change-of-frame matrix at one node (default: B's base
    node); it must be Lorentz-orthogonal and commute with the product
    structure, and the returned residual is the worst node distance between
    the transformed A points and the B points.
    """
    if imm_a.k != imm_b.k:
        raise StructureError(f"recovered factor splits differ: {imm_a.k} vs {imm_b.k}")
    node = tuple(node) if node is not None else imm_b.base_node
    t = psi_field_b[node] @ np.linalg.inv(psi_field_a[node])

    signature = eta(t.shape[0])
    eta_defect = float(np.abs(t.T @ signature @ t - signature).max())
    psi_bar = psi_flip(np.eye(t.shape[0]), imm_a.k)
    comm_defect = float(np.abs(t @ psi_bar - psi_bar @ t).max())
    moved = np.einsum("ij,...j->...i", t, imm_a.values)
    dist = np.linalg.norm(moved - imm_b.values, axis=-1)
    return AlignmentResult(isometry=t, max_distance=float(dist.max()),
                           eta_defect=eta_defect, commutation_defect=comm_defect)


def reconstruct_immersion(g: MetricField, bundle: BundleData, sigma: SecondFormField,
                          psi: ProductStructureField,
                          tolerances: ToleranceModel | None = None,
                          base_node: tuple | None = None,
                          initial_rotation: np.ndarray | None = None,
                          seed_frame: int | None = None,
                          reorthonormalize: bool = False,
                          cross_check: bool = True,
                          assemble_tol: float | None = None) -> ReconstructionResult:
    """Full rebuild pipeline: split, transport, assemble, verify."""
    tolerances = tolerances or ToleranceModel()
    grid = g.grid
    nd = grid.ndim
    base = tuple(base_node) if base_node is not None else (0,) * nd
    timings: dict = {}

    t0 = time.perf_counter()
    gauge = FlatBundleGauge.from_metric(g, bundle.rank)
    psi_tilde = build_psi_tilde(psi)
    k, b1, b2 = eigen_split(psi_tilde.values[base], gauge.gram[base], nd, bundle.rank)
    if initial_rotation is None and seed_frame is not None:
        initial_rotation = random_block_rotation(k + 1, seed_frame)
    frame0 = initial_frame_from_split(b1, b2, rotation=initial_rotation)
    conn = build_connection(g, bundle, sigma, psi)
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    frame = sweep_parallel_frame(conn, frame0, base_node=base, gauge=gauge,
                                 reorthonormalize=reorthonormalize)
    timings["transport"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if assemble_tol is None:
        assemble_tol = max(tolerances.factor * grid.h_max**2, tolerances.floor)
    imm = assemble_immersion(frame, gauge, k, tol=assemble_tol)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = verify_reconstruction(imm, frame, gauge, g, bundle, sigma, psi, tolerances)
    extra = [make_record(name, residual, grid, tolerances.threshold(name, grid))
             for name, residual in (("frame_orthonormality", frame.gram_defect(gauge)),
                                    ("reconstruction_on_product",
                                     product_defect(imm.values, k)))]
    report = ResidualReport.merge(report, ResidualReport(tuple(extra)),
                                  path_independence_residual(conn, tolerances))
    if cross_check and nd >= 2:
        alt = sweep_parallel_frame(conn, frame0, base_node=base,
                                   axis_order=tuple(reversed(range(nd))),
                                   gauge=gauge, reorthonormalize=reorthonormalize)
        report = ResidualReport.merge(report, ResidualReport((make_record(
            "sweep_cross_check", alt.values - frame.values, grid,
            tolerances.threshold("sweep_cross_check", grid)),)))
    timings["verify"] = time.perf_counter() - t0

    return ReconstructionResult(immersion=imm, frame=frame, gauge=gauge, connection=conn,
                                k=k, report=report, timings=timings)
