"""Discrete chart data model and finite-difference tensor calculus.

Index layout conventions (fixed for the whole package):

* grid values are stored node-major, i.e. arrays of shape (*dims, *slots)
  in C order; flattening such an array is the serialized layout;
* slot kinds: "tu" tangent-up, "td" tangent-down, "bu" bundle-up,
  "bd" bundle-down;
* metric g[..., i, j] = g_ij, Christoffel chris[..., l, m, n] = Gamma^l_mn,
  curvature riem[..., l, s, m, n] = components of R(d_m, d_n) d_s along d_l;
* bundle connection omega[..., m, a, b] = coefficient of e_a in D^E_{d_m} e_b,
  fiber metric fixed to the identity (orthonormal gauge), so omega[m] is
  skew-symmetric;
* second form sigma[..., i, j, a], symmetric in (i, j).

All derivatives are second-order: central stencils in the interior,
one-sided at the boundary (``np.gradient`` with ``edge_order=2``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridMismatchError, MetricError

SLOT_KINDS = ("tu", "td", "bu", "bd")
_RUN_EDGES = 1024   # edges per batch of sweep step operators (bounds transient memory)


@dataclass(frozen=True)
class ChartGrid:
    """Rectangular grid over a contractible chart domain."""

    dims: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        n = len(dims)
        if not 1 <= n <= 3:
            raise DimensionError("chart dimension must be 1, 2 or 3")
        if len(spacing) != n or len(origin) != n:
            raise DimensionError("dims, spacing and origin must have equal length")
        if any(d < 5 for d in dims):
            raise DimensionError("every grid axis needs at least 5 nodes for the stencils")
        if any(s <= 0 for s in spacing):
            raise DimensionError("grid spacing must be positive")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.dims))

    @property
    def h_max(self) -> float:
        return max(self.spacing)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*dims, ndim)."""
        axes = [self.axis_coords(a) for a in range(self.ndim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _check_values(grid: ChartGrid, values: np.ndarray):
    if values.shape[: grid.ndim] != grid.dims:
        raise DimensionError(
            f"values of shape {values.shape} do not start with grid dims {grid.dims}")
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0][: grid.ndim]
        raise DimensionError(f"non-finite value at node {tuple(int(i) for i in bad)}")


@dataclass(frozen=True)
class TensorField:
    """Node-major numeric field with typed index slots."""

    grid: ChartGrid
    index_spec: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        spec = tuple(self.index_spec)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index_spec", spec)
        if any(s not in SLOT_KINDS for s in spec):
            raise DimensionError(f"unknown slot kind in {spec}")
        _check_values(self.grid, values)
        slots = values.shape[self.grid.ndim:]
        if len(slots) != len(spec):
            raise DimensionError(f"{len(spec)} slots declared, {len(slots)} present")
        bundle_dims = set()
        for kind, dim in zip(spec, slots):
            if kind in ("tu", "td") and dim != self.grid.ndim:
                raise DimensionError(f"tangent slot of size {dim} on a {self.grid.ndim}-dim chart")
            if kind in ("bu", "bd"):
                bundle_dims.add(dim)
        if len(bundle_dims) > 1:
            raise DimensionError(f"inconsistent bundle slot sizes {sorted(bundle_dims)}")

    @property
    def slot_shape(self) -> tuple:
        return self.values.shape[self.grid.ndim:]


def same_grid(*fields):
    grids = {f.grid for f in fields}
    if len(grids) > 1:
        raise GridMismatchError("fields live on different grids")


class MetricField(TensorField):
    """Two tangent-down slots; symmetric positive definite at every node."""

    def __init__(self, grid: ChartGrid, values):
        super().__init__(grid=grid, index_spec=("td", "td"), values=values)
        g = self.values
        sym = np.abs(g - np.swapaxes(g, -1, -2)).max()
        if sym > 1e-12:
            raise MetricError(f"metric asymmetric by {sym:.3e}")
        eigs = np.linalg.eigvalsh(g)
        if eigs.min() <= 0:
            node = tuple(int(i) for i in np.argwhere(eigs.min(axis=-1) <= 0)[0])
            raise MetricError(f"metric not positive definite at node {node}", node=node)

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.values)


@dataclass(frozen=True)
class BundleData:
    """Rank-p metric bundle over the chart, orthonormal gauge."""

    rank: int
    omega: TensorField  # slots (td direction, bu, bd)

    def __post_init__(self):
        if self.rank < 1:
            raise DimensionError("bundle rank must be >= 1")
        om = self.omega
        if om.index_spec != ("td", "bu", "bd"):
            raise DimensionError("connection coefficients need slots (td, bu, bd)")
        if om.slot_shape[1:] != (self.rank, self.rank):
            raise DimensionError("connection coefficient size does not match the rank")
        skew = np.abs(om.values + np.swapaxes(om.values, -1, -2)).max()
        if skew > 1e-12:
            raise DimensionError(f"connection not skew in the orthonormal gauge by {skew:.3e}")

    @classmethod
    def flat(cls, grid: ChartGrid, rank: int) -> "BundleData":
        vals = np.zeros(grid.dims + (grid.ndim, rank, rank))
        return cls(rank=rank, omega=TensorField(grid, ("td", "bu", "bd"), vals))


class SecondFormField(TensorField):
    """Bundle-valued symmetric bilinear form, slots (td, td, bu)."""

    def __init__(self, grid: ChartGrid, values):
        super().__init__(grid=grid, index_spec=("td", "td", "bu"), values=values)
        s = self.values
        sym = np.abs(s - np.swapaxes(s, -3, -2)).max()
        if sym > 1e-12:
            raise DimensionError(f"second form asymmetric by {sym:.3e}")


def sweep_steps(grid: ChartGrid, base: tuple, axis_order: tuple | None = None):
    """Deterministic edge sweep covering the grid from a base node.

    Yields (src, dst, axis, delta) where src/dst are region selectors (full
    slices on already-swept axes, so consumers batch whole lines) and delta is
    the signed coordinate step.  Axis order is lexicographic by default.
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


def sweep_compose(grid: ChartGrid, values: np.ndarray, base: tuple, step_ops,
                  axis_order: tuple | None = None, after=None) -> np.ndarray:
    """Carry ``values[base]`` over the grid by linear steps along ``sweep_steps``.

    Each step sets ``values[dst] = op @ values[src]`` in place, passed through
    ``after(moved, dst)`` when given.  ``step_ops(src, dst, axis, delta)`` returns
    the operators of a run of about ``_RUN_EDGES`` consecutive edges of one stage
    at once, on the region its selectors (sliced on ``axis``) pick out.
    """
    run, lo, hi = None, 0, 0
    for src, dst, axis, delta in sweep_steps(grid, base, axis_order):
        i, step = src[axis], dst[axis] - src[axis]
        if run != (axis, step) or not lo <= i < hi:
            count = max(1, _RUN_EDGES // values[src][..., 0, 0].size)  # steps per run
            lo, hi = ((i, min(i + count, grid.dims[axis] - 1)) if step > 0
                      else (max(i - count + 1, 1), i + 1))
            ops = step_ops(src[:axis] + (slice(lo, hi),) + src[axis + 1:],
                           src[:axis] + (slice(lo + step, hi + step),) + src[axis + 1:],
                           axis, delta)
            lead = (slice(None),) * sum(isinstance(s, slice) for s in src[:axis])
            run = (axis, step)
        moved = ops[lead + (i - lo,)] @ values[src]
        values[dst] = moved if after is None else after(moved, dst)
    return values


def grad_field(grid: ChartGrid, values: np.ndarray) -> np.ndarray:
    """Partial derivatives along every axis; new direction slot prepended.

    Input (*dims, *slots) -> output (*dims, ndim, *slots).
    """
    parts = [np.gradient(values, grid.spacing[a], axis=a, edge_order=2)
             for a in range(grid.ndim)]
    return np.stack(parts, axis=grid.ndim)


def second_derivative_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Pure second derivative along one axis, O(h^2) including boundaries.

    Central three-point stencil inside, four-point one-sided at the edges
    (a gradient-of-gradient composition would drop to O(h) there).
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def hessian_field(grid: ChartGrid, values: np.ndarray) -> np.ndarray:
    """All second partials: (*dims, *slots) -> (*dims, ndim, ndim, *slots).

    Mixed entries compose first-derivative stencils on distinct axes (second
    order everywhere); diagonal entries use the dedicated stencil.  The two
    mixed orders agree in the interior and differ by O(h^2) at edges.
    """
    nd = grid.ndim
    first = [np.gradient(values, grid.spacing[a], axis=a, edge_order=2)
             for a in range(nd)]
    rows = []
    for a in range(nd):
        row = []
        for b in range(nd):
            if a == b:
                row.append(second_derivative_axis(values, grid.spacing[a], a))
            else:
                row.append(np.gradient(first[a], grid.spacing[b], axis=b, edge_order=2))
        rows.append(np.stack(row, axis=nd))
    return np.stack(rows, axis=nd)


def christoffel(g: MetricField) -> TensorField:
    """Levi-Civita connection coefficients Gamma^l_mn from the metric."""
    grid = g.grid
    dg = grad_field(grid, g.values)  # (..., m, i, j) = d_m g_ij
    ginv = g.inverse()
    # Gamma^l_mn = 1/2 g^lr (d_m g_rn + d_n g_rm - d_r g_mn)
    gamma = 0.5 * (np.einsum("...lr,...mrn->...lmn", ginv, dg)
                   + np.einsum("...lr,...nrm->...lmn", ginv, dg)
                   - np.einsum("...lr,...rmn->...lmn", ginv, dg))
    return TensorField(grid, ("tu", "td", "td"), gamma)


def curvature_tensor(g: MetricField, chris: TensorField | None = None) -> TensorField:
    """Riemann tensor R^l_smn of the Levi-Civita connection.

    riem[..., l, s, m, n] are the components of R(d_m, d_n) d_s along d_l
    for R(X,Y) = D_X D_Y - D_Y D_X - D_[X,Y].  The connection derivative is
    expanded through first and second metric derivatives so the result stays
    second-order at the boundary (differencing the Christoffel field again
    would drop an order there).
    """
    grid = g.grid
    if chris is None:
        chris = christoffel(g)
    ga = chris.values
    ginv = g.inverse()
    dg = grad_field(grid, g.values)            # (..., m, i, j)
    ddg = hessian_field(grid, g.values)        # (..., m, n, i, j)
    dginv = -np.einsum("...la,...mab,...br->...mlr", ginv, dg, ginv)
    # d_m Gamma^l_ns from the product rule on (1/2) g^lr (dg terms)
    braces = (np.einsum("...nrs->...nrs", dg)
              + np.einsum("...srn->...nrs", dg)
              - np.einsum("...rns->...nrs", dg))
    dbraces = (np.einsum("...mnrs->...mnrs", ddg)
               + np.einsum("...msrn->...mnrs", ddg)
               - np.einsum("...mrns->...mnrs", ddg))
    dga = 0.5 * (np.einsum("...mlr,...nrs->...mlns", dginv, braces)
                 + np.einsum("...lr,...mnrs->...mlns", ginv, dbraces))
    riem = (np.einsum("...mlns->...lsmn", dga)
            - np.einsum("...nlms->...lsmn", dga)
            + np.einsum("...lmr,...rns->...lsmn", ga, ga)
            - np.einsum("...lnr,...rms->...lsmn", ga, ga))
    return TensorField(grid, ("tu", "td", "td", "td"), riem)


def connection_curvature(grid: ChartGrid, om: np.ndarray) -> np.ndarray:
    """F[..., m, n, :, :] = d_m om_n - d_n om_m + [om_m, om_n] of om[..., m, :, :]."""
    dom = grad_field(grid, om)  # (..., m, n, a, b) = d_m om_n
    return (dom - np.einsum("...mnab->...nmab", dom)
            + np.einsum("...mac,...ncb->...mnab", om, om)
            - np.einsum("...nac,...mcb->...mnab", om, om))


def bundle_curvature(bundle: BundleData) -> TensorField:
    """Curvature of the bundle connection, slots (td, td, bu, bd): values[..., m, n, a, b]."""
    grid = bundle.omega.grid
    return TensorField(grid, ("td", "td", "bu", "bd"),
                       connection_curvature(grid, bundle.omega.values))


def shape_operator_field(sigma: SecondFormField, g: MetricField) -> np.ndarray:
    """All shape operators at once: out[..., a, i, j] = (A_{e_a})^i_j."""
    same_grid(sigma, g)
    ginv = g.inverse()
    return np.einsum("...ik,...kja->...aij", ginv, sigma.values)


def sum_bundle_covariant_derivative(field: TensorField, chris: TensorField,
                                    bundle: BundleData | None = None) -> TensorField:
    """Covariant derivative on TM + E for a mixed tensor field.

    Tangent slots are corrected with the Christoffel symbols, bundle slots
    with the connection coefficients; the direction slot is prepended:
    (*dims, *slots) -> (*dims, ndim, *slots).
    """
    grid = field.grid
    same_grid(field, chris)
    vals = field.values
    out = grad_field(grid, vals)
    nslots = len(field.index_spec)
    letters = "abcdefg"[:nslots]
    ga = chris.values
    om = bundle.omega.values if bundle is not None else None
    for j, kind in enumerate(field.index_spec):
        s = letters[j]
        mod = letters[:j] + "z" + letters[j + 1:]
        if kind == "tu":
            corr = np.einsum(f"...zm{s},...{letters}->...m{mod}", ga, vals)
        elif kind == "td":
            corr = -np.einsum(f"...{s}mz,...{letters}->...m{mod}", ga, vals)
        elif kind == "bu":
            corr = np.einsum(f"...mz{s},...{letters}->...m{mod}", om, vals)
        else:  # bd
            corr = -np.einsum(f"...m{s}z,...{letters}->...m{mod}", om, vals)
        out = out + corr
    return TensorField(grid, ("td",) + field.index_spec, out)
