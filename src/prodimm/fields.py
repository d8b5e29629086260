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

All derivatives are second-order central differences.  Each axis end gets
one ghost node by quartic extrapolation, so the boundary nodes use the same
stencils as the interior and the truncation error stays smooth up to the
edge: a difference of a difference is still second order there.

Matmul layout: every batched small-matrix product is written as ``@`` on the
last two axes, with the node axes (and a direction axis, where there is one)
leading and broadcast.  Operands are brought to (..., rows, inner) and
(..., inner, cols) by ``swapaxes``/``moveaxis`` views first; a pairing of two
direction axes m, n is formed as ``x[..., :, None, :, :] @ y[..., None, :, :, :]``,
which yields (..., m, n, rows, cols), and ``antisymmetrize`` subtracts its
m <-> n swap.  ``einsum`` is left for permutations and contractions that
are not a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridMismatchError, MetricError

SLOT_KINDS = ("tu", "td", "bu", "bd")


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


def sweep_compose(grid: ChartGrid, values: np.ndarray, base: tuple, ops,
                  axis_order: tuple | None = None, after=None) -> np.ndarray:
    """Carry ``values[base]`` over the grid by linear steps along ``sweep_steps``.

    ``ops[axis]`` holds one operator per edge along ``axis``, stored at the
    edge's lower node (node axes of ``grid`` with ``axis`` one shorter), for
    the step away from ``base``.  Each step sets ``values[dst] = op @ values[src]``
    in place, passed through ``after(moved, dst)`` when given.
    """
    for src, dst, axis, delta in sweep_steps(grid, base, axis_order):
        moved = ops[axis][src if delta > 0 else dst] @ values[src]
        values[dst] = moved if after is None else after(moved, dst)
    return values


def _ghost_padded(values: np.ndarray, axis: int) -> np.ndarray:
    """``values`` with axis ``axis`` first and one quartic-extrapolated ghost node per end."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    lo = 5.0 * v[0] - 10.0 * v[1] + 10.0 * v[2] - 5.0 * v[3] + v[4]
    hi = 5.0 * v[-1] - 10.0 * v[-2] + 10.0 * v[-3] - 5.0 * v[-4] + v[-5]
    return np.concatenate([lo[None], v, hi[None]])


def grad_field(grid: ChartGrid, values: np.ndarray) -> np.ndarray:
    """Partial derivatives along every axis; new direction slot prepended.

    Input (*dims, *slots) -> output (*dims, ndim, *slots).
    """
    parts = []
    for a in range(grid.ndim):
        v = _ghost_padded(values, a)
        parts.append(np.moveaxis((v[2:] - v[:-2]) / (2.0 * grid.spacing[a]), 0, a))
    return np.stack(parts, axis=grid.ndim)


def second_derivative_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Pure second derivative along one axis: the central three-point stencil."""
    v = _ghost_padded(values, axis)
    return np.moveaxis((v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h), 0, axis)


def hessian_field(grid: ChartGrid, values: np.ndarray) -> np.ndarray:
    """All second partials: (*dims, *slots) -> (*dims, ndim, ndim, *slots).

    Mixed entries compose first differences on distinct axes; diagonal
    entries use the three-point stencil.
    """
    nd = grid.ndim
    hess = grad_field(grid, grad_field(grid, values))    # (..., b, a) = d_b d_a
    for a in range(nd):
        hess[(slice(None),) * nd + (a, a)] = second_derivative_axis(values, grid.spacing[a], a)
    return hess


def christoffel(g: MetricField) -> TensorField:
    """Levi-Civita connection coefficients Gamma^l_mn from the metric."""
    grid = g.grid
    dg = grad_field(grid, g.values)  # (..., m, i, j) = d_m g_ij
    ginv = g.inverse()
    # Gamma^l_mn = 1/2 g^lr (d_m g_rn + d_n g_rm - d_r g_mn), as g^-1 @ (r, mn)
    dg_r = np.swapaxes(dg, -3, -2)                    # (..., r, m, n) = d_m g_rn
    braces = dg_r + np.swapaxes(dg_r, -1, -2) - dg
    n = grid.ndim
    gamma = 0.5 * (ginv @ braces.reshape(grid.dims + (n, n * n)))
    return TensorField(grid, ("tu", "td", "td"), gamma.reshape(grid.dims + (n, n, n)))


def curvature_tensor(g: MetricField, chris: TensorField | None = None) -> TensorField:
    """Riemann tensor R^l_smn of the Levi-Civita connection.

    riem[..., l, s, m, n] are the components of R(d_m, d_n) d_s along d_l
    for R(X,Y) = D_X D_Y - D_Y D_X - D_[X,Y]: the ``connection_curvature`` of
    the matrices Gamma_m = (Gamma^l_ms), moved to the (l, s, m, n) layout.
    """
    if chris is None:
        chris = christoffel(g)
    ga = np.swapaxes(chris.values, -3, -2)     # (..., m, l, s) = Gamma^l_ms
    riem = np.moveaxis(connection_curvature(g.grid, ga), (-2, -1), (-4, -3))
    return TensorField(g.grid, ("tu", "td", "td", "td"), riem)


def antisymmetrize(x: np.ndarray) -> np.ndarray:
    """x[..., m, n, :, :] - x[..., n, m, :, :] over the direction axes -4 and -3."""
    return x - np.swapaxes(x, -4, -3)


def connection_curvature(grid: ChartGrid, om: np.ndarray) -> np.ndarray:
    """F[..., m, n, :, :] = d_m om_n - d_n om_m + [om_m, om_n] of om[..., m, :, :]."""
    return antisymmetrize(grad_field(grid, om) + om[..., :, None, :, :] @ om[..., None, :, :, :])


def bundle_curvature(bundle: BundleData) -> TensorField:
    """Curvature of the bundle connection, slots (td, td, bu, bd): values[..., m, n, a, b]."""
    grid = bundle.omega.grid
    return TensorField(grid, ("td", "td", "bu", "bd"),
                       connection_curvature(grid, bundle.omega.values))


def shape_operator_field(sigma: SecondFormField, g: MetricField) -> np.ndarray:
    """All shape operators at once: out[..., a, i, j] = (A_{e_a})^i_j."""
    same_grid(sigma, g)
    return g.inverse()[..., None, :, :] @ np.moveaxis(sigma.values, -1, -3)


def sum_bundle_covariant_derivative(field: TensorField, chris: TensorField,
                                    bundle: BundleData | None = None) -> TensorField:
    """Covariant derivative on TM + E for a mixed tensor field.

    Tangent slots are corrected with the Christoffel symbols, bundle slots
    with the connection coefficients; the direction slot is prepended:
    (*dims, *slots) -> (*dims, ndim, *slots).
    """
    grid = field.grid
    same_grid(field, chris)
    nd = grid.ndim
    vals = field.values
    out = grad_field(grid, vals)
    ga = np.swapaxes(chris.values, -3, -2)   # (..., m, l, s) = Gamma^l_ms
    om = bundle.omega.values if bundle is not None else None
    for j, kind in enumerate(field.index_spec):
        # the correction acting on slot j along d_m, as a matrix (..., m, new, old)
        if kind == "tu":
            mat = ga
        elif kind == "td":
            mat = -np.swapaxes(ga, -1, -2)
        elif kind == "bu":
            mat = om
        else:  # bd
            mat = -np.swapaxes(om, -1, -2)
        moved = np.moveaxis(vals, nd + j, nd)            # slot j first: (*dims, old, rest)
        rest = moved.shape[nd + 1:]
        corr = mat @ moved.reshape(grid.dims + (1, moved.shape[nd], -1))
        out = out + np.moveaxis(corr.reshape(grid.dims + (nd, -1) + rest), nd + 1, nd + 1 + j)
    return TensorField(grid, ("td",) + field.index_spec, out)
