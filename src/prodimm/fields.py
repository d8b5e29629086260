"""Discrete chart data model and finite-difference tensor calculus.

Every grid quantity is a plain float array stored node-major, (*dims, *slots)
in C order; flattening such an array is the serialized layout.  The layouts
the kernels take and return:

* metric ``g[..., i, j]`` = g_ij, (n, n) per node;
* Christoffel symbols ``chris[..., l, m, n]`` = Gamma^l_mn, (n, n, n);
* Riemann tensor ``riem[..., q, l, s]``, the components of
  R(d_m, d_n) d_s along d_l for the direction pair q = (m, n), (n(n-1)/2, n, n),
  laid out as a connection's curvature F below;
* bundle connection ``omega[..., m, a, b]``, the coefficient of e_a in
  D^E_{d_m} e_b, (n, p, p); the fiber metric is fixed to the identity
  (orthonormal gauge), so omega[m] is skew-symmetric;
* a connection's curvature ``F[..., q, a, b]``, (n(n-1)/2, N, N) for
  (n, N, N) connection matrices, one entry per direction pair q = (m, n),
  m < n, in the row-major order of ``np.triu_indices(n, 1)``: F is a 2-form,
  so F[n, m] = -F[m, n] and the diagonal is zero; a 1-dim chart has no pairs;
* second form ``sigma[..., i, j, a]``, (n, n, p), symmetric in (i, j);
* shape operators ``A[..., a, i, j]`` = (A_{e_a})^i_j, (p, n, n);
* a derivative puts one direction axis after the node axes:
  (*dims, *slots) -> (*dims, n, *slots).

``MetricField``, ``SecondFormField`` and ``BundleData`` are the validated
inputs: a grid plus one array each, checked by ``check_values`` and
``check_symmetry``, whose rejections carry their ``argmax_node`` as ``.node``.

g^-1 and the definiteness test of g have one home, ``MetricField``, and are
written in closed form, since a chart has n <= 3.  The cofactors C_ij of g,
i <= j, are formed once per field, vectorised over the nodes, and each is
written to both (i, j) and (j, i).  g is positive definite when its leading
principal minors are positive (Sylvester's criterion); for n <= 3 these are
g_00, C_{n-1,n-1} and det g = sum_j g_0j C_0j.  A minor that overflows fails
the test as well, so g^-1 is never divided by an infinite det g.  The first
failing node is named.  g^-1 = C / det g is then exactly symmetric.  It is
LU's 1/g on a 1-dim chart and otherwise LAPACK's inverse to a few ulp times
the condition number.  It is formed on construction, not on first use, and
read by ``christoffel``, ``shape_operator_field``, the extraction's tangent
rows of psi and the rebuild's verification.

Sweeps carry a value from a base node over the grid by linear steps, one
operator per edge, every edge crossed away from the base.  That orientation
is written once, in ``runs_away_from``: an axis's runs away from a base
index as slices of near ends, far ends and edges (each named by its lower
node), with the run's sign.  ``sweep_steps`` splits the sweep into these
runs: per axis, in the sweep's axis order, each starting from the base slab
(the part of the grid already swept), so a run holds whole lines.  A run is
a prefix product V_j = O_j ... O_0 V_slab, and ``sweep_compose`` forms it
with ``prefix_apply``, a work-efficient scan batched over the slab: about
3 log2 L numpy calls per run of L edges instead of one per edge.

All derivatives are second-order central differences.  Each axis end gets
one ghost node by quartic extrapolation, so the boundary nodes use the same
stencils as the interior and the truncation error stays smooth up to the
edge: a difference of a difference is still second order there.  The ghost
nodes are formed for the two edge slabs only and the differences are
written in place into the output, with no padded copy of the field.  A first
difference, and so ``grad_field``, ``connection_curvature`` and
``endomorphism_derivative``, can be formed for a block of node rows alone
(``rows``, a slice of the first node axis): each row is the same stencil as in
the whole array, so a residual can be formed chunk by chunk, never whole
(``structure.chunked_magnitude``).

Matmul layout: every batched small-matrix product is written as ``@`` on the
last two axes, with the node axes (and a direction axis, where there is one)
leading and broadcast.  Operands are brought to (..., rows, inner) and
(..., inner, cols) by ``swapaxes``/``moveaxis`` views first.  numpy
multiplies each matrix of a batch on its own, so a product formed over a
block of node rows is bitwise that block of the whole product.  A curvature
pairs two direction axes: ``connection_curvature`` loops over the pairs
m < n and multiplies the two (..., N, N) slices om_m, om_n each way.
``einsum`` is left for permutations and contractions that are not a matrix
product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MetricError


@dataclass(frozen=True)
class ChartGrid:
    """Rectangular grid over a contractible chart domain."""

    dims: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError as exc:
            raise DimensionError(f"grid dims must be integers, got {self.dims}") from exc
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if not np.isfinite(spacing + origin).all():
            raise DimensionError(f"grid spacing {spacing} and origin {origin} must be finite")
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


def argmax_node(values) -> tuple:
    """Node of the first maximum (C order) of a per-node array: the first True of a mask."""
    values = np.asarray(values)
    return tuple(int(i) for i in np.unravel_index(int(values.argmax()), values.shape))


def check_values(grid: ChartGrid, values, slot_shape: tuple) -> np.ndarray:
    """``values`` as a float array of shape ``grid.dims + slot_shape`` with finite entries.

    A non-finite entry is reported with its node.
    """
    values = np.asarray(values, dtype=float)
    expected = grid.dims + tuple(slot_shape)
    if values.shape != expected:
        raise DimensionError(f"values of shape {values.shape}, expected {expected}")
    if not np.isfinite(values).all():
        node = argmax_node(~np.isfinite(values).all(axis=tuple(range(grid.ndim, values.ndim))))
        raise DimensionError(f"non-finite value at node {node}", node=node)
    return values


def check_symmetry(grid: ChartGrid, values, axes: tuple, sign: float, error, what: str):
    """Raise ``error`` at the worst node unless ``values`` is ``sign`` times its ``axes`` swap."""
    dev = np.abs(values - sign * np.swapaxes(values, *axes))
    if dev.max() > 1e-12:
        node = argmax_node(dev.max(axis=tuple(range(grid.ndim, dev.ndim))))
        raise error(f"{what} by {dev.max():.3e} at node {node}", node=node)


def _minor(g: np.ndarray, rows: tuple, cols: tuple):
    """Determinant of the block of ``g`` (..., n, n) on at most two ``rows`` and ``cols``."""
    if not rows:
        return 1.0
    if len(rows) == 1:
        return g[..., rows[0], cols[0]]
    (r, s), (c, d) = rows, cols
    return g[..., r, c] * g[..., s, d] - g[..., r, d] * g[..., s, c]


@dataclass(frozen=True)
class MetricField:
    """Metric g (*dims, n, n), symmetric positive definite at every node.

    ``inverse`` is g^-1 (*dims, n, n), read-only, formed on construction from
    the cofactors of g together with the definiteness test (see the module
    docstring): exactly symmetric, and 1/g on a 1-dim chart.
    """

    grid: ChartGrid
    values: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = check_values(self.grid, self.values, (self.grid.ndim,) * 2)
        object.__setattr__(self, "values", g)
        check_symmetry(self.grid, g, (-1, -2), 1.0, MetricError, "metric asymmetric")
        n = self.grid.ndim
        cof = np.empty(g.shape)
        for i in range(n):
            for j in range(i, n):
                rows = tuple(r for r in range(n) if r != i)
                cols = tuple(c for c in range(n) if c != j)
                cof[..., i, j] = cof[..., j, i] = (-1) ** (i + j) * _minor(g, rows, cols)
        det = np.einsum("...j,...j->...", g[..., 0, :], cof[..., 0, :])
        leading = (g[..., 0, 0], cof[..., -1, -1], det)   # of orders 1, n - 1 and n
        bad = ~np.logical_and.reduce([(minor > 0) & (minor < np.inf) for minor in leading])
        if bad.any():
            node = argmax_node(bad)
            raise MetricError(f"metric not positive definite at node {node}: a leading "
                              f"principal minor is not positive and finite", node=node)
        cof /= det[..., None, None]
        cof.flags.writeable = False
        object.__setattr__(self, "inverse", cof)


@dataclass(frozen=True)
class BundleData:
    """Rank-p metric bundle in the orthonormal gauge: connection omega (*dims, n, p, p)."""

    grid: ChartGrid
    omega: np.ndarray

    def __post_init__(self):
        rank = np.shape(self.omega)[-1] if np.ndim(self.omega) else 0
        if rank < 1:
            raise DimensionError("bundle rank must be >= 1")
        om = check_values(self.grid, self.omega, (self.grid.ndim, rank, rank))
        object.__setattr__(self, "omega", om)
        check_symmetry(self.grid, om, (-1, -2), -1.0, DimensionError,
                       "connection not skew in the orthonormal gauge")

    @property
    def rank(self) -> int:
        return self.omega.shape[-1]


@dataclass(frozen=True)
class SecondFormField:
    """Bundle-valued second form sigma (*dims, n, n, p), symmetric in its tangent slots."""

    grid: ChartGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.ndim
        s = check_values(self.grid, self.values, (n, n) + np.shape(self.values)[-1:])
        object.__setattr__(self, "values", s)
        check_symmetry(self.grid, s, (-3, -2), 1.0, DimensionError, "second form asymmetric")


def runs_away_from(base_index: int, count: int) -> list:
    """The runs of an axis of ``count`` nodes away from ``base_index``, forward run first.

    Each run is (near, far, edges, sign): slices in sweep order of the edges'
    ends nearer to and farther from the base, and of the edges themselves,
    each named by its lower node; ``sign`` is the run's direction, +1 or -1.
    """
    b, d = base_index, count
    forward = (slice(b, d - 1), slice(b + 1, d), slice(b, d - 1), 1)
    backward = (slice(b, 0, -1), slice(b - 1, None, -1), slice(b - 1, None, -1), -1)
    return [run for run, has_edges in ((forward, b < d - 1), (backward, b > 0)) if has_edges]


def sweep_steps(grid: ChartGrid, base: tuple, axis_order: tuple | None = None):
    """Runs of the deterministic sweep that covers the grid from a base node.

    Axes are swept in ``axis_order`` (lexicographic by default); each axis
    gives its ``runs_away_from`` the base, so a 1-dim chart has at most two
    runs.  Yields (src, dst, edges, axis): ``src`` selects the run's base slab
    (the base index on ``axis`` and on the axes still to sweep, full slices on
    the axes already swept), ``dst`` the run's far ends and ``edges`` its
    edges, both in sweep order along ``axis`` and otherwise like ``src``.
    """
    nd = grid.ndim
    order = tuple(axis_order) if axis_order is not None else tuple(range(nd))
    if sorted(order) != list(range(nd)):
        raise DimensionError(f"axis order {order} is not a permutation of the axes")

    slab = list(base)
    for axis in order:
        for _near, far, edges, _sign in runs_away_from(base[axis], grid.dims[axis]):
            yield (tuple(slab), tuple(slab[:axis] + [far] + slab[axis + 1:]),
                   tuple(slab[:axis] + [edges] + slab[axis + 1:]), axis)
        slab[axis] = slice(None)


def prefix_apply(ops: np.ndarray, value: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[j] = ops[j] @ ... @ ops[0] @ value`` along axis 0 of ``ops`` and ``out``.

    ``ops`` (L, *batch, r, r), ``value`` (*batch, r, c), ``out`` (L, *batch, r, c);
    returns ``out`` and leaves ``ops`` as it is.  The work-efficient scan
    (Blelloch, "Prefix Sums and Their Applications", 1990): the up-sweep
    pairs neighbours into the products of 2, 4, 8, ... consecutive operators,
    then the down-sweep fills ``out`` from the longest blocks down, each block
    applied to the entry just before it (``value`` for a block at the start).
    About L operator products and L applications in 3 log2 L matmul calls,
    each batched over the trailing axes as well.
    """
    levels = [ops]   # levels[k][q] = ops[(q+1) 2^k - 1] @ ... @ ops[q 2^k]
    while len(levels[-1]) >= 2:
        block = levels[-1][:len(levels[-1]) // 2 * 2]
        levels.append(block[1::2] @ block[0::2])
    for k in range(len(levels) - 1, -1, -1):
        blocks, width = levels.pop(), 2 ** k
        np.matmul(blocks[0], value, out=out[width - 1])
        np.matmul(blocks[2::2], out[2 * width - 1::2 * width][:len(blocks[2::2])],
                  out=out[3 * width - 1::2 * width])
    return out


def sweep_compose(grid: ChartGrid, base_value: np.ndarray, base: tuple, ops,
                  axis_order: tuple | None = None) -> np.ndarray:
    """Carry ``base_value`` from node ``base`` over the grid by linear steps along ``sweep_steps``.

    Returns the swept (*dims, *base_value.shape) array.  ``ops[axis]`` holds
    one operator per edge along ``axis``, stored at the edge's lower node
    (node axes of ``grid`` with ``axis`` one shorter), for the step away from
    ``base``; only the edges of the sweep's runs are read, and ``ops`` is
    not written.  A run's values are its prefix products O_j ... O_0 applied
    to the slab's values, formed by ``prefix_apply`` batched over the slab:
    the sweep is one composition of linear operators, with no hook between
    steps.  The products are reassociated, so the result matches
    edge-by-edge application up to rounding, not bitwise.
    """
    values = np.empty(grid.dims + base_value.shape)
    values[base] = base_value
    for src, dst, edges, axis in sweep_steps(grid, base, axis_order):
        lead = sum(isinstance(s, slice) for s in src[:axis])   # the run axis in values[dst]
        prefix_apply(np.moveaxis(ops[axis][edges], lead, 0), values[src],
                     np.moveaxis(values[dst], lead, 0))
    return values


def _neighbours(v: np.ndarray, rows: slice = slice(None)) -> tuple:
    """(nodes, left, right) along axis 0 for the rows ``rows`` of ``v``: the interior
    rows among them, then each end of ``v`` among them with its ghost node.

    ``nodes`` counts from the first of ``rows``.  The ghost nodes are quartic
    extrapolations.  Every piece is a slice, never an index, so the ends of a
    1-dim scalar field are arrays a ufunc can write.
    """
    lo, hi, _ = rows.indices(len(v))
    inner_lo, inner_hi = max(lo, 1), min(hi, len(v) - 1)
    pieces = [(slice(inner_lo - lo, inner_hi - lo), v[inner_lo - 1:inner_hi - 1],
               v[inner_lo + 1:inner_hi + 1])]
    if lo == 0:
        ghost = 5.0 * v[0:1] - 10.0 * v[1:2] + 10.0 * v[2:3] - 5.0 * v[3:4] + v[4:5]
        pieces.append((slice(0, 1), ghost, v[1:2]))
    if hi == len(v):
        ghost = 5.0 * v[-1:] - 10.0 * v[-2:-1] + 10.0 * v[-3:-2] - 5.0 * v[-4:-3] + v[-5:-4]
        pieces.append((slice(hi - lo - 1, hi - lo), v[-2:-1], ghost))
    return tuple(pieces)


def _row_count(grid: ChartGrid, rows: slice) -> int:
    """How many node rows of the first axis ``rows`` selects."""
    return len(range(*rows.indices(grid.dims[0])))


def diff_axis(values: np.ndarray, h: float, axis: int, out: np.ndarray,
              rows: slice = slice(None)) -> np.ndarray:
    """Central difference (v[i+1] - v[i-1]) / (2h) along ``axis``, written into ``out``.

    Only the node rows ``rows`` of axis 0 are formed; ``out`` holds those rows.
    """
    v = np.asarray(values, dtype=float)
    if axis != 0:   # the stencil stays within each row
        v, rows = v[rows], slice(None)
    v = np.moveaxis(v, axis, 0)
    o = np.moveaxis(out, axis, 0)
    for nodes, left, right in _neighbours(v, rows):
        np.divide(right - left, 2.0 * h, out=o[nodes])
    return out


def grad_field(grid: ChartGrid, values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Partial derivatives along every axis; new direction slot prepended.

    Input (*dims, *slots) -> output (*dims, ndim, *slots), of the node rows
    ``rows`` of the first axis alone when given.
    """
    nd = grid.ndim
    out = np.empty((_row_count(grid, rows),) + grid.dims[1:] + (nd,) + np.shape(values)[nd:])
    for a in range(nd):
        diff_axis(values, grid.spacing[a], a, out[(slice(None),) * nd + (a,)], rows)
    return out


def second_derivative_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Pure second derivative along one axis: the central three-point stencil."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty(v.shape)
    for nodes, left, right in _neighbours(v):
        np.subtract(right, 2.0 * v[nodes], out=out[nodes])
        out[nodes] += left
    out /= h * h
    return np.moveaxis(out, 0, axis)


def hessian_field(grid: ChartGrid, values: np.ndarray) -> np.ndarray:
    """All second partials: (*dims, *slots) -> (*dims, ndim, ndim, *slots).

    Mixed entries compose first differences on distinct axes, each axis
    differenced once; diagonal entries use the three-point stencil, so a
    1-dim chart forms no first difference at all.
    """
    nd, node = grid.ndim, (slice(None),) * grid.ndim
    hess = np.empty(grid.dims + (nd, nd) + np.shape(values)[nd:])   # (..., b, a) = d_b d_a
    for a in range(nd):
        hess[node + (a, a)] = second_derivative_axis(values, grid.spacing[a], a)
        if nd > 1:   # d_a v once, contiguous, then differenced along every other axis
            d_a = diff_axis(values, grid.spacing[a], a, np.empty(np.shape(values)))
            for b in range(nd):
                if b != a:
                    diff_axis(d_a, grid.spacing[b], b, hess[node + (b, a)])
    return hess


def christoffel(g: MetricField) -> np.ndarray:
    """Levi-Civita connection coefficients chris[..., l, m, n] = Gamma^l_mn from the metric."""
    grid = g.grid
    dg = grad_field(grid, g.values)  # (..., m, i, j) = d_m g_ij
    ginv = g.inverse
    # Gamma^l_mn = 1/2 g^lr (d_m g_rn + d_n g_rm - d_r g_mn), as g^-1 @ (r, mn)
    dg_r = np.swapaxes(dg, -3, -2)                    # (..., r, m, n) = d_m g_rn
    braces = dg_r + np.swapaxes(dg_r, -1, -2) - dg
    n = grid.ndim
    gamma = 0.5 * (ginv @ braces.reshape(grid.dims + (n, n * n)))
    return gamma.reshape(grid.dims + (n, n, n))


def curvature_tensor(g: MetricField) -> np.ndarray:
    """Riemann tensor R^l_smn of the Levi-Civita connection, over the direction pairs.

    riem[..., q, l, s] are the components of R(d_m, d_n) d_s along d_l for
    the q-th pair (m, n) and R(X,Y) = D_X D_Y - D_Y D_X - D_[X,Y]: the
    ``connection_curvature`` of the matrices Gamma_m = (Gamma^l_ms).
    """
    return connection_curvature(g.grid, np.swapaxes(christoffel(g), -3, -2))


def connection_curvature(grid: ChartGrid, om: np.ndarray,
                         rows: slice = slice(None)) -> np.ndarray:
    """F over the direction pairs: (*dims, n(n-1)/2, N, N) of om[..., m, :, :].

    F[..., q, :, :] = (d_m om_n + om_m om_n) - (d_n om_m + om_n om_m) for the
    q-th pair (m, n) of ``np.triu_indices(n, 1)``: only om_n is differenced
    along m and om_m along n.  Of the node rows ``rows`` of the first axis
    alone when given.
    """
    pairs = list(zip(*np.triu_indices(grid.ndim, 1)))
    block = (_row_count(grid, rows),) + grid.dims[1:]
    out = np.empty(block + (len(pairs),) + om.shape[-2:])
    if not pairs:
        return out   # a 1-dim chart: no work buffer
    swap = np.empty(block + om.shape[-2:])
    for q, (m, n) in enumerate(pairs):
        om_m, om_n = om[..., m, :, :], om[..., n, :, :]
        f = diff_axis(om_n, grid.spacing[m], m, out[..., q, :, :], rows)
        f += om_m[rows] @ om_n[rows]
        diff_axis(om_m, grid.spacing[n], n, swap, rows)
        swap += om_n[rows] @ om_m[rows]
        f -= swap
    return out


def bundle_curvature(bundle: BundleData) -> np.ndarray:
    """Curvature F[..., q, a, b] of the bundle connection over the direction pairs."""
    return connection_curvature(bundle.grid, bundle.omega)


def shape_operator_field(sigma: SecondFormField, g: MetricField) -> np.ndarray:
    """All shape operators at once: out[..., a, i, j] = (A_{e_a})^i_j."""
    return g.inverse[..., None, :, :] @ np.moveaxis(sigma.values, -1, -3)


def endomorphism_derivative(grid: ChartGrid, x: np.ndarray, conn: np.ndarray,
                            rows: slice = slice(None)) -> np.ndarray:
    """d_m x + [conn_m, x]: (*dims, n, N, N) for an endomorphism field x (*dims, N, N).

    The covariant derivative of x under the connection whose matrices
    conn (*dims, n, N, N) act on sections as d_m v + conn_m v.  Of the node
    rows ``rows`` of the first axis alone when given.
    """
    x_m, conn = x[rows][..., None, :, :], conn[rows]
    out = grad_field(grid, x, rows)
    out += conn @ x_m
    out -= x_m @ conn
    return out
