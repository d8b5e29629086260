"""Point-form ambient geometry of S^k x H^m, used only as test oracles.

The pipeline works on whole grids through the kernels of ``prodimm.lorentz``;
these helpers state the same geometry one point at a time (a validated
``ProductPoint``, the curvature operator of the product, and the relations
between the flat and the induced connection along a curve), delegating every
ambient formula to those kernels.
"""

from dataclasses import dataclass

import numpy as np

from prodimm.errors import ConstraintError, DimensionError, InsufficientDataError
from prodimm.lorentz import minkowski_dot, product_normals, psi_flip

DEFAULT_TANGENCY_TOL = 1e-8


@dataclass(frozen=True)
class ProductPoint:
    """A point of S^k x H^m, stored as the two blocks of its ambient vector."""

    sphere_part: np.ndarray
    hyper_part: np.ndarray
    tol: float = DEFAULT_TANGENCY_TOL

    def __post_init__(self):
        object.__setattr__(self, "sphere_part", np.asarray(self.sphere_part, dtype=float))
        object.__setattr__(self, "hyper_part", np.asarray(self.hyper_part, dtype=float))
        x, y = self.sphere_part, self.hyper_part
        if x.ndim != 1 or y.ndim != 1 or x.size < 2 or y.size < 2:
            raise DimensionError("product point needs blocks of length >= 2")
        if abs(x @ x - 1.0) > self.tol:
            raise ConstraintError(f"sphere block off the unit sphere by {abs(x @ x - 1.0):.3e}")
        ynorm = minkowski_dot(y, y)
        if abs(ynorm + 1.0) > self.tol:
            raise ConstraintError(f"hyperbolic block off the hyperboloid by {abs(ynorm + 1.0):.3e}")
        if y[-1] <= 0:
            raise ConstraintError("hyperbolic block on the lower sheet")

    @property
    def k(self) -> int:
        return self.sphere_part.size - 1

    @property
    def m(self) -> int:
        return self.hyper_part.size - 1

    @property
    def ambient(self) -> np.ndarray:
        return np.concatenate([self.sphere_part, self.hyper_part])


def ambient_psi(point: ProductPoint, v) -> np.ndarray:
    """Product structure at ``point``, checked against its ambient dimension."""
    v = np.asarray(v, dtype=float)
    n = point.k + point.m + 2
    if v.shape[-1] != n:
        raise DimensionError(f"expected ambient vectors of length {n}, got {v.shape[-1]}")
    return psi_flip(v, point.k)


def normal_fields(point: ProductPoint):
    """Unit normals xi1 = (x, 0), xi2 = (0, y) of the product at ``point``."""
    return product_normals(point.ambient, point.k)


def _check_tangent(point: ProductPoint, v, tol):
    xi1, xi2 = normal_fields(point)
    scale = max(float(np.sqrt(abs(minkowski_dot(v, v)))), 1.0)
    for name, xi in (("xi1", xi1), ("xi2", xi2)):
        if abs(minkowski_dot(v, xi)) > tol * scale:
            raise ConstraintError(f"vector not tangent to the product: <v,{name}> = "
                                  f"{minkowski_dot(v, xi):.3e}")


def ambient_curvature(point: ProductPoint, x, y, z, tol: float = DEFAULT_TANGENCY_TOL):
    """Curvature operator of S^k x H^m applied to tangent vectors.

    R(X,Y)Z = 1/2 (<psi Y, Z> X + <Y, Z> psi X - <psi X, Z> Y - <X, Z> psi Y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    for v in (x, y, z):
        _check_tangent(point, v, tol)
    px = ambient_psi(point, x)
    py = ambient_psi(point, y)
    return 0.5 * (minkowski_dot(py, z) * x + minkowski_dot(y, z) * px
                  - minkowski_dot(px, z) * y - minkowski_dot(x, z) * py)


def ambient_connection_relation_residual(points, dt: float, k: int, tangent_field=None,
                                         tol: float = DEFAULT_TANGENCY_TOL) -> float:
    """Max residual of the flat-vs-induced connection relations along a curve.

    ``points``: (T, N) samples on S^k x H^m; ``tangent_field``: optional (T, N)
    field tangent to the product along the curve.  Always checks the position
    normals: d(xi_i)/dt must equal the sphere/hyperbolic part of the velocity;
    with ``tangent_field`` given, additionally checks that the normal component
    of its flat derivative is carried by xi1, xi2 with the product-structure
    coefficients.  All derivatives are second-order finite differences.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 3:
        raise InsufficientDataError("need at least 3 curve samples")
    pts = [ProductPoint(p[: k + 1], p[k + 1:]) for p in points]
    vel = np.gradient(points, dt, axis=0, edge_order=2)

    xi1, xi2 = product_normals(points, k)
    psi_vel = psi_flip(vel, k)

    d_xi1 = np.gradient(xi1, dt, axis=0, edge_order=2)
    d_xi2 = np.gradient(xi2, dt, axis=0, edge_order=2)
    res = max(
        float(np.abs(d_xi1 - 0.5 * (vel + psi_vel)).max()),
        float(np.abs(d_xi2 - 0.5 * (vel - psi_vel)).max()),
    )

    if tangent_field is not None:
        field_arr = np.asarray(tangent_field, dtype=float)
        for p, v in zip(pts, field_arr):
            _check_tangent(p, v, tol)
        d_field = np.gradient(field_arr, dt, axis=0, edge_order=2)
        c1 = minkowski_dot(d_field, xi1)[..., None] * xi1
        c2 = minkowski_dot(d_field, xi2)[..., None] * xi2
        induced = d_field - c1 + c2  # tangential projection of the flat derivative
        want_1 = -0.5 * minkowski_dot(vel + psi_vel, field_arr)
        want_2 = 0.5 * minkowski_dot(vel - psi_vel, field_arr)
        rec = induced + want_1[..., None] * xi1 + want_2[..., None] * xi2
        res = max(res, float(np.abs(d_field - rec).max()))
    return res
