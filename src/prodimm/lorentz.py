"""Minkowski linear algebra and the ambient kernels of S^k x H^m.

Conventions used everywhere in this package:

* The Lorentzian form on R^N has signature (+, ..., +, -) with the timelike
  coordinate LAST; serialization follows the same order.
* A point of the product S^k x H^m sits in R^(k+m+2) as (sphere block,
  hyperbolic block) with |x|^2 = 1, <y, y> = -1 and the last entry of y
  positive (upper sheet of the hyperboloid).
* ``psi`` below always denotes the product structure: +1 on the sphere block,
  -1 on the hyperbolic block, extended to the two unit normals xi1, xi2 of
  the product by psi(xi1) = xi1, psi(xi2) = -xi2.

Every ambient formula of the package is written once, here, broadcasting over
node axes: the pairing ``minkowski_dot`` and its Gram matrix ``eta``;
``psi_flip``, the product structure; ``product_normals``, xi1 = (x, 0) and
xi2 = (0, y); ``product_defect``, the distance from S^k x H^m;
``gram_schmidt``, batched in eta or a nodewise Gram matrix G; and
``complete_basis``, canonical completion at one node.  ``minkowski_gram_schmidt``
and ``lorentz_orthonormalize`` are raising single-frame fronts of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, DimensionError


def minkowski_dot(x, y):
    """Signature (+...+,-) bilinear form; broadcasts over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError(
            f"vectors of length {x.shape[-1]} and {y.shape[-1]} cannot be paired"
        )
    if x.shape[-1] < 2:
        raise DimensionError("Lorentzian vectors need at least 2 entries")
    prod = x * y
    return prod[..., :-1].sum(axis=-1) - prod[..., -1]


def eta(n: int) -> np.ndarray:
    """Gram matrix diag(1, ..., 1, -1) of the Minkowski form."""
    g = np.eye(n)
    g[-1, -1] = -1.0
    return g


def psi_flip(v, k: int) -> np.ndarray:
    """Product structure on ambient vectors (..., N): flips the hyperbolic block.

    Acts on any ambient vector (tangent or not); an involution and an exact
    isometry of the Minkowski form.
    """
    out = np.array(v, dtype=float)
    out[..., k + 1:] *= -1.0
    return out


def product_normals(points, k: int):
    """Unit normals xi1 = (x, 0), xi2 = (0, y) of the product at points (..., N)."""
    xi1 = np.array(points, dtype=float)
    xi2 = xi1.copy()
    xi1[..., k + 1:] = 0.0
    xi2[..., : k + 1] = 0.0
    return xi1, xi2


def product_defect(points, k: int) -> np.ndarray:
    """Nodewise max(| |x|^2 - 1 |, |<y, y> + 1|) of points (..., N) on S^k x H^m."""
    x, y = points[..., : k + 1], points[..., k + 1:]
    r_sphere = np.abs(np.einsum("...i,...i->...", x, x) - 1.0)
    return np.maximum(r_sphere, np.abs(minkowski_dot(y, y) + 1.0))


def _pair(a, b, gram):
    if gram is None:
        return minkowski_dot(a, b)
    return (a[..., None, :] @ gram @ b[..., :, None])[..., 0, 0]


def gram_schmidt(rows, gram=None, basis=()):
    """Orthonormalize ``rows`` (..., r, N) in order, after the vectors of ``basis``.

    Pairing: eta (``gram`` None) or G, (N, N) or (..., N, N).  ``basis`` holds
    mutually orthogonal (..., N) vectors, projected out but not returned.
    Gram-Schmidt with each sweep of projections applied twice; each row is
    normalized by sqrt(|<v, v>|).  Returns the rows and their squared norms (..., r) after
    projection.  A null or dependent row turns itself and the rows after it
    to inf or NaN, so callers test ``~(n2 > tol)``, which is true for NaN.
    """
    rows = np.asarray(rows, dtype=float)
    done = [(w, _pair(w, w, gram)) for w in basis]
    out, norms = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(rows.shape[-2]):
            v = rows[..., a, :]
            for _ in range(2):
                for w, w2 in done:
                    v = v - (_pair(v, w, gram) / w2)[..., None] * w
            n2 = _pair(v, v, gram)
            v = v / np.sqrt(np.abs(n2))[..., None]
            done.append((v, np.sign(n2)))
            out.append(v)
            norms.append(n2)
    return np.stack(out, axis=-2), np.stack(norms, axis=-1)


def complete_basis(candidates, count: int, gram=None, basis=(), tol: float = 1e-10):
    """Canonical completion at one node: the first ``count`` candidates (rows)
    that keep a squared norm above ``tol`` after projecting out ``basis`` and
    the vectors already taken, orthonormalized.  May return fewer rows."""
    found: list[np.ndarray] = []
    for c in candidates:
        if len(found) == count:
            break
        row, n2 = gram_schmidt(np.asarray(c)[None], gram, list(basis) + found)
        if n2[0] > tol:
            found.append(row[0])
    return found


@dataclass(frozen=True)
class AmbientFrame:
    """Columns form a Lorentz-orthonormal basis: G^T eta G = eta."""

    columns: np.ndarray
    gram_signature: np.ndarray = field(default=None)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        object.__setattr__(self, "columns", cols)
        n = cols.shape[0]
        if cols.shape != (n, n):
            raise DimensionError("frame must be square")
        object.__setattr__(self, "gram_signature", eta(n))

    def gram_defect(self) -> float:
        e = self.gram_signature
        return float(np.abs(self.columns.T @ e @ self.columns - e).max())


def minkowski_gram_schmidt(vectors, tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize rows w.r.t. the Minkowski form, preserving order.

    ``gram_schmidt`` with a check: raises ``DegeneracyError`` (``.index`` the
    row) on the first row whose squared norm after projection is at most
    ``tol`` times max(|v|, 1)^2.  Returns the orthonormalized vectors as rows.
    """
    vecs = np.asarray(vectors, dtype=float)
    rows, n2 = gram_schmidt(vecs)
    scale = np.maximum(np.linalg.norm(vecs, axis=-1), 1.0)
    bad = ~(np.abs(n2) > tol * scale**2)
    if bad.any():
        idx = int(bad.argmax())
        raise DegeneracyError(f"vector {idx} is null or dependent after projection",
                              index=idx)
    return rows


def lorentz_orthonormalize(vectors, tol: float = 1e-10) -> AmbientFrame:
    """Build a full Lorentz-orthonormal frame from any n independent vectors.

    No partial span of the vectors needs to be spacelike.  The timelike axis
    t is the negative eigendirection of the Minkowski Gram matrix V eta V^T of
    the rows, oriented so that its timelike coordinate is positive.  Its
    complement t^perp is positive definite, so the first n-1 vectors,
    projected onto it, are orthonormalized there in the order given; t comes
    last.  The result satisfies G^T eta G = eta to 1e-12.

    Raises ``DegeneracyError`` when t lies in the span of the first n-1
    vectors (the projections are then dependent): the timelike direction
    must be carried by the last vector.  Dependent vectors whose span holds
    no timelike direction raise it too; a non-square input raises
    ``DimensionError``.
    """
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
        n = vecs.shape[-1] if vecs.ndim else 0
        raise DimensionError(f"need {n} vectors of length {n} for a full frame, "
                             f"got shape {vecs.shape}")
    n = vecs.shape[0]
    _, evecs = np.linalg.eigh(vecs @ eta(n) @ vecs.T)
    t = evecs[:, 0] @ vecs
    norm2 = minkowski_dot(t, t)
    if norm2 >= -tol * max(float(np.linalg.norm(vecs, 2)), 1.0) ** 2:
        raise DegeneracyError("the vectors span no timelike direction")
    t = np.copysign(1.0, t[-1]) * t / np.sqrt(-norm2)
    try:
        # t leads the sweep only so that every projection onto t^perp is
        # applied twice, like the ones between the spacelike rows.
        rows = minkowski_gram_schmidt(np.vstack([t, vecs[:-1]]), tol=tol)
    except DegeneracyError as err:
        idx = err.index - 1
        raise DegeneracyError(
            f"vector {idx} is dependent on the timelike axis and the vectors before "
            "it; the timelike direction must be supplied last", index=idx) from err
    return AmbientFrame(columns=np.vstack([rows[1:], rows[0]]).T)
