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
node axes.  The Minkowski sign is applied in one place, ``lower`` (eta along
one axis), and the pairings go through it: ``minkowski_dot`` of vectors and
``minkowski_gram`` of row stacks, (..., r, N) x (..., s, N) -> (..., r, s).
``eta`` is the Gram matrix of the form; ``psi_flip``, the product structure; ``product_normals``, xi1 = (x, 0) and
xi2 = (0, y); ``product_norms``, |x|^2 and -<y, y>, read by ``product_defect``, the
distance from S^k x H^m, and ``onto_product``, the blockwise scaling onto it (the mesh repair);
``gram_defect``, S^T G S - eta of frames S in Gram matrices G;
``apex_boost``, the boost taking a point of H^m to the apex;
``product_distance``, the length of an offset in the rest frame of its base point;
``gram_schmidt``, batched in eta or a nodewise Gram matrix G;
``complete_basis``, canonical completion at one node; and
``lorentz_orthonormalize``, a full frame from any n independent vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneracyError, DimensionError, ReconstructionError
from .fields import argmax_node

DEGENERACY_TOL = 1e-10   # squared norm over rho(V eta V^T) below which lorentz_orthonormalize fails


def minkowski_dot(x, y):
    """Signature (+...+,-) bilinear form of vectors (..., N); broadcasts over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError(
            f"vectors of length {x.shape[-1]} and {y.shape[-1]} cannot be paired"
        )
    if x.shape[-1] < 2:
        raise DimensionError("Lorentzian vectors need at least 2 entries")
    return _contract(x, lower(y))


def _contract(x, y) -> np.ndarray:
    """Plain dot products of vectors (..., N) along their last axis."""
    return np.einsum("...i,...i->...", x, y)


def eta(n: int) -> np.ndarray:
    """Gram matrix diag(1, ..., 1, -1) of the Minkowski form."""
    g = np.eye(n)
    g[-1, -1] = -1.0
    return g


def lower(v, axis: int = -1) -> np.ndarray:
    """eta v along ``axis``: a C-ordered copy of ``v`` with its timelike entries negated there.

    On (..., N, cols) arrays with ``axis=-2`` it lowers every column at once.
    """
    out = np.array(v, dtype=float, order="C")
    np.moveaxis(out, axis, -1)[..., -1] *= -1.0
    return out


def minkowski_gram(a, b) -> np.ndarray:
    """(..., r, s) pairings <a_i, b_j> of the rows of a (..., r, N) and b (..., s, N)."""
    return a @ np.swapaxes(lower(b), -1, -2)


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


def product_norms(points, k: int) -> tuple:
    """|x|^2 and -<y, y> of the two blocks of points (..., N): both 1 on S^k x H^m."""
    x, y = points[..., : k + 1], points[..., k + 1:]
    return _contract(x, x), -minkowski_dot(y, y)


def product_defect(points, k: int) -> np.ndarray:
    """Nodewise max(| |x|^2 - 1 |, |<y, y> + 1|) of points (..., N) on S^k x H^m."""
    return np.maximum(*(np.abs(norm - 1.0) for norm in product_norms(points, k)))


def onto_product(points, k: int) -> np.ndarray:
    """A copy of points (..., N) scaled blockwise onto S^k x H^m; it raises at the first node
    (C order) whose sphere block is zero or whose hyperbolic block is not timelike."""
    points = np.asarray(points, dtype=float)
    x2, y2 = product_norms(points, k)
    bad = ~((x2 > 0) & (y2 > 0))
    if bad.any():
        node = argmax_node(bad)
        block = "hyperbolic block is not timelike" if x2[node] > 0 else "sphere block is zero"
        raise ReconstructionError(f"cannot repair the point at node {node}: its {block}",
                                  node=node)
    return np.concatenate([points[..., : k + 1] / np.sqrt(x2)[..., None],
                           points[..., k + 1:] / np.sqrt(y2)[..., None]], axis=-1)


def apex_boost(y) -> np.ndarray:
    """Lorentz boost L(y) (..., m+1, m+1) taking points y of H^m to the apex (0, ..., 0, 1).

    L = [[I + y_s y_s^T / (1 + y_t), -y_s], [-y_s^T, y_t]] for y = (y_s, y_t),
    written as eta + v v^T / (1 + y_t) with v = eta y - (0, ..., 0, 1).  L is
    symmetric, so its inverse is eta L eta.  On ambient vectors of S^k x H^m
    it acts on the hyperbolic block and is the identity on the sphere block.
    """
    y = np.asarray(y, dtype=float)
    v = lower(y)
    v[..., -1] -= 1.0
    boost = np.einsum("...i,...j->...ij", v, v / (1.0 + y[..., -1:]))
    boost += eta(y.shape[-1])
    return boost


def product_distance(a, b, k: int) -> np.ndarray:
    """Nodewise length of a - b (points (..., N)) in the rest frame of b.

    The Euclidean length of the offset with its sphere block as it is and its
    hyperbolic block boosted by ``apex_boost`` of b's.  It is invariant under
    O(k+1) x O+(1, m), equals the geodesic distance on S^k x H^m up to a
    relative O(r^2), and is zero only for a zero offset.  The Euclidean
    length of a - b grows with b's hyperbolic block instead, like cosh of its
    distance from the apex.
    """
    b = np.asarray(b, dtype=float)
    offset = np.asarray(a, dtype=float) - b
    offset[..., k + 1:] = (apex_boost(b[..., k + 1:]) @ offset[..., k + 1:, None])[..., 0]
    return np.linalg.norm(offset, axis=-1)


def gram_defect(frame, gram) -> np.ndarray:
    """S^T G S - eta of frames S (..., N, N) in the Gram matrices G (..., N, N)."""
    return np.swapaxes(frame, -1, -2) @ gram @ frame - eta(frame.shape[-1])


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

    def paired(w):   # the covector <., w>
        return lower(w) if gram is None else (gram @ w[..., None])[..., 0]

    out, norms, done = [], [], []   # done: each vector w with <., w> / <w, w>
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in basis:
            w_low = paired(w)
            done.append((w, w_low / _contract(w, w_low)[..., None]))
        for a in range(rows.shape[-2]):
            v = rows[..., a, :]
            for _ in range(2):
                for w, w_dual in done:
                    v = v - _contract(v, w_dual)[..., None] * w
            v_low = paired(v)
            n2 = _contract(v, v_low)
            root = np.sqrt(np.abs(n2))[..., None]
            v = v / root
            done.append((v, v_low * (np.sign(n2)[..., None] / root)))
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


def lorentz_orthonormalize(vectors) -> np.ndarray:
    """Build a full Lorentz-orthonormal frame from any n independent vectors.

    No partial span of the vectors needs to be spacelike.  The timelike axis
    t is the negative eigendirection of the Minkowski Gram matrix V eta V^T of
    the rows, oriented so that its timelike coordinate is positive.  Its
    complement t^perp is positive definite, so the first n-1 vectors,
    projected onto it, are orthonormalized there in the order given; t comes
    last.  Returns the frame S (n, n), basis as columns: S^T eta S = eta to
    about 1e-16 |S|_2^2, 1e-12 on near-identity frames.

    Both degeneracy tests are relative to the spectral radius rho of V eta V^T,
    which is 1 for the rows of an exact Lorentz frame however far boosted.
    Raises ``DegeneracyError``, ``.node`` the first vector whose projection
    has a squared norm of at most ``DEGENERACY_TOL`` rho, when t lies in the
    span of the first n-1 vectors (the projections are then dependent): the
    timelike direction must be carried by the last vector.  Vectors whose
    span holds no timelike direction, up to ``DEGENERACY_TOL`` rho, raise it
    too; a non-square input raises ``DimensionError``.
    """
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
        n = vecs.shape[-1] if vecs.ndim else 0
        raise DimensionError(f"need {n} vectors of length {n} for a full frame, "
                             f"got shape {vecs.shape}")
    evals, evecs = np.linalg.eigh(minkowski_gram(vecs, vecs))
    tol = DEGENERACY_TOL * np.abs(evals).max()
    t = evecs[:, 0] @ vecs
    norm2 = minkowski_dot(t, t)
    if norm2 >= -tol:
        raise DegeneracyError("the vectors span no timelike direction")
    t = np.copysign(1.0, t[-1]) * t / np.sqrt(-norm2)
    # t leads the sweep only so that every projection onto t^perp is
    # applied twice, like the ones between the spacelike rows.
    rows, n2 = gram_schmidt(np.vstack([t, vecs[:-1]]))
    if (bad := ~(np.abs(n2) > tol)).any():
        idx = int(bad.argmax()) - 1
        raise DegeneracyError(
            f"vector {idx} is dependent on the timelike axis and the vectors before "
            "it; the timelike direction must be supplied last", node=idx)
    return np.vstack([rows[1:], rows[0]]).T
