import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prodimm.errors import ConstraintError, DegeneracyError, DimensionError
from prodimm.lorentz import (eta, gram_defect, gram_schmidt, lorentz_orthonormalize, lower,
                             minkowski_dot, product_distance)

from ambient_oracles import (InsufficientDataError, ProductPoint,
                             ambient_connection_relation_residual, ambient_curvature,
                             ambient_psi, normal_fields)

finite = st.floats(-10, 10, allow_nan=False)
vec4 = hnp.arrays(np.float64, 4, elements=finite)

S1H1 = ProductPoint([1.0, 0.0], [0.0, 1.0])


def test_minkowski_dot_examples():
    assert minkowski_dot([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert minkowski_dot([0, 0, 0, 1], [0, 0, 0, 1]) == -1.0
    assert minkowski_dot([1, 1, 0, 1], [0, 1, 0, 1]) == 0.0


def test_minkowski_dot_dimension_errors():
    with pytest.raises(DimensionError):
        minkowski_dot([1, 0, 0], [1, 0])
    with pytest.raises(DimensionError):
        minkowski_dot([1.0], [1.0])


def test_lower_is_eta_along_one_axis():
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(5, 3, 4))
    before = vecs.copy()
    low = lower(vecs)
    assert np.array_equal(vecs, before)             # a copy; the input is untouched
    assert np.array_equal(low, vecs @ eta(4))
    assert np.allclose(vecs @ np.swapaxes(low, -1, -2),
                       minkowski_dot(vecs[:, :, None, :], vecs[:, None, :, :]),
                       rtol=0, atol=1e-14)
    cols = np.swapaxes(vecs, -1, -2)                # (5, 4, 3): vectors as columns
    assert np.array_equal(lower(cols, axis=-2), eta(4) @ cols)
    assert np.array_equal(lower(lower(vecs)), vecs)


@given(x=vec4, y=vec4, z=vec4, a=finite)
def test_minkowski_dot_bilinear_symmetric(x, y, z, a):
    assert minkowski_dot(x, y) == pytest.approx(minkowski_dot(y, x), abs=1e-9)
    lhs = minkowski_dot(x, a * y + z)
    rhs = a * minkowski_dot(x, y) + minkowski_dot(x, z)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_product_point_constraints():
    with pytest.raises(ConstraintError):
        ProductPoint([1.1, 0.0], [0.0, 1.0])
    with pytest.raises(ConstraintError):
        ProductPoint([1.0, 0.0], [0.0, -1.0])  # lower sheet
    with pytest.raises(ConstraintError):
        ProductPoint([1.0, 0.0], [1.0, 1.0])


def test_ambient_psi_blockwise():
    a, b = 0.3, -0.7
    out = ambient_psi(S1H1, [0.0, a, b, 0.0])
    assert np.array_equal(out, [0.0, a, -b, 0.0])


def test_ambient_psi_fixes_normals():
    xi1, xi2 = normal_fields(S1H1)
    assert np.array_equal(ambient_psi(S1H1, xi1), xi1)
    assert np.array_equal(ambient_psi(S1H1, xi2), -xi2)


@given(v=vec4, w=vec4)
def test_ambient_psi_involution_and_isometry(v, w):
    assert np.array_equal(ambient_psi(S1H1, ambient_psi(S1H1, v)), v)
    assert minkowski_dot(ambient_psi(S1H1, v), ambient_psi(S1H1, w)) == \
        minkowski_dot(v, w)


def test_normal_fields_example():
    xi1, xi2 = normal_fields(S1H1)
    assert np.array_equal(xi1, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(xi2, [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(xi1 + xi2, S1H1.ambient)
    assert minkowski_dot(xi1, xi1) == 1.0
    assert minkowski_dot(xi2, xi2) == -1.0
    assert minkowski_dot(xi1, xi2) == 0.0


def test_ambient_curvature_factor_signs():
    # sphere 2-plane: R(X,Y)Y = X
    p = ProductPoint([1.0, 0.0, 0.0], [0.0, 1.0])
    x = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.allclose(ambient_curvature(p, x, y, y), x, atol=1e-14)
    # hyperbolic 2-plane: R(X,Y)Y = -X
    q = ProductPoint([1.0, 0.0], [0.0, 0.0, 1.0])
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(ambient_curvature(q, x, y, y), -x, atol=1e-14)
    # mixed 2-plane is flat
    x = np.array([0.0, 1.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(ambient_curvature(S1H1, x, y, y), 0.0, atol=1e-14)


def test_ambient_curvature_rejects_non_tangent():
    xi1, _ = normal_fields(S1H1)
    t = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ConstraintError):
        ambient_curvature(S1H1, xi1, t, t)


def _tangent_at(point, raw):
    xi1, xi2 = normal_fields(point)
    v = raw - minkowski_dot(raw, xi1) * xi1 + minkowski_dot(raw, xi2) * xi2
    return v


@given(raw=st.tuples(*[hnp.arrays(np.float64, 5, elements=finite)] * 4))
@settings(max_examples=50)
def test_ambient_curvature_antisymmetries(raw):
    p = ProductPoint([0.6, 0.8, 0.0], [0.0, 1.0])
    x, y, z, w = (_tangent_at(p, r) for r in raw)
    rxy = ambient_curvature(p, x, y, z)
    ryx = ambient_curvature(p, y, x, z)
    assert np.allclose(rxy, -ryx, atol=1e-12)
    lhs = minkowski_dot(ambient_curvature(p, x, y, z), w)
    rhs = -minkowski_dot(ambient_curvature(p, x, y, w), z)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def _great_circle(dt, n):
    """Equator of S^2 x {point}; the test field rotates in the tangent plane."""
    t = dt * np.arange(n)
    zero = np.zeros_like(t)
    pts = np.stack([np.cos(t), np.sin(t), zero, zero, np.ones_like(t)], axis=-1)
    tang = np.stack([-np.sin(t), np.cos(t), zero, zero, zero], axis=-1)
    pole = np.stack([zero, zero, np.ones_like(t), zero, zero], axis=-1)
    field = np.cos(3 * t)[:, None] * tang + np.sin(3 * t)[:, None] * pole
    return pts, field


def test_connection_relation_great_circle_second_order():
    res = []
    for dt in (1e-2, 5e-3):
        pts, field = _great_circle(dt, 201)
        res.append(ambient_connection_relation_residual(pts, dt, k=2, tangent_field=field))
    assert res[0] <= 10.0 * 1e-2**2
    assert 3.5 <= res[0] / res[1] <= 4.5


def test_connection_relation_constant_curve():
    pts = np.tile(S1H1.ambient, (7, 1))
    assert ambient_connection_relation_residual(pts, 0.1, k=1) == 0.0


def test_connection_relation_needs_samples():
    pts = np.tile(S1H1.ambient, (2, 1))
    with pytest.raises(InsufficientDataError):
        ambient_connection_relation_residual(pts, 0.1, k=1)


def test_gram_schmidt_identity_frame():
    out, n2 = gram_schmidt(np.eye(4))
    assert np.array_equal(out, np.eye(4))
    assert n2.tolist() == [1.0, 1.0, 1.0, -1.0]


def test_lorentz_orthonormalize_mixed_input():
    frame = lorentz_orthonormalize([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.abs(gram_defect(frame, eta(4))).max() <= 1e-12


def test_lorentz_orthonormalize_takes_a_null_vector():
    frame = lorentz_orthonormalize([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.abs(gram_defect(frame, eta(4))).max() <= 1e-12


@pytest.mark.parametrize("vectors", [
    [[1, 0, 0, 0], [1, 1e-14, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 1], [2, 0, 0, 2], [0, 1, 0, 0], [0, 0, 0, 1]]], ids=["spacelike", "null"])
def test_lorentz_orthonormalize_names_a_dependent_row(vectors):
    with pytest.raises(DegeneracyError, match="^vector 1 is dependent on the timelike axis "
                       "and the vectors before it; the timelike direction must be supplied "
                       "last$") as err:
        lorentz_orthonormalize(vectors)
    assert err.value.node == 1


def test_lorentz_orthonormalize_timelike_must_be_last():
    with pytest.raises(DegeneracyError):
        lorentz_orthonormalize([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


def test_lorentz_orthonormalize_lorentzian_partial_span():
    # the span of the first two vectors is already Lorentzian
    vectors = [[1, 0, 0, 0], [0, 1, 0, 1.5], [0, 0, 1, 0], [0, 0, 0, 1]]
    frame = lorentz_orthonormalize(vectors)
    assert np.abs(gram_defect(frame, eta(4))).max() <= 1e-12
    assert frame[-1, -1] >= 1.0  # timelike axis last, future pointing


def test_lorentz_orthonormalize_takes_every_near_identity_basis():
    rng = np.random.default_rng(11)
    worst = max(np.abs(gram_defect(lorentz_orthonormalize(
        np.eye(6) + 0.25 * rng.normal(size=(6, 6))), eta(6))).max() for _ in range(5000))
    assert worst <= 1e-12


@pytest.mark.parametrize("rapidity", [8.0, 12.0, 14.0])
def test_lorentz_orthonormalize_takes_a_far_boosted_frame(rapidity):
    """The rows of an exact boost are a Lorentz frame: V eta V^T = eta, so nothing is
    degenerate however large |V|.  The defect stays within round-off of |S|_2^2."""
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    rows = np.eye(4)
    rows[0, 0] = rows[-1, -1] = c
    rows[0, -1] = rows[-1, 0] = s
    frame = lorentz_orthonormalize(rows)
    assert np.abs(gram_defect(frame, eta(4))).max() <= 1e-16 * np.linalg.norm(frame, 2) ** 2


def test_lorentz_orthonormalize_identity_frame():
    frame = lorentz_orthonormalize(np.eye(4))
    assert np.array_equal(frame, np.eye(4))


@given(noise=hnp.arrays(np.float64, (4, 4), elements=st.floats(-0.2, 0.2)))
@settings(max_examples=50)
def test_lorentz_orthonormalize_near_eta_frames(noise):
    vectors = np.eye(4) + noise
    try:
        frame = lorentz_orthonormalize(vectors)
    except DegeneracyError:
        return
    assert np.abs(gram_defect(frame, eta(4))).max() <= 1e-12


def test_eta():
    assert np.array_equal(eta(3), np.diag([1.0, 1.0, -1.0]))


def test_gram_schmidt_batched_flags_the_dependent_node():
    rng = np.random.default_rng(3)
    nodes, n = 6, 4
    a = np.eye(n) + 0.1 * rng.normal(size=(nodes, n, n))
    gram = np.swapaxes(a, -1, -2) @ eta(n) @ a          # a Lorentzian G at every node
    rows = np.eye(n) + 0.1 * rng.normal(size=(nodes, n, n))
    rows[3, 2] = rows[3, 0] - 2.0 * rows[3, 1]
    out, n2 = gram_schmidt(rows, gram)
    flagged = (~(np.abs(n2) > 1e-10)).any(axis=-1)
    assert flagged.tolist() == [False, False, False, True, False, False]
    ok = out[~flagged]
    pairs = ok @ gram[~flagged] @ np.swapaxes(ok, -1, -2)
    assert np.abs(pairs - eta(n)).max() <= 1e-12


def _orthogonal(rng, size: int) -> np.ndarray:
    """A random element of O(size), either determinant."""
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return q


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(1, 3),
       rapidity=st.floats(0.0, 3.0))
def test_product_distance_is_invariant_under_product_isometries(seed, k, m, rapidity):
    """O(k+1) x O+(1, m), a rotation or reflection of the sphere block and a boost after a
    rotation or reflection of the hyperbolic block, moves no product distance."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, k + 1))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    ys = rng.normal(size=(5, m))
    b = np.concatenate([x, ys, np.sqrt(1.0 + (ys**2).sum(-1, keepdims=True))], axis=-1)
    a = b + 0.1 * rng.normal(size=b.shape)              # any offset from a point of the product
    direction = rng.normal(size=m)
    direction /= np.linalg.norm(direction)
    boost = np.eye(m + 1)
    boost[:m, :m] += (np.cosh(rapidity) - 1.0) * np.outer(direction, direction)
    boost[:m, m] = boost[m, :m] = np.sinh(rapidity) * direction
    boost[m, m] = np.cosh(rapidity)
    spatial = np.eye(m + 1)
    spatial[:m, :m] = _orthogonal(rng, m)
    iso = np.zeros((k + m + 2,) * 2)
    iso[:k + 1, :k + 1] = _orthogonal(rng, k + 1)
    iso[k + 1:, k + 1:] = boost @ spatial
    assert np.abs(gram_defect(iso, eta(k + m + 2))).max() <= 1e-9   # a Lorentz isometry
    before = product_distance(a, b, k)
    after = product_distance(a @ iso.T, b @ iso.T, k)
    assert np.abs(after - before).max() <= 1e-9 + 1e-8 * before.max()


@pytest.mark.parametrize("r", [1e-2, 5e-2, 1e-1])
def test_product_distance_is_the_geodesic_distance_on_h1(r):
    """Points r apart on the H^1 geodesic (sinh t, cosh t) of S^1 x H^1 are r apart to a
    relative r^2, out to t = 8 (cosh t ~ 1.5e3) as at the apex."""
    def on_product(t):
        return np.stack([np.full_like(t, 0.6), np.full_like(t, 0.8), np.sinh(t), np.cosh(t)], -1)

    t = np.linspace(0.0, 8.0, 33)
    assert np.abs(product_distance(on_product(t + r), on_product(t), 1) / r - 1.0).max() <= r**2
