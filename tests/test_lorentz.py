import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prodimm.errors import (ConstraintError, DegeneracyError, DimensionError,
                            InsufficientDataError)
from prodimm.lorentz import (AmbientFrame, eta, gram_schmidt, lorentz_orthonormalize,
                             minkowski_dot, minkowski_gram_schmidt)

from ambient_oracles import (ProductPoint, ambient_connection_relation_residual,
                             ambient_curvature, ambient_psi, normal_fields)

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
    out = minkowski_gram_schmidt(np.eye(4))
    assert np.array_equal(out, np.eye(4))


def test_lorentz_orthonormalize_mixed_input():
    frame = lorentz_orthonormalize([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert frame.gram_defect() <= 1e-12


def test_gram_schmidt_null_vector_error():
    with pytest.raises(DegeneracyError) as err:
        minkowski_gram_schmidt([[1.0, 0.0, 0.0, 1.0]])
    assert err.value.index == 0


def test_gram_schmidt_dependent_error():
    with pytest.raises(DegeneracyError):
        minkowski_gram_schmidt([[1, 0, 0, 0], [1, 1e-14, 0, 0]])


def test_lorentz_orthonormalize_timelike_must_be_last():
    with pytest.raises(DegeneracyError):
        lorentz_orthonormalize([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


def test_lorentz_orthonormalize_lorentzian_partial_span():
    # the span of the first two vectors is already Lorentzian
    vectors = [[1, 0, 0, 0], [0, 1, 0, 1.5], [0, 0, 1, 0], [0, 0, 0, 1]]
    frame = lorentz_orthonormalize(vectors)
    assert frame.gram_defect() <= 1e-12
    assert frame.columns[-1, -1] >= 1.0  # timelike axis last, future pointing


def test_lorentz_orthonormalize_takes_every_near_identity_basis():
    rng = np.random.default_rng(11)
    worst = max(lorentz_orthonormalize(np.eye(6) + 0.25 * rng.normal(size=(6, 6)))
                .gram_defect() for _ in range(5000))
    assert worst <= 1e-12


def test_lorentz_orthonormalize_identity_frame():
    frame = lorentz_orthonormalize(np.eye(4))
    assert np.array_equal(frame.columns, np.eye(4))


@given(noise=hnp.arrays(np.float64, (4, 4), elements=st.floats(-0.2, 0.2)))
@settings(max_examples=50)
def test_lorentz_orthonormalize_near_eta_frames(noise):
    vectors = np.eye(4) + noise
    try:
        frame = lorentz_orthonormalize(vectors)
    except DegeneracyError:
        return
    assert frame.gram_defect() <= 1e-12


def test_eta():
    assert np.array_equal(eta(3), np.diag([1.0, 1.0, -1.0]))
    assert isinstance(AmbientFrame(np.eye(3)).gram_defect(), float)


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
