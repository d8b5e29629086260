"""Einsum forms of the batched kernels, kept as references for the matmul kernels.

Each function spells a kernel of ``prodimm`` index by index, the way the
package wrote it before its batched small-matrix products became ``@``; the
tests compare the two on fixture data and on random data without the
symmetries of real data, so a transposed operand cannot hide.  The oracles
call each other, never the kernels they check; ``fields.grad_field`` and
``fields.hessian_field`` (stencils, no products) are shared, and are checked
bitwise against the padded-copy stencils ``grad_padded``, ``second_padded``
and ``hessian_padded``.  The structure check oracles spell out the Gauss,
Codazzi, Ricci and parallel-structure equations, which the package reads off
blocks of the big connection's curvature and of D psi~, so comparing the two
tests those block identities.  ``induced_structure`` is the extraction's
per-block structure read: four pairings, one per block of psi, and the
tangent blocks raised by ``einsum``; ``verify_reconstruction`` reads a
rebuild's datum off its rows with it and with one ``minkowski_dot`` pairing
per other datum, and records each datum's distance from the dataset's.  The
package holds a curvature over the direction pairs m < n only;
``expand_pairs`` writes it out over all n^2 pairs for the oracles laid out
that way.  ``record_reference`` is the record
reduction in the residual's own node-major layout, the reference for the
package's node-last ``magnitude`` and ``node_record``; ``make_record`` is the
package's record of such a residual, ``node_record`` of its ``magnitude``.

The ``*_whole`` functions are the package's earlier forms of the residuals it
now forms by blocks of node rows (``structure.chunked_magnitude``): F, D psi~,
metric compatibility, a rebuild's frame's Gram defect and the cross-check
difference, each held whole with whole temporaries.  They call the package's
elementary kernels, not einsum, so the tests require the package's records
to equal theirs bitwise.
"""

from __future__ import annotations

import numpy as np

from prodimm import lorentz, structure
from prodimm.fields import argmax_node, diff_axis, grad_field, hessian_field
from prodimm.flatbundle import build_psi_tilde, flatness_residual, psi_tilde_parallel_residual
from prodimm.lorentz import minkowski_dot, psi_flip
from prodimm.reconstruct import EdgeFlows, sweep_parallel_frame
from prodimm.structure import CheckRecord, Report, magnitude, node_record, psi_blocks, records


def ghost_padded(values, axis) -> np.ndarray:
    """``values`` with axis ``axis`` first and one quartic-extrapolated ghost node per end."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    lo = 5.0 * v[0] - 10.0 * v[1] + 10.0 * v[2] - 5.0 * v[3] + v[4]
    hi = 5.0 * v[-1] - 10.0 * v[-2] + 10.0 * v[-3] - 5.0 * v[-4] + v[-5]
    return np.concatenate([lo[None], v, hi[None]])


def grad_padded(grid, values) -> np.ndarray:
    parts = []
    for a in range(grid.ndim):
        v = ghost_padded(values, a)
        parts.append(np.moveaxis((v[2:] - v[:-2]) / (2.0 * grid.spacing[a]), 0, a))
    return np.stack(parts, axis=grid.ndim)


def second_padded(values, h, axis) -> np.ndarray:
    v = ghost_padded(values, axis)
    return np.moveaxis((v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h), 0, axis)


def hessian_padded(grid, values) -> np.ndarray:
    nd = grid.ndim
    hess = grad_padded(grid, grad_padded(grid, values))
    for a in range(nd):
        hess[(slice(None),) * nd + (a, a)] = second_padded(values, grid.spacing[a], a)
    return hess


def expand_pairs(grid, pairs) -> np.ndarray:
    """(*dims, n(n-1)/2, *slots) over the pairs m < n -> (*dims, n, n, *slots).

    The full layout is antisymmetric: F[n, m] = -F[m, n], and F[m, m] = 0.
    """
    n, node = grid.ndim, (slice(None),) * grid.ndim
    m, k = np.triu_indices(n, 1)
    full = np.zeros(grid.dims + (n, n) + pairs.shape[n + 1:])
    full[node + (m, k)], full[node + (k, m)] = pairs, -pairs
    return full


def riemann_full(grid, riem) -> np.ndarray:
    """The package's Riemann tensor (*dims, q, l, s) in the oracle layout (*dims, l, s, m, n)."""
    return np.moveaxis(expand_pairs(grid, riem), (-2, -1), (-4, -3))


def christoffel(g) -> np.ndarray:
    dg = grad_field(g.grid, g.values)
    ginv = np.linalg.inv(g.values)
    return 0.5 * (np.einsum("...lr,...mrn->...lmn", ginv, dg)
                  + np.einsum("...lr,...nrm->...lmn", ginv, dg)
                  - np.einsum("...lr,...rmn->...lmn", ginv, dg))


def curvature_tensor(g) -> np.ndarray:
    ga = christoffel(g)
    dga = grad_field(g.grid, ga)     # (..., m, l, n, s) = d_m Gamma^l_ns
    return (np.einsum("...mlns->...lsmn", dga) - np.einsum("...nlms->...lsmn", dga)
            + np.einsum("...lmr,...rns->...lsmn", ga, ga)
            - np.einsum("...lnr,...rms->...lsmn", ga, ga))


def connection_curvature(grid, om) -> np.ndarray:
    dom = grad_field(grid, om)
    return (dom - np.einsum("...mnab->...nmab", dom)
            + np.einsum("...mac,...ncb->...mnab", om, om)
            - np.einsum("...nac,...mcb->...mnab", om, om))


def shape_operator_field(sigma, g) -> np.ndarray:
    return np.einsum("...ik,...kja->...aij", np.linalg.inv(g.values), sigma.values)


def blocks(psi, n) -> tuple:
    """(f, u, U, lambda) of a structure matrix [[f, U], [u, lambda]], sliced here."""
    return psi[..., :n, :n], psi[..., n:, :n], psi[..., :n, n:], psi[..., n:, n:]


PSI_SLOTS = (("tu", "td"), ("bu", "td"), ("tu", "bd"), ("bu", "bd"))   # of f, u, U, lambda


def covariant_derivative(grid, vals, slots, ga, om) -> np.ndarray:
    """Sum-bundle covariant derivative; ``ga`` the Christoffel array, ``om`` the bundle's."""
    out = grad_field(grid, vals)
    letters = "abcdefg"[:len(slots)]
    for j, kind in enumerate(slots):
        s = letters[j]
        mod = letters[:j] + "z" + letters[j + 1:]
        if kind == "tu":
            corr = np.einsum(f"...zm{s},...{letters}->...m{mod}", ga, vals)
        elif kind == "td":
            corr = -np.einsum(f"...{s}mz,...{letters}->...m{mod}", ga, vals)
        elif kind == "bu":
            corr = np.einsum(f"...mz{s},...{letters}->...m{mod}", om, vals)
        else:
            corr = -np.einsum(f"...m{s}z,...{letters}->...m{mod}", om, vals)
        out = out + corr
    return out


def record_reference(name, residual, grid, threshold, mean_weight=1.0) -> CheckRecord:
    """A (*dims, *free) residual's record: |residual| in place, its max over the trailing axes."""
    magnitude = np.abs(residual)
    nodewise = magnitude.max(axis=tuple(range(grid.ndim, magnitude.ndim)), initial=0.0)
    max_abs = float(nodewise.max())
    return CheckRecord(name=name, max_abs=max_abs,
                       mean_abs=float(magnitude.sum() / max(magnitude.size, 1)) * mean_weight,
                       argmax_node=argmax_node(nodewise), threshold=float(threshold))


def make_record(name, residual, grid, threshold, mean_weight=1.0) -> CheckRecord:
    """The package's record of a (*dims, *free) residual: ``node_record`` of its ``magnitude``."""
    return node_record(name, magnitude(residual, grid.ndim), grid, threshold, mean_weight)


def _report(grid, tolerances, *named):
    return Report(tuple(make_record(name, resid, grid, tolerances.threshold(name, grid))
                        for name, resid in named))


def check_psi_algebra(g, psi, tolerances) -> Report:
    grid = g.grid
    n = grid.ndim
    p = psi.shape[-1] - n
    f, u, big_u, lam = blocks(psi, n)
    gv = g.values
    gf = np.einsum("...kj,...ki->...ij", gv, f)
    flat = grid.dims + (-1,)
    res_inv_t = np.concatenate([
        (np.einsum("...ik,...kj->...ij", f, f)
         + np.einsum("...ia,...aj->...ij", big_u, u) - np.eye(n)).reshape(flat),
        (np.einsum("...ik,...ka->...ia", f, big_u)
         + np.einsum("...ia,...ab->...ib", big_u, lam)).reshape(flat)], axis=-1)
    res_inv_b = np.concatenate([
        (np.einsum("...ak,...kj->...aj", u, f)
         + np.einsum("...ab,...bj->...aj", lam, u)).reshape(flat),
        (np.einsum("...ak,...kb->...ab", u, big_u)
         + np.einsum("...ac,...cb->...ab", lam, lam) - np.eye(p)).reshape(flat)], axis=-1)
    return _report(grid, tolerances,
                   ("psi_f_symmetric", gf - np.swapaxes(gf, -1, -2)),
                   ("psi_lambda_symmetric", lam - np.swapaxes(lam, -1, -2)),
                   ("psi_u_U_adjoint", u - np.einsum("...ij,...ja->...ai", gv, big_u)),
                   ("psi_involution_tangent", res_inv_t),
                   ("psi_involution_bundle", res_inv_b))


def check_psi_parallel(g, bundle, sigma, psi, tolerances) -> Report:
    ga = christoffel(g)
    om = bundle.omega
    shape_ops = shape_operator_field(sigma, g)
    f, u, big_u, lam = blocks(psi, g.grid.ndim)
    sg = sigma.values
    d_f, d_u, d_big_u, d_lam = (covariant_derivative(g.grid, blk, slots, ga, om)
                                for blk, slots in zip((f, u, big_u, lam), PSI_SLOTS))
    return _report(
        g.grid, tolerances,
        ("psi_parallel_f", d_f - np.einsum("...aj,...aim->...mij", u, shape_ops)
         - np.einsum("...ia,...mja->...mij", big_u, sg)),
        ("psi_parallel_u", d_u - np.einsum("...ab,...mjb->...maj", lam, sg)
         + np.einsum("...mka,...kj->...maj", sg, f)),
        ("psi_parallel_U", d_big_u - np.einsum("...cb,...cim->...mib", lam, shape_ops)
         + np.einsum("...ik,...bkm->...mib", f, shape_ops)),
        ("psi_parallel_lambda", d_lam + np.einsum("...mka,...kb->...mab", sg, big_u)
         + np.einsum("...ak,...bkm->...mab", u, shape_ops)))


def check_gauss(g, sigma, psi, tolerances) -> Report:
    n = g.grid.ndim
    shape_ops = shape_operator_field(sigma, g)
    f, gv = blocks(psi, n)[0], g.values
    gf = np.einsum("...kr,...kn->...nr", gv, f)
    ident = np.eye(n)
    rhs = (np.einsum("...nra,...aim->...irmn", sigma.values, shape_ops)
           - np.einsum("...mra,...ain->...irmn", sigma.values, shape_ops)
           + 0.5 * (np.einsum("...nr,...im->...irmn", gv, f)
                    - np.einsum("...mr,...in->...irmn", gv, f)
                    + np.einsum("...nr,im->...irmn", gf, ident)
                    - np.einsum("...mr,in->...irmn", gf, ident)))
    return _report(g.grid, tolerances, ("gauss", curvature_tensor(g) - rhs))


def codazzi_residual(g, bundle, sigma, psi) -> np.ndarray:
    d_sigma = covariant_derivative(g.grid, sigma.values, ("td", "td", "bu"), christoffel(g),
                                   bundle.omega)
    u, gv = blocks(psi, g.grid.ndim)[1], g.values
    return (2.0 * (d_sigma - np.einsum("...mnra->...nmra", d_sigma))
            - np.einsum("...nr,...am->...mnra", gv, u)
            + np.einsum("...mr,...an->...mnra", gv, u))


def check_codazzi(g, bundle, sigma, psi, tolerances) -> Report:
    return _report(g.grid, tolerances, ("codazzi", codazzi_residual(g, bundle, sigma, psi)))


def check_ricci(g, bundle, sigma, tolerances) -> Report:
    curv = connection_curvature(g.grid, bundle.omega)
    shape_ops = shape_operator_field(sigma, g)
    rhs = (np.einsum("...kma,...bkn->...mnab", sigma.values, shape_ops)
           - np.einsum("...kna,...bkm->...mnab", sigma.values, shape_ops))
    return _report(g.grid, tolerances, ("ricci", curv - rhs))


def build_connection(g, bundle, sigma, psi) -> np.ndarray:
    n, p = g.grid.ndim, bundle.rank
    size = n + p + 2
    i1, i2 = n + p, n + p + 1
    chris = christoffel(g)
    shape_ops = shape_operator_field(sigma, g)
    f, u, _, _ = blocks(psi, n)
    gv = g.values
    gf = np.einsum("...kj,...km->...mj", gv, f)
    ident = np.eye(n)
    om = np.zeros(g.grid.dims + (n, size, size))
    om[..., :n, :n] = np.einsum("...kmj->...mkj", chris)
    om[..., n:n + p, :n] = np.einsum("...mja->...maj", sigma.values)
    om[..., i1, :n] = -0.5 * (gv + gf)
    om[..., i2, :n] = 0.5 * (gv - gf)
    om[..., :n, n:n + p] = -np.einsum("...bkm->...mkb", shape_ops)
    om[..., n:n + p, n:n + p] = bundle.omega
    om[..., i1, n:n + p] = -0.5 * np.einsum("...bm->...mb", u)
    om[..., i2, n:n + p] = -0.5 * np.einsum("...bm->...mb", u)
    om[..., :n, i1] = 0.5 * (ident + np.einsum("...km->...mk", f))
    om[..., n:n + p, i1] = 0.5 * np.einsum("...am->...ma", u)
    om[..., :n, i2] = 0.5 * (ident - np.einsum("...km->...mk", f))
    om[..., n:n + p, i2] = -0.5 * np.einsum("...am->...ma", u)
    return om


def metric_compatibility(grid, om, gram, g) -> np.ndarray:
    """d_m G - Omega_m^T G - G Omega_m, d_m G being d_m g padded with zeros (G = g + constants)."""
    pad = gram.shape[-1] - grid.ndim
    d_gram = np.pad(grad_field(grid, g.values), [(0, 0)] * (grid.ndim + 1) + [(0, pad)] * 2)
    return (d_gram - np.einsum("...mca,...cb->...mab", om, gram)
            - np.einsum("...ac,...mcb->...mab", gram, om))


def psi_tilde_parallel(grid, om, pt) -> np.ndarray:
    return (grad_field(grid, pt) + np.einsum("...mac,...cb->...mab", om, pt)
            - np.einsum("...ac,...mcb->...mab", pt, om))


def gram_defect(s, gram, signature) -> np.ndarray:
    return np.einsum("...ca,...cd,...db->...ab", s, gram, s) - signature


def frame_points(s) -> np.ndarray:
    """The rebuilt points read off frame columns: components of xi1~ + xi2~, timelike flipped."""
    w = np.zeros(s.shape[-1])
    w[-2], w[-1] = 1.0, -1.0
    phi = np.einsum("...ji,j->...i", s, w)
    phi[..., -1] *= -1.0
    return phi


def immersion_psi_field(s, gram) -> np.ndarray:
    out = np.einsum("...ji,...jb->...ib", s, gram)
    out[..., -1, :] *= -1.0
    return out


def verify_reconstruction(phi, frame, k, gram, g, bundle, sigma, psi, tolerances) -> Report:
    """The rebuild's datum read off its rows, one pairing per datum, less the dataset's."""
    grid = g.grid
    n, p = grid.ndim, sigma.values.shape[-1]
    dphi = grad_field(grid, phi)
    normals = np.einsum("...ib->...bi", immersion_psi_field(frame, gram)[..., :, n:n + p])
    induced = minkowski_dot(dphi[..., :, None, :], dphi[..., None, :, :])
    res_orth = minkowski_dot(dphi[..., :, None, :], normals[..., None, :, :])
    sg = minkowski_dot(hessian_field(grid, phi)[..., None, :], normals[..., None, None, :, :])
    sg = 0.5 * (sg + np.einsum("...mna->...nma", sg))
    rebuilt_psi, om = induced_structure(k, g, dphi, normals)
    d_psi = rebuilt_psi - psi
    return _report(grid, tolerances,
                   ("reconstruction_isometry", induced - g.values),
                   ("reconstruction_normal_orthogonality", res_orth),
                   ("reconstruction_second_form", sg - sigma.values),
                   ("reconstruction_psi_compat_tangent", d_psi[..., :n]),
                   ("reconstruction_psi_compat_normal", d_psi[..., n:]),
                   ("reconstruction_normal_connection", om - bundle.omega))


def induced_structure(k, metric, tangents, normals):
    """The structure matrix [[f, U], [u, lambda]] and the normal connection omega."""
    grid, p = metric.grid, normals.shape[-2]
    d_normals = grad_field(grid, normals)             # (..., m, b, N)
    om = minkowski_dot(d_normals[..., :, None, :, :], normals[..., None, :, None, :])
    om = 0.5 * (om - np.swapaxes(om, -1, -2))
    ginv = np.linalg.inv(metric.values)
    psi = np.empty(grid.dims + (grid.ndim + p,) * 2)
    f, u, big_u, lam = psi_blocks(psi, grid.ndim)
    psi_t = psi_flip(tangents, k)                 # (..., mu, N)
    psi_n = psi_flip(normals, k)                  # (..., b, N)
    b_t = minkowski_dot(psi_t[..., :, None, :], tangents[..., None, :, :])  # (.., mu, j)
    f[...] = np.einsum("...ij,...mj->...im", ginv, b_t)
    u[...] = minkowski_dot(normals[..., :, None, :], psi_t[..., None, :, :])  # (a, mu)
    b_n = minkowski_dot(psi_n[..., :, None, :], tangents[..., None, :, :])    # (b, j)
    big_u[...] = np.einsum("...ij,...bj->...ib", ginv, b_n)
    lam_vals = minkowski_dot(normals[..., :, None, :], psi_n[..., None, :, :])  # (a, b)
    lam[...] = 0.5 * (lam_vals + np.swapaxes(lam_vals, -1, -2))
    return psi, om


# The whole forms: the package's residuals as it formed them before they were
# formed by blocks of node rows, each held whole and reduced at the end.  They
# call the package's elementary kernels, so its records must equal theirs
# bitwise.


def connection_curvature_whole(grid, om) -> np.ndarray:
    """F over the direction pairs, each product into one whole (*dims, N, N) buffer."""
    pairs = list(zip(*np.triu_indices(grid.ndim, 1)))
    out = np.empty(grid.dims + (len(pairs),) + om.shape[-2:])
    swap, prod = np.empty((2,) + grid.dims + om.shape[-2:])
    for q, (m, n) in enumerate(pairs):
        om_m, om_n = om[..., m, :, :], om[..., n, :, :]
        f = diff_axis(om_n, grid.spacing[m], m, out[..., q, :, :])
        f += np.matmul(om_m, om_n, out=prod)
        diff_axis(om_m, grid.spacing[n], n, swap)
        swap += np.matmul(om_n, om_m, out=prod)
        f -= swap
    return out


def psi_tilde_derivative_whole(geom) -> np.ndarray:
    """D psi~ = d_m psi~ + [Omega_m, psi~], whole, its products whole temporaries."""
    x = build_psi_tilde(geom.psi)
    x_m = x[..., None, :, :]
    out = grad_field(geom.grid, x)
    out += geom.connection @ x_m
    out -= x_m @ geom.connection
    return out


def check_all_whole(geom, tolerances) -> Report:
    """``structure.check_all`` with F and D psi~ held whole."""
    nd = geom.grid.ndim
    curv_mag = magnitude(connection_curvature_whole(geom.grid, geom.connection), nd)
    d_psi_mag = magnitude(psi_tilde_derivative_whole(geom), nd)
    return Report.merge(
        structure.check_psi_algebra(geom, tolerances),
        structure.check_psi_parallel(geom, tolerances, d_psi_mag),
        *(check(geom, tolerances, curv_mag) for check in (
            structure.check_gauss, structure.check_codazzi, structure.check_ricci,
            flatness_residual)),
        psi_tilde_parallel_residual(geom, tolerances, d_psi_mag))


def metric_compatibility_whole(geom, tolerances) -> Report:
    """d_m G - Omega^T G - G Omega, whole, its products whole temporaries."""
    grid = geom.grid
    n = grid.ndim
    gram = geom.gram[..., None, :, :]
    om = geom.connection
    resid = np.zeros(om.shape)
    resid[..., :n, :n] = grad_field(grid, geom.metric.values)
    resid -= np.swapaxes(om, -1, -2) @ gram
    resid -= gram @ om
    return records(grid, tolerances, ("bundle_metric_compatibility", magnitude(resid, n)))


def rebuild_frame_records_whole(geom, frame, base, tolerances) -> Report:
    """``frame_orthonormality`` and, on charts of dimension >= 2, ``sweep_cross_check``
    of a rebuild's frame, each residual whole: the transposed sweep from the frame at
    ``base`` less the frame, and S^T G S - eta."""
    grid, nd = geom.grid, geom.grid.ndim
    named = [("frame_orthonormality", magnitude(lorentz.gram_defect(frame, geom.gram), nd))]
    if nd >= 2:
        flows = EdgeFlows.of(grid, geom.connection, base)
        alt = sweep_parallel_frame(flows, frame[base], axis_order=tuple(reversed(range(nd))))
        named.append(("sweep_cross_check", magnitude(alt - frame, nd)))
    return records(grid, tolerances, *named)
