import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from robinopt import (
    BoundaryFunction,
    Domain,
    GeometryError,
    SolverError,
    SpectralRangeError,
    assemble,
    disk_robin_lambda,
    estimate_dirichlet_e1,
    generate_mesh,
    heat_content,
    laplace_transform_check,
    normal_flux,
    optimize,
    robin_principal_eigenvalue,
    solve_resolvent,
)
from robinopt import fem, geometry, verify
from robinopt.errors import BoundaryLayerWarning

# frozen disk references (series/continued-fraction oracles)
RATIO_01 = 0.44638996589653446          # I1(1)/I0(1)
INT_U_MINUS1 = math.pi - 2 * math.pi * RATIO_01
LAMBDA_SIGMA_MINUS1 = -2.5865628591780903   # root of k I1(k)/I0(k) = 1
J01_SQ = 5.783185962946785


def test_assembly_identities(disk_mesh_mid):
    asm = assemble(disk_mesh_mid)
    ones = np.ones(len(disk_mesh_mid.nodes))
    assert np.linalg.norm(asm.K @ ones) < 1e-12 * len(ones)
    assert ones @ (asm.M @ ones) == pytest.approx(disk_mesh_mid.area(),
                                                  abs=1e-12)
    d = asm.boundary_diagonal(BoundaryFunction.constant(disk_mesh_mid, 1.0))
    assert d.sum() == pytest.approx(disk_mesh_mid.boundary_length(),
                                    abs=1e-12)
    # exactly symmetric as assembled, with no symmetrization
    assert (asm.K != asm.K.T).nnz == 0
    assert (asm.M != asm.M.T).nnz == 0


# --- the COO assembly and the fancy-index slicing of the interior blocks
# that the shared-pattern assembly replaced, as oracles ---

def _oracle_assemble_km(mesh):
    p = mesh.nodes
    t = mesh.triangles
    v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    e0 = v2 - v1
    e1 = v0 - v2
    e2 = v1 - v0
    area = 0.5 * (e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0]))
    edges = (e0, e1, e2)
    rows, cols, kvals, mvals = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            kvals.append(np.sum(edges[i] * edges[j], axis=1) / (4.0 * area))
            mvals.append(area / (6.0 if i == j else 12.0))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    n = len(p)
    K = scipy.sparse.csr_matrix((np.concatenate(kvals), (rows, cols)),
                                shape=(n, n))
    M = scipy.sparse.csr_matrix((np.concatenate(mvals), (rows, cols)),
                                shape=(n, n))
    K.eliminate_zeros()
    return K, M


def _oracle_sorted_assemble_km(mesh):
    """The one-pass assembly that found its pattern by sorting all 9T keys."""
    p, t = mesh.nodes, np.ascontiguousarray(mesh.triangles.T)
    n = len(p)
    area = mesh.triangle_areas()
    x, y = p[:, 0][t], p[:, 1][t]
    ex, ey = x[[2, 0, 1]] - x[[1, 2, 0]], y[[2, 0, 1]] - y[[1, 2, 0]]
    kvals = (ex[:, None] * ex + ey[:, None] * ey) / (4.0 * area)
    mvals = area / np.where(np.eye(3, dtype=bool), 6.0, 12.0)[:, :, None]
    keys = (t[:, None] * n + t).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    slot = np.cumsum(new, dtype=np.int32) - 1
    keys = keys[new]
    pattern = ((keys % n).astype(np.int32),
               np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32))
    return tuple(scipy.sparse.csr_matrix(
        (np.bincount(slot, vals.ravel()[order]), *pattern), shape=(n, n))
        for vals in (kvals, mvals))


def _keys(A, where=None):
    """Sorted keys row n + col of the stored entries ``where`` picks."""
    A = A.tocoo()
    pick = np.ones(A.nnz, dtype=bool) if where is None else where(A.data)
    return np.sort(A.row[pick].astype(np.int64) * A.shape[1] + A.col[pick])


def _reordered(mesh, path):
    """``mesh`` with shuffled nodes and rotated triangles, saved and loaded."""
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(mesh.nodes))
    new_id = np.argsort(perm)
    tris = np.roll(new_id[mesh.triangles], 1, axis=1)[
        rng.permutation(len(mesh.triangles))]
    geometry.Mesh(mesh.nodes[perm], tris, mesh.h_interior).save(path)
    return geometry.Mesh.load(path)


@pytest.mark.parametrize("name", ["disk", "annulus", "rect", "ngon",
                                  "lshape", "loaded"])
def test_shared_pattern_assembly_matches_coo_oracle(catalogue, tmp_path,
                                                    name):
    for h in (0.1, 0.05):
        for layer in (0.0, 0.05):
            label = f"{name} h={h} layer={layer}"
            mesh = generate_mesh(catalogue.get(name, Domain.disk(1.0)), h,
                                 boundary_layer_width=layer)
            if name == "loaded":
                mesh = _reordered(mesh, tmp_path / "reordered.mesh")
            asm = fem.Assembly(mesh)
            K0, M0 = _oracle_assemble_km(mesh)
            idx = asm.interior
            for A, B in ((asm.K, K0), (asm.M, M0),
                         (asm.K_II, K0[idx][:, idx].tocsc()),
                         (asm.M_II, M0[idx][:, idx].tocsc())):
                # equal to 1e-14 of each row's largest entry
                diff = abs(A - B).max(axis=1).toarray().ravel()
                scale = abs(B).max(axis=1).toarray().ravel()
                assert (diff <= 1e-14 * scale).all(), label
            assert (asm.K != asm.K.T).nnz == 0, label
            assert (asm.K_II != asm.K_II.T).nnz == 0, label
            # K keeps the exact zeros the oracle eliminated, and only those
            assert np.array_equal(_keys(asm.K, lambda v: v == 0),
                                  np.setdiff1d(_keys(M0), _keys(K0))), label
            for A, B in ((asm.K, asm.M), (asm.K_II, asm.M_II)):
                assert np.shares_memory(A.indptr, B.indptr), label
                assert np.shares_memory(A.indices, B.indices), label
            # the pattern couples exactly the mesh's edges
            A = asm.K.tocoo()
            above = A.row < A.col
            assert np.array_equal(
                np.sort(A.row[above].astype(np.int64) * len(mesh.nodes)
                        + A.col[above]),
                mesh.edge_keys), label
            # byte for byte the matrices of the 9T-key sort
            for A, B in zip((asm.K, asm.M), _oracle_sorted_assemble_km(mesh)):
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(A, part), getattr(B, part)
                    assert a.dtype == b.dtype, label
                    assert a.tobytes() == b.tobytes(), (label, part)


def test_assembly_traced_peak_is_bounded():
    # the pattern comes off the mesh's edge table, with no 9T-entry keys,
    # sort or dedupe, and M's terms are made only once K's are freed: on
    # this annulus (10 996 nodes, 21 364 triangles) the traced peak
    # measured 6.6 MiB, against 8.1 MiB with both matrices' terms made up
    # front and 12.8 MiB with the 9T-key sort; the bound leaves 1.4 MiB
    # (22%) of margin
    mesh = verify.mesh_for(Domain.annulus(2.0, 1.0), -20.0, 0.03)
    fem.Assembly(mesh)  # first-use imports and caches are not counted
    tracemalloc.start()
    try:
        fem.Assembly(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_torsion_solution_disk(disk_mesh_mid):
    u = solve_resolvent(disk_mesh_mid, 0.0)
    assert u.meaning == "torsion"
    center = int(np.argmin(np.linalg.norm(disk_mesh_mid.nodes, axis=1)))
    assert u.values[center] == pytest.approx(0.25, abs=2e-4)
    assert u.integral() == pytest.approx(math.pi / 8, rel=2e-3)
    assert np.all(u.values[disk_mesh_mid.boundary_nodes] == 0.0)


def test_resolvent_bessel_integral(disk_mesh_mid):
    u = solve_resolvent(disk_mesh_mid, -1.0)
    assert u.integral() == pytest.approx(INT_U_MINUS1, rel=2e-3)
    interior = np.setdiff1d(np.arange(len(disk_mesh_mid.nodes)),
                            disk_mesh_mid.boundary_nodes)
    assert u.values[interior].min() > 0


def test_resolvent_positivity_and_unit_bound(catalogue):
    # discrete form of the uniform bound |s| U_s < 1
    for name, dom in catalogue.items():
        mesh = generate_mesh(dom, 0.08, boundary_layer_width=0.1)
        for s in (-0.1, -1.0, -10.0):
            u = solve_resolvent(mesh, s)
            assert abs(s) * u.values.max() < 1.0, (name, s)


def test_resolvent_warns_on_unresolved_layer(disk_mesh_coarse):
    with pytest.warns(BoundaryLayerWarning):
        solve_resolvent(disk_mesh_coarse, -1e4)


def test_resolvent_rejects_shift_above_ground(disk_mesh_coarse):
    e1 = estimate_dirichlet_e1(disk_mesh_coarse)
    with pytest.raises(SpectralRangeError):
        solve_resolvent(disk_mesh_coarse, e1 * 1.5)


def test_normal_flux_disk(disk_mesh_mid):
    mesh = disk_mesh_mid
    u = solve_resolvent(mesh, -1.0)
    flux = normal_flux(mesh, u, -1.0)
    # radial derivative of the resolvent at the rim is -I1/I0
    assert flux.values.mean() == pytest.approx(-RATIO_01, rel=1e-2)
    assert flux.spread() < 0.01 * abs(flux.values.mean())
    # divergence-theorem consistency is exact in floating point
    F = u.integral() - mesh.area()  # s^2 int U + s |O| at s = -1
    assert flux.integral == pytest.approx(-F / -1.0, abs=1e-12)


def test_normal_flux_torsion_balance(square_mesh_mid):
    u = solve_resolvent(square_mesh_mid, 0.0)
    flux = normal_flux(square_mesh_mid, u, 0.0)
    assert flux.integral == pytest.approx(-square_mesh_mid.area(),
                                          abs=1e-12)


def test_normal_flux_contract(disk_mesh_mid, square_mesh_mid):
    u = solve_resolvent(square_mesh_mid, 0.0)
    with pytest.raises(GeometryError):
        normal_flux(disk_mesh_mid, u, 0.0)


def test_robin_eigen_neumann_ground(disk_mesh_coarse):
    res = robin_principal_eigenvalue(
        disk_mesh_coarse, BoundaryFunction.constant(disk_mesh_coarse, 0.0)
    )
    assert abs(res.eigenvalue) < 1e-10
    v = res.eigenfunction.values
    assert v.std() < 1e-6 * abs(v.mean())


def test_robin_eigen_constant_negative(disk_mesh_mid):
    res = robin_principal_eigenvalue(
        disk_mesh_mid, BoundaryFunction.constant(disk_mesh_mid, -1.0)
    )
    assert res.eigenvalue == pytest.approx(LAMBDA_SIGMA_MINUS1, rel=2e-3)
    assert res.residual_norm <= 1e-8
    # Rayleigh-quotient consistency
    asm = assemble(disk_mesh_mid)
    d = asm.boundary_diagonal(BoundaryFunction.constant(disk_mesh_mid, -1.0))
    v = res.eigenfunction.values
    quotient = (v @ (asm.K @ v + d * v)) / (v @ (asm.M @ v))
    assert quotient == pytest.approx(res.eigenvalue, abs=1e-10)
    assert v @ (asm.M @ v) == pytest.approx(1.0, abs=1e-10)
    assert v.min() > -1e-6 * v.max()


def test_robin_eigen_positive_sigma_bounded(disk_mesh_coarse):
    res = robin_principal_eigenvalue(
        disk_mesh_coarse, BoundaryFunction.constant(disk_mesh_coarse, 2.0)
    )
    e1 = estimate_dirichlet_e1(disk_mesh_coarse)
    assert 0.0 < res.eigenvalue < e1
    assert res.eigenvalue == pytest.approx(disk_robin_lambda(1.0, 2.0),
                                           rel=5e-3)


def test_robin_eigen_convergence_rate():
    # second-order convergence on the constant-parameter disk case
    errs = []
    for h in (0.2, 0.1, 0.05):
        mesh = generate_mesh(Domain.disk(1.0), h)
        res = robin_principal_eigenvalue(
            mesh, BoundaryFunction.constant(mesh, -1.0)
        )
        errs.append(abs(res.eigenvalue - LAMBDA_SIGMA_MINUS1))
    rate = math.log2(errs[1] / errs[2])
    assert rate >= 1.7, errs


def test_robin_eigen_monotone_in_sigma(disk_mesh_coarse):
    rng = np.random.default_rng(11)
    nb = len(disk_mesh_coarse.boundary_nodes)
    for _ in range(20):
        lo = rng.uniform(-3.0, 1.0, nb)
        gap = rng.uniform(0.0, 2.0, nb)
        lam_lo = robin_principal_eigenvalue(
            disk_mesh_coarse, BoundaryFunction(disk_mesh_coarse, lo)
        ).eigenvalue
        lam_hi = robin_principal_eigenvalue(
            disk_mesh_coarse, BoundaryFunction(disk_mesh_coarse, lo + gap)
        ).eigenvalue
        assert lam_lo <= lam_hi + 1e-9


def _blowup_sigma(mesh, mu, n):
    # the verify blow-up family: all of mu on the boundary ball of radius
    # 2^-n around (1, 0)
    w = assemble(mesh).boundary_node_weights
    bdist = np.linalg.norm(mesh.nodes[mesh.boundary_nodes] - [1.0, 0.0],
                           axis=1)
    support = bdist <= 2.0**-n
    sig = np.zeros(len(w))
    sig[support] = mu / w[support].sum()
    return sig


@pytest.fixture(scope="module")
def eigen_cases(disk_mesh_coarse):
    mesh = disk_mesh_coarse
    res = optimize(mesh, -5.0)
    nb = len(mesh.boundary_nodes)
    rng = np.random.default_rng(3)
    scale = np.abs(res.sigma_mu.values).max()
    return res, {
        "random": rng.uniform(-3.0, 1.0, nb),
        "perturbed": res.sigma_mu.values
        + 0.5 * scale * rng.uniform(-1.0, 1.0, nb),
        "constant negative": np.full(nb, -4.0),
        "constant positive": np.full(nb, 2.0),
        "concentrated": _blowup_sigma(mesh, -1.0, 6),
    }


def test_robin_eigen_matches_dense_reference(monkeypatch, disk_mesh_coarse,
                                             eigen_cases):
    mesh = disk_mesh_coarse
    res, cases = eigen_cases
    asm = assemble(mesh)
    K, M = asm.K.toarray(), asm.M.toarray()
    lanczos = []

    def no_eigsh(*args, **kwargs):
        lanczos.append(1)
        raise AssertionError("fem.eigsh was called")

    monkeypatch.setattr(fem, "eigsh", no_eigsh)
    for name, values in cases.items():
        sigma = BoundaryFunction(mesh, values)
        A = K + np.diag(asm.boundary_diagonal(sigma))
        ref = scipy.linalg.eigh(A, M, subset_by_index=[0, 0],
                                eigvals_only=True)[0]
        for v0 in (None, res.u_mu.values):
            out = robin_principal_eigenvalue(
                mesh, sigma, v0=None if v0 is None else v0.copy())
            lam, v = out.eigenvalue, out.eigenfunction.values
            label = (name, "warm" if v0 is not None else "cold")
            assert abs(lam - ref) <= 1e-9 * abs(ref), label
            assert np.linalg.norm(A @ v - lam * (M @ v)) <= 1e-8, label
            assert out.residual_norm <= 1e-8, label
            assert v @ (M @ v) == pytest.approx(1.0, abs=1e-10), label
            assert v.min() >= -1e-6 * v.max(), label
    # one eigen path: no Lanczos solve is made
    assert not lanczos


def test_robin_eigen_warm_start_one_factorization(monkeypatch,
                                                  disk_mesh_coarse,
                                                  eigen_cases):
    mesh = disk_mesh_coarse
    res, cases = eigen_cases
    lus = []
    original = fem._factorize

    def counting_factorize(*args, **kwargs):
        lus.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    out = robin_principal_eigenvalue(
        mesh, BoundaryFunction(mesh, cases["perturbed"]),
        v0=res.u_mu.values.copy())
    assert out.residual_norm <= 1e-8
    assert len(lus) == 1


def test_converged_eigen_check_builds_no_band_scatter():
    # optimize's eigen check starts from u_mu and takes 0 steps, so the
    # full-node band scatter is never built; the interior one is the
    # model's
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    res = optimize(mesh, -8.0)
    assert res.independent_lambda == pytest.approx(res.s_mu, abs=1e-9)
    attrs = vars(assemble(mesh))
    assert "scatter" not in attrs
    assert "interior_scatter" in attrs


@pytest.mark.parametrize("mu", [-8.0, 0.0, 4.0])
def test_robin_eigen_converged_warm_start_needs_no_factorization(
        monkeypatch, disk_mesh_coarse, mu):
    # u_mu = s U_s + 1 is the ground state for sigma_mu at s_mu, to rounding
    mesh = disk_mesh_coarse
    res = optimize(mesh, mu)
    M = assemble(mesh).M
    lus = []
    original = fem._factorize

    def counting_factorize(*args, **kwargs):
        lus.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    out = robin_principal_eigenvalue(mesh, res.sigma_mu,
                                     v0=res.u_mu.values)
    v = out.eigenfunction.values
    assert len(lus) == 0
    assert out.iterations == 0
    assert abs(out.eigenvalue - res.s_mu) <= 1e-12 * (1.0 + abs(res.s_mu))
    assert out.residual_norm <= 1e-8
    assert v @ (M @ v) == pytest.approx(1.0, abs=1e-12)
    assert v.min() > 0.0
    # a cold start at sigma = 0 begins on the eigenvector 1: K 1 = 0
    cold = robin_principal_eigenvalue(mesh,
                                      BoundaryFunction.constant(mesh, 0.0))
    assert len(lus) == 0 and cold.iterations == 0
    assert abs(cold.eigenvalue) <= 1e-12


def test_robin_eigen_converged_higher_mode_is_rejected(disk_mesh_coarse,
                                                       eigen_cases):
    # a start that is already an eigenvector, but of the second mode, passes
    # the residual test at once; its sign change must make the solve start
    # cold
    mesh = disk_mesh_coarse
    _, cases = eigen_cases
    asm = assemble(mesh)
    K, M = asm.K.toarray(), asm.M.toarray()
    for name in ("constant negative", "perturbed"):
        sigma = BoundaryFunction(mesh, cases[name])
        A = K + np.diag(asm.boundary_diagonal(sigma))
        vals, vecs = scipy.linalg.eigh(A, M, subset_by_index=[0, 1])
        out = robin_principal_eigenvalue(mesh, sigma, v0=vecs[:, 1])
        assert abs(out.eigenvalue - vals[0]) <= 1e-9 * abs(vals[0]), name
        v = out.eigenfunction.values
        assert v.min() >= -1e-6 * v.max(), name


@pytest.mark.parametrize("domain", [Domain.rectangle(1.0, 1.0),
                                    Domain.rectangle(1.0, 2.0),
                                    Domain.lshape()],
                         ids=["square", "rect 1x2", "lshape"])
def test_robin_eigen_cold_start_finds_corner_ground_state(domain):
    # right-angle corners bind states near -2 sigma^2, below the cold
    # preconditioner shift -1.5 sigma^2 - 1; the ground state is still found
    mesh = generate_mesh(domain, 0.03, 0.12)
    asm = assemble(mesh)
    for value in (-2.0, -5.0, -10.0, -15.0, -20.0, -30.0):
        sigma = BoundaryFunction.constant(mesh, value)
        A = (asm.K + scipy.sparse.diags(asm.boundary_diagonal(sigma))).tocsc()
        ref = scipy.sparse.linalg.eigsh(
            A, k=2, M=asm.M.tocsc(), sigma=-4.0 * value**2 - 10.0,
            which="LM", tol=1e-14, v0=np.ones(len(mesh.nodes)),
            return_eigenvectors=False).min()
        out = robin_principal_eigenvalue(mesh, sigma)
        assert abs(out.eigenvalue - ref) <= 1e-10 * abs(ref), value
        assert out.residual_norm <= 1e-8, value


def _dense_ground(mesh, sigma):
    asm = assemble(mesh)
    A = asm.K.toarray() + np.diag(asm.boundary_diagonal(sigma))
    vals, vecs = scipy.linalg.eigh(A, asm.M.toarray(), subset_by_index=[0, 0])
    return vals[0], vecs[:, 0]


def test_robin_eigen_sign_changing_ground_state_is_returned():
    # all of -100 on the 3 boundary nodes within 2^-3 of (1, 0): the
    # discrete ground state changes sign, and is returned as it is
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    sigma = BoundaryFunction(mesh, _blowup_sigma(mesh, -100.0, 3))
    asm = assemble(mesh)
    ref, u = _dense_ground(mesh, sigma)
    u = u if u @ asm.mass_times_one > 0 else -u
    assert u.min() < -0.3 * u.max()
    for v0 in (None, np.ones(len(mesh.nodes))):
        out = robin_principal_eigenvalue(mesh, sigma, v0=v0)
        v = out.eigenfunction.values
        assert abs(out.eigenvalue - ref) <= 1e-10 * abs(ref)
        assert out.residual_norm <= 1e-8
        assert v @ asm.mass_times_one > 0
        assert np.abs(v - u).max() <= 1e-6 * np.abs(u).max()


def test_robin_eigen_cold_start_on_strong_perturbations():
    # zero-mean perturbations of 0.5 to 2 max|sigma_mu| around sigma_mu put
    # the cold shift far below lambda_1; the solve still ends in few steps
    mesh = verify.mesh_for(Domain.rectangle(1.0, 1.0), -20.0, 0.05)
    res = optimize(mesh, -20.0)
    scale = np.abs(res.sigma_mu.values).max()
    etas = (eta for _, eta in verify.zero_mean_perturbations(mesh, 4, 5))
    for amp, eta in zip((0.5, 1.0, 1.5, 2.0), etas):
        sigma = BoundaryFunction(mesh, res.sigma_mu.values
                                 + amp * scale * eta)
        ref = _dense_ground(mesh, sigma)[0]
        out = robin_principal_eigenvalue(mesh, sigma)
        assert abs(out.eigenvalue - ref) <= 1e-10 * abs(ref), amp
        assert out.residual_norm <= 1e-8, amp
        assert out.iterations <= 100, amp


@pytest.mark.parametrize("domain", [Domain.disk(1.0), Domain.lshape(),
                                    Domain.rectangle(1.0, 1.0)],
                         ids=["disk", "lshape", "square"])
def test_symmetric_factorization_matches_default_splu(domain):
    # the symmetric ordering changes rounding only
    mesh = generate_mesh(domain, 0.05)
    asm = assemble(mesh)
    rhs = asm.mass_times_one[asm.interior]
    for s in (0.0, -1.0, -37.5, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerWarning)
            u = solve_resolvent(mesh, s).values[asm.interior]
        ref = fem.splu((asm.K_II - s * asm.M_II).tocsc()).solve(rhs)
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_spd_refuses_unchecked_cg_answer(disk_mesh_mid):
    # this close to E1 the direct solve misses the residual gate at its
    # rounding floor, and conjugate gradients only reach about 1e-8
    asm = assemble(disk_mesh_mid)
    s = estimate_dirichlet_e1(disk_mesh_mid) * (1 - 1e-6)
    rhs = asm.mass_times_one[asm.interior]
    with pytest.raises(SolverError, match="residual gate") as err:
        fem._solve_spd(asm.interior_scatter, -s, rhs)
    assert err.value.residual > 1e-10 * (1 + np.linalg.norm(rhs))


def _superlu(A):
    return fem.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options={"SymmetricMode": True})


def _bandwidth(A, order):
    rank = np.argsort(order)
    A = A.tocoo()
    return int(np.abs(rank[A.row] - rank[A.col]).max())


def _coo_band(A, order):
    """LAPACK lower band storage of A in ``order``, through A's COO entries.

    The band the scatter must reproduce bit for bit: A is the sparse sum
    the factorized system stood for, built as scipy builds it.
    """
    A = A.tocoo()
    n = A.shape[0]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rows, cols = rank[A.row], rank[A.col]
    lower = rows >= cols
    cols = cols[lower]
    diagonal = rows[lower] - cols
    return scipy.sparse.coo_matrix(
        (A.data[lower], (diagonal, cols)),
        shape=(int(diagonal.max(initial=0)) + 1, n)).toarray(order="F")


def _systems(mesh, sigma):
    """Each kind of system the program factorizes on ``mesh``.

    (scatter, k, m, d, A): ``_factorize``'s arguments and the sparse sum
    of the same terms: a Robin eigen shift below lambda_1 on all nodes; on
    the interior the model's poles 0 and -s_cap, a direct solve at 0.9 E1,
    and a BDF2 and an implicit-Euler heat rung.
    """
    asm = assemble(mesh)
    d = asm.boundary_diagonal(sigma)
    shift = robin_principal_eigenvalue(mesh, sigma).eigenvalue - 1.0
    systems = [(asm.scatter, 1.0, -shift, d,
                asm.K + scipy.sparse.diags(d) - shift * asm.M)]
    K, M, inner = asm.K_II, asm.M_II, asm.interior_scatter
    for s in (0.0, -fem._s_cap(mesh), 0.9 * estimate_dirichlet_e1(mesh)):
        systems.append((inner, 1.0, -s, None, K - s * M))
    for c in (1.5, 1.0):
        systems.append((inner, 1e-3, c, None, c * M + 1e-3 * K))
    return systems


@pytest.mark.parametrize("name",
                         ["disk", "annulus", "rect", "ngon", "lshape"])
def test_band_cholesky_matches_superlu(catalogue, name):
    # each kind of system the program factorizes, in its own order: a Robin
    # eigen shift below lambda_1 on all nodes; resolvent shifts (the model's
    # poles 0 and -s_cap, a direct solve near E1) and a heat rung inside
    mesh = generate_mesh(catalogue[name], 0.05)
    asm = assemble(mesh)
    m1 = asm.mass_times_one[asm.interior]
    systems = _systems(mesh, BoundaryFunction.constant(mesh, -2.0))
    systems.append((asm.interior_scatter, 1.0, 37.5, None,
                    asm.K_II + 37.5 * asm.M_II))
    for scatter, k, m, d, A in systems:
        b = asm.mass_times_one if d is not None else m1
        lu = fem._factorize(scatter, k, m, d)
        assert isinstance(lu, fem._BandCholesky)
        x, ref = lu.solve(b), _superlu(A).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)
    # the interior order is the full one restricted: no wider a band
    assert sorted(asm.order) == list(range(len(mesh.nodes)))
    assert sorted(asm.interior_order) == list(range(len(asm.interior)))
    assert asm.interior_scatter.width <= asm.scatter.width
    assert asm.scatter.width == _bandwidth(asm.M, asm.order)


@pytest.mark.parametrize("name",
                         ["disk", "annulus", "rect", "ngon", "lshape"])
def test_band_scatter_matches_coo_band(monkeypatch, catalogue, name):
    # the band handed to dpbtrf is, bit for bit, the one the sparse sum's
    # COO entries give, for each kind of system
    mesh = generate_mesh(catalogue[name], 0.05)
    systems = _systems(mesh, BoundaryFunction.constant(mesh, -2.0))
    bands = []
    dpbtrf = fem.dpbtrf

    def recording_dpbtrf(band, **kwargs):
        bands.append(band.copy(order="F"))
        return dpbtrf(band, **kwargs)

    monkeypatch.setattr(fem, "dpbtrf", recording_dpbtrf)
    for scatter, k, m, d, A in systems:
        fem._factorize(scatter, k, m, d)
        expected = _coo_band(A, scatter.order)
        assert bands[-1].shape == expected.shape
        assert bands[-1].tobytes() == expected.tobytes()
    assert len(bands) == len(systems)


@pytest.mark.parametrize("budget", [fem._BAND_BUDGET, 0],
                         ids=["band", "superlu"])
def test_factorize_refuses_above_least_eigenvalue(monkeypatch, budget):
    # K + B - shift M is indefinite for a shift above lambda_1: both
    # backends refuse it, and both factor it below lambda_1
    monkeypatch.setattr(fem, "_BAND_BUDGET", budget)
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    asm = assemble(mesh)
    sigma = BoundaryFunction.constant(mesh, -2.0)
    lam = _dense_ground(mesh, sigma)[0]
    d = asm.boundary_diagonal(sigma)
    assert (asm.scatter.pos is None) == (budget == 0)
    with pytest.raises(SolverError, match="not positive definite"):
        fem._factorize(asm.scatter, 1.0, -(lam + 0.01), d)
    lu = fem._factorize(asm.scatter, 1.0, -(lam - 1.0), d)
    A = asm.K + scipy.sparse.diags(d) - (lam - 1.0) * asm.M
    b = asm.mass_times_one
    assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


def _count_splu(monkeypatch):
    """SuperLU factorizations, one entry per ``fem.splu`` call."""
    calls = []
    splu = fem.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fem, "splu", counting_splu)
    return calls


def _eigen_starts(mesh):
    """The constants (cold) and three random positive starts."""
    rng = np.random.default_rng(7)
    return [None] + [rng.random(len(mesh.nodes)) ** p for p in (3, 6, 9)]


def _eigsh_ground(mesh, sigma):
    """Least eigenvalue by shift-invert ``eigsh`` from below the spectrum."""
    asm = assemble(mesh)
    d = asm.boundary_diagonal(sigma)
    below = 4.0 * min(0.0, float((d / asm.mass_times_one).min())) - 1.0
    A = (asm.K + scipy.sparse.diags(d)).tocsc()
    return scipy.sparse.linalg.eigsh(A, 1, asm.M.tocsc(), sigma=below,
                                     which="LM")[0][0]


@pytest.mark.parametrize("spec", ["rect:1,1", "lshape", "disk:1"])
def test_robin_eigen_refused_shifts_find_ground_state(monkeypatch, spec):
    # cold shifts above lambda_1 (right-angle corners put it near -2
    # sigma^2) and random starts far from the ground state: each refused
    # band Cholesky lowers the shift, SuperLU never runs, and a certified
    # shift is never reset
    mesh = generate_mesh(geometry.parse_domain(spec), 0.06,
                         boundary_layer_width=0.2)
    lus, _ = _count_lus(monkeypatch)
    splus = _count_splu(monkeypatch)
    for value in (-5.0, -20.0, -40.0):
        sigma = BoundaryFunction.constant(mesh, value)
        ref = _eigsh_ground(mesh, sigma)
        for v0 in _eigen_starts(mesh):
            lus.clear()
            out = robin_principal_eigenvalue(mesh, sigma, v0=v0)
            label = (value, v0 is None)
            assert abs(out.eigenvalue - ref) <= 1e-10 * abs(ref), label
            assert out.residual_norm <= 1e-8, label
            assert 1 <= len(lus) <= 8, label
    assert not splus


def test_robin_eigen_sign_changing_ground_state_takes_no_restart(
        monkeypatch):
    # the discrete ground state here changes sign by min/max -2e-4; a cold
    # solve refuses one shift and converges from the next
    mesh = verify.mesh_for(Domain.disk(1.0), -80.0 * math.pi, 0.05)
    lus, _ = _count_lus(monkeypatch)
    splus = _count_splu(monkeypatch)
    out = robin_principal_eigenvalue(mesh,
                                     BoundaryFunction.constant(mesh, -40.0))
    assert len(lus) == 2 and not splus
    assert out.eigenvalue == pytest.approx(-1601.1669681121234, rel=1e-10)
    assert out.residual_norm <= 1e-8


@pytest.mark.parametrize("spec", ["rect:1,1", "lshape"])
def test_robin_eigen_superlu_certifies_shifts(monkeypatch, spec):
    # past the band budget SuperLU factors only positive definite systems
    # too, so its refusals lower the shift just as the band's do
    monkeypatch.setattr(fem, "_BAND_BUDGET", 0)
    mesh = generate_mesh(geometry.parse_domain(spec), 0.06,
                         boundary_layer_width=0.2)
    sigma = BoundaryFunction.constant(mesh, -20.0)
    ref = _eigsh_ground(mesh, sigma)
    lus, _ = _count_lus(monkeypatch)
    splus = _count_splu(monkeypatch)
    for v0 in _eigen_starts(mesh):
        lus.clear()
        splus.clear()
        out = robin_principal_eigenvalue(mesh, sigma, v0=v0)
        assert abs(out.eigenvalue - ref) <= 1e-10 * abs(ref), v0 is None
        assert 1 <= len(lus) == len(splus) <= 8, v0 is None


def test_factorize_takes_superlu_past_band_budget(monkeypatch,
                                                  disk_mesh_coarse):
    # the budget is tested once, when a scatter is built
    asm = assemble(disk_mesh_coarse)
    b = asm.mass_times_one[asm.interior]
    band = fem._factorize(asm.interior_scatter, 1.0, -2.0)
    assert isinstance(band, fem._BandCholesky)
    width = asm.interior_scatter.width
    monkeypatch.setattr(fem, "_BAND_BUDGET", width * len(b))
    scatter = fem._BandScatter(asm.K_II, asm.M_II, asm.interior_order)
    assert scatter.pos is None
    lu = fem._factorize(scatter, 1.0, -2.0)
    assert not isinstance(lu, fem._BandCholesky)
    x = lu.solve(b)
    assert np.linalg.norm(x - band.solve(b)) <= 1e-12 * np.linalg.norm(x)


def test_factor_path_builds_no_sparse_matrix(monkeypatch):
    # after assembly every band is written through the mesh's scatters:
    # the resolvent model, a warm eigen solve and the Laplace check's heat
    # ladder make their usual factorizations with scipy.sparse out of reach
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    assemble(mesh)

    class NoSparse:
        def __getattr__(self, name):
            raise AssertionError(f"scipy.sparse.{name} used after assembly")

    monkeypatch.setattr(fem, "sparse", NoSparse())
    lus, _ = _count_lus(monkeypatch)
    res = optimize(mesh, -8.0)
    assert len(lus) == 1  # the model's pole 0
    sigma = res.sigma_mu.values
    eta = np.cos(3.0 * np.arange(len(sigma)))
    out = robin_principal_eigenvalue(
        mesh, BoundaryFunction(mesh, sigma + 0.5 * eta), v0=res.u_mu.values)
    assert out.residual_norm <= 1e-8 and out.eigenvalue < res.s_mu
    assert len(lus) == 2
    check = laplace_transform_check(mesh, -1.0)
    assert check["rhs"] == pytest.approx(check["lhs"], rel=1e-3)
    assert len(lus) == 8


def test_tracer_names_stay_bound():
    # the benchmark tracer patches and counts these names on fem
    assert fem.splu is scipy.sparse.linalg.splu
    assert fem.cg is scipy.sparse.linalg.cg
    assert fem.eigsh is scipy.sparse.linalg.eigsh


def test_dirichlet_ground_energy(disk_mesh_mid, square_mesh_mid):
    assert estimate_dirichlet_e1(disk_mesh_mid) == pytest.approx(
        J01_SQ, rel=5e-3
    )
    assert estimate_dirichlet_e1(square_mesh_mid) == pytest.approx(
        2 * math.pi**2, rel=1e-2
    )
    # the half-percent figure holds at h = 0.02
    fine = generate_mesh(Domain.rectangle(1.0, 1.0), 0.02)
    assert estimate_dirichlet_e1(fine) == pytest.approx(
        2 * math.pi**2, rel=5e-3
    )


def test_dirichlet_ground_energy_upper_bound():
    # conforming elements approach from above
    vals = []
    for h in (0.1, 0.05):
        mesh = generate_mesh(Domain.disk(1.0), h)
        vals.append(estimate_dirichlet_e1(mesh))
    assert vals[1] <= vals[0]
    assert vals[1] >= J01_SQ - 1e-9


def test_heat_content_monotone_bounded(square_mesh_mid):
    times = np.geomspace(1e-3, 0.5, 12)
    curve = heat_content(square_mesh_mid, times)
    assert np.all(np.diff(curve.values) < 0)
    assert curve.values.max() < square_mesh_mid.area()
    assert curve.values.min() > 0


def test_heat_content_validates_times(square_mesh_mid):
    with pytest.raises(GeometryError):
        heat_content(square_mesh_mid, [0.0, 0.1])
    with pytest.raises(GeometryError):
        heat_content(square_mesh_mid, [0.2, 0.1])
    with pytest.raises(GeometryError):
        heat_content(square_mesh_mid, [1e3])
    with pytest.raises(GeometryError):
        heat_content(square_mesh_mid, [0.01, math.nan])


def _count_lus(monkeypatch):
    """Factorizations and triangular solves made by ``fem._factorize``."""
    lus, solves = [], []
    original = fem._factorize

    class CountingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            solves.append(1)
            return self._lu.solve(rhs)

    def counting_factorize(scatter, *args, **kwargs):
        lus.append(scatter.n)
        return CountingLU(original(scatter, *args, **kwargs))

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    return lus, solves


def test_heat_content_takes_a_subnormal_time(monkeypatch):
    # below the model's reach the ladder up to 0.04 serves both times and
    # starts at 1e-12 of 0.04: twelve decades, not 323
    lus, _ = _count_lus(monkeypatch)
    mesh = generate_mesh(Domain.disk(1.0), 0.2)
    curve = heat_content(mesh, [5e-324, 0.04])
    assert curve.values[0] == pytest.approx(mesh.area(), rel=1e-12)
    assert 0 < curve.values[1] < curve.values[0]
    assert curve.scheme == "bdf2 dyadic m=1200"
    assert 0 < len(lus) <= math.ceil(math.log2(2 * 1200)) + 2
    assert "model" not in vars(assemble(mesh))
    # at 0.5 the model serves, and the ladder serves the subnormal time
    # alone: it gives the semi-discrete Q(0+) = m' M^-1 m, where the
    # twelve-decade ladder up to 0.5 read Q(0) = |Omega| off its first step
    asm = assemble(mesh)
    m = asm.mass_times_one[asm.interior]
    start = m @ scipy.sparse.linalg.spsolve(asm.M_II, m)
    curve = heat_content(mesh, [5e-324, 0.5])
    assert curve.scheme == "bdf2 dyadic m=100 + krylov ritz k=16"
    assert curve.values[0] == pytest.approx(start, rel=1e-12)
    assert curve.values[1] == pytest.approx(
        fem.resolvent_model(mesh).heat([0.5])[0][0], rel=1e-14)


def test_heat_content_builds_no_model_below_its_reach(monkeypatch):
    # t pi j01^2 / |Omega| = 0.0058 at t = 1e-3 on the unit disk, far below
    # where the model's gate ever passed: the ladder serves alone
    lus, _ = _count_lus(monkeypatch)
    mesh = generate_mesh(Domain.disk(1.0), 0.2)
    curve = heat_content(mesh, [1e-3, 4e-3])
    assert curve.scheme == "bdf2 dyadic m=100"
    assert 0 < len(lus) <= math.ceil(math.log2(2 * 100)) + 2
    assert "model" not in vars(assemble(mesh))


def test_heat_content_joins_ladder_and_model_at_a_decreasing_seam():
    # on the two-pole mesh graded for mu = -400 the gate fails at t = 0.1
    # but passes at t = 7: the ladder serves up to the last failing time,
    # the model the trailing one, and two times 1e-7 apart in relative
    # terms keep Q strictly decreasing
    mesh = verify.mesh_for(Domain.disk(1.0), -400.0, 0.05)
    times = [0.1, 0.1 * (1 + 1e-7), 7.0]
    model = fem.resolvent_model(mesh)
    full, nested = model.heat([0.0] + times)
    lost = full[0] - full[1:]
    trusted = np.abs(full[1:] - nested[1:]) <= fem._HEAT_MODEL_GATE * lost
    assert trusted.tolist() == [False, False, True]
    curve = heat_content(mesh, times)
    assert curve.scheme == "bdf2 dyadic m=100 + krylov ritz k=16"
    head = fem._heat_curve(mesh, times[1], t_small=times[0])
    assert curve.values[1] == head.values[-1]
    assert curve.values[2] == full[3]
    assert np.all(np.diff(curve.values) < 0)


def test_heat_content_mixed_request_against_dense_eigh():
    # a least time below the model's reach no longer hands the late times
    # to the ladder, whose ground mode decays too fast: at T/2 and T it
    # gave 0.897 and 0.572 of the time-exact Q
    mesh = generate_mesh(Domain.disk(1.0), 0.2)
    horizon = fem._mesh_diameter(mesh) ** 2
    times = np.array([1e-3 * horizon, horizon / 2, horizon])
    curve = heat_content(mesh, times)
    assert curve.scheme == "bdf2 dyadic m=100 + krylov ritz k=16"
    exact = _semi_discrete_heat(mesh)(times)
    assert curve.values[0] == pytest.approx(exact[0], rel=1e-4)
    assert curve.values[1:] == pytest.approx(exact[1:], rel=1e-6)
    # a request the model serves in full is its sum, bit for bit
    late = heat_content(mesh, times[1:])
    assert late.scheme == "krylov ritz k=16"
    model = fem.resolvent_model(mesh)
    assert np.array_equal(late.values,
                          model.heat(np.append(0.0, times[1:]))[0][1:])
    assert late.values == pytest.approx(curve.values[1:], rel=1e-14)


def test_heat_content_keeps_the_ladder_when_the_seam_rises(monkeypatch):
    # a model value above the ladder's at the seam would break the
    # decrease: every time then comes from the ladder, as before the join
    mesh = generate_mesh(Domain.disk(1.0), 0.2)
    horizon = fem._mesh_diameter(mesh) ** 2
    times = [1e-3 * horizon, horizon / 2, horizon]

    def lifted(model, ts):
        # decreasing, far above |Omega|, and the nested sum agrees at T/2
        # and T but not at 1e-3 T, so the model is trusted past the seam
        full = 2e3 - np.asarray(ts)
        return full, full + (full > 2e3 - 1.0)

    monkeypatch.setattr(fem.ResolventModel, "heat", lifted)
    curve = heat_content(mesh, times)
    assert curve.scheme == "bdf2 dyadic m=300"
    assert np.all(np.diff(curve.values) < 0)


@pytest.mark.parametrize("s", [math.nan, -math.inf, math.inf, -10**400,
                               "x", None])
def test_laplace_transform_rejects_bad_shift_before_factorizing(
        monkeypatch, s):
    mesh = generate_mesh(Domain.disk(1.0), 0.2)

    def no_factorize(*args, **kwargs):
        raise AssertionError("factorized before rejecting the shift")

    monkeypatch.setattr(fem, "_factorize", no_factorize)
    with pytest.raises(GeometryError):
        laplace_transform_check(mesh, s)


def test_laplace_transform_identity_smoke(square_mesh_mid):
    out = laplace_transform_check(square_mesh_mid, -1.0)
    assert out["rhs"] == pytest.approx(out["lhs"], rel=0.02)
    with pytest.raises(GeometryError):
        laplace_transform_check(square_mesh_mid, 0.5)


def test_laplace_transform_limits(square_mesh_mid):
    # s -> 0-: both sides approach the torsion integral
    out = laplace_transform_check(square_mesh_mid, -1e-3)
    torsion = solve_resolvent(square_mesh_mid, 0.0).integral()
    assert out["lhs"] == pytest.approx(torsion, rel=1e-2)
    assert out["rhs"] == pytest.approx(torsion, rel=2e-2)
    # strongly negative s: leading order area/|s| with a boundary
    # correction of relative size |dO| / (|O| sqrt(|s|))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerWarning)
        lhs = solve_resolvent(square_mesh_mid, -400.0).integral()
    area = square_mesh_mid.area()
    assert lhs * 400.0 / area == pytest.approx(1.0, abs=0.25)
    assert abs(lhs * 400.0 / area - 1.0) <= 1.5 * 4.0 / (area * 20.0)


@pytest.mark.parametrize("horizon,steps,t_small", [
    (0.1, 400, 0.01),
    (4.0, 400, 4e-3),
    (0.3, 50, None),
])
def test_heat_curve_dyadic_ladder(monkeypatch, horizon, steps, t_small):
    lus = []
    original = fem._factorize

    def counting_factorize(scatter, *args, **kwargs):
        lus.append(scatter.n)
        return original(scatter, *args, **kwargs)

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    curve = fem._heat_curve(mesh, horizon, steps, t_small=t_small)
    decades = math.ceil(math.log10(horizon / t_small)) if t_small else 1
    m = steps * decades
    assert 0 < len(lus) <= math.ceil(math.log2(2 * m)) + 2
    assert curve.times[0] == 0.0
    assert curve.times[-1] == horizon
    assert curve.scheme == f"bdf2 dyadic m={m}"
    # every step but the last is a power-of-two multiple of dt0, growing
    ticks = np.rint(np.diff(curve.times) / (horizon / m**2)).astype(int)
    assert np.all(ticks[:-1] & (ticks[:-1] - 1) == 0)
    assert np.all(np.diff(ticks[:-1]) >= 0)
    # one factorization per system: the start-up Euler step, each BDF2
    # rung, and the Euler step that cuts the last rung short. The cut step
    # may share its size with a rung (256 at m = 400) or with the start-up
    # step (4 at m = 50), so sizes alone do not count the systems
    assert ticks[0] == 4
    cut = bool(ticks[-1] < ticks[-2])
    systems = 1 + len(set(ticks[1:len(ticks) - cut])) + cut
    assert len(lus) == systems
    # the curve is memoized: a second call factorizes nothing
    assert fem._heat_curve(mesh, horizon, steps, t_small=t_small) is curve
    assert len(lus) == systems


def test_heat_curve_keeps_bdf2_steps_below_half_over_e1():
    # one decade up to the horizon: the dyadic ladder alone would reach
    # dt E1 = 0.6, where the ground mode's BDF2 roots are complex and Q(t)
    # oscillates in sign; the step stops growing at dt E1 <= 1/2 instead
    mesh = generate_mesh(Domain.disk(1.0), 0.2)
    horizon = fem._mesh_diameter(mesh) ** 2
    curve = fem._heat_curve(mesh, horizon, 100, t_small=horizon / 2)
    assert curve.times[-1] == horizon
    assert np.all(np.diff(curve.values) < 0) and curve.values.min() > 0
    # held back at the last rung below dt E1 = 1/2, and no further
    dt_e1 = np.diff(curve.times).max() * fem.resolvent_model(mesh).e1
    assert 0.25 < dt_e1 <= 0.5


@pytest.fixture(scope="module")
def heat_disk():
    """Disk at h = 0.048 and its time-exact semi-discrete heat content.

    With K phi_i = lambda_i M phi_i on the interior nodes (dense, M-normal)
    and M v(0) the mass vector m of the constant one, the semi-discrete
    heat content is Q(t) = sum_i (phi_i' m)^2 exp(-lambda_i t), free of any
    time-step error.
    """
    mesh = generate_mesh(Domain.disk(1.0), 0.048)
    return mesh, _semi_discrete_heat(mesh)


def _semi_discrete_heat(mesh):
    """Q(t) = sum_i (phi_i' m)^2 exp(-lambda_i t) by dense ``eigh``."""
    asm = assemble(mesh)
    lam, phi = scipy.linalg.eigh(asm.K_II.toarray(), asm.M_II.toarray())
    weights = (phi.T @ asm.mass_times_one[asm.interior]) ** 2

    def exact(times):
        return np.exp(-np.outer(times, lam)) @ weights

    return exact


def _window(count):
    """The heat suite's fit window [25 h^2, 100 h^2] at h = 0.048."""
    return np.geomspace(25 * 0.048**2, 100 * 0.048**2, count)


def test_heat_content_matches_semi_discrete_reference(heat_disk):
    mesh, exact = heat_disk
    times = _window(6)
    curve = heat_content(mesh, times)
    assert np.abs(curve.values - exact(times)).max() <= 2e-4


@pytest.mark.parametrize("domain", [
    Domain.disk(1.0), Domain.lshape(1.0, 1.0), Domain.annulus(1.0, 0.5),
], ids=["disk", "lshape", "annulus"])
def test_heat_content_window_error_against_dense_eigh(domain):
    # over [25 h^2, 100 h^2] the model's Q~ is within 1e-8 of the lost heat
    # Q(0) - Q(t) of the time-exact semi-discrete Q
    mesh = generate_mesh(domain, 0.048)
    exact = _semi_discrete_heat(mesh)
    times = _window(20)
    curve = heat_content(mesh, times)
    lost = exact([0.0])[0] - exact(times)
    assert np.all(np.abs(curve.values - exact(times)) <= 1e-8 * lost)


def test_heat_content_late_times_against_dense_eigh():
    # at T/2 and T = diam^2 the heat left is about e^{-23} and e^{-46} of
    # the area; the BDF2 ladder gave 0.44 and 0.17 of these values
    mesh = generate_mesh(Domain.disk(1.0), 0.2)
    horizon = fem._mesh_diameter(mesh) ** 2
    times = np.array([horizon / 2, horizon])
    curve = heat_content(mesh, times)
    assert curve.values == pytest.approx(_semi_discrete_heat(mesh)(times),
                                         rel=1e-6)


def test_heat_content_is_second_order_in_time(heat_disk):
    # doubling the steps per decade cuts the time error about fourfold
    mesh, exact = heat_disk
    times = _window(20)
    errors = []
    for m in (50, 100):
        curve = fem._heat_curve(mesh, times[-1], m, t_small=times[0])
        values = np.interp(times, curve.times, curve.values)
        errors.append(np.abs(values - exact(times)).max())
    assert errors[0] >= 3.0 * errors[1]


def test_laplace_transform_identity_tight(heat_disk):
    mesh, _ = heat_disk
    for s in (-0.5, -1.0, -2.0):
        out = laplace_transform_check(mesh, s)
        assert abs(out["rhs"] / out["lhs"] - 1.0) <= 1e-3


def test_heat_budget_on_a_fresh_disk(monkeypatch):
    # heat content over the fit window, then the Laplace check at three
    # shifts: one LU for the resolvent model, which serves the window, and
    # six for the Laplace ladder, which the model stops at 1.9 / E1
    # (start-up Euler, rungs 4 to 64), shared by the three shifts
    lus, solves = _count_lus(monkeypatch)
    mesh = generate_mesh(Domain.disk(1.0), 0.048)
    fem.resolvent_model(mesh)
    assert len(lus) == 1
    model_solves = len(solves)
    curve = heat_content(mesh, _window(20))
    # the model serves the whole window, with no LU or solve of its own
    assert curve.scheme == "krylov ritz k=16"
    assert (len(lus), len(solves)) == (1, model_solves)
    for s in (-0.5, -1.0, -2.0):
        laplace_transform_check(mesh, s)
    assert len(lus) == 7
    # one triangular solve per step of the Laplace ladder
    assert len(solves) - model_solves == 88


def _stop_at_12_over_e1(curve, e1):
    """Prefix of ``curve`` up to its first tick at or past 12 / E1."""
    n = int(np.searchsorted(curve.times, fem._HEAT_TAIL_STOP / e1)) + 1
    return curve.times[:n], curve.values[:n]


def _closed_transform(times, values, e1, s):
    """Trapezoid integral of e^{st} Q(t) plus the ground-mode closure."""
    weights = np.exp(s * times) * values
    return np.trapezoid(weights, times) + weights[-1] / (e1 - s)


@pytest.mark.parametrize("domain", [
    Domain.disk(1.0), Domain.lshape(1.0, 1.0), Domain.annulus(1.0, 0.5),
    Domain.rectangle(1.0, 1.0),
], ids=["disk", "lshape", "annulus", "square"])
def test_laplace_check_stop_matches_full_horizon(domain):
    mesh = generate_mesh(domain, 0.048)
    horizon = fem._mesh_diameter(mesh) ** 2
    e1 = fem.resolvent_model(mesh).e1
    full = fem._heat_curve(mesh, horizon, 100, t_small=1e-3 * horizon)
    stopped = fem._heat_curve(mesh, horizon, 100, t_small=1e-3 * horizon,
                              tail_stop=fem._HEAT_TAIL_STOP)
    # the stopped curve is the full one's prefix, bit for bit, and ends no
    # later than the first tick at or past 12 / E1
    n = len(stopped.times)
    assert np.array_equal(stopped.times, full.times[:n])
    assert np.array_equal(stopped.values, full.values[:n])
    old_times, old_values = _stop_at_12_over_e1(full, e1)
    assert stopped.times[-1] < old_times[-1]
    # it ends where asking the model at every tick would end it
    model = fem.resolvent_model(mesh)
    floor = math.exp(-fem._HEAT_TAIL_STOP) * full.values[0]
    assert n == 1 + next(i for i, t in enumerate(full.times)
                         if model.excited_heat(t) <= floor)
    # dense eigh: the heat outside the ground mode at the stop is within
    # the bound the closure assumes
    asm = assemble(mesh)
    lam, phi = scipy.linalg.eigh(asm.K_II.toarray(), asm.M_II.toarray())
    w = (phi.T @ asm.mass_times_one[asm.interior]) ** 2
    area = asm.mass_times_one.sum()
    excited = w[1:] @ np.exp(-lam[1:] * stopped.times[-1])
    assert excited <= math.exp(-fem._HEAT_TAIL_STOP) * area
    # against the exact transform sum_i w_i / (lambda_i - s) the right side
    # is no further off than under the 12 / E1 rule, and within 5e-4
    for s in (-0.5, -1.0, -2.0):
        exact = w @ (1.0 / (lam - s))
        out = laplace_transform_check(mesh, s)
        old = _closed_transform(old_times, old_values, e1, s)
        assert abs(out["rhs"] - exact) <= abs(old - exact)
        assert abs(out["rhs"] - exact) <= 5e-4 * exact
        assert out["t_stop"] == stopped.times[-1]
        assert out["tail_bound"] == pytest.approx(
            math.exp(-fem._HEAT_TAIL_STOP) * area / (e1 - s), rel=1e-12)


@pytest.mark.parametrize("domain", [Domain.disk(1.0), Domain.lshape(1.0, 1.0)],
                         ids=["disk", "lshape"])
def test_laplace_ladder_asks_the_model_once(monkeypatch, domain):
    # before the latest time a single excited term c_i^2 e^{-ritz_i t}
    # reaches the floor the model cannot show the stop, and it is not asked;
    # on the heat benchmark's meshes the first tick it is asked is the stop
    calls = []
    excited_heat = fem.ResolventModel.excited_heat

    def counting(self, t):
        calls.append(t)
        return excited_heat(self, t)

    monkeypatch.setattr(fem.ResolventModel, "excited_heat", counting)
    mesh = generate_mesh(domain, 0.048)
    outs = [laplace_transform_check(mesh, s) for s in (-0.5, -1.0, -2.0)]
    assert len(calls) == 1
    assert calls[0] == pytest.approx(outs[0]["t_stop"], rel=1e-14)


def test_laplace_check_stop_falls_back_to_12_over_e1_on_two_poles():
    # on the two-pole mesh graded for mu = -400 the nested estimate is too
    # cautious to vouch for the tail long before 12 / E1: the stop comes
    # two ticks before the old one, and the identity holds as tightly
    mesh = verify.mesh_for(Domain.disk(1.0), -400.0, 0.05)
    horizon = fem._mesh_diameter(mesh) ** 2
    e1 = fem.resolvent_model(mesh).e1
    full = fem._heat_curve(mesh, horizon, 100, t_small=1e-3 * horizon)
    old_times, _ = _stop_at_12_over_e1(full, e1)
    out = laplace_transform_check(mesh, -1.0)
    assert 11.5 <= out["t_stop"] * e1 and out["t_stop"] < old_times[-1]
    assert abs(out["rhs"] / out["lhs"] - 1.0) <= 1e-3


def test_dropped_mesh_is_freed_without_gc():
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    laplace_transform_check(mesh, -1.0)
    u = solve_resolvent(mesh, -2.0)
    ref = weakref.ref(mesh)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del mesh, u
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
