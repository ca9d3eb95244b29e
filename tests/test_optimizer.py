import math
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from robinopt import (
    Domain,
    ResolutionCapError,
    SpectralRangeError,
    assemble,
    disk_F,
    eval_F,
    eval_F_prime,
    generate_mesh,
    optimize,
    small_mu_coefficient,
    solve_s_of_mu,
)
from robinopt import fem, optimizer, verify
from robinopt.errors import BoundaryLayerWarning

# double Fourier series oracle for the unit-square torsion integral
S_SQUARE = 0.035144253311624234


def test_eval_F_zero(disk_mesh_mid):
    assert eval_F(disk_mesh_mid, 0.0) == 0.0


def test_eval_F_matches_disk_closed_form(disk_mesh_mid):
    for s in (-1.0, -4.0):
        assert eval_F(disk_mesh_mid, s) == pytest.approx(disk_F(1.0, s),
                                                         rel=2e-3)


def test_eval_F_prime_properties(disk_mesh_mid):
    area = disk_mesh_mid.area()
    assert eval_F_prime(disk_mesh_mid, 0.0) == pytest.approx(area)
    for s in (-0.5, -5.0, -50.0):
        fp = eval_F_prime(disk_mesh_mid, s)
        assert 0.0 < fp <= area + 1e-12


def test_eval_F_prime_finite_difference(disk_mesh_mid):
    s = -3.0
    d = 1e-4 * (1 + abs(s))
    fd = (eval_F(disk_mesh_mid, s + d) - eval_F(disk_mesh_mid, s - d)) / (2 * d)
    assert eval_F_prime(disk_mesh_mid, s) == pytest.approx(fd, rel=1e-4)


def test_root_solve_round_trip(disk_mesh_mid):
    for mu in (-100.0, -10.0, -1.0, 0.0, 0.5):
        tol = 1e-10 * (1 + abs(mu))
        s, _ = solve_s_of_mu(disk_mesh_mid, mu)
        assert abs(eval_F(disk_mesh_mid, s) - mu) <= tol


def test_root_solve_recovers_bessel_point(disk_mesh_mid):
    mu = eval_F(disk_mesh_mid, -1.0)
    s, _ = solve_s_of_mu(disk_mesh_mid, mu)
    assert s == pytest.approx(-1.0, abs=1e-9)


def test_root_solve_monotone(disk_mesh_coarse):
    mus = np.linspace(-20.0, 2.0, 10)
    svals = [solve_s_of_mu(disk_mesh_coarse, mu)[0] for mu in mus]
    assert all(a < b for a, b in zip(svals, svals[1:]))


def test_resolution_cap(disk_mesh_coarse):
    with pytest.raises(ResolutionCapError) as err:
        solve_s_of_mu(disk_mesh_coarse, -1e6)
    assert err.value.admissible_mu is not None
    assert err.value.admissible_mu < 0
    assert "admissible" in str(err.value)


def test_positive_mu_range_guard(disk_mesh_coarse):
    with pytest.raises(SpectralRangeError, match="smaller mu"):
        solve_s_of_mu(disk_mesh_coarse, 1e9)


def test_positive_mu_out_of_range_is_one_exact_probe(monkeypatch):
    # the model's one pole, 0, takes one factorization, and E1 comes with
    # the model; the model puts the root beyond the E1 floor, and one exact
    # F there, too close to E1 for the model's solution, confirms it
    mesh = generate_mesh(Domain.disk(1.0), 0.05, boundary_layer_width=0.045)
    calls = {"_factorize": 0, "cg": 0, "eval_F": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fem, "_factorize",
                        counting("_factorize", fem._factorize))
    monkeypatch.setattr(fem, "cg", counting("cg", fem.cg))
    monkeypatch.setattr(optimizer, "eval_F",
                        counting("eval_F", optimizer.eval_F))
    with pytest.raises(SpectralRangeError, match="smaller mu"):
        optimize(mesh, 1e9)
    assert calls == {"_factorize": 2, "cg": 0, "eval_F": 1}


def _counting_factorize(monkeypatch):
    calls = []
    factorize = fem._factorize

    def counting_factorize(*args, **kwargs):
        calls.append(1)
        return factorize(*args, **kwargs)

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    return calls


def _assert_roots(mesh, mus):
    for mu in mus:
        s, _ = solve_s_of_mu(mesh, mu)
        assert abs(eval_F(mesh, s) - mu) <= 1e-10 * (1 + abs(mu))


def test_model_pole_zero_alone_lu_budget(monkeypatch):
    # pole 0 alone serves the mesh graded for mu = -100: one model LU, and
    # a direct solve only where a root leaves the model's reach
    mesh = verify.mesh_for(Domain.disk(1.0), -100.0, 0.03)
    calls = _counting_factorize(monkeypatch)
    res = optimize(mesh, -100.0)
    assert res.sigma_integral_error <= res.tol
    _assert_roots(mesh, np.linspace(-100.0, 8.0, 8))
    assert len(calls) == 6


def test_model_adds_pole_s_cap_past_its_reach(monkeypatch):
    # the mesh graded for mu = -400 also takes the pole -s_cap: its LU saves
    # more direct solves near -s_cap than it costs (pole 0 alone: 16 LUs)
    mesh = verify.mesh_for(Domain.disk(1.0), -400.0, 0.03)
    assert fem._s_cap(mesh) * mesh.area() > fem._ONE_POLE_REACH
    calls = _counting_factorize(monkeypatch)
    _assert_roots(mesh, np.linspace(-400.0, 8.0, 8))
    assert len(calls) == 15


SWEEP_MUS = np.linspace(-20.0, 8.0, 8)


@pytest.fixture(scope="module")
def sweep_meshes():
    """The meshes of a sweep over SWEEP_MUS at h = 0.03."""
    domains = {"disk": Domain.disk(1.0), "rect": Domain.rectangle(1.0, 1.0),
               "ngon": Domain.regular_polygon(6, 1.0),
               "lshape": Domain.lshape(), "annulus": Domain.annulus(2.0, 1.0)}
    return {name: verify.mesh_for(dom, SWEEP_MUS.min(), 0.03)
            for name, dom in domains.items()}


def _direct_resolvent(mesh, s):
    """Nodal values of U_s by a direct factorization made here."""
    asm = assemble(mesh)
    u = np.zeros(len(mesh.nodes))
    lu = fem._factorize(asm.K_II - s * asm.M_II, asm.interior_order)
    u[asm.interior] = lu.solve(asm.mass_times_one[asm.interior])
    return u


@pytest.mark.parametrize("name",
                         ["disk", "rect", "ngon", "lshape", "annulus"])
def test_resolvent_model_matches_exact_F(sweep_meshes, name):
    mesh = sweep_meshes[name]
    s_cap = -fem._s_cap(mesh)
    model = fem.resolvent_model(mesh)
    assert fem.resolvent_model(mesh) is model
    asm = assemble(mesh)
    area = mesh.area()
    e1 = fem.estimate_dirichlet_e1(mesh)
    shifts = np.concatenate([np.linspace(s_cap, -0.5, 6),
                             e1 * np.array([0.1, 0.5, 0.9, 0.99, 1 - 1e-4])])
    for s in shifts:
        g, dg = model(s)
        u = _direct_resolvent(mesh, s)
        w = 1.0 + s * u
        F = s * s * (asm.mass_times_one @ u) + s * area
        F_prime = float(w @ (asm.M @ w))
        assert s * s * g + s * area == pytest.approx(F, rel=1e-8, abs=0)
        assert 2 * s * g + s * s * dg + area == pytest.approx(
            F_prime, rel=1e-6, abs=0)


def test_solve_resolvent_matches_direct_solve(sweep_meshes):
    # the model's Galerkin solution where its residual certifies it, a
    # direct solve elsewhere: beyond the resolution cap, and next to E1
    for name, mesh in sweep_meshes.items():
        s_cap = fem._s_cap(mesh)
        e1 = fem.estimate_dirichlet_e1(mesh)
        shifts = np.concatenate([
            np.linspace(-s_cap, 0.0, 9),
            e1 * np.array([0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-4]),
            [-4 * s_cap]])
        for s in shifts:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryLayerWarning)
                u = fem.solve_resolvent(mesh, s).values
            ref = _direct_resolvent(mesh, s)
            err = np.abs(u - ref).max() / np.abs(ref).max()
            assert err <= 1e-10, (name, s, err)


def test_sweep_roots_take_one_exact_solve(sweep_meshes):
    for name, mesh in sweep_meshes.items():
        for mu in SWEEP_MUS[SWEEP_MUS != 0.0]:
            s, iters = solve_s_of_mu(mesh, mu)
            assert iters == 1, (name, mu)
            assert abs(eval_F(mesh, s) - mu) <= 1e-10 * (1 + abs(mu))


def test_positive_mu_bracket_needs_no_cg_fallback(monkeypatch, disk_mesh_mid):
    # the upper bracket end stops short of the nearly singular shifts where
    # the direct solve misses its residual gate
    calls = []
    original = fem.cg

    def counting_cg(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "cg", counting_cg)
    res = optimize(disk_mesh_mid, 4.0)
    assert abs(res.sigma_mu.integral - 4.0) <= res.tol
    assert calls == []


def test_optimize_zero_is_degenerate(disk_mesh_coarse):
    res = optimize(disk_mesh_coarse, 0.0)
    assert res.s_mu == 0.0
    assert np.all(res.sigma_mu.values == 0.0)
    assert np.all(res.u_mu.values == 1.0)
    assert abs(res.independent_lambda) < 1e-10


def test_optimize_disk_constant_parameter(disk_mesh_mid):
    res = optimize(disk_mesh_mid, -10.0)
    mesh = disk_mesh_mid
    # boundary values exactly one, minimizer positive, same sign as mu
    assert np.all(res.u_mu.values[mesh.boundary_nodes] == 1.0)
    assert res.u_mu.values.min() > 0
    assert res.s_mu < 0
    # rotational symmetry: the parameter is constant near mu / perimeter
    assert res.sigma_mu.spread() <= 0.02 * abs(10.0 / (2 * math.pi))
    assert res.sigma_mu.values.mean() == pytest.approx(
        -10.0 / mesh.boundary_length(), rel=1e-2
    )
    assert res.consistency_ok
    assert res.F_residual <= res.tol
    assert res.sigma_integral_error <= 1e-8 * 11


def test_optimize_minimizer_is_discrete_eigenfunction(square_mesh_mid):
    res = optimize(square_mesh_mid, -8.0)
    asm = assemble(square_mesh_mid)
    d = asm.boundary_diagonal(res.sigma_mu)
    v = res.u_mu.values
    resid = np.linalg.norm(asm.K @ v + d * v - res.s_mu * (asm.M @ v))
    assert resid <= 1e-6 * math.sqrt(v @ (asm.M @ v))
    assert abs(res.independent_lambda - res.s_mu) <= 50 * res.tol


def test_small_mu_coefficient_disk(disk_mesh_mid):
    assert small_mu_coefficient(disk_mesh_mid) == pytest.approx(
        math.pi / 8, rel=2e-3
    )


def test_small_mu_coefficient_square():
    mesh = generate_mesh(Domain.rectangle(1.0, 1.0), 0.02)
    assert small_mu_coefficient(mesh) == pytest.approx(S_SQUARE, rel=1e-2)


def test_partial_eigen_sum_bounded_by_torsion(disk_mesh_coarse):
    # oracle: lowest Dirichlet pairs by deflated inverse iteration
    mesh = disk_mesh_coarse
    asm = assemble(mesh)
    idx = np.setdiff1d(np.arange(len(mesh.nodes)), mesh.boundary_nodes)
    K = asm.K.tocsr()[idx][:, idx].tocsc()
    M = asm.M.tocsr()[idx][:, idx].tocsc()
    lu = splu(K)
    ones = np.ones(len(idx))
    pairs = []
    for j in range(5):
        v = np.linspace(1.0, 2.0, len(idx))  # deterministic start
        for _ in range(200):
            v = lu.solve(M @ v)
            for _, w in pairs:
                v -= (w @ (M @ v)) * w
            v /= math.sqrt(v @ (M @ v))
        e = float(v @ (K @ v))
        pairs.append((e, v))
    torsion = small_mu_coefficient(mesh)
    partial = sum((v @ (M @ ones)) ** 2 / e for e, v in pairs)
    assert partial <= torsion + 1e-12
    assert partial == pytest.approx(torsion, rel=0.10)


def test_optimality_of_sigma_mu_under_perturbation(square_mesh_mid):
    from robinopt import BoundaryFunction, robin_principal_eigenvalue

    mesh = square_mesh_mid
    res = optimize(mesh, -6.0)
    w = assemble(mesh).boundary_node_weights
    rng = np.random.default_rng(5)
    worst = -np.inf
    for k in range(15):
        eta = rng.uniform(-1, 1, len(w))
        eta -= (eta @ w) / w.sum()
        amp = (0.02, 0.1, 0.5)[k % 3] * np.abs(res.sigma_mu.values).max()
        lam = robin_principal_eigenvalue(
            mesh, BoundaryFunction(mesh, res.sigma_mu.values + amp * eta),
            v0=res.u_mu.values.copy(),
        ).eigenvalue
        worst = max(worst, lam - res.s_mu)
    assert worst <= 50 * res.tol
