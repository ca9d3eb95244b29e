"""Tests of the benchmark's references and checks.

    python3 -m pytest perfbench

The references are tested against known values; each workload's check is
shown to pass on good outputs and to fail once an output moves beyond its
tolerance.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def rb():
    import robinopt
    import robinopt.cli  # noqa: F401

    return robinopt


# --- references -------------------------------------------------------------

@pytest.mark.parametrize("mu", [-1e-2, -1e-3, 1e-3, 1e-2])
def test_disk_lambda_small_mu_limit(mu):
    # Lambda_mu = mu/pi - mu^2/(8 pi^2) + O(mu^3) on the unit disk
    ratio = (ref.disk_lambda_mu(1.0, mu) - mu / math.pi) / mu**2
    assert ratio == pytest.approx(-1.0 / (8 * math.pi**2), rel=0.02)


def test_disk_lambda_large_sigma_tends_to_dirichlet():
    assert ref.disk_robin_lambda(1.0, 1e7) == pytest.approx(
        ref.J0_FIRST_ZERO**2, rel=1e-6)
    assert ref.disk_robin_lambda(2.0, 0.0) == 0.0


def test_disk_lambda_strongly_negative_sigma():
    # -sigma^2 + sigma/R - 1/(2 R^2) + O(1/sigma) as sigma -> -inf
    sigma = -200.0
    assert ref.disk_robin_lambda(1.0, sigma) == pytest.approx(
        -sigma**2 + sigma - 0.5, abs=0.01)


def test_corner_coefficient_known_values():
    assert ref.corner_coefficient(math.pi / 2) == pytest.approx(
        4 / math.pi, rel=1e-12)
    assert ref.corner_coefficient(math.pi) == 0.0
    assert ref.corner_coefficient(3 * math.pi / 2) < 0


def test_disk_resolvent_integral_torsion_limit():
    # int U_0 is the torsion integral pi R^4 / 8
    assert ref.disk_resolvent_integral(1.0, -1e-6) == pytest.approx(
        math.pi / 8, rel=1e-5)


def test_disk_heat_content_small_time_expansion():
    t = np.array([1e-4, 4e-4])
    expansion = math.pi - 4 * np.sqrt(math.pi * t) + math.pi * t
    assert np.all(np.abs(ref.disk_heat_content(1.0, t) - expansion) < t**1.5)


def test_p1_matrices_on_two_triangles():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    K, M, bnodes, w = ref.p1_matrices(nodes, tris)
    assert np.allclose(K @ np.ones(4), 0.0)
    assert M.sum() == pytest.approx(1.0)
    assert list(bnodes) == [0, 1, 2, 3]
    assert w.sum() == pytest.approx(4.0)


# --- checks fail on perturbed outputs ---------------------------------------

def test_sweep_check_fails_on_perturbed_output(rb):
    case = W.Case("disk", (1.0,), 1.0, 0.05)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sweep.csv")
        argv = ["sweep", "--domain", case.spec, "--h", repr(case.h),
                *W.SWEEP_ARGS, "--output", path]
        assert rb.cli.main(argv) == 0
        table = W.parse_sweep_csv(Path(path).read_text())
    point = W.sweep_point(rb, case)
    assert W.check_sweep_rows(case, table) == []
    assert W.check_sweep_point(case, table, *point) == []

    def perturbed(column, i, value):
        t = {k: v.copy() for k, v in table.items()}
        t[column][i] = value
        return W.check_sweep_rows(case, t)

    s = table["s_mu"]
    # beyond the closed-form tolerance, but still increasing
    assert perturbed("s_mu", 1, s[1] + 3 * W.DISK_LAMBDA_RTOL * (1 + abs(s[1])))
    assert perturbed("s_mu", 2, s[1])  # not strictly increasing
    assert perturbed("s_mu", 5, 1e-9)  # nonzero at mu = 0
    assert perturbed("independent_lambda", 0, s[0] * (1 + 1e-7))

    nodes, tris, s_mu, sigma, u = point
    assert W.check_sweep_point(case, table, nodes, tris, s_mu,
                               sigma * (1 + 1e-8), u)
    u = u.copy()
    u[np.argmax(np.linalg.norm(nodes, axis=1))] += 1e-9
    assert W.check_sweep_point(case, table, nodes, tris, s_mu, sigma, u)


def test_optimality_check_fails_on_perturbed_output(rb):
    case = W.Case("disk", (1.0,), 1.0, 0.05)
    mesh = rb.verify.mesh_for(case.domain(rb), W.OPT_MU, case.h)
    res = rb.optimizer.optimize(mesh, W.OPT_MU)
    mats = ref.p1_matrices(mesh.nodes, mesh.triangles)
    w = mats[3]
    eta = np.random.default_rng(0).uniform(-1, 1, len(w))
    eta -= (eta @ w) / w.sum()
    sigma = res.sigma_mu.values + 0.5 * np.abs(res.sigma_mu.values).max() * eta
    out = rb.fem.robin_principal_eigenvalue(
        mesh, rb.fem.BoundaryFunction(mesh, sigma), v0=res.u_mu.values.copy())
    lam, v = out.eigenvalue, out.eigenfunction.values

    def check(lam, v, kind="perturbed", values=sigma, amp=0.5):
        return W.check_eigenpair(case, kind, amp, values, lam, v, res.s_mu,
                                 res.tol, *mats)

    def fails_with(word, fails):
        return any(word in f for f in fails)

    assert check(lam, v) == []
    assert fails_with("exceeds", check(res.s_mu + 100 * res.tol, v))
    assert fails_with("strict drop", check(res.s_mu, v))
    assert fails_with("residual", check(lam * (1 + 1e-6), v))
    assert fails_with("positive", check(lam, -v))
    assert fails_with("normalized", check(lam, v * 1.001))

    const = np.full(len(w), -2.0)
    out = rb.fem.robin_principal_eigenvalue(
        mesh, rb.fem.BoundaryFunction(mesh, const))
    lam, v = out.eigenvalue, out.eigenfunction.values
    assert check(lam, v, "constant", const, 0.0) == []
    shift = 2 * W.CONST_SIGMA_RTOL * (1 + abs(lam))
    assert fails_with("exact", check(lam + shift, v, "constant", const, 0.0))


def _heat_output(case, q_of_t, lhs):
    t = np.geomspace(25 * case.h**2, 100 * case.h**2, W.HEAT_TIMES)
    return {"times": t, "Q": q_of_t(t), "lhs": lhs, "rhs": lhs * 1.004,
            "area": case.area}


def test_heat_check_fails_on_perturbed_output():
    disk = W.Case("disk", (1.0,), 1.0, W.HEAT_H)
    lhs = np.array([ref.disk_resolvent_integral(1.0, s) for s in W.HEAT_SHIFTS])
    exact = _heat_output(disk, lambda t: ref.disk_heat_content(1.0, t), lhs)
    assert W.check_heat(disk, exact) == []

    lost = disk.area - exact["Q"]
    for bad in (
        dict(exact, Q=exact["Q"] - 2 * W.DISK_Q_RTOL * lost),
        dict(exact, rhs=lhs * (1 + 2 * W.LAPLACE_RTOL)),
        dict(exact, lhs=lhs * (1 + 2 * W.DISK_LHS_RTOL),
             rhs=lhs * (1 + 2 * W.DISK_LHS_RTOL)),
        dict(exact, Q=exact["Q"][::-1]),
    ):
        assert W.check_heat(disk, bad)

    # the L-shape has no series: its expansion itself must pass, and fail
    # once the corner term moves beyond the window tolerance (on a finer
    # window, where the expansion alone stays positive)
    lshape = W.Case("lshape", (1.0, 1.0), 1.0, 0.03)
    sqrt_c = -2 * lshape.perimeter / math.sqrt(math.pi)

    def expansion(corner):
        return lambda t: lshape.area + sqrt_c * np.sqrt(t) + corner * t

    ones = np.ones(len(W.HEAT_SHIFTS))
    assert W.check_heat(lshape, _heat_output(
        lshape, expansion(lshape.heat_linear), ones)) == []
    too_big = lshape.heat_linear * (1 + 2 * W.WINDOW_RTOL["lshape"][1])
    assert W.check_heat(lshape, _heat_output(lshape, expansion(too_big), ones))


# --- tracing ----------------------------------------------------------------

def test_tracer_counts_and_restores(rb):
    from tracer import Tracer

    original = rb.fem.splu
    tracer = Tracer()
    tracer.install(rb)
    try:
        mesh = rb.geometry.generate_mesh(rb.geometry.parse_domain("disk:1"),
                                         0.2)
        rb.fem.heat_content(mesh, [0.01, 0.02])
        rb.fem.solve_resolvent(mesh, -1.0)
        rb.fem.solve_resolvent(mesh, -1.0)
        rb.specfun.corner_coefficient(math.pi / 3)
        layers = tracer.aggregate()
    finally:
        tracer.uninstall()
    assert rb.fem.splu is original
    assert layers["geometry.generate_mesh.calls"] == 1
    assert layers["geometry.nodes"] == len(mesh.nodes)
    assert layers["fem.heat.steps"] == 400  # steps_per_decade, one decade
    assert layers["fem.splu.calls"] == 401
    assert layers["fem.solve_resolvent.calls"] == 2
    assert layers["fem.resolvent.cache_hits"] == 1
    # the quadrature has no time metric, so it stays with its caller
    spans = {name: end - start for name, start, end, _ in tracer.spans}
    assert layers["specfun.corner_coefficient.s"] == pytest.approx(
        spans["specfun.corner_coefficient"])
