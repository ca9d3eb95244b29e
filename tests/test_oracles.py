import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from robinopt import (
    Domain,
    GeometryError,
    SolverError,
    corner_coefficient,
    disk_F,
    disk_lambda_mu,
    disk_robin_lambda,
    disk_s_of_mu,
    predict_lambda,
    small_mu_prediction,
)


def disk_F_by_quadrature(s):
    """Independent oracle: radial quadrature of the resolvent integral."""
    kappa = math.sqrt(-s)
    i0k = i0(kappa)

    def integrand(r):
        return (1.0 - i0(kappa * r) / i0k) / kappa**2 * 2 * math.pi * r

    integral, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return s * s * integral + s * math.pi


def test_disk_F_basics():
    assert disk_F(1.0, 0.0) == 0.0
    assert disk_F(1.0, -1.0) == pytest.approx(-2.804750874993502, rel=1e-12)
    with pytest.raises(GeometryError):
        disk_F(1.0, 0.5)
    with pytest.raises(GeometryError):
        disk_F(-1.0, -1.0)


def test_disk_F_against_radial_quadrature():
    for s in (-0.5, -1.0, -9.0):
        assert disk_F(1.0, s) == pytest.approx(disk_F_by_quadrature(s),
                                               abs=1e-10)


def test_disk_F_two_term_asymptote():
    v = disk_F(1.0, -1e4)
    assert v == pytest.approx(-2 * math.pi * 100 + math.pi, rel=6e-3)
    # remainder bound pi/(4 kappa) style decay for |s| >= 25
    for s in (-25.0, -100.0, -2500.0):
        d = disk_F(1.0, s) + 2 * math.pi * math.sqrt(-s) - math.pi
        assert abs(d) <= 5.0 / math.sqrt(-s)


def test_disk_F_strictly_increasing():
    ss = -np.geomspace(1e-3, 1e4, 50)[::-1]
    vals = [disk_F(1.0, s) for s in ss]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_disk_s_of_mu_round_trip():
    for mu in (-0.1, -5.0, -80.0):
        s = disk_s_of_mu(1.0, mu)
        assert disk_F(1.0, s) == pytest.approx(mu, abs=1e-9 * (1 + abs(mu)))
    assert disk_s_of_mu(1.0, 0.0) == 0.0


@pytest.mark.parametrize("mu", [-1e-12, -1e-30])
def test_disk_s_of_mu_relative_accuracy_at_tiny_mu(mu):
    # F(s) = pi s - pi s^2 / 8 + O(s^3) on the unit disk
    expansion = mu / math.pi - mu**2 / (8 * math.pi**2)
    assert disk_s_of_mu(1.0, mu) == pytest.approx(expansion, rel=1e-12, abs=0)


def test_disk_robin_lambda_zero():
    assert disk_robin_lambda(1.0, 0.0) == 0.0


def test_disk_robin_lambda_negative_consistency_with_F():
    # the optimal parameter on the disk is constant, so inverting F at
    # mu = 2 pi sigma must reproduce the constant-parameter eigenvalue
    sigma = disk_F(1.0, -1.0) / (2 * math.pi)
    assert disk_robin_lambda(1.0, sigma) == pytest.approx(-1.0, abs=1e-10)


def test_disk_robin_lambda_strong_negative_asymptote():
    # lambda ~ -sigma^2 + sigma H + O(1) with H = 1/R
    sigma = -100.0
    lam = disk_robin_lambda(1.0, sigma)
    assert lam / (-sigma * sigma) == pytest.approx(1.0, abs=0.02)
    assert (lam + sigma * sigma) / sigma == pytest.approx(1.0, abs=0.05)


def test_disk_robin_lambda_positive_branch():
    lam = disk_robin_lambda(1.0, 2.0)
    assert 0.0 < lam < 5.783185962946785
    # large positive parameter approaches the Dirichlet ground energy
    assert disk_robin_lambda(1.0, 1e7) == pytest.approx(
        5.783185962946785, rel=1e-5
    )


def test_disk_robin_lambda_small_sigma_expansion():
    # lambda = 2 sigma / R - sigma^2 / 2 + O(sigma^3) on the unit disk, for
    # both signs of sigma
    for sigma in np.geomspace(1e-8, 1e-5, 13):
        for sgn in (-1.0, 1.0):
            s = sgn * sigma
            assert disk_robin_lambda(1.0, s) == pytest.approx(
                2 * s - s * s / 2, rel=1e-10
            )


def test_disk_oracles_refuse_results_past_the_float_range():
    # s ~ -(mu / 2 pi)^2 and lambda ~ -sigma^2 leave the float range
    # here; a root just inside it is still found
    with pytest.raises(SolverError, match="is below"):
        disk_s_of_mu(1.0, -1e160)
    with pytest.raises(SolverError, match="overflows"):
        disk_robin_lambda(1.0, -1e200)
    with pytest.raises(SolverError, match="overflows"):
        disk_lambda_mu(1.0, -1e308)
    s = disk_s_of_mu(1.0, -8e154)
    assert -sys.float_info.max < s < -1e308
    assert disk_F(1.0, s) == pytest.approx(-8e154, rel=1e-12)


def test_disk_lambda_mu_continuous_through_zero():
    assert disk_lambda_mu(1.0, -1e-8) == pytest.approx(-1e-8 / math.pi,
                                                       rel=1e-4)
    assert disk_lambda_mu(1.0, 1e-8) == pytest.approx(1e-8 / math.pi,
                                                      rel=1e-4)


def test_predict_lambda_disk():
    p = predict_lambda(Domain.disk(1.0))
    assert p.leading == pytest.approx(-1 / (4 * math.pi**2))
    assert p.subleading == pytest.approx(1 / (2 * math.pi))
    assert p.regime == "smooth"


def test_predict_lambda_square():
    p = predict_lambda(Domain.rectangle(1.0, 1.0))
    assert p.leading == pytest.approx(-1 / 16)
    assert p.subleading == pytest.approx(2 / math.pi, rel=1e-9)


def test_predict_lambda_annulus_per_circle():
    p = predict_lambda(Domain.annulus(2.0, 1.0))
    assert p.subleading == pytest.approx(1 / (9 * math.pi))


def test_predict_lambda_lshape_uses_reflex_corner():
    p = predict_lambda(Domain.lshape())
    expected = 2 * (5 * corner_coefficient(math.pi / 2)
                    + corner_coefficient(3 * math.pi / 2)) / 64.0
    assert p.subleading == pytest.approx(expected, rel=1e-9)


def test_corner_sum_integrates_each_distinct_angle_once(monkeypatch):
    # five right angles and one reflex one: two quadratures, not six
    import scipy.integrate

    quads = []
    original = scipy.integrate.quad

    def counting_quad(*args, **kwargs):
        quads.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    p = predict_lambda(Domain.lshape())
    assert len(quads) == 2
    expected = 2 * (5 * corner_coefficient(math.pi / 2)
                    + corner_coefficient(3 * math.pi / 2)) / 64.0
    assert p.subleading == pytest.approx(expected, rel=1e-12)


def test_disk_two_term_prediction_bounded_remainder():
    p = predict_lambda(Domain.disk(1.0))
    rs = []
    for mu in np.linspace(-200.0, -20.0, 37):
        rs.append(disk_lambda_mu(1.0, mu) - p.evaluate(mu))
    assert max(abs(r) for r in rs) <= 4.0


def test_small_mu_prediction_fields():
    p = small_mu_prediction(math.pi, math.pi / 8)
    assert p.leading == pytest.approx(1 / math.pi)
    assert p.subleading == pytest.approx(-(math.pi / 8) / math.pi**3)
    assert p.leading > 0 > p.subleading
    assert p.evaluate(0.1) == pytest.approx(
        0.1 / math.pi - 0.01 * (math.pi / 8) / math.pi**3
    )


def test_constant_sigma_bound_disk_equality():
    # on a disk the optimal parameter is constant: both oracle routes agree
    # on Lambda_mu for mu = -5 |dO| = -10 pi
    assert disk_s_of_mu(1.0, -10.0 * math.pi) == pytest.approx(
        disk_robin_lambda(1.0, -5.0), abs=1e-9)


def test_constant_sigma_bound_square_strict():
    # corner concentration pulls the constant-parameter eigenvalue well
    # below the optimum for the same boundary integral
    from robinopt import (BoundaryFunction, generate_mesh, optimize,
                          robin_principal_eigenvalue)

    mesh = generate_mesh(Domain.rectangle(1.0, 1.0), 0.03,
                         boundary_layer_width=0.12)
    lam = robin_principal_eigenvalue(
        mesh, BoundaryFunction.constant(mesh, -5.0)
    ).eigenvalue
    assert optimize(mesh, -20.0).s_mu - lam > 1.0


def test_constant_sigma_bound_zero():
    assert disk_s_of_mu(1.0, 0.0) == disk_robin_lambda(1.0, 0.0) == 0.0
