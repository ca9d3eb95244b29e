"""Reference values computed apart from robinopt, from numpy and scipy alone.

Nothing here imports the program: the benchmark checks the program's
outputs against these values.
"""

import math

import numpy as np
from scipy import integrate, optimize, sparse, special

J0_FIRST_ZERO = float(special.jn_zeros(0, 1)[0])


def _i1_over_i0(x):
    # the exponentially scaled forms cannot overflow
    return special.i1e(x) / special.i0e(x)


def disk_robin_lambda(radius, sigma):
    """Principal Robin eigenvalue of the disk for a constant parameter.

    With the boundary condition du/dn + sigma u = 0: for sigma < 0 it is
    -k^2 with k I1(kR)/I0(kR) = -sigma, for sigma > 0 it is k^2 with
    k J1(kR)/J0(kR) = sigma, k below the first zero of J0(kR).
    """
    if sigma == 0.0:
        return 0.0
    if sigma < 0.0:
        def g(k):
            return k * _i1_over_i0(k * radius) + sigma

        hi = -sigma + 1.0 / radius
        while g(hi) <= 0.0:
            hi *= 2.0
        k = optimize.brentq(g, 0.0, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        return -k * k

    def psi(k):
        return k * special.j1(k * radius) - sigma * special.j0(k * radius)

    k = optimize.brentq(psi, 0.0, J0_FIRST_ZERO / radius, xtol=1e-15,
                        rtol=4 * np.finfo(float).eps)
    return k * k


def disk_lambda_mu(radius, mu):
    """Maximized eigenvalue of the disk: by symmetry sigma_mu = mu / 2 pi R."""
    return disk_robin_lambda(radius, mu / (2.0 * math.pi * radius))


def disk_F(radius, s):
    """F(s) = -2 pi R kappa I1(kappa R)/I0(kappa R), kappa = sqrt(-s), s < 0."""
    kappa = math.sqrt(-s)
    return -2.0 * math.pi * radius * kappa * _i1_over_i0(kappa * radius)


def disk_resolvent_integral(radius, s):
    """Integral of U_s, the solution of (-Lap - s) U = 1, U = 0 on the circle.

    From F(s) = s^2 int U_s + s |Omega|, so int U_s = (F(s) - s |Omega|)/s^2.
    """
    return (disk_F(radius, s) - s * math.pi * radius**2) / (s * s)


def disk_heat_content(radius, times, terms=200):
    """Q(t) = 4 pi R^2 sum_n exp(-j_n^2 t / R^2) / j_n^2 on the disk.

    The eigenfunction series of the heat equation from unit initial
    temperature with a cold boundary, j_n the zeros of J0; the dropped
    terms are below exp(-j_terms^2 t / R^2).
    """
    j = special.jn_zeros(0, terms)
    t = np.asarray(times, dtype=float)[:, None] / radius**2
    return 4.0 * math.pi * radius**2 * np.sum(np.exp(-j * j * t) / (j * j),
                                              axis=1)


def corner_coefficient(alpha):
    """Heat-content corner coefficient of van den Berg & Srisatkunarajah.

    c(alpha) = int_0^inf 4 sinh((pi - alpha) x) / (sinh(pi x) cosh(alpha x)) dx,
    evaluated by scipy quad on the same integrand rewritten in decaying
    exponentials, so it cannot overflow.
    """
    def f(x):
        ea = math.expm1(-2.0 * alpha * x)
        ep = math.expm1(-2.0 * math.pi * x)
        if ep == 0.0:
            return 4.0 * (math.pi - alpha) / math.pi
        return 8.0 * (ea - ep) / ((-ep) * (2.0 + ea))

    value, _ = integrate.quad(f, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12,
                              limit=200)
    return value


def two_term_prediction(perimeter, linear_term, mu):
    """Two-term expansion Lambda_mu ~ -mu^2/P^2 + L mu/P^2 for mu -> -inf.

    ``linear_term`` is the signed curvature integral of the boundary for a
    smooth domain (2 pi per outer loop, -2 pi per hole) and twice the sum of
    the corner coefficients for a polygon.
    """
    return (-mu * mu + linear_term * mu) / perimeter**2


def p1_matrices(nodes, triangles):
    """Stiffness K, consistent mass M and lumped boundary weights of a mesh.

    Boundary edges are the triangle edges that belong to one triangle only;
    returns (K, M, boundary_nodes, weights) with the boundary nodes sorted
    and weights[i] half the length of the boundary edges at node i.
    """
    a, b, c = (nodes[triangles[:, k]] for k in range(3))
    ab, ac = b - a, c - a
    area = 0.5 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    opposite = np.stack([c - b, a - c, b - a], axis=1)
    stiff = np.einsum("tik,tjk->tij", opposite, opposite) / (4.0 * area)[:, None, None]
    mass = (np.ones((3, 3)) + np.eye(3)) * (area / 12.0)[:, None, None]
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    n = len(nodes)
    K = sparse.csr_matrix((stiff.ravel(), (rows, cols)), shape=(n, n))
    M = sparse.csr_matrix((mass.ravel(), (rows, cols)), shape=(n, n))

    edges = np.sort(np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    ), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    bedges = uniq[counts == 1]
    lengths = np.linalg.norm(nodes[bedges[:, 0]] - nodes[bedges[:, 1]], axis=1)
    w = np.zeros(n)
    np.add.at(w, bedges[:, 0], 0.5 * lengths)
    np.add.at(w, bedges[:, 1], 0.5 * lengths)
    bnodes = np.unique(bedges)
    return K, M, bnodes, w[bnodes]


def mesh_area(nodes, triangles):
    a, b, c = (nodes[triangles[:, k]] for k in range(3))
    ab, ac = b - a, c - a
    return float(0.5 * np.sum(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]))
