"""Constructive boundary-parameter optimization.

The scalar response function F(s) = s^2 int U_s + s |Omega| is strictly
increasing, so the constraint equation F(s(mu)) = mu has a unique root;
that root is the maximized principal eigenvalue, the optimal boundary
parameter is -s times the variational normal flux of U_s, and the
associated minimizer is s U_s + 1 (equal to one on the boundary by
construction). All quantities here use mesh-derived area and perimeter so
the discrete identities hold exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ResolutionCapError, SolverError, SpectralRangeError

# largest sqrt(|s|) * h_boundary the boundary layer tolerates
_LAYER_RESOLUTION = 0.2
# closest relative approach of a mu > 0 bracket to the Dirichlet ground
# energy; the resolvent system is nearly singular there
_E1_MARGIN = 1e-6


def default_tol(mu):
    """Root tolerance 1e-10 (1 + |mu|); relative so F spans magnitudes."""
    return 1e-10 * (1.0 + abs(mu))


@dataclass(frozen=True)
class OptimizeResult:
    """Output of one constrained optimization.

    ``s_mu`` is the maximized principal eigenvalue; ``sigma_mu`` the unique
    optimal boundary parameter; ``u_mu`` the associated minimizer, equal to
    one at every boundary node. ``independent_lambda`` re-derives the
    eigenvalue through the Robin eigensolver as a cross-check.
    """

    mu: float
    s_mu: float
    sigma_mu: fem.BoundaryFunction
    u_mu: fem.FieldSolution
    F_residual: float
    sigma_integral_error: float
    independent_lambda: float
    iterations: int
    tol: float

    @property
    def consistency_ok(self):
        return abs(self.independent_lambda - self.s_mu) <= 50.0 * self.tol


def eval_F(mesh, s):
    """F(s) = s^2 int U_s + s |Omega|, with the mesh area for |Omega|."""
    asm = fem.assemble(mesh)
    area = float(asm.mass_times_one.sum())
    if s == 0.0:
        return 0.0
    u = fem.solve_resolvent(mesh, s)
    return s * s * u.integral() + s * area


def eval_F_prime(mesh, s):
    """F'(s) = int (1 + s U_s)^2, strictly positive."""
    asm = fem.assemble(mesh)
    if s == 0.0:
        return float(asm.mass_times_one.sum())
    u = fem.solve_resolvent(mesh, s)
    w = 1.0 + s * u.values
    return float(w @ (asm.M @ w))


def _s_cap(mesh):
    return (_LAYER_RESOLUTION / mesh.h_boundary) ** 2


def solve_s_of_mu(mesh, mu, tol=None):
    """Unique root of F(s) = mu by safeguarded Newton iteration.

    For mu < 0 the initial bracket is [-4 (mu/P)^2 - 1, 0] from the leading
    asymptotic term of F, expanded leftward by doubling; for mu > 0 the
    upper end E1 (1 - 2^-k), k = 1, 2, ..., approaches the Dirichlet ground
    energy E1 until F reaches mu, stopping at E1 (1 - 1e-6). Newton steps
    use F' and fall back to bisection whenever they leave the bracket.

    Returns (s, iterations).

    Raises
    ------
    ResolutionCapError
        If the root needs sqrt(|s|) h_boundary > 0.2; the error reports the
        most negative admissible mu for this mesh.
    SpectralRangeError
        If mu > 0 needs s too close to the Dirichlet ground energy.
    """
    mu = float(mu)
    if tol is None:
        tol = default_tol(mu)
    if tol <= 0:
        raise SolverError("tolerance must be positive")
    if mu == 0.0:
        return 0.0, 0
    iters = 0
    if mu < 0:
        s_cap = -_s_cap(mesh)
        perim = mesh.boundary_length()
        lo = max(-4.0 * (mu / perim) ** 2 - 1.0, s_cap)
        f_lo = eval_F(mesh, lo)
        iters += 1
        while f_lo > mu:
            if lo <= s_cap:
                admissible = f_lo  # = F at the cap
                raise ResolutionCapError(
                    f"mu={mu:g} needs a shift beyond the boundary-layer "
                    f"resolution cap |s| <= {-s_cap:g} "
                    f"(h_boundary={mesh.h_boundary:g}); finest admissible "
                    f"mu is {admissible:.6g}",
                    admissible_mu=admissible,
                )
            lo = max(2.0 * lo, s_cap)
            f_lo = eval_F(mesh, lo)
            iters += 1
        hi, f_hi = 0.0, 0.0
    else:
        e1 = fem.estimate_dirichlet_e1(mesh)
        lo, f_lo = 0.0, 0.0
        gap = 1.0
        while True:
            gap = max(0.5 * gap, _E1_MARGIN)
            hi = e1 * (1.0 - gap)
            f_hi = eval_F(mesh, hi)
            iters += 1
            if f_hi >= mu:
                break
            if gap == _E1_MARGIN:
                raise SpectralRangeError(
                    f"mu={mu:g} needs a shift within {e1 - hi:.3g} of the "
                    f"Dirichlet ground energy {e1:.6g}; request a smaller mu"
                )
            lo, f_lo = hi, f_hi

    s = 0.5 * (lo + hi)
    for _ in range(100):
        f = eval_F(mesh, s)
        iters += 1
        if abs(f - mu) <= tol:
            return s, iters
        if f < mu:
            lo, f_lo = s, f
        else:
            hi, f_hi = s, f
        step = (f - mu) / eval_F_prime(mesh, s)
        s_new = s - step
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        s = s_new
    raise SolverError(
        f"root iteration for mu={mu:g} stalled at |F-mu|={abs(f - mu):g}"
    )


def optimize(mesh, mu, tol=None):
    """Optimal boundary parameter and maximized eigenvalue for ``mu``.

    Builds sigma_mu = -s(mu) * normal flux of U_{s(mu)} and the minimizer
    u_mu = s(mu) U_{s(mu)} + 1, then re-derives the eigenvalue with the
    independent Robin eigensolver. The boundary integral of sigma_mu equals
    F(s(mu)) exactly by the variational flux recovery, so its deviation
    from mu is the root residual.
    """
    mu = float(mu)
    if tol is None:
        tol = default_tol(mu)
    s, iters = solve_s_of_mu(mesh, mu, tol)
    n = len(mesh.nodes)
    if s == 0.0:
        sigma = fem.BoundaryFunction.constant(mesh, 0.0)
        u_mu = fem.FieldSolution(mesh, np.ones(n), fem.TAG_MINIMIZER)
        f_resid = 0.0
    else:
        u_s = fem.solve_resolvent(mesh, s)
        flux = fem.normal_flux(mesh, u_s, s)
        sigma = fem.BoundaryFunction(mesh, -s * flux.values)
        u_mu = fem.FieldSolution(
            mesh, s * u_s.values + 1.0, fem.TAG_MINIMIZER
        )
        f_resid = abs(eval_F(mesh, s) - mu)
    if u_mu.values.min() <= 0.0:
        raise SolverError(
            "constructed minimizer lost positivity; mesh under-resolves "
            f"the boundary layer at s={s:g}"
        )
    spectral = fem.robin_principal_eigenvalue(
        mesh, sigma, v0=u_mu.values.copy()
    )
    return OptimizeResult(
        mu=mu,
        s_mu=s,
        sigma_mu=sigma,
        u_mu=u_mu,
        F_residual=f_resid,
        sigma_integral_error=abs(sigma.integral - mu),
        independent_lambda=spectral.eigenvalue,
        iterations=iters,
        tol=tol,
    )


def small_mu_coefficient(mesh):
    """Quadratic response coefficient for small constraint values.

    Equals the mesh integral of the torsion function, which by the
    spectral identity is the full Dirichlet eigen-sum of squared mean
    loadings over energies, obtained here from a single linear solve.
    """
    return fem.solve_resolvent(mesh, 0.0).integral()
