"""Constructive boundary-parameter optimization.

The scalar response function F(s) = s^2 int U_s + s |Omega| is strictly
increasing, so the constraint equation F(s(mu)) = mu has a unique root;
that root is the maximized principal eigenvalue, the optimal boundary
parameter is -s times the variational normal flux of U_s, and the
associated minimizer is s U_s + 1 (equal to one on the boundary by
construction). The root is placed on the mesh's rational Krylov model of
int U_s (``fem.resolvent_model``, built once per mesh), and one resolvent
solve confirms it: the model's own Galerkin solution, certified by its
residual, so no further factorization, or a direct solve where the
certificate fails. All quantities here use mesh-derived area and perimeter
so the discrete identities hold exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ResolutionCapError, SolverError, SpectralRangeError

# closest relative approach of a mu > 0 root to the Dirichlet ground energy;
# closer in, the resolvent system is so nearly singular that its direct
# solve misses the residual gate of fem._solve_spd
_E1_MARGIN = 1e-4


def default_tol(mu):
    """Root tolerance 1e-10 (1 + |mu|); relative so F spans magnitudes."""
    return 1e-10 * (1.0 + abs(mu))


@dataclass(frozen=True)
class OptimizeResult:
    """Output of one constrained optimization.

    ``s_mu`` is the maximized principal eigenvalue; ``sigma_mu`` the unique
    optimal boundary parameter; ``u_mu`` the associated minimizer, equal to
    one at every boundary node. ``independent_lambda`` re-derives the
    eigenvalue through the Robin eigensolver as a cross-check. u_mu is the
    discrete ground state for sigma_mu at s_mu (to rounding), so the
    solver, warm-started from it, only checks its residual, normalization
    and sign and factorizes nothing.
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


def _newton(F, F_prime, mu, lo, hi, s, edge, tol):
    """Safeguarded Newton iteration for F(s) = mu on [lo, hi], from s.

    A step that leaves the bracket bisects it instead, unless it crosses
    ``edge``, an end of the range where F is not yet known: then F is
    evaluated there. Returns (s, F(s), evaluations) once |F(s) - mu| <= tol,
    once F at the edge shows the root lies beyond it, or at the 100th
    evaluation.
    """
    for n in range(1, 101):
        f = F(s)
        if abs(f - mu) <= tol or n == 100:
            break
        if s == edge:
            if (f > mu) == (mu < 0):
                break
            edge = None  # the root lies inside
        if f < mu:
            lo = s
        else:
            hi = s
        s_new = s - (f - mu) / F_prime(s)
        if (s_new <= lo and lo == edge) or (s_new >= hi and hi == edge):
            s_new = edge
        elif not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        s = s_new
    return s, f, n


def solve_s_of_mu(mesh, mu, tol=None):
    """Unique root of F(s) = mu, placed on a model and polished exactly.

    The mesh's rational Krylov model F~(s) = s^2 G~(s) + s |Omega| of F (see
    ``fem.resolvent_model``: pole 0, and -s_cap too on meshes graded for mu
    below about -200) is built first; it also gives E1, the Dirichlet ground
    energy. The root is found on the model to a hundredth of the tolerance,
    inside [-s_cap, 0] for mu < 0, with s_cap the boundary-layer resolution
    cap, or [0, E1 (1 - 1e-4)] for mu > 0. One exact F at that point usually
    meets the tolerance; otherwise safeguarded Newton steps on the exact F
    follow. "Exact" is ``fem.solve_resolvent``: the model's Galerkin solution
    where its residual is at most 1e-12 ||M 1||, so F equals F~ there to
    rounding, and a direct solve elsewhere. An end of the range is an error
    only once the exact F there confirms that the root lies beyond it.

    Returns (s, iterations), counting the exact evaluations of F.

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
    fem._check_tol(tol)
    if mu == 0.0:
        return 0.0, 0
    model = fem.resolvent_model(mesh)
    if mu < 0:
        lo = edge = -fem._s_cap(mesh)
        hi = 0.0
    else:
        e1 = model.e1
        lo = 0.0
        hi = edge = e1 * (1.0 - _E1_MARGIN)
    area = float(fem.assemble(mesh).mass_times_one.sum())

    def F_model(s):
        return s * s * model(s)[0] + s * area

    def F_model_prime(s):
        g, dg = model(s)
        return 2.0 * s * g + s * s * dg + area

    s = _newton(F_model, F_model_prime, mu, lo, hi, 0.5 * (lo + hi), edge,
                0.01 * tol)[0]
    s, f, iters = _newton(lambda s: eval_F(mesh, s),
                          lambda s: eval_F_prime(mesh, s),
                          mu, lo, hi, s, edge, tol)
    if abs(f - mu) <= tol:
        return s, iters
    if s != edge or (f > mu) != (mu < 0):
        raise SolverError(
            f"root iteration for mu={mu:g} stalled at |F-mu|={abs(f - mu):g}"
        )
    if mu < 0:
        raise ResolutionCapError(
            f"mu={mu:g} needs a shift beyond the boundary-layer "
            f"resolution cap |s| <= {-edge:g} "
            f"(h_boundary={mesh.h_boundary:g}); finest admissible "
            f"mu is {f:.6g}",
            admissible_mu=f,
        )
    raise SpectralRangeError(
        f"mu={mu:g} needs a shift within {e1 - edge:.3g} of the "
        f"Dirichlet ground energy {e1:.6g}; request a smaller mu"
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
