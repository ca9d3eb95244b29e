"""robinopt: optimal Robin boundary parameters on 2D domains.

Computes the boundary parameter function that maximizes the principal
Robin eigenvalue under a prescribed boundary integral, together with the
maximized eigenvalue itself, on a catalogue of plane domains. The
construction goes through the Dirichlet resolvent of the constant unit
source: the scalar response F(s) = s^2 int U_s + s |Omega| is strictly
increasing, its inverse at the constraint value gives the eigenvalue, and
the optimal parameter is the rescaled normal flux of U_s. Heat-content
time stepping, modified-Bessel closed forms, and corner-coefficient
quadrature provide independent verification channels.
"""

from .errors import (
    GeometryError,
    MeshResourceError,
    ResolutionCapError,
    RobinoptError,
    SolverError,
    SpectralRangeError,
    UsageError,
)
from .geometry import Domain, Mesh, generate_mesh, metrics, parse_domain
from .specfun import corner_coefficient
from .fem import (
    BoundaryFunction,
    FieldSolution,
    assemble,
    estimate_dirichlet_e1,
    heat_content,
    laplace_transform_check,
    normal_flux,
    robin_principal_eigenvalue,
    solve_resolvent,
)
from .optimizer import (
    OptimizeResult,
    eval_F,
    eval_F_prime,
    optimize,
    small_mu_coefficient,
    solve_s_of_mu,
)
from .oracles import (
    disk_F,
    disk_lambda_mu,
    disk_robin_lambda,
    disk_s_of_mu,
    predict_lambda,
    small_mu_prediction,
)
from .verify import (
    SuiteReport,
    run_all_suites,
    run_asymptotic_suite,
    run_blowup_demo,
    run_blowup_suite,
    run_heat_content_suite,
    run_optimality_suite,
)

__version__ = "0.1.0"
