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

The band Cholesky factorizations of ``fem`` run fastest on one thread, and
a second OpenBLAS thread can stall them for tens of milliseconds. The numpy
and scipy wheels each bundle their own OpenBLAS, which reads its thread
count once, when it is loaded. So numpy is imported first and keeps the
caller's setting, and scipy's linear algebra is loaded with
``OPENBLAS_NUM_THREADS=1`` unless the caller set that variable; the
environment is then restored. A program that loads ``scipy.linalg`` before
robinopt should set ``OPENBLAS_NUM_THREADS=1`` itself; when it has not,
and OpenBLAS's fallbacks ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` do not
give one thread either, importing robinopt warns (``RuntimeWarning``), since
scipy's OpenBLAS then runs several threads.
"""

import os
import sys
import warnings

import numpy  # noqa: F401  (loads numpy's OpenBLAS with the caller's setting)


def _fallback_threads():
    """The thread count OpenBLAS reads when OPENBLAS_NUM_THREADS is unset.

    OpenBLAS takes the first positive one of GOTO_NUM_THREADS and
    OMP_NUM_THREADS; None when neither gives one (its default, all cores).
    """
    for name in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


_THREADS_SET = "OPENBLAS_NUM_THREADS" in os.environ
if not _THREADS_SET:
    if "scipy.linalg" in sys.modules and _fallback_threads() != 1:
        warnings.warn(
            "scipy.linalg was loaded before robinopt with "
            "OPENBLAS_NUM_THREADS unset and no GOTO_NUM_THREADS or "
            "OMP_NUM_THREADS of 1, so scipy's OpenBLAS runs several "
            "threads, and robinopt's band factorizations can stall (the "
            "first one by hundreds of milliseconds); set "
            "OPENBLAS_NUM_THREADS=1 before Python starts, or import robinopt "
            "before scipy", RuntimeWarning, stacklevel=2)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import scipy.linalg  # noqa: F401
finally:
    if not _THREADS_SET:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (  # noqa: E402
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
