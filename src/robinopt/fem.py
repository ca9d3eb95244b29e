"""Sparse P1 finite-element core.

Assembles stiffness, mass, and lumped boundary-mass matrices; models
G(s) = int U_s on a rational Krylov space, a small dense pencil per mesh
built from two factorizations (poles -s_cap and 0), which also yields the
Dirichlet ground energy E1; solves the Dirichlet resolvent problem
(-Lap - s) u = 1 with the model's Galerkin solution wherever its residual
certifies it, and a direct solve elsewhere; recovers boundary fluxes
variationally; computes principal Robin eigenvalues by inverse iteration at
one shift, one factorization per solve and none when the start vector
already meets the residual tolerance, with a Lanczos shift-invert fallback;
and time-steps the Dirichlet heat equation for the heat content by implicit
Euler on a dyadic step ladder, one factorization per step size.

Every sparse LU goes through ``_factorize``: SuperLU with a symmetric
minimum-degree ordering and diagonal pivots, which suits these symmetric
systems. At most one factorization is live at a time.

All solves are deterministic. Assembled matrices, their interior blocks,
resolvent solutions, the resolvent model (with E1), and heat curves are
memoized on the mesh's ``Assembly``, which refers back to the mesh only
weakly, so a dropped mesh is freed at once. Values are never mutated after
construction, so sharing meshes across threads is safe.
"""

import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse
# cg is not called here; it stays bound because the benchmark tracer and
# the tests patch and count fem.cg by name
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, cg, eigsh, splu

from .errors import (
    BoundaryLayerWarning,
    GeometryError,
    SolverError,
    SpectralRangeError,
)

# tags for FieldSolution.meaning
TAG_RESOLVENT = "resolvent_u_s"
TAG_MINIMIZER = "minimizer_u_mu"
TAG_EIGENFUNCTION = "eigenfunction"
TAG_TORSION = "torsion"


@dataclass(frozen=True)
class FieldSolution:
    """Nodal coefficient vector over a mesh."""

    mesh: object
    values: np.ndarray
    meaning: str

    def __post_init__(self):
        if len(self.values) != len(self.mesh.nodes):
            raise GeometryError("solution length does not match node count")

    def integral(self):
        """Mesh integral via the consistent mass matrix."""
        return float(assemble(self.mesh).mass_times_one @ self.values)


class BoundaryFunction:
    """Piecewise-linear function on boundary nodes with a lumped integral."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if len(values) != len(mesh.boundary_nodes):
            raise GeometryError(
                "boundary values must align with mesh.boundary_nodes"
            )
        self.mesh = mesh
        self.values = values

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(len(mesh.boundary_nodes), float(value)))

    @property
    def integral(self):
        """Boundary integral by the lumped (trapezoidal) edge quadrature."""
        return float(self.values @ assemble(self.mesh).boundary_node_weights)

    def spread(self):
        return float(self.values.max() - self.values.min())


@dataclass(frozen=True)
class HeatContentCurve:
    """Total remaining heat Q(t) under cold-boundary decay."""

    times: np.ndarray
    values: np.ndarray
    scheme: str


@dataclass(frozen=True)
class ResolventModel:
    """Galerkin model of G(s) = int U_s on a rational Krylov space.

    ``vectors`` V are the M-orthonormal Ritz vectors of the Dirichlet pencil
    on the space (interior nodes), ``ritz`` their Ritz values and
    ``loadings`` c = V' m the loadings of the mass vector m of the constant
    one. The Galerkin solution of (K - s M) u = m on the space is
    V (c / (ritz - s)), and its integral is
    G~(s) = m' (K_r - s M_r)^-1 m = sum_i c_i^2 / (ritz_i - s). As a
    Galerkin (rational Gauss) quadrature for G, it gives G~ <= G below the
    first Dirichlet eigenvalue. ``e1`` is that eigenvalue, the Dirichlet
    ground energy.
    """

    ritz: np.ndarray
    vectors: np.ndarray
    loadings: np.ndarray
    e1: float

    def __call__(self, s):
        """G~(s) and its derivative G~'(s) = sum_i c_i^2 / (ritz_i - s)^2."""
        d = 1.0 / (self.ritz - s)
        terms = self.loadings**2 * d
        return float(terms.sum()), float(terms @ d)

    def galerkin(self, s):
        """Interior values of the Galerkin solution V (c / (ritz - s))."""
        return self.vectors @ (self.loadings / (self.ritz - s))


@dataclass(frozen=True)
class SpectralResult:
    eigenvalue: float
    eigenfunction: FieldSolution
    residual_norm: float
    iterations: int


class Assembly:
    """Assembled P1 matrices for one mesh.

    Attributes
    ----------
    K : stiffness, symmetric positive semidefinite, kernel = constants
    M : consistent mass, symmetric positive definite
    K_II, M_II : their interior blocks (CSC), the Dirichlet systems
    boundary_node_weights : lumped boundary measure per boundary node

    The mesh is held through a weak reference: the mesh owns its assembly,
    so a strong one back would keep a dropped mesh alive until a full
    garbage-collection pass.
    """

    def __init__(self, mesh):
        self._mesh = weakref.ref(mesh)
        self.K, self.M = _assemble_km(mesh)
        self.boundary_node_weights = mesh.boundary_node_weights()
        n = len(mesh.nodes)
        mask = np.ones(n, dtype=bool)
        mask[mesh.boundary_nodes] = False
        self.interior = np.where(mask)[0]
        self.boundary = mesh.boundary_nodes
        idx = self.interior
        self.K_II = self.K[idx][:, idx].tocsc()
        self.M_II = self.M[idx][:, idx].tocsc()
        self.mass_times_one = np.asarray(self.M @ np.ones(n))
        self.model = None  # the ResolventModel, built on first use
        # shift -> nodal values; wrapped on return, so no mesh is stored
        self._resolvent_cache = {}
        self._heat_cache = {}

    @property
    def mesh(self):
        return self._mesh()

    def trace_mass(self, sigma):
        """Diagonal boundary-mass matrix for the parameter ``sigma``.

        Lumped trapezoidal quadrature on boundary edges keeps the matrix
        diagonal; entry i is sigma_i times the boundary measure around
        node i.
        """
        if sigma.mesh is not self.mesh:
            raise GeometryError("boundary function belongs to another mesh")
        n = len(self.mesh.nodes)
        diag = np.zeros(n)
        diag[self.boundary] = sigma.values * self.boundary_node_weights
        return sparse.diags(diag).tocsr()


def _assemble_km(mesh):
    p = mesh.nodes
    t = mesh.triangles
    v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    # edge vectors opposite each local node
    e0 = v2 - v1
    e1 = v0 - v2
    e2 = v1 - v0
    area = 0.5 * (e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0]))
    bad = np.where(area <= 0)[0]
    if bad.size:
        raise GeometryError(
            f"degenerate triangle {int(bad[0])} in assembly (area "
            f"{area[bad[0]]:g})"
        )
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
    K = sparse.csr_matrix((np.concatenate(kvals), (rows, cols)), shape=(n, n))
    M = sparse.csr_matrix((np.concatenate(mvals), (rows, cols)), shape=(n, n))
    K = 0.5 * (K + K.T)
    M = 0.5 * (M + M.T)
    K.eliminate_zeros()
    return K.tocsr(), M.tocsr()


def assemble(mesh):
    """Assembled matrices for ``mesh`` (memoized on the mesh object)."""
    asm = getattr(mesh, "_robinopt_assembly", None)
    if asm is None:
        asm = Assembly(mesh)
        mesh._robinopt_assembly = asm
    return asm


def _factorize(A):
    """Sparse LU of a symmetric system, ordered for symmetry.

    Minimum degree on A' + A with diagonal pivots and SuperLU's symmetric
    mode: on the SPD (or shifted SPD) systems here the factors stay close
    to a Cholesky factor, with about a third less fill and time than the
    default column ordering.
    """
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                options={"SymmetricMode": True})


def _solve_spd(A, rhs):
    """Direct sparse solve of an SPD system, residual-checked.

    ``SolverError`` if the factorization fails or its solution misses the
    gate ||A x - b|| <= 1e-10 (1 + ||b||). Next to a singular shift that
    gate sits below the rounding floor of A x - b, and neither refinement
    nor conjugate gradients get under it, so there is no fallback.
    """
    rhs = np.asarray(rhs, dtype=float)
    A_csc = A.tocsc()
    gate = 1e-10 * (1.0 + np.linalg.norm(rhs))
    try:
        x = _factorize(A_csc).solve(rhs)
        resid = float(np.linalg.norm(A_csc @ x - rhs))
    except RuntimeError:  # an exactly singular factor
        resid = math.inf
    if not resid <= gate:
        raise SolverError(
            f"linear solve missed its residual gate {gate:.3g}",
            residual=resid,
        )
    return x


# largest sqrt(|s|) * h_boundary the boundary layer tolerates
_LAYER_RESOLUTION = 0.2
# relative residual ||(K - s M) u - m|| / ||m|| up to which the resolvent
# model's Galerkin solution is taken as the solution. At the sweep roots and
# heat-content shifts of the benchmark meshes it is 2e-14 to 3.1e-13,
# against 1e-14 to 1.6e-13 for a direct solve; |F - F~| <= s^2 ||U_s|| ||r||.
_GALERKIN_GATE = 1e-12


def _s_cap(mesh):
    """Largest |s| whose boundary layer the mesh resolves, for s < 0."""
    return (_LAYER_RESOLUTION / mesh.h_boundary) ** 2


def solve_resolvent(mesh, s):
    """Solution of (-Lap - s) u = 1 with zero Dirichlet boundary values.

    Solves (K - s M) u = M 1 on interior nodes; boundary entries are
    exactly zero. The mesh's resolvent model is built first (see
    ``resolvent_model``), and its Galerkin solution is returned when its
    residual is at most 1e-12 ||M 1||, which holds across the resolved
    shifts; otherwise a direct sparse solve gives u. The result depends only
    on the mesh and s. Valid for any s <= 0 and for 0 < s below the first
    Dirichlet eigenvalue. Warns when the mesh boundary spacing is too coarse
    to resolve the |s|**-1/2 boundary layer.
    """
    s = float(s)
    asm = assemble(mesh)
    model = resolvent_model(mesh)
    tag = TAG_TORSION if s == 0.0 else TAG_RESOLVENT
    cached = asm._resolvent_cache.get(s)
    if cached is not None:
        return FieldSolution(mesh, cached, tag)
    if s > 0 and s >= model.e1 * (1.0 - 1e-9):
        raise SpectralRangeError(
            f"shift s={s:g} is at or above the first Dirichlet "
            f"eigenvalue estimate {model.e1:g}"
        )
    if (s < 0 and math.sqrt(-s) * mesh.h_boundary
            > _LAYER_RESOLUTION * (1.0 + 1e-6)):
        warnings.warn(
            f"boundary layer of width {1.0 / math.sqrt(-s):.3g} is not "
            f"resolved by boundary spacing {mesh.h_boundary:.3g}",
            BoundaryLayerWarning,
            stacklevel=2,
        )
    idx = asm.interior
    K, M, m1 = asm.K_II, asm.M_II, asm.mass_times_one[idx]
    u_int = model.galerkin(s)
    resid = np.linalg.norm(K @ u_int - s * (M @ u_int) - m1)
    if not resid <= _GALERKIN_GATE * np.linalg.norm(m1):
        u_int = _solve_spd(K - s * M, m1)
    if u_int.min() <= 0.0:
        raise SolverError(
            f"resolvent solution lost positivity (min {u_int.min():g}); "
            "the mesh cannot resolve this shift"
        )
    u = np.zeros(len(mesh.nodes))
    u[idx] = u_int
    if len(asm._resolvent_cache) > 32:
        asm._resolvent_cache.clear()
    asm._resolvent_cache[s] = u
    return FieldSolution(mesh, u, tag)


# Krylov vectors per pole of the resolvent model
_KRYLOV_DEPTH = 8


def _m_orthonormal(w, Q, M):
    """``w`` M-orthogonalized against the columns of ``Q`` (two Gram-Schmidt
    passes) and M-normalized; None if nothing independent is left."""
    norm0 = math.sqrt(w @ (M @ w))
    for _ in range(2):
        w = w - Q @ (Q.T @ (M @ w))
    norm = math.sqrt(w @ (M @ w))
    if not norm > 1e-10 * norm0:
        return None
    return w / norm


def resolvent_model(mesh):
    """Rational Krylov model of G(s) = int U_s, and E1 (memoized per mesh).

    The poles are -s_cap, the most negative shift the mesh resolves, and 0.
    Each pole p contributes the vectors (K - pM)^-1 m and
    ((K - pM)^-1 M)^j (K - pM)^-1 m, j = 1..7, on the interior nodes, with m
    the mass vector of the constant one. One factorization per pole, each
    released before the next is built. The union is M-orthonormalized and K
    projected on it; the eigenpairs of that small matrix give the model.
    Pole 0 comes last: while its factors are live, inverse iteration on the
    Dirichlet pencil, started from the lowest Ritz vector, gives the ground
    energy E1, in few steps or none (that start usually meets the tolerance
    already). No factorization outlives the build.
    """
    asm = assemble(mesh)
    if asm.model is not None:
        return asm.model
    K, M = asm.K_II, asm.M_II
    m1 = asm.mass_times_one[asm.interior]
    Q = np.empty((len(m1), 0))
    for p in (-_s_cap(mesh), 0.0):
        lu = None  # release the last pole's factors before the next
        lu = _factorize(K - p * M)
        chain = np.empty((len(m1), 0))
        w = _m_orthonormal(lu.solve(m1), chain, M)
        while w is not None:
            chain = np.column_stack([chain, w])
            if chain.shape[1] == _KRYLOV_DEPTH:
                break
            w = _m_orthonormal(lu.solve(M @ w), chain, M)
        for w in chain.T:
            w = _m_orthonormal(w, Q, M)
            if w is not None:
                Q = np.column_stack([Q, w])
    T = Q.T @ (K @ Q)
    ritz, Y = np.linalg.eigh(0.5 * (T + T.T))
    V = Q @ Y
    e1 = _inverse_iteration(K, M, 0.0, V[:, 0].copy(), 1e-8 * ritz[0],
                            lu=lu)[0]
    asm.model = ResolventModel(ritz, V, V.T @ m1, e1)
    return asm.model


def normal_flux(mesh, u, s):
    """Variational outward normal derivative of a resolvent solution.

    Recovered from the discrete residual so that for every boundary nodal
    basis function v the pairing <flux, v> equals v' (K - s M) u - v' M 1.
    This makes the discrete divergence theorem exact: the boundary integral
    of the flux is -F(s)/s for s != 0.
    """
    if u.mesh is not mesh:
        raise GeometryError("solution belongs to another mesh")
    if u.meaning not in (TAG_RESOLVENT, TAG_TORSION):
        raise GeometryError("normal_flux expects a resolvent solution")
    asm = assemble(mesh)
    residual = (asm.K - s * asm.M) @ u.values - asm.mass_times_one
    vals = residual[asm.boundary] / asm.boundary_node_weights
    return BoundaryFunction(mesh, vals)


def estimate_dirichlet_e1(mesh):
    """First Dirichlet eigenvalue, read off the mesh's resolvent model."""
    return resolvent_model(mesh).e1


def _rayleigh(A, M, v):
    return float(v @ (A @ v)) / float(v @ (M @ v))


def robin_principal_eigenvalue(mesh, sigma, tol=1e-8, v0=None):
    """Principal eigenvalue of the Robin problem with parameter ``sigma``.

    Solves (K + B(sigma)) u = lambda M u for its smallest eigenvalue by
    inverse iteration with one factorization at a fixed shift. Without
    ``v0`` the shift sits below the spectrum by the square of the largest
    negative parameter value and the iteration starts from the constants.
    A warm start ``v0`` is both the starting vector and the source of the
    shift, which sits just below its Rayleigh quotient. A start that already
    meets the residual tolerance is taken as it is, after 0 iterations and
    with no factorization: the minimizer u_mu of ``optimizer.optimize`` is
    such a start for sigma_mu, and so are the constants for sigma = 0. If
    the iteration stalls or ends on a mode that is not sign-definite (a
    higher mode was caught, or given as the start), a Lanczos
    shift-and-invert solve takes over, lowering its shift until no lower
    eigenvalue appears, with a hard error after 5 retries.

    The returned eigenfunction is positive and M-normalized; the residual
    norm ||(K + B - lambda M) u|| is at most ``tol``.
    """
    asm = assemble(mesh)
    A = (asm.K + asm.trace_mass(sigma)).tocsr()
    M = asm.M
    sigma_neg_max = max(0.0, float(-sigma.values.min()))
    tau = -1.5 * sigma_neg_max**2 - 1.0
    total_iters = 0

    def _finish(lam, v, resid, iters):
        if v @ asm.mass_times_one < 0:
            v = -v
        return SpectralResult(
            lam, FieldSolution(mesh, v, TAG_EIGENFUNCTION), resid, iters
        )

    # fast path: inverse iteration at the a-priori or warm-start shift;
    # accept only a sign-definite mode, which certifies the ground state
    if v0 is None:
        v, shift = np.ones(len(mesh.nodes)), tau
    else:
        v = np.array(v0, dtype=float)
        rho = _rayleigh(A, M, v)
        shift = rho - 0.05 * (1.0 + abs(rho))
    try:
        lam, v, resid, iters = _inverse_iteration(A, M, shift, v, tol)
        total_iters += iters
        if v @ asm.mass_times_one < 0:
            v = -v
        if v.min() >= -1e-6 * v.max():
            return _finish(lam, v, resid, total_iters)
    except SolverError:
        pass

    # robust path: Lanczos shift-invert, descending the shift until the
    # smallest eigenvalue found is stable (no lower one appears). Extreme
    # concentrated parameters can have sign-indefinite discrete ground
    # states, so minimality is confirmed by shift descent instead.
    best = None
    for _ in range(5):
        try:
            cand = _lanczos_ground(A, M, tau, tol)
            total_iters += cand[3]
        except SolverError:
            tau = 2.0 * tau - 1.0
            continue
        if best is None or cand[0] < best[0] - 1e-9 * (1.0 + abs(best[0])):
            best = cand
            tau = 2.0 * tau - 1.0
            continue
        return _finish(best[0], best[1], best[2], total_iters)
    if best is not None:
        return _finish(best[0], best[1], best[2], total_iters)
    raise SolverError(
        "Robin eigensolver failed to certify a ground pair after 5 shift "
        "retries"
    )


def _lanczos_ground(A, M, tau, tol):
    try:
        # fixed start vector keeps repeated runs byte-identical
        vals, vecs = eigsh(
            A.tocsc(), k=1, M=M.tocsc(), sigma=tau, which="LM",
            tol=1e-12, maxiter=10000, v0=np.ones(A.shape[0]),
        )
    except (ArpackError, ArpackNoConvergence, RuntimeError) as exc:
        raise SolverError(f"Lanczos shift-invert failed at {tau:g}: {exc}")
    v = vecs[:, 0]
    v /= math.sqrt(abs(v @ (M @ v)))
    rho = _rayleigh(A, M, v)
    resid = float(np.linalg.norm(A @ v - rho * (M @ v)))
    if resid > tol:
        raise SolverError(
            f"Lanczos ground pair residual {resid:g} above {tol:g}",
            residual=resid,
        )
    return rho, v, resid, 1


def _inverse_iteration(A, M, shift, v, tol, lu=None):
    """Inverse iteration v <- (A - shift M)^-1 M v, M-normalized.

    The stopping rule is tested on the start vector first: if its
    Rayleigh-quotient residual ||A v - rho M v|| is already at most ``tol``,
    it is returned after 0 steps and nothing is factorized (one step from
    an eigenvector would only rescale it). Otherwise one factorization, or
    the given factors ``lu`` of A - shift M, serves every step. Returns
    (rho, v, residual, steps); raises ``SolverError`` after 200 steps.
    """
    Mv = M @ v
    for it in range(201):
        if it == 1 and lu is None:
            try:
                lu = _factorize(A - shift * M)
            except RuntimeError as exc:
                raise SolverError(
                    f"factorization failed at shift {shift:g}: {exc}")
        if it:
            v = lu.solve(Mv)
            Mv = M @ v
        norm = math.sqrt(v @ Mv)
        if not math.isfinite(norm) or norm == 0.0:
            raise SolverError("inverse iteration produced a bad vector")
        v /= norm
        Mv /= norm
        Av = A @ v
        rho = float(v @ Av)
        resid = float(np.linalg.norm(Av - rho * Mv))
        if resid <= tol:
            return rho, v, resid, it
    raise SolverError(
        f"inverse iteration stalled at residual {resid:g}", residual=resid
    )


# ---------------------------------------------------------------------------
# heat content
# ---------------------------------------------------------------------------

def _heat_curve(mesh, horizon, steps_per_decade=400, t_small=None):
    """Implicit-Euler heat-content curve on a dyadic step ladder.

    With m = ``steps_per_decade`` steps per decade between ``t_small`` and
    the horizon T, and dt0 = T / m^2, every step is dt0 * 2^j: the local
    spacing 2 sqrt(t T) / m of the quadratic grid T (k/m)^2, rounded down
    to a power-of-two multiple of dt0; the last step is cut to end at T.
    Every time is a whole multiple of dt0, so the curve ends exactly at the
    horizon. The rungs only grow, so there is one factorization per step
    size, and only one is live at a time. Memoized per assembly.
    """
    asm = assemble(mesh)
    key = (float(horizon), float(t_small or 0.0), steps_per_decade)
    cached = asm._heat_cache.get(key)
    if cached is not None:
        return cached
    decades = 1
    if t_small and 0 < t_small < horizon:
        decades = max(1, math.ceil(math.log10(horizon / t_small)))
    m = steps_per_decade * decades
    total = m * m  # the horizon in units of dt0
    dt0 = horizon / total
    K, M = asm.K_II, asm.M_II
    m1 = asm.mass_times_one[asm.interior]
    ticks = [0]  # times in units of dt0
    q = [float(asm.mass_times_one.sum())]  # Q(0) = mesh area
    v = m1  # rhs of the first step projects the full 1
    lu = None
    rung = 0
    while ticks[-1] < total:
        k = ticks[-1]
        # largest 2^j <= 2 sqrt(k), from 4^j <= 4k in integers
        step = min(1 << max(0, ((4 * k).bit_length() - 1) // 2), total - k)
        if step != rung:
            lu = None  # release the last rung's factors before the next
            lu = _factorize(M + (step * dt0) * K)
            rung = step
        v = lu.solve(v if k == 0 else M @ v)
        ticks.append(k + step)
        q.append(float(m1 @ v))
    curve = HeatContentCurve(
        horizon * (np.array(ticks) / total), np.array(q),
        f"implicit-euler dyadic m={m}",
    )
    asm._heat_cache[key] = curve
    return curve


def heat_content(mesh, times, steps_per_decade=400):
    """Heat content Q(t) at the requested times.

    Implicit-Euler stepping of M v' = -K v from unit initial temperature
    with a cold boundary, on a dyadic step ladder refined toward t = 0,
    one factorization per step size. Values at the requested times come
    from linear interpolation on the substep grid, which is denser than any
    sensible request.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise GeometryError("times must be a non-empty 1D array")
    if (not np.all(np.isfinite(times)) or times.min() <= 0
            or np.any(np.diff(times) <= 0)):
        raise GeometryError("times must be finite, positive and increasing")
    diam = _mesh_diameter(mesh)
    if times.max() > diam**2 * (1.0 + 1e-12):
        raise GeometryError(
            f"largest time {times.max():g} exceeds diam(domain)^2 = "
            f"{diam**2:g}; the heat content is uninformative there"
        )
    curve = _heat_curve(mesh, float(times.max()), steps_per_decade,
                        t_small=float(times.min()))
    vals = np.interp(times, curve.times, curve.values)
    return HeatContentCurve(times, vals, curve.scheme)


def _mesh_diameter(mesh):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return float(np.linalg.norm(hi - lo))


def laplace_transform_check(mesh, s, steps_per_decade=400):
    """Both sides of the identity int U_s = int_0^inf e^{st} Q(t) dt.

    The left side is the mesh integral of the resolvent solution; the
    right side integrates the computed heat curve by the trapezoid rule
    with an exponential tail closure using the Dirichlet ground energy.
    Returns a dict with keys ``lhs`` and ``rhs``.
    """
    s = float(s)
    if s >= 0:
        raise GeometryError("laplace_transform_check requires s < 0")
    lhs = solve_resolvent(mesh, s).integral()
    horizon = _mesh_diameter(mesh) ** 2
    curve = _heat_curve(mesh, horizon, steps_per_decade,
                        t_small=horizon * 1e-3)
    weights = np.exp(s * curve.times) * curve.values
    rhs = float(np.trapezoid(weights, curve.times))
    e1 = estimate_dirichlet_e1(mesh)
    rhs += curve.values[-1] * math.exp(s * horizon) / (e1 - s)
    return {"lhs": lhs, "rhs": rhs}
