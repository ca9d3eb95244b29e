"""Sparse P1 finite-element core.

Assembles stiffness and mass matrices and the lumped boundary-mass
diagonal; models G(s) = int U_s on a rational Krylov space, a small dense
pencil per mesh built from one factorization at the pole 0 (and one at
-s_cap on steeply graded meshes), which also yields the Dirichlet ground
energy E1; solves (-Lap - s) u = 1, zero on the boundary, by the model's
Galerkin solution wherever its residual certifies it, and a direct solve
elsewhere; recovers boundary fluxes variationally; computes principal
Robin eigenvalues by block-one LOBPCG, mostly with one factorization per
solve and none when the start already meets the residual tolerance; and
gives the Dirichlet heat content from the same model's Ritz pairs at the
trailing requested times their nested error estimate vouches for. Earlier
times, and the Laplace check of the heat curve, time-step the heat
equation by one implicit-Euler start-up step and BDF2 on a dyadic step
ladder, one factorization per system met. The Laplace check stops stepping
once the model shows the heat outside the ground mode below e^-12 |Omega|,
at 12 / E1 at the latest, and closes the tail with the ground mode, which
misses at most e^-12 of |Omega| / (E1 - s).

K and M share one CSR pattern, the mesh's edge table read with no second
sort (K keeps its exact zeros), and so do their interior blocks. Every
system factorized is k K + m M + diag(d), on all nodes or on the interior
ones, and every factorization goes through ``_factorize``. It writes the
system's band straight from the mesh's band scatter, which maps the entries
of the shared pattern into LAPACK band storage in the mesh's reverse
Cuthill-McKee order and is built once per ``Assembly`` and node set, and
factorizes it by LAPACK band Cholesky. No sparse sum is formed: only
SuperLU, with a symmetric minimum-degree ordering and diagonal pivots, gets
the system as a sparse matrix, for a band of more than 2**23 entries. Both
refuse a system that is not positive definite (``SolverError``).
``robinopt`` loads scipy's OpenBLAS single-threaded unless the caller set
``OPENBLAS_NUM_THREADS``, since a second thread stalls the band kernel. At
most one factorization is live at a time. Other sums of matrices are
applied, not built: K + B(sigma) as K v + d * v and K - s M as
K v - s (M v).

All solves are deterministic. Assembled matrices, their interior blocks,
band scatters, the resolvent model (with E1), and heat curves are memoized
on the mesh's ``Assembly``, which refers back to the mesh only weakly, so a
dropped mesh is freed at once; resolvent solutions are not. Values are
never mutated after construction, so sharing meshes across threads is safe.
"""

import functools
import math
import numbers
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs, dsygv
from scipy.sparse.csgraph import reverse_cuthill_mckee
# cg and eigsh are not called here; they stay bound because the benchmark
# tracer (and some tests) patch and count fem.splu, fem.cg and fem.eigsh by
# name
from scipy.sparse.linalg import cg, eigsh, splu

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

# residual bound of every Robin eigenpair robin_principal_eigenvalue returns
_EIGEN_TOL = 1e-8
# heat-ladder resolution, and the most decades it spans: its least time is
# floored at 1e-12 of its horizon, so no least time, a subnormal one
# included, costs more than 1726 steps
_STEPS_PER_DECADE = 100
_LADDER_DECADES = 12


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
        try:
            values = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise GeometryError("boundary values must be numbers") from None
        if values.shape != (len(mesh.boundary_nodes),):
            raise GeometryError(
                "boundary values must align with mesh.boundary_nodes"
            )
        if not np.isfinite(values).all():
            raise GeometryError("boundary values must be finite")
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
    ground energy. ``nested_ritz`` and ``nested_loadings`` are the same
    pairs for the first ``_KRYLOV_DEPTH // 2`` basis vectors alone.
    """

    ritz: np.ndarray
    vectors: np.ndarray
    loadings: np.ndarray
    e1: float
    nested_ritz: np.ndarray
    nested_loadings: np.ndarray

    def __call__(self, s):
        """G~(s) and its derivative G~'(s) = sum_i c_i^2 / (ritz_i - s)^2."""
        d = 1.0 / (self.ritz - s)
        terms = self.loadings**2 * d
        return float(terms.sum()), float(terms @ d)

    def galerkin(self, s):
        """Interior values of the Galerkin solution V (c / (ritz - s))."""
        return self.vectors @ (self.loadings / (self.ritz - s))

    def heat(self, times):
        """Q~(t) = sum_i c_i^2 e^{-ritz_i t} at ``times``, full and nested.

        Q~ is the shift-and-invert Krylov approximation of m' e^{-tA} 1,
        A = M^-1 K, whose Laplace transform is G~. Returns the sums over the
        full and the nested pairs, each an array over ``times``.
        """
        times = np.asarray(times, dtype=float)[:, None]
        return tuple(np.exp(-times * ritz) @ loadings**2
                     for ritz, loadings in
                     ((self.ritz, self.loadings),
                      (self.nested_ritz, self.nested_loadings)))

    def excited_heat(self, t):
        """Heat outside the ground mode at time t, with its error estimate.

        R~(t) + |Q~_16(t) - Q~_8(t)|, where R~ = Q~_16 - c_1^2 e^{-ritz_1 t}
        is the model's heat outside its lowest Ritz pair.
        """
        (full,), (nested,) = self.heat([t])
        ground = self.loadings[0] ** 2 * math.exp(-self.ritz[0] * t)
        return float(full - ground + abs(full - nested))


@dataclass(frozen=True)
class SpectralResult:
    eigenvalue: float
    eigenfunction: FieldSolution
    residual_norm: float
    iterations: int


class Assembly:
    """Assembled P1 matrices for one mesh, on the pattern of its edge table.

    Attributes
    ----------
    K : stiffness, symmetric positive semidefinite, kernel = constants
    M : consistent mass, symmetric positive definite; CSR on K's pattern
    K_II, M_II : their interior blocks (CSR, one pattern), the Dirichlet
        systems
    boundary_node_weights : lumped boundary measure per boundary node
    order : reverse Cuthill-McKee order of all nodes, on the shared pattern
    interior_order : ``order`` restricted to the interior nodes, as
        positions in K_II
    scatter, interior_scatter : band scatters (``_BandScatter``) of K and
        M in ``order`` and of K_II and M_II in ``interior_order``, each
        built on first use, like ``model``; ``_factorize`` writes the band
        of every system on the mesh through one of them
    model : the ``ResolventModel`` (see ``resolvent_model``)

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
        self.K_II, self.M_II = _blocks(self.K, self.M, mask)
        self.mass_times_one = np.asarray(self.M @ np.ones(n))
        self.order = reverse_cuthill_mckee(self.M, symmetric_mode=True)
        position = np.full(n, -1)
        position[idx] = np.arange(len(idx))
        inner = position[self.order]
        self.interior_order = inner[inner >= 0]
        self._heat_cache = {}

    @property
    def mesh(self):
        return self._mesh()

    @functools.cached_property
    def scatter(self):
        return _BandScatter(self.K, self.M, self.order)

    @functools.cached_property
    def interior_scatter(self):
        return _BandScatter(self.K_II, self.M_II, self.interior_order)

    @functools.cached_property
    def model(self):
        """The ``ResolventModel``, built as ``resolvent_model`` describes."""
        K, M = self.K_II, self.M_II
        m1 = self.mass_times_one[self.interior]
        s_cap = _s_cap(self.mesh)
        area = self.mass_times_one.sum()
        poles = (0.0,) if s_cap * area <= _ONE_POLE_REACH else (-s_cap, 0.0)
        Q = np.empty((len(m1), _KRYLOV_DEPTH), order="F")
        MQ = np.empty_like(Q)
        k = 0
        for p in poles:
            lu = None  # release the last pole's factors before the next
            lu = _factorize(self.interior_scatter, 1.0, -p)
            rhs = m1
            for _ in range(_KRYLOV_DEPTH // len(poles)):
                w = lu.solve(rhs)
                c = MQ[:, :k].T @ w
                w -= Q[:, :k] @ c
                w -= Q[:, :k] @ (MQ[:, :k].T @ w)
                Mw = M @ w
                norm = math.sqrt(w @ Mw)
                # the M-norm of w before the passes is sqrt(|c|^2 + norm^2)
                if not norm > 1e-10 * math.sqrt(c @ c + norm * norm):
                    break
                Q[:, k] = w / norm
                MQ[:, k] = rhs = Mw / norm
                k += 1
        del MQ  # the M-products serve the Gram-Schmidt passes alone
        Q = Q[:, :k]
        T = Q.T @ (K @ Q)
        T = 0.5 * (T + T.T)
        ritz, Y = np.linalg.eigh(T)
        V = Q @ Y
        e1 = _ground_pair(K, M, 0.0, V[:, 0], 1e-8 * ritz[0], 0.0, 0.0,
                          lambda shift: _factorize(self.interior_scatter, 1.0,
                                                   -shift), lu)[0]
        half = min(k, _KRYLOV_DEPTH // 2)
        nested_ritz, Y = np.linalg.eigh(T[:half, :half])
        return ResolventModel(ritz, V, V.T @ m1, e1, nested_ritz,
                              Y.T @ (Q[:, :half].T @ m1))

    def boundary_diagonal(self, sigma):
        """Diagonal d of the boundary-mass matrix B(sigma), over all nodes.

        Lumped trapezoidal quadrature on boundary edges keeps B diagonal;
        d_i is sigma_i times the boundary measure around node i, and 0 at
        interior nodes. B v is d * v.
        """
        if getattr(sigma, "mesh", None) is not self.mesh:
            raise GeometryError("sigma is not a BoundaryFunction on this mesh")
        d = np.zeros(len(self.mesh.nodes))
        d[self.boundary] = sigma.values * self.boundary_node_weights
        return d


def _assemble_km(mesh):
    """K and M in CSR on one pattern: K stores the zeros its terms cancel to.

    The pattern is the mesh's edge table (``Mesh.edge_keys``), so no second
    sort finds it: row i holds the edges whose larger end is i, the
    diagonal, then the edges whose smaller end is i. A diagonal entry sums
    its terms by local vertex, then by triangle; an edge has at most two
    triangles, and a sum of two terms does not depend on their order, so
    both matrices are exactly symmetric.
    """
    p, t = mesh.nodes, np.ascontiguousarray(mesh.triangles.T)
    n = len(p)
    area = mesh.triangle_areas()
    # edge vectors opposite each local node; side k joins nodes k and k + 1
    ex, ey = (c[[2, 0, 1]] - c[[1, 2, 0]] for c in (p[:, 0][t], p[:, 1][t]))
    lo, hi = np.divmod(mesh.edge_keys, n)
    # a[i], b[i]: the edges whose smaller, larger end is below i; row i
    # starts after i diagonals and a[i] + b[i] edge entries
    a, b = (np.concatenate(([0], np.cumsum(np.bincount(v, minlength=n))))
            for v in (lo, hi))
    rows = np.arange(n + 1)
    indptr = (rows + a + b).astype(np.int32)
    diagonal = rows[:-1] + a[:-1] + b[1:]
    # the e-th edge by (lo, hi) and the e-th by (hi, lo) (stably by hi) have
    # e + lo + 1 + b[lo + 1] and e + hi + a[hi] entries before them
    e, by_hi = np.arange(len(lo)), np.argsort(hi, kind="stable")
    upper, lower, h = lo + b[lo + 1] + 1 + e, np.empty_like(e), hi[by_hi]
    lower[by_hi] = e + h + a[h]
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[diagonal], indices[upper], indices[lower] = rows[:-1], hi, lo

    def csr(d, o):
        data = np.empty(len(indices))
        data[diagonal] = np.bincount(t.ravel(), d.ravel(), minlength=n)
        data[upper] = data[lower] = np.bincount(
            mesh.side_edges.T.ravel(), o.ravel(), minlength=len(lo))
        return sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    q, nxt = 4.0 * area, [1, 2, 0]
    K = csr((ex * ex + ey * ey) / q, (ex * ex[nxt] + ey * ey[nxt]) / q)
    del ex, ey  # K's terms and inputs are freed before M's are made
    return K, csr(np.tile(area / 6.0, 3), np.tile(area / 12.0, 3))


def _blocks(K, M, keep):
    """CSR blocks of K and M, which share a pattern, on the nodes ``keep``
    marks; the two blocks share one pattern too."""
    entries = np.repeat(keep, np.diff(K.indptr)) & keep[K.indices]
    kept = np.concatenate(([0], np.cumsum(entries)))
    rows = np.append(np.flatnonzero(keep), len(keep))
    pattern = ((np.cumsum(keep) - 1)[K.indices[entries]].astype(np.int32),
               kept[K.indptr[rows]].astype(np.int32))
    n = len(rows) - 1
    return tuple(sparse.csr_matrix((A.data[entries], *pattern), shape=(n, n))
                 for A in (K, M))


def assemble(mesh):
    """Assembled matrices for ``mesh`` (memoized on the mesh object)."""
    asm = getattr(mesh, "_robinopt_assembly", None)
    if asm is None:
        asm = Assembly(mesh)
        mesh._robinopt_assembly = asm
    return asm


# entries (b + 1) n of a band factor, b its bandwidth, past which
# _factorize hands a system to SuperLU (64 MB). On P1 meshes a band grows
# like n^1.5 and SuperLU's fill like n log n: on the unit disk at h = 0.01
# (31k interior nodes, b = 240) the band holds 7.5M entries against 2.6M in
# SuperLU's L and U, and is still faster (124 against 160 ms). The
# benchmark's largest band holds 1.3M
_BAND_BUDGET = 2**23


class _BandScatter:
    """Where the entries of K and M go in a band matrix of one order.

    Every system the program factorizes is k K + m M + diag(d) on one mesh,
    K and M both its full matrices or both their interior blocks, on one
    shared CSR pattern. In ``order``, a reverse Cuthill-McKee order of their
    nodes, the scatter keeps ``width``, the band's half-bandwidth b, which
    stored entries of the pattern lie in the permuted lower triangle
    (``lower``; the matrices are exactly symmetric, so the entries of one
    triangle stand for both), and their flat positions in LAPACK's lower
    band storage (``pos``): A[i, j] at band[i - j, j] of a (b + 1) x n array
    in Fortran order. Both matrices use the one mask and the one position
    array. ``diagonal`` is the flat position of each node's diagonal entry.
    A band of more than ``_BAND_BUDGET`` entries gets no positions (None):
    ``_factorize`` hands its systems to SuperLU.
    """

    def __init__(self, K, M, order):
        self.K, self.M, self.order = K, M, order
        self.n = n = len(order)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        self.lower, self.pos, self.width = _band_positions(M, rank)
        if (self.width + 1) * n > _BAND_BUDGET:
            self.pos = self.diagonal = None
            return
        self.diagonal = (self.width + 1) * rank


def _band_positions(A, rank):
    """Where the stored entries of a symmetric CSR A go in lower band storage.

    A is permuted to ``rank`` order. An entry whose row does not precede
    its column stands for A's lower triangle, and by symmetry these entries
    are all of it. Returns their mask among ``A.data``, their flat positions
    in a band of A's half-bandwidth, and that width.
    """
    major = rank[np.repeat(np.arange(len(rank)), np.diff(A.indptr))]
    minor = rank[A.indices]
    diagonal = major - minor
    lower = diagonal >= 0
    width = int(diagonal.max(initial=0))
    position = diagonal + (width + 1) * minor
    return lower, position[lower].astype(np.int32), width


class _BandCholesky:
    """Lower band Cholesky factor of A[order][:, order]; solves A x = b."""

    def __init__(self, band, order):
        self._band = band
        self._order = order

    def solve(self, rhs):
        y = dpbtrs(self._band, rhs[self._order], lower=1)[0]
        x = np.empty_like(y)
        x[self._order] = y
        return x


def _factorize(scatter, k, m, d=None):
    """Factors of A = k K + m M + diag(d), with a ``solve(rhs)`` method.

    K and M are the matrices of ``scatter`` (an ``Assembly``'s ``scatter`` or
    ``interior_scatter``), d is 0 when None. The scatter's reverse
    Cuthill-McKee order narrows the band of P1 systems to b = 20-130 on the
    benchmark's n = 1.2k-11k nodes, and A is written straight into LAPACK band
    storage in that order, at the scatter's positions of their shared pattern,
    in the steps k K, then d on the diagonal, then m M, each rounded as the
    sparse sum (k K + diag(d)) + m M would round it. A LAPACK band Cholesky
    (``dpbtrf``) factorizes it, the envelope method for sparse SPD systems
    (George and Liu, 1981), faster than SuperLU there. Past ``_BAND_BUDGET``
    entries SuperLU factorizes that sum, built as a sparse matrix, with a
    symmetric minimum-degree order (MMD on A' + A), diagonal pivots and its
    symmetric mode. Factors are returned only for a positive definite A, and
    any other A is a ``SolverError``: the band Cholesky fails, and SuperLU's
    pivots (U's diagonal, in one order for rows and columns) are those of A's
    LDL', whose signs are A's inertia (Sylvester). The band kernel is fastest
    single-threaded; ``robinopt`` loads scipy's OpenBLAS with one thread unless
    the caller set ``OPENBLAS_NUM_THREADS``.
    """
    K, M = scatter.K, scatter.M
    if scatter.pos is not None:
        # the products come before the band: allocated after it, glibc
        # grows the heap by a band on the optimality benchmark (peak RSS
        # 98.3 against 96.7 MB)
        kv = k * K.data[scatter.lower]
        mv = m * M.data[scatter.lower]
        band = np.zeros((scatter.width + 1) * scatter.n)
        band[scatter.pos] = kv
        if d is not None:
            band[scatter.diagonal] += d
        band[scatter.pos] += mv
        band, info = dpbtrf(band.reshape(scatter.width + 1, -1, order="F"),
                            lower=1, overwrite_ab=1)
        if info:
            raise SolverError("system is not positive definite")
        return _BandCholesky(band, scatter.order)
    A = k * K
    if d is not None:
        A = A + sparse.diags(d)
    try:
        lu = splu((A + m * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError:  # an exactly singular pivot
        lu = None
    if (lu is None or not np.array_equal(lu.perm_r, lu.perm_c)
            or not (lu.U.diagonal() > 0).all()):
        raise SolverError("system is not positive definite")
    return lu


def _solve_spd(scatter, m, rhs):
    """Direct solve of the SPD system (K + m M) x = b, residual-checked.

    K and M are the matrices of ``scatter``. ``SolverError`` if
    ``_factorize`` refuses the system or its solution misses the gate
    ||K x + m M x - b|| <= 1e-10 (1 + ||b||). Next to a singular shift
    that gate sits below the rounding floor of the residual, and neither
    refinement nor conjugate gradients get under it, so there is no
    fallback.
    """
    rhs = np.asarray(rhs, dtype=float)
    gate = 1e-10 * (1.0 + np.linalg.norm(rhs))
    x = _factorize(scatter, 1.0, m).solve(rhs)
    resid = float(np.linalg.norm(scatter.K @ x + m * (scatter.M @ x) - rhs))
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
# heat-content shifts of the benchmark meshes, where the model has the one
# pole 0, it is 2.6e-14 to 2.6e-13, against 1.1e-14 to 1.6e-13 for a direct
# solve; |F - F~| <= s^2 ||U_s|| ||r||.
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
    shifts; otherwise a direct sparse solve gives u. Nothing is memoized; u
    depends only on the mesh and s. Valid for any s <= 0 and for 0 < s
    below the first Dirichlet eigenvalue. Warns when the mesh boundary
    spacing is too coarse to resolve the |s|**-1/2 boundary layer.
    """
    s = float(s)
    asm = assemble(mesh)
    model = resolvent_model(mesh)
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
        u_int = _solve_spd(asm.interior_scatter, -s, m1)
    if u_int.min() <= 0.0:
        raise SolverError(
            f"resolvent solution lost positivity (min {u_int.min():g}); "
            "the mesh cannot resolve this shift"
        )
    u = np.zeros(len(mesh.nodes))
    u[idx] = u_int
    return FieldSolution(mesh, u, TAG_TORSION if s == 0.0 else TAG_RESOLVENT)


# Krylov vectors of the resolvent model, shared evenly among its poles
_KRYLOV_DEPTH = 16
# s_cap |Omega| up to which the pole 0 serves alone: by Faber-Krahn,
# E1 >= 18.17 / |Omega|, so s_cap <= 330 E1 there. Beyond, on meshes graded
# for mu near -200 and below, the pole -s_cap saves more LUs than it costs
_ONE_POLE_REACH = 6000.0


def resolvent_model(mesh):
    """Rational Krylov model of G(s) = int U_s, and E1 (``Assembly.model``).

    The poles are 0 alone, or -s_cap and 0 when s_cap |Omega| exceeds
    ``_ONE_POLE_REACH``, with -s_cap the most negative shift the mesh
    resolves. Each pole p gives the vectors ((K - pM)^-1 M)^j (K - pM)^-1 m,
    j = 0, 1, ..., on the interior nodes, m the mass vector of the constant
    one: 16 vectors, shared evenly among the poles. One factorization per
    pole, each released before the next is built. Two Gram-Schmidt passes
    M-orthonormalize each new vector against all before it, projecting with
    the stored products M Q, so a vector costs one M-product, which is the
    right-hand side of the next solve. K is projected on the basis; the
    eigenpairs of that small matrix give the model. Pole 0 comes last: its
    factors precondition LOBPCG (``_ground_pair``) on the Dirichlet pencil
    from the lowest Ritz vector, which gives the ground energy E1 in few
    steps or none. No factorization outlives the build.
    """
    return assemble(mesh).model


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
    residual = asm.K @ u.values - s * (asm.M @ u.values) - asm.mass_times_one
    vals = residual[asm.boundary] / asm.boundary_node_weights
    return BoundaryFunction(mesh, vals)


def estimate_dirichlet_e1(mesh):
    """First Dirichlet eigenvalue, read off the mesh's resolvent model."""
    return resolvent_model(mesh).e1


def robin_principal_eigenvalue(mesh, sigma, v0=None):
    """Principal eigenvalue of the Robin problem with parameter ``sigma``.

    Solves (K + B(sigma)) u = lambda M u for its least eigenvalue with
    ``_ground_pair``. Without ``v0`` the start is the constants and the
    shift -1.5 max(-sigma)^2 - 1. A ``v0`` is the start, with the shift just
    below its Rayleigh quotient, unless it changes sign: then the solve
    starts cold. A refused shift is lowered, never below 4 min(d / m, 0) - 1
    (d the diagonal of B, m the lumped masses). A start whose residual is at
    most ``_EIGEN_TOL`` (1e-8) returns after 0 iterations, with no matrix or
    band scatter built, as u_mu does for sigma_mu and the constants for
    sigma = 0. The eigenfunction is M-normalized with a positive mean, and its
    residual is at most ``_EIGEN_TOL``. It is positive where the discrete
    ground state is; a concentrated sigma can make that state change sign,
    and it is then returned as it is. ``SolverError`` after 200 iterations;
    ``GeometryError`` for a sigma too large to square or a bad ``v0``.
    """
    asm = assemble(mesh)
    d = asm.boundary_diagonal(sigma)
    sigma_neg_max = max(0.0, float(-sigma.values.min()))
    tau = -1.5 * sigma_neg_max * sigma_neg_max - 1.0
    if not math.isfinite(tau):
        raise GeometryError(f"sigma {-sigma_neg_max:g} is too large to square")
    v, shift = np.ones(len(mesh.nodes)), tau
    if v0 is not None:
        try:
            v0 = np.array(v0, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise GeometryError("v0 must be an array of numbers") from None
        if v0.shape != v.shape or not np.isfinite(v0).all() or not v0.any():
            raise GeometryError(f"v0 needs {len(v)} finite numbers, not all 0")
        if v0 @ asm.mass_times_one < 0:
            v0 = -v0
        if v0.min() >= -1e-6 * v0.max():
            v, shift = v0, None
    # K + B - floor M >= M: K >= 0 and M >= diag(m) / 4, m the lumped masses
    floor = 4.0 * min(0.0, float((d / asm.mass_times_one).min())) - 1.0
    lam, v, resid, its = _ground_pair(
        asm.K, asm.M, d, v, _EIGEN_TOL, shift, floor,
        lambda shift: _factorize(asm.scatter, 1.0, -shift, d))
    v = v if v @ asm.mass_times_one > 0 else -v
    return SpectralResult(lam, FieldSolution(mesh, v, TAG_EIGENFUNCTION),
                          resid, its)


def _ground_pair(K, M, d, v, tol, shift, floor, factor, lu=None):
    """Lowest eigenpair of (K + diag(d), M) by block-one LOBPCG from ``v``.

    Rayleigh-Ritz on the M-normalized iterate x, the preconditioned residual
    T r and the last step (Knyazev, SIAM J. Sci. Comput. 23(2), 2001), with
    T = (K + diag(d) - shift M)^-1 from ``factor(shift)``, or from ``lu`` at
    the first shift. A start that meets ``tol`` returns after 0 steps, with
    nothing factorized. A ``shift`` of None or above rho is reset to
    rho - 0.05 (1 + |rho|); after 15 steps at one shift it moves up to
    rho - 2 ||r||_{M^-1} if that is higher. ``factor`` raises ``SolverError``
    on a system that is not positive definite: the shift is then lowered by
    0.05 (1 + |shift|), each further refusal 4 times as far, but never
    below ``floor``, where a refusal is final. Once a factor succeeds,
    shift < lambda_1 <= rho for the rest of the solve. Returns
    (rho, x, residual, steps); ``SolverError`` after 200 steps.
    """
    n = len(v)
    S, AS, MS = (np.empty((n, 3), order="F") for _ in range(3))
    S[:, 0] = v
    x, w = S[:, 0], S[:, 1]
    k, held = 2, 0  # k: columns in use, x w and then p
    for it in range(201):
        Mx = M @ x
        norm = math.sqrt(x @ Mx)
        if not 0.0 < norm < math.inf:
            raise SolverError("eigen iteration produced a bad vector")
        x /= norm
        Mx /= norm
        Ax = K @ x + d * x
        rho = float(x @ Ax)
        r = Ax - rho * Mx
        resid = float(np.linalg.norm(r))
        if resid <= tol:
            return rho, x.copy(), resid, it
        if it == 200:
            break
        if shift is None or rho < shift:
            shift, lu, held = rho - 0.05 * (1.0 + abs(rho)), None, 0
        elif held >= 15:  # a near shift separates clustered low modes
            # by M <= diag(m) <= 4 M for the lumped masses m = M 1
            near = rho - 4.0 * math.sqrt(r @ (r / (M @ np.ones(n))))
            if near > shift:
                shift, lu, held = near, None, 0
        step = 0.05 * (1.0 + abs(shift))
        while lu is None:
            try:
                lu = factor(shift)
            except SolverError:
                if shift <= floor:
                    raise
                shift, step = max(shift - step, floor), 4.0 * step
        held += 1
        w[:] = lu.solve(r)
        w -= (Mx @ w) * x
        Mw = M @ w
        norm = math.sqrt(w @ Mw)
        w /= norm
        AS[:, 0], AS[:, 1] = Ax, K @ w + d * w
        MS[:, 0], MS[:, 1] = Mx, Mw / norm
        G_A = S[:, :k].T @ AS[:, :k]
        G_M = S[:, :k].T @ MS[:, :k]
        # p (nearly) in the span of x and w, which are M-orthonormal: drop it
        if k == 3 and G_M[0, 2]**2 + G_M[1, 2]**2 > 1.0 - 1e-12:
            k, G_A, G_M = 2, G_A[:2, :2], G_M[:2, :2]
        y, info = dsygv(G_A, G_M)[1:]
        if info:
            raise SolverError("eigen iteration lost its Rayleigh-Ritz basis")
        # the step p = w y1 + p y2, kept M-normalized, and x <- x y0 + p
        y = y[:, 0] / math.sqrt(y[1:, 0] @ G_M[1:, 1:] @ y[1:, 0])
        for block in (S, AS, MS):
            block[:, 2] = block[:, 1:k] @ y[1:]
        x *= y[0]
        x += S[:, 2]
        k = 3
    raise SolverError(f"eigen iteration stalled at residual {resid:g}",
                      residual=resid)


# ---------------------------------------------------------------------------
# heat content
# ---------------------------------------------------------------------------

def _heat_curve(mesh, horizon, steps_per_decade=_STEPS_PER_DECADE,
                t_small=None, tail_stop=None):
    """BDF2 heat-content curve on a dyadic step ladder.

    With m = ``steps_per_decade`` steps per decade between ``t_small`` and
    the horizon T, and dt0 = T / m^2, the first step is one implicit-Euler
    step of 4 dt0, (M + 4 dt0 K) v_1 = M v_0. From tick 4 on, each step is
    dt0 * 2^j: the local spacing 2 sqrt(t T) / m of the quadratic grid
    T (k/m)^2, rounded down to a power-of-two multiple of dt0, so every
    tick is a multiple of its step unless the step was held back (below);
    the last step is cut to end at T.
    Every time is a whole multiple of dt0, so the curve ends exactly at the
    horizon. With ``tail_stop`` k it ends instead at the first tick t where
    the heat outside the ground mode is shown to be at most e^-k |Omega|:
    by the resolvent model's ``excited_heat``, or by the bound
    e^{-E1 t} |Omega| once t >= k / E1, whichever comes first. The model is
    asked only from max_{i>1} ln(c_i^2 e^k / |Omega|) / ritz_i on: before,
    one of its terms alone exceeds the bound.
    A step grows only while dt rho <= 1/2, with rho >= E1 the Rayleigh
    quotient of the state: BDF2's roots for the ground mode are real up to
    dt E1 = 1/2, and past it Q(t) oscillates in sign. On short ladders
    stepped far past 1 / E1 (one decade up to diam^2) this holds the step
    back; elsewhere it never binds.

    A step of size dt from tick k solves the constant-step BDF2 system
    (3/2 M + dt K) v_n = M (2 v_{n-1} - v_{n-2} / 2), with v_{n-2} the
    state at tick k - dt: after a rung change, where the step doubles, that
    is the state two fine steps back. Only the start-up step and a cut last
    step, where no state sits there, are implicit Euler. M v of the last
    three states is kept, so a step costs one triangular solve and one mass
    product. There is one factorization per system in the order they are
    met: the start-up step, each BDF2 rung, and a cut last step; only one
    is live at a time. Memoized per assembly; the stop is part of the key.
    """
    asm = assemble(mesh)
    key = (float(horizon), float(t_small or 0.0), steps_per_decade,
           tail_stop)
    cached = asm._heat_cache.get(key)
    if cached is not None:
        return cached
    decades = 1
    if t_small and 0 < t_small < horizon:
        # at most 1e12, so a subnormal t_small gives no overflow either
        ratio = min(horizon / t_small, 10.0 ** _LADDER_DECADES)
        decades = max(1, math.ceil(math.log10(ratio)))
    m = steps_per_decade * decades
    total = m * m  # the horizon in units of dt0
    dt0 = horizon / total
    K, M = asm.K_II, asm.M_II
    m1 = asm.mass_times_one[asm.interior]
    ticks = [0]  # times in units of dt0
    q = [float(asm.mass_times_one.sum())]  # Q(0) = mesh area
    # (tick, M v) of the last three states; M v(0) = m1 projects the full 1
    recent = [(0, m1)]
    model, stop, probe = None, math.inf, math.inf
    if tail_stop is not None:
        model = resolvent_model(mesh)
        stop = tail_stop / model.e1
        floor = math.exp(-tail_stop) * q[0]
        # each term c_i^2 e^{-ritz_i t}, i > 1, bounds excited_heat from
        # below, so the model cannot show the stop before the latest time
        # one of them reaches floor; it is asked only from then on
        probe = max((math.log(c2 / floor) / ritz for c2, ritz
                     in zip(model.loadings[1:] ** 2, model.ritz[1:])
                     if c2 > floor), default=0.0)
    lu = None
    system = None  # (BDF2?, step) of the live factors
    step = 0  # the last step, in units of dt0
    while (ticks[-1] < total and ticks[-1] * dt0 < stop
           and (ticks[-1] * dt0 < probe
                or model.excited_heat(ticks[-1] * dt0) > floor)):
        k = ticks[-1]
        Mv = recent[-1][1]
        # largest 2^j <= 2 sqrt(k), from 4^j <= 4k in integers; 4 at k = 0
        grow = min(1 << ((4 * max(k, 4)).bit_length() - 1) // 2, total - k)
        # the step grows only while rho dt <= 1/2, rho >= E1 the Rayleigh
        # quotient of the state: past that, the BDF2 roots of the ground
        # mode are complex and Q(t) oscillates in sign near the horizon
        if grow > step > 0 and grow * dt0 * (v @ (K @ v)) > 0.5 * (v @ Mv):
            grow = step
        step = grow
        back = next((Mv for t, Mv in recent if t == k - step), None)
        bdf2 = back is not None
        if (bdf2, step) != system:
            lu = None  # release the last system's factors before the next
            lu = _factorize(asm.interior_scatter, step * dt0,
                            1.5 if bdf2 else 1.0)
            system = (bdf2, step)
        v = lu.solve(2.0 * Mv - 0.5 * back if bdf2 else Mv)
        ticks.append(k + step)
        recent = recent[-2:] + [(k + step, M @ v)]
        q.append(float(m1 @ v))
    curve = HeatContentCurve(
        horizon * (np.array(ticks) / total), np.array(q),
        f"bdf2 dyadic m={m}",
    )
    asm._heat_cache[key] = curve
    return curve


def _check_tol(tol):
    """``SolverError`` unless ``tol`` is a finite positive number."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not 0 < tol < math.inf):
        raise SolverError(f"tolerance {tol!r} is not finite and positive")


# |Q~_16 - Q~_8| over Q~_16(0) - Q~_16(t) up to which heat_content takes the
# resolvent model's Q~_16(t). At 25 h^2 on the benchmark meshes that estimate
# is 8e-8 (disk) to 3e-7 (L-shape), where the true error against the exact
# semi-discrete Q is at most 1.2e-11 (disk, L-shape, annulus at h = 0.048)
_HEAT_MODEL_GATE = 1e-6
# Least t pi j01^2 / |Omega| of the largest requested time at which
# heat_content builds the model at all;
# pi j01^2 / |Omega| <= E1 by Faber-Krahn, with equality on the disk. The
# gate passes at this t and every later one from 0.16 to 0.275 on the disk,
# square, triangle, hexagon, 4x1 rectangle and L-shape (h = 0.02 to 0.048),
# and from 0.06 on the 1, 0.5 annulus. Below, the model's LU and solves
# would mostly be spent on a request the ladder serves anyway
_HEAT_MODEL_REACH = 0.28
_FABER_KRAHN = math.pi * 2.404825557695773**2


def heat_content(mesh, times):
    """Heat content Q(t) at the requested times.

    Q(t) = m' v(t), v the semi-discrete solution of M v' = -K v from unit
    initial temperature with a cold boundary, m the mass vector of the
    constant one. The times come from two integrators. The first is the
    resolvent model's Ritz pairs (``resolvent_model``, built once per
    mesh): Q~(t) = sum_i c_i^2 e^{-ritz_i t}, a shift-and-invert Krylov
    approximation whose error at a fixed t does not grow as h shrinks (van
    den Eshof and Hochbruck, SIAM J. Sci. Comput. 27(4), 2006). The
    difference between Q~ on all 16 pairs and on the nested 8 estimates its
    error, and Q~_16 serves the times after the last one where that exceeds
    1e-6 of Q~_16(0) - Q~_16(t). The model is not even built when the
    largest time lies below ``_HEAT_MODEL_REACH`` / (pi j01^2 / |Omega|),
    where the gate fails on every catalogue domain measured but the
    annulus. The other times come from the BDF2 ladder of ``_heat_curve``
    from the least time to the last one the model does not serve, with
    ``_STEPS_PER_DECADE`` (100) steps per decade, at most 12 decades, read
    off by linear interpolation; its time error is second order and below
    1e-4 of the lost heat over [25 h^2, 100 h^2] on h = 0.048 meshes. The
    two are joined only if Q still strictly decreases across the seam;
    otherwise the ladder serves every time. At h = 0.048 the model serves
    that whole window on the disk, square, L-shape and annulus, with no
    factorization of its own; the window scales with h^2, so on finer
    meshes (the unit disk below h = 0.044) the ladder serves it. ``scheme``
    names the integrators used, ladder first.
    """
    try:
        times = np.asarray(times, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise GeometryError("times must be an array of numbers") from None
    if times.ndim != 1 or len(times) == 0:
        raise GeometryError("times must be a non-empty 1D array")
    if (not np.all(np.isfinite(times)) or times.min() <= 0
            or np.any(np.diff(times) <= 0)):
        raise GeometryError("times must be finite, positive and increasing")
    diam = _mesh_diameter(mesh)
    if times.max() > diam**2 * (1.0 + 1e-12):
        raise GeometryError(
            f"largest time {times.max():g} exceeds {diam**2:g}, the squared "
            "diagonal of the mesh's bounding box (at least diam(domain)^2); "
            "the heat content is uninformative there"
        )
    area = assemble(mesh).mass_times_one.sum()
    if times[-1] * _FABER_KRAHN >= _HEAT_MODEL_REACH * area:
        model = resolvent_model(mesh)
        full, nested = model.heat(np.append(0.0, times))
        vals = full[1:]
        scheme = f"krylov ritz k={len(model.ritz)}"
        failed = np.flatnonzero(np.abs(vals - nested[1:])
                                > _HEAT_MODEL_GATE * (full[0] - vals))
        if len(failed) == 0:
            return HeatContentCurve(times, vals, scheme)
        last = failed[-1]
        if last + 1 < len(times):
            curve = _heat_curve(mesh, float(times[last]),
                                t_small=float(times[0]))
            head = np.interp(times[:last + 1], curve.times, curve.values)
            if head[-1] > vals[last + 1]:
                return HeatContentCurve(
                    times, np.concatenate((head, vals[last + 1:])),
                    f"{curve.scheme} + {scheme}")
    curve = _heat_curve(mesh, float(times[-1]), t_small=float(times[0]))
    vals = np.interp(times, curve.times, curve.values)
    return HeatContentCurve(times, vals, curve.scheme)


def _mesh_diameter(mesh):
    """Diagonal of the mesh's bounding box, at least its diameter."""
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return float(np.linalg.norm(hi - lo))


# The Laplace check's heat curve stops at the first tick t* where the heat
# outside the ground mode, R(t*) = sum_{i>1} c_i^2 e^{-lambda_i t*} for
# Q(t) = sum_i c_i^2 e^{-lambda_i t}, is shown to be at most
# e^{-_HEAT_TAIL_STOP} |Omega|, and is closed by Q(t*) e^{s t*} / (E1 - s).
# The closure is exact on the ground mode and overstates only the higher
# ones, by at most R(t*) e^{s t*} / (E1 - s) <= e^{-12} |Omega| / (E1 - s),
# about 6e-6 of the tail's scale. The resolvent model shows it by
# R~(t) + |Q~_16(t) - Q~_8(t)| (``ResolventModel.excited_heat``), at 1.7 to
# 4.6 / E1 on the disk, L-shape, annulus and square at h = 0.048, where
# dense eigh gives R(t*) = 4.8e-6 to 5.9e-6 |Omega|; the bound
# R(t) <= e^{-E1 t} |Omega| shows it at 12 / E1 at the latest, where
# two-pole models stop. By Faber-Krahn and the isodiametric inequality
# E1 diam^2 >= 4 j01^2 = 23.1, so t* lies inside the horizon diam^2
_HEAT_TAIL_STOP = 12.0


def laplace_transform_check(mesh, s):
    """Both sides of the identity int U_s = int_0^inf e^{st} Q(t) dt.

    The left side is the mesh integral of the resolvent solution. The right
    side steps the heat ladder of ``_heat_curve`` for the horizon
    T = diam^2 (t_small = T / 1000) only up to its first tick t* where the
    resolvent model's estimate of the heat outside the ground mode, or the
    bound e^{-E1 t} |Omega| (so at 12 / E1 at the latest), is at most
    e^{-12} |Omega|, E1 the Dirichlet ground energy of the model; it
    integrates that curve by the trapezoid rule and closes the tail with
    Q(t*) e^{s t*} / (E1 - s), which misses at most e^{-12} of |Omega| /
    (E1 - s) (see ``_HEAT_TAIL_STOP``). The model only chooses the stop:
    both sides stay independent. The curve is shared by every s on the
    mesh. ``s`` must be finite and negative. Returns a dict with keys
    ``lhs``, ``rhs``, ``t_stop`` (t*) and ``tail_bound``
    (e^{-12} |Omega| / (E1 - s)).
    """
    try:
        s = float(s)
    except (TypeError, ValueError, OverflowError):
        raise GeometryError(f"s must be a number, got {s!r}") from None
    if not (math.isfinite(s) and s < 0):
        raise GeometryError(
            f"laplace_transform_check requires a finite s < 0, got {s!r}")
    lhs = solve_resolvent(mesh, s).integral()
    horizon = _mesh_diameter(mesh) ** 2
    e1 = resolvent_model(mesh).e1
    curve = _heat_curve(mesh, horizon, t_small=horizon * 1e-3,
                        tail_stop=_HEAT_TAIL_STOP)
    weights = np.exp(s * curve.times) * curve.values
    rhs = float(np.trapezoid(weights, curve.times) + weights[-1] / (e1 - s))
    tail_bound = math.exp(-_HEAT_TAIL_STOP) * curve.values[0] / (e1 - s)
    return {"lhs": lhs, "rhs": rhs, "t_stop": float(curve.times[-1]),
            "tail_bound": float(tail_bound)}
