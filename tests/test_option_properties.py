"""Property tests: numeric options of the Robin eigensolver and the root
solve end in a result or a RobinoptError, never in another exception or a
silently wrong answer.

A tolerance that is not finite and positive is a ``SolverError``, as it is
for the root solve; a boundary parameter or start vector that cannot be
used is a ``GeometryError``. Examples are drawn deterministically and no
example database is kept, so the tests are reproducible and leave nothing
in the tree.
"""

import math
import tempfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from robinopt import (
    BoundaryFunction,
    Domain,
    GeometryError,
    RobinoptError,
    SolverError,
    assemble,
    generate_mesh,
    optimize,
    robin_principal_eigenvalue,
)

# Hypothesis caches the constants it mines from the source at collection
# time; the directory is removed when the interpreter exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)

MESH = generate_mesh(Domain.disk(1.0), 0.2)
NODES = len(MESH.nodes)
NB = len(MESH.boundary_nodes)
SIGMA = BoundaryFunction.constant(MESH, -1.0)

# edge values of the float range alongside arbitrary floats
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e-8,
         1.0, 1e300, -1e-8, -1.0)
floats = st.one_of(st.sampled_from(EDGES), st.floats())
# None is no bad option: it asks for the default tolerance or a cold start
not_numbers = st.one_of(st.booleans(), st.text(max_size=4), st.just([1e-8]))
bad_tols = st.one_of(floats.filter(lambda t: not 0 < t < math.inf),
                     not_numbers)


@PROPERTY
@given(bad_tols)
def test_eigen_refuses_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(SolverError, match="tol"):
        robin_principal_eigenvalue(MESH, SIGMA, tol=tol)


@PROPERTY
@given(floats.filter(lambda t: 0 < t < math.inf))
def test_eigen_meets_any_finite_positive_tolerance(tol):
    try:
        out = robin_principal_eigenvalue(MESH, SIGMA, tol=tol)
    except SolverError:  # a tolerance below the rounding floor
        return
    v = out.eigenfunction.values
    M = assemble(MESH).M
    assert out.residual_norm <= tol
    assert v @ (M @ v) == pytest.approx(1.0, abs=1e-12)
    assert v @ (M @ np.ones(NODES)) > 0


@PROPERTY
@given(bad_tols)
def test_root_solve_refuses_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(SolverError, match="tolerance"):
        optimize(MESH, -1.0, tol=tol)


def _dense_ground(sigma):
    asm = assemble(MESH)
    A = asm.K.toarray() + np.diag(asm.boundary_diagonal(sigma))
    return scipy.linalg.eigh(A, asm.M.toarray(), subset_by_index=[0, 0],
                             eigvals_only=True)[0]


@PROPERTY
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at 1e300
@given(floats, st.integers(0, NB - 1), floats)
def test_boundary_parameter_is_refused_or_solved(value, node, other):
    # a constant parameter with one node set apart
    values = np.full(NB, value)
    values[node] = other
    try:
        sigma = BoundaryFunction(MESH, values)
    except GeometryError:
        assert not np.isfinite(values).all()
        return
    try:
        out = robin_principal_eigenvalue(MESH, sigma)
    except RobinoptError:
        return
    assert math.isfinite(out.eigenvalue) and out.residual_norm <= 1e-8


@PROPERTY
@given(st.lists(st.floats(-300.0, 300.0), min_size=NB, max_size=NB))
def test_cold_solve_finds_the_ground_state(values):
    sigma = BoundaryFunction(MESH, values)
    ref = _dense_ground(sigma)
    out = robin_principal_eigenvalue(MESH, sigma)
    assert abs(out.eigenvalue - ref) <= 1e-9 * (1.0 + abs(ref))


@PROPERTY
@given(st.one_of(not_numbers, st.just([10**400] * NB), st.just([[1.0]] * NB),
                 st.lists(floats, max_size=2 * NB).filter(
                     lambda v: len(v) != NB)))
def test_boundary_values_that_are_not_nb_numbers_are_refused(values):
    with pytest.raises(GeometryError, match="boundary values"):
        BoundaryFunction(MESH, values)


@pytest.mark.parametrize("sigma", [
    [-1.0] * NB, None,
    BoundaryFunction.constant(generate_mesh(Domain.disk(1.0), 0.3), -1.0),
], ids=["list", "None", "other mesh"])
def test_sigma_that_is_no_boundary_function_of_the_mesh_is_refused(sigma):
    with pytest.raises(GeometryError, match="BoundaryFunction"):
        robin_principal_eigenvalue(MESH, sigma)


def test_sigma_too_large_to_square_is_geometry_error():
    sigma = BoundaryFunction.constant(MESH, -1e200)
    with pytest.raises(GeometryError, match="sigma"):
        robin_principal_eigenvalue(MESH, sigma)


bad_starts = st.one_of(
    not_numbers,
    st.integers(0, 3 * NODES).filter(lambda n: n != NODES).map(np.ones),
    st.integers(0, NODES - 1).map(
        lambda i: np.where(np.arange(NODES) == i, math.nan, 1.0)),
    st.sampled_from((math.inf, -math.inf)).map(lambda x: np.full(NODES, x)),
    st.just(np.zeros(NODES)),
    st.just(np.ones((NODES, 1))),
)


@PROPERTY
@given(bad_starts)
def test_eigen_refuses_a_bad_start_vector(v0):
    with pytest.raises(GeometryError, match="v0"):
        robin_principal_eigenvalue(MESH, SIGMA, v0=v0)
