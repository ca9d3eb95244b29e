"""Property tests: heat-content inputs give a decreasing curve in
(0, |Omega|] or a GeometryError, never another exception.

Examples are drawn deterministically and no example database is kept, so
the tests are reproducible and leave nothing in the tree. Every example
runs on one coarse disk mesh.
"""

import math
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from robinopt import Domain, GeometryError, fem, generate_mesh, heat_content

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)

MESH = generate_mesh(Domain.disk(1.0), 0.2)
AREA = MESH.area()
HORIZON = fem._mesh_diameter(MESH) ** 2


# times diam^2 10^(-k/100) for distinct k in [0, 600]: from a millionth of
# the horizon up to the horizon itself, at least 2.3% apart
valid_times = st.lists(st.integers(0, 600), min_size=1, max_size=6,
                       unique=True).map(
    lambda ks: HORIZON * 10.0 ** (-np.array(sorted(ks, reverse=True)) / 100))


@PROPERTY
@given(valid_times)
def test_valid_times_give_a_decreasing_curve_in_range(times):
    curve = heat_content(MESH, times)
    assert np.array_equal(curve.times, times)
    assert np.all(np.diff(curve.values) < 0)
    assert curve.values.min() > 0
    assert curve.values.max() <= AREA


EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 0.5,
         HORIZON, HORIZON * (1 + 1e-9), 1e300)
time_value = st.one_of(st.sampled_from(EDGES), st.floats(),
                       st.floats(min_value=0.0, max_value=2 * HORIZON))
malformed_times = st.one_of(
    # out of range, repeated or out of order
    st.lists(time_value, min_size=1, max_size=5).filter(
        lambda ts: not (all(0 < t <= HORIZON for t in ts)
                        and all(a < b for a, b in zip(ts, ts[1:])))),
    st.just([]),
    st.lists(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=2),
             min_size=1, max_size=3),
    st.lists(st.one_of(st.text(max_size=3), st.none(), st.just(1j)),
             min_size=1, max_size=3),
    st.sampled_from((None, "0.1", 10**400, [10**400], [[0.1, 0.2], [0.3]])),
)


@PROPERTY
@given(malformed_times)
def test_malformed_input_ends_in_geometry_error(times):
    try:
        heat_content(MESH, times)
    except GeometryError:
        return
    raise AssertionError(f"accepted times={times!r}")
