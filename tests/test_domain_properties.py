"""Property tests: domain specs and factories end in a Domain or a
GeometryError, never in another exception, a hang or an absurd size.

Examples are drawn deterministically and no example database is kept, so
the tests are reproducible and leave nothing in the tree. No mesh is built.
"""

import math
import tempfile

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from robinopt import Domain, GeometryError, metrics, parse_domain

# Hypothesis caches the constants it mines from the source at collection
# time; the directory is removed when the interpreter exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

PROPERTY = settings(derandomize=True, database=None, max_examples=400,
                    deadline=None)

# edge values of the float range alongside arbitrary floats
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300, 1e-6, 1e6,
         3.0, 3.7, 1e4, 1e4 + 1, 1e9)
numbers = st.one_of(st.sampled_from(EDGES), st.floats(),
                    st.floats(min_value=-1.0, max_value=2e4))
# the factories also take Python ints, some beyond the float range
integers = st.one_of(st.sampled_from((10**400, -10**400, 0, 3, 10**4 + 1)),
                     st.integers())


FACTORIES = {
    "disk": lambda a, b: Domain.disk(a),
    "annulus": Domain.annulus,
    "rectangle": Domain.rectangle,
    "ngon": Domain.regular_polygon,
    "lshape": Domain.lshape,
    "triangle": lambda a, b: Domain.polygon([(0.0, 0.0), (a, 0.0), (0.0, b)]),
}


def _assert_sound(domain):
    """A domain whose parameters and metrics are finite and in range."""
    assert isinstance(domain, Domain)
    # checked before the metrics, which list one angle per polygon corner
    assert all(math.isfinite(p) and 0 < p <= 1e6 for p in domain.params)
    if domain.kind == "ngon":
        assert isinstance(domain.params[0], int)
    assert all(math.isfinite(c) for v in domain.vertices for c in v)
    m = metrics(domain)
    assert 0 < m.volume < math.inf and 0 < m.perimeter < math.inf


@PROPERTY
@given(st.sampled_from(sorted(FACTORIES)), st.one_of(numbers, integers),
       st.one_of(numbers, integers))
def test_factories_return_domain_or_geometry_error(name, a, b):
    try:
        domain = FACTORIES[name](a, b)
    except GeometryError:
        return
    _assert_sound(domain)


field = st.one_of(st.just(""), numbers.map(repr),
                  st.integers(-10, 20000).map(str), st.text(max_size=6))
structured_spec = st.builds(
    lambda kind, fields: kind + ":" + ",".join(fields),
    st.one_of(st.sampled_from(["disk", "annulus", "rect", "ngon", "lshape"]),
              st.text(max_size=6)),
    st.lists(field, max_size=3),
)


@PROPERTY
@given(st.one_of(st.text(), structured_spec))
def test_parse_domain_returns_domain_or_geometry_error(spec):
    try:
        domain = parse_domain(spec)
    except GeometryError:
        return
    _assert_sound(domain)
    if ":" in spec:
        # every field is used as written: none is dropped or truncated
        fields = spec.strip().partition(":")[2].split(",")
        assert len(fields) == len(domain.params)
        assert [float(f) for f in fields] == [float(p) for p in domain.params]
