"""Property tests: a mutated mesh file loads as a sound Mesh or ends in a
GeometryError, never in another exception or a warning.

Examples are drawn deterministically and no example database is kept, so
the tests are reproducible and leave nothing in the tree. Every example
mutates the saved file of one small rectangle mesh.
"""

import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from robinopt import Domain, GeometryError, Mesh, generate_mesh

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
# the mutated files are written here; removed when the interpreter exits
_FILES = tempfile.TemporaryDirectory(prefix="mesh-files-")

PROPERTY = settings(derandomize=True, database=None, max_examples=300,
                    deadline=None)

# 3 x 3 nodes, one of them interior: header, 9 node lines, 8 triangle
# lines and 8 boundary-edge lines
_path = os.path.join(_FILES.name, "rect.mesh")
generate_mesh(Domain.rectangle(1.0, 1.0), 0.5).save(_path)
with open(_path) as _fh:
    LINES = _fh.read().splitlines()

# edge values of every field: indices out of range or beyond int64,
# coordinates beyond the float range or the coordinate bound, non-numbers
# and an empty token, which shifts every later token
EDGES = ("-1", "0", "1", "8", "9", "1.5", "-0", "1e6", "1e7", "1e400",
         "-1e400", "nan", "inf", "x", "", str(2**63), "99999999999999999999")
replacement = st.one_of(st.sampled_from(EDGES), st.integers(-2, 10).map(str),
                        st.floats().map(repr), st.text(max_size=4))
# line and token positions are taken modulo the current counts
position = st.integers(0, 31)
mutation = st.one_of(
    st.tuples(st.just("token"), position, position, replacement),
    st.tuples(st.sampled_from(["delete", "duplicate", "swap", "copy"]),
              position, position),
)


def _mutate(lines, mutations):
    lines = list(lines)
    for kind, i, j, *new in mutations:
        if not lines:
            break
        i %= len(lines)
        if kind == "token":
            tokens = lines[i].split() or [""]
            tokens[j % len(tokens)] = new[0]
            lines[i] = " ".join(tokens)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            j %= len(lines)
            if kind == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:  # two node lines alike make coincident nodes
                lines[j] = lines[i]
    return "\n".join(lines) + "\n"


@PROPERTY
@given(st.lists(mutation, min_size=1, max_size=3))
def test_mutated_mesh_file_loads_or_is_geometry_error(mutations):
    path = os.path.join(_FILES.name, "mutated.mesh")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_mutate(LINES, mutations))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mesh = Mesh.load(path)
        except GeometryError:
            return
    assert isinstance(mesh, Mesh)
    assert mesh.triangle_areas().min() > 0
    assert 0 < mesh.h_boundary < math.inf
    assert np.isfinite(mesh.nodes).all()
