"""Domain catalogue, exact metrics, and boundary-graded triangulations.

Domains carry exact closed-form metrics (area, perimeter, curvature
integral, corner angles); meshes are piecewise-linear P1 triangulations
whose boundary nodes lie exactly on the domain boundary. Two builders make
every catalogue mesh. ``_ring_mesh`` joins concentric node rings: the disk
and annulus with angular counts that grow with radius, regular polygons
with the rings scaled onto shrunken copies of the polygon. ``_tensor_mesh``
triangulates a graded tensor grid: the rectangle, and the L-shape as one
grid over [0, 2a] x [0, 2b] without its upper-right quadrant.

Boundary grading is geometric with ratio 0.5 per layer and at most 12
layers, sized so the first layer is at most a quarter of the requested
boundary-layer width. Every mesh measures its own ``h_boundary``, the
largest normal height of a boundary-edge triangle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, MeshResourceError

_MAX_GRADING_LEVELS = 12
_DEFAULT_NODE_CAP = 500_000
# domain lengths whose squares and cubes stay far inside the float range
_MIN_LENGTH, _MAX_LENGTH = 1e-6, 1e6
# most sides of a regular polygon; its metrics list every corner, and a
# 5000-gon at h = 0.1 already takes seconds to optimize
_MAX_SIDES = 10_000


# ---------------------------------------------------------------------------
# domains and exact metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Geometric descriptor; build through the factory classmethods."""

    kind: str
    params: tuple = ()

    @classmethod
    def disk(cls, radius):
        return cls("disk", (_length("disk radius", radius),))

    @classmethod
    def annulus(cls, outer, inner):
        outer = _length("annulus outer radius", outer)
        inner = _length("annulus inner radius", inner)
        if not inner < outer:
            raise GeometryError("annulus requires 0 < inner radius < outer radius")
        return cls("annulus", (outer, inner))

    @classmethod
    def rectangle(cls, a, b):
        return cls("rectangle", (_length("rectangle side a", a),
                                 _length("rectangle side b", b)))

    @classmethod
    def regular_polygon(cls, n, circumradius):
        sides = _float(n)
        if not (sides.is_integer() and 3 <= sides <= _MAX_SIDES):
            raise GeometryError(
                f"regular polygon side count n must be an integer in "
                f"[3, {_MAX_SIDES}], got {n!r}"
            )
        return cls("ngon", (int(sides), _length("circumradius", circumradius)))

    @classmethod
    def lshape(cls, a=1.0, b=1.0):
        return cls("lshape", (_length("L-shape arm a", a),
                              _length("L-shape arm b", b)))

    def __str__(self):
        return self.kind + ":" + ",".join(f"{p:g}" for p in self.params)


def _float(value):
    """``float(value)``, with an int beyond the float range as infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _length(name, value):
    """``value`` as a float length, or GeometryError naming ``name``."""
    value = _float(value)
    if not _MIN_LENGTH <= value <= _MAX_LENGTH:  # also rejects NaN
        raise GeometryError(
            f"{name} must be a finite positive length in "
            f"[{_MIN_LENGTH:g}, {_MAX_LENGTH:g}], got {value!r}"
        )
    return value


@dataclass(frozen=True)
class DomainMetrics:
    """Exact closed-form invariants of a domain."""

    volume: float
    perimeter: float
    curvature_integral: float
    corner_angles: tuple = ()


def metrics(domain):
    """Exact DomainMetrics for ``domain`` (closed form, never mesh-derived)."""
    kind = domain.kind
    if kind == "disk":
        (radius,) = domain.params
        return DomainMetrics(math.pi * radius**2, 2 * math.pi * radius, 2 * math.pi)
    if kind == "annulus":
        outer, inner = domain.params
        # each boundary circle contributes its full turning angle 2*pi
        return DomainMetrics(
            math.pi * (outer**2 - inner**2),
            2 * math.pi * (outer + inner),
            4 * math.pi,
        )
    if kind == "rectangle":
        a, b = domain.params
        return DomainMetrics(a * b, 2 * (a + b), 0.0, (math.pi / 2,) * 4)
    if kind == "ngon":
        n, radius = domain.params
        area = 0.5 * n * radius**2 * math.sin(2 * math.pi / n)
        perim = 2 * n * radius * math.sin(math.pi / n)
        gamma = math.pi * (n - 2) / n
        return DomainMetrics(area, perim, 0.0, (gamma,) * int(n))
    if kind == "lshape":
        a, b = domain.params
        angles = (math.pi / 2,) * 5 + (3 * math.pi / 2,)
        return DomainMetrics(3 * a * b, 4 * (a + b), 0.0, angles)
    raise GeometryError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

class Mesh:
    """Immutable P1 triangulation with tagged, oriented boundary edges.

    Attributes
    ----------
    nodes : (N, 2) float array
    triangles : (T, 3) int array, counterclockwise
    boundary_edges : (B, 2) int array, oriented with the domain on the left
    boundary_weights : (B,) float array of edge lengths
    boundary_nodes : sorted int array of boundary node indices
    h_interior : target interior spacing
    h_boundary : largest normal height of a boundary-edge triangle, measured
    boundary_layer_width : grading width the mesh was generated with
    """

    def __init__(self, nodes, triangles, h_interior, *,
                 boundary_layer_width=0.0):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.h_interior = float(h_interior)
        self.boundary_layer_width = float(boundary_layer_width)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise GeometryError("nodes must be an (N, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise GeometryError("triangles must be a (T, 3) array")
        self.boundary_edges, self.boundary_weights, edge_tris = (
            self._extract_boundary())
        self.boundary_nodes = np.unique(self.boundary_edges)
        # a degenerate triangle or edge is refused before a height divides
        self._validate()
        self.h_boundary = self._boundary_height(edge_tris)

    # -- derived quantities -------------------------------------------------

    def triangle_areas(self):
        p = self.nodes
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self):
        return float(self.triangle_areas().sum())

    def boundary_length(self):
        return float(self.boundary_weights.sum())

    def boundary_node_weights(self):
        """Lumped (trapezoidal) boundary weight per boundary node."""
        w = np.zeros(len(self.nodes))
        np.add.at(w, self.boundary_edges[:, 0], 0.5 * self.boundary_weights)
        np.add.at(w, self.boundary_edges[:, 1], 0.5 * self.boundary_weights)
        return w[self.boundary_nodes]

    def boundary_loops(self):
        """Boundary node loops in orientation order, deterministic start."""
        nxt = dict(self.boundary_edges.tolist())
        loops, seen = [], set()
        for start in sorted(nxt):
            if start in seen:
                continue
            loop = [start]
            while nxt[loop[-1]] != start:
                loop.append(nxt[loop[-1]])
            seen.update(loop)
            loops.append(loop)
        return loops

    # -- construction helpers -----------------------------------------------

    def _extract_boundary(self):
        """Edges that belong to one triangle, oriented as in that triangle.

        Returns (edges, lengths, triangle of each edge), in the lexicographic
        order of the sorted edge keys.
        """
        n = len(self.nodes)
        # the three oriented edges of each triangle, triangle by triangle
        oriented = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        lo, hi = oriented.min(axis=1), oriented.max(axis=1)
        # (lo, hi) as one integer sorts like the pair
        keys, first, counts = np.unique(lo * n + hi, return_index=True,
                                        return_counts=True)
        over = np.flatnonzero(counts > 2)
        if over.size:
            a, b = divmod(int(keys[over[0]]), n)
            raise GeometryError(
                f"edge {(a, b)} shared by {int(counts[over[0]])} triangles; "
                "mesh is not a manifold"
            )
        once = first[counts == 1]
        edges = oriented[once]
        weights = np.linalg.norm(
            self.nodes[edges[:, 1]] - self.nodes[edges[:, 0]], axis=1
        )
        return edges, weights, once // 3

    def _boundary_height(self, edge_tris):
        """Largest normal height of any boundary-edge triangle.

        This is the spacing the boundary-layer resolution cap compares
        against, so it must not understate the coarsest boundary cell.
        """
        heights = 2.0 * self.triangle_areas()[edge_tris] / self.boundary_weights
        worst = float(heights.max(initial=0.0))
        return worst if worst > 0 else self.h_interior

    def _validate(self):
        areas = self.triangle_areas()
        bad = np.where(areas <= 0)[0]
        if bad.size:
            raise GeometryError(
                f"triangle {int(bad[0])} has non-positive area {areas[bad[0]]:g}"
            )
        # an edge shorter than about 1e-154 has a length that underflows
        short = np.flatnonzero(self.boundary_weights <= 0)
        if short.size:
            raise GeometryError(f"boundary edge {int(short[0])} has zero length")
        # boundary edges must chain into closed loops: one successor per node
        tails = self.boundary_edges[:, 0]
        if len(np.unique(tails)) != len(tails):
            raise GeometryError("boundary edges do not form closed loops")

    # -- plain-text exchange format ------------------------------------------

    def save(self, path):
        """Write the mesh in the plain-text exchange format.

        Header line with the three counts ``N T B``, then N node lines
        ``x y``, T triangle lines ``i j k``, B boundary-edge lines ``i j``,
        all 0-based.
        """
        with open(path, "w") as fh:
            fh.write(f"{len(self.nodes)} {len(self.triangles)} "
                     f"{len(self.boundary_edges)}\n")
            for x, y in self.nodes:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            for i, j, k in self.triangles:
                fh.write(f"{i} {j} {k}\n")
            for i, j in self.boundary_edges:
                fh.write(f"{i} {j}\n")

    @classmethod
    def load(cls, path):
        # a non-ASCII byte decodes to U+FFFD, which no number parses
        with open(path, encoding="ascii", errors="replace") as fh:
            # header counts meet the node cap (t < 2n, b <= n) before the body
            tokens = fh.readline().split()
            try:
                n, t, b = (int(v) for v in tokens[:3])
            except ValueError:  # too few or non-integer counts
                raise GeometryError(f"mesh file {path} has a bad header")
            if min(n, t, b) < 0:
                raise GeometryError(f"mesh file {path} has a negative count")
            if max(n, t // 2, b) > _DEFAULT_NODE_CAP:
                raise GeometryError(f"mesh file {path} declares more than "
                                    f"{_DEFAULT_NODE_CAP} nodes")
            tokens += fh.read().split()
        if len(tokens) < 3 + 2 * n + 3 * t + 2 * b:
            raise GeometryError(f"mesh file {path} is truncated")
        vals = tokens[3:]
        try:
            nodes = np.array(vals[: 2 * n], dtype=float).reshape(n, 2)
            tris = np.array(vals[2 * n: 2 * n + 3 * t],
                            dtype=np.int64).reshape(t, 3)
            declared = np.array(vals[2 * n + 3 * t: 2 * n + 3 * t + 2 * b],
                                dtype=np.int64).reshape(b, 2)
        except (ValueError, OverflowError):  # an index beyond int64 too
            raise GeometryError(f"mesh file {path} has a non-numeric entry")
        if not (np.abs(nodes) <= _MAX_LENGTH).all():  # NaN too
            raise GeometryError(f"mesh file {path} has a coordinate not "
                                f"within +-{_MAX_LENGTH:g}")
        if t == 0:
            raise GeometryError(f"mesh file {path} has no triangles")
        for what, ids in (("triangle", tris), ("boundary edge", declared)):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise GeometryError(f"mesh file {path} has a {what} index "
                                    f"outside [0, {n})")
        try:
            mesh = cls(nodes, tris, _median_edge_length(nodes, tris))
        except GeometryError as exc:
            raise GeometryError(f"mesh file {path}: {exc}") from None
        if len(mesh.boundary_nodes) == n:
            raise GeometryError(f"mesh file {path} has no interior node")
        if (b != len(mesh.boundary_edges)
                or _edge_set(declared) != _edge_set(mesh.boundary_edges)):
            raise GeometryError(f"mesh file {path} declares boundary edges "
                                "that do not match its triangles")
        return mesh


def _edge_set(edges):
    """The edges of a (B, 2) index array as a set of undirected pairs."""
    return set(map(tuple, np.sort(edges, axis=1).tolist()))


def _median_edge_length(nodes, tris):
    p = np.asarray(nodes, float)
    t = np.asarray(tris)
    e = np.concatenate([
        p[t[:, 1]] - p[t[:, 0]],
        p[t[:, 2]] - p[t[:, 1]],
        p[t[:, 0]] - p[t[:, 2]],
    ])
    return float(np.median(np.linalg.norm(e, axis=1)))


# ---------------------------------------------------------------------------
# graded 1D point sets
# ---------------------------------------------------------------------------

def _grading_ladder(h, layer_width):
    """Spacings from the wall outward: hb, 2 hb, ... capped below h."""
    if layer_width <= 0 or layer_width / 4.0 >= h:
        return []
    levels = math.ceil(math.log2(h / (layer_width / 4.0)))
    if levels > _MAX_GRADING_LEVELS:
        raise MeshResourceError(
            f"boundary grading would need {levels} geometric layers; "
            f"the cap is {_MAX_GRADING_LEVELS}"
        )
    hb = h / 2.0**levels
    return [hb * 2.0**k for k in range(levels)]


def _graded_1d(length, h, w_left, w_right):
    """Points 0 .. length with spacing <= ~h, geometrically graded ends."""
    left = _grading_ladder(h, w_left)
    right = _grading_ladder(h, w_right)
    rem = length - sum(left) - sum(right)
    while (left or right) and rem < 0.25 * h:
        if left and (not right or left[-1] >= right[-1]):
            rem += left.pop()
        else:
            rem += right.pop()
    if rem <= 0:
        raise GeometryError(
            f"domain extent {length:g} too small for target spacing {h:g}"
        )
    n_mid = max(1, math.ceil(rem / h))
    if n_mid > _DEFAULT_NODE_CAP:  # the 2D mesh would be far beyond any cap
        raise MeshResourceError(
            f"domain extent {length:g} needs {n_mid:.3g} spacings of {h:g}"
        )
    spacings = left + [rem / n_mid] * n_mid + right[::-1]
    pts = np.concatenate([[0.0], np.cumsum(spacings)])
    pts[-1] = length
    return pts


def _check_node_cap(kind, n_nodes, node_cap):
    if n_nodes > node_cap:
        raise MeshResourceError(
            f"{kind} mesh needs {n_nodes} nodes, node cap is {node_cap}"
        )


# ---------------------------------------------------------------------------
# ring meshes: disk, annulus, regular polygon
# ---------------------------------------------------------------------------

def _zip_band(inner_ids, inner_ang, outer_ids, outer_ang):
    """Triangulate the band between two concentric node rings.

    Both rings are sorted by angle with the same origin; triangles come out
    counterclockwise as an (len(inner) + len(outer), 3) array. Walking
    around the band, each step advances the ring whose next node (the
    first one again, a turn later, at the end) comes first in angle, the
    inner ring on ties.
    """
    inner_ids = np.asarray(inner_ids)
    outer_ids = np.asarray(outer_ids)
    na, nb = len(inner_ids), len(outer_ids)
    two_pi = 2.0 * math.pi
    nxt = np.concatenate([inner_ang[1:], [inner_ang[0] + two_pi],
                          outer_ang[1:], [outer_ang[0] + two_pi]])
    advance_inner = np.argsort(nxt, kind="stable") < na
    # nodes of each ring passed before every step
    i = np.cumsum(advance_inner) - advance_inner
    j = np.cumsum(~advance_inner) - ~advance_inner
    third = np.where(advance_inner, inner_ids[(i + 1) % na],
                     outer_ids[(j + 1) % nb])
    return np.column_stack([inner_ids[i % na], outer_ids[j % nb], third])


def _ring_angles(radii, h, node_cap, base=6, multiple_of=1):
    """Equispaced node angles from 0 per ring, the count proportional to
    radius.

    Rings closer than 0.6 h (the graded zone) copy the previous count so
    thin bands stay aligned quads. The counts are computed as arrays and the
    node cap is checked on them, before any angle array is built.
    """
    radii = np.asarray(radii, dtype=float)
    counts = np.maximum(base, np.rint(2.0 * math.pi * radii / h))
    if multiple_of > 1:
        counts = multiple_of * np.maximum(1, np.rint(counts / multiple_of))
    # a ring closer than 0.6 h to the one before copies its count, so each
    # ring takes the count of the last ring that is not such a copy
    own = np.ones(len(radii), dtype=bool)
    own[1:] = ~(np.diff(radii) < 0.6 * h)
    last_own = np.maximum.accumulate(np.where(own, np.arange(len(radii)), 0))
    counts = counts[last_own].astype(np.int64)
    _check_node_cap("ring", int(counts.sum()), node_cap)
    return [2.0 * math.pi * np.arange(m) / m for m in counts.tolist()]


def _polar(r, theta):
    return r * np.cos(theta), r * np.sin(theta)


def _ring_mesh(radii, ring_angles, place, h, layer_width, with_center,
               node_cap):
    """Mesh of concentric node rings, after a centre node if ``with_center``.

    Ring k has radius ``radii[k]`` and the increasing angles
    ``ring_angles[k]``, all rings measured from one origin; ``place(r,
    theta)`` maps arrays of radii and angles to node coordinates (x, y). A
    fan joins the centre to the first ring, and ``_zip_band`` fills every
    band between successive rings.
    """
    counts = [len(ang) for ang in ring_angles]
    _check_node_cap("ring", int(with_center) + sum(counts), node_cap)
    ends = np.cumsum([int(with_center)] + counts)
    ids = [np.arange(a, b) for a, b in zip(ends[:-1], ends[1:])]
    nodes = np.column_stack(place(np.repeat(radii, counts),
                                  np.concatenate(ring_angles)))
    tris = [_zip_band(ids[k], ring_angles[k], ids[k + 1], ring_angles[k + 1])
            for k in range(len(ids) - 1)]
    if with_center:
        nodes = np.vstack([np.zeros(2), nodes])
        tris.insert(0, np.column_stack([np.zeros_like(ids[0]), ids[0],
                                        np.roll(ids[0], -1)]))
    return Mesh(nodes, np.concatenate(tris), h,
                boundary_layer_width=layer_width)


def _disk_mesh(radius, h, layer_width, node_cap):
    radii = _graded_1d(radius, h, 0.0, layer_width)[1:]
    return _ring_mesh(radii, _ring_angles(radii, h, node_cap), _polar, h,
                      layer_width, True, node_cap)


def _annulus_mesh(outer, inner, h, layer_width, node_cap):
    radii = inner + _graded_1d(outer - inner, h, layer_width, layer_width)
    return _ring_mesh(radii, _ring_angles(radii, h, node_cap), _polar, h,
                      layer_width, False, node_cap)


def _ngon_mesh(n_sides, circumradius, h, layer_width, node_cap):
    apothem = circumradius * math.cos(math.pi / n_sides)
    depth = _graded_1d(apothem, h, 0.0, layer_width)[1:]
    sector = 2.0 * math.pi / n_sides

    def place(d, theta):
        # the rings are scaled copies of the boundary; vertices sit at
        # multiples of the sector angle, which every ring's angle set
        # contains because counts are multiples of n_sides
        boundary_radius = apothem / np.cos((theta % sector) - sector / 2.0)
        return _polar(d / apothem * boundary_radius, theta)

    angles = _ring_angles(depth, h, node_cap, base=n_sides,
                          multiple_of=n_sides)
    return _ring_mesh(depth, angles, place, h, layer_width, True, node_cap)


# ---------------------------------------------------------------------------
# tensor meshes: rectangle, L-shape
# ---------------------------------------------------------------------------

def _tensor_mesh(xs, ys, h, layer_width, node_cap, drop=None):
    """Mesh of the tensor grid xs x ys, optionally without one quadrant.

    Nodes run row by row, x fastest; the cell [x0, x1] x [y0, y1] gives the
    triangles (00, 10, 11) and (00, 11, 01). With ``drop = (a, b)``, a and b
    grid values, the cells whose lower-left corner has x >= a and y >= b
    are left out, and so are the nodes with x > a and y > b, which only
    those cells use; the kept nodes keep their order.
    """
    a, b = (math.inf, math.inf) if drop is None else drop
    nx, ny = len(xs), len(ys)
    _check_node_cap("tensor",
                    nx * ny - int(np.sum(xs > a)) * int(np.sum(ys > b)),
                    node_cap)
    x, y = np.meshgrid(xs, ys)
    n00 = np.arange(nx * ny).reshape(ny, nx)[:-1, :-1]
    n00 = n00[(x[:-1, :-1] < a) | (y[:-1, :-1] < b)]
    tris = np.column_stack([n00, n00 + 1, n00 + nx + 1,
                            n00, n00 + nx + 1, n00 + nx]).reshape(-1, 3)
    kept = ((x <= a) | (y <= b)).ravel()
    new_id = np.cumsum(kept) - 1
    nodes = np.column_stack([x.ravel(), y.ravel()])[kept]
    return Mesh(nodes, new_id[tris], h, boundary_layer_width=layer_width)


def _rectangle_mesh(a, b, h, layer_width, node_cap):
    return _tensor_mesh(_graded_1d(a, h, layer_width, layer_width),
                        _graded_1d(b, h, layer_width, layer_width),
                        h, layer_width, node_cap)


def _lshape_mesh(a, b, h, layer_width, node_cap):
    # [0, 2a] x [0, 2b] without its upper-right quadrant; each arm's 1D grid
    # is graded at both ends, so every boundary piece, the re-entrant edges
    # through (a, b) included, gets layers
    xs = _graded_1d(a, h, layer_width, layer_width)
    ys = _graded_1d(b, h, layer_width, layer_width)
    return _tensor_mesh(np.concatenate([xs, a + xs[1:]]),
                        np.concatenate([ys, b + ys[1:]]),
                        h, layer_width, node_cap, drop=(a, b))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def generate_mesh(domain, target_h, boundary_layer_width=0.0,
                  node_cap=_DEFAULT_NODE_CAP):
    """Generate a mesh for ``domain`` with interior spacing ``target_h``.

    If ``boundary_layer_width`` is positive, spacing normal to the boundary
    is geometrically graded so the first layer is at most a quarter of that
    width.

    Raises
    ------
    MeshResourceError
        If the node cap or the 12-layer grading cap would be exceeded.
    """
    if not 0 < target_h < math.inf:
        raise GeometryError("target_h must be positive and finite")
    if not 0 <= boundary_layer_width < math.inf:
        raise GeometryError(
            "boundary_layer_width must be non-negative and finite"
        )
    builders = {
        "disk": _disk_mesh, "annulus": _annulus_mesh,
        "rectangle": _rectangle_mesh, "ngon": _ngon_mesh,
        "lshape": _lshape_mesh,
    }
    if domain.kind not in builders:
        raise GeometryError(f"unknown domain kind {domain.kind!r}")
    mesh = builders[domain.kind](*domain.params, target_h,
                                 boundary_layer_width, node_cap)
    if len(mesh.boundary_nodes) == len(mesh.nodes):
        raise GeometryError(
            f"{domain} at spacing {target_h:g} gives a mesh with no interior "
            "node"
        )
    return mesh


def parse_domain(spec):
    """Parse the CLI mini-grammar: disk:R, annulus:R,r, rect:a,b, ngon:n,R,
    lshape, lshape:a,b."""
    spec = spec.strip()
    if spec == "lshape":
        return Domain.lshape()
    if ":" not in spec:
        raise GeometryError(f"cannot parse domain spec {spec!r}")
    kind, _, rest = spec.partition(":")
    try:
        params = [float(p) for p in rest.split(",")]
    except ValueError:
        raise GeometryError(
            f"empty or non-numeric parameter in domain spec {spec!r}")
    if kind == "disk" and len(params) == 1:
        return Domain.disk(params[0])
    if kind == "annulus" and len(params) == 2:
        return Domain.annulus(params[0], params[1])
    if kind == "rect" and len(params) == 2:
        return Domain.rectangle(params[0], params[1])
    if kind == "ngon" and len(params) == 2:
        return Domain.regular_polygon(params[0], params[1])
    if kind == "lshape" and len(params) == 2:
        return Domain.lshape(params[0], params[1])
    raise GeometryError(f"cannot parse domain spec {spec!r}")
