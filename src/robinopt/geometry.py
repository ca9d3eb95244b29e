"""Domain catalogue, exact metrics, and boundary-graded triangulations.

Domains carry exact closed-form metrics (area, perimeter, curvature
integral, corner angles); meshes are piecewise-linear P1 triangulations
whose boundary nodes lie exactly on the domain boundary. Two builders make
every catalogue mesh. ``_ring_mesh`` joins concentric node rings: the disk
and annulus with angular counts that grow with radius, regular polygons
with the rings scaled onto shrunken copies of the polygon. ``_tensor_mesh``
triangulates a graded tensor grid: the rectangle, and the L-shape as one
grid over [0, 2a] x [0, 2b] without its upper-right quadrant. Imported
polygons are ear-clipped and refined.

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
    vertices: tuple = ()  # only for kind == "polygon", ((x, y), ...)

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

    @classmethod
    def polygon(cls, vertices):
        verts = tuple((_float(x), _float(y)) for x, y in vertices)
        if not all(abs(c) <= _MAX_LENGTH for v in verts for c in v):
            raise GeometryError(
                f"polygon vertex coordinates must be finite, of magnitude "
                f"at most {_MAX_LENGTH:g}"
            )
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if _signed_area(verts) <= 0:
            verts = verts[::-1]
        if not _signed_area(verts) >= _MIN_LENGTH**2:
            raise GeometryError(
                f"polygon must enclose an area of at least {_MIN_LENGTH**2:g}"
            )
        if not _is_simple_polygon(verts):
            raise GeometryError("polygon must be simple (non-self-intersecting)")
        return cls("polygon", (), verts)

    def __str__(self):
        if self.kind == "polygon":
            return f"polygon[{len(self.vertices)}]"
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


def _signed_area(verts):
    s = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _segments_intersect(p, q, r, s):
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(v) < 1e-14:
            return 0
        return 1 if v > 0 else -1

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    return o1 != o2 and o3 != o4


def _is_simple_polygon(verts):
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = verts[j], verts[(j + 1) % n]
            if _segments_intersect(a, b, c, d):
                return False
    return True


def _polygon_interior_angles(verts):
    n = len(verts)
    angles = []
    for i in range(n):
        prev = np.asarray(verts[i - 1])
        cur = np.asarray(verts[i])
        nxt = np.asarray(verts[(i + 1) % n])
        u = prev - cur
        v = nxt - cur
        ang = math.atan2(v[1], v[0]) - math.atan2(u[1], u[0])
        ang = ang % (2.0 * math.pi)
        # interior is to the left of the CCW boundary; the angle from the
        # outgoing to the incoming edge measured through the interior
        ang = 2.0 * math.pi - ang
        angles.append(ang)
    return tuple(a for a in angles if abs(a - math.pi) > 1e-12)


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
    if kind == "polygon":
        verts = domain.vertices
        area = _signed_area(verts)
        perim = sum(
            math.dist(verts[i], verts[(i + 1) % len(verts)])
            for i in range(len(verts))
        )
        return DomainMetrics(area, perim, 0.0, _polygon_interior_angles(verts))
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
        self.h_boundary = self._boundary_height(edge_tris)
        self._validate()

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
        nxt = {}
        for (a, b) in self.boundary_edges:
            nxt[int(a)] = int(b)
        loops = []
        seen = set()
        for start in sorted(nxt):
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            cur = nxt[start]
            while cur != start:
                loop.append(cur)
                seen.add(cur)
                cur = nxt[cur]
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
        with open(path) as fh:
            tokens = fh.read().split()
        if len(tokens) < 3:
            raise GeometryError(f"mesh file {path} is truncated")
        try:
            n, t, b = (int(v) for v in tokens[:3])
        except ValueError:
            raise GeometryError(f"mesh file {path} has a non-integer count")
        if min(n, t, b) < 0:
            raise GeometryError(f"mesh file {path} has a negative count")
        if len(tokens) < 3 + 2 * n + 3 * t + 2 * b:
            raise GeometryError(f"mesh file {path} is truncated")
        vals = tokens[3:]
        try:
            nodes = np.array(vals[: 2 * n], dtype=float).reshape(n, 2)
            tris = np.array(vals[2 * n: 2 * n + 3 * t],
                            dtype=np.int64).reshape(t, 3)
            declared = np.array(vals[2 * n + 3 * t: 2 * n + 3 * t + 2 * b],
                                dtype=np.int64).reshape(b, 2)
        except ValueError:
            raise GeometryError(f"mesh file {path} has a non-numeric entry")
        if not np.isfinite(nodes).all():
            raise GeometryError(f"mesh file {path} has a non-finite "
                                "coordinate")
        if t == 0:
            raise GeometryError(f"mesh file {path} has no triangles")
        for what, ids in (("triangle", tris), ("boundary edge", declared)):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise GeometryError(f"mesh file {path} has a {what} index "
                                    f"outside [0, {n})")
        mesh = cls(nodes, tris, _median_edge_length(nodes, tris))
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
    thin bands stay aligned quads. The node cap is checked on the counts,
    before any angle array is built.
    """
    counts = []
    for k, r in enumerate(radii):
        m = max(base, int(round(2.0 * math.pi * r / h)))
        if multiple_of > 1:
            m = multiple_of * max(1, int(round(m / multiple_of)))
        if counts and (r - radii[k - 1]) < 0.6 * h:
            m = counts[-1]
        counts.append(m)
    _check_node_cap("ring", sum(counts), node_cap)
    return [2.0 * math.pi * np.arange(m) / m for m in counts]


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
# imported polygons: ear clipping + refinement
# ---------------------------------------------------------------------------

def _ear_clip(verts):
    """Triangulate a simple CCW polygon by ear clipping."""
    idx = list(range(len(verts)))
    pts = [np.asarray(v, float) for v in verts]
    tris = []

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    def inside(p, a, b, c):
        # inclusive: a vertex exactly on the closing edge must block the ear
        d1 = cross(a, b, p)
        d2 = cross(b, c, p)
        d3 = cross(c, a, p)
        return d1 >= -1e-13 and d2 >= -1e-13 and d3 >= -1e-13

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * len(verts) ** 2:
            raise GeometryError("ear clipping failed; polygon may be degenerate")
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if cross(a, b, c) <= 1e-14:
                continue
            if any(inside(pts[m], a, b, c) for m in idx
                   if m not in (i0, i1, i2)):
                continue
            tris.append((i0, i1, i2))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise GeometryError("ear clipping failed; polygon may be degenerate")
    tris.append(tuple(idx))
    return tris


def _red_refine(nodes, tris):
    """Split every triangle into four via edge midpoints."""
    nodes = list(map(tuple, nodes))
    node_id = {p: i for i, p in enumerate(nodes)}
    mid_cache = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_cache:
            p = (
                0.5 * (nodes[a][0] + nodes[b][0]),
                0.5 * (nodes[a][1] + nodes[b][1]),
            )
            if p not in node_id:
                node_id[p] = len(nodes)
                nodes.append(p)
            mid_cache[key] = node_id[p]
        return mid_cache[key]

    out = []
    for i, j, k in tris:
        m_ij = midpoint(i, j)
        m_jk = midpoint(j, k)
        m_ki = midpoint(k, i)
        out.extend([
            (i, m_ij, m_ki), (j, m_jk, m_ij), (k, m_ki, m_jk),
            (m_ij, m_jk, m_ki),
        ])
    return nodes, out


def _longest_edge_bisection(nodes, tris, size_of, node_cap):
    """Rivara longest-edge bisection until every triangle meets its size."""
    nodes = [tuple(p) for p in nodes]
    tris = [tuple(t) for t in tris]

    def longest_edge(t):
        best = None
        best_len = -1.0
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            d = math.dist(nodes[a], nodes[b])
            if d > best_len:
                best_len = d
                best = (a, b)
        return best, best_len

    def centroid(t):
        return (
            (nodes[t[0]][0] + nodes[t[1]][0] + nodes[t[2]][0]) / 3.0,
            (nodes[t[0]][1] + nodes[t[1]][1] + nodes[t[2]][1]) / 3.0,
        )

    for _ in range(200):
        marked = [
            i for i, t in enumerate(tris)
            if longest_edge(t)[1] > size_of(centroid(t))
        ]
        if not marked:
            break
        # bisect by splitting the longest edge of every marked triangle;
        # repeat with compatibility passes so hanging nodes vanish
        split_edges = {}
        for i in marked:
            (a, b), _ = longest_edge(tris[i])
            split_edges[(min(a, b), max(a, b))] = None
        changed = True
        while changed:
            changed = False
            for i, t in enumerate(tris):
                for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                    key = (min(a, b), max(a, b))
                    if key in split_edges:
                        (la, lb), _ = longest_edge(t)
                        lkey = (min(la, lb), max(la, lb))
                        if lkey not in split_edges:
                            split_edges[lkey] = None
                            changed = True
        for key in split_edges:
            a, b = key
            p = (0.5 * (nodes[a][0] + nodes[b][0]),
                 0.5 * (nodes[a][1] + nodes[b][1]))
            split_edges[key] = len(nodes)
            nodes.append(p)
            if len(nodes) > node_cap:
                raise MeshResourceError(
                    f"bisection grading exceeded the node cap {node_cap}"
                )
        new_tris = []
        stack = list(tris)
        while stack:
            t = stack.pop()
            cut = [
                (a, b) for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
                if (min(a, b), max(a, b)) in split_edges
            ]
            if not cut:
                new_tris.append(t)
                continue
            (la, lb), _ = longest_edge(t)
            if (min(la, lb), max(la, lb)) not in split_edges:
                la, lb = cut[0]
            mid = split_edges[(min(la, lb), max(la, lb))]
            other = [v for v in t if v not in (la, lb)][0]
            pos = t.index(la)
            if t[(pos + 1) % 3] == lb:
                stack.append((la, mid, other))
                stack.append((mid, lb, other))
            else:
                stack.append((lb, mid, other))
                stack.append((mid, la, other))
        tris = new_tris
    return nodes, tris


def _polygon_mesh(verts, h, layer_width, node_cap):
    nodes = [tuple(v) for v in verts]
    tris = _ear_clip(nodes)

    def max_edge(ns, ts):
        return max(
            math.dist(ns[a], ns[b])
            for t in ts
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
        )

    while max_edge(nodes, tris) > h:
        nodes, tris = _red_refine(nodes, tris)
        if len(nodes) > node_cap:
            raise MeshResourceError(
                f"polygon refinement exceeded the node cap {node_cap}"
            )
    if layer_width > 0:
        ladder = _grading_ladder(h, layer_width)
        if ladder:
            hb = ladder[0]
            segs = [
                (np.asarray(verts[i], float),
                 np.asarray(verts[(i + 1) % len(verts)], float))
                for i in range(len(verts))
            ]

            def dist_to_boundary(p):
                p = np.asarray(p)
                best = math.inf
                for a, b in segs:
                    ab = b - a
                    t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
                    best = min(best, float(np.linalg.norm(p - (a + t * ab))))
                return best

            def size_of(p):
                return max(hb, min(h, 0.5 * dist_to_boundary(p)))

            nodes, tris = _longest_edge_bisection(nodes, tris, size_of,
                                                  node_cap)
    return Mesh(np.array(nodes), np.array(tris), h,
                boundary_layer_width=layer_width)


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
    if domain.kind == "polygon":
        mesh = _polygon_mesh(domain.vertices, target_h, boundary_layer_width,
                             node_cap)
    elif domain.kind in builders:
        mesh = builders[domain.kind](*domain.params, target_h,
                                     boundary_layer_width, node_cap)
    else:
        raise GeometryError(f"unknown domain kind {domain.kind!r}")
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
