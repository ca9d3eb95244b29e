import math
import time
import warnings

import numpy as np
import pytest

from robinopt import Domain, GeometryError, Mesh, MeshResourceError, geometry
from robinopt import generate_mesh, metrics, parse_domain, verify


def shoelace(verts):
    s = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def test_metrics_disk():
    m = metrics(Domain.disk(1.0))
    assert m.volume == pytest.approx(math.pi, abs=1e-15)
    assert m.perimeter == pytest.approx(2 * math.pi, abs=1e-15)
    assert m.curvature_integral == pytest.approx(2 * math.pi, abs=1e-15)
    assert m.corner_angles == ()


def test_metrics_unit_square():
    m = metrics(Domain.rectangle(1.0, 1.0))
    assert (m.volume, m.perimeter, m.curvature_integral) == (1.0, 4.0, 0.0)
    assert m.corner_angles == (math.pi / 2,) * 4


def test_metrics_annulus_per_circle_curvature():
    # each boundary circle contributes 2 pi
    m = metrics(Domain.annulus(2.0, 1.0))
    assert m.volume == pytest.approx(3 * math.pi)
    assert m.perimeter == pytest.approx(6 * math.pi)
    assert m.curvature_integral == pytest.approx(4 * math.pi)


def test_metrics_square_as_ngon_matches_shoelace():
    dom = Domain.regular_polygon(4, math.sqrt(2) / 2)
    m = metrics(dom)
    verts = [(math.sqrt(2) / 2 * math.cos(2 * math.pi * k / 4),
              math.sqrt(2) / 2 * math.sin(2 * math.pi * k / 4))
             for k in range(4)]
    assert m.volume == pytest.approx(shoelace(verts), abs=1e-14)
    assert m.volume == pytest.approx(1.0, abs=1e-14)


def test_metrics_lshape():
    m = metrics(Domain.lshape())
    assert (m.volume, m.perimeter) == (3.0, 8.0)
    assert sorted(m.corner_angles)[-1] == pytest.approx(3 * math.pi / 2)
    assert len(m.corner_angles) == 6


def test_metrics_pure():
    a = metrics(Domain.annulus(2.0, 1.0))
    b = metrics(Domain.annulus(2.0, 1.0))
    assert a == b


def test_domain_validation():
    with pytest.raises(GeometryError):
        Domain.disk(0.0)
    with pytest.raises(GeometryError):
        Domain.annulus(1.0, 2.0)
    with pytest.raises(GeometryError):
        Domain.regular_polygon(2, 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(GeometryError):
            generate_mesh(Domain.disk(1.0), bad)
        with pytest.raises(GeometryError):
            generate_mesh(Domain.disk(1.0), 0.1, boundary_layer_width=bad)
    # every factory names the parameter it rejects: NaN, +-inf, and lengths
    # whose powers leave the float range
    # and ints too large for a float
    for bad in (math.nan, math.inf, -math.inf, 1e300, 1e-300, 10**400,
                -10**400):
        for make, name in (
            (lambda x: Domain.disk(x), "disk radius"),
            (lambda x: Domain.annulus(x, 1.0), "outer radius"),
            (lambda x: Domain.annulus(2.0, x), "inner radius"),
            (lambda x: Domain.rectangle(x, 1.0), "side a"),
            (lambda x: Domain.rectangle(1.0, x), "side b"),
            (lambda x: Domain.regular_polygon(6, x), "circumradius"),
            (lambda x: Domain.lshape(x, 1.0), "arm a"),
            (lambda x: Domain.lshape(1.0, x), "arm b"),
        ):
            with pytest.raises(GeometryError, match=name):
                make(bad)
    # the side count must be a finite integer in [3, 10000]: a huge count
    # would build a tuple of that many corner angles
    for bad in (math.nan, math.inf, -math.inf, 1e300, 1e9, 10001, 3.7, 2.0,
                10**400, -10**400):
        with pytest.raises(GeometryError, match="side count n"):
            Domain.regular_polygon(bad, 1.0)
    assert Domain.regular_polygon(10000.0, 1.0).params == (10000, 1.0)
    for spec in ("disk:nan", "disk:inf", "disk:1e300", "rect:1e-300,1"):
        with pytest.raises(GeometryError, match="disk radius|side a"):
            parse_domain(spec)
    # a mesh with no interior node, or one with an absurd node count, is
    # refused before any solve
    with pytest.raises(GeometryError, match="no interior node"):
        generate_mesh(Domain.rectangle(1e-6, 1.0), 0.02)
    with pytest.raises(MeshResourceError):
        generate_mesh(Domain.disk(1e6), 0.02)
    # the cap is checked on the counts, before any node array is built
    with pytest.raises(MeshResourceError, match="node cap"):
        generate_mesh(Domain.lshape(1e4, 1e4), 0.02)


def test_mesh_invariants_across_catalogue(catalogue):
    for name, dom in catalogue.items():
        mesh = generate_mesh(dom, 0.1)
        assert mesh.triangle_areas().min() > 0, name
        # boundary edges chain into closed loops covering boundary_nodes
        loops = mesh.boundary_loops()
        assert sum(len(l) for l in loops) == len(mesh.boundary_nodes), name


def test_mesh_area_and_perimeter_convergence_disk():
    dom = Domain.disk(1.0)
    errs_a, errs_p = [], []
    for h in (0.2, 0.1, 0.05):
        mesh = generate_mesh(dom, h)
        errs_a.append(abs(mesh.area() - math.pi))
        errs_p.append(abs(mesh.boundary_length() - 2 * math.pi))
    for errs in (errs_a, errs_p):
        rate = math.log2(errs[1] / errs[2])
        assert rate >= 1.9, errs


def test_mesh_exact_for_polygons(catalogue):
    for name in ("rect", "ngon", "lshape"):
        m = metrics(catalogue[name])
        mesh = generate_mesh(catalogue[name], 0.13)
        assert abs(mesh.area() - m.volume) < 1e-12, name
        assert abs(mesh.boundary_length() - m.perimeter) < 1e-12, name


def test_rectangle_quarter_h_exact_grid():
    mesh = generate_mesh(Domain.rectangle(1.0, 1.0), 0.25)
    assert mesh.area() == 1.0


def test_disk_mesh_area_within_one_percent_at_h01():
    mesh = generate_mesh(Domain.disk(1.0), 0.1)
    assert abs(mesh.area() - math.pi) / math.pi < 0.01


def test_boundary_nodes_on_exact_boundary():
    mesh = generate_mesh(Domain.disk(1.0), 0.07)
    r = np.linalg.norm(mesh.nodes[mesh.boundary_nodes], axis=1)
    assert np.abs(r - 1.0).max() < 1e-12

    mesh = generate_mesh(Domain.regular_polygon(6, 1.0), 0.07)
    apo = math.cos(math.pi / 6)
    sector = 2 * math.pi / 6
    for p in mesh.nodes[mesh.boundary_nodes]:
        th = math.atan2(p[1], p[0]) % (2 * math.pi)
        rho = apo / math.cos((th % sector) - sector / 2)
        assert abs(np.linalg.norm(p) - rho) < 1e-12


def test_boundary_grading_quarter_rule(catalogue):
    for name, dom in catalogue.items():
        mesh = generate_mesh(dom, 0.06, boundary_layer_width=0.08)
        assert mesh.h_boundary <= 0.08 / 4 + 1e-12, name


def test_grading_layer_cap():
    with pytest.raises(MeshResourceError, match="cap"):
        generate_mesh(Domain.rectangle(1, 1), 0.1,
                      boundary_layer_width=1e-7)


def test_node_cap(monkeypatch):
    monkeypatch.setattr(geometry, "_NODE_CAP", 64)
    with pytest.raises(MeshResourceError, match="node cap"):
        generate_mesh(Domain.disk(1.0), 0.05)


def test_mesh_io_roundtrip(tmp_path):
    mesh = generate_mesh(Domain.disk(1.0), 0.15, boundary_layer_width=0.3)
    path = tmp_path / "disk.mesh"
    mesh.save(path)
    # header carries the three counts
    header = path.read_text().splitlines()[0].split()
    assert [int(v) for v in header] == [
        len(mesh.nodes), len(mesh.triangles), len(mesh.boundary_edges)
    ]
    back = Mesh.load(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)


def test_mesh_load_refuses_a_zero_length_boundary_edge(tmp_path):
    # node 1 on node 0 (a 0/0 height), or 1e-182 from it (a length whose
    # square underflows): refused, with no warning on the way
    path = tmp_path / "bad.mesh"
    for x in ("0", "1e-182"):
        path.write_text(f"5 4 4\n0 0\n{x} 0\n1 1\n0 1\n0.5 0.5\n"
                        "0 1 4\n1 2 4\n2 3 4\n3 0 4\n0 1\n1 2\n2 3\n3 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="area|zero length"):
                Mesh.load(path)


def test_mesh_load_truncated(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("5 3 2\n0.0 0.0\n")
    with pytest.raises(GeometryError, match="truncated"):
        Mesh.load(path)


@pytest.mark.parametrize("body,match", [
    # a Latin-1 byte in a coordinate is not UTF-8
    (b"5 4 4\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\xb0\n", "non-numeric entry"),
    (b"5 4 4\n0 0\n1e308 0\n1e308 1e308\n0 1e308\n5e307 5e307\n",
     "coordinate not within"),
], ids=["non-UTF-8 byte", "coordinate near 1e308"])
def test_mesh_load_refuses_unreadable_body(tmp_path, body, match):
    # unit square in four triangles around its centre node; only the nodes
    # above differ from a mesh that loads
    path = tmp_path / "bad.mesh"
    path.write_bytes(body + b"0 1 4\n1 2 4\n2 3 4\n3 0 4\n"
                     b"0 1\n1 2\n2 3\n3 0\n")
    with pytest.raises(GeometryError, match=match):
        Mesh.load(path)


@pytest.mark.parametrize("header", ["1000000000 4 4", "5 1000000000 4",
                                    "5 4 1000000000"])
def test_mesh_load_refuses_oversize_header_unread(tmp_path, header):
    # the header meets the node cap before the body is read, so the cap,
    # not the short body, refuses it
    path = tmp_path / "huge.mesh"
    path.write_text(header + "\n0 0\n")
    with pytest.raises(GeometryError, match="more than 500000 nodes"):
        Mesh.load(path)


def test_parse_domain():
    assert parse_domain("disk:2").kind == "disk"
    assert parse_domain("annulus:2,1").params == (2.0, 1.0)
    assert parse_domain("rect:1,2").params == (1.0, 2.0)
    assert parse_domain("ngon:5,1").params == (5, 1.0)
    assert parse_domain("lshape").kind == "lshape"
    with pytest.raises(GeometryError):
        parse_domain("torus:1")
    for spec in ("disk:abc", "square"):
        with pytest.raises(GeometryError):
            parse_domain(spec)


# --- the dict- and loop-based topology the numpy code replaced, as oracles --

def _oracle_extract_boundary(nodes, triangles):
    edge_count = {}
    edge_oriented = {}
    for i, j, k in triangles.tolist():
        for a, b in ((i, j), (j, k), (k, i)):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
            edge_oriented[key] = (a, b)
    edges = []
    for key in sorted(edge_count):
        c = edge_count[key]
        if c == 1:
            edges.append(edge_oriented[key])
        elif c > 2:
            raise GeometryError(
                f"edge {key} shared by {c} triangles; mesh is not a manifold"
            )
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.linalg.norm(nodes[edges[:, 1]] - nodes[edges[:, 0]], axis=1)
    return edges, weights


def _oracle_areas(mesh):
    """Triangle areas from row gathers, as each use once recomputed them."""
    p, t = mesh.nodes, mesh.triangles
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _oracle_boundary_height(mesh, edges, weights):
    edge_to_tri = {}
    for ti, (i, j, k) in enumerate(mesh.triangles.tolist()):
        for a, b in ((i, j), (j, k), (k, i)):
            edge_to_tri[(min(a, b), max(a, b))] = ti
    areas = _oracle_areas(mesh)
    worst = 0.0
    for (a, b), w in zip(edges.tolist(), weights):
        worst = max(worst, 2.0 * areas[edge_to_tri[(min(a, b), max(a, b))]] / w)
    return worst if worst > 0 else mesh.h_interior


def _oracle_zip_band(inner_ids, inner_ang, outer_ids, outer_ang):
    na, nb = len(inner_ids), len(outer_ids)
    two_pi = 2.0 * math.pi

    def ang(arr, k):
        return arr[k % len(arr)] + two_pi * (k // len(arr))

    tris = []
    i = j = 0
    while i < na or j < nb:
        if i < na and (j >= nb or ang(inner_ang, i + 1) <= ang(outer_ang, j + 1)):
            tris.append((inner_ids[i % na], outer_ids[j % nb],
                         inner_ids[(i + 1) % na]))
            i += 1
        else:
            tris.append((inner_ids[i % na], outer_ids[j % nb],
                         outer_ids[(j + 1) % nb]))
            j += 1
    return tris


def _assert_topology_matches_oracle(mesh, label):
    edges, weights = _oracle_extract_boundary(mesh.nodes, mesh.triangles)
    assert np.array_equal(mesh.boundary_edges, edges), label
    assert mesh.boundary_edges.dtype == edges.dtype, label
    assert mesh.boundary_weights.tobytes() == weights.tobytes(), label
    areas = _oracle_areas(mesh)
    assert mesh.triangle_areas().tobytes() == areas.tobytes(), label
    assert np.array_equal(mesh.boundary_nodes, np.unique(edges)), label
    measured = Mesh(mesh.nodes, mesh.triangles, mesh.h_interior)
    assert measured.h_boundary == _oracle_boundary_height(mesh, edges,
                                                          weights), label
    # the edge table: sorted unique keys, each triangle side on its own key,
    # and one triangle exactly on the boundary edges
    n, keys = len(mesh.nodes), mesh.edge_keys
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all(), label
    assert mesh.side_edges.dtype == np.int32, label
    assert mesh.side_edges.shape == mesh.triangles.shape, label
    tail, head = mesh.triangles, np.roll(mesh.triangles, -1, axis=1)
    assert np.array_equal(keys[mesh.side_edges],
                          np.minimum(tail, head) * n + np.maximum(tail, head)
                          ), label
    counts = np.bincount(mesh.side_edges.ravel(), minlength=len(keys))
    assert counts.min() >= 1 and counts.max() <= 2, label
    lo, hi = np.sort(edges, axis=1).T
    assert np.array_equal(keys[counts == 1], lo * n + hi), label


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("layer", [0.0, 0.05], ids=["ungraded", "graded"])
def test_mesh_topology_matches_loop_oracle(monkeypatch, catalogue, h, layer):
    for name, dom in catalogue.items():
        mesh = generate_mesh(dom, h, boundary_layer_width=layer)
        _assert_topology_matches_oracle(mesh, name)
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_zip_band", _oracle_zip_band)
            looped = generate_mesh(dom, h, boundary_layer_width=layer)
        assert np.array_equal(mesh.triangles, looped.triangles), name
        assert mesh.h_boundary == looped.h_boundary, name


def _square(**changes):
    """Unit square in four triangles around its centre, with ``changes``."""
    parts = {"nodes": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5]],
             "tris": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]}
    parts.update(changes)
    return parts["nodes"], parts["tris"]


_BAD_SQUARES = {
    "negative index": (_square(tris=[[0, 1, 4], [1, 2, 4], [2, 3, 4],
                                     [3, -1, 4]]), "triangle index"),
    "index >= N": (_square(tris=[[0, 1, 4], [1, 2, 4], [2, 3, 4],
                                 [3, 0, 5]]), "triangle index"),
    "NaN coordinate": (_square(nodes=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                      [0.0, 1.0], [0.5, math.nan]]),
                       "coordinate not within"),
    "fractional index": (_square(tris=[[0, 1, 4], [1, 2, 4], [2, 3, 4],
                                       [3, 0, 4.5]]), "triangle index"),
    "no triangles": (_square(tris=np.zeros((0, 3), dtype=np.int64)),
                     "no triangles"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SQUARES))
def test_mesh_constructor_refuses_what_load_refuses(tmp_path, case):
    (nodes, tris), match = _BAD_SQUARES[case]
    Mesh(*_square(), 0.5)  # the unchanged square is a mesh
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=match):
            Mesh(nodes, tris, 0.5)
        # the same arrays written to a mesh file; a fractional index is
        # refused there as it is read
        tris = np.asarray(tris)
        path = tmp_path / "bad.mesh"
        path.write_text(
            f"{len(nodes)} {len(tris)} 4\n"
            + "".join(f"{x!r} {y!r}\n" for x, y in nodes)
            + "".join(" ".join(map(str, t)) + "\n" for t in tris.tolist())
            + "0 1\n1 2\n2 3\n3 0\n")
        with pytest.raises(GeometryError,
                           match="non-numeric" if case == "fractional index"
                           else match):
            Mesh.load(path)


def test_loaded_mesh_topology_matches_loop_oracle(tmp_path):
    mesh = generate_mesh(Domain.annulus(2.0, 1.0), 0.1,
                         boundary_layer_width=0.05)
    mesh.save(tmp_path / "annulus.mesh")
    _assert_topology_matches_oracle(Mesh.load(tmp_path / "annulus.mesh"),
                                    "loaded")


@pytest.mark.parametrize("na,nb", [(12, 12), (7, 12), (12, 7), (6, 12),
                                   (1, 5)],
                         ids=["equal", "coprime", "coprime outer fewer",
                              "tied", "one inner"])
def test_zip_band_matches_loop_oracle(na, nb):
    inner_ang = 2.0 * math.pi * np.arange(na) / na
    outer_ang = 2.0 * math.pi * np.arange(nb) / nb
    inner_ids = list(range(na))
    outer_ids = list(range(na, na + nb))
    tris = geometry._zip_band(inner_ids, inner_ang, outer_ids, outer_ang)
    expected = _oracle_zip_band(inner_ids, inner_ang, outer_ids, outer_ang)
    assert tris.tolist() == [list(t) for t in expected]
    assert len(tris) == na + nb


def test_non_manifold_mesh_error_matches_loop_oracle():
    # three triangles on the edge 0-1
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(GeometryError) as oracle:
        _oracle_extract_boundary(nodes, tris)
    with pytest.raises(GeometryError) as built:
        Mesh(nodes, tris, 1.0)
    assert str(built.value) == str(oracle.value)
    assert "edge (0, 1) shared by 3 triangles" in str(built.value)


def test_mesh_takes_the_layer_width_by_keyword_only():
    # the boundary height is always measured, never passed in: an old
    # positional call (h_interior, h_boundary, layer width) fails loudly
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    with pytest.raises(TypeError):
        Mesh(nodes, tris, 0.5, 0.5, 0.1)
    with pytest.raises(TypeError):
        Mesh(nodes, tris, 0.5, h_boundary=0.5)
    mesh = Mesh(nodes, tris, 0.5, boundary_layer_width=0.1)
    assert mesh.boundary_layer_width == 0.1
    assert mesh.h_boundary == pytest.approx(0.5, rel=1e-15)


def test_h_boundary_never_understates_the_coarsest_boundary_cell(catalogue):
    # the largest 2 area / edge length over boundary-edge triangles is the
    # spacing the resolution cap and the model pole compare against
    meshes = {f"{name} layer={layer:g}": generate_mesh(
                  dom, 0.1, boundary_layer_width=layer)
              for name, dom in catalogue.items() for layer in (0.0, 0.05)}
    meshes["mesh_for(lshape:0.7,1.3, -20, 0.03)"] = verify.mesh_for(
        parse_domain("lshape:0.7,1.3"), -20.0, 0.03)
    for label, mesh in meshes.items():
        edges, weights = _oracle_extract_boundary(mesh.nodes, mesh.triangles)
        assert mesh.h_boundary >= _oracle_boundary_height(
            mesh, edges, weights), label


# --- the loop mesh builders that the ring and tensor builders replaced ------

def _oracle_grid_block(xs, ys):
    nx, ny = len(xs), len(ys)
    nodes = [(x, y) for j in range(ny) for x in xs for y in [ys[j]]]
    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            n00 = j * nx + i
            n10 = n00 + 1
            n01 = n00 + nx
            n11 = n01 + 1
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    return nodes, tris


def _oracle_lshape(a, b, h, layer_width):
    xs1 = geometry._graded_1d(a, h, layer_width, layer_width)
    xs2 = a + geometry._graded_1d(a, h, layer_width, layer_width)
    ys1 = geometry._graded_1d(b, h, layer_width, layer_width)
    ys2 = b + geometry._graded_1d(b, h, layer_width, layer_width)
    node_id = {}
    nodes = []
    tris = []
    for xs, ys in [(xs1, ys1), (xs2, ys1), (xs1, ys2)]:
        local_nodes, local_tris = _oracle_grid_block(xs, ys)
        remap = []
        for p in local_nodes:
            if p not in node_id:
                node_id[p] = len(nodes)
                nodes.append(p)
            remap.append(node_id[p])
        tris.extend((remap[i], remap[j], remap[k]) for i, j, k in local_tris)
    return np.array(nodes), np.array(tris)


def _oracle_ring_angles(radii, h, base=6, multiple_of=1):
    """Per-ring count loop, as the ring builder did it."""
    counts = []
    for k, r in enumerate(radii):
        m = max(base, int(round(2.0 * math.pi * r / h)))
        if multiple_of > 1:
            m = multiple_of * max(1, int(round(m / multiple_of)))
        if counts and (r - radii[k - 1]) < 0.6 * h:
            m = counts[-1]
        counts.append(m)
    return [2.0 * math.pi * np.arange(m) / m for m in counts]


def _oracle_ring_nodes(radii, ring_angles, point_of):
    """Per-node placement, centre first, as the ring builder did it."""
    nodes = [point_of(0.0, 0.0)]
    for r, angles in zip(radii, ring_angles):
        nodes.extend(point_of(r, th) for th in angles)
    return np.array(nodes)


@pytest.mark.parametrize("layer", [0.0, 0.05], ids=["ungraded", "graded"])
def test_ring_and_tensor_meshes_match_loop_builders(layer):
    h = 0.1

    def polar(r, th):
        return (r * math.cos(th), r * math.sin(th))

    radii = geometry._graded_1d(1.0, h, 0.0, layer)[1:]
    expected = _oracle_ring_nodes(
        radii, _oracle_ring_angles(radii, h), polar)
    mesh = generate_mesh(Domain.disk(1.0), h, boundary_layer_width=layer)
    assert mesh.nodes.tobytes() == expected.tobytes()

    apothem = 1.3 * math.cos(math.pi / 5)
    sector = 2.0 * math.pi / 5

    def ngon_point(d, th):
        t = d / apothem
        rho = t * (apothem / math.cos((th % sector) - sector / 2.0))
        return (rho * math.cos(th), rho * math.sin(th))

    depth = geometry._graded_1d(apothem, h, 0.0, layer)[1:]
    expected = _oracle_ring_nodes(
        depth, _oracle_ring_angles(depth, h, 5, 5), ngon_point)
    mesh = generate_mesh(Domain.regular_polygon(5, 1.3), h,
                         boundary_layer_width=layer)
    assert mesh.nodes.tobytes() == expected.tobytes()

    xs = geometry._graded_1d(1.0, h, layer, layer)
    ys = geometry._graded_1d(2.0, h, layer, layer)
    nodes, tris = _oracle_grid_block(xs, ys)
    mesh = generate_mesh(Domain.rectangle(1.0, 2.0), h,
                         boundary_layer_width=layer)
    assert mesh.nodes.tobytes() == np.array(nodes).tobytes()
    assert np.array_equal(mesh.triangles, tris)


def _coordinate_triangles(nodes, tris):
    return {tuple(nodes[t].ravel().tolist()) for t in tris}


@pytest.mark.parametrize("spec", ["lshape", "lshape:0.7,1.3"])
@pytest.mark.parametrize("layer", [0.0, 0.05], ids=["ungraded", "graded"])
def test_lshape_matches_three_block_oracle(spec, layer):
    dom = parse_domain(spec)
    mesh = generate_mesh(dom, 0.1, boundary_layer_width=layer)
    nodes, tris = _oracle_lshape(*dom.params, 0.1, layer)
    assert len(mesh.nodes) == len(nodes)
    assert len(mesh.triangles) == len(tris)
    assert (_coordinate_triangles(mesh.nodes, mesh.triangles)
            == _coordinate_triangles(nodes, tris))


def test_lshape_node_cap_counts_the_kept_nodes(monkeypatch):
    dom = Domain.lshape()
    kept = len(generate_mesh(dom, 0.1).nodes)
    monkeypatch.setattr(geometry, "_NODE_CAP", kept)
    assert len(generate_mesh(dom, 0.1).nodes) == kept
    monkeypatch.setattr(geometry, "_NODE_CAP", kept - 1)
    with pytest.raises(MeshResourceError, match="node cap"):
        generate_mesh(dom, 0.1)


@pytest.mark.parametrize("domain", [Domain.disk(1e4), Domain.annulus(1e4, 1),
                                    Domain.regular_polygon(6, 1e4)])
def test_ring_node_cap_refuses_oversize_meshes_early(domain):
    # 500 000 rings: the counts are checked as arrays, without a Python
    # loop over the rings and before any angle array is built
    start = time.perf_counter()
    with pytest.raises(MeshResourceError, match="node cap"):
        generate_mesh(domain, 0.02)
    assert time.perf_counter() - start < 0.6


def test_ring_node_cap_counts_every_node(catalogue, monkeypatch):
    for name in ("disk", "annulus", "ngon"):
        dom = catalogue[name]
        size = len(generate_mesh(dom, 0.1, boundary_layer_width=0.1).nodes)
        monkeypatch.setattr(geometry, "_NODE_CAP", size)
        mesh = generate_mesh(dom, 0.1, boundary_layer_width=0.1)
        assert len(mesh.nodes) == size, name
        monkeypatch.setattr(geometry, "_NODE_CAP", size - 1)
        with pytest.raises(MeshResourceError, match="node cap"):
            generate_mesh(dom, 0.1, boundary_layer_width=0.1)
        monkeypatch.undo()
