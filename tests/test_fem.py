import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import jittered_mesh
from dcl0 import fem
from dcl0.fem import (MeshFormatError, _assemble_nodes, _boundary_nodes,
                      _GridLaplacianSolver, _load, _validate,
                      assemble, build_structured_mesh, export_mesh,
                      import_mesh, read_field, write_field, w_of)
from dcl0.measures import DiscreteMeasureSpace, weighted_l0, weighted_l1
from dcl0.problems import default_load, poisson_prototype
from dcl0.ssn import factor_spd


def triangle_quadrature(nodes, tri, f, order=5):
    """Independent 7-point Gauss rule (degree 5) over one triangle."""
    w = np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827])
    a, b = 0.059715871789770, 0.470142064105115
    c, d = 0.797426985353087, 0.101286507323456
    bary = np.array([[1/3, 1/3, 1/3],
                     [a, b, b], [b, a, b], [b, b, a],
                     [c, d, d], [d, c, d], [d, d, c]])
    p = nodes[tri]
    pts = bary @ p
    d1, d2 = p[1] - p[0], p[2] - p[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    return area * float(w @ np.array([f(x, y, bl) for (x, y), bl in
                                      zip(pts, bary)]))


class TestStructuredMesh:
    def test_counts_n2(self):
        mesh = build_structured_mesh(2)
        assert mesh.num_nodes == 9
        assert mesh.num_triangles == 8

    def test_counts_n8(self):
        mesh = build_structured_mesh(8)
        assert mesh.num_nodes == 81
        assert mesh.num_triangles == 128

    def test_total_area_is_one(self):
        for n in (2, 5, 16):
            system = assemble(build_structured_mesh(n))
            assert system.elem_measure.sum() == pytest.approx(1.0, abs=1e-12)

    def test_congruent_elements(self):
        n = 7
        system = assemble(build_structured_mesh(n))
        assert np.allclose(system.elem_measure, 1.0 / (2 * n * n), rtol=1e-14)

    def test_boundary_nodes(self):
        mesh = build_structured_mesh(4)
        on_boundary = np.flatnonzero(
            (mesh.nodes[:, 0] == 0) | (mesh.nodes[:, 0] == 1)
            | (mesh.nodes[:, 1] == 0) | (mesh.nodes[:, 1] == 1))
        assert np.array_equal(np.sort(mesh.boundary_nodes), on_boundary)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            build_structured_mesh(1)

    def test_triangles_match_cell_loop(self):
        # reference: cells row by row, two triangles per cell, so that
        # assembly sums element contributions in the same order
        for n in (2, 3, 7):
            ref = []
            for j in range(n):
                for i in range(n):
                    v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
                    v01, v11 = v00 + n + 1, v10 + n + 1
                    ref += [(v00, v10, v11), (v00, v11, v01)]
            assert np.array_equal(build_structured_mesh(n).triangles,
                                  np.array(ref, dtype=int))

    def test_boundary_nodes_match_row_unique(self):
        mesh = jittered_mesh(9, seed=3)
        edges = np.concatenate([mesh.triangles[:, [0, 1]],
                                mesh.triangles[:, [1, 2]],
                                mesh.triangles[:, [2, 0]]])
        edges.sort(axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        ref = np.unique(uniq[counts == 1])
        assert np.array_equal(_boundary_nodes(mesh.triangles, mesh.num_nodes),
                              ref)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = build_structured_mesh(3)
        path = tmp_path / "mesh.txt"
        export_mesh(mesh, path)
        back = import_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary_nodes, mesh.boundary_nodes)

    def test_imported_counts_match_generator(self, tmp_path):
        path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(2), path)
        mesh = import_mesh(path)
        assert mesh.num_nodes == 9 and mesh.num_triangles == 8

    def test_repeated_node_in_triangle(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 1\n")
        with pytest.raises(MeshFormatError):
            import_mesh(path)

    def test_repeated_node_names_first_bad_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 4\n0 0\n1 0\n0 1\n1 1\n"
                        "triangles 3\n0 1 2\n1 3 3\n2 2 1\n")
        with pytest.raises(MeshFormatError, match=r"\[1 3 3\]"):
            import_mesh(path)

    def test_inverted_triangle(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n")
        with pytest.raises(MeshFormatError):
            import_mesh(path)

    def test_dangling_node(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 4\n0 0\n1 0\n0 1\n5 5\ntriangles 1\n0 1 2\n")
        with pytest.raises(MeshFormatError):
            import_mesh(path)

    @pytest.mark.parametrize("text", ["nodes 0\ntriangles 0\n",
                                      "nodes 3\n0 0\n1 0\n0 1\ntriangles 0\n"])
    def test_mesh_without_triangles(self, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match="no triangles"):
            import_mesh(path)

    @pytest.mark.parametrize("unused", [0, 2, 3])
    def test_rejects_unused_node(self, tmp_path, unused):
        nodes = [[0, 0], [1, 0], [0, 1], [1, 1]]
        rows = [r for r in ([0, 1, 2], [1, 3, 2], [0, 1, 3]) if unused not in r]
        text = "nodes 4\n" + "".join(f"{x} {y}\n" for x, y in nodes)
        text += f"triangles {len(rows)}\n" + "".join(
            f"{a} {b} {c}\n" for a, b, c in rows)
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match="nodes not used"):
            import_mesh(path)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices 3\n")
        with pytest.raises(MeshFormatError):
            import_mesh(path)

    @pytest.mark.parametrize("text, message", [
        ("nodes -2\n", "negative nodes count -2"),
        ("nodes -2\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n",
         "negative nodes count -2"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles -1\n",
         "negative triangles count -1"),
    ])
    def test_negative_count(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=message):
            import_mesh(path)

    @pytest.mark.parametrize("text, message", [
        ("nodes 3\n0 0\n1 0\n0\n", "file ended prematurely"),
        ("nodes 3\n0 0\n1 x\n0 1\ntriangles 1\n0 1 2\n",
         "bad value near token 2"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n7\n",
         "trailing data after the triangles section"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 3\n",
         "triangle refers to a node index out of range"),
    ], ids=["truncated", "bad-value", "trailing-data", "index-out-of-range"])
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=message):
            import_mesh(path)

    @pytest.mark.parametrize("text, message", [
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999\n",
         "bad value near token 10: 99999999999999999999 is beyond"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 -99999999999999999999\n",
         "bad value near token 10: -99999999999999999999 is beyond"),
        ("nodes 99999999999999999999\n", "bad value near token 1: "),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 18446744073709551616\n",
         "bad value near token 9: 18446744073709551616 is beyond"),
    ], ids=["index", "negative-index", "node-count", "triangle-count"])
    def test_integer_beyond_int64(self, tmp_path, text, message):
        # numpy's C parser saturates these at the int64 maximum, and the
        # token reader's numpy conversion raises OverflowError
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=message):
            import_mesh(path)

    def test_int64_maximum_is_an_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 3\n0 0\n1 0\n0 1\n"
                        "triangles 1\n0 1 9223372036854775807\n")
        with pytest.raises(MeshFormatError, match="index out of range"):
            import_mesh(path)

    def test_import_traces_little_beyond_its_arrays(self, tmp_path):
        # numbers parsed in C: no Python object per token, and validation
        # with no whole-mesh (m, 3, 2) or (3 m, 2) temporary
        path = tmp_path / "mesh.txt"
        export_mesh(jittered_mesh(96, seed=3), path)
        peak = traced_peak(import_mesh, path)
        mesh = import_mesh(path)
        returned = sum(a.nbytes for a in (mesh.nodes, mesh.triangles,
                                          mesh.boundary_nodes, mesh.areas))
        assert peak <= 3 * returned

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coordinate(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"nodes 3\n0 0\n1 {bad}\n0 1\ntriangles 1\n0 1 2\n")
        with pytest.raises(MeshFormatError,
                           match="node 1 has a non-finite coordinate"):
            import_mesh(path)

    def test_rejects_edge_of_three_triangles(self, tmp_path):
        # a repeated triangle puts each of its interior edges in three
        # triangles; the imported area would be 1.03125, not 1
        mesh = build_structured_mesh(4)
        path = tmp_path / "bad.txt"
        export_mesh(dataclasses.replace(
            mesh, triangles=np.vstack([mesh.triangles, mesh.triangles[:1]])),
            path)
        with pytest.raises(MeshFormatError, match="belongs to 3 triangles"):
            import_mesh(path)

    def test_field_round_trip(self, tmp_path):
        values = np.array([0.0, -1.5, 3.25e-17, 2.0 / 3.0])
        path = tmp_path / "field.txt"
        write_field(path, values)
        assert np.array_equal(read_field(path), values)

    def test_field_bytes(self, tmp_path):
        # one repr per line, as a loop of float(v) writes would give
        values = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5])
        path = tmp_path / "field.txt"
        write_field(path, values)
        expected = "field 5\n" + "".join(f"{float(v)!r}\n" for v in values)
        assert path.read_bytes() == expected.encode()
        assert path.read_text().splitlines()[1:4] == ["-0.0", "5e-324",
                                                      "1e+300"]

    def test_field_bytes_match_a_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(19)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 20, 2000)
        values[::7] = -0.0
        values[1::11] = 5e-324 * rng.integers(1, 1000, values[1::11].size)
        values[2::13] = 1e16
        values[3::17] = 1e-5
        values[4::19] = rng.integers(-1000, 1000, values[4::19].size)
        for field in (values, values[:1], values[:0]):
            path = tmp_path / "field.txt"
            write_field(path, field)
            expected = f"field {field.size}\n" + "".join(
                f"{float(v)!r}\n" for v in field)
            assert path.read_bytes() == expected.encode()
            assert np.array_equal(read_field(path), field)
        write_field(path, [])
        assert path.read_bytes() == b"field 0\n"

    def test_mesh_bytes_match_a_per_row_writer(self, tmp_path):
        for mesh in (build_structured_mesh(2), jittered_mesh(9, seed=6)):
            path = tmp_path / "mesh.txt"
            export_mesh(mesh, path)
            expected = f"nodes {mesh.num_nodes}\n"
            expected += "".join(f"{float(x)!r} {float(y)!r}\n"
                                for x, y in mesh.nodes)
            expected += f"triangles {mesh.num_triangles}\n"
            expected += "".join(f"{i} {j} {k}\n" for i, j, k in mesh.triangles)
            assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("size", [0, 1, fem._WRITE_ROWS - 1,
                                      fem._WRITE_ROWS, fem._WRITE_ROWS + 1])
    def test_chunked_text_matches_a_whole_file_writer(self, tmp_path, size):
        # against the text built in memory as one string, as the writers
        # once did
        special = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1])
        values = np.resize(special, size)
        path = tmp_path / "field.txt"
        write_field(path, values)
        expected = "\n".join([f"field {size}", *map(repr, values.tolist())])
        assert path.read_bytes() == (expected + "\n").encode()

        nodes = np.resize(special, (size, 2))
        triangles = np.arange(3 * size).reshape(size, 3)
        export_mesh(fem.TriMesh(nodes, triangles, None, None), path)
        lines = [f"nodes {size}"]
        lines += [f"{x!r} {y!r}" for x, y in nodes.tolist()]
        lines.append(f"triangles {size}")
        lines += [f"{i} {j} {k}" for i, j, k in triangles.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_writing_a_field_holds_no_whole_text(self, tmp_path):
        # 2e5 values, 3.9 MB of text: only a chunk of it is held at once
        values = np.random.default_rng(5).standard_normal(200_000)
        assert traced_peak(write_field, tmp_path / "f.txt", values) < 4e6

    def test_field_bad_count(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("field 3\n1.0\n2.0\n")
        with pytest.raises(MeshFormatError):
            read_field(path)

    @pytest.mark.parametrize("text", ["field x\n1.0\n",
                                      "field 2\n1.0\nabc\n"])
    def test_field_parse_failure(self, tmp_path, text):
        path = tmp_path / "field.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError):
            read_field(path)

    @pytest.mark.parametrize("text", ["", "field\n", "values 1\n1.0\n"])
    def test_field_needs_its_header(self, tmp_path, text):
        message = {"": "expected 'field' at token 0",
                   "field\n": "file ended prematurely",
                   "values 1\n1.0\n": "expected 'field' at token 0"}[text]
        path = tmp_path / "field.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=message):
            read_field(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_field_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "field.txt"
        path.write_text(f"field 3\n1.0\n{bad}\n2.0\n")
        with pytest.raises(MeshFormatError, match="value 1"):
            read_field(path)


class TestAssembly:
    def test_zero_load(self):
        mesh = build_structured_mesh(4)
        b_full = _load(mesh, g=None)
        assert np.array_equal(b_full, np.zeros(mesh.num_nodes))

    def test_constants_in_stiffness_kernel(self):
        mesh = build_structured_mesh(5)
        A_full = _assemble_nodes(mesh)[0]
        ones = np.ones(mesh.num_nodes)
        assert np.max(np.abs(A_full @ ones)) <= 1e-12

    def test_free_block_of_node_matrices(self):
        # assemble keeps the free rows and columns of the node matrices
        mesh = jittered_mesh(6, seed=3)
        A_full, M_full = _assemble_nodes(mesh)
        b_full = _load(mesh, default_load)
        system = assemble(mesh, default_load)
        free = system.free_nodes
        for full, block in ((A_full, system.A), (M_full, system.M)):
            assert (full[free][:, free] != block).nnz == 0
        assert np.array_equal(b_full[free], system.b)
        assert np.array_equal(mesh.areas, system.elem_measure)

    def test_stiffness_spd(self, rng):
        system = assemble(build_structured_mesh(6))
        assert (system.A - system.A.T).count_nonzero() == 0
        for _ in range(10):
            x = rng.standard_normal(system.num_free)
            assert float(x @ (system.A @ x)) > 0.0

    def test_incidence_three_ones_per_row(self):
        # elem_nodes holds the column indices of the 0/1 incidence matrix:
        # three distinct nodes per element, ascending, those of its triangle
        system = assemble(build_structured_mesh(5))
        nodes = system.elem_nodes
        assert nodes.dtype == np.int32 and nodes.shape == (50, 3)
        assert np.all(np.diff(nodes, axis=1) > 0)
        assert np.array_equal(nodes, np.sort(system.mesh.triangles, axis=1))
        counts = np.asarray(incidence_of(system.mesh).sum(axis=1)).ravel()
        assert np.all(counts == 3)

    def test_patch_measure_sums_incident_elements(self):
        system = assemble(build_structured_mesh(4))
        expected = incidence_of(system.mesh).T @ system.elem_measure
        assert np.array_equal(system.patch_measure, expected)

    def test_basis_integral_third_of_patch(self):
        for n in (4, 8, 16):
            system = assemble(build_structured_mesh(n))
            assert np.allclose(system.basis_integral,
                               system.patch_measure / 3.0, rtol=1e-13)

    def test_mass_row_sums(self):
        mesh = build_structured_mesh(5)
        system = assemble(mesh)
        M_full = _assemble_nodes(mesh)[1]
        row_sums = np.asarray(M_full.sum(axis=1)).ravel()
        assert np.allclose(row_sums, system.basis_integral, rtol=1e-13)

    def test_stiffness_energy_against_analytic_elements(self, rng):
        # per-element linear interpolants: fit the affine function through
        # the vertex values and integrate the gradient product analytically
        mesh = build_structured_mesh(4)
        A_full = _assemble_nodes(mesh)[0]
        u = rng.standard_normal(mesh.num_nodes)
        v = rng.standard_normal(mesh.num_nodes)
        energy = 0.0
        for tri in mesh.triangles:
            p = mesh.nodes[tri]
            basis = np.column_stack([np.ones(3), p])
            cu = np.linalg.solve(basis, u[tri])
            cv = np.linalg.solve(basis, v[tri])
            d1, d2 = p[1] - p[0], p[2] - p[0]
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            energy += area * (cu[1] * cv[1] + cu[2] * cv[2])
        assert float(u @ (A_full @ v)) == pytest.approx(energy, abs=1e-12)

    def test_load_exact_for_linear_g(self):
        mesh = build_structured_mesh(3)

        def g(x, y):
            return 3.0 * x + 2.0 * y - 1.0

        b_full = _load(mesh, g)
        exact = np.zeros(mesh.num_nodes)
        for t, tri in enumerate(mesh.triangles):
            for local, j in enumerate(tri):
                def integrand(x, y, bary, local=local):
                    return g(x, y) * bary[local]
                exact[j] += triangle_quadrature(mesh.nodes, tri, integrand)
        assert np.allclose(b_full, exact, atol=1e-14)

    def test_unconstrained_energy_minimum(self):
        # solving A u = b minimizes the discrete energy, used as the solver
        # starting point
        from dcl0.problems import default_load
        system = assemble(build_structured_mesh(16), default_load)
        u = system.stiffness_solve(system.b)
        value = 0.5 * float(u @ (system.A @ u)) - float(system.b @ u)
        assert value < 0.0
        assert np.max(np.abs(system.A @ u - system.b)) <= 1e-12

    def test_stiffness_solve_residual(self, rng):
        system = assemble(jittered_mesh(20, seed=5))
        rhs = rng.standard_normal(system.num_free)
        x = system.stiffness_solve(rhs)
        assert (np.linalg.norm(system.A @ x - rhs)
                <= 1e-12 * np.linalg.norm(rhs))


def incidence_of(mesh):
    """The element-by-node 0/1 incidence matrix, converted to CSR from one
    COO list: the reference for ``elem_nodes``, ``w_of`` and the node
    sums."""
    m = mesh.num_triangles
    return sp.coo_matrix(
        (np.ones(3 * m), (np.repeat(np.arange(m), 3), mesh.triangles.ravel())),
        shape=(m, mesh.num_nodes)).tocsr()


def reference_assemble(mesh, g=None):
    """Straightforward P1 assembly, kept as the bit-level reference: element
    gradients by a rotation matmul, element blocks by einsum, one int64 COO
    list per matrix converted to CSR by scipy, and the free block sliced out
    of the all-node matrices."""
    nodes, tris = mesh.nodes, mesh.triangles
    num_nodes, m = mesh.num_nodes, mesh.num_triangles
    p = nodes[tris]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    grads = np.stack([(p[:, 2] - p[:, 1]) @ rot.T, (p[:, 0] - p[:, 2]) @ rot.T,
                      (p[:, 1] - p[:, 0]) @ rot.T], axis=1)
    grads /= (2.0 * areas)[:, None, None]
    a_loc = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]
    m_loc = ((np.ones((3, 3)) + np.eye(3))[None, :, :]
             * (areas / 12.0)[:, None, None])
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    shape = (num_nodes, num_nodes)
    A_full = sp.coo_matrix((a_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    M_full = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    b_full = np.zeros(num_nodes)
    if g is not None:
        mids = [0.5 * (p[:, i] + p[:, j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        g01, g12, g20 = (np.asarray(g(mid[:, 0], mid[:, 1]), dtype=float)
                         for mid in mids)
        scale = areas / 6.0
        b_loc = np.stack([(g01 + g20) * scale, (g01 + g12) * scale,
                          (g12 + g20) * scale], axis=1)
        np.add.at(b_full, tris.ravel(), b_loc.ravel())
    incidence = incidence_of(mesh)
    free = np.setdiff1d(np.arange(num_nodes), mesh.boundary_nodes)
    return {"A": A_full[free][:, free].tocsr(),
            "M": M_full[free][:, free].tocsr(), "b": b_full[free],
            "incidence": incidence, "elem_measure": areas,
            "patch_measure": incidence.T @ areas}


def traced_peak(fn, *args):
    """Peak of the memory traced by ``tracemalloc`` during ``fn(*args)``,
    the returned value included."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def general(mesh):
    """``mesh`` with ``grid_n`` unset: what :func:`assemble` does on any
    mesh that is not :func:`build_structured_mesh`'s grid."""
    return dataclasses.replace(mesh, grid_n=None)


ASSEMBLY_MESHES = (
    [pytest.param(("grid", n, None), id=f"grid-{n}") for n in (2, 3, 7, 64)]
    + [pytest.param(("jitter", n, seed), id=f"jitter-{n}-seed{seed}")
       for n in (6, 24, 48) for seed in (0, 1, 2)])


class TestAssemblyMatchesReference:
    @pytest.mark.parametrize("case", ASSEMBLY_MESHES)
    @pytest.mark.parametrize("g", [None, default_load], ids=["no-load", "load"])
    def test_bit_identical(self, case, g):
        # element assembly, also on the grid's topology (grid_n unset)
        kind, n, seed = case
        mesh = (general(build_structured_mesh(n)) if kind == "grid"
                else jittered_mesh(n, seed=seed))
        ref = reference_assemble(mesh, g)
        system = assemble(mesh, g)
        for name in ("A", "M"):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(getattr(system, name), part),
                                      getattr(ref[name], part)), (name, part)
        # elem_nodes is the reference incidence's index array
        assert np.array_equal(system.elem_nodes.ravel(),
                              ref["incidence"].indices)
        for name in ("b", "elem_measure", "patch_measure"):
            assert np.array_equal(getattr(system, name), ref[name]), name

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_bit_identical_for_any_chunk(self, monkeypatch, chunk):
        # chunks below one row's block rows (one whole row per pass), of
        # a few rows and of many rows
        monkeypatch.setattr(fem, "_CHUNK", chunk)
        for mesh in (general(build_structured_mesh(7)),
                     jittered_mesh(6, seed=2)):
            ref = reference_assemble(mesh, default_load)
            system = assemble(mesh, default_load)
            for name in ("A", "M"):
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(
                        getattr(getattr(system, name), part),
                        getattr(ref[name], part)), (name, part)
            assert np.array_equal(system.b, ref["b"])

    @pytest.mark.parametrize("case", ASSEMBLY_MESHES)
    def test_without_mass_same_stiffness_and_load(self, case):
        kind, n, seed = case
        mesh = (build_structured_mesh(n) if kind == "grid"
                else jittered_mesh(n, seed=seed))
        full = assemble(mesh, default_load)
        lean = assemble(mesh, default_load, mass=False)
        assert lean.M is None
        # the stiffness of the mass system less its stored zeros
        expected = full.A.copy()
        expected.eliminate_zeros()
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(lean.A, part),
                                  getattr(expected, part)), part
            assert (getattr(lean.A, part).dtype
                    == getattr(full.A, part).dtype), part
        assert np.array_equal(lean.b, full.b)
        if kind == "jitter":
            # no coupling of a jittered mesh sums to exactly zero
            for part in ("indices", "indptr"):
                assert np.array_equal(getattr(lean.A, part),
                                      getattr(full.A, part)), part

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_grid_stiffness_stores_the_five_point_stencil(self, n):
        # the diagonal couplings of the structured mesh are exactly zero
        # (cot 90 degrees) and are not stored
        A = assemble(build_structured_mesh(n), mass=False).A
        m = n - 1
        assert A.nnz == 5 * m * m - 4 * m
        assert np.all(A.data != 0.0)

    def test_grid_block_fills_less_without_stored_zeros(self):
        mesh = build_structured_mesh(32)
        lean = assemble(mesh, default_load, mass=False)
        full = assemble(mesh, default_load)
        # the free nodes outside a central disk, a block SSN may factor
        xy = mesh.nodes[lean.free_nodes] - 0.5
        block = np.flatnonzero(np.hypot(xy[:, 0], xy[:, 1]) > 0.25)
        lean_lu, full_lu = (factor_spd(A[block][:, block].T)
                            for A in (lean.A, full.A))
        assert lean_lu.nnz < full_lu.nnz

    def test_all_node_matrices(self):
        # without keep, the node matrices of every node
        mesh = jittered_mesh(6, seed=1)
        ref = reference_assemble(mesh, default_load)
        A_full, M_full = _assemble_nodes(mesh)
        b_full = _load(mesh, default_load)
        free = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_nodes)
        for full, name in ((A_full, "A"), (M_full, "M")):
            assert full.shape == (mesh.num_nodes, mesh.num_nodes)
            assert (full[free][:, free] != ref[name]).nnz == 0
        assert np.array_equal(b_full[free], ref["b"])

    def test_stiffness_and_mass_share_one_pattern(self):
        system = assemble(jittered_mesh(12, seed=4), default_load)
        assert system.A.indices is system.M.indices
        assert system.A.indptr is system.M.indptr
        assert system.A.indices.dtype == np.int32

    def test_peak_memory_below_reference(self):
        # a deterministic guard: peak RSS depends on the allocator, the
        # traced peak only on what assembly allocates; element assembly on
        # the grid's topology
        mesh = general(build_structured_mesh(128))
        assert (traced_peak(assemble, mesh, default_load)
                <= 0.9 * traced_peak(reference_assemble, mesh, default_load))


def same_csr(a, b):
    return all(np.array_equal(getattr(a, part), getattr(b, part))
               and getattr(a, part).dtype == getattr(b, part).dtype
               for part in ("data", "indices", "indptr"))


class TestGridOperators:
    """The closed-form grid operators of :func:`assemble`."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 128])
    def test_element_assembly_bits_where_n_is_a_power_of_two(self, n):
        # the nodes and areas are exact, so element assembly gives the
        # closed form bit for bit, +0.0 couplings included
        mesh = build_structured_mesh(n)
        for mass in (True, False):
            for g in (None, default_load):
                grid = assemble(mesh, g, mass)
                elements = assemble(general(mesh), g, mass)
                assert same_csr(grid.A, elements.A), (mass, g)
                assert np.array_equal(np.signbit(grid.A.data),
                                      np.signbit(elements.A.data))
                if mass:
                    assert same_csr(grid.M, elements.M), g
                    assert grid.A.indices is grid.M.indices
                    assert grid.A.indptr is grid.M.indptr
                else:
                    assert grid.M is None
                assert np.array_equal(grid.b, elements.b), (mass, g)

    @pytest.mark.parametrize("n", [3, 5, 7, 12])
    def test_stiffness_is_the_five_point_laplacian(self, n):
        m = n - 1
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        laplacian = sp.kronsum(T, T, format="csr")
        lean = assemble(build_structured_mesh(n), mass=False)
        full = assemble(build_structured_mesh(n))
        stored = full.A.copy()
        stored.eliminate_zeros()
        for A in (lean.A, stored):
            assert A.nnz == laplacian.nnz
            assert (A != laplacian).nnz == 0
        x = np.random.default_rng(n).standard_normal(m * m)
        assert np.max(np.abs(lean.grid_solver()(lean.A @ x) - x)) <= 1e-13
        # M: one value on the diagonal and one off it
        assert np.unique(full.M.diagonal()).size == 1
        assert np.unique(full.M.data).size == 2

    def test_imported_grid_gives_the_same_system(self, tmp_path):
        built = build_structured_mesh(12)
        export_mesh(built, tmp_path / "grid.txt")
        imported = import_mesh(tmp_path / "grid.txt")
        assert imported.grid_n == 12
        for mass in (True, False):
            a, b = (assemble(mesh, default_load, mass)
                    for mesh in (built, imported))
            for name in ("A", "M") if mass else ("A",):
                assert same_csr(getattr(a, name), getattr(b, name)), name
            assert np.array_equal(a.b, b.b)

    def test_grid_assembles_no_element(self, monkeypatch):
        def no_elements(*args, **kwargs):
            raise AssertionError("element assembly on the grid")

        monkeypatch.setattr(fem, "_assemble_nodes", no_elements)
        system = assemble(build_structured_mesh(16), default_load)
        assert system.A.shape == system.M.shape == (225, 225)


INCIDENCE_MESHES = (
    [pytest.param(("grid", n, None), id=f"grid-{n}") for n in (2, 7, 64)]
    + [pytest.param(("jitter", n, seed), id=f"jitter-{n}-seed{seed}")
       for n in (24, 48) for seed in (0, 1, 2)])


class TestIncidenceProducts:
    """``w_of``, the node sums and ``patch_measure`` against the products
    with the CSR incidence matrix they replace, bit for bit."""

    @pytest.mark.parametrize("case", INCIDENCE_MESHES)
    def test_match_incidence_products(self, case):
        kind, n, seed = case
        mesh = (build_structured_mesh(n) if kind == "grid"
                else jittered_mesh(n, seed=seed))
        system = assemble(mesh, default_load)
        incidence = incidence_of(mesh)
        rng = np.random.default_rng(0 if seed is None else seed)
        u = system.expand(rng.standard_normal(system.num_free))
        u[rng.random(u.size) < 0.3] = 0.0
        assert np.array_equal(w_of(u, system), incidence @ np.abs(u))
        for r in (rng.standard_normal(mesh.num_triangles),
                  (rng.random(mesh.num_triangles) < 0.5).astype(float),
                  np.ones(mesh.num_triangles)):
            assert np.array_equal(system.node_sums(r), incidence.T @ r)
        assert np.array_equal(system.patch_measure,
                              incidence.T @ mesh.areas)


class TestSymmetricViews:
    @pytest.mark.parametrize("mesh", [build_structured_mesh(16),
                                      jittered_mesh(24, seed=1)],
                             ids=["grid-16", "jitter-24"])
    def test_csc_view_of_a_block_is_its_csc_copy(self, mesh):
        # principal blocks reach factor_spd as sub.T: on an exactly
        # symmetric matrix that is tocsc() array for array
        A = assemble(mesh).A
        assert (A != A.T).nnz == 0
        rng = np.random.default_rng(3)
        for active in (np.arange(A.shape[0]),
                       np.flatnonzero(rng.random(A.shape[0]) < 0.6)):
            sub = A[active][:, active]
            view, copy = sub.T, sub.tocsc()
            assert view.format == "csc"
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(view, part),
                                      getattr(copy, part)), part


class TestWOf:
    def test_zero(self):
        system = assemble(build_structured_mesh(4))
        assert np.array_equal(w_of(np.zeros(25), system), np.zeros(32))

    def test_unit_interior_node(self):
        system = assemble(build_structured_mesh(4))
        j = system.free_nodes[0]
        u = np.zeros(system.mesh.num_nodes)
        u[j] = 1.0
        w = w_of(u, system)
        patch = np.any(system.elem_nodes == j, axis=1)
        assert np.all(w[patch] == 1.0)
        assert np.all(w[~patch] == 0.0)

    def test_dimension_mismatch(self):
        system = assemble(build_structured_mesh(4))
        with pytest.raises(ValueError):
            w_of(np.zeros(3), system)

    def test_support_measure_identity(self, rng):
        # element-wise support measure of the interpolant equals the
        # weighted L0 of the per-element absolute sums
        system = assemble(build_structured_mesh(6))
        elems = DiscreteMeasureSpace(system.elem_measure)
        for _ in range(10):
            u = system.expand(rng.standard_normal(system.num_free))
            u[rng.random(u.size) < 0.5] = 0.0
            w = w_of(u, system)
            direct = system.elem_measure[w > 1e-10].sum()
            assert weighted_l0(w, elems) == pytest.approx(direct, rel=1e-14)

    def test_patch_supported_function_has_zero_gap(self, rng):
        # a function living on a few node patches satisfies the support
        # constraint whenever the patch measure fits the budget, and then
        # the L1/largest-K gap of its element sums vanishes
        from oracles import reformulation_gap
        system = assemble(build_structured_mesh(8))
        elems = DiscreteMeasureSpace(system.elem_measure)
        for _ in range(10):
            picks = rng.choice(system.free_nodes, size=3, replace=False)
            u = np.zeros(system.mesh.num_nodes)
            u[picks] = rng.standard_normal(3) + 0.5
            w = w_of(u, system)
            support = float(system.elem_measure[w > 0.0].sum())
            gap = reformulation_gap(w, elems, support)
            assert abs(gap) <= 1e-15

    def test_l1h_identity(self, rng):
        # nodal L1 with basis integrals equals one third of the weighted L1
        # of the element sums
        for n in (4, 8):
            system = assemble(build_structured_mesh(n))
            elems = DiscreteMeasureSpace(system.elem_measure)
            for _ in range(20):
                u = system.expand(rng.standard_normal(system.num_free))
                lhs = float(np.abs(u) @ system.basis_integral)
                rhs = weighted_l1(w_of(u, system), elems) / 3.0
                assert lhs == pytest.approx(rhs, rel=1e-12)


def _no_factorization(*args, **kwargs):
    raise AssertionError("unexpected sparse factorization")


def _fft_sine_diagonal(symbol, rhs):
    """``V diag(symbol) V`` of the 2-D sine basis by FFT, the reference the
    dense products are checked against: each 1-D DST-I is the imaginary part
    of a real FFT of the odd extension of length 2(m+1), scaled by -2."""
    m = symbol.shape[0]

    def dst_rows(x):
        ext = np.zeros((m, 2 * (m + 1)))
        ext[:, 1:m + 1] = x
        ext[:, m + 2:] = -x[:, ::-1]
        return np.fft.rfft(ext, axis=1).imag[:, 1:m + 1].T

    y = dst_rows(dst_rows(rhs.reshape(m, m)))
    y *= symbol / (4.0 * (m + 1) ** 2)
    return dst_rows(dst_rows(y)).ravel()


class TestGridSolver:
    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_matches_factorization(self, n, rng):
        system = assemble(build_structured_mesh(n))
        assert system.grid_solver() is not None
        rhs = rng.standard_normal(system.num_free)
        x = system.stiffness_solve(rhs)
        assert (np.linalg.norm(system.A @ x - rhs)
                <= 1e-12 * np.linalg.norm(rhs))
        reference = factor_spd(system.A.tocsc()).solve(rhs)
        assert (np.max(np.abs(x - reference))
                <= 1e-10 * np.max(np.abs(reference)))
        assert system._stiffness_lu is None

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_sine_diagonal_of_inverse_eigenvalues_solves(self, n, rng):
        grid = assemble(build_structured_mesh(n)).grid_solver()
        rhs = rng.standard_normal(grid.m ** 2)
        x = grid.sine_diagonal(1.0 / grid.eigenvalues)(rhs)
        reference = grid(rhs)
        assert (np.max(np.abs(x - reference))
                <= 1e-14 * np.max(np.abs(reference)))

    def test_sine_diagonal_in_explicit_basis(self, rng):
        # V diag(d) V' against the explicit orthonormal sine basis V, which
        # also diagonalizes A and tridiag(1, 0, 1) with the stored values
        system = assemble(build_structured_mesh(6))
        grid = system.grid_solver()
        m = grid.m
        k = np.arange(1, m + 1)
        S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
        V = np.kron(S, S)
        symbol = rng.uniform(0.5, 2.0, size=(m, m))
        apply = grid.sine_diagonal(symbol)
        dense = np.column_stack([apply(e) for e in np.eye(m * m)])
        assert np.allclose(dense, V @ np.diag(symbol.ravel()) @ V.T,
                           rtol=0.0, atol=1e-14)
        assert np.allclose(V.T @ system.A.toarray() @ V,
                           np.diag(grid.eigenvalues.ravel()),
                           rtol=0.0, atol=1e-13)
        shift = np.eye(m, k=1) + np.eye(m, k=-1)
        assert np.allclose(S.T @ shift @ S, np.diag(2.0 * grid.cosines),
                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 127, 383, 511])
    def test_basis_is_symmetric_and_its_own_inverse(self, m):
        V = _GridLaplacianSolver(m).basis
        assert np.array_equal(V, V.T)
        assert np.max(np.abs(V @ V - np.eye(m))) <= 1e-14

    def test_unreduced_sine_arguments_miss_the_inverse_bound(self):
        # the bound above holds because the arguments k l are reduced mod
        # 2(m+1); sin(k l pi / (m+1)) taken as it stands misses it
        m = 383
        k = np.arange(1, m + 1)
        V = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k, k) * (np.pi / (m + 1)))
        assert np.max(np.abs(V @ V - np.eye(m))) > 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 15])
    def test_matches_dense_solve(self, m, rng):
        T = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        A = np.kron(T, np.eye(m)) + np.kron(np.eye(m), T)
        rhs = rng.standard_normal(m * m)
        reference = np.linalg.solve(A, rhs)
        x = _GridLaplacianSolver(m)(rhs)
        assert (np.max(np.abs(x - reference))
                <= 1e-13 * np.max(np.abs(reference)))

    @pytest.mark.parametrize("m", [1, 2, 7, 64, 127])
    def test_sine_diagonal_matches_fft_transform(self, m, rng):
        grid = _GridLaplacianSolver(m)
        symbol = rng.uniform(0.5, 2.0, size=(m, m))
        rhs = rng.standard_normal(m * m)
        for d in (symbol, 1.0 / grid.eigenvalues):
            reference = _fft_sine_diagonal(d, rhs)
            x = grid.sine_diagonal(d)(rhs)
            assert (np.max(np.abs(x - reference))
                    <= 1e-13 * np.max(np.abs(reference)))
        assert (np.max(np.abs(grid(rhs) - reference))
                <= 1e-13 * np.max(np.abs(reference)))

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_mass_sandwich_matches_two_stiffness_solves(self, n, rng):
        # n = 2 is the 1 x 1 grid, where W is the zero matrix
        system = assemble(build_structured_mesh(n))
        grid = system.grid_solver()
        M = system.M
        mu, middle = grid.mass_sandwich(float(M.diagonal().mean()))
        for a in rng.standard_normal((3, system.num_free)):
            reference = system.stiffness_solve(M @ system.stiffness_solve(a))
            assert (np.linalg.norm(middle(a) - reference)
                    <= 1e-13 * np.linalg.norm(reference))
        lu = factor_spd(system.A.tocsc())
        reference = lu.solve(M @ lu.solve(a))
        assert (np.linalg.norm(middle(a) - reference)
                <= 1e-13 * np.linalg.norm(reference))
        if n <= 16:
            # mu is the diagonal of M in the sine basis (a dense check)
            V = np.kron(grid.basis, grid.basis)
            assert np.allclose(mu.ravel(), np.diag(V @ M.toarray() @ V),
                               rtol=1e-13, atol=0.0)

    def test_holds_basis_and_one_symbol(self):
        # no work buffer and no m x m array besides V and the symbol of A^-1
        m = 64
        grid = _GridLaplacianSolver(m)
        arrays = {name: value for name, value in vars(grid).items()
                  if isinstance(value, np.ndarray)}
        assert sorted(name for name, value in arrays.items()
                      if value.size > m) == ["_inverse", "basis"]
        assert (sum(value.nbytes for value in arrays.values())
                == 2 * m * m * 8 + 2 * m * 8)
        assert np.array_equal(grid._inverse, 1.0 / grid.eigenvalues)

    def test_rejects_jittered_mesh_of_grid_size(self, rng):
        system = assemble(jittered_mesh(24))
        assert system.num_free == 23 ** 2
        assert system.grid_solver() is None
        rhs = rng.standard_normal(system.num_free)
        x = system.stiffness_solve(rhs)
        assert (np.linalg.norm(system.A @ x - rhs)
                <= 1e-12 * np.linalg.norm(rhs))

    def test_rejects_grid_with_one_moved_node(self):
        mesh = build_structured_mesh(16)
        nodes = mesh.nodes.copy()
        nodes[8 * 17 + 8] += [0.01 / 16, 0.0]
        system = assemble(_validate(nodes, mesh.triangles))
        assert system.grid_solver() is None

    def test_grid_solves_do_not_factor(self, monkeypatch, rng):
        system = assemble(build_structured_mesh(16), default_load)
        problem = poisson_prototype(system)
        assert system._grid is None  # built on the first call
        monkeypatch.setattr(spla, "splu", _no_factorization)
        u = system.restrict(problem.unconstrained_minimizer())
        assert (np.linalg.norm(system.A @ u - system.b)
                <= 1e-12 * np.linalg.norm(system.b))
        system.stiffness_solve(rng.standard_normal(system.num_free))

    def test_jittered_full_solve_frees_factorization(self):
        system = assemble(jittered_mesh(24), default_load)
        problem = poisson_prototype(system)
        u = system.restrict(problem.unconstrained_minimizer())
        assert (np.linalg.norm(system.A @ u - system.b)
                <= 1e-12 * np.linalg.norm(system.b))
        assert system._stiffness_lu is None
        assert system.grid_solver() is None


def _other_diagonal(mesh):
    """The grid's cells cut along the upper-left to lower-right diagonal:
    the same nodes and the same 5-point free-dof stiffness."""
    lower, upper = mesh.triangles[0::2], mesh.triangles[1::2]
    v00, v10, v11, v01 = lower[:, 0], lower[:, 1], lower[:, 2], upper[:, 2]
    tris = np.stack([np.column_stack([v00, v10, v01]),
                     np.column_stack([v10, v11, v01])], axis=1)
    return mesh.nodes, tris.reshape(-1, 3)


def _moved_by_one_ulp(mesh):
    nodes = mesh.nodes.copy()
    nodes[8 * 17 + 8, 0] = np.nextafter(nodes[8 * 17 + 8, 0], 1.0)
    return nodes, mesh.triangles


def _reordered_triangles(mesh):
    order = np.random.default_rng(5).permutation(mesh.num_triangles)
    return mesh.nodes, mesh.triangles[order]


def _rotated_vertices(mesh):
    # the same counterclockwise triangles, each starting at its second vertex
    return mesh.nodes, mesh.triangles[:, [1, 2, 0]]


def _renumbered(mesh):
    new = np.random.default_rng(6).permutation(mesh.num_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[new] = mesh.nodes
    return nodes, new[mesh.triangles]


def _jittered(mesh):
    other = jittered_mesh(16)
    return other.nodes, other.triangles


class TestGridSize:
    """``TriMesh.grid_n`` is n exactly where the nodes and triangles are
    ``build_structured_mesh(n)``'s, and only then is there a grid solver."""

    @pytest.fixture
    def layouts(self, monkeypatch):
        # the shape of every part of the grid layout that is built
        built = []
        original = fem._grid_layout

        def recorded(n):
            for part in original(n):
                built.append(part.shape)
                yield part

        monkeypatch.setattr(fem, "_grid_layout", recorded)
        return built

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_structured_mesh_knows_its_size(self, n):
        mesh = build_structured_mesh(n)
        assert mesh.grid_n == n
        assert assemble(mesh).grid_solver().m == n - 1

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_exported_grid_keeps_its_size(self, tmp_path, n, layouts):
        path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(n), path)
        layouts.clear()
        mesh = import_mesh(path)
        assert mesh.grid_n == n
        assert layouts == [((n + 1) ** 2, 2), (2 * n * n, 3)]
        assert assemble(mesh).grid_solver().m == n - 1

    def test_cached_solver(self):
        system = assemble(build_structured_mesh(8))
        assert system.grid_solver() is system.grid_solver()

    @pytest.mark.parametrize("variant", [
        _jittered, _moved_by_one_ulp, _reordered_triangles, _rotated_vertices,
        _renumbered, _other_diagonal])
    def test_other_meshes_factor(self, tmp_path, variant, rng):
        nodes, triangles = variant(build_structured_mesh(16))
        path = tmp_path / "mesh.txt"
        export_mesh(_validate(nodes, triangles), path)
        mesh = import_mesh(path)
        assert mesh.grid_n is None
        system = assemble(mesh)
        assert system.grid_solver() is None
        rhs = rng.standard_normal(system.num_free)
        x = system.stiffness_solve(rhs)
        assert system._stiffness_lu is not None
        assert (np.linalg.norm(system.A @ x - rhs)
                <= 1e-12 * np.linalg.norm(rhs))

    def test_other_diagonal_has_the_grid_stiffness(self):
        # a mesh that only matches the stencil gets no grid solver
        mesh = build_structured_mesh(16)
        other = assemble(_validate(*_other_diagonal(mesh)), mass=False)
        assert other.mesh.grid_n is None
        assert np.array_equal(other.A.toarray(),
                              assemble(mesh, mass=False).A.toarray())

    def test_rebuilt_grid_has_no_size(self):
        mesh = build_structured_mesh(16)
        rebuilt = _validate(mesh.nodes, mesh.triangles)
        assert rebuilt.grid_n is None
        assert assemble(rebuilt).grid_solver() is None
        assert jittered_mesh(24).grid_n is None

    def test_jittered_file_stops_at_the_nodes(self, tmp_path, layouts):
        path = tmp_path / "mesh.txt"
        export_mesh(jittered_mesh(24), path)
        layouts.clear()
        assert import_mesh(path).grid_n is None
        assert layouts == [(25 ** 2, 2)]

    @pytest.mark.parametrize("text", [
        "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n",
        "nodes 4\n0 0\n1 0\n0 1\n1 1\ntriangles 2\n0 1 3\n0 3 2\n"])
    def test_no_grid_below_two_cells(self, tmp_path, text, layouts):
        # four nodes and two triangles are a 1 x 1 grid, which
        # build_structured_mesh refuses
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        assert import_mesh(path).grid_n is None
        assert layouts == []
