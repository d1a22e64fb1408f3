"""P1 triangular finite elements on the unit square (or imported meshes).

Provides the structured crossed-diagonal triangulation, plain-text mesh and
nodal-field I/O, and the assembly of the stiffness matrix, mass matrix and
load vector together with the element/patch measure vectors needed by the
discrete largest-K machinery.  Dirichlet rows/columns are eliminated and only
the free-dof matrices are kept; vectors crossing module boundaries are full
length with zeros on the boundary.
Stiffness solves use a 2-D sine transform where the free-dof stiffness is
the 5-point Laplacian of a square grid, and a cached sparse factorization
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .ssn import factor_spd

__all__ = [
    "TriMesh",
    "FemSystem",
    "MeshFormatError",
    "build_structured_mesh",
    "import_mesh",
    "export_mesh",
    "read_field",
    "write_field",
    "assemble",
    "w_of",
]

#: entrywise tolerance within which a free-dof stiffness matrix counts as the
#: 5-point Laplacian of a square grid; assembly on a structured mesh is off by
#: rounding only (8.9e-16 on the diagonal at n = 384)
GRID_TOL = 1e-12


class MeshFormatError(ValueError):
    """Raised for malformed mesh/field files or invalid mesh data."""


@dataclass
class TriMesh:
    """Conforming triangulation: node coordinates, triangle connectivity and
    boundary node set."""

    nodes: np.ndarray           # (N, 2) coordinates
    triangles: np.ndarray       # (m, 3) node indices, positive orientation
    boundary_nodes: np.ndarray  # sorted indices of nodes on the boundary

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]


def _signed_areas(nodes, triangles):
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _boundary_nodes(triangles, num_nodes):
    # boundary edges belong to exactly one triangle
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]])
    # one integer key per undirected edge: min * N + max
    keys = edges.min(axis=1).astype(np.int64) * num_nodes + edges.max(axis=1)
    uniq, counts = np.unique(keys, return_counts=True)
    single = uniq[counts == 1]
    return np.unique(np.concatenate([single // num_nodes, single % num_nodes]))


def _validate(nodes, triangles):
    num_nodes = nodes.shape[0]
    finite = np.isfinite(nodes).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise MeshFormatError(
            f"node {bad} has a non-finite coordinate {nodes[bad].tolist()}")
    if triangles.size == 0:
        raise MeshFormatError("mesh has no triangles")
    if triangles.min() < 0 or triangles.max() >= num_nodes:
        raise MeshFormatError("triangle refers to a node index out of range")
    repeated = ((triangles[:, 0] == triangles[:, 1])
                | (triangles[:, 1] == triangles[:, 2])
                | (triangles[:, 2] == triangles[:, 0]))
    if np.any(repeated):
        row = triangles[np.argmax(repeated)]
        raise MeshFormatError(f"degenerate triangle with repeated node: {row}")
    areas = _signed_areas(nodes, triangles)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshFormatError(
            f"triangle {bad} has non-positive area {areas[bad]:g}; "
            "nodes must be ordered counterclockwise")
    referenced = np.unique(triangles)
    if referenced.size != num_nodes:
        raise MeshFormatError("mesh contains nodes not used by any triangle")
    return TriMesh(nodes=nodes, triangles=triangles,
                   boundary_nodes=_boundary_nodes(triangles, num_nodes))


def build_structured_mesh(n: int) -> TriMesh:
    """Uniform n x n grid on the unit square, each cell split along the
    lower-left to upper-right diagonal: (n+1)^2 nodes, 2 n^2 triangles."""
    if n < 2:
        raise ValueError("need at least a 2 x 2 grid")
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) holds triangles 2 (j n + i) and 2 (j n + i) + 1
    j, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (j * (n + 1) + i).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    tris = np.stack([lower, upper], axis=1).reshape(-1, 3)
    return _validate(nodes, tris)


def export_mesh(mesh: TriMesh, path):
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.num_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {mesh.num_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def import_mesh(path) -> TriMesh:
    """Read a mesh in the plain-text format written by :func:`export_mesh`."""
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def expect(word):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != word:
            raise MeshFormatError(f"expected '{word}' at token {pos}")
        pos += 1

    def take(count, dtype):
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError("file ended prematurely")
        try:
            out = np.array(tokens[pos:pos + count], dtype=dtype)
        except ValueError as exc:
            raise MeshFormatError(f"bad value near token {pos}: {exc}") from exc
        pos += count
        return out

    def take_count(word):
        expect(word)
        count = int(take(1, int)[0])
        if count < 0:
            raise MeshFormatError(f"negative {word} count {count}")
        return count

    num_nodes = take_count("nodes")
    nodes = take(2 * num_nodes, float).reshape(num_nodes, 2)
    num_tris = take_count("triangles")
    tris = take(3 * num_tris, int).reshape(num_tris, 3)
    if pos != len(tokens):
        raise MeshFormatError("trailing data after triangle list")
    return _validate(nodes, tris)


def write_field(path, values):
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"field {values.size}\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")


def read_field(path):
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2 or tokens[0] != "field":
        raise MeshFormatError("field file must start with 'field N'")
    try:
        count = int(tokens[1])
        values = np.array(tokens[2:], dtype=float)
    except ValueError as exc:
        raise MeshFormatError(f"bad field file: {exc}") from exc
    if values.size != count:
        raise MeshFormatError(f"field file announces {count} values, "
                              f"found {values.size}")
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise MeshFormatError(f"field value {bad} is not finite: {values[bad]}")
    return values


class _GridLaplacianSolver:
    """Solver of ``A x = rhs`` for the 5-point Laplacian ``A = T (+) T`` of
    an ``m x m`` grid, ``T = tridiag(-1, 2, -1)``, on row-major vectors.

    The 2-D sine transform (DST-I) diagonalizes ``A``, so
    ``x = idst1(dst1(rhs) / lam)`` with the eigenvalues
    ``lam_kl = 4 sin^2(k pi / 2(m+1)) + 4 sin^2(l pi / 2(m+1))``.
    Each DST-I is a real FFT of the odd extension of length ``2(m+1)``;
    ``numpy.fft`` is already loaded, where ``scipy.fft`` would cost an
    import of ``scipy.special`` on first use.

    ``eigenvalues[k-1, l-1]`` holds ``lam_kl`` and ``cosines[k-1]`` holds
    ``cos(k pi / (m+1))``, half the eigenvalues of ``tridiag(1, 0, 1)``, so
    that callers can build other operators of the same sine basis
    (:meth:`sine_diagonal`).
    """

    def __init__(self, m):
        self.m = m
        k = np.arange(1, m + 1)
        s = 4.0 * np.sin(k * (np.pi / (2 * (m + 1)))) ** 2
        self.eigenvalues = s[:, None] + s[None, :]
        self.cosines = np.cos(k * (np.pi / (m + 1)))
        # with S[n, k] = sin(pi n k / (m+1)), two passes of _dst_rows apply
        # 4 (S (x) S) and A^-1 = (2 / (m+1))^2 (S (x) S) lam^-1 (S (x) S)
        self._scale = 1.0 / (4.0 * (m + 1) ** 2 * self.eigenvalues)
        self._ext = np.zeros((m, 2 * (m + 1)))

    def _dst_rows(self, x):
        """``-2 sum_n x[:, n] sin(pi n k / (m+1))``, k = 1..m, for every
        row of ``x``, transposed."""
        m, ext = self.m, self._ext
        ext[:, 1:m + 1] = x
        np.negative(x[:, ::-1], out=ext[:, m + 2:])
        return np.fft.rfft(ext, axis=1).imag[:, 1:m + 1].T

    def _transform(self, scale, rhs):
        y = self._dst_rows(self._dst_rows(rhs.reshape(self.m, self.m)))
        y *= scale
        return self._dst_rows(self._dst_rows(y)).ravel()

    def __call__(self, rhs):
        return self._transform(self._scale, rhs)

    def sine_diagonal(self, symbol):
        """The operator ``rhs -> V diag(symbol) V' rhs`` of the orthonormal
        2-D sine basis ``V``; ``symbol[k-1, l-1]`` is its value on the basis
        vector of frequency k in the row index and l in the column index
        (eigenvalue ``lam_kl``), so ``symbol = 1 / eigenvalues`` gives
        ``A^-1``."""
        scale = np.asarray(symbol, dtype=float) / (4.0 * (self.m + 1) ** 2)
        return lambda rhs: self._transform(scale, rhs)


def _grid_laplacian_solver(A):
    """:class:`_GridLaplacianSolver` for ``A`` when ``A`` equals the 5-point
    Laplacian of a square grid to within :data:`GRID_TOL` per entry (the
    free-dof stiffness of :func:`build_structured_mesh`), otherwise None.

    The size and the diagonal are checked before the whole stencil is.
    """
    n = A.shape[0]
    m = math.isqrt(n)
    if m * m != n or not np.all(np.abs(A.diagonal() - 4.0) <= GRID_TOL):
        return None
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    diff = sp.csr_matrix(A - sp.kronsum(T, T, format="csr"))
    if not np.all(np.abs(diff.data) <= GRID_TOL):
        return None
    return _GridLaplacianSolver(m)


@dataclass
class FemSystem:
    """Assembled P1 system with Dirichlet degrees of freedom eliminated.

    ``A``/``M``/``b`` act on the free (interior) degrees of freedom and no
    all-node matrix is kept.  ``incidence`` is the element-by-node 0/1
    matrix, ``elem_measure`` the triangle areas, ``patch_measure`` per node
    the total area of its incident triangles, and ``basis_integral`` the
    integral of each nodal basis function (one third of the patch measure
    for triangles).
    """

    mesh: TriMesh
    A: sp.csr_matrix
    M: sp.csr_matrix
    b: np.ndarray
    incidence: sp.csr_matrix
    elem_measure: np.ndarray
    patch_measure: np.ndarray
    basis_integral: np.ndarray
    free_nodes: np.ndarray
    _stiffness_lu: object = field(default=None, repr=False)
    # None: not checked yet; False: A is not a grid Laplacian
    _grid: object = field(default=None, repr=False)

    @property
    def num_free(self):
        return self.free_nodes.size

    def restrict(self, v):
        """Full-length nodal vector -> free-dof vector."""
        v = np.asarray(v, dtype=float)
        if v.size != self.mesh.num_nodes:
            raise ValueError("expected a full-length nodal vector")
        return v[self.free_nodes]

    def expand(self, v_free):
        """Free-dof vector -> full-length nodal vector (zeros on boundary)."""
        v_free = np.asarray(v_free, dtype=float)
        if v_free.size != self.num_free:
            raise ValueError("expected a free-dof vector")
        out = np.zeros(self.mesh.num_nodes)
        out[self.free_nodes] = v_free
        return out

    def grid_solver(self):
        """Sine-transform solver of ``A x = rhs`` when ``A`` is the 5-point
        Laplacian of a square grid, else None; detected on the first call."""
        if self._grid is None:
            self._grid = _grid_laplacian_solver(self.A) or False
        return self._grid or None

    def stiffness_solve(self, rhs):
        """Solve ``A x = rhs`` on the free dofs: by sine transform on a
        square grid, otherwise with a cached factorization."""
        rhs = np.asarray(rhs, dtype=float)
        grid = self.grid_solver()
        if grid is not None:
            return grid(rhs)
        if self._stiffness_lu is None:
            self._stiffness_lu = factor_spd(self.A.tocsc())
        return self._stiffness_lu.solve(rhs)


def _assemble_nodes(mesh: TriMesh, g=None):
    """Stiffness, mass and load of every node, boundary included, and the
    triangle areas: ``(A_full, M_full, b_full, areas)``.

    Stiffness and mass use the exact P1 element integrals; the load uses the
    three-point edge-midpoint rule (exact for quadratic integrands).
    """
    nodes, tris = mesh.nodes, mesh.triangles
    num_nodes = mesh.num_nodes
    areas = _signed_areas(nodes, tris)
    if np.any(areas <= 0.0):
        raise MeshFormatError("degenerate element in mesh")

    p = nodes[tris]                       # (m, 3, 2)
    # gradients of the three barycentric basis functions on each triangle
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    grads = np.stack([e0 @ rot.T, e1 @ rot.T, e2 @ rot.T], axis=1)
    grads /= (2.0 * areas)[:, None, None]

    a_loc = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]
    m_loc = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (areas / 12.0)[:, None, None]

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    A_full = sp.coo_matrix((a_loc.ravel(), (rows, cols)),
                           shape=(num_nodes, num_nodes)).tocsr()
    M_full = sp.coo_matrix((m_loc.ravel(), (rows, cols)),
                           shape=(num_nodes, num_nodes)).tocsr()

    b_full = np.zeros(num_nodes)
    if g is not None:
        mid01 = 0.5 * (p[:, 0] + p[:, 1])
        mid12 = 0.5 * (p[:, 1] + p[:, 2])
        mid20 = 0.5 * (p[:, 2] + p[:, 0])
        g01 = np.asarray(g(mid01[:, 0], mid01[:, 1]), dtype=float)
        g12 = np.asarray(g(mid12[:, 0], mid12[:, 1]), dtype=float)
        g20 = np.asarray(g(mid20[:, 0], mid20[:, 1]), dtype=float)
        scale = areas / 6.0
        b_loc = np.stack([(g01 + g20) * scale, (g01 + g12) * scale,
                          (g12 + g20) * scale], axis=1)
        np.add.at(b_full, tris.ravel(), b_loc.ravel())
    return A_full, M_full, b_full, areas


def assemble(mesh: TriMesh, g=None) -> FemSystem:
    """Assemble stiffness, mass and load for ``-laplace u = g`` with
    homogeneous Dirichlet data (see :func:`_assemble_nodes`) and eliminate
    the boundary nodes."""
    tris, num_nodes, m = mesh.triangles, mesh.num_nodes, mesh.num_triangles
    A_full, M_full, b_full, areas = _assemble_nodes(mesh, g)
    elem_idx = np.repeat(np.arange(m), 3)
    incidence = sp.coo_matrix((np.ones(3 * m), (elem_idx, tris.ravel())),
                              shape=(m, num_nodes)).tocsr()
    patch_measure = incidence.T @ areas
    basis_integral = patch_measure / 3.0

    free = np.setdiff1d(np.arange(num_nodes), mesh.boundary_nodes)
    return FemSystem(mesh=mesh, A=A_full[free][:, free].tocsr(),
                     M=M_full[free][:, free].tocsr(), b=b_full[free],
                     incidence=incidence, elem_measure=areas,
                     patch_measure=patch_measure, basis_integral=basis_integral,
                     free_nodes=free)


def w_of(u, system: FemSystem):
    """Per-element sum of the absolute nodal values, ``incidence @ |u|``."""
    u = np.asarray(u, dtype=float)
    if u.size != system.mesh.num_nodes:
        raise ValueError("expected a full-length nodal vector")
    return system.incidence @ np.abs(u)
