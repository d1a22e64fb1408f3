"""P1 triangular finite elements on the unit square (or imported meshes).

Provides the structured crossed-diagonal triangulation, plain-text mesh and
nodal-field I/O (written a chunk of rows at a time), and the assembly of the
stiffness matrix, the load vector and, for the control problem, the mass
matrix together with the element/patch measure vectors needed by the
discrete largest-K machinery.
Dirichlet rows/columns are eliminated and only the free-dof matrices are
kept.  With the mass matrix, stiffness and mass share one pattern; without
it, the stiffness stores no coupling that sums to exactly zero, so on a
structured mesh it is the 5-point stencil, not the 7-point pattern of the
triangulation.  Vectors crossing module boundaries are full length with
zeros on the boundary.
A mesh knows whether it is :func:`build_structured_mesh`'s grid
(``TriMesh.grid_n``): built by it, or imported from a file that holds
exactly its nodes and triangles.  On that grid nothing goes through the
element list: the mesh, the element-node arrays, the load, the node sums
and :func:`w_of` come from fixed shifts of the ``(n+1) x (n+1)`` node and
``n x n x 2`` element arrays, bit for bit what the element-list code of
every other mesh gives (``_validate`` still checks every imported mesh),
and the stiffness and mass matrices are built in closed form; the
stiffness is then exactly the 5-point Laplacian ``T (+) T``.  Stiffness
solves use dense BLAS-3 products in the 2-D sine basis on that grid
(O(m^3) for its m x m interior nodes, yet faster than an FFT up to about
m = 1000), and a cached sparse factorization on any other mesh.
"""

from __future__ import annotations

import math
import operator
import re
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

class MeshFormatError(ValueError):
    """Raised for malformed mesh/field files or invalid mesh data."""


@dataclass
class TriMesh:
    """Conforming triangulation: node coordinates, triangle connectivity and
    boundary node set.  ``grid_n`` is n where the nodes and triangles are
    exactly those of ``build_structured_mesh(n)``, else None: set, it
    vouches for that, since :class:`FemSystem`'s element arrays and node
    sums, :func:`w_of` and :func:`_load` then work from the grid's index
    shifts and never read ``triangles``."""

    nodes: np.ndarray           # (N, 2) coordinates
    triangles: np.ndarray       # (m, 3) node indices, positive orientation
    boundary_nodes: np.ndarray  # sorted indices of nodes on the boundary
    areas: np.ndarray           # (m,) triangle areas, all positive
    grid_n: int | None = None

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]


def _signed_areas(nodes, triangles):
    # vertex coordinates gathered a column at a time, with no (m, 3, 2) copy
    # of the mesh: the same operations, so the same bits, as on that copy
    x, y = nodes[:, 0], nodes[:, 1]
    i, j, k = triangles.T
    x0, y0 = x[i], y[i]
    d1x, d1y = x[j] - x0, y[j] - y0
    d2x, d2y = x[k] - x0, y[k] - y0
    return 0.5 * (d1x * d2y - d1y * d2x)


def _boundary_nodes(triangles, num_nodes):
    # boundary edges belong to exactly one triangle, interior edges to two;
    # one integer key per undirected edge, min * N + max, sorted in place
    m = triangles.shape[0]
    keys = np.empty(3 * m, dtype=np.int64)
    for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        key = keys[e * m:(e + 1) * m]
        np.minimum(triangles[:, a], triangles[:, b], out=key)
        key *= num_nodes
        key += np.maximum(triangles[:, a], triangles[:, b])
    keys.sort()
    if np.any(keys[2:] == keys[:-2]):
        uniq, counts = np.unique(keys, return_counts=True)
        key = int(uniq[np.argmax(counts)])
        raise MeshFormatError(
            f"edge ({key // num_nodes}, {key % num_nodes}) belongs to "
            f"{counts.max()} triangles; a mesh edge has at most two")
    # a key that differs from both of its neighbours occurs once
    single = np.ones(keys.size, dtype=bool)
    single[1:] = keys[1:] != keys[:-1]
    single[:-1] &= single[1:]
    single = keys[single]
    return np.unique(np.concatenate([single // num_nodes, single % num_nodes]))


def _validate(nodes, triangles, grid_n=None):
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
    if np.any(np.bincount(triangles.ravel(), minlength=num_nodes) == 0):
        raise MeshFormatError("mesh contains nodes not used by any triangle")
    return TriMesh(nodes=nodes, triangles=triangles,
                   boundary_nodes=_boundary_nodes(triangles, num_nodes),
                   areas=areas, grid_n=grid_n)


def _grid_layout(n):
    """Yield the nodes, then the triangles, of the uniform n x n grid on the
    unit square: node ``j (n+1) + i`` at ``(i/n, j/n)``, and cell (i, j)
    split along its lower-left to upper-right diagonal into triangles
    ``2 (j n + i)`` and ``2 (j n + i) + 1``.  The triangles are built only
    when asked for."""
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    yield np.column_stack([xx.ravel(), yy.ravel()])

    j, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (j * (n + 1) + i).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    yield np.stack([lower, upper], axis=1).reshape(-1, 3)


def _grid_size(nodes, triangles):
    """n where ``nodes`` and ``triangles`` equal those of
    ``build_structured_mesh(n)`` exactly, else None.  The counts are checked
    first, then the nodes, and only then are the grid's triangles built."""
    n = math.isqrt(len(nodes)) - 1
    if n < 2 or len(nodes) != (n + 1) ** 2 or len(triangles) != 2 * n * n:
        return None
    layout = _grid_layout(n)
    if (np.array_equal(nodes, next(layout))
            and np.array_equal(triangles, next(layout))):
        return n
    return None


def build_structured_mesh(n: int) -> TriMesh:
    """Uniform n x n grid on the unit square, each cell split along the
    lower-left to upper-right diagonal: (n+1)^2 nodes, 2 n^2 triangles
    (see :func:`_grid_layout`); its ``grid_n`` is n.

    Built as :func:`_validate` would build it, with no check: both
    triangles of a cell have its legs ``d_i = x_(i+1) - x_i`` and ``d_j``,
    so their area is :func:`_signed_areas`' with its zero terms dropped,
    bit for bit, and the boundary nodes are the grid's frame."""
    n = operator.index(n)
    if n < 2:
        raise ValueError("need at least a 2 x 2 grid")
    nodes, triangles = _grid_layout(n)
    d = np.diff(np.arange(n + 1) / n)
    frame = np.ones((n + 1, n + 1), dtype=bool)
    frame[1:-1, 1:-1] = False
    return TriMesh(nodes=nodes, triangles=triangles,
                   boundary_nodes=np.flatnonzero(frame),
                   areas=np.repeat(0.5 * (d[:, None] * d), 2), grid_n=n)


def export_mesh(mesh: TriMesh, path):
    """Write ``mesh`` as text: ``nodes N``, one ``x y`` line per node (each
    coordinate its float ``repr``), ``triangles M`` and one ``i j k`` line
    per triangle (see :func:`_write_sections`)."""
    _write_sections(path, _MESH, (np.asarray(mesh.nodes, dtype=float),
                                  mesh.triangles))


#: the sections of a mesh file and of a field file, in file order; a section
#: is a keyword, a count and that many rows of numbers, listed here as
#: (keyword, numbers per row, their type)
_MESH = (("nodes", 2, float), ("triangles", 3, int))
_FIELD = (("field", 1, float),)

#: rows that :func:`_write_sections` formats per write; it bounds the text
#: held in memory to a few hundred kB whatever the size of the file
_WRITE_ROWS = 1 << 12


def _write_sections(path, sections, arrays):
    """Write ``arrays`` as the ``sections`` of a text file: per section its
    keyword and row count on one line, then one line per row, the ``repr``
    of each number separated by single spaces.  The text is formatted and
    written :data:`_WRITE_ROWS` rows at a time, with no Python object for a
    number or a line of the rest of the file."""
    with open(path, "w") as fh:
        for (word, width, _), array in zip(sections, arrays):
            fh.write(f"{word} {len(array)}\n")
            line = " ".join(["{!r}"] * width) + "\n"
            for start in range(0, len(array), _WRITE_ROWS):
                rows = array[start:start + _WRITE_ROWS]
                fh.write((line * len(rows)).format(*rows.ravel().tolist()))


#: bytes that the C walker takes in a block of indices (ASCII digits and
#: whitespace) and of reals (also signs, points and exponents); any other
#: byte sends a file to the token walker
_INDEX_BYTES = b"0123456789 \t\n\r\x0b\x0c"
_REAL_BYTES = _INDEX_BYTES + b"+-.eE"

#: bytes per pass of :func:`_count_tokens`
_TOKEN_CHUNK = 1 << 16

#: a section keyword and its count, then whitespace or the end of the file;
#: a longer count is left to the token walker
_HEAD = re.compile(rb"\s*([a-z]+)\s+(\d{1,18})(?=\s|\Z)")


def _count_tokens(block):
    """Whitespace-separated tokens of a block of :data:`_REAL_BYTES`, whose
    whitespace bytes are those up to 32: the token starts, counted a chunk
    of bytes at a time."""
    view = np.frombuffer(block, dtype=np.uint8)
    count = int(view.size > 0 and view[0] > 32)
    for start in range(1, view.size, _TOKEN_CHUNK):
        in_token = view[start - 1:start + _TOKEN_CHUNK] > 32
        count += int(np.count_nonzero(in_token[1:] > in_token[:-1]))
    return count


def _block_values(block, dtype, count):
    """The ``count`` numbers of the ASCII text ``block``, parsed in C with no
    Python object per number; None unless the token walker would read the
    same ``count`` values from it.

    On these bytes numpy's parser reads each whitespace-separated token as
    Python does or stops with a ValueError, with three exceptions, each of
    which sends the block to the token walker: it reads a block of
    whitespace alone as one number and joins a lone sign to the next
    integer (either way the token count differs), and it saturates an
    integer beyond int64 (index blocks hold no sign, so a saturated value
    is the int64 maximum)."""
    allowed = _REAL_BYTES if dtype is float else _INDEX_BYTES
    if block.translate(None, allowed) or _count_tokens(block) != count:
        return None
    if count == 0:
        return np.empty(0, dtype=dtype)
    try:
        values = np.fromstring(block, dtype=dtype, sep=" ")
    except ValueError:
        # a token C reads only part of, such as 0.5-0.3 or 1.5 as an index
        return None
    if values.size != count:
        return None
    if dtype is int and values.max() == np.iinfo(values.dtype).max:
        return None
    return values


def _c_sections(data, sections):
    """The ``(count, width)`` arrays of ``sections`` in the file bytes
    ``data``, each number block parsed by :func:`_block_values`; None where
    the token walker must decide."""
    arrays, pos = [], 0
    for k, (word, width, dtype) in enumerate(sections):
        head = _HEAD.match(data, pos)
        if head is None or head.group(1) != word.encode():
            return None
        count = int(head.group(2))
        pos = len(data)
        if k + 1 < len(sections):
            # the block has no letters but e: the next keyword ends it
            pos = data.find(sections[k + 1][0].encode(), head.end())
            if pos < 0 or not data[pos - 1:pos].isspace():
                return None
        values = _block_values(data[head.end():pos], dtype, width * count)
        if values is None:
            return None
        arrays.append(values.reshape(count, width))
    return arrays


def _token_sections(data, sections):
    """The ``(count, width)`` arrays of ``sections`` in the file bytes
    ``data``, decoded as UTF-8 and read token by token, or the
    :class:`MeshFormatError` that names what is wrong with them."""
    try:
        tokens = data.decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"byte {exc.start} is not UTF-8 text "
                              f"({exc.reason})") from None
    pos = 0

    def take(count, dtype):
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError("file ended prematurely")
        try:
            out = np.array(tokens[pos:pos + count], dtype=dtype)
        except ValueError as exc:
            raise MeshFormatError(f"bad value near token {pos}: {exc}") from exc
        except OverflowError:
            # numpy converts the tokens in order: each before this one fits
            bad = next(t for t in tokens[pos:pos + count]
                       if not -2**63 <= int(t) < 2**63)
            raise MeshFormatError(f"bad value near token {pos}: {bad} is "
                                  "beyond the 64-bit integer range") from None
        pos += count
        return out

    arrays = []
    for word, width, dtype in sections:
        if pos >= len(tokens) or tokens[pos] != word:
            raise MeshFormatError(f"expected '{word}' at token {pos}")
        pos += 1
        count = int(take(1, int)[0])
        if count < 0:
            raise MeshFormatError(f"negative {word} count {count}")
        arrays.append(take(width * count, dtype).reshape(count, width))
    if pos != len(tokens):
        raise MeshFormatError(f"trailing data after the {word} section")
    return arrays


def _read_sections(path, sections):
    """The ``(count, width)`` arrays of ``sections`` in the file ``path``,
    read once as bytes: the C walker parses each number block of an ASCII
    file, and whatever it does not vouch for goes to the token walker,
    which decodes the bytes as UTF-8 whatever the locale, accepts exactly
    the same files, gives bit-identical arrays and names the first error."""
    with open(path, "rb") as fh:
        data = fh.read()
    arrays = _c_sections(data, sections)
    return _token_sections(data, sections) if arrays is None else arrays


def import_mesh(path) -> TriMesh:
    """Read and validate a mesh in the plain-text format written by
    :func:`export_mesh`: UTF-8 text of two sections, ``nodes`` and
    ``triangles`` (any whitespace between tokens; Python's ``float`` and
    ``int`` spellings of the numbers; see :func:`_read_sections`).  Its
    ``grid_n`` is set where the file holds exactly the nodes and triangles
    of :func:`build_structured_mesh` (:func:`_grid_size`)."""
    nodes, triangles = _read_sections(path, _MESH)
    return _validate(nodes, triangles, _grid_size(nodes, triangles))


def write_field(path, values):
    """Write a nodal field as text: ``field N``, then one float ``repr`` per
    line (see :func:`_write_sections`)."""
    _write_sections(path, _FIELD, (np.asarray(values, dtype=float).ravel(),))


def read_field(path):
    """Read a field written by :func:`write_field`: UTF-8 text of one
    ``field`` section, read as :func:`import_mesh` reads a mesh; every
    value must be finite."""
    values = _read_sections(path, _FIELD)[0].ravel()
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise MeshFormatError(f"field value {bad} is not finite: {values[bad]}")
    return values


class _GridLaplacianSolver:
    """Solver of ``A x = rhs`` for the 5-point Laplacian ``A = T (+) T`` of
    an ``m x m`` grid, ``T = tridiag(-1, 2, -1)``, on row-major vectors: the
    free-dof stiffness on ``build_structured_mesh(m + 1)``'s grid, whose
    interior nodes it orders as :func:`_grid_layout` does.

    ``basis`` is the orthonormal sine basis ``V[k-1, l-1] = sqrt(2/(m+1))
    sin(k l pi / (m+1))``, ``k l`` reduced mod ``2(m+1)`` (``|V V - I|`` is
    2.7e-15 at m = 383, 4.3e-14 unreduced).  It is symmetric, its own
    inverse and diagonalizes ``T``, so ``V diag(symbol) V`` applies to ``X =
    rhs.reshape(m, m)`` as ``V (symbol * (V X V)) V``: O(m^3) BLAS-3
    products, faster than an O(m^2 log m) FFT sine transform up to about
    m = 1000 at 2 BLAS threads (500 at one, the CLI's count for m < 191).
    The solver holds ``V`` and the symbol ``1 / lam`` of ``A^-1``;
    ``eigenvalues`` (``lam_kl = s_k + s_l``, ``s_k = 4 sin^2(k pi /
    2(m+1))``, built on each read) and ``cosines`` (``cos(k pi / (m+1))``)
    let callers build other operators of the basis (:meth:`sine_diagonal`);
    :meth:`mass_sandwich` holds the grid's mass matrix in it.
    """

    def __init__(self, m):
        self.m = m
        k = np.arange(1, m + 1)
        self._s = 4.0 * np.sin(k * (np.pi / (2 * (m + 1)))) ** 2
        self.cosines = np.cos(k * (np.pi / (m + 1)))
        self.basis = math.sqrt(2.0 / (m + 1)) * np.sin(
            np.outer(k, k) % (2 * (m + 1)) * (np.pi / (m + 1)))
        self._inverse = 1.0 / self.eigenvalues

    @property
    def eigenvalues(self):
        return self._s[:, None] + self._s[None, :]

    def _apply(self, symbol, rhs):
        V = self.basis
        y = V @ rhs.reshape(self.m, self.m) @ V
        y *= symbol
        return (V @ y @ V).ravel()

    def __call__(self, rhs):
        return self._apply(self._inverse, rhs)

    def sine_diagonal(self, symbol):
        """The operator ``rhs -> V diag(symbol) V rhs`` of the 2-D sine
        basis; ``symbol[k-1, l-1]`` is its value on frequency k in the row
        index and l in the column index, so ``1 / eigenvalues`` gives A^-1."""
        symbol = np.asarray(symbol, dtype=float)
        return lambda rhs: self._apply(symbol, rhs)

    def mass_sandwich(self, m_ii):
        """The grid's free-node P1 mass matrix ``M`` (diagonal entries
        ``m_ii``) in the sine basis: ``(mu, middle)``, with ``mu`` the
        diagonal of ``V M V`` and ``middle(a) = A^-1 M A^-1 a`` in six dense
        products and no return to nodal space in between.

        With ``E`` the 1-D shift, ``T = E + E'`` and ``K = E - E'``, the
        grid's triangulation (every cell cut along its lower-left to
        upper-right diagonal) gives ``M = (m_ii / 6)(6 I + T (x) I + I (x) T
        + E (x) E + E' (x) E')``, and ``E (x) E + E' (x) E' = (T (x) T + K
        (x) K) / 2``.  As ``V T V = diag(2 c)``, ``M`` acts on sine
        coefficients ``X`` as ``mu * X + (m_ii / 12) W X W'``, with ``mu_kl =
        (m_ii / 6)(6 + 2 c_k + 2 c_l + 2 c_k c_l)`` and ``W = V K V`` dense
        and antisymmetric (the fast diagonalization of Lynch, Rice & Thomas,
        Numer. Math. 1964).
        """
        c_k, c_l = self.cosines[:, None], self.cosines[None, :]
        mu = (m_ii / 6.0) * (6.0 + 2.0 * c_k + 2.0 * c_l + 2.0 * c_k * c_l)
        V, m, inverse, weight = self.basis, self.m, self._inverse, m_ii / 12.0
        # K V, row by row: V[i + 1] - V[i - 1], rows off the grid zero
        KV = np.zeros_like(V)
        KV[:-1] = V[1:]
        KV[1:] -= V[:-1]
        W = V @ KV

        def middle(a):
            B = V @ a.reshape(m, m) @ V
            B *= inverse
            C = W @ B @ W  # W B W' = -W B W: W is antisymmetric
            C *= -weight
            C += mu * B
            C *= inverse
            return (V @ C @ V).ravel()

        return mu, middle


@dataclass
class FemSystem:
    """Assembled P1 system with Dirichlet degrees of freedom eliminated.

    ``A``/``M``/``b`` act on the free (interior) degrees of freedom and no
    all-node matrix is kept.  ``M`` exists only where :func:`assemble` was
    asked for it (the control problem), and then ``A`` and ``M`` share one
    ``indices``/``indptr`` pair; elsewhere ``M`` is None and ``A`` stores
    no entry that is exactly zero.  On :func:`build_structured_mesh`'s grid
    both are the closed-form operators of :func:`_grid_operators`, every
    row of the same values; on any other mesh, the element integrals of
    :func:`_assemble_nodes`.  ``elem_nodes`` holds the three
    node indices of each element in ascending order (int32),
    ``elem_measure`` the triangle areas, ``patch_measure`` per node the
    total area of its incident triangles, and ``basis_integral`` the
    integral of each nodal basis function (one third of the patch measure
    for triangles).  ``FemSystem(mesh)`` builds only these, with ``A``,
    ``M`` and ``b`` None: all that ``dcl0 verify`` reads.
    """

    mesh: TriMesh
    A: sp.csr_matrix | None = None
    M: sp.csr_matrix | None = None
    b: np.ndarray | None = None
    elem_nodes: np.ndarray = field(init=False)
    elem_measure: np.ndarray = field(init=False)
    patch_measure: np.ndarray = field(init=False)
    basis_integral: np.ndarray = field(init=False)
    free_nodes: np.ndarray = field(init=False)
    _stiffness_lu: object = field(default=None, repr=False)
    _grid: _GridLaplacianSolver | None = field(default=None, repr=False)

    def __post_init__(self):
        mesh, n = self.mesh, self.mesh.grid_n
        if n is None:
            self.elem_nodes = np.sort(mesh.triangles, axis=1).astype(np.int32)
        else:
            # the grid's triangles sorted: lower [v00, v00+1, v00+n+2] and
            # upper [v00, v00+n+1, v00+n+2] of the cell with corner v00
            i = np.arange(n, dtype=np.int32)
            v00 = (i[:, None] * (n + 1) + i).reshape(-1, 1, 1)
            steps = np.array([[0, 1, n + 2], [0, n + 1, n + 2]], np.int32)
            self.elem_nodes = (v00 + steps).reshape(-1, 3)
        self.elem_measure = mesh.areas
        self.patch_measure = self.node_sums(mesh.areas)
        self.basis_integral = self.patch_measure / 3.0
        free = np.ones(mesh.num_nodes, dtype=bool)
        free[mesh.boundary_nodes] = False
        self.free_nodes = np.flatnonzero(free)

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

    def node_sums(self, elem_values):
        """Per node, the sum of ``elem_values`` over its incident elements:
        ``incidence' x`` for the 0/1 element-by-node incidence matrix, bit
        for bit, since bincount (or, on the grid, :func:`_grid_node_sums`)
        adds each node's terms in element order, as the sparse product
        does."""
        n = self.mesh.grid_n
        if n is None:
            return np.bincount(self.elem_nodes.ravel(),
                               weights=np.repeat(elem_values, 3),
                               minlength=self.mesh.num_nodes)
        cells = np.asarray(elem_values, dtype=float).reshape(n, n, 2)
        lower, upper = cells[..., 0], cells[..., 1]
        return _grid_node_sums((lower, upper, upper, lower, lower, upper))

    def grid_solver(self):
        """Sine-basis solver of ``A x = rhs`` on
        :func:`build_structured_mesh`'s grid (``mesh.grid_n`` set), else
        None; built on the first call."""
        if self._grid is None and self.mesh.grid_n is not None:
            self._grid = _GridLaplacianSolver(self.mesh.grid_n - 1)
        return self._grid

    def stiffness_solve(self, rhs):
        """Solve ``A x = rhs`` on the free dofs: in the sine basis on
        :func:`build_structured_mesh`'s grid, otherwise with a cached
        factorization."""
        rhs = np.asarray(rhs, dtype=float)
        grid = self.grid_solver()
        if grid is not None:
            return grid(rhs)
        if self._stiffness_lu is None:
            # A is exactly symmetric: its CSC view A.T is A
            self._stiffness_lu = factor_spd(self.A.T)
        return self._stiffness_lu.solve(rhs)


#: triangles, or block rows, handled per pass of the assembly loops; it
#: bounds their temporaries to about 2 MB whatever the mesh size (at
#: 2^16 they lifted the assembly's peak RSS by 17 MB at n = 384)
_CHUNK = 1 << 13


def _grid_node_sums(terms):
    """Node sums of :func:`build_structured_mesh`'s n x n grid from six
    ``(n, n)`` cell arrays, one per triangle of a node's patch in triangle
    order: a node's terms in the lower and upper triangles of the cell
    below left, the upper triangle of the cell below, the lower of the cell
    to the left, then the lower and upper of the cell whose corner v00 it
    is.  Each node's terms are added to 0.0 in that order, as bincount and
    ``np.add.at`` add them, so the sums are theirs bit for bit."""
    n = terms[0].shape[0]
    out = np.zeros((n + 1, n + 1))
    rest, head = slice(1, None), slice(None, -1)
    for rows, cols, term in zip((rest, rest, rest, head, head, head),
                                (rest, rest, head, rest, head, head), terms):
        out[rows, cols] += term
    return out.ravel()


def _load(mesh: TriMesh, g=None):
    """Load vector of every node, boundary included, for the source ``g``
    (zero when None): the three-point edge-midpoint rule on each triangle
    (exact for quadratic integrands), each node's terms added in triangle
    order.  On the grid ``g`` is evaluated once per edge, and the per-vertex
    terms are summed by :func:`_grid_node_sums`."""
    nodes, tris, areas = mesh.nodes, mesh.triangles, mesh.areas
    b_full = np.zeros(mesh.num_nodes)
    if g is None:
        return b_full
    n = mesh.grid_n
    if n is not None:
        x, y = (nodes[:, k].reshape(n + 1, n + 1) for k in (0, 1))

        def on_edges(a, b):
            # g at the midpoints of the edges from nodes [a] to nodes [b]
            mid_x, mid_y = 0.5 * (x[a] + x[b]), 0.5 * (y[a] + y[b])
            return np.broadcast_to(np.asarray(g(mid_x, mid_y), dtype=float),
                                   mid_x.shape)

        head, rest, every = slice(None, -1), slice(1, None), slice(None)
        across = on_edges((every, head), (every, rest))  # (n+1, n)
        up = on_edges((head, every), (rest, every))      # (n, n+1)
        diag = on_edges((head, head), (rest, rest))      # (n, n)
        bottom, top = across[:-1], across[1:]
        left, right = up[:, :-1], up[:, 1:]
        cells = areas.reshape(n, n, 2) / 6.0
        lower, upper = cells[..., 0], cells[..., 1]
        # lower [v00, v10, v11], upper [v00, v11, v01]: a vertex gets the
        # midpoint values of its two edges, as in the loop below
        return _grid_node_sums(((right + diag) * lower, (diag + top) * upper,
                                (top + left) * upper, (bottom + right) * lower,
                                (bottom + diag) * lower, (diag + left) * upper))
    for start in range(0, mesh.num_triangles, _CHUNK):
        t = slice(start, start + _CHUNK)
        x, y = nodes[:, 0][tris[t].T], nodes[:, 1][tris[t].T]  # vertex i
        g01, g12, g20 = (
            np.asarray(g(0.5 * (x[i] + x[j]), 0.5 * (y[i] + y[j])),
                       dtype=float)
            for i, j in ((0, 1), (1, 2), (2, 0)))
        scale = areas[t] / 6.0
        b_loc = np.stack([(g01 + g20) * scale, (g01 + g12) * scale,
                          (g12 + g20) * scale], axis=1)
        # unbuffered: each node's terms are added in triangle order
        np.add.at(b_full, tris[t].ravel(), b_loc.ravel())
    return b_full


def _assemble_nodes(mesh: TriMesh, keep=None, mass=True):
    """Stiffness and mass on the nodes ``keep`` (ascending; every node,
    boundary included, when None): ``(A, M)``.  With ``mass``, ``A`` and
    ``M`` share one index pair; without it, ``M`` is None and ``A`` stores
    no entry that sums to exactly 0.0 (on a structured mesh, the diagonal
    couplings: cot 90 degrees = 0, where ``M`` is not zero).  Both use the
    exact P1 element integrals.

    The element blocks form one list, triangle by triangle and each 3x3
    block row by row.  Row ``r`` of the all-node matrix holds, before
    duplicates are summed, the block rows of node ``r`` in list order: the
    layout scipy's COO -> CSR conversion gives that list.  Stiffness and
    mass go through one duplicate summation as the complex matrix ``A + iM``,
    a chunk of rows at a time; scipy sorts and sums each row on its own, so
    every entry's terms are added in the order a conversion of the whole
    list would, and complex addition is per component.  Rows and columns
    outside ``keep`` are dropped once summed.  So ``A`` and ``M`` are bit
    for bit the ``keep`` block of two separate conversions.  Without
    ``mass`` the same summation runs on the real stiffness blocks alone:
    scipy's row sort compares column indices only, so it orders every row
    alike for real and complex data, and the same pass also drops the
    entries that sum to exactly zero.  ``A`` is then the mass system's
    ``A`` after ``eliminate_zeros()``: every stored value the same bits,
    only the pattern smaller.

    Both loops fill preallocated arrays: the first, over triangles, stores
    the gradients; the second, over rows, computes each block row's
    stiffness from the gradients.  The output arrays are sized for every
    block entry, ``9 m``; only the summed entries are written (pages never
    written take no memory), and that head is copied out at the end.
    """
    nodes, tris, areas = mesh.nodes, mesh.triangles, mesh.areas
    num_nodes, m = mesh.num_nodes, mesh.num_triangles

    # 2 area times the gradient of barycentric basis i is the opposite edge
    # p_{i+2} - p_{i+1} turned by a quarter, rot(x, y) = (-y, x)
    gx, gy = np.empty((3, m)), np.empty((3, m))
    for start in range(0, m, _CHUNK):
        t = slice(start, start + _CHUNK)
        x, y = nodes[:, 0][tris[t].T], nodes[:, 1][tris[t].T]  # vertex i
        gx[:, t] = (y[[1, 2, 0]] - y[[2, 0, 1]]) / (2.0 * areas[t])
        gy[:, t] = (x[[2, 0, 1]] - x[[1, 2, 0]]) / (2.0 * areas[t])

    # new index of every node, -1 for a dropped one
    keep = np.arange(num_nodes) if keep is None else keep
    num_kept = len(keep)
    position = np.full(num_nodes, -1, dtype=np.int32)
    position[keep] = np.arange(num_kept, dtype=np.int32)

    # slot 3 t + i is vertex i of triangle t and block row i of triangle t;
    # sorting the slots by node, stably, lists each node's block rows in
    # list order: those of node r are slots[first[r]:first[r + 1]]
    slots = np.argsort(tris.ravel(), kind="stable")
    first = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(tris.ravel(), minlength=num_nodes), out=first[1:])
    elem_mass = areas / 12.0
    a_data = np.empty(9 * m)
    m_data = np.empty(9 * m) if mass else None
    indices = np.empty(9 * m, dtype=np.int32)
    indptr = np.zeros(num_kept + 1, dtype=np.int32)
    nnz, r0 = 0, 0
    while r0 < num_nodes:
        # whole rows, about _CHUNK block rows
        r1 = max(int(np.searchsorted(first, first[r0] + _CHUNK, "right")) - 1,
                 r0 + 1)
        s = slots[first[r0]:first[r1]]
        t = s // 3
        i = s - 3 * t
        block = np.empty((s.size, 3), dtype=complex if mass else float)
        gxi, gyi, area = gx[i, t], gy[i, t], areas[t]
        for j in range(3):
            # the product order of the element block (i, j), which is
            # symmetric bit for bit
            block.real[:, j] = (gxi * gx[j, t] + gyi * gy[j, t]) * area
        if mass:
            block.imag = elem_mass[t][:, None]
            block.imag[np.arange(s.size), i] *= 2.0
        rows = sp.csr_matrix(
            (block.ravel(), tris[t].ravel(), 3 * (first[r0:r1 + 1] - first[r0])),
            shape=(r1 - r0, num_nodes))
        # sort every row, as the conversion of the whole list does: the
        # sort is not stable, so it may reorder even an ordered row among
        # equal columns, and with it the order of their summation
        rows.has_sorted_indices = False
        rows.sum_duplicates()

        row_of = np.repeat(position[r0:r1], np.diff(rows.indptr))
        col = position[rows.indices]
        kept = (row_of >= 0) & (col >= 0)
        if not mass:
            # without M, also every entry that sums to exactly 0.0
            kept &= rows.data != 0.0
        end = nnz + np.count_nonzero(kept)
        a_data[nnz:end] = rows.data.real[kept]
        if mass:
            m_data[nnz:end] = rows.data.imag[kept]
        indices[nnz:end] = col[kept]
        kept_rows = position[r0:r1][position[r0:r1] >= 0]
        if kept_rows.size:
            counts = np.bincount(row_of[kept] - kept_rows[0],
                                 minlength=kept_rows.size)
            indptr[kept_rows + 1] = nnz + np.cumsum(counts)
        nnz, r0 = end, r1
    del gx, gy, slots

    shape = (num_kept, num_kept)
    indices = indices[:nnz].copy()
    A = sp.csr_matrix((a_data[:nnz].copy(), indices, indptr), shape=shape)
    if not mass:
        return A, None
    M = sp.csr_matrix((m_data[:nnz].copy(), indices, indptr), shape=shape)
    # one index pair for both; the constructor keeps each as its own view
    M.indices, M.indptr = A.indices, A.indptr
    return A, M


def _grid_operators(n, mass=True):
    """Free-node stiffness and, with ``mass``, mass matrix of
    :func:`build_structured_mesh`'s n x n grid in closed form: ``(A, M)``
    on the ``(n-1)^2`` interior nodes in :func:`_grid_layout`'s order,
    int32 indices.

    Every interior node has the same six triangles, right-angled with legs
    ``h = 1/n``, so every row holds the same values.  Without ``mass``,
    ``A`` is the 5-point stencil ``T (+) T`` (4 and -1) and ``M`` is None.
    With it, both share the 7-point pattern of the triangulation (the
    stencil and the couplings along the cells' diagonals); ``A`` holds
    +0.0 on the diagonal couplings, and ``M`` holds ``x + x`` off the
    diagonal and the sum of six ``2 x`` terms in turn on it, ``x = area /
    12``.  Where n is a power of two, the nodes and areas are exact and
    element assembly gives these bits; elsewhere it rounds each element's
    coordinates, areas and gradients.
    """
    m = n - 1
    x = 0.5 / (n * n) / 12.0
    m_ii = 2.0 * x
    for _ in range(5):
        m_ii += 2.0 * x
    # (row step, column step, stiffness, mass) of each coupling, in
    # ascending column order
    couplings = [(-1, -1, 0.0, x + x), (-1, 0, -1.0, x + x),
                 (0, -1, -1.0, x + x), (0, 0, 4.0, m_ii), (0, 1, -1.0, x + x),
                 (1, 0, -1.0, x + x), (1, 1, 0.0, x + x)]
    if not mass:
        couplings = [c for c in couplings if c[2] != 0.0]
    steps = [c[:2] for c in couplings]

    r = np.arange(m)
    valid = np.stack([((r + dj >= 0) & (r + dj < m))[:, None]
                      & ((r + di >= 0) & (r + di < m))[None, :]
                      for dj, di in steps], axis=-1)
    node = np.arange(m * m, dtype=np.int32).reshape(m, m, 1)
    indices = (node + np.array([dj * m + di for dj, di in steps],
                               dtype=np.int32))[valid]
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(valid, axis=-1).ravel(), out=indptr[1:])

    def matrix(values):
        data = np.broadcast_to(np.array(values), valid.shape)[valid]
        return sp.csr_matrix((data, indices, indptr), shape=(m * m, m * m))

    A = matrix([c[2] for c in couplings])
    if not mass:
        return A, None
    M = matrix([c[3] for c in couplings])
    M.indices, M.indptr = A.indices, A.indptr
    return A, M


def assemble(mesh: TriMesh, g=None, mass=True) -> FemSystem:
    """Assemble stiffness, load and, with ``mass``, the mass matrix for
    ``-laplace u = g`` with homogeneous Dirichlet data and eliminate the
    boundary nodes.

    On :func:`build_structured_mesh`'s grid (``mesh.grid_n`` set) the
    matrices come in closed form (:func:`_grid_operators`): ``A`` is then
    exactly the ``T (+) T`` that :meth:`FemSystem.grid_solver` inverts.  On
    any other mesh they come from the element integrals
    (:func:`_assemble_nodes`).  The load uses the edge-midpoint rule on
    every mesh (:func:`_load`).

    Only the control problem reads ``M``; the Poisson commands pass
    ``mass=False`` and get a system whose ``M`` is None, with the same
    ``b`` and the same ``A`` less its stored zeros, bit for bit: on a
    structured mesh its pattern is the 5-point stencil, which every
    principal block, factorization and product of ``A`` then shares."""
    system = FemSystem(mesh)
    if mesh.grid_n is None:
        system.A, system.M = _assemble_nodes(mesh, system.free_nodes, mass)
    else:
        system.A, system.M = _grid_operators(mesh.grid_n, mass)
    system.b = _load(mesh, g)[system.free_nodes]
    return system


def w_of(u, system: FemSystem):
    """Per-element sum of the absolute nodal values, the three of each
    element added in ascending node order: ``incidence @ |u|`` bit for bit."""
    u = np.asarray(u, dtype=float)
    if u.size != system.mesh.num_nodes:
        raise ValueError("expected a full-length nodal vector")
    n = system.mesh.grid_n
    if n is not None:
        a = np.abs(u).reshape(n + 1, n + 1)
        w = np.empty((n, n, 2))
        np.add(a[:-1, :-1], a[:-1, 1:], out=w[..., 0])  # v00 + v10
        np.add(a[:-1, :-1], a[1:, :-1], out=w[..., 1])  # v00 + v01
        w += a[1:, 1:, None]                             # + v11
        return w.ravel()
    a, nodes = np.abs(u), system.elem_nodes
    w = np.take(a, nodes[:, 0])
    w += np.take(a, nodes[:, 1])
    w += np.take(a, nodes[:, 2])
    return w
