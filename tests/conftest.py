
import numpy as np
import pytest
import scipy.sparse as sp

from dcl0.fem import _validate, assemble, build_structured_mesh
from dcl0.problems import default_load, poisson_prototype
from dcl0.ssn import QuadraticOperator


@pytest.fixture(scope="session")
def poisson16():
    system = assemble(build_structured_mesh(16), default_load)
    return poisson_prototype(system)


@pytest.fixture(scope="session")
def poisson8():
    system = assemble(build_structured_mesh(8), default_load)
    return poisson_prototype(system)


def random_spd(rng, n, density=0.3, shift=None):
    """Random sparse SPD matrix with a controlled diagonal shift."""
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) * mask
    Q = sp.csr_matrix(vals)
    H = (Q @ Q.T).tocsr()
    if shift is None:
        shift = 0.1 * (abs(H).sum(axis=1).max() + 1.0)
    return (H + shift * sp.eye(n, format="csr")).tocsr()


def random_spd_operator(rng, n, **kwargs):
    return QuadraticOperator.from_matrix(random_spd(rng, n, **kwargs))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def jittered_mesh(n, jitter=0.2, seed=0):
    """Structured n x n mesh with every interior node moved by an independent
    uniform offset of at most ``jitter / n`` per coordinate (seeded)."""
    mesh = build_structured_mesh(n)
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_nodes)
    offsets = np.random.default_rng(seed).uniform(
        -jitter / n, jitter / n, size=(interior.size, 2))
    nodes[interior] += offsets
    return _validate(nodes, mesh.triangles)
