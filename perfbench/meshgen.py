"""Seeded jittered triangulation of the unit square, written as a dcl0 mesh file.

The connectivity is the structured n x n grid split along the lower-left to
upper-right diagonal (the same as ``dcl0.fem.build_structured_mesh``); every
interior node is moved by an independent uniform offset of at most
``jitter * h`` in each coordinate, so element areas are incommensurate and
only greedy largest-K selection applies.  Boundary nodes stay on the
boundary.  The same ``(n, jitter, seed)`` gives a byte-identical file.
"""

from __future__ import annotations

import numpy as np


def jittered_mesh(n, jitter, seed):
    """Return ``(nodes, triangles)`` of the jittered n x n grid."""
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    interior = ((ii > 0) & (ii < n) & (jj > 0) & (jj < n)).ravel()
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-jitter / n, jitter / n, size=(int(interior.sum()), 2))
    nodes[interior] += offsets

    j, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (j * (n + 1) + i).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.stack([lower, upper], axis=1).reshape(-1, 3)
    return nodes, triangles


def signed_areas(nodes, triangles):
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def write_jittered_mesh(path, n, jitter, seed):
    """Write the jittered mesh in dcl0's text format after checking that
    every element has positive area; returns the number of triangles."""
    nodes, triangles = jittered_mesh(n, jitter, seed)
    areas = signed_areas(nodes, triangles)
    if not np.all(areas > 0.0):
        raise ValueError(f"jittered mesh (n={n}, jitter={jitter}, seed={seed}) "
                         f"has a non-positive element area {areas.min():g}")
    lines = [f"nodes {nodes.shape[0]}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in nodes]
    lines.append(f"triangles {triangles.shape[0]}")
    lines += [f"{a} {b} {c}" for a, b, c in triangles.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return triangles.shape[0]
