"""Solvers for the weighted-L1 quadratic subproblem

    min_u  0.5 u'Hu - (q + t)'u + sum_j c_j |u_j|,       c_j >= 0,

with H symmetric positive definite and an optional linear tilt t (the
subgradient term of the outer DC iteration).  The primal-dual optimality
condition is written as the projected residual

    F_tau(u) = g(u) - clip(g(u) - u/tau, -c, c) = 0,   g(u) = Hu - q - t,

and solved by a semismooth Newton active-set method that takes tau from
each iterate.

The tilt is kept separate from q on purpose: where a component of the tilt
equals the corresponding L1 bound (the common case in the DC iteration,
where both are built from the same patch measures) the two cancel exactly
in floating point, so the residual and the active-set right-hand sides stay
at rounding level even for penalty factors around 1e9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "factor_spd",
    "QuadraticOperator",
    "L1Weights",
    "SsnError",
    "default_tau",
    "ssn_solve",
    "repeat_tolerance",
    "SsnResult",
]

TAU_FLOOR = 1e-16

#: relative residual at which conjugate gradients stop on a principal system
CG_RTOL = 1e-12

#: residual norm at which a semismooth Newton solve has converged
SSN_TOL = 1e-14

#: cap on the Newton steps of one semismooth Newton solve
MAX_NEWTON = 50

#: columns per SuperLU panel in :func:`factor_spd` (scipy's default is 20);
#: never above 20: in scipy 1.17.1 a width of 40 corrupts the heap (glibc
#: "corrupted size vs. prev_size", or a segmentation fault at exit)
PANEL_SIZE = 1


class SsnError(RuntimeError):
    """Subproblem solver failure (singular system, iteration cap)."""


def factor_spd(csc):
    """Sparse LU factorization of a symmetric positive definite CSC matrix.

    SuperLU runs in symmetric mode: a minimum-degree ordering of the
    pattern of ``A' + A`` is applied to rows and columns alike and the
    pivots are taken from the diagonal, which is stable for SPD matrices
    and fills far less than the default unsymmetric column ordering.

    The panels are ``PANEL_SIZE = 1`` column wide, not scipy's 20.  The
    panel kernel keeps dense work arrays of panel width times n, which the
    small supernodes of 2-D P1 blocks do not use; the ordering, the pivots
    and the fill do not depend on the width, only the order of the
    floating-point updates does.  Measured on 2 cores (scipy 1.17.1), width
    1 against 20: the 15 blocks of a jittered 192x192 scheduled solve (at
    most 36k nodes) factor in 0.63 s against 0.94 s of CPU time (one
    thread, best of three), and the run peaks at 113.5 against 124.5 MB;
    ``poisson --n 384 --schedule 0.9`` (blocks up to 131k nodes) factors
    in 4.1 s against 4.9 s and peaks at 266 against 307 MB.  Widths 2 and
    4 timed within the run-to-run spread of width 1 and peaked a little
    higher.
    """
    return spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     panel_size=PANEL_SIZE, options={"SymmetricMode": True})


class QuadraticOperator:
    """Symmetric positive definite operator with principal-subsystem solves.

    Either wraps an explicit sparse matrix (principal systems are solved by
    the symmetric minimum-degree factorization of :func:`factor_spd`, the
    one the stiffness solves of ``dcl0.fem`` share, plus one step of
    iterative refinement) or a matrix-free action (principal systems fall
    back to conjugate gradients on the restricted action, warm-started and
    optionally preconditioned).  An explicit matrix must be exactly
    symmetric, as an assembled stiffness is: each principal block is
    sliced once, as CSR, and factored through its CSC view ``sub.T``.

    ``full_solver``, if given, is called without arguments when every index
    is active and returns a solver ``rhs -> H^{-1} rhs`` of the whole system,
    or None to fall back to the factorization (which is freed after the
    solve, as on every principal system).

    ``preconditioner``, if given, is a symmetric positive definite
    approximation ``v -> P v`` of ``H^{-1}`` on full-length vectors.  The
    conjugate gradients of a principal system use its principal block
    ``P[active, active]`` (zero-extend, apply, restrict), which is again
    symmetric positive definite; the stopping tolerance is unchanged.

    A principal factor lives for one :meth:`solve_principal` call.
    """

    def __init__(self, apply, n, explicit=None, full_solver=None,
                 preconditioner=None):
        self.apply = apply
        self.n = n
        self.explicit = explicit
        self.full_solver = full_solver
        self.preconditioner = preconditioner

    @classmethod
    def from_matrix(cls, H, full_solver=None):
        H = sp.csr_matrix(H)
        return cls(apply=lambda u: H @ u, n=H.shape[0], explicit=H,
                   full_solver=full_solver)

    def solve_principal(self, active, rhs, x0=None):
        """Solve ``H[active, active] x = rhs`` for the active index set."""
        active = np.asarray(active, dtype=int)
        rhs = np.asarray(rhs, dtype=float)
        if active.size == 0:
            return np.zeros(0)
        if (self.full_solver is not None and active.size == self.n
                and np.array_equal(active, np.arange(self.n))):
            solve = self.full_solver()
            if solve is not None:
                return solve(rhs)
        if self.explicit is not None:
            sub = self.explicit[active][:, active]
            try:
                # sub is exactly symmetric, so its CSC view sub.T is sub
                lu = factor_spd(sub.T)
            except RuntimeError as exc:
                raise SsnError(f"singular principal system: {exc}") from exc
            x = lu.solve(rhs)
            x += lu.solve(rhs - sub @ x)
            return x

        def restricted(fn):
            def matvec(v):
                full = np.zeros(self.n)
                full[active] = v
                return fn(full)[active]
            return spla.LinearOperator((active.size, active.size),
                                       matvec=matvec, dtype=float)

        precondition = (None if self.preconditioner is None
                        else restricted(self.preconditioner))
        x, info = spla.cg(restricted(self.apply), rhs, x0=x0, rtol=CG_RTOL,
                          atol=0.0, maxiter=max(2000, 20 * active.size),
                          M=precondition)
        if info > 0:
            raise SsnError(f"conjugate gradients stalled after {info} iterations")
        if info < 0:
            raise SsnError("conjugate gradients failed on the principal system")
        return x

    def norm_estimate(self, iters=60, seed=0):
        """Largest-eigenvalue estimate by power iteration; nothing in dcl0
        calls it, ``perfbench/spans.py`` wraps it."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        lam = 1.0
        for _ in range(iters):
            w = self.apply(v)
            lam = float(np.linalg.norm(w))
            if lam == 0.0:
                return 0.0
            v = w / lam
        return lam


@dataclass
class L1Weights:
    """Nonnegative finite per-component thresholds ``c`` of the L1 term, the
    one form in which both semismooth Newton and SpaRSA take them."""

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if np.any(self.c < 0.0):
            # a negative threshold makes the L1 term concave
            raise ValueError("L1 thresholds must be nonnegative")
        if not np.isfinite(self.c).all():
            raise ValueError("L1 thresholds must be finite")


def _residual_parts(u, base_g, tilt, c, tau):
    """Classification and residual of the projected optimality system.

    Returns ``(F, inactive, shift)`` where ``shift = tilt + clamp`` on the
    clamped components (exactly zero where the tilt cancels the bound) and
    the residual is evaluated piecewise: ``u/tau`` on unclamped components,
    ``base_g - shift`` on clamped ones.
    """
    z = (base_g - tilt) - u / tau
    inactive = np.abs(z) <= c
    F = np.where(inactive, u / tau, 0.0)
    active = ~inactive
    shift = np.zeros_like(u)
    shift[active] = tilt[active] + np.sign(z[active]) * c[active]
    F[active] = base_g[active] - shift[active]
    return F, inactive, shift


def default_tau(u, weights: L1Weights):
    """Scale parameter coupling the residual to the iterate and threshold
    magnitudes, ``100 max|u| / max c``; :func:`ssn_solve` evaluates it at
    every Newton iterate."""
    cmax = float(weights.c.max()) if weights.c.size else 0.0
    if cmax <= 0.0:
        return 1.0
    umax = max(float(np.max(np.abs(u))), np.finfo(float).eps)
    return max(100.0 * umax / cmax, TAU_FLOOR)


@dataclass
class SsnResult:
    u: np.ndarray
    residual: float
    iters: int
    converged: bool


def repeat_tolerance(q, c, tilt):
    """Residual at which an iterate classified as its predecessor was counts
    as converged: :data:`SSN_TOL` times the data scale ``max(1, |q|, |c|,
    |tilt|)`` in the max norm, since the residual's own rounding grows with
    the data; exactly ``SSN_TOL`` for data of scale at most 1."""
    return SSN_TOL * max(float(np.max(np.abs(v), initial=1.0))
                         for v in (q, c, tilt))


def ssn_solve(H: QuadraticOperator, q, weights: L1Weights, u0=None,
              tilt=None) -> SsnResult:
    """Semismooth Newton active-set iteration on ``F_tau(u) = 0``, with
    :func:`default_tau` of the current iterate.

    Each step classifies components by the projection: where the projection
    is unclamped the component is fixed to zero, the clamped components keep
    their bound value and the corresponding principal quadratic system is
    solved: the primal-dual active-set method read as semismooth Newton
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002).  There is no
    fallback; at ``u = 0`` neither the residual nor the step depends on tau.

    It returns, with its residual, the first iterate that
    - has residual at most :data:`SSN_TOL` (converged);
    - is classified as its predecessor was, so that it already solves the
      system the next step would solve again (the method's finite
      termination): converged if its residual is at most
      :func:`repeat_tolerance`, a failure otherwise;
    - or follows :data:`MAX_NEWTON` steps (a failure).

    Each step on an explicit Hessian factors its principal block once; the
    factor lives for that one :meth:`QuadraticOperator.solve_principal` call.
    """
    q = np.asarray(q, dtype=float)
    c = weights.c
    n = q.size
    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    tilt = np.zeros(n) if tilt is None else np.asarray(tilt, dtype=float)

    previous = None
    for iters in range(MAX_NEWTON + 1):
        base_g = H.apply(u) - q
        F, inactive, shift = _residual_parts(u, base_g, tilt, c,
                                             default_tau(u, weights))
        res = float(np.linalg.norm(F))
        # the inactive set and the clamped values fix the Newton system
        repeated = (previous is not None
                    and np.array_equal(inactive, previous[0])
                    and np.array_equal(shift, previous[1]))
        if res <= SSN_TOL or repeated or iters == MAX_NEWTON:
            tol = repeat_tolerance(q, c, tilt) if repeated else SSN_TOL
            return SsnResult(u=u, residual=res, iters=iters,
                             converged=res <= tol)
        previous = inactive, shift

        active = np.flatnonzero(~inactive)
        u_new = np.zeros(n)
        if active.size:
            u_new[active] = H.solve_principal(
                active, q[active] + shift[active], x0=u[active])
        u = u_new


def _soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
