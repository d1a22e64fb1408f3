"""Weighted (pseudo-)norms on finite discrete measure spaces.

A vector of positive weights ``lam`` turns ``{0, ..., n-1}`` into a purely
atomic measure space with ``mu({i}) = lam[i]``.  On top of it we provide the
support measure (L0), the weighted L1 norm, and the largest-K-norm

    |x|_K = max { sum_{i in I} lam_i |x_i| : sum_{i in I} lam_i <= K },

which is a knapsack maximum.  Exact oracles (subset enumeration, integer
dynamic programming), the greedy approximation used inside the DC solver
and its completion by zero atoms (both one first-fit scan), the fractional
relaxation, and subgradients of the largest-K-norm live here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DiscreteMeasureSpace",
    "KSelection",
    "OracleLimitError",
    "weighted_l0",
    "weighted_l1",
    "unselected_sum",
    "greedy_order",
    "largest_k_greedy",
    "complete_selection",
    "largest_k_exact",
    "largest_k_relaxed",
    "largest_k_auto",
    "subgradient_largest_k",
]

#: values with |x_i| below this count as zero for the support measure
ZERO_THRESHOLD = 1e-10

#: relative slack on the weight budget, absorbs floating-point weight sums
BUDGET_RTOL = 1e-12

#: largest atom count handled by subset enumeration
ENUM_LIMIT = 25

#: largest atom count handled by the integer-weight dynamic program
DP_LIMIT = 10_000

#: cap on (atoms x integer capacity) for the DP decision table
DP_CELL_LIMIT = 200_000_000

#: atoms per slice of the first-fit scan's tail, converted to Python floats
#: only once the scan reaches it
_SCAN_SLICE = 1 << 8


class OracleLimitError(ValueError):
    """Instance is too large for the requested exact oracle."""


class DiscreteMeasureSpace:
    """Finite set of atoms with positive measures."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(w > 0.0):
            raise ValueError("all atom measures must be positive")
        if not np.isfinite(w).all():
            raise ValueError("atom measures must be finite")
        self.weights = w
        self.n = w.size

    def total_measure(self) -> float:
        return float(self.weights.sum())

    def __repr__(self):
        return f"DiscreteMeasureSpace(n={self.n}, total={self.total_measure():g})"


@dataclass
class KSelection:
    """Index set realizing (or approximating) a weighted largest-K maximum.

    ``indices`` are distinct atom indices, ``value`` the attained weighted
    sum, ``weight`` the consumed budget, and ``exact`` tells whether the
    selection came from an exact oracle rather than the greedy scan.
    """

    indices: np.ndarray
    value: float
    weight: float
    exact: bool

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)


def _check_dims(x, space):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != space.n:
        raise ValueError(f"vector has length {x.size}, space has {space.n} atoms")
    return x


def _check_budget(budget, space):
    total = space.total_measure()
    if not 0.0 <= budget <= total * (1.0 + BUDGET_RTOL):
        raise ValueError(f"budget {budget} outside [0, {total}]")
    return float(budget)


def weighted_l0(x, space: DiscreteMeasureSpace) -> float:
    """Measure of the support: sum of atom measures where ``|x_i|`` exceeds
    :data:`ZERO_THRESHOLD`."""
    x = _check_dims(x, space)
    return float(space.weights[np.abs(x) > ZERO_THRESHOLD].sum())


def weighted_l1(x, space: DiscreteMeasureSpace) -> float:
    """Weighted L1 norm ``sum_i lam_i |x_i|``."""
    x = _check_dims(x, space)
    return float(space.weights @ np.abs(x))


def _selection(indices, absx, lam, exact):
    idx = np.sort(np.asarray(indices, dtype=int))
    value = float(lam[idx] @ absx[idx]) if idx.size else 0.0
    weight = float(lam[idx].sum()) if idx.size else 0.0
    return KSelection(indices=idx, value=value, weight=weight, exact=exact)


def unselected_sum(x, space: DiscreteMeasureSpace, selection: KSelection):
    """The gap ``l1 - |x|_K`` as the weighted L1 norm off the selection: never
    negative, and 0 when the selection holds every atom with nonzero |x_i|."""
    rest = np.abs(_check_dims(x, space))
    rest[selection.indices] = 0.0
    return float(space.weights @ rest)


def _by_magnitude(absx, floor):
    """Atoms with ``absx`` above ``floor`` by decreasing ``absx``, ties by
    ascending index: the order of a stable sort on ``-absx``, from numpy's
    default (SIMD, unstable) sort with each run of equal keys then sorted
    by index."""
    candidates = np.flatnonzero(absx > floor)
    keys = -absx[candidates]
    order = np.argsort(keys)
    keys = keys[order]
    tie = keys[1:] == keys[:-1]
    if tie.any():
        # the positions in runs of equal keys, sorted by (run, index) as
        # one integer key; the runs keep their places
        in_run = np.zeros(keys.size, dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        run = np.cumsum(~np.concatenate(([False], tie)))[in_run] * keys.size
        order[in_run] = np.sort(run + order[in_run]) - run
    return candidates[order]


def _first_fit(order, lam, slack):
    """First-fit knapsack scan: visit the atoms of ``order`` in turn and take
    each whose measure still fits ``slack``; returns the taken atoms."""
    w = lam[order]
    # the leading run that fits whole; cumsum adds in scan order, so each
    # partial sum is the running total the scan below would hold
    prefix = np.cumsum(w)
    head = int(np.searchsorted(prefix, slack, side="right"))
    used = float(prefix[head - 1]) if head else 0.0
    # past the first misfit only atoms that fit the remaining slack are
    # taken; none can once even the lightest atom overflows it
    w_min = float(w.min(initial=np.inf))
    extra = []
    for start in range(head + 1, w.size, _SCAN_SLICE):
        if used + w_min > slack:
            break
        for k, wk in enumerate(w[start:start + _SCAN_SLICE].tolist(), start):
            if used + wk <= slack:
                extra.append(k)
                used += wk
    return np.concatenate([order[:head], order[extra]])


def greedy_order(x):
    """The atoms :func:`largest_k_greedy` visits, in its order: those with
    ``|x_i|`` above :data:`ZERO_THRESHOLD`, by decreasing ``|x_i|``, ties by
    ascending index."""
    return _by_magnitude(np.abs(np.asarray(x, dtype=float)), ZERO_THRESHOLD)


def largest_k_greedy(x, space: DiscreteMeasureSpace, budget,
                     order=None) -> KSelection:
    """Greedy knapsack scan for the largest-K maximum.

    Atoms are visited by decreasing ``|x_i|`` (ties by ascending index) and
    taken whenever their measure still fits the remaining budget.  Atoms
    with ``|x_i|`` at or below :data:`ZERO_THRESHOLD` are never taken.  The
    result is feasible but may undershoot the exact maximum.  ``order``,
    when given, must be :func:`greedy_order` of ``x``: scans of one ``x``
    at several budgets can share one sort.
    """
    x = _check_dims(x, space)
    budget = _check_budget(budget, space)
    absx = np.abs(x)
    if order is None:
        order = _by_magnitude(absx, ZERO_THRESHOLD)
    slack = budget + BUDGET_RTOL * space.total_measure()
    return _selection(_first_fit(order, space.weights, slack), absx,
                      space.weights, exact=False)


def complete_selection(selection: KSelection, x, space: DiscreteMeasureSpace,
                       budget) -> KSelection:
    """Extend a selection by the unselected atoms with ``|x_i|`` at or below
    :data:`ZERO_THRESHOLD`, first fit by ascending index, while the budget
    permits.  The attained value is kept: a maximizing set stays maximizing,
    and the added atoms carry the zero-sign choice of a subgradient."""
    x = _check_dims(x, space)
    budget = _check_budget(budget, space)
    lam = space.weights
    slack = budget + BUDGET_RTOL * space.total_measure() - selection.weight
    # full when even the lightest atom overflows
    if slack < float(lam.min()):
        return selection
    zero = np.abs(x) <= ZERO_THRESHOLD
    zero[selection.indices] = False
    extra = _first_fit(np.flatnonzero(zero), lam, slack)
    return replace(selection,
                   indices=np.sort(np.concatenate([selection.indices, extra])),
                   weight=selection.weight + float(lam[extra].sum()))


def _float_gcd(values, rtol=1e-9):
    """Approximate positive real gcd of a set of floats, or None."""
    g = 0.0
    for v in values:
        a, b = max(g, v), min(g, v)
        while b > rtol * a:
            a, b = b, a - np.floor(a / b) * b
        g = a
    if g <= 0.0:
        return None
    ratios = np.asarray(values) / g
    if np.max(np.abs(ratios - np.round(ratios))) > rtol:
        return None
    return g


def _int_capacity(ratio):
    # relative slack so that counts in the thousands survive float noise;
    # any overshoot stays within the budget tolerance of the selection
    return int(np.floor(ratio + BUDGET_RTOL * max(1.0, ratio)))


def _exact_equal_weights(absx, lam, budget):
    # all atom measures equal: take the largest |x_i| until the budget is full
    w = lam[0]
    count = min(_int_capacity(budget / w), lam.size)
    return _selection(_by_magnitude(absx, 0.0)[:count], absx, lam, exact=True)


def _exact_dp(absx, lam, budget, unit):
    """0/1 knapsack DP on integer-rescaled weights with traceback; the
    caller keeps the table within :data:`DP_CELL_LIMIT` cells."""
    items = np.flatnonzero(absx > 0.0)
    w_int = np.round(lam[items] / unit).astype(np.int64)
    cap = _int_capacity(budget / unit)
    if cap <= 0 or items.size == 0:
        return _selection([], absx, lam, exact=True)
    w_int = np.minimum(w_int, cap + 1)
    profits = lam[items] * absx[items]
    best = np.zeros(cap + 1)
    take = np.zeros((items.size, cap + 1), dtype=bool)
    for j, (w, p) in enumerate(zip(w_int, profits)):
        if w > cap:
            continue
        cand = best[:cap + 1 - w] + p
        improved = cand > best[w:]
        take[j, w:] = improved
        np.maximum(best[w:], cand, out=best[w:])
    chosen = []
    c = cap
    for j in range(items.size - 1, -1, -1):
        if take[j, c]:
            chosen.append(items[j])
            c -= w_int[j]
    return _selection(chosen, absx, lam, exact=True)


def _subset_sums(weights, profits):
    w = np.zeros(1)
    p = np.zeros(1)
    for wi, pi in zip(weights, profits):
        w = np.concatenate([w, w + wi])
        p = np.concatenate([p, p + pi])
    return w, p


def _exact_enumerate(absx, lam, budget):
    """Meet-in-the-middle subset enumeration."""
    items = np.flatnonzero(absx > 0.0)
    if items.size == 0:
        return _selection([], absx, lam, exact=True)
    slack = budget + BUDGET_RTOL * lam.sum()
    half = items.size // 2
    left, right = items[:half], items[half:]
    wl, pl = _subset_sums(lam[left], lam[left] * absx[left])
    wr, pr = _subset_sums(lam[right], lam[right] * absx[right])
    # sort right halves by weight and keep the running best profit
    order = np.argsort(wr, kind="stable")
    wr, pr = wr[order], pr[order]
    best_pr = np.maximum.accumulate(pr)
    best_at = np.zeros(wr.size, dtype=np.int64)
    run = 0
    for i in range(wr.size):
        if pr[i] > pr[run]:
            run = i
        best_at[i] = run
    # for every left half, the best right half among those that still fit
    pos = np.searchsorted(wr, slack - wl, side="right") - 1
    vals = np.full(wl.size, -np.inf)
    feasible = pos >= 0
    vals[feasible] = pl[feasible] + best_pr[pos[feasible]]
    ml = int(np.argmax(vals))
    mr = int(order[best_at[pos[ml]]])
    chosen = [left[b] for b in range(left.size) if ml >> b & 1]
    chosen += [right[b] for b in range(right.size) if mr >> b & 1]
    return _selection(chosen, absx, lam, exact=True)


def largest_k_exact(x, space: DiscreteMeasureSpace, budget) -> KSelection:
    """Exact largest-K maximum.

    Uses, in order of preference: the closed form for equal atom measures,
    a dynamic program when the measures are integer multiples of a common
    unit (up to :data:`DP_LIMIT` atoms), and meet-in-the-middle subset
    enumeration for up to :data:`ENUM_LIMIT` atoms.  Raises
    :class:`OracleLimitError` when none applies.
    """
    x = _check_dims(x, space)
    budget = _check_budget(budget, space)
    lam = space.weights
    absx = np.abs(x)
    if budget == 0.0:
        return _selection([], absx, lam, exact=True)
    if np.ptp(lam) <= BUDGET_RTOL * lam[0]:
        return _exact_equal_weights(absx, lam, budget)
    if space.n <= DP_LIMIT:
        unit = _float_gcd(lam)
        if unit is not None:
            cap = _int_capacity(budget / unit)
            if space.n * (cap + 1) <= DP_CELL_LIMIT:
                return _exact_dp(absx, lam, budget, unit)
    if space.n <= ENUM_LIMIT:
        return _exact_enumerate(absx, lam, budget)
    raise OracleLimitError(
        f"no exact oracle for {space.n} atoms with incommensurate measures")


def largest_k_relaxed(x, space: DiscreteMeasureSpace, budget) -> float:
    """Fractional relaxation: atoms may be taken partially, so the optimum
    is the greedy fill with a split at the budget boundary.  Always an upper
    bound for the exact largest-K value."""
    x = _check_dims(x, space)
    budget = _check_budget(budget, space)
    absx = np.abs(x)
    order = _by_magnitude(absx, 0.0)
    lam, a = space.weights[order], absx[order]
    # whole atoms while their running measure fits the budget, then the
    # break atom split to fill the remainder
    whole = np.cumsum(lam)
    head = int(np.searchsorted(whole, budget, side="right"))
    value = float(lam[:head] @ a[:head])
    if head < order.size:
        used = float(whole[head - 1]) if head else 0.0
        value += (budget - used) * float(a[head])
    return value


def largest_k_auto(x, space: DiscreteMeasureSpace, budget) -> KSelection:
    """Exact selection when an oracle applies, greedy otherwise; the
    ``exact`` flag on the result records which path was taken."""
    try:
        return largest_k_exact(x, space, budget)
    except OracleLimitError:
        return largest_k_greedy(x, space, budget)


def subgradient_largest_k(x, space: DiscreteMeasureSpace,
                          selection: KSelection):
    """Subgradient of the largest-K-norm from a maximizing selection.

    On selected atoms the component is ``lam_i * sign(x_i)``, with the sign
    of a zero ``x_i`` taken as +1; off the selection it vanishes.  The
    budget enters only through the selection, and this is a true
    subgradient only when the selection is exact.
    """
    x = _check_dims(x, space)
    if selection.indices.size and selection.indices.max() >= space.n:
        raise ValueError("selection indices out of range for this space")
    idx = selection.indices
    s = np.zeros(space.n)
    s[idx] = np.where(x[idx] >= 0.0, space.weights[idx], -space.weights[idx])
    return s
