"""Property tests of the largest-K oracles on small discrete measure spaces
(at most 12 atoms, integer and float atom measures; up to 64 atoms with
integer measures, enough for a dot product to round differently with and
without its zero terms), and of the structured grid's stencil against the
element-list path of every other mesh."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dcl0.fem import (FemSystem, _validate, assemble, build_structured_mesh,
                      w_of)
from dcl0.measures import (BUDGET_RTOL, DiscreteMeasureSpace, _exact_dp,
                           _exact_enumerate, largest_k_auto, largest_k_exact,
                           largest_k_greedy, largest_k_relaxed,
                           subgradient_largest_k, unselected_sum, weighted_l0,
                           weighted_l1)
from dcl0.problems import default_load
from oracles import reformulation_gap

#: deterministic examples, no example database, no per-example deadline;
#: no shrink phase, so a failure reports the first falsifying example found
#: within seconds (shrinking a 64-atom example took 85 s)
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50,
                    phases=[p for p in Phase if p is not Phase.shrink])

#: relative rounding tolerance between values summed in different orders
RTOL = 1e-12

ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 100.0),
                  st.floats(-100.0, -1e-3))


@st.composite
def instances(draw, integer_weights=None, atoms=12):
    """``(x, space, budget)`` with at most ``atoms`` atoms; the budget is a
    share of the total measure."""
    n = draw(st.integers(1, atoms))
    if integer_weights is None:
        integer_weights = draw(st.booleans())
    if integer_weights:
        weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    else:
        weights = draw(st.lists(st.floats(0.01, 10.0), min_size=n,
                                max_size=n))
    x = np.array(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    space = DiscreteMeasureSpace(np.array(weights, dtype=float))
    budget = space.total_measure() * draw(st.floats(0.0, 1.0))
    return x, space, budget


def slack(space, budget):
    return budget + BUDGET_RTOL * space.total_measure()


@PROPERTY
@given(instances())
def test_every_selection_fits_the_budget(instance):
    x, space, budget = instance
    for oracle in (largest_k_greedy, largest_k_exact, largest_k_auto):
        sel = oracle(x, space, budget)
        assert np.unique(sel.indices).size == sel.indices.size
        assert sel.weight <= slack(space, budget)
        assert sel.weight == pytest.approx(
            space.weights[sel.indices].sum(), rel=RTOL)


@PROPERTY
@given(instances())
def test_greedy_exact_relaxed_ordering(instance):
    x, space, budget = instance
    greedy = largest_k_greedy(x, space, budget).value
    exact = largest_k_exact(x, space, budget).value
    relaxed = largest_k_relaxed(x, space, budget)
    scale = RTOL * max(weighted_l1(x, space), 1.0)
    assert greedy <= exact + scale
    assert exact <= relaxed + scale


@PROPERTY
@given(instances(integer_weights=True),
       st.sampled_from([1.0, 0.25, 0.1, 1.0 / 3.0]),
       st.integers(0, 240))
def test_dp_matches_enumeration(instance, unit, units):
    x, space, _ = instance
    lam = space.weights * unit
    budget = min(units * unit, float(lam.sum()))
    absx = np.abs(x)
    dp = _exact_dp(absx, lam, budget, unit)
    enum = _exact_enumerate(absx, lam, budget)
    assert dp.value == pytest.approx(enum.value, rel=RTOL, abs=RTOL)


@PROPERTY
@given(instances())
def test_gap_vanishes_exactly_when_support_fits(instance):
    x, space, budget = instance
    gap = weighted_l1(x, space) - largest_k_exact(x, space, budget).value
    if weighted_l0(x, space) <= slack(space, budget):
        assert abs(gap) <= RTOL * max(weighted_l1(x, space), 1.0)
    else:
        # some supported atom stays out: at least its share of l1 is lost
        assert gap > 0.0


@PROPERTY
@given(st.one_of(instances(), instances(integer_weights=True, atoms=64)))
def test_unselected_sum_is_the_gap(instance):
    x, space, budget = instance
    l1 = weighted_l1(x, space)
    scale = RTOL * max(l1, 1.0)
    greedy = largest_k_greedy(x, space, budget)
    exact = largest_k_exact(x, space, budget)
    # the reference is the difference l1 - value, of the selection taken
    for sel, reference in ((greedy, l1 - greedy.value),
                           (exact, reformulation_gap(x, space, budget))):
        gap = unselected_sum(x, space, sel)
        assert gap >= 0.0
        if np.isin(np.flatnonzero(x), sel.indices).all():
            assert gap == 0.0
        assert abs(gap - reference) <= scale


@PROPERTY
@given(instances(), st.lists(st.floats(-100.0, 100.0), min_size=12,
                             max_size=12))
def test_subgradient_inequality(instance, y_values):
    x, space, budget = instance
    y = np.array(y_values[:space.n])
    sel = largest_k_exact(x, space, budget)
    s = subgradient_largest_k(x, space, sel)
    norm_x = sel.value
    norm_y = largest_k_exact(y, space, budget).value
    scale = RTOL * max(weighted_l1(x, space), weighted_l1(y, space), 1.0)
    assert float(s @ x) == pytest.approx(norm_x, rel=RTOL, abs=RTOL)
    assert norm_y >= norm_x + float(s @ (y - x)) - scale


def signed_zeros(rng, size):
    """Standard normal values, about a fifth of them +0.0 and a fifth -0.0."""
    values = rng.standard_normal(size)
    values[rng.random(size) < 0.2] = 0.0
    values[rng.random(size) < 0.25] = -0.0
    return values


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def nonseparable_load(x, y):
    return np.sin(3.0 * x * y) + x / (1.0 + y)


def unit_load(x, y):
    # a scalar, as a constant source may return
    return 1.0


@PROPERTY
@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_grid_stencil_is_the_element_list_path(n, seed):
    # the same nodes and triangles with grid_n unset take the general path
    grid = build_structured_mesh(n)
    other = _validate(grid.nodes, grid.triangles)
    assert other.grid_n is None
    for name in ("areas", "boundary_nodes"):
        assert bits(getattr(grid, name)) == bits(getattr(other, name)), name
    on_grid, on_list = FemSystem(grid), FemSystem(other)
    for name in ("elem_nodes", "patch_measure"):
        assert bits(getattr(on_grid, name)) == bits(getattr(on_list, name))
    rng = np.random.default_rng(seed)
    x = signed_zeros(rng, grid.num_triangles)
    assert bits(on_grid.node_sums(x)) == bits(on_list.node_sums(x))
    u = signed_zeros(rng, grid.num_nodes)
    assert bits(w_of(u, on_grid)) == bits(w_of(u, on_list))
    for g in (default_load, nonseparable_load, unit_load):
        assert (bits(assemble(grid, g, mass=False).b)
                == bits(assemble(other, g, mass=False).b)), g.__name__
