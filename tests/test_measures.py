import itertools

import numpy as np
import pytest

from dcl0.measures import (BUDGET_RTOL, DiscreteMeasureSpace, KSelection,
                           OracleLimitError, complete_selection,
                           largest_k_exact, largest_k_greedy,
                           largest_k_relaxed, largest_k_auto,
                           reformulation_gap, subgradient_largest_k,
                           weighted_l0, weighted_l1, ZERO_THRESHOLD)

# three-atom counterexample data: measures (1, 2, 3), values (4, 4, 3)
LAM = np.array([1.0, 2.0, 3.0])
X = np.array([4.0, 4.0, 3.0])


@pytest.fixture
def space():
    return DiscreteMeasureSpace(LAM)


def brute_force_value(x, lam, budget):
    n = len(x)
    best = 0.0
    slack = budget + BUDGET_RTOL * lam.sum()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            idx = list(combo)
            if lam[idx].sum() <= slack:
                best = max(best, float(lam[idx] @ np.abs(x)[idx]))
    return best


class TestSpace:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, 0.0])
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, -2.0])

    def test_total_measure(self, space):
        assert space.total_measure() == 6.0


class TestWeightedNorms:
    def test_l0_zero_vector(self, space):
        assert weighted_l0(np.zeros(3), space) == 0.0

    def test_l0_full_support(self, space):
        assert weighted_l0(X, space) == 6.0

    def test_l0_partial_support(self, space):
        assert weighted_l0(np.array([4.0, 0.0, 3.0]), space) == 4.0

    def test_l0_threshold(self, space):
        assert weighted_l0(np.array([5e-11, 0.0, 1.0]), space) == 3.0

    def test_l1(self, space):
        assert weighted_l1(X, space) == 21.0
        assert weighted_l1(np.zeros(3), space) == 0.0

    def test_l1_unit_weights(self, rng):
        x = rng.standard_normal(20)
        space = DiscreteMeasureSpace(np.ones(20))
        assert weighted_l1(x, space) == pytest.approx(np.abs(x).sum(), rel=1e-14)

    def test_dimension_mismatch(self, space):
        with pytest.raises(ValueError):
            weighted_l0(np.zeros(4), space)
        with pytest.raises(ValueError):
            weighted_l1(np.zeros(2), space)


class TestGreedy:
    def test_counterexample_value(self, space):
        sel = largest_k_greedy(X, space, 4.0)
        assert sel.value == 12.0
        assert list(sel.indices) == [0, 1]
        assert not sel.exact

    def test_full_budget(self, space):
        sel = largest_k_greedy(X, space, 6.0)
        assert sel.value == weighted_l1(X, space)

    def test_zero_budget(self, space):
        sel = largest_k_greedy(X, space, 0.0)
        assert sel.value == 0.0 and sel.indices.size == 0

    def test_budget_out_of_range(self, space):
        with pytest.raises(ValueError):
            largest_k_greedy(X, space, -1.0)
        with pytest.raises(ValueError):
            largest_k_greedy(X, space, 6.5)

    def test_skips_zero_entries(self, space):
        sel = largest_k_greedy(np.array([0.0, 0.0, 1.0]), space, 6.0)
        assert list(sel.indices) == [2]

    def test_tie_break_ascending_index(self):
        space = DiscreteMeasureSpace([2.0, 2.0, 2.0])
        sel = largest_k_greedy(np.array([1.0, 1.0, 1.0]), space, 4.0)
        assert list(sel.indices) == [0, 1]

    def test_dominated_by_exact(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 13))
            lam = rng.random(n) + 0.05
            x = rng.standard_normal(n)
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.random() * lam.sum())
            greedy = largest_k_greedy(x, space, budget)
            exact = largest_k_exact(x, space, budget)
            assert greedy.value <= exact.value + 1e-12

    def test_matches_reference_scan(self, rng):
        # the plain scan that the vectorized prefix + early stop reproduces
        def scan_order(x):
            absx = np.abs(x)
            candidates = np.flatnonzero(absx > ZERO_THRESHOLD)
            return candidates[np.argsort(-absx[candidates], kind="stable")]

        def reference(x, space, budget):
            lam = space.weights
            slack = budget + BUDGET_RTOL * space.total_measure()
            taken, used = [], 0.0
            for i in scan_order(x):
                if used + lam[i] <= slack:
                    taken.append(i)
                    used += lam[i]
            return np.sort(np.asarray(taken, dtype=int))

        def budget_on_partial_sum(x, space):
            # a budget whose slack equals a running total of the scan exactly
            order = scan_order(x)
            if order.size == 0:
                return 0.0
            target = np.cumsum(space.weights[order])[rng.integers(order.size)]
            extra = BUDGET_RTOL * space.total_measure()
            budget = target - extra
            for _ in range(8):
                if budget + extra == target:
                    break
                budget = np.nextafter(budget, np.inf if budget + extra < target
                                      else -np.inf)
            return float(min(max(budget, 0.0), space.total_measure()))

        for case in range(180):
            n = int(rng.integers(1, 400))
            if case % 3 == 0:
                lam = np.full(n, 1.0 / n)                     # equal measures
            else:
                lam = (1.0 + 0.4 * (rng.random(n) - 0.5)) / n  # jittered areas
            x = rng.standard_normal(n)
            if case % 2:
                x = np.round(x, 1)                            # many ties
            x[rng.random(n) < 0.1] = 0.0
            space = DiscreteMeasureSpace(lam)
            total = space.total_measure()
            budget = [0.0, 1e-6, 0.25 * total, total, float(rng.random()) * total,
                      budget_on_partial_sum(x, space)][case % 6]
            sel = largest_k_greedy(x, space, budget)
            idx = reference(x, space, budget)
            assert np.array_equal(sel.indices, idx)
            assert sel.value == (float(lam[idx] @ np.abs(x)[idx])
                                 if idx.size else 0.0)
            assert sel.weight == (float(lam[idx].sum()) if idx.size else 0.0)


class TestCompleteSelection:
    def test_adds_zero_atoms_first_fit(self):
        space = DiscreteMeasureSpace([1.0, 1.0, 3.0, 1.0, 2.0])
        x = np.array([0.0, 5.0, 0.0, 0.0, 4.0])
        sel = largest_k_greedy(x, space, 5.0)
        assert list(sel.indices) == [1, 4]
        # slack 2 left: zero atom 0 fits, 2 does not, 3 fills the budget
        full = complete_selection(sel, x, space, 5.0)
        assert list(full.indices) == [0, 1, 3, 4]
        assert full.value == sel.value
        assert full.weight == 5.0

    def test_never_adds_nonzero_atoms(self):
        space = DiscreteMeasureSpace([1.0, 1.0, 1.0])
        x = np.array([0.0, 5.0, 1.0])
        sel = largest_k_greedy(x, space, 1.0)
        assert list(complete_selection(sel, x, space, 3.0).indices) == [0, 1]

    def test_full_budget_keeps_selection(self, space):
        sel = largest_k_greedy(np.array([0.0, 4.0, 3.0]), space, 5.0)
        assert complete_selection(sel, np.zeros(3), space, 5.0) is sel

    def test_matches_reference_loop(self, rng):
        # the plain loop over zero atoms by ascending index
        def reference(sel, x, space, budget):
            lam = space.weights
            slack = budget + BUDGET_RTOL * space.total_measure() - sel.weight
            zero = np.abs(x) <= ZERO_THRESHOLD
            zero[sel.indices] = False
            taken = []
            for i in np.flatnonzero(zero):
                if lam[i] <= slack:
                    taken.append(i)
                    slack -= lam[i]
            return np.sort(np.concatenate([sel.indices, taken]).astype(int))

        for case in range(120):
            n = int(rng.integers(1, 200))
            lam = (1.0 + 0.4 * (rng.random(n) - 0.5)) / n
            x = rng.standard_normal(n)
            x[rng.random(n) < [0.1, 0.5, 0.9][case % 3]] = 0.0
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.random()) * space.total_measure()
            sel = largest_k_greedy(x, space, budget)
            full = complete_selection(sel, x, space, budget)
            assert np.array_equal(full.indices, reference(sel, x, space, budget))
            assert full.weight <= budget + BUDGET_RTOL * space.total_measure()


class TestExact:
    def test_counterexample(self, space):
        sel = largest_k_exact(X, space, 4.0)
        assert sel.value == 13.0
        assert list(sel.indices) == [0, 2]
        assert sel.exact

    def test_zero_budget(self, space):
        assert largest_k_exact(X, space, 0.0).value == 0.0

    def test_equal_values_take_max_weight(self):
        space = DiscreteMeasureSpace([1.0, 2.0, 3.0])
        sel = largest_k_exact(np.array([2.0, 2.0, 2.0]), space, 3.0)
        assert sel.value == 6.0
        assert sel.weight == 3.0

    def test_dp_matches_enumeration(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 11))
            lam = rng.integers(1, 8, size=n).astype(float)
            x = rng.standard_normal(n)
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.integers(0, int(lam.sum()) + 1))
            from dcl0.measures import _exact_dp, _exact_enumerate
            dp = _exact_dp(np.abs(x), lam, budget, 1.0)
            enum = _exact_enumerate(np.abs(x), lam, budget)
            assert dp.value == pytest.approx(enum.value, abs=1e-12)
            assert dp.weight <= budget + 1e-12 * lam.sum()

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            lam = rng.random(n) + 0.1
            x = rng.standard_normal(n)
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.random() * lam.sum())
            sel = largest_k_exact(x, space, budget)
            assert sel.value == pytest.approx(
                brute_force_value(x, lam, budget), abs=1e-12)

    def test_oracle_limit(self, rng):
        lam = rng.random(30) + 0.1
        space = DiscreteMeasureSpace(lam)
        with pytest.raises(OracleLimitError):
            largest_k_exact(rng.standard_normal(30), space, 1.0)

    def test_selection_invariants(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            lam = rng.random(n) + 0.1
            x = rng.standard_normal(n)
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.random() * lam.sum())
            for sel in (largest_k_exact(x, space, budget),
                        largest_k_greedy(x, space, budget)):
                assert sel.weight <= budget + 1e-12 * space.total_measure()
                assert len(set(sel.indices.tolist())) == sel.indices.size
                if sel.indices.size:
                    assert sel.indices.min() >= 0
                    assert sel.indices.max() < n
                recomputed = float(lam[sel.indices] @ np.abs(x)[sel.indices]) \
                    if sel.indices.size else 0.0
                assert sel.value == pytest.approx(recomputed, rel=1e-12, abs=1e-300)


class TestRelaxed:
    def test_counterexample_fractional(self, space):
        assert largest_k_relaxed(X, space, 4.0) == 15.0

    def test_support_feasible_gives_l1(self, space):
        x = np.array([4.0, 0.0, 3.0])
        assert largest_k_relaxed(x, space, 4.0) == weighted_l1(x, space)

    def test_full_budget_gives_l1(self, space):
        assert largest_k_relaxed(X, space, 6.0) == weighted_l1(X, space)

    def test_dominates_exact(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            lam = rng.random(n) + 0.1
            x = rng.standard_normal(n)
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.random() * lam.sum())
            assert largest_k_relaxed(x, space, budget) >= \
                largest_k_exact(x, space, budget).value - 1e-12

    def test_equality_at_exhausted_budget(self):
        space = DiscreteMeasureSpace([1.0, 1.0, 2.0])
        x = np.array([3.0, 2.0, 1.0])
        assert largest_k_relaxed(x, space, 2.0) == \
            largest_k_exact(x, space, 2.0).value == 5.0


class TestGap:
    def test_counterexample(self, space):
        assert reformulation_gap(X, space, 4.0) == 8.0

    def test_feasible_support_zero_gap(self, space):
        x = np.array([4.0, 0.0, 3.0])
        assert reformulation_gap(x, space, 4.0) == 0.0

    def test_zero_vector(self, space):
        assert reformulation_gap(np.zeros(3), space, 4.0) == 0.0

    def test_equivalence_random_integer_instances(self, rng):
        # zero gap if and only if the support measure fits the budget
        for _ in range(500):
            n = int(rng.integers(1, 15))
            lam = rng.integers(1, 10, size=n).astype(float)
            x = rng.integers(-5, 6, size=n).astype(float)
            x[rng.random(n) < 0.4] = 0.0
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.integers(0, int(lam.sum()) + 1))
            gap = reformulation_gap(x, space, budget)
            l1 = weighted_l1(x, space)
            assert gap >= -1e-12 * max(l1, 1.0)
            assert (gap <= 1e-12 * max(l1, 1.0)) == \
                (weighted_l0(x, space) <= budget)

    def test_one_sided_failure_with_atoms(self, space):
        # budget 4.5 attains the same value as budget 4 although the support
        # measure is 6: the smaller-budget equality does not imply
        # feasibility on spaces with atoms
        v4 = largest_k_exact(X, space, 4.0).value
        v45 = largest_k_exact(X, space, 4.5).value
        assert v4 == v45 == 13.0
        assert weighted_l0(X, space) == 6.0 > 4.0

    def test_auto_uses_greedy_above_limit(self, rng):
        lam = rng.random(40) + 0.1
        space = DiscreteMeasureSpace(lam)
        sel = largest_k_auto(rng.standard_normal(40), space, 0.5 * lam.sum())
        assert not sel.exact


class TestSubgradient:
    def test_counterexample(self, space):
        sel = largest_k_exact(X, space, 4.0)
        s = subgradient_largest_k(X, space, 4.0, sel)
        assert np.array_equal(s, [1.0, 0.0, 3.0])

    def test_zero_vector_zero_policy(self, space):
        sel = KSelection(indices=np.array([0, 1]), value=0.0, weight=3.0,
                         exact=True)
        s = subgradient_largest_k(np.zeros(3), space, 4.0, sel, "zero")
        assert np.array_equal(s, np.zeros(3))

    def test_full_selection_positive_vector(self, space):
        x = np.array([1.0, 2.0, 3.0])
        sel = largest_k_exact(x, space, 6.0)
        s = subgradient_largest_k(x, space, 6.0, sel)
        assert np.array_equal(s, LAM)

    def test_zero_sign_policies(self, space):
        sel = KSelection(indices=np.array([1]), value=0.0, weight=2.0,
                         exact=True)
        x = np.zeros(3)
        assert subgradient_largest_k(x, space, 4.0, sel, "plus")[1] == 2.0
        assert subgradient_largest_k(x, space, 4.0, sel, "minus")[1] == -2.0
        custom = subgradient_largest_k(x, space, 4.0, sel,
                                       np.array([-1.0, -1.0, 1.0]))
        assert custom[1] == -2.0
        with pytest.raises(ValueError):
            subgradient_largest_k(x, space, 4.0, sel, "sideways")

    def test_stale_selection_rejected(self, space):
        sel = KSelection(indices=np.array([5]), value=0.0, weight=0.0,
                         exact=True)
        with pytest.raises(ValueError):
            subgradient_largest_k(X, space, 4.0, sel)

    def test_subgradient_inequality_exact_selections(self, rng):
        # <s, v> <= |v|_K for all v, with equality at the base point
        for _ in range(10):
            n = int(rng.integers(2, 13))
            lam = rng.integers(1, 9, size=n).astype(float)
            x = rng.standard_normal(n)
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.integers(1, int(lam.sum()) + 1))
            sel = largest_k_exact(x, space, budget)
            s = subgradient_largest_k(x, space, budget, sel)
            assert float(s @ x) == pytest.approx(sel.value, rel=1e-12)
            for _ in range(200):
                v = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
                bound = largest_k_exact(v, space, budget).value
                assert float(s @ v) <= bound + 1e-9

    def test_subdifferential_inclusion_bounds(self, rng):
        # |s_i| <= lam_i and the support of s fits the budget
        for _ in range(50):
            n = int(rng.integers(1, 13))
            lam = rng.integers(1, 9, size=n).astype(float)
            x = rng.standard_normal(n)
            x[rng.random(n) < 0.3] = 0.0
            space = DiscreteMeasureSpace(lam)
            budget = float(rng.integers(0, int(lam.sum()) + 1))
            sel = largest_k_exact(x, space, budget)
            s = subgradient_largest_k(x, space, budget, sel)
            assert np.all(np.abs(s) <= lam + 1e-15)
            assert lam[s != 0.0].sum() <= budget + 1e-12
