from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from zerosum import (AbelianGroup, BudgetExceededError, DivisorPair,
                     SearchBudget, d_pair_bruteforce, d_pair_value,
                     davenport_constant, davenport_p_group,
                     enumerate_zero_sumfree, gamma_exact, k_star,
                     longest_avoiding, longest_zero_sumfree, max_cross_number,
                     max_order_count)
from conftest import all_zero_sumfree_multisets

C2 = AbelianGroup((2,))
C3 = AbelianGroup((3,))
C6 = AbelianGroup((6,))
C24 = AbelianGroup((2, 4))
C22 = AbelianGroup((2, 2))


class TestEnumerate:
    def test_c3_length_two(self):
        seen = []
        count = enumerate_zero_sumfree(C3, 2, seen.append)
        assert count == 2
        assert [tuple(s.iter_ranks()) for s in seen] == [(1, 1), (2, 2)]

    def test_c2_length_one(self):
        seen = []
        assert enumerate_zero_sumfree(C2, 1, seen.append) == 1
        assert tuple(seen[0].iter_ranks()) == (1,)

    def test_c22_length_two(self):
        seen = []
        assert enumerate_zero_sumfree(C22, 2, seen.append) == 3
        assert [tuple(s.iter_ranks()) for s in seen] == [(1, 2), (1, 3), (2, 3)]

    def test_length_zero_visits_empty(self):
        seen = []
        assert enumerate_zero_sumfree(C3, 0, seen.append) == 1
        assert seen[0].is_empty

    def test_matches_definitional_filter(self):
        for group in [C24, AbelianGroup((3, 3)), C6]:
            for length in range(1, 5):
                seen = set()
                enumerate_zero_sumfree(
                    group, length,
                    lambda s: seen.add(tuple(s.iter_ranks())))
                assert seen == all_zero_sumfree_multisets(group, length)

    def test_each_visit_extends_a_shorter_one(self):
        for length in (2, 3, 4):
            shorter: set[tuple[int, ...]] = set()
            enumerate_zero_sumfree(
                C24, length - 1, lambda s: shorter.add(tuple(s.iter_ranks())))
            longer: list[tuple[int, ...]] = []
            enumerate_zero_sumfree(
                C24, length, lambda s: longer.append(tuple(s.iter_ranks())))
            for ranks in longer:
                assert any(ranks[:i] + ranks[i + 1:] in shorter
                           for i in range(len(ranks)))


class TestLongest:
    def test_c24(self):
        value, witness = longest_zero_sumfree(C24)
        assert value == 4
        assert tuple(witness.sequence.iter_ranks()) == (1, 2, 2, 2)
        witness.reverify()

    def test_c2(self):
        assert longest_zero_sumfree(C2)[0] == 1

    def test_c6(self):
        value, witness = longest_zero_sumfree(C6)
        assert value == 5
        assert tuple(witness.sequence.iter_ranks()) == (1, 1, 1, 1, 1)

    def test_agrees_with_formula_on_p_groups(self, p_groups):
        for group in p_groups:
            assert longest_zero_sumfree(group)[0] == davenport_p_group(group)


class TestMaxCross:
    def test_c33(self):
        value, witness = max_cross_number(AbelianGroup((3, 3)))
        assert value == Fraction(4, 3)
        witness.reverify()

    def test_c2(self):
        value, witness = max_cross_number(C2)
        assert value == Fraction(1, 2)
        assert tuple(witness.sequence.iter_ranks()) == (1,)

    def test_c6(self):
        value, witness = max_cross_number(C6)
        assert value == Fraction(7, 6)
        # lexicographically least maximizer: (2)^2 * (3)
        assert tuple(witness.sequence.iter_ranks()) == (2, 2, 3)
        witness.reverify()

    def test_meets_k_star_lower_bound(self):
        for group in [C6, AbelianGroup((2, 6)), AbelianGroup((12,))]:
            assert max_cross_number(group)[0] >= k_star(group)


class TestDPair:
    def test_examples(self):
        assert d_pair_bruteforce(C24, DivisorPair(2, 4)) == 2
        assert d_pair_bruteforce(C24, DivisorPair(1, 4)) == 1
        assert d_pair_bruteforce(C24, DivisorPair(1, 2)) == 1
        assert d_pair_bruteforce(C24, DivisorPair(4, 4)) == 5

    def test_witness_avoids_forbidden_subgroup(self):
        length, witness = longest_avoiding(C24, DivisorPair(2, 4))
        assert length == 1
        witness.reverify()

    def test_non_p_group_full_pair(self):
        assert d_pair_bruteforce(AbelianGroup((2, 6)), DivisorPair(6, 6)) == 7
        assert d_pair_value(AbelianGroup((2, 6)), DivisorPair(6, 6)) == 7

    def test_davenport_constant_hybrid(self):
        assert davenport_constant(C24) == 5         # closed form
        assert davenport_constant(C6) == 6          # cyclic closed form
        assert davenport_constant(AbelianGroup((2, 6))) == 7  # search


class TestGammaExact:
    def test_examples(self):
        assert gamma_exact(C24, 1)[0] == 1
        assert gamma_exact(C22, 0)[0] == 2
        assert gamma_exact(C3, 1)[0] == 1

    def test_witness_properties(self):
        value, witness = gamma_exact(C24, 1)
        assert len(witness.sequence) == davenport_p_group(C24) - 1
        assert max_order_count(witness.sequence) == value
        witness.reverify()

    def test_delta_range(self):
        with pytest.raises(ValueError):
            gamma_exact(C24, 4)
        with pytest.raises(ValueError):
            gamma_exact(C24, -1)

    def test_min_over_longer_lengths_matches(self):
        # the quantity is defined over |S| >= d(G) - delta; equality with the
        # fixed-length search, on groups small enough to do it directly
        for group in [C22, C3, C24, AbelianGroup((4,))]:
            d_g = davenport_p_group(group)
            by_length: dict[int, int] = {}
            for length in range(1, d_g + 1):
                counts: list[int] = []
                enumerate_zero_sumfree(
                    group, length, lambda s: counts.append(max_order_count(s)))
                if counts:
                    by_length[length] = min(counts)
            for delta in range(d_g):
                over_all_longer = min(by_length[length]
                                      for length in range(d_g - delta, d_g + 1)
                                      if length in by_length)
                assert gamma_exact(group, delta)[0] == over_all_longer


class TestBudget:
    def test_node_budget_exhaustion(self):
        tiny = SearchBudget(max_nodes=3, max_seconds=60)
        with pytest.raises(BudgetExceededError) as info:
            longest_zero_sumfree(AbelianGroup((2, 8)), tiny)
        assert info.value.nodes_visited > 0
        assert 0 < info.value.elapsed_seconds < 60

    def test_time_budget_reports_elapsed_time(self):
        # the deadline is first checked at node 2048 of a root task
        instant = SearchBudget(max_seconds=1e-9)
        with pytest.raises(BudgetExceededError) as info:
            longest_zero_sumfree(AbelianGroup((5, 5)), instant)
        assert info.value.nodes_visited == 2048
        assert info.value.elapsed_seconds > 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(parallel_width=0)


class TestDeterminism:
    def test_results_independent_of_parallel_width(self):
        groups = [C24, AbelianGroup((3, 3)), AbelianGroup((2, 2, 4))]
        for group in groups:
            runs = []
            for width in (1, 4, 8):
                budget = SearchBudget(parallel_width=width)
                d_val, d_wit = longest_zero_sumfree(group, budget)
                k_val, k_wit = max_cross_number(group, budget)
                g_val, g_wit = gamma_exact(group, 0, budget)
                runs.append((d_val, tuple(d_wit.sequence.iter_ranks()),
                             k_val, tuple(k_wit.sequence.iter_ranks()),
                             g_val, tuple(g_wit.sequence.iter_ranks())))
            assert runs[0] == runs[1] == runs[2]

    def test_node_counts_independent_of_parallel_width(self):
        from zerosum.search import _LongestAcc, run_scan
        for width in (1, 2, 8):
            _, nodes = run_scan(C24, _LongestAcc,
                                budget=SearchBudget(parallel_width=width))
            assert nodes == 94  # total zero-sumfree sequences in C2xC4

    def test_budget_is_frozen(self):
        budget = SearchBudget()
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.max_nodes = 5


class TestPinnedCounts:
    """Node counts and witnesses that pruning and translation changes must keep."""

    def test_c5xc5_scans(self):
        from zerosum.groups import tables_for
        from zerosum.search import _LongestAcc, _MaxCrossAcc, run_scan
        group = AbelianGroup((5, 5))
        orders = tables_for(group).orders
        assert run_scan(group, _LongestAcc)[1] == 138_864
        assert run_scan(group, lambda: _MaxCrossAcc(orders, 5))[1] == 138_864
        d_val, d_wit = longest_zero_sumfree(group)
        k_val, k_wit = max_cross_number(group)
        assert (d_val, k_val) == (8, Fraction(8, 5))
        witness = (1, 1, 1, 1, 5, 5, 5, 5)
        assert tuple(d_wit.sequence.iter_ranks()) == witness
        assert tuple(k_wit.sequence.iter_ranks()) == witness

    def test_forbidden_allowed_elements_are_never_entered(self):
        from zerosum.search import _LongestAcc, run_scan
        everything = list(range(C24.cardinality))
        _, nodes = run_scan(C24, _LongestAcc, allowed=everything)
        assert nodes == 94  # as with the default allowed set, which omits 0

    def test_longest_avoiding_c8x8x8_subgroup(self):
        # forbidden set G_2 (8 elements), allowed G_4 minus G_2 (56 elements)
        from zerosum.groups import tables_for
        from zerosum.search import _LongestAcc, _subgroup_mask, run_scan
        group = AbelianGroup((8, 8, 8))
        pair = DivisorPair(2, 4)
        tables = tables_for(group)
        forbidden = _subgroup_mask(tables, pair.quotient)
        allowed = [r for r in range(tables.size)
                   if pair.d % tables.orders[r] == 0 and not (forbidden >> r) & 1]
        assert len(allowed) == 56
        _, nodes = run_scan(group, _LongestAcc, allowed=allowed, forbidden_mask=forbidden)
        assert nodes == 15_736
        length, witness = longest_avoiding(group, pair)
        assert length == 3
        assert witness.value == 4
        assert tuple(witness.sequence.iter_ranks()) == (2, 16, 128)
