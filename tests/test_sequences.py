from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (AbelianGroup, GSequence, InternalCheckError, SubsumTable,
                     cross_number, definitional_subsums, groups, max_order_count,
                     order_filter, sequences, standard_basis, subsums)
from zerosum.search import _subgroup_mask
from zerosum.sequences import check_witness
from conftest import subsums_by_index_subsets, zero_sumfree_by_definition

C3 = AbelianGroup((3,))
C24 = AbelianGroup((2, 4))
E1E2_3 = GSequence.from_elements(C24, [(1, 0), (0, 1), (0, 1), (0, 1)])


def seq_of(group, *coords):
    return GSequence.from_elements(group, list(coords))


class TestGSequence:
    def test_canonical_form(self):
        s = GSequence.from_ranks(C3, [2, 1, 1])
        assert s.entries == ((1, 2), (2, 1))
        assert len(s) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GSequence(C3, ((0, 0),))  # zero multiplicity
        with pytest.raises(ValueError):
            GSequence(C3, ((2, 1), (1, 1)))  # ranks out of order
        with pytest.raises(ValueError):
            GSequence(C3, ((5, 1),))  # rank out of range

    def test_iteration_and_total(self):
        assert [g.coords for g in E1E2_3] == [(1, 0), (0, 1), (0, 1), (0, 1)]


class TestSubsums:
    def test_two_equal_elements(self):
        table = subsums(seq_of(C3, (1,), (1,)))
        assert sorted(table.marked_ranks()) == [1, 2]

    def test_complementary_pair(self):
        # frozen from enumerating all 3 nonempty index subsets of (1, 2)
        s = seq_of(C3, (1,), (2,))
        assert subsums_by_index_subsets(s) == {(0,), (1,), (2,)}
        assert sorted(subsums(s).marked_ranks()) == [0, 1, 2]

    def test_empty(self):
        assert subsums(GSequence.empty(C3)).mask == 0

    def test_membership_by_element_or_rank(self):
        # the subsums of (1) + (1) in C3 are 1 and 2, not 0
        table = subsums(seq_of(C3, (1,), (1,)))
        assert [C3.element_of_rank(r) in table for r in range(3)] == [False, True, True]
        assert [r in table for r in range(3)] == [False, True, True]

    def test_matches_definitional_enumeration(self):
        for s in [E1E2_3, seq_of(C24, (1, 2), (0, 2), (1, 0)),
                  seq_of(C3, (1,), (1,), (2,))]:
            got = {C24.element_of_rank(r).coords if s.group is C24
                   else s.group.element_of_rank(r).coords
                   for r in subsums(s).marked_ranks()}
            assert got == subsums_by_index_subsets(s)
            assert set(subsums(s).marked_ranks()) == definitional_subsums(s)

    def test_definitional_route_never_translates(self, monkeypatch):
        # the slow route cross-checks the shift, so it must not run on it
        def refuse(tables, mask, g):
            raise AssertionError("definitional_subsums called GroupTables.translate")
        monkeypatch.setattr(groups.GroupTables, "translate", refuse)
        for s in [E1E2_3, seq_of(C24, (1, 2), (0, 2), (1, 0)), seq_of(C3, (1,), (1,), (2,)),
                  GSequence.from_ranks(AbelianGroup((3, 9)), [1, 3, 3, 10, 26])]:
            assert {s.group.element_of_rank(r).coords
                    for r in definitional_subsums(s)} == subsums_by_index_subsets(s)

    def test_mark_count_bounds(self):
        s = E1E2_3
        table = subsums(s)
        assert table.count <= min(2 ** len(s) - 1, C24.cardinality)


class TestZeroSumfree:
    def test_basis_power_sequence(self):
        # all 2^4 - 1 index subsets sum to nonzero, per the definitional oracle
        assert zero_sumfree_by_definition(E1E2_3)
        assert not subsums(E1E2_3).contains_zero

    def test_zero_element_defeats(self):
        assert subsums(seq_of(C24, (0, 0), (1, 0))).contains_zero

    def test_complementary_pair(self):
        assert subsums(seq_of(C3, (1,), (2,))).contains_zero

    def test_empty_is_zero_sumfree(self):
        assert not subsums(GSequence.empty(C3)).contains_zero

    def test_height_sum_above_davenport_has_zero_subsum(self):
        # Olson's bound read the other way round from acceptance criterion 08:
        # every sequence of nonzero elements whose height sum exceeds d(G)
        # has a nonempty zero subsum
        for group in [C24, AbelianGroup((4,)), AbelianGroup((2, 2, 2))]:
            d_g = sum(n - 1 for n in group.invariant_factors)
            over = 0
            for length in range(1, d_g + 2):
                for ranks in itertools.combinations_with_replacement(
                        range(1, group.cardinality), length):
                    seq = GSequence.from_ranks(group, ranks)
                    if sum(g.height() for g in seq) > d_g:
                        assert subsums(seq).contains_zero, f"{group}: {seq}"
                        over += 1
            assert over > 0

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_deletion_monotonicity(self, ranks):
        s = GSequence.from_ranks(C24, ranks)
        if not subsums(s).contains_zero:
            for i in range(len(ranks)):
                shorter = GSequence.from_ranks(C24, ranks[:i] + ranks[i + 1:])
                assert not subsums(shorter).contains_zero

    @given(st.lists(st.integers(1, 7), min_size=0, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_incremental_equals_definitional(self, ranks):
        s = GSequence.from_ranks(C24, ranks)
        assert set(subsums(s).marked_ranks()) == definitional_subsums(s)


class TestCheckWitness:
    def test_zero_sumfree_passes(self):
        check_witness(E1E2_3)
        check_witness(GSequence.empty(C24))

    def test_zero_subsum_fails(self):
        with pytest.raises(InternalCheckError, match="is not zero-sumfree"):
            check_witness(seq_of(C24, (1, 0), (0, 1), (0, 1), (0, 2)))

    def test_subsum_in_the_forbidden_subgroup_fails(self):
        # D_(2,4) on C2xC4: no subsum in G_2, the elements of order 1 or 2
        g2 = _subgroup_mask(C24, 2)
        check_witness(seq_of(C24, (0, 1)), g2)
        with pytest.raises(InternalCheckError, match="forbidden subgroup"):
            check_witness(seq_of(C24, (0, 1), (0, 1)), g2)  # (0,1) + (0,1) = (0,2)
        with pytest.raises(InternalCheckError, match="forbidden subgroup"):
            check_witness(seq_of(C24, (1, 1), (0, 1)), g2)  # (1,1) + (0,1) = (1,2)

    def test_short_witness_is_compared_with_the_definitional_route(self, monkeypatch):
        monkeypatch.setattr(sequences, "subsums", lambda seq: SubsumTable(seq.group, 0))
        with pytest.raises(InternalCheckError, match="definitional subsums disagree"):
            check_witness(E1E2_3)

    def test_long_witness_skips_the_definitional_route(self, monkeypatch):
        # the basis of C2^13 has 2^13 - 1 = 8,191 nonempty sub-multisets
        c2_13 = AbelianGroup((2,) * 13)
        basis = standard_basis(c2_13)
        monkeypatch.setattr(sequences, "definitional_subsums", None)
        check_witness(GSequence.from_elements(c2_13, basis))
        with pytest.raises(InternalCheckError, match="is not zero-sumfree"):
            check_witness(GSequence.from_elements(c2_13, basis[:12] + basis[:1]))

    def test_long_witness_of_few_sub_multisets_is_compared(self, monkeypatch):
        # 13 elements but only 13 nonempty sub-multisets
        c14 = AbelianGroup((14,))
        monkeypatch.setattr(sequences, "subsums", lambda seq: SubsumTable(seq.group, 0))
        with pytest.raises(InternalCheckError, match="disagree"):
            check_witness(GSequence.from_ranks(c14, [1] * 13))

    def test_claims_are_measured(self):
        check_witness(E1E2_3, length=4, cross=Fraction(5, 4), max_order=3)
        with pytest.raises(InternalCheckError, match="is not of length 3"):
            check_witness(E1E2_3, length=3)
        with pytest.raises(InternalCheckError, match="is not of cross number 1"):
            check_witness(E1E2_3, cross=Fraction(1))
        with pytest.raises(InternalCheckError, match="is not of max-order count 4"):
            check_witness(E1E2_3, max_order=4)

    def test_definitional_route_refuses_by_cost(self):
        c2 = AbelianGroup((2,))
        assert definitional_subsums(GSequence.from_ranks(c2, [1] * 40)) == {0, 1}
        with pytest.raises(ValueError, match="8388607 sub-multisets refused"):
            definitional_subsums(GSequence.from_ranks(AbelianGroup((30,)), range(1, 24)))


class TestCrossNumber:
    def test_examples(self):
        assert cross_number(E1E2_3) == Fraction(5, 4)
        assert cross_number(GSequence.empty(C24)) == 0
        c6 = AbelianGroup((6,))
        ones = GSequence.from_ranks(c6, [1] * 5)
        assert cross_number(ones) == Fraction(5, 6)

    def test_exact_type(self):
        assert isinstance(cross_number(E1E2_3), Fraction)

    @given(st.lists(st.integers(0, 7), max_size=5), st.lists(st.integers(0, 7), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_additive_under_union(self, a, b):
        sa = GSequence.from_ranks(C24, a)
        sb = GSequence.from_ranks(C24, b)
        both = GSequence.from_ranks(C24, a + b)
        assert cross_number(both) == cross_number(sa) + cross_number(sb)


class TestOrderFilter:
    def test_examples(self):
        assert order_filter(E1E2_3, 2, "divides").entries == ((1, 1),)
        equals4 = order_filter(E1E2_3, 4, "equals")
        assert equals4.entries == ((2, 3),)
        assert order_filter(E1E2_3, 4, "divides") == E1E2_3

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            order_filter(E1E2_3, 3, "divides")
        with pytest.raises(ValueError):
            order_filter(E1E2_3, 2, "sometimes")

    def test_divides_is_union_of_equals(self):
        s = seq_of(C24, (1, 0), (0, 2), (0, 1), (1, 1), (1, 2))
        for d in (1, 2, 4):
            by_divides = order_filter(s, d, "divides")
            merged = [r for dd in (1, 2, 4) if d % dd == 0
                      for r in order_filter(s, dd, "equals").iter_ranks()]
            assert by_divides == GSequence.from_ranks(C24, merged)


class TestMaxOrderCount:
    def test_examples(self):
        assert max_order_count(E1E2_3) == 3
        assert max_order_count(GSequence.empty(C24)) == 0
        c6 = AbelianGroup((6,))
        assert max_order_count(GSequence.from_ranks(c6, [1] * 5)) == 5
