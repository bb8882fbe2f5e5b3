from __future__ import annotations

from fractions import Fraction

import pytest

from zerosum import (AbelianGroup, GSequence, InternalCheckError, cross_number,
                     d_star, davenport_p_group, dstar_sequence,
                     gamma_extremal_sequence, gamma_upper, k_star,
                     kstar_sequence, max_order_count, standard_basis)
from zerosum.sequences import check_witness
from conftest import zero_sumfree_by_definition

C24 = AbelianGroup((2, 4))


class TestBasis:
    def test_examples(self):
        assert [e.coords for e in standard_basis(C24)] == [(1, 0), (0, 1)]
        assert [e.coords for e in standard_basis(AbelianGroup((6,)))] == [(1,)]
        assert [e.coords for e in standard_basis(AbelianGroup((3, 3)))] == \
            [(1, 0), (0, 1)]

    def test_orders(self):
        for factors in [(2, 4), (6,), (2, 2, 4), (2, 12)]:
            group = AbelianGroup(factors)
            for e, n in zip(standard_basis(group), factors):
                assert e.order() == n


class TestDStarSequence:
    def test_examples(self):
        s = dstar_sequence(C24)
        assert tuple(s.iter_ranks()) == (1, 2, 2, 2)
        assert len(s) == 4
        assert tuple(dstar_sequence(AbelianGroup((6,))).iter_ranks()) == (1,) * 5
        assert tuple(dstar_sequence(AbelianGroup((2,))).iter_ranks()) == (1,)

    def test_length_and_freeness(self):
        for factors in [(2, 4), (3, 3), (2, 12), (2, 2, 4), (10,)]:
            group = AbelianGroup(factors)
            s = dstar_sequence(group)
            assert len(s) == d_star(group)
            if len(s) <= 12:
                assert zero_sumfree_by_definition(s)

    def test_wide_group_freeness(self):
        # |G| = 10^4: the subsum check shifts 10^4-bit masks
        group = AbelianGroup((100, 100))
        s = dstar_sequence(group)
        assert len(s) == d_star(group) == 198
        check_witness(s)
        one_more = GSequence.from_ranks(group, [*s.iter_ranks(), group.element((1, 0)).rank])
        with pytest.raises(InternalCheckError, match="not zero-sumfree"):
            check_witness(one_more)


class TestKStarSequence:
    def test_examples(self):
        c6 = AbelianGroup((6,))
        s = kstar_sequence(c6)
        assert sorted(s.iter_ranks()) == [2, 2, 3]   # (2)^2 * (3)
        assert cross_number(s) == Fraction(7, 6)
        assert tuple(kstar_sequence(C24).iter_ranks()) == (1, 2, 2, 2)
        assert cross_number(kstar_sequence(C24)) == Fraction(5, 4)
        assert tuple(kstar_sequence(AbelianGroup((2,))).iter_ranks()) == (1,)

    def test_cross_number_and_freeness(self):
        for factors in [(2, 4), (6,), (2, 12), (2, 6), (30,)]:
            group = AbelianGroup(factors)
            s = kstar_sequence(group)
            assert cross_number(s) == k_star(group)
            check_witness(s)
            if len(s) <= 12:
                assert zero_sumfree_by_definition(s)


class TestGammaExtremal:
    def test_case1_example(self):
        s = gamma_extremal_sequence(C24, 0)
        assert tuple(s.iter_ranks()) == (1, 2, 2, 2)   # e1 * e2^3
        assert max_order_count(s) == 3

    def test_case2_example(self):
        s = gamma_extremal_sequence(C24, 1)
        assert [g.coords for g in s] == [(1, 0), (0, 1), (0, 2)]
        assert max_order_count(s) == 1

    def test_case3_example(self):
        s = gamma_extremal_sequence(C24, 2)
        assert len(s) == 2
        assert max_order_count(s) == 0
        coords = [g.coords for g in s]
        assert set(coords) <= {(1, 0), (0, 2)}

    def test_delta_range(self):
        with pytest.raises(ValueError):
            gamma_extremal_sequence(C24, 4)

    def test_case_boundaries_partition_delta_range(self):
        for factors in [(2, 4), (4, 4), (9,), (2, 8), (2, 2, 4), (3, 3),
                        (2, 2, 2, 2), (3, 9), (27,)]:
            group = AbelianGroup(factors)
            p = group.p
            exps = group.p_exponents
            r, a_r = group.rank, exps[-1]
            width1 = r - exps.index(a_r)
            c1 = width1 * (p - 1) * (p ** (a_r - 1) - 1)
            c2 = width1 * (p - 1) * p ** (a_r - 1)
            d_g = davenport_p_group(group)
            assert 0 <= c1 <= c2
            for delta in range(d_g):
                cases = [delta < c1, c1 <= delta < c2, c2 <= delta]
                assert sum(cases) == 1

    def test_full_grid_properties(self):
        for factors in [(2, 4), (4, 4), (9,), (2, 8), (2, 2, 4), (3, 3),
                        (2, 2, 2, 2), (8,), (3, 9)]:
            group = AbelianGroup(factors)
            d_g = davenport_p_group(group)
            for delta in range(d_g):
                s = gamma_extremal_sequence(group, delta)
                assert len(s) == d_g - delta
                check_witness(s)
                assert max_order_count(s) == gamma_upper(group, delta)
                if len(s) <= 12:
                    assert zero_sumfree_by_definition(s)
