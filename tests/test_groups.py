from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerosum.groups as groups
from zerosum import (AbelianGroup, InvalidGroupError, UndefinedHeightError,
                     UnsupportedGroupError, normalize_group)
from zerosum.search import _rank_lists
from conftest import (NON_P_FACTORS, P_GROUP_FACTORS, height_by_brute_force,
                      order_by_repeated_addition, order_multiset_of_raw_product, rank_map)

C24 = AbelianGroup((2, 4))


class TestConstruction:
    def test_chain_accepted(self):
        g = AbelianGroup((2, 4))
        assert g.invariant_factors == (2, 4)
        assert g.cardinality == 8
        assert g.exponent == 4
        assert g.rank == 2

    def test_broken_chain_rejected(self):
        with pytest.raises(InvalidGroupError):
            AbelianGroup((4, 6))

    def test_factor_below_two_rejected(self):
        with pytest.raises(InvalidGroupError):
            AbelianGroup((1,))
        with pytest.raises(InvalidGroupError):
            normalize_group([1])
        with pytest.raises(InvalidGroupError):
            normalize_group([])

    @pytest.mark.parametrize("factors", [(3.9, 3), (3, True), ("3", 3)])
    def test_inexact_factor_rejected(self, factors):
        with pytest.raises(InvalidGroupError):
            AbelianGroup(factors)

    def test_cardinality_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "CARDINALITY_CAP", 100)
        with pytest.raises(InvalidGroupError):
            AbelianGroup((101,))
        AbelianGroup((10,))  # under the cap

    def test_p_group_data(self):
        assert C24.is_p_group
        assert C24.p == 2
        assert C24.p_exponents == (1, 2)
        c6 = AbelianGroup((6,))
        assert not c6.is_p_group
        with pytest.raises(UnsupportedGroupError):
            c6.p

    @pytest.mark.parametrize("factors, p, exps", [
        ((2 ** 19,), 2, (19,)),
        ((3 ** 12,), 3, (12,)),
        ((7 ** 7,), 7, (7,)),
        ((997 ** 2,), 997, (2,)),
        ((2 ** 9, 2 ** 10), 2, (9, 10)),
        ((3, 3 ** 5, 3 ** 6), 3, (1, 5, 6)),
    ])
    def test_p_exponents_at_the_cap(self, factors, p, exps):
        group = AbelianGroup(factors)
        assert group.p == p
        assert group.p_exponents == exps


class TestNormalize:
    def test_already_chain(self):
        assert normalize_group([2, 4]).invariant_factors == (2, 4)

    def test_recombination(self):
        # frozen from the primary decomposition {4} u {2,3} -> (2, 12)
        assert normalize_group([4, 6]).invariant_factors == (2, 12)

    def test_recombination_order_statistics_oracle(self):
        # the normalized group must be isomorphic to the raw direct product:
        # compare the full multisets of element orders
        for raw in [(4, 6), (6, 4), (2, 3), (12, 2), (6, 10, 15)]:
            normalized = normalize_group(raw)
            assert (order_multiset_of_raw_product(raw)
                    == order_multiset_of_raw_product(normalized.invariant_factors))

    @pytest.mark.parametrize("factors", [["4", 6.5], [4, 6.0], [True, 4]])
    def test_inexact_factor_rejected(self, factors):
        with pytest.raises(InvalidGroupError):
            normalize_group(factors)

    def test_over_cap_refused_before_factorizing(self, monkeypatch):
        def no_factorizing(n):
            raise AssertionError(f"factorized {n}")

        monkeypatch.setattr(groups, "_factorize", no_factorizing)
        for spec in ["100000000000031", "1000000000000000003", "1000,1001"]:
            with pytest.raises(InvalidGroupError, match="exceeds the desk-scale cap"):
                groups.parse_group_spec(spec)

    @given(st.lists(st.integers(2, 30), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, factors):
        once = normalize_group(factors)
        again = normalize_group(once.invariant_factors)
        assert once == again


class TestElementArithmetic:
    def test_add(self):
        assert (C24.element((1, 3)) + C24.element((1, 2))).coords == (0, 1)
        assert (C24.zero + C24.element((1, 3))).coords == (1, 3)
        c3 = AbelianGroup((3,))
        assert (c3.element((2,)) + c3.element((2,))).coords == (1,)

    def test_add_dimension_mismatch(self):
        c3 = AbelianGroup((3,))
        with pytest.raises(ValueError):
            C24.element((1, 3)) + c3.element((2,))
        with pytest.raises(ValueError):
            c3.element((1,)) + C24.element((1, 0))

    def test_scale(self):
        assert (2 * C24.element((1, 3))).coords == (0, 2)
        assert (-1 * C24.element((1, 3))).coords == (1, 1)
        c9 = AbelianGroup((9,))
        assert (3 * c9.element((1,))).coords == (3,)

    def test_coords_reduced(self):
        assert C24.element((3, 7)).coords == (1, 3)

    @pytest.mark.parametrize("coords", [(1.2, 0), (True, 0), ("1", 0)])
    def test_inexact_coordinate_rejected(self, coords):
        with pytest.raises(ValueError):
            AbelianGroup((3, 3)).element(coords)

    def test_rank_round_trip(self):
        for rank in range(C24.cardinality):
            assert C24.element_of_rank(rank).rank == rank
        # ranks are the mixed-radix index with the first coordinate fastest
        assert C24.element((1, 0)).rank == 1
        assert C24.element((0, 1)).rank == 2


class TestOrder:
    def test_examples_against_oracle(self):
        for coords, expected in [((1, 1), 4), ((0, 0), 1), ((1, 2), 2)]:
            g = C24.element(coords)
            assert order_by_repeated_addition(g) == expected if not g.is_zero else True
            assert g.order() == expected

    @given(st.integers(0, 7))
    @settings(max_examples=20, deadline=None)
    def test_order_divides_exponent(self, rank):
        g = C24.element_of_rank(rank)
        assert C24.exponent % g.order() == 0
        assert (g.order() == 1) == g.is_zero

    def test_oracle_agreement_everywhere(self):
        for group in [C24, AbelianGroup((3, 9)), AbelianGroup((2, 2, 4))]:
            for g in group.elements():
                assert g.order() == order_by_repeated_addition(g)


class TestHeight:
    def test_examples_against_oracle(self):
        assert C24.element((0, 2)).height() == height_by_brute_force(C24, C24.element((0, 2))) == 2
        assert C24.element((1, 2)).height() == height_by_brute_force(C24, C24.element((1, 2))) == 1

    def test_zero_is_an_error(self):
        with pytest.raises(UndefinedHeightError):
            C24.zero.height()

    def test_non_p_group_is_an_error(self):
        c6 = AbelianGroup((6,))
        with pytest.raises(UnsupportedGroupError):
            c6.element((1,)).height()

    def test_definitional_property(self):
        # g = alpha(g) * h has a solution, g = (p * alpha(g)) * h has none
        for group in [C24, AbelianGroup((9,)), AbelianGroup((2, 2, 4))]:
            p = group.p
            for g in group.elements():
                if g.is_zero:
                    continue
                alpha = g.height()
                assert any(alpha * h == g for h in group.elements())
                assert not any((p * alpha) * h == g for h in group.elements())

    def test_oracle_agreement_everywhere(self):
        for group in [C24, AbelianGroup((8,)), AbelianGroup((3, 9))]:
            for g in group.elements():
                if not g.is_zero:
                    assert g.height() == height_by_brute_force(group, g)


class TestPrimaryDecomposition:
    def test_examples(self):
        assert AbelianGroup((2, 12)).primary_decomposition() == (2, 3, 4)
        assert AbelianGroup((9,)).primary_decomposition() == (9,)
        assert AbelianGroup((6,)).primary_decomposition() == (2, 3)

    def test_part_count_and_product(self):
        for factors in [(2, 12), (6,), (2, 2, 4), (30,), (2, 6)]:
            group = AbelianGroup(factors)
            parts = group.primary_decomposition()
            expected_parts = sum(len(groups._factorize(n)) for n in factors)
            assert len(parts) == expected_parts
            assert math.prod(parts) == group.cardinality

    def test_recombination_reproduces_group(self):
        for factors in [(2, 12), (2, 2, 4), (6,), (3, 9)]:
            group = AbelianGroup(factors)
            assert normalize_group(group.primary_decomposition()) == group


class TestTables:
    """The search's rank lists against the element model."""

    @pytest.mark.parametrize("factors", P_GROUP_FACTORS + NON_P_FACTORS + [
        (6, 6), (16, 16), (9, 27), (8, 8, 8), (100, 100)])
    def test_every_rank_matches_its_element(self, factors):
        group = AbelianGroup(factors)
        orders, neg = _rank_lists(factors)
        assert len(orders) == len(neg) == group.cardinality
        for r, element in enumerate(group.elements()):
            assert orders[r] == element.order()
            assert neg[r] == (-element).rank


def translate_by_addition(group: AbelianGroup, mask: int, g: int) -> int:
    """Slow reference for ``GroupTables.translate``: add g to every marked rank."""
    shifted, out = rank_map(group, g), 0
    for x in range(group.cardinality):
        if (mask >> x) & 1:
            out |= 1 << shifted[x]
    return out


class TestTranslate:
    """The rotation translate against the per-bit addition oracle."""

    @staticmethod
    def check(factors, elements, rng, masks_per_element=3):
        group, tables = AbelianGroup(factors), groups.GroupTables(factors)
        full = (1 << tables.size) - 1
        for g in elements:
            masks = [0, full, 1, 1 << (tables.size - 1)]
            masks += [rng.getrandbits(tables.size) for _ in range(masks_per_element)]
            for mask in masks:
                assert tables.translate(mask, g) == translate_by_addition(group, mask, g), \
                    (factors, g, mask)

    @pytest.mark.parametrize("factors", P_GROUP_FACTORS + NON_P_FACTORS)
    def test_every_element_of_conftest_groups(self, factors):
        self.check(factors, range(math.prod(factors)), random.Random(str(factors)))

    @pytest.mark.parametrize("factors", [(16, 16), (8, 8, 8), (3, 9, 27)])
    def test_sampled_elements_of_larger_groups(self, factors):
        rng = random.Random(str(factors))
        size = math.prod(factors)
        elements = [1, size - 1] + rng.sample(range(size), 30)
        self.check(factors, elements, rng, masks_per_element=1)

    def test_sampled_elements_of_c100xc100(self):
        rng = random.Random(100)
        elements = [1, 100, 101, 9999] + rng.sample(range(10_000), 4)
        self.check((100, 100), elements, rng, masks_per_element=1)

    def test_rotation_cache_is_bounded(self):
        factors = (3, 9, 27)
        tables = groups.GroupTables(factors)
        mask = sum(1 << r for r in range(0, tables.size, 7))
        for g in range(tables.size):
            tables.translate(mask, g)
        assert len(tables._rotations) == sum(n - 1 for n in factors)
