from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from zerosum import (AbelianGroup, DivisorPair, GSequence, NeedsOracleError,
                     NotApplicableError, UnsupportedGroupError, d_pair_formula,
                     d_star, davenport_p_group, divisor_pairs, gamma_bounds,
                     gamma_exact_formula, gamma_lower, gamma_upper,
                     is_zero_sumfree, j0, k_star, key_lemma_predicate,
                     little_cross_p_group, normalize_group, olson_predicate,
                     reduced_group, upsilon_vector)
from zerosum.formulas import gamma_upper_is_exact
from zerosum.search import d_pair_value, run_scan

C24 = AbelianGroup((2, 4))
C33 = AbelianGroup((3, 3))
C6 = AbelianGroup((6,))


def seq_of(group, *coords):
    return GSequence.from_elements(group, list(coords))


class TestElementaryInvariants:
    def test_d_star(self):
        assert d_star(C24) == 4
        assert d_star(AbelianGroup((2, 12))) == 12

    def test_k_star(self):
        # parts {2, 4, 3}: 1/2 + 3/4 + 2/3
        assert k_star(AbelianGroup((2, 12))) == Fraction(23, 12)
        for p in (2, 3, 5, 7):
            assert k_star(AbelianGroup((p,))) == Fraction(p - 1, p)

    def test_davenport_p_group(self):
        assert davenport_p_group(C24) == 4
        assert davenport_p_group(C33) == 4
        with pytest.raises(UnsupportedGroupError):
            davenport_p_group(C6)

    def test_little_cross_p_group(self):
        assert little_cross_p_group(C33) == Fraction(4, 3)
        assert little_cross_p_group(C24) == Fraction(5, 4)
        with pytest.raises(UnsupportedGroupError):
            little_cross_p_group(C6)


class TestUpsilon:
    def test_examples(self):
        assert upsilon_vector(C24, DivisorPair(2, 4)) == (1, 2)
        assert upsilon_vector(C24, DivisorPair(4, 4)) == (2, 4)
        assert upsilon_vector(C24, DivisorPair(1, 4)) == (1, 1)
        assert upsilon_vector(C24, DivisorPair(1, 2)) == (1, 1)

    def test_last_entry_is_always_d_prime(self):
        for group in [C24, C33, C6, AbelianGroup((2, 12)), AbelianGroup((2, 2, 4))]:
            for pair in divisor_pairs(group):
                upsilon = upsilon_vector(group, pair)
                assert upsilon[-1] == pair.d_prime
                for u, n in zip(upsilon, group.invariant_factors):
                    if n % pair.d == 0:
                        assert u == pair.d_prime

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            DivisorPair(3, 4)
        with pytest.raises(ValueError):
            DivisorPair(0, 4)
        with pytest.raises(ValueError):
            DivisorPair(3, 3).validate_for(C24)


class TestDPairFormula:
    def test_examples(self):
        assert d_pair_formula(C24, DivisorPair(2, 4)) == 2
        assert d_pair_formula(C24, DivisorPair(4, 4)) == 5
        assert d_pair_formula(AbelianGroup((2, 4, 4)), DivisorPair(2, 4)) == 3

    def test_trivial_reduction(self):
        assert reduced_group(C24, DivisorPair(1, 4)) is None
        assert d_pair_formula(C24, DivisorPair(1, 4)) == 1

    def test_needs_oracle_outside_closed_form(self):
        pair = DivisorPair(6, 6)
        group = AbelianGroup((2, 6))
        assert reduced_group(group, pair) == group
        with pytest.raises(NeedsOracleError):
            d_pair_formula(group, pair)
        # the oracle-assisted route resolves it
        assert d_pair_value(group, pair) == 7

    def test_full_pair_recovers_davenport_on_subgroup(self):
        # D_{(d,d)}(G) equals D of G_d viewed as a group in its own right
        for group in [C24, C33, AbelianGroup((2, 8)), AbelianGroup((2, 2, 4))]:
            for d in range(1, group.exponent + 1):
                if group.exponent % d != 0 or d == 1:
                    continue
                upsilon = upsilon_vector(group, DivisorPair(d, d))
                sub = normalize_group([u for u in upsilon if u > 1])
                assert d_pair_formula(group, DivisorPair(d, d)) == \
                    davenport_p_group(sub) + 1


class TestGammaFormulas:
    def test_j0(self):
        assert j0(C24) == 2
        assert j0(C33) == 1
        assert j0(AbelianGroup((2, 4, 4))) == 2
        with pytest.raises(UnsupportedGroupError):
            j0(C6)

    def test_lower_examples(self):
        assert gamma_lower(C24, 0) == 3
        assert gamma_lower(AbelianGroup((4, 4)), 0) == 5
        assert gamma_lower(C24, 2) == 0
        assert gamma_bounds(C24, 2).raw_lower == -1

    def test_upper_examples(self):
        assert gamma_upper(C24, 0) == 3
        assert gamma_upper(C24, 1) == 1
        assert gamma_upper(AbelianGroup((4, 4)), 0) == 6

    def test_exact_formula_examples(self):
        assert gamma_exact_formula(C24, 1) == 1
        assert gamma_exact_formula(AbelianGroup((9,)), 0) == 8
        with pytest.raises(NotApplicableError):
            gamma_exact_formula(C33, 0)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            gamma_lower(C24, -1)
        with pytest.raises(ValueError):
            gamma_upper(C24, 4)  # d(G) - 1 == 3

    def test_lower_never_exceeds_upper(self):
        for factors in [(2, 4), (4, 4), (9,), (2, 8), (2, 2, 4), (3, 3),
                        (2, 2, 2, 2), (8,), (3, 9)]:
            group = AbelianGroup(factors)
            for delta in range(davenport_p_group(group)):
                assert gamma_lower(group, delta) <= gamma_upper(group, delta)

    def test_exact_formula_equals_upper_when_j0_is_r(self):
        for factors in [(2, 4), (9,), (2, 8), (2, 2, 4), (8,), (5,), (3, 9)]:
            group = AbelianGroup(factors)
            assert j0(group) == group.rank
            for delta in range(davenport_p_group(group)):
                assert gamma_exact_formula(group, delta) == gamma_upper(group, delta)

    def test_exact_formula_equals_upper_on_every_small_group_with_j0_r(self):
        # every p-group with p in {2, 3, 5, 7}, rank at most 4, at most 5,000
        # elements and j0 = r: 37,897 values of (G, delta)
        for p in (2, 3, 5, 7):
            for rank in range(1, 5):
                for exps in itertools.combinations_with_replacement(range(1, 13), rank):
                    if p ** sum(exps) > 5000 or exps[-1] in exps[:-1]:
                        continue
                    group = AbelianGroup(tuple(p ** a for a in exps))
                    for delta in range(davenport_p_group(group)):
                        assert gamma_exact_formula(group, delta) == gamma_upper(group, delta)

    def test_upper_is_exact_in_the_proved_regimes(self):
        assert all(gamma_upper_is_exact(C24, delta) for delta in range(4))  # j0 = r
        # homocyclic: the heights theorem covers delta <= p - 2, where the
        # upper bound is d(G) - delta
        c44, c99 = AbelianGroup((4, 4)), AbelianGroup((9, 9))
        assert [gamma_upper_is_exact(c44, delta) for delta in range(3)] == [True, False, False]
        assert [gamma_upper_is_exact(c99, delta) for delta in range(3)] == [True, True, False]
        assert [gamma_upper(c99, delta) for delta in (0, 1)] == [16, 15]
        assert not gamma_upper_is_exact(AbelianGroup((2, 4, 4)), 0)  # 1 < j0 < r
        with pytest.raises(ValueError):
            gamma_upper_is_exact(c44, 6)


class TestOlsonPredicate:
    def test_examples(self):
        hot = seq_of(C24, (0, 2), (0, 2), (1, 0))   # heights 2 + 2 + 1 = 5 > 4
        assert olson_predicate(C24, hot)
        assert not is_zero_sumfree(hot)             # indeed (0,2) + (0,2) = 0
        assert not olson_predicate(C24, seq_of(C24, (0, 2), (0, 2)))
        assert not olson_predicate(C24, seq_of(C24, (0, 1)))

    def test_errors(self):
        with pytest.raises(ValueError):
            olson_predicate(C24, seq_of(C24, (0, 0)))
        with pytest.raises(UnsupportedGroupError):
            olson_predicate(C6, seq_of(C6, (1,)))

    def test_true_implies_not_zero_sumfree(self):
        # exhaustive over every zero-sumfree sequence: the predicate is false
        class Acc:
            def __init__(self):
                self.bad = []

            def enter(self, path):
                seq = GSequence.from_ranks(C24, path)
                if olson_predicate(C24, seq):
                    self.bad.append(tuple(path))
                return True

            def leave(self, path):
                pass

        accs, _ = run_scan(C24, Acc)
        assert all(not acc.bad for acc in accs)


class TestKeyLemmaPredicate:
    def test_example_positive(self):
        s = seq_of(C24, (1, 0), (0, 2), (1, 2))
        assert key_lemma_predicate(C24, s, DivisorPair(2, 4))
        assert not is_zero_sumfree(s)  # the three elements sum to zero

    def test_example_negative(self):
        s = seq_of(C24, (1, 0), (0, 1), (0, 1), (0, 1))
        assert not key_lemma_predicate(C24, s, DivisorPair(2, 4))
        assert is_zero_sumfree(s)

    def test_d_prime_one_reduces_to_length_test(self):
        # with d' = 1 the condition is exactly |U| >= D_{(d,d)}
        for group in [C24, C33]:
            for d in (2, group.exponent):
                if group.exponent % d != 0:
                    continue
                pair = DivisorPair(1, d)
                target = d_pair_formula(group, DivisorPair(d, d))
                full = GSequence.from_ranks(
                    group, [r for r in range(1, group.cardinality)
                            if d % group.element_of_rank(r).order() == 0])
                assert key_lemma_predicate(group, full, pair) == \
                    (len(full) >= target)

    def test_true_implies_not_zero_sumfree(self):
        pair = DivisorPair(2, 4)

        class Acc:
            def __init__(self):
                self.bad = []

            def enter(self, path):
                seq = GSequence.from_ranks(C24, path)
                if key_lemma_predicate(C24, seq, pair):
                    self.bad.append(tuple(path))
                return True

            def leave(self, path):
                pass

        accs, _ = run_scan(C24, Acc)
        assert all(not acc.bad for acc in accs)

    def test_oracle_resolver_injection(self):
        pair = DivisorPair(6, 6)
        group = AbelianGroup((2, 6))
        s = GSequence.from_ranks(group, [2, 2])
        with pytest.raises(NeedsOracleError):
            key_lemma_predicate(group, s, pair)
        # search-backed resolver
        key_lemma_predicate(group, s, pair,
                            d_pair_fn=lambda g, pr: d_pair_value(g, pr))
