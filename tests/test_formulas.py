from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zerosum
from zerosum import (AbelianGroup, DivisorPair, NeedsOracleError,
                     NotApplicableError, UnsupportedGroupError, d_star,
                     davenport_closed_form, davenport_p_group, divisor_pairs,
                     gamma_bounds, gamma_exact_formula, gamma_lower, gamma_upper,
                     j0, k_star, little_cross_p_group, normalize_group,
                     reduced_group, search, upsilon_vector)
from zerosum.formulas import gamma_broken_rule, gamma_upper_is_exact
from zerosum.search import d_pair_value, zero_sumfree_extrema
from conftest import NON_P_FACTORS, P_GROUP_FACTORS

C24 = AbelianGroup((2, 4))
C33 = AbelianGroup((3, 3))
C6 = AbelianGroup((6,))


def test_formulas_imports_only_groups_errors_and_record():
    src = str(Path(zerosum.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, zerosum.formulas; "
         "print(sorted(m for m in sys.modules if m.startswith('zerosum.')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout
    assert out.strip() == str(["zerosum._record", "zerosum._version", "zerosum.errors",
                               "zerosum.formulas", "zerosum.groups"])


def test_package_exports_resolve():
    # a name left in __all__ after its function is deleted breaks `import *`
    assert len(set(zerosum.__all__)) == len(zerosum.__all__)
    assert [name for name in zerosum.__all__ if not hasattr(zerosum, name)] == []
    assert set(zerosum.__all__) <= set(dir(zerosum))


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


class TestDavenportClosedForm:
    def test_p_groups(self):
        assert davenport_closed_form(C24) == 5
        assert davenport_closed_form(C33) == 5
        assert davenport_closed_form(AbelianGroup((2, 2, 2))) == 4
        assert davenport_closed_form(AbelianGroup((9,))) == 9
        for factors in P_GROUP_FACTORS:
            group = AbelianGroup(factors)
            assert davenport_closed_form(group) == davenport_p_group(group) + 1

    def test_cyclic_groups(self):
        for n in (6, 10, 12, 30):
            assert davenport_closed_form(AbelianGroup((n,))) == n

    def test_other_groups_need_the_oracle(self):
        for factors in [(2, 6), (3, 6), (6, 6), (2, 2, 6)]:
            with pytest.raises(NeedsOracleError, match="search oracle"):
                davenport_closed_form(AbelianGroup(factors))

    def test_agrees_with_search(self):
        for factors in [f for f in NON_P_FACTORS if len(f) == 1] + [(2, 4), (3, 3), (2, 2, 2)]:
            group = AbelianGroup(factors)
            assert davenport_closed_form(group) == zero_sumfree_extrema(group)[0] + 1


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
    # d_pair_value is the route `dpair --method formula` runs; every reduced
    # group here is a p-group, so it takes the closed form and never searches
    def test_examples(self):
        assert d_pair_value(C24, DivisorPair(2, 4)) == 2
        assert d_pair_value(C24, DivisorPair(4, 4)) == 5
        assert d_pair_value(AbelianGroup((2, 4, 4)), DivisorPair(2, 4)) == 3

    def test_trivial_reduction(self):
        assert reduced_group(C24, DivisorPair(1, 4)) is None
        assert d_pair_value(C24, DivisorPair(1, 4)) == 1

    def test_needs_oracle_outside_closed_form(self, monkeypatch):
        pair = DivisorPair(6, 6)
        group = AbelianGroup((2, 6))
        assert reduced_group(group, pair) == group
        with pytest.raises(NeedsOracleError):
            davenport_closed_form(group)
        # d_pair_value resolves it with one search of the reduced group
        searched = []

        def counting(g, budget=None):
            searched.append(g)
            return zero_sumfree_extrema(g, budget)

        monkeypatch.setattr(search, "zero_sumfree_extrema", counting)
        assert d_pair_value(group, pair) == 7
        assert searched == [group]

    def test_closed_form_reductions_run_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form reduction searched")

        monkeypatch.setattr(search, "zero_sumfree_extrema", refuse)
        for group in [C24, C33, C6, AbelianGroup((2, 4, 4)), AbelianGroup((12,))]:
            for pair in divisor_pairs(group):
                reduced = reduced_group(group, pair)
                expected = 1 if reduced is None else davenport_closed_form(reduced)
                assert d_pair_value(group, pair) == expected

    def test_full_pair_recovers_davenport_on_subgroup(self):
        # D_{(d,d)}(G) equals D of G_d viewed as a group in its own right
        for group in [C24, C33, AbelianGroup((2, 8)), AbelianGroup((2, 2, 4))]:
            for d in range(1, group.exponent + 1):
                if group.exponent % d != 0 or d == 1:
                    continue
                upsilon = upsilon_vector(group, DivisorPair(d, d))
                sub = normalize_group([u for u in upsilon if u > 1])
                assert d_pair_value(group, DivisorPair(d, d)) == \
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

    def test_broken_rule_is_the_bounds_or_the_proved_regime(self):
        # the closed form equals the upper bound wherever it applies, so a
        # value breaks a rule iff it leaves the bounds or, in the proved
        # regime, the upper bound; the first broken rule is named
        for factors in P_GROUP_FACTORS:
            group = AbelianGroup(factors)
            for delta in range(davenport_p_group(group)):
                bounds = gamma_bounds(group, delta)
                for value in range(bounds.upper + 2):
                    broken = gamma_broken_rule(group, bounds, value)
                    assert (broken is not None) == (
                        not bounds.lower <= value <= bounds.upper
                        or value != bounds.upper and gamma_upper_is_exact(group, delta))
        c44 = AbelianGroup((4, 4))
        assert gamma_broken_rule(c44, gamma_bounds(c44, 0), 6) is None
        assert gamma_broken_rule(c44, gamma_bounds(c44, 0), 5) == (
            "search found 5, but the proved regime (j0 = r, or j0 = 1 and "
            "delta <= p - 2) has gamma = 6")
        assert gamma_broken_rule(C24, gamma_bounds(C24, 1), 0) == (
            "search value 0 escapes the proven bounds [1, 1]")
