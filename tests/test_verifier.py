from __future__ import annotations

import pytest

from zerosum import (AbelianGroup, SearchBudget, check_corollary_max_order,
                     check_cross_number_conjecture, check_dual_conjecture,
                     check_gamma_conjecture, check_heights,
                     check_order_divisibility, d_star, davenport_p_group,
                     enumerate_zero_sumfree)
from zerosum.search import _rank_lists, _ViolationAcc, run_scan
from conftest import P_GROUP_FACTORS

C24 = AbelianGroup((2, 4))
C6 = AbelianGroup((6,))


def full_tree_size(group) -> int:
    """Number of nonempty zero-sumfree sequences, independently of the
    checkers' own walks."""
    total = 0
    length = 1
    while True:
        count = enumerate_zero_sumfree(group, length)
        if count == 0:
            return total
        total += count
        length += 1


class TestCrossNumberConjecture:
    def test_verified_groups(self):
        for group in [C24, C6, AbelianGroup((2,))]:
            report = check_cross_number_conjecture(group)
            assert report.verdict == "verified"
            assert report.counterexample is None
            assert not report.implementation_bug

    def test_exhaustive_node_count(self):
        report = check_cross_number_conjecture(C24)
        assert report.nodes_visited == full_tree_size(C24)

    def test_proved_classes_of_rank_three(self):
        # C2+C2+C2n is proved, C2+C6+C6 is not: a non-p group of rank 3
        from zerosum.verifier import _cross_conjecture_proved
        assert _cross_conjecture_proved(AbelianGroup((2, 2, 6)))
        assert not _cross_conjecture_proved(AbelianGroup((2, 6, 6)))


class TestDualConjecture:
    def test_verified_groups(self):
        for group in [AbelianGroup((3, 3)), C6, AbelianGroup((2,))]:
            report = check_dual_conjecture(group)
            assert report.verdict == "verified"

    def test_exhaustive_node_count(self):
        report = check_dual_conjecture(C6)
        assert report.nodes_visited == full_tree_size(C6)


class TestOrderDivisibility:
    def test_theorem_threshold(self):
        report = check_order_divisibility(C24, 4)   # d(G) - p + 2
        assert report.verdict == "verified"
        report = check_order_divisibility(AbelianGroup((9,)), 8)
        assert report.verdict == "verified"

    def test_cyclic_at_d_star(self):
        for n in (6, 10, 12):
            group = AbelianGroup((n,))
            assert check_order_divisibility(group, d_star(group)).verdict == "verified"

    def test_counterexample_path_with_aggressive_threshold(self):
        # at threshold 1 the statement is false in C2xC6: any zero-sumfree
        # sequence containing the order-3 element (0,2) violates it
        group = AbelianGroup((2, 6))
        report = check_order_divisibility(group, 1, None)
        assert report.verdict == "counterexample"
        assert not report.implementation_bug   # no proved statement involved
        seq = report.counterexample
        assert seq is not None and len(seq) >= 1
        n_1 = group.invariant_factors[0]
        assert any(g.order() % n_1 != 0 for g in seq)
        from conftest import zero_sumfree_by_definition
        assert zero_sumfree_by_definition(seq)
        # lexicographically least violating sequence (prefix-extension order)
        assert tuple(seq.iter_ranks()) == (1, 2, 2, 2, 4)

    def test_verified_with_same_threshold_on_p_group(self):
        assert check_order_divisibility(C24, 1).verdict == "verified"


class TestHeights:
    def test_examples(self):
        assert check_heights(C24).verdict == "verified"
        assert check_heights(AbelianGroup((9,))).verdict == "verified"
        assert check_heights(AbelianGroup((2,))).verdict == "verified"

    def test_long_sequences_avoid_scaled_elements(self):
        # direct cross-check in C9: every zero-sumfree sequence of length >= 8
        # consists of units mod 9 (heights all 1)
        c9 = AbelianGroup((9,))
        hits = []
        enumerate_zero_sumfree(c9, 8, hits.append)
        assert hits
        for seq in hits:
            assert all(g.height() == 1 for g in seq)


class _StoppedViolationAcc(_ViolationAcc):
    """``_ViolationAcc`` that also ends every branch at length ``stop``, as
    the max-order check once did at d(G). A subclass: it runs on the
    Python kernel."""

    __slots__ = ("stop",)

    def __init__(self, min_length, bound, stop):
        super().__init__(min_length, bound)
        self.stop = stop

    def enter(self, node):
        return super().enter(node) and len(node[0]) < self.stop


class TestCorollaryMaxOrder:
    def test_examples(self):
        for factors in [(2, 4), (3, 3), (8,)]:
            report = check_corollary_max_order(AbelianGroup(factors))
            assert report.verdict == "verified"

    def test_no_stop_at_full_length_moves_no_node(self, kernel):
        # D(G) = d*(G) + 1 on p-groups (Olson 1969), so no zero-sumfree
        # child survives at length d(G): the walk that ended every branch
        # there enters the same nodes as the check, on either kernel
        for factors in P_GROUP_FACTORS:
            group = AbelianGroup(factors)
            d, exp = davenport_p_group(group), group.exponent
            weights = [-1 if o == exp else 0 for o in _rank_lists(factors)[0]]
            accs, nodes = run_scan(group, lambda: _StoppedViolationAcc(d, 1 - exp, d),
                                   weights=weights)
            found = any(acc.counterexample is not None for acc in accs)
            report = check_corollary_max_order(group)
            assert (report.verdict, report.nodes_visited) == (
                "counterexample" if found else "verified", nodes), factors

    @pytest.mark.parametrize("factors, nodes",
                             [((5, 5), 138_864), ((3, 9), 255_946), ((2, 4, 4), 508_080),
                              ((2, 2, 8), 638_304), ((3, 3, 3), 138_424)], ids=str)
    def test_node_counts_of_larger_groups(self, factors, nodes, compiled_kernel):
        # the counts the check gave when it ended every branch at d(G)
        report = check_corollary_max_order(AbelianGroup(factors))
        assert (report.verdict, report.nodes_visited) == ("verified", nodes)


class TestGammaConjecture:
    def test_verified_cases(self):
        report = check_gamma_conjecture(AbelianGroup((2, 2)), 0)
        assert report.verdict == "verified"
        assert report.detail("exact") == 2
        for delta in (0, 1):
            report = check_gamma_conjecture(AbelianGroup((3, 3)), delta)
            assert report.verdict == "verified"

    def test_reports_computed_value_within_bounds(self):
        for delta in (0, 1, 2):
            report = check_gamma_conjecture(AbelianGroup((4, 4)), delta)
            exact = report.detail("exact")
            assert report.detail("lower") <= exact <= report.detail("upper")

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            check_gamma_conjecture(C24, 99)

    def test_exhausted_budget(self):
        report = check_gamma_conjecture(AbelianGroup((4, 4)), 0, SearchBudget(max_nodes=1))
        assert report.verdict == "budget-exceeded"
        assert report.counterexample is None
        assert not report.implementation_bug


class TestBudgetExceeded:
    def test_verdict(self):
        tiny = SearchBudget(max_nodes=2, max_seconds=60)
        report = check_cross_number_conjecture(AbelianGroup((2, 8)), tiny)
        assert report.verdict == "budget-exceeded"
        assert report.counterexample is None
        assert report.nodes_visited > 0


class TestReportShape:
    def test_parameters_and_determinism(self):
        a = check_cross_number_conjecture(C24)
        b = check_cross_number_conjecture(C24)
        assert a.name == b.name
        assert a.parameters == b.parameters == (("threshold", 4),)
        assert a.nodes_visited == b.nodes_visited
        assert a.verdict == b.verdict

    def test_threads_do_not_change_report(self, threaded_scans, compiled_kernel, usable_cpus):
        runs = []
        for width in (1, 2, 4):
            usable_cpus(width)
            dual = check_dual_conjecture(AbelianGroup((3, 3)))
            order = check_order_divisibility(AbelianGroup((2, 6)), 1)
            runs.append([(r.verdict, r.counterexample, r.nodes_visited)
                         for r in (dual, order)])
        assert threaded_scans
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0][:2] == ("verified", None)
        assert runs[0][1][0] == "counterexample"
        assert tuple(runs[0][1][1].iter_ranks()) == (1, 2, 2, 2, 4)

    def test_worker_count_does_not_change_report(self, usable_cpus):
        usable_cpus(1)
        a = check_dual_conjecture(C24)
        usable_cpus(8)
        b = check_dual_conjecture(C24)
        assert (a.verdict, a.nodes_visited) == (b.verdict, b.nodes_visited)
